"""Compare two sets of benchmark results, e.g. a parent commit and a change.

Collect both sets with the same benchmark code, alternating which side
runs first, one line per run:

    python3 bench/compare.py collect --runs 10 \\
        bench/out/parent.jsonl=../parent-checkout bench/out/change.jsonl=.

Each run executes this file's bench/run.py with the other checkout as its
working directory, so both sides use identical benchmark code against
their own src/.  Every workload of BENCHMARK.json runs, for its
run_seconds.  Then:

    python3 bench/compare.py report bench/out/parent.jsonl bench/out/change.jsonl

For every workload and end-to-end metric it prints each side's median and
quartiles and a verdict under the bounds in BENCHMARK.json:

* better      -- the second set wins at least 9 of every 10 runs paired by
                 seed (ties count for neither) and the medians differ by
                 more than the first set's own quartile distance;
* unresolved  -- the first set's spread (quartile distance over median) is
                 wider than the bound, and not every run of the second set
                 beats every run of the first;
* worse       -- the second median is worse than the first by more than
                 the bound;
* within      -- none of these: no worse than the bound allows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def collect(args) -> int:
    sides = []
    for item in args.sides:
        out, _, checkout = item.partition("=")
        if not checkout:
            sys.exit(f"expected OUT=CHECKOUT, got {item!r}")
        sides.append((Path(out), Path(checkout).resolve()))
    workloads = [w["name"] for w in SPEC["workloads"]]
    seconds = str(SPEC["run_seconds"])
    for i in range(args.runs):
        seed = args.first_seed + i
        order = sides if i % 2 == 0 else sides[::-1]
        for name in workloads:
            for out, checkout in order:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                    cwd=checkout, capture_output=True, text=True, timeout=600)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    return proc.returncode
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                out.parent.mkdir(parents=True, exist_ok=True)
                with out.open("a") as fh:
                    fh.write(json.dumps({"workload": name, "seed": seed,
                                         "result": result}) + "\n")
                print(f"run {i} {name} {checkout}: correct={result['correct']}",
                      file=sys.stderr)
    return 0


def load(path: str) -> dict:
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs.setdefault(rec["workload"], {})[rec["seed"]] = rec["result"]
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: dict, b: dict, metric: dict,
            more_failed: bool = False) -> tuple[str, str]:
    """(verdict, detail) for one metric of one workload; a and b map
    seed -> value.  A gain does not count when the second set failed a
    larger share of its operations."""
    lower = metric["better"] == "lower"
    va, vb = list(a.values()), list(b.values())
    q1a, meda, q3a = quartiles(va)
    medb = statistics.median(vb)
    spread = (q3a - q1a) / meda
    worse_by = (medb - meda) / meda if lower else (meda - medb) / meda

    def beats(x, y):
        return x < y if lower else x > y

    pairs = [(a[s], b[s]) for s in a if s in b]
    wins = sum(beats(y, x) for x, y in pairs)
    all_better = all(beats(y, x) for y in vb for x in va)
    detail = f"wins {wins}/{len(pairs)}, spread {spread:.3f}, gain {-worse_by:+.3f}"
    if pairs and wins >= 0.9 * len(pairs) and abs(medb - meda) > q3a - q1a \
            and not more_failed:
        return "better", detail
    if spread > metric["bound"] and not all_better:
        return "unresolved", detail
    if worse_by > metric["bound"]:
        return "worse", detail
    return "within", detail


def report(args) -> int:
    a, b = load(args.first), load(args.second)
    for w in SPEC["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            continue
        ra, rb = a[name], b[name]
        share = {}
        for label, runs in (("first", ra), ("second", rb)):
            att = sum(r["attempted"] for r in runs.values())
            fail = sum(r["failed"] for r in runs.values())
            ok = all(r["correct"] for r in runs.values())
            share[label] = fail / att
            print(f"{name} {label}: {len(runs)} runs, {fail}/{att} failed, "
                  f"correct={ok}")
        for metric in SPEC["end_to_end"]:
            key = metric["name"]
            va = {s: r["metrics"][key]["value"] for s, r in ra.items()
                  if key in r["metrics"]}
            vb = {s: r["metrics"][key]["value"] for s, r in rb.items()
                  if key in r["metrics"]}
            if not va or not vb:
                continue
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            v, detail = verdict(va, vb, metric, share["second"] > share["first"])
            print(f"  {key:17s} {metric['unit']:8s} "
                  f"first {qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                  f"second {qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
                  f"bound {metric['bound']}: {v} ({detail})")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Collect and compare result sets.")
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run the benchmark on one or two checkouts")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--first-seed", type=int, default=1)
    c.add_argument("sides", nargs="+", metavar="OUT=CHECKOUT")
    r = sub.add_parser("report", help="compare two collected result sets")
    r.add_argument("first")
    r.add_argument("second")
    args = p.parse_args(argv)
    return collect(args) if args.cmd == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
