"""Benchmark entry point: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload deep_trees --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from ./src.
Set-up (importing treepolymer, building laws, plans and grids) is timed in
fresh interpreters, several times, each scaled by an import kernel, and
reported as a median.  The timed
pass then runs whole rounds of the workload's operations until --seconds
have passed.  Every output is checked after the pass.  The last line of
stdout is {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones, taken
from traced rounds that alternate with untraced ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Timings are scaled by a reference kernel timed beside the work: a segment
# of wall time w measured while the kernel takes c seconds counts as
# w * REF_S / c.  On a shared host the speed of one core swings by up to
# about 2x within minutes as neighbours come and go.  A kernel that loads
# the core the way the workload does slows down with it, so the ratio holds
# steadier than the raw wall time: over 90 s of such swings the 10-second
# medians of raw work time ranged over 41-62%, those of the work/kernel
# ratios over 4-7%.  Each workload names its kernel from two parts:
# "python" (scalar calls, as in phase root-finding) and "numpy" (Philox
# words turned into exp/cos and summed, as in tree sweeps); a workload that
# does both kinds of work runs both.  Neither part runs treepolymer code.
# REF_S is close to the kernel's fastest time on a core of the shared
# 2-vCPU KVM guest (2.1 GHz Xeon) where README.md's figures were taken
# (fastest and 5th percentile over 20 s: python 0.88 and 0.97 ms, numpy
# 0.88 and 1.46 ms), so scaled times read roughly as seconds on an idle
# such core.
REF_S = {"python": 0.00095, "numpy": 0.00090}
CALIBRATE_EVERY_S = 0.25  # wall seconds of work between kernel timings
KERNEL_REPS = 5

# Set-up is scaled the same way, by a kernel of its own kind: a fresh
# interpreter that imports standard-library packages (bytecode, C
# extensions, shared libraries), timed just before each set-up probe.  The
# compute kernels above do not fit import time, which speeds up less than
# they do when the core is fast: over 200 probe pairs in a trial (whose
# kernel also imported tomllib), the medians of ten consecutive raw set-up
# times spread by 0.20 (quartile distance over median), those scaled by
# the "python" kernel by 0.22 and those scaled by this kernel by 0.035.
# REF_IMPORT_S is close to its fastest time on the host above.
IMPORT_KERNEL = ("from time import perf_counter\n"
                 "t = perf_counter()\n"
                 "import asyncio, difflib, email.mime.multipart, http.client, "
                 "pydoc, sqlite3, tarfile, unittest, xml.dom.minidom\n"
                 "print(perf_counter() - t)")
REF_IMPORT_S = 0.065
SETUP_PAIRS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time one set-up in this process and print it")
    return p.parse_args(argv)


class Clock:
    """Median time of a reference kernel, taken on demand; `kinds` names
    the parts it runs back to back."""

    def __init__(self, kinds: tuple[str, ...]):
        import numpy as np
        self.np = np
        self.parts = [{"python": self._python, "numpy": self._numpy}[k]
                      for k in kinds]
        self.ref_s = sum(REF_S[k] for k in kinds)

    def kernel(self) -> None:
        for part in self.parts:
            part()

    @staticmethod
    def _step(a: float, b: float) -> float:
        return math.log(a) + 0.5 * b

    def _python(self) -> float:
        acc = 0.0
        for i in range(1, 6000):
            acc = self._step(i, acc) * 0.5
        return acc

    def _numpy(self) -> float:
        np = self.np
        words = np.random.Philox(key=1, counter=0).random_raw(1 << 15)
        u = (words >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return float(np.exp(u).sum() + np.cos(u).reshape(-1, 2).sum(axis=1).sum())

    def kernel_seconds(self) -> float:
        times = []
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self, wall: float, kernel_s: float) -> float:
        return wall * self.ref_s / kernel_s


def setup(name: str, seed: int, workdir: Path):
    """Import the program and build the workload's inputs.  Returns the
    package, the workload and the seconds this took, not counting the
    import of the benchmark's own modules."""
    t0 = time.perf_counter()
    import treepolymer
    import treepolymer.cli  # noqa: F401  (the diagram workload drives it)
    t1 = time.perf_counter()
    import workloads
    t2 = time.perf_counter()
    wl = workloads.WORKLOADS[name](treepolymer, seed, workdir)
    return treepolymer, wl, (t1 - t0) + (time.perf_counter() - t2)


def setup_seconds(args) -> list[tuple[float, float]]:
    """(wall, scaled) set-up times in fresh interpreters, as a CLI user pays
    them on every call, each scaled by the import kernel timed just before
    it in another fresh interpreter."""
    kernel = [sys.executable, "-I", "-c", IMPORT_KERNEL]
    probe = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_PAIRS):
        k, w = (float(subprocess.run(cmd, capture_output=True, text=True,
                                     timeout=120, check=True).stdout.split()[-1])
                for cmd in (kernel, probe))
        out.append((w, w * REF_IMPORT_S / k))
    return out


def run_op(op, tracer):
    """(output, seconds, error) of one operation; traced ops are root spans,
    timed by the span itself so that the layers' self times add up."""
    from spans import BENCH
    idx = tracer.open(BENCH) if tracer else None
    t0 = time.perf_counter()
    try:
        out, err = op.fn(), None
    except Exception as exc:  # a failed operation is counted, not fatal
        out, err = None, exc
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.close(idx)
        seconds = tracer.end[idx] - tracer.start[idx]
    return out, seconds, err


def timed_pass(wl, seconds: float, tracer):
    """Whole rounds until `seconds` have passed; with a tracer, rounds
    alternate untraced / traced and the pass ends after a traced one.

    The reference kernel is timed before the first operation, after every
    CALIBRATE_EVERY_S of work and at the end of each round; a segment of
    work is scaled by the mean of the kernel times on either side of it.
    """
    from workloads import Result
    clock = Clock(wl.KERNEL)
    results, rounds = [], []
    kernel = clock.kernel_seconds()
    t_start = time.perf_counter()
    k = 0
    while True:
        traced = tracer is not None and k % 2 == 1
        ops = wl.ops(k)
        if traced:
            tracer.install()
            first, before = len(tracer.start), dict(tracer.counts)
        total = scaled = segment = calibrating = 0.0
        t_round = time.perf_counter()
        for i, op in enumerate(ops):
            out, dt, err = run_op(op, tracer if traced else None)
            results.append(Result(op, k, out, dt, err))
            total += dt
            segment += dt
            if segment >= CALIBRATE_EVERY_S or i == len(ops) - 1:
                t_kernel = time.perf_counter()
                after = clock.kernel_seconds()
                calibrating += time.perf_counter() - t_kernel
                scaled += clock.scale(segment, 0.5 * (kernel + after))
                kernel, segment = after, 0.0
        row = {"round": k, "traced": traced, "seconds": total, "scaled": scaled}
        if traced:
            row["wall"] = time.perf_counter() - t_round - calibrating
            tracer.uninstall()
            row["self"] = tracer.self_times(first, len(tracer.start))
            row["counts"] = {key: v - before.get(key, 0)
                             for key, v in tracer.counts.items()}
        rounds.append(row)
        k += 1
        if time.perf_counter() - t_start >= seconds and \
                (tracer is None or k % 2 == 0):
            return results, rounds


def layer_metrics(wl, rounds, results, messages: list):
    from spans import BENCH, LAYERS, accounting_errors
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    med = statistics.median

    def per_round(key):
        return statistics.fmean(r["counts"].get(key, 0) for r in traced)

    self_s = {name: med(float(r["self"][i]) for r in traced)
              for i, name in enumerate(LAYERS)}
    run_s = med(r["seconds"] for r in traced)
    for r in traced:
        messages += accounting_errors(r["wall"], r["seconds"],
                                      float(r["self"][BENCH]))

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    extra = {}
    for k in (r["round"] for r in traced):
        for key, v in wl.layer_counts([x for x in results if x.round == k]).items():
            extra.setdefault(key, []).append(v)
    m = {
        "rng.calls": (per_round("rng.calls"), "count"),
        "rng.generators": (per_round("rng.generators"), "count"),
        "rng.words": (per_round("rng.words"), "count"),
        "rng.self_s": (self_s["rng"], "s"),
        "rng.words_per_s": (rate(per_round("rng.words"), self_s["rng"]), "words/s"),
        "env.calls": (per_round("env.entries"), "count"),
        "env.draws": (per_round("env.draws"), "count"),
        "env.self_s": (self_s["env"], "s"),
        "env.draws_per_s": (rate(per_round("env.draws"), self_s["env"]), "draws/s"),
        "sim.trees": (per_round("sim.trees"), "count"),
        "sim.nodes": (per_round("sim.nodes"), "count"),
        "sim.self_s": (self_s["sim"], "s"),
        "sim.nodes_per_s": (rate(per_round("sim.nodes"), self_s["sim"]), "nodes/s"),
        "mc.calls": (per_round("mc.entries"), "count"),
        "mc.replica_trees": (per_round("mc.replica_trees"), "count"),
        "mc.excluded_replicas": (per_round("mc.excluded_replicas"), "count"),
        "mc.self_s": (self_s["mc"], "s"),
        "phase.classify_calls": (per_round("phase.classify_calls"), "count"),
        "phase.g_evals": (per_round("phase.g_evals"), "count"),
        "phase.self_s": (self_s["phase"], "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.bytes_out": (statistics.fmean(extra.get("cli.bytes_out", [0])), "bytes"),
        "bench.self_s": (self_s["bench"], "s"),
        "trace.run_s": (run_s, "s"),
        "trace.overhead_s": (med(r["scaled"] for r in traced)
                             - med(r["scaled"] for r in plain), "s"),
    }
    return m


def end_to_end_metrics(wl, rounds, setup_samples, rss):
    run_s = statistics.median(r["scaled"] for r in rounds)
    return {
        "setup_s": (statistics.median(s for _, s in setup_samples), "s"),
        "run_s": (run_s, "s"),
        "tree_nodes_per_s": (wl.nodes_per_round / run_s, "nodes/s"),
        "cells_per_s": (wl.cells_per_round / run_s, "cells/s"),
        "peak_rss_mib": (rss, "MiB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "treepolymer" / "__init__.py").is_file():
        print("error: run from the root of a treepolymer checkout "
              "(no src/treepolymer here)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(HERE)]

    if args.setup_probe:
        print(repr(setup(args.workload, args.seed, root)[2]))
        return 0

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(have {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    # The kernel timings and the work they scale must share a core, so the
    # timed part of the run stays on one CPU; the checks get them all back.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    samples = setup_seconds(args)
    outdir = root / "bench" / "out"
    workdir = outdir / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tp, wl, _ = setup(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from spans import Tracer
            tracer = Tracer(tp)
        results, rounds = timed_pass(wl, args.seconds, tracer)
        # the peak of the timed pass alone, before the checks add their own
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        os.sched_setaffinity(0, cpus)
        errors = [r for r in results if r.error is not None]
        bad, messages = wl.check([r for r in results if r.error is None])
        if args.trace:
            metrics = layer_metrics(wl, rounds, results, messages)
            tracer.save(outdir / f"trace-{args.workload}-seed{args.seed}.npz")
        else:
            metrics = end_to_end_metrics(wl, rounds, samples, rss)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in messages[:40]:
        print(msg, file=sys.stderr)
    for r in errors[:5]:
        print(f"round {r.round} {r.op.tag[:2]} raised {r.error!r}", file=sys.stderr)
    excluded = getattr(wl, "excluded", None)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
          + " ".join(f"{r['seconds']:.3f}" for r in rounds) + " s wall, "
          + " ".join(f"{r['scaled']:.3f}" for r in rounds) + " s scaled; set-up "
          + " ".join(f"{w:.3f}" for w, _ in samples) + " s wall, "
          + " ".join(f"{s:.3f}" for _, s in samples) + " s scaled, "
          f"{sum(r.op.ops for r in results)} operations"
          + (f", {excluded} cells in the boundary band not judged"
             if excluded is not None else ""), file=sys.stderr)
    attempted = sum(r.op.ops for r in results)
    failed = sum(r.op.ops for r in errors) + bad
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
