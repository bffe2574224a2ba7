"""The three workloads: their inputs, one round of operations, and checks.

A workload is built from the run's seed (that is the set-up the benchmark
times) and then hands out rounds.  Round k runs the same operations as
every other round on fresh inputs derived from (seed, k), so a cache keyed
on inputs cannot make a later round cheaper.  Every output is kept and
checked after the timed pass, by ``checks``.

* deep_trees -- what ``simulate --only both`` calls at b = 2, n = 20:
  ``classify`` and ``estimate_free_energy`` at the four region probes of
  acceptance criterion 05, ``estimate_w_free_energy`` at (0.8, 0.8), and
  ``estimate_free_energy`` on a constant law.  One replica per call and
  round.  Vector block sweeps: rng words, the env transform, sim sums.
* replica_batches -- many small trees at the sizes of ``verify`` and
  criteria 02/07/09: ``batch_z_values``, ``ratio4`` and ``dfs_evaluate``
  on 1000 trees of depth 6 and 8.  Per-call overhead and the mc loops.
* phase_grid -- ``cli.main(["diagram", ...])`` in-process on a Gaussian and
  a uniform-phase grid, plus a 4x4 grid with per-cell Monte Carlo
  estimates.  Scalar phase root-finding and cli formatting and writing.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import zlib
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

import checks


def derive(seed: int, *tags) -> int:
    """A 32-bit seed for one input, from the run seed and a path of tags."""
    words = [seed % 2**32] + [zlib.crc32(str(t).encode()) for t in tags]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


@dataclasses.dataclass
class Op:
    """One timed call; `ops` is how many operations it counts as."""
    fn: object
    ops: int
    tag: tuple


@dataclasses.dataclass
class Result:
    op: Op
    round: int
    out: object = None
    seconds: float = 0.0
    error: BaseException | None = None


def tree_nodes(b: int, n: int) -> int:
    return (b ** (n + 1) - 1) // (b - 1)


class Workload:
    name = ""
    KERNEL = ("numpy",)   # reference kernel parts that load a core as this does
    nodes_per_round = 0
    cells_per_round = 0

    def __init__(self, tp, seed: int, workdir: Path):
        self.tp = tp
        self.seed = seed
        self.workdir = workdir

    def ops(self, k: int) -> list[Op]:
        raise NotImplementedError

    def check(self, results: list[Result]) -> tuple[int, list[str]]:
        """(operations whose output failed a check, messages)."""
        raise NotImplementedError

    def layer_counts(self, results: list[Result]) -> dict:
        """Per-round counts measured from outputs rather than by the tracer."""
        return {}


# ------------------------------------------------------------------ deep_trees

class DeepTrees(Workload):
    name = "deep_trees"
    B, N = 2, 20
    PROBES = ((0.3, 0.3), (0.3, 1.2), (1.5, 0.1), (0.8, 0.8))
    W_PROBE = (0.8, 0.8)
    PREFIX = 8          # depth of the path-enumeration check
    CHECK_TREES = 32    # replicas in the two-depth estimate, as criterion 05
    HALF = 10           # the second depth of that estimate
    BAND = 0.15

    def __init__(self, tp, seed, workdir):
        super().__init__(tp, seed, workdir)
        rs = np.random.default_rng(derive(seed, "constant"))
        c = complex(rs.uniform(0.5, 1.5) * np.exp(1j * rs.uniform(-math.pi, math.pi)))
        self.laws = [("gaussian", b, g) for b, g in self.PROBES]
        self.laws += [("gaussian", *self.W_PROBE), ("constant", c)]
        self.specs = [tp.GaussianIndep(b, g) for b, g in self.PROBES]
        self.specs += [tp.GaussianIndep(*self.W_PROBE),
                       tp.DeterministicConstant(c)]
        self.plans = [tp.ExperimentPlan(spec=s, b=self.B, n=self.N, replicas=1,
                                        seed=0, keep_values=True)
                      for s in self.specs]
        self.nodes_per_round = len(self.specs) * tree_nodes(self.B, self.N)
        self.cells_per_round = len(self.PROBES)

    def tree_seed(self, law: int, k: int) -> int:
        return derive(self.seed, "deep", law, k)

    def _recorded(self, call):
        """Run an estimator, keeping each FunctionalSet that mc evaluates."""
        mc = self.tp.mc
        inner = mc.dfs_evaluate
        trees = []

        def recording(*args, **kwargs):
            fs = inner(*args, **kwargs)
            trees.append(fs)
            return fs

        mc.dfs_evaluate = recording
        try:
            return call(), trees
        finally:
            mc.dfs_evaluate = inner

    def ops(self, k):
        tp = self.tp
        out = []
        for i, spec in enumerate(self.specs):
            plan = dataclasses.replace(self.plans[i], seed=self.tree_seed(i, k))
            if i < len(self.PROBES):
                out.append(Op(lambda s=spec: tp.phase.classify(s, self.B), 1,
                              ("classify", i)))
            # looked up at call time, so that a traced round sees the wrapper
            est = "estimate_w_free_energy" if i == len(self.PROBES) \
                else "estimate_free_energy"
            out.append(Op(lambda p=plan, e=est: self._recorded(
                lambda: getattr(tp.mc, e)(p)), 1, ("estimate", i)))
        return out

    def _check_tree(self, law_ix: int, fs) -> list[str]:
        law = self.laws[law_ix]
        msgs = checks.tree_inequalities(fs, self.B, checks.law_moments(law)[2])
        if law[0] == "constant":
            want = self.N * math.log(self.B * abs(law[1]))
            if not abs(fs.ln_abs_z - want) <= 1e-12 * abs(want) + 1e-12:
                msgs.append(f"constant law: ln|Z| {fs.ln_abs_z} != {want}")
        return msgs

    def check(self, results):
        tp = self.tp
        bad, msgs = 0, []
        ln_z_n: dict = {}
        for res in results:
            kind, i = res.op.tag
            law = self.laws[i]
            if kind == "classify":
                region, f, _ = checks.probe_f(law[1], law[2])
                rep = res.out
                errs = [] if rep.region == region and abs(rep.predicted_f - f) <= 1e-9 \
                    else [f"classify{law}: {rep.region} f={rep.predicted_f}, "
                          f"rules give {region} f={f}"]
            else:
                est, trees = res.out
                errs = []
                if len(trees) != 1:
                    errs.append(f"{len(trees)} trees evaluated for one replica")
                for fs in trees:
                    errs += self._check_tree(i, fs)
                    value = fs.ln_w_cond / (2 * self.N) if i == len(self.PROBES) \
                        else fs.ln_abs_z / self.N
                    if est.values != [value] or est.excluded_count != 0:
                        errs.append(f"estimate {est.values} != tree value {value}")
                stream = tp.TreeStream(self.tree_seed(i, res.round), 0)
                prefix = tp.sim.dfs_evaluate(self.specs[i], self.B,
                                             self.PREFIX, stream)
                errs += checks.match_enumeration(
                    prefix, checks.enumerate_paths(law, self.B, self.PREFIX, stream))
                if i < len(self.PROBES) and trees:
                    ln_z_n[(i, res.round)] = trees[0].ln_abs_z
            if errs:
                bad += res.op.ops
                msgs += [f"{self.name} round {res.round} {kind} {i}: {e}" for e in errs]
        bad_probes, f_msgs = self._check_free_energy(ln_z_n)
        msgs += f_msgs
        bad += sum(r.op.ops for r in results
                   if r.op.tag[0] == "estimate" and r.op.tag[1] in bad_probes)
        return bad, msgs

    def _check_free_energy(self, ln_z_n):
        """Criterion 05's two-depth estimate at each probe, on replicas
        0..31 of the run's streams, against the closed-form Gaussian f."""
        tp = self.tp
        bad, msgs = set(), []
        for i, (beta, gamma) in enumerate(self.PROBES):
            region, f, amin = checks.probe_f(beta, gamma)
            c = 3.0 / (2.0 * amin) if region in ("R2a", "R2b") else 0.0
            def tree(k, n):
                return tp.sim.dfs_evaluate(
                    self.specs[i], self.B, n,
                    tp.TreeStream(self.tree_seed(i, k), 0), include_w=False)

            missing = [k for k in range(self.CHECK_TREES) if (i, k) not in ln_z_n]
            # The trees the timed pass did not reach, two at a time.
            with ThreadPoolExecutor(max_workers=2) as pool:
                for k, fs in zip(missing, pool.map(lambda k: tree(k, self.N), missing)):
                    msgs += [f"{self.name} check tree {i}/{k}: {e}"
                             for e in self._check_tree(i, fs)]
                    ln_z_n[(i, k)] = fs.ln_abs_z
            deep = [ln_z_n[(i, k)] for k in range(self.CHECK_TREES)]
            half = [tree(k, self.HALF).ln_abs_z for k in range(self.CHECK_TREES)]
            f_hat = checks.two_depth_rate(deep, half, self.N, self.HALF, c)
            if not abs(f_hat - f) <= self.BAND:
                bad.add(i)
                msgs.append(f"{self.name} probe ({beta}, {gamma}) [{region}]: "
                            f"two-depth estimate {f_hat:.4f}, f = {f:.4f}")
        return bad, msgs


# ------------------------------------------------------------- replica_batches

class ReplicaBatches(Workload):
    name = "replica_batches"
    KERNEL = ("python", "numpy")   # small calls as well as vector sweeps
    B = 2
    # (law, n, replicas), near the sizes of verify (n = 6) and criterion 09
    # (n = 10, here 9, which keeps a round near 3 s so that a run holds
    # enough rounds for a steady median).  The cost does not depend on the
    # parameters; they are milder than verify's (0.5, 0.5) because a
    # z-score with the sample's own standard error is unreliable for
    # heavy-tailed |Z|: over 80 seeds of that law one real-part z-score
    # reached 4.3.
    BATCHES = ((("gaussian", 0.3, 0.5), 6, 10000),
               (("uniform", 0.0, 1.0), 6, 10000),
               (("gaussian", 0.25, 0.3), 9, 10000))
    RATIO4 = (("gaussian", 0.8, 0.8), 6, 2, 1000)   # law, n, omegas, resamples
    TREES = (("gaussian", 0.5, 0.5), ((6, 500), (8, 500)))
    LIMIT = 5.0

    def __init__(self, tp, seed, workdir):
        super().__init__(tp, seed, workdir)
        laws = {law for law, *_ in self.BATCHES} | {self.RATIO4[0], self.TREES[0]}
        self.laws = sorted(laws)
        self.specs = {law: self._spec(law) for law in self.laws}
        law, n, omegas, m = self.RATIO4
        self.nodes_per_round = (
            sum(r * tree_nodes(self.B, n) for _, n, r in self.BATCHES)
            + omegas * m * tree_nodes(self.B, n)
            + sum(cnt * tree_nodes(self.B, n) for n, cnt in self.TREES[1]))
        self.cells_per_round = len(self.laws)

    def _spec(self, law):
        kind, beta, gamma = law
        cls = self.tp.GaussianIndep if kind == "gaussian" \
            else self.tp.LogNormalUniformPhase
        return cls(beta, gamma)

    def ops(self, k):
        tp, b = self.tp, self.B
        out = []
        for j, (law, n, reps) in enumerate(self.BATCHES):
            s = derive(self.seed, "batch", j, k)
            out.append(Op(lambda sp=self.specs[law], n=n, s=s, r=reps:
                          tp.mc.batch_z_values(sp, b, n, s, r), 1, ("batch", j, s)))
        law, n, omegas, m = self.RATIO4
        s = derive(self.seed, "ratio4", k)
        out.append(Op(lambda sp=self.specs[law], n=n, s=s:
                      tp.mc.ratio4(sp, b, n, omegas, m, s), 1, ("ratio4", s)))
        law, sizes = self.TREES
        for n, count in sizes:
            s = derive(self.seed, "trees", n, k)
            for r in range(count):
                out.append(Op(lambda sp=self.specs[law], n=n, s=s, r=r:
                              tp.sim.dfs_evaluate(sp, b, n, tp.TreeStream(s, r)),
                              1, ("tree", n, s, r)))
        for law in self.laws:
            out.append(Op(lambda sp=self.specs[law]: tp.phase.classify(sp, b), 1,
                          ("classify", law)))
        return out

    def check(self, results):
        tp, b = self.tp, self.B
        bad, msgs = 0, []
        pooled: dict = {}
        for res in results:
            kind = res.op.tag[0]
            errs = []
            if kind == "batch":
                law, n, reps = self.BATCHES[res.op.tag[1]]
                if res.out.shape != (reps,):
                    errs.append(f"shape {res.out.shape}")
                else:
                    pooled.setdefault(res.op.tag[1], []).append(res)
            elif kind == "ratio4":
                errs += self._check_ratio4(res.out, res.op.tag[1])
            elif kind == "tree":
                _, n, s, r = res.op.tag
                law = self.TREES[0]
                fs = res.out
                errs += checks.tree_inequalities(fs, b, checks.law_moments(law)[2])
                errs += checks.match_enumeration(
                    fs, checks.enumerate_paths(law, b, n, tp.TreeStream(s, r)))
            elif kind == "classify":
                law = res.op.tag[1]
                want, f, _ = checks.region_rules(law[0], [law[1]], [law[2]], b,
                                                 band=0.0)
                if res.out.region != want[0] or not abs(res.out.predicted_f - f[0]) <= 1e-9:
                    errs.append(f"classify{law}: {res.out.region} "
                                f"f={res.out.predicted_f}, rules give {want[0]} f={f[0]}")
            if errs:
                bad += res.op.ops
                msgs += [f"{self.name} round {res.round} {kind}: {e}" for e in errs]
        # one z-test per batch size over all rounds (fresh seeds each round)
        for j, group in pooled.items():
            law, n, _ = self.BATCHES[j]
            zs = np.concatenate([res.out for res in group])
            errs = checks.scores_within(checks.moment_scores(law, b, n, zs),
                                        self.LIMIT)
            if errs:
                bad += sum(res.op.ops for res in group)
                msgs += [f"{self.name} batch {law} n={n}: {e}" for e in errs]
        return bad, msgs

    def _check_ratio4(self, est, seed) -> list[str]:
        """Per omega: ratio4's ratio equals the benchmark's own resampling,
        the resampled E|Z|^2 agrees with the exact W, and criterion 07's
        bound ratio <= 3 + 3 se holds."""
        tp, b = self.tp, self.B
        law, n, omegas, m = self.RATIO4
        errs = []
        if len(est.values) != omegas:
            return [f"{len(est.values)} ratios for {omegas} omegas"]
        for o in range(omegas):
            z2 = checks.resampled_moments(law, b, n, seed, o, m, tp.TreeStream)
            s2, s4 = float(z2.mean()), float(np.mean(z2 * z2))
            ratio = s4 / (s2 * s2)
            if not abs(est.values[o] - ratio) <= 1e-9 * ratio:
                errs.append(f"omega {o}: ratio {est.values[o]} != resampled {ratio}")
            w = tp.sim.dfs_evaluate(self.specs[law], b, n,
                                    tp.TreeStream(seed, o)).w_cond
            z = checks.z_score(z2, w)
            if not z <= self.LIMIT:
                errs.append(f"omega {o}: resampled E|Z|^2 {s2} vs W {w}, z = {z:.2f}")
            if not est.values[o] <= 3.0 + 3.0 * est.value_ses[o]:
                errs.append(f"omega {o}: ratio {est.values[o]} above "
                            f"3 + 3 se = {3.0 + 3.0 * est.value_ses[o]}")
        return errs


# ------------------------------------------------------------------ phase_grid

class PhaseGrid(Workload):
    name = "phase_grid"
    KERNEL = ("python",)
    B = 2
    STEPS = 100
    EST_STEPS, EST_REPLICAS, EST_N = 4, 2, 8

    def __init__(self, tp, seed, workdir):
        super().__init__(tp, seed, workdir)
        self.cli = tp.cli
        self.nodes_per_round = (self.EST_STEPS**2 * self.EST_REPLICAS
                                * tree_nodes(self.B, self.EST_N))
        self.cells_per_round = 2 * self.STEPS**2 + self.EST_STEPS**2

    def grid(self, k: int) -> list[dict]:
        """The round's three diagram calls: model, axes, extra flags."""
        rs = np.random.default_rng(derive(self.seed, "grid", k))
        lo = [float(x) for x in rs.uniform(0.0, 0.05, size=5)]
        steps = self.STEPS
        return [
            {"model": "gaussian", "axes": ((lo[0], lo[0] + 2.0, steps),
                                           (lo[1], lo[1] + 2.0, steps)), "extra": []},
            {"model": "uniform", "axes": ((lo[2], lo[2] + 2.0, steps),
                                          (lo[3], lo[3] + 0.95, steps)), "extra": []},
            {"model": "gaussian",
             "axes": ((0.1 + lo[4], 1.9, self.EST_STEPS),
                      (0.1 + lo[4], 1.9, self.EST_STEPS)),
             "extra": ["--replicas", str(self.EST_REPLICAS), "--n", str(self.EST_N),
                       "--seed", str(derive(self.seed, "estimates", k))]},
        ]

    @staticmethod
    def axis(lo, hi, steps):
        return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]

    def ops(self, k):
        out = []
        for j, g in enumerate(self.grid(k)):
            stem = str(self.workdir / f"diagram-{k}-{j}")
            grid = ",".join(f"{lo!r}:{hi!r}:{n}" for lo, hi, n in g["axes"])
            argv = ["diagram", "--model", g["model"], "--grid", grid,
                    "--out", stem, *g["extra"]]
            cells = g["axes"][0][2] * g["axes"][1][2]
            out.append(Op(lambda a=argv: self._main(a), cells, ("diagram", j, stem)))
        return out

    def _main(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = self.cli.main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def layer_counts(self, results):
        total = 0
        for res in results:
            if res.error is None:
                code, out, err = res.out
                stem = res.op.tag[2]
                total += len(out.encode()) + len(err.encode())
                total += sum(Path(stem + ext).stat().st_size
                             for ext in (".csv", ".ppm") if Path(stem + ext).exists())
        return {"cli.bytes_out": total}

    def check(self, results):
        bad, msgs = 0, []
        self.excluded = 0
        for res in results:
            if res.error is not None:
                continue
            _, j, stem = res.op.tag
            g = self.grid(res.round)[j]
            cell_bad, errs = self._check_diagram(g, stem, res.out)
            bad += cell_bad
            msgs += [f"{self.name} round {res.round} grid {j}: {e}" for e in errs]
        return bad, msgs

    def _check_diagram(self, g, stem, out) -> tuple[int, list[str]]:
        code, stdout, _ = out
        (blo, bhi, bn), (glo, ghi, gn) = g["axes"]
        cells = bn * gn
        if code != 0:
            return cells, [f"exit code {code}"]
        text = Path(stem + ".csv").read_text()
        comment, body = text.split("\n", 1)
        rows = list(csv.reader(io.StringIO(body)))
        header, rows = rows[0], rows[1:]
        errs = []
        if len(rows) != cells:
            return cells, [f"{len(rows)} rows for {cells} cells"]
        beta = np.array([float(r[0]) for r in rows])
        gamma = np.array([float(r[1]) for r in rows])
        want_b = np.tile(self.axis(blo, bhi, bn), gn)
        want_g = np.repeat(self.axis(glo, ghi, gn), bn)
        if not (np.allclose(beta, want_b, rtol=0, atol=1e-12)
                and np.allclose(gamma, want_g, rtol=0, atol=1e-12)):
            return cells, ["cell coordinates differ from the grid"]
        cell_bad, excluded = checks.check_regions(
            g["model"], beta, gamma, [r[2] for r in rows],
            [float(r[3]) for r in rows], self.B)
        self.excluded += excluded
        if cell_bad.any():
            i = int(np.argmax(cell_bad))
            errs.append(f"{int(cell_bad.sum())} cells disagree with the region "
                        f"rules, first {rows[i]}")
        crit = dict(kv.split("=") for kv in comment.split()[2:])
        for key, want in checks.critical_closed_form(g["model"], self.B).items():
            if not abs(float(crit[key]) - want) <= 1e-8:
                errs.append(f"critical {key} = {crit[key]}, closed form {want}")
        ppm = Path(stem + ".ppm").read_bytes()
        dims = ppm.split(b"\n")[2].split()
        body_len = len(ppm) - ppm.index(b"\n255\n") - 5
        if [int(d) for d in dims] != [bn, gn] or body_len != 3 * cells:
            errs.append(f"ppm is {dims} with {body_len} bytes for {bn}x{gn}")
        summary = json.loads(stdout)
        counts: dict = {}
        for r in rows:
            counts[r[2]] = counts.get(r[2], 0) + 1
        if summary["region_counts"] != counts:
            errs.append(f"summary counts {summary['region_counts']} != csv {counts}")
        if "--replicas" in g["extra"]:
            errs += self._check_estimates(g, header, rows)
        cell_errs = int(cell_bad.sum())
        return (cells if errs else cell_errs), errs

    def _check_estimates(self, g, header, rows) -> list[str]:
        """mc_mean per cell against ln|Z_n|/n from the benchmark's own path
        enumeration of the same replica trees."""
        seed = int(g["extra"][g["extra"].index("--seed") + 1])
        col = header.index("mc_mean")
        errs = []
        for r in rows:
            law = (g["model"], float(r[0]), float(r[1]))
            vals = []
            for rep in range(self.EST_REPLICAS):
                z = checks.enumerate_paths(law, self.B, self.EST_N,
                                           self.tp.TreeStream(seed, rep))["z"]
                vals.append(math.log(abs(z)) / self.EST_N)
            mean = float(np.mean(vals))
            lo, hi = float(r[col + 1]), float(r[col + 2])
            if not (abs(float(r[col]) - mean) <= 1e-9 and lo <= mean <= hi):
                errs.append(f"cell {r[:2]}: mc_mean {r[col]}, enumeration {mean}")
        return errs


WORKLOADS = {w.name: w for w in (DeepTrees, ReplicaBatches, PhaseGrid)}
