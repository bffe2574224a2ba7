"""Each check of the benchmark passes the program's output and rejects a
wrong answer.  Run from the repository root:

    python3 -m pytest -q bench/test_checks.py
"""

import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import treepolymer as tp  # noqa: E402
import treepolymer.cli  # noqa: E402,F401

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import BENCH, LAYERS, Tracer, accounting_errors  # noqa: E402

LAW = ("gaussian", 0.8, 0.8)
SPEC = tp.GaussianIndep(0.8, 0.8)


def test_enumeration_rejects_perturbed_z_and_corrupt_w():
    stream = tp.TreeStream(7, 3)
    ref = checks.enumerate_paths(LAW, 2, 6, stream)
    fs = tp.dfs_evaluate(SPEC, 2, 6, stream)
    assert checks.match_enumeration(fs, ref) == []
    bumped = dataclasses.replace(fs, z=fs.z + 1e-9 * fs.z_abs)
    assert any(m.startswith("z ") for m in checks.match_enumeration(bumped, ref))
    corrupt = tp.dfs_evaluate(SPEC, 2, 6, stream, _corrupt_w_pair=True)
    assert any(m.startswith("w ") for m in checks.match_enumeration(corrupt, ref))


def test_enumeration_follows_the_uniform_and_constant_transforms():
    stream = tp.TreeStream(2, 0)
    for law, spec in ((("uniform", 0.5, 0.7), tp.LogNormalUniformPhase(0.5, 0.7)),
                      (("constant", 0.6 - 0.9j), tp.DeterministicConstant(0.6 - 0.9j))):
        fs = tp.dfs_evaluate(spec, 2, 5, stream)
        assert checks.match_enumeration(
            fs, checks.enumerate_paths(law, 2, 5, stream)) == []


def test_tree_inequalities_reject_each_broken_order():
    fs = tp.dfs_evaluate(SPEC, 2, 12, tp.TreeStream(1, 0))
    q = checks.law_moments(LAW)[2]
    assert checks.tree_inequalities(fs, 2, q) == []
    broken = [
        dataclasses.replace(fs, ln_abs_z=fs.ln_z_abs + 0.1),
        dataclasses.replace(fs, ln_z_abs2=2 * fs.ln_z_abs + 0.1),
        dataclasses.replace(fs, ln_z_abs2=2 * fs.ln_z_abs - 12 * math.log(2) - 0.1),
        dataclasses.replace(fs, ln_w_cond=2 * fs.ln_z_abs + 0.1),
        dataclasses.replace(fs, ln_t_damped=fs.ln_t_damped + 1e-6),
    ]
    for case in broken:
        assert checks.tree_inequalities(case, 2, q), case


def test_second_moment_recursion_matches_the_closed_form():
    for law, spec in ((LAW, SPEC), (("uniform", 0.0, 1.0),
                                    tp.LogNormalUniformPhase(0.0, 1.0))):
        for n in (1, 4, 9):
            want = tp.closed_form_second_moment(spec, 2, n).value
            assert checks.second_moment(law, 2, n) == pytest.approx(want, rel=1e-12)


def test_moment_scores_reject_a_scaled_sample():
    law = ("gaussian", 0.5, 0.5)
    zs = tp.batch_z_values(tp.GaussianIndep(0.5, 0.5), 2, 6, 5, 20000)
    assert checks.scores_within(checks.moment_scores(law, 2, 6, zs)) == []
    assert checks.scores_within(checks.moment_scores(law, 2, 6, 1.05 * zs))


def test_region_rules_agree_with_classify_and_reject_a_swap():
    betas = np.linspace(0.0, 2.0, 41)
    gammas = np.linspace(0.0, 2.0, 41)
    bb, gg = (a.ravel() for a in np.meshgrid(betas, gammas))
    reps = [tp.classify(tp.GaussianIndep(b, g), 2, eps_boundary=1e-3)
            for b, g in zip(bb, gg)]
    regions = [r.region for r in reps]
    fs = [r.predicted_f for r in reps]
    bad, excluded = checks.check_regions("gaussian", bb, gg, regions, fs)
    assert not bad.any() and excluded < len(bb) // 10
    assert {"R1", "R2a", "R2b", "R3"} <= set(regions)
    in_band = checks.region_rules("gaussian", bb, gg)[2]
    i = next(j for j, r in enumerate(regions) if r == "R2a" and not in_band[j])
    swapped = regions[:i] + ["R1"] + regions[i + 1:]
    assert checks.check_regions("gaussian", bb, gg, swapped, fs)[0][i]
    nudged = fs[:i] + [fs[i] + 1e-6] + fs[i + 1:]
    assert checks.check_regions("gaussian", bb, gg, regions, nudged)[0][i]


def test_critical_closed_forms_match_critical_set():
    for model, spec in (("gaussian", tp.GaussianIndep(1.0, 1.0)),
                        ("uniform", tp.LogNormalUniformPhase(1.0, 1.0))):
        crit = tp.critical_set(spec, 2)
        for key, want in checks.critical_closed_form(model).items():
            assert abs(getattr(crit, key) - want) <= 1e-8


@pytest.fixture
def grid(tmp_path):
    wl = workloads.PhaseGrid(tp, seed=4, workdir=tmp_path)
    wl.STEPS = 30
    ops = wl.ops(0)
    results = [workloads.Result(op, 0, op.fn()) for op in ops]
    return wl, results


def test_diagram_check_passes_then_rejects_edits(grid):
    wl, results = grid
    assert wl.check(results) == (0, [])
    stem = results[0].op.tag[2]
    csv_path = Path(stem + ".csv")
    text = csv_path.read_text()
    lines = text.splitlines()
    for i, line in enumerate(lines[2:], start=2):
        beta, gamma, region, _ = line.split(",")
        in_band = checks.region_rules("gaussian", [float(beta)], [float(gamma)])[2][0]
        if region == "R2a" and not in_band:
            lines[i] = line.replace(",R2a,", ",R1,")
            break
    csv_path.write_text("\n".join(lines) + "\n")
    bad, msgs = wl.check(results)
    assert bad >= 1 and any("region rules" in m for m in msgs)
    csv_path.write_text(text.replace("beta_c=1.1774", "beta_c=1.1775", 1))
    assert any("critical beta_c" in m for m in wl.check(results)[1])
    csv_path.write_text(text)
    ppm = Path(stem + ".ppm")
    ppm.write_bytes(ppm.read_bytes()[:-3])
    assert any("ppm" in m for m in wl.check(results)[1])


def test_estimate_cells_are_checked_against_enumeration(grid):
    wl, results = grid
    stem = results[2].op.tag[2]
    csv_path = Path(stem + ".csv")
    lines = csv_path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[4] = repr(float(cells[4]) + 1e-6)
    lines[2] = ",".join(cells)
    csv_path.write_text("\n".join(lines) + "\n")
    assert any("mc_mean" in m for m in wl.check(results)[1])


def test_ratio4_check_rejects_wrong_ratios_and_a_wrong_w(monkeypatch):
    wl = workloads.ReplicaBatches(tp, seed=3, workdir=Path("."))
    law, n, omegas, m = wl.RATIO4
    est = tp.ratio4(wl.specs[law], 2, n, omegas, m, 11)
    assert wl._check_ratio4(est, 11) == []
    off = dataclasses.replace(est, values=[v * 1.001 for v in est.values])
    assert any("resampled" in e for e in wl._check_ratio4(off, 11))
    tight = dataclasses.replace(est, value_ses=[-1.0] * omegas)
    assert any("3 + 3 se" in e for e in wl._check_ratio4(tight, 11))
    evaluate = tp.sim.dfs_evaluate
    monkeypatch.setattr(tp.sim, "dfs_evaluate", lambda *a, **k: dataclasses.replace(
        evaluate(*a, **k), w_cond=1.5 * evaluate(*a, **k).w_cond))
    assert any("vs W" in e for e in wl._check_ratio4(est, 11))


def test_deep_tree_checks_reject_a_wrong_constant_law_tree():
    wl = workloads.DeepTrees(tp, seed=1, workdir=Path("."))
    const = len(wl.specs) - 1
    fs = tp.dfs_evaluate(wl.specs[const], 2, 20, tp.TreeStream(1, 0))
    assert wl._check_tree(const, fs) == []
    assert wl._check_tree(const, dataclasses.replace(fs, ln_abs_z=fs.ln_abs_z * (1 + 1e-9)))


def test_two_depth_check_rejects_an_offset_rate():
    wl = workloads.DeepTrees(tp, seed=1, workdir=Path("."))
    wl.CHECK_TREES, wl.N, wl.HALF = 2, 12, 6
    wl.PROBES = wl.PROBES[:1]                     # R1: ln|Z_n| ~ n f exactly
    good = {(0, k): tp.dfs_evaluate(wl.specs[0], 2, 12,
                                    tp.TreeStream(wl.tree_seed(0, k), 0),
                                    include_w=False).ln_abs_z for k in range(2)}
    assert wl._check_free_energy(dict(good)) == (set(), [])
    shifted = {key: v + 0.2 * 6 for key, v in good.items()}
    bad, msgs = wl._check_free_energy(shifted)
    assert bad == {0} and "two-depth" in msgs[0]


def test_layer_self_times_add_up_to_the_root_spans():
    tracer = Tracer(tp)
    tracer.install()
    try:
        idx = tracer.open(0)
        tp.mc.estimate_free_energy(tp.ExperimentPlan(spec=SPEC, b=2, n=8,
                                                     replicas=3, seed=1))
        tp.phase.classify(SPEC, 2)
        tracer.close(idx)
    finally:
        tracer.uninstall()
    total = tracer.end[idx] - tracer.start[idx]
    self_s = tracer.self_times(0, len(tracer.start))
    assert self_s.sum() == pytest.approx(total, abs=1e-9)
    assert all(self_s[LAYERS.index(layer)] > 0 for layer in ("rng", "env", "sim", "mc", "phase"))
    assert tracer.counts["sim.trees"] == 3 and tracer.counts["mc.replica_trees"] == 3
    assert tracer.counts["rng.generators"] == tracer.counts["rng.calls"] > 0
    assert tp.mc.dfs_evaluate is tp.sim.dfs_evaluate      # originals restored


def _traced_round(tracer, gap_s=0.0, bench_s=0.0):
    """(wall, op spans, bench self time) of a small traced round: two ops,
    `gap_s` of time between them outside any span, `bench_s` of the
    benchmark's own time inside the second."""
    first = len(tracer.start)
    tracer.install()
    try:
        t0 = time.perf_counter()
        spans = 0.0
        for k in range(2):
            idx = tracer.open(BENCH)
            tp.mc.estimate_free_energy(tp.ExperimentPlan(spec=SPEC, b=2, n=8,
                                                         replicas=2, seed=k))
            if k == 1:
                _spin(bench_s)
            tracer.close(idx)
            spans += tracer.end[idx] - tracer.start[idx]
            if k == 0:
                _spin(gap_s)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return wall, spans, float(tracer.self_times(first, len(tracer.start))[BENCH])


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_accounting_rejects_time_outside_the_layers():
    tracer = Tracer(tp)
    _traced_round(tracer)                       # warm the program's caches
    # a clean round passes (one of three, in case the host preempts a gap)
    assert any(accounting_errors(*_traced_round(tracer)) == [] for _ in range(3))
    wall, spans, bench_self = _traced_round(tracer, gap_s=0.05)
    assert "op spans cover" in " ".join(accounting_errors(wall, spans, bench_self))
    wall, spans, bench_self = _traced_round(tracer, bench_s=0.05)
    assert "bench.self_s" in " ".join(accounting_errors(wall, spans, bench_self))
