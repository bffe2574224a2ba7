"""End-to-end acceptance suite.

Each criterion prints one `acceptance NN (<name>): PASS|FAIL` line on
stderr and then asserts. The CSV snapshots stashed along the way feed the final
determinism criterion, which reruns the same workloads (thread-parallel
where the estimator supports it) and compares bytes.
"""

import math
import sys
import time

import numpy as np
import pytest

from treepolymer import (
    DomainError,
    ExperimentPlan,
    GaussianIndep,
    LogNormalUniformPhase,
    McEstimate,
    TreeStream,
    batch_z_values,
    brute_force_evaluate,
    classify,
    classify_indep_closed_form,
    critical_set,
    dfs_evaluate,
    estimate_free_energy,
    estimate_w_free_energy,
    ratio4,
    verify_mean,
    verify_second_moment,
)
from treepolymer.cli import (
    EXPERIMENT_HEADER,
    experiment_row,
    main as cli_main,
    pz_property_trials,
    rows_to_csv,
)
from treepolymer.mc import _estimate
from treepolymer.phase import predicted_w_rate

LN2 = math.log(2.0)
BETA_C = math.sqrt(2.0 * LN2)

_CSV_CACHE: dict[int, bytes] = {}


def _report(num: int, name: str, ok: bool) -> None:
    print(f"acceptance {num:02d} ({name}): {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)


def _rel(a, x) -> float:
    return abs(a - x) / max(abs(a), abs(x), 1e-300)


# --------------------------------------------------------------- criterion 1


def _criterion1_rows():
    laws = [GaussianIndep(0.8, 0.8), LogNormalUniformPhase(0.5, 0.5)]
    rows = []
    worst = 0.0
    for b in (2, 3):
        for n in range(1, 7):
            for seed in range(50):
                law = laws[seed % 2]
                fast = dfs_evaluate(law, b, n, TreeStream(seed, 0))
                slow = brute_force_evaluate(law, b, n, TreeStream(seed, 0))
                rels = [_rel(fast.z, slow.z), _rel(fast.z_abs, slow.z_abs),
                        _rel(fast.z_abs2, slow.z_abs2),
                        _rel(fast.w_cond, slow.w_cond)]
                worst = max(worst, *rels)
                rows.append([b, n, seed, law.model, *rels])
    return rows, worst


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    rows, worst = _criterion1_rows()
    elapsed = time.monotonic() - start
    _CSV_CACHE[1] = rows_to_csv(
        ["b", "n", "seed", "model", "rel_z", "rel_z_abs", "rel_z_abs2",
         "rel_w_cond"], rows).encode()
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, "oracle equivalence", ok)
    assert worst <= 1e-12, f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 2


def _criterion2_rows():
    cases = [("gaussian_0.5_0.5", GaussianIndep(0.5, 0.5)),
             ("unit_modulus_uniform", LogNormalUniformPhase(0.0, 1.0))]
    rows = []
    reports = []
    for label, law in cases:
        plan = ExperimentPlan(spec=law, b=2, n=6, replicas=100_000, seed=1)
        for rep in (verify_mean(plan), verify_second_moment(plan)):
            emp = complex(rep.empirical)
            theo = complex(rep.theoretical)
            rows.append([label, rep.name, rep.replicas, emp.real, emp.imag,
                         theo.real, theo.imag, *rep.z_scores, rep.passed])
            reports.append((label, rep))
    return rows, reports


def test_criterion_02_exact_moment_identities():
    start = time.monotonic()
    rows, reports = _criterion2_rows()
    elapsed = time.monotonic() - start
    _CSV_CACHE[2] = rows_to_csv(
        ["case", "check", "replicas", "emp_re", "emp_im", "theo_re",
         "theo_im", "z_scores", "passed"], rows).encode()
    ok = all(rep.passed for _, rep in reports) and elapsed < 60.0
    _report(2, "exact moment identities", ok)
    for label, rep in reports:
        assert rep.passed, (label, rep.name, rep.z_scores)
        assert max(rep.z_scores) <= 5.0
    assert elapsed < 60.0, f"moment checks took {elapsed:.1f}s"


# --------------------------------------------------------------- criterion 3


def _criterion3_rows():
    crit = critical_set(GaussianIndep(1.0, 1.0), 2)
    closed = {
        "beta_c": BETA_C,
        "beta_0": 0.5 * BETA_C,
        "gamma_c": math.sqrt(LN2),
        "gamma_0": math.sqrt(0.5 * LN2),
    }
    rows = []
    worst = 0.0
    for name, expected in closed.items():
        solved = getattr(crit, name)
        err = abs(solved - expected)
        worst = max(worst, err)
        rows.append([name, solved, expected, err])
    return rows, worst


def test_criterion_03_critical_set_reproduction():
    rows, worst = _criterion3_rows()
    _CSV_CACHE[3] = rows_to_csv(
        ["parameter", "solved", "closed_form", "abs_err"], rows).encode()
    ok = worst <= 1e-8
    _report(3, "critical set reproduction", ok)
    assert worst <= 1e-8, f"worst deviation {worst:.3e}"


# --------------------------------------------------------------- criterion 4


def _criterion4_rows():
    law0 = GaussianIndep(1.0, 1.0)
    crit = critical_set(law0, 2)
    axis = [2.0 * i / 199 for i in range(200)]
    rows = []
    disagreements = []
    agree = 0
    for gamma in axis:
        for beta in axis:
            generic = classify(GaussianIndep(beta, gamma), 2)
            closed = classify_indep_closed_form(
                beta, gamma, crit, law0.lambda_r, law0.lambda_c, 2,
                lam_r_prime=law0.lambda_r_prime)
            same = generic.region == closed.region
            agree += same
            rows.append([beta, gamma, generic.region, closed.region, same])
            if not same:
                margins = [abs(c["lhs"] - c["rhs"])
                           for c in (generic.condition_trace
                                     + closed.condition_trace)
                           if isinstance(c["lhs"], float)
                           and math.isfinite(c["lhs"] - c["rhs"])]
                disagreements.append((beta, gamma, generic.region,
                                      closed.region, min(margins)))
    return rows, agree, disagreements


def test_criterion_04_dual_classifier_agreement(tmp_path):
    rows, agree, disagreements = _criterion4_rows()
    _CSV_CACHE[4] = rows_to_csv(
        ["beta", "gamma", "generic", "closed_form", "agree"], rows).encode()
    total = 200 * 200
    banded = all(margin <= 1e-3 for *_, margin in disagreements)

    # the rendered map: three regions around the weak/strong/diagonal meet
    stem = tmp_path / "figure"
    assert cli_main(["diagram", "--grid", "0:2:200", "--out", str(stem)]) == 0
    ppm = stem.with_suffix(".ppm").read_bytes()
    body = ppm[ppm.index(b"255\n") + 4:]

    def pixel(beta, gamma):
        bi = round(beta * 199.0 / 2.0)
        gi = round(gamma * 199.0 / 2.0)
        pos = ((199 - gi) * 200 + bi) * 3
        return tuple(body[pos:pos + 3])

    from treepolymer.cli import _REGION_COLORS

    b0 = 0.5 * BETA_C
    g0 = math.sqrt(0.5 * LN2)
    d = 0.05
    corner_regions = {
        pixel(b0 - d, g0 - d): "R1",
        pixel(b0 + d, g0 + d): "R2b",
        pixel(b0 - d, g0 + d): "R3",
    }
    corners_ok = all(_REGION_COLORS[reg] == px
                     for px, reg in corner_regions.items())

    ok = agree >= 0.999 * total and banded and corners_ok
    _report(4, "dual classifier agreement", ok)
    assert agree >= 0.999 * total, f"agreement {agree}/{total}"
    assert banded, f"disagreement outside band: {disagreements[:5]}"
    assert corners_ok, corner_regions


# --------------------------------------------------------------- criterion 5

_PROBES = [(0.3, 0.3), (0.3, 1.2), (1.5, 0.1), (0.8, 0.8), (0.0, 0.0)]


def _criterion5_rows(threads: int = 1):
    rows = []
    details = []
    for beta, gamma in _PROBES:
        law = GaussianIndep(beta, gamma)
        rep = classify(law, 2)
        plan = ExperimentPlan(spec=law, b=2, n=20, replicas=32, seed=1,
                              threads=threads)
        est = estimate_free_energy(plan)
        rows.append(experiment_row("gaussian", 2, law, 20, 32, 1,
                                   "free_energy", est, rep.predicted_f,
                                   rep.region))
        details.append((beta, gamma, rep.region, rep.predicted_f, est))
    return rows, details


def _ln_abs_z_per_replica(law, n: int, replicas: int, seed: int):
    """ln|Z_n| of replicas 0 .. replicas-1 in replica order, -inf kept."""
    return [dfs_evaluate(law, 2, n, TreeStream(seed, r),
                         include_w=False).ln_abs_z
            for r in range(replicas)]


def _depth_corrected_rate(ln_z_n, ln_z_m, n: int, m: int,
                          c: float) -> McEstimate:
    """Two-depth free-energy estimate with a theory-fixed ln-correction.

    f_hat = mean_r [ln|Z_n^r| - ln|Z_m^r| + c ln(n/m)] / (n - m)

    If ln|Z_k| = f k - c ln k + K + o(1), the difference cancels the
    unknown O(1) constant K, which subtracting c ln(n)/n from one depth
    does not.  Both lists are indexed by replica; a replica whose ln|Z|
    is -inf at either depth is dropped and counted, as
    `estimate_free_energy` does, and an empty sample raises DomainError.
    """
    shift = c * math.log(n / m)
    values = [(a - b + shift) / (n - m)
              for a, b in zip(ln_z_n, ln_z_m, strict=True)
              if a != -math.inf and b != -math.inf]
    return _estimate(values, len(ln_z_n) - len(values))


def test_depth_corrected_rate_pairs_replicas_and_counts_exclusions():
    ln_z_n = [20.0, -math.inf, 22.0, 21.0]
    ln_z_m = [10.0, 9.0, -math.inf, 10.5]
    est = _depth_corrected_rate(ln_z_n, ln_z_m, 20, 10, c=0.0)
    assert est.excluded_count == 2
    assert est.replicas == 2
    assert est.mean == pytest.approx(1.025, abs=1e-12)
    shifted = _depth_corrected_rate(ln_z_n, ln_z_m, 20, 10, c=1.5)
    assert shifted.mean - est.mean == pytest.approx(1.5 * LN2 / 10,
                                                    abs=1e-12)
    with pytest.raises(DomainError):
        _depth_corrected_rate([-math.inf, 1.0], [0.0, -math.inf], 20, 10,
                              c=0.0)


def test_criterion_05_free_energy_probes():
    """Depth-20 probes against the predicted free energy f.

    The paper proves (1/n) ln|Z_n| -> f almost surely but gives no rate.
    In the frozen phase ln|Z_n| = f n - c ln n + O(1) with
    c = 3 / (2 alpha_min) (Derrida-Spohn 1988; Hu-Shi 2009, minimal
    position of the branching random walk), so the raw depth-20 rate at
    (1.5, 0.1) trails f by about 0.17, more than the band.  The check
    therefore compares f with the two-depth estimate of
    `_depth_corrected_rate` at m = n/2, paired by replica on the same
    streams: nodes are addressed by (generation, index) from the root, so
    the depth-m tree is the top of the depth-n tree.  c is read from the
    classifier, never fitted; it is 0 outside R2a/R2b, where the
    corrections are O(1/n).  In R2a, |Z_n| ~ sum |xi_path|, the frozen
    positive polymer at beta.  In R2b neither the paper nor the README
    fixes c: here it follows from |Z_n|^2 ~ sum |xi_path|^2, a frozen
    positive polymer at 2 beta, which gives the same 3 / (2 alpha_min).
    The R2b probe stays in band with c = 0 too.  The raw depth-20 gap is
    printed next to the estimate on every run.
    """
    n, m, replicas, seed = 20, 10, 32, 1
    start = time.monotonic()
    rows, details = _criterion5_rows(threads=1)
    _CSV_CACHE[5] = rows_to_csv(EXPERIMENT_HEADER, rows).encode()

    lines = []
    failures = []
    for beta, gamma, region, predicted, est in details:
        law = GaussianIndep(beta, gamma)
        alpha = classify(law, 2).alpha_min
        c = 3.0 / (2.0 * alpha) if region in ("R2a", "R2b") else 0.0
        ln_z_n = [v * n for v in est.values]   # replica order, -inf kept
        ln_z_m = _ln_abs_z_per_replica(law, m, replicas, seed)
        corrected = _depth_corrected_rate(ln_z_n, ln_z_m, n, m, c)
        raw_gap = abs(est.mean - predicted)
        gap = abs(corrected.mean - predicted)
        status = "ok" if gap <= 0.15 else "OUT OF BAND"
        lines.append(
            f"  ({beta}, {gamma}) [{region}] predicted {predicted:.4f} "
            f"raw mean {est.mean:.4f} (se {est.std_error:.4f}) "
            f"raw gap {raw_gap:.4f} | c {c:.4f} f_hat {corrected.mean:.4f} "
            f"(se {corrected.std_error:.4f}, excluded "
            f"{corrected.excluded_count}) gap {gap:.4f} {status}")
        if gap > 0.15:
            failures.append((beta, gamma, region, gap))
    elapsed = time.monotonic() - start
    table = "\n".join(lines)
    print(f"criterion 05 probes, n = {n}, m = {m}, {replicas} replicas:\n"
          + table, file=sys.stderr)
    ok = not failures and elapsed < 300.0
    _report(5, "free energy probes", ok)
    assert elapsed < 300.0, f"probe sweep took {elapsed:.1f}s"
    assert not failures, (
        "depth-corrected estimates outside the 0.15 band:\n" + table)


# --------------------------------------------------------------- criterion 6


def _criterion6_rows(threads: int = 1):
    law = GaussianIndep(0.8, 0.8)
    plan = ExperimentPlan(spec=law, b=2, n=20, replicas=32, seed=1,
                          threads=threads)
    est = estimate_w_free_energy(plan)
    predicted = predicted_w_rate(law, 2)
    rows = [experiment_row("gaussian", 2, law, 20, 32, 1, "w_free_energy",
                           est, predicted, classify(law, 2).region)]
    return rows, est, predicted


def test_criterion_06_conditional_second_moment_rate():
    rows, est, predicted = _criterion6_rows(threads=1)
    _CSV_CACHE[6] = rows_to_csv(EXPERIMENT_HEADER, rows).encode()
    assert predicted == pytest.approx(0.8 * BETA_C, abs=1e-9)
    gap = abs(est.mean - predicted)
    ok = gap <= 0.15
    _report(6, "conditional second moment rate", ok)
    assert ok, (f"(1/2n) ln W mean {est.mean:.4f} vs predicted "
                f"{predicted:.4f}: gap {gap:.4f}")


# --------------------------------------------------------------- criterion 7


def _criterion7_rows():
    law = GaussianIndep(0.8, 0.8)
    est = ratio4(law, 2, 10, omega_replicas=20, phase_resamples=4000, seed=1)
    rows = []
    for i, (r, se) in enumerate(zip(est.values, est.value_ses)):
        bound = 3.0 + 3.0 * se
        rows.append([i, r, se, bound, bound - r])
    return rows, est


def test_criterion_07_fourth_moment_bound():
    rows, est = _criterion7_rows()
    _CSV_CACHE[7] = rows_to_csv(
        ["omega", "ratio", "se", "bound", "margin"], rows).encode()
    margins = [row[4] for row in rows]
    ok = min(margins) >= 0.0
    _report(7, "fourth moment bound", ok)
    assert len(rows) == 20
    assert ok, f"max ratio {est.max_value:.4f}, min margin {min(margins):.4f}"


# --------------------------------------------------------------- criterion 8


def test_criterion_08_tail_bound_suite():
    result = pz_property_trials(seed=1, trials=1000)
    ok = result["passed"] and result["trials"] >= 9000
    _report(8, "tail bound suite", ok)
    assert result["trials"] >= 9000  # full theta x nu grid on 1000 laws
    assert result["passed"], f"min margin {result['min_margin']:.3e}"


# --------------------------------------------------------------- criterion 9


def test_criterion_09_martingale_mean_and_l2_bound():
    law = GaussianIndep(0.3, 0.3)
    norm = abs(2.0 * law.mean_xi())

    zs = batch_z_values(law, 2, 10, seed=1, replicas=10_000)
    m_vals = zs / (2.0 * law.mean_xi()) ** 10
    mean = m_vals.mean()
    se_re = float(np.std(m_vals.real, ddof=1) / math.sqrt(m_vals.size))
    se_im = float(np.std(m_vals.imag, ddof=1) / math.sqrt(m_vals.size))
    z_re = abs(mean.real - 1.0) / se_re
    z_im = abs(mean.imag - 0.0) / se_im

    def second_moment(n):
        vals = batch_z_values(law, 2, n, seed=1, replicas=10_000)
        return float(np.mean(np.abs(vals / norm**n) ** 2))

    m2_low, m2_high = second_moment(4), second_moment(12)
    growth = m2_high / m2_low

    ok = max(z_re, z_im) <= 5.0 and growth < 2.0
    _report(9, "martingale mean and L2 bound", ok)
    assert max(z_re, z_im) <= 5.0, (z_re, z_im)
    assert growth < 2.0, f"E|M|^2 grew by {growth:.3f} from n=4 to n=12"


# -------------------------------------------------------------- criterion 10


def test_criterion_10_byte_identical_reruns():
    reruns = {
        1: lambda: rows_to_csv(
            ["b", "n", "seed", "model", "rel_z", "rel_z_abs", "rel_z_abs2",
             "rel_w_cond"], _criterion1_rows()[0]).encode(),
        2: lambda: rows_to_csv(
            ["case", "check", "replicas", "emp_re", "emp_im", "theo_re",
             "theo_im", "z_scores", "passed"], _criterion2_rows()[0]).encode(),
        3: lambda: rows_to_csv(
            ["parameter", "solved", "closed_form", "abs_err"],
            _criterion3_rows()[0]).encode(),
        4: lambda: rows_to_csv(
            ["beta", "gamma", "generic", "closed_form", "agree"],
            _criterion4_rows()[0]).encode(),
        5: lambda: rows_to_csv(EXPERIMENT_HEADER,
                               _criterion5_rows(threads=4)[0]).encode(),
        6: lambda: rows_to_csv(EXPERIMENT_HEADER,
                               _criterion6_rows(threads=4)[0]).encode(),
        7: lambda: rows_to_csv(
            ["omega", "ratio", "se", "bound", "margin"],
            _criterion7_rows()[0]).encode(),
    }
    single_thread_builders = {
        1: reruns[1], 2: reruns[2], 3: reruns[3], 4: reruns[4],
        5: lambda: rows_to_csv(EXPERIMENT_HEADER,
                               _criterion5_rows(threads=1)[0]).encode(),
        6: lambda: rows_to_csv(EXPERIMENT_HEADER,
                               _criterion6_rows(threads=1)[0]).encode(),
        7: reruns[7],
    }
    mismatched = []
    for num, rebuild in reruns.items():
        reference = _CSV_CACHE.get(num)
        if reference is None:  # running standalone: build the reference now
            reference = single_thread_builders[num]()
        if rebuild() != reference:
            mismatched.append(num)
    ok = not mismatched
    _report(10, "byte identical reruns", ok)
    assert not mismatched, f"criteria with unstable CSV bytes: {mismatched}"
