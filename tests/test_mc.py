"""Replicated estimators, moment verifiers, tail bounds."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treepolymer import (
    BudgetExceeded,
    CoupledLaw,
    DeterministicConstant,
    DomainError,
    ExperimentPlan,
    GaussianIndep,
    LogNormalUniformPhase,
    RademacherPhase,
    TreeStream,
    batch_z_values,
    dfs_evaluate,
    estimate_free_energy,
    estimate_w_free_energy,
    one_step_identity_check,
    paley_zygmund_bound,
    ratio4,
    tau_moment_check,
    verify_moments,
)
from treepolymer import cli, mc, rng, sim
from treepolymer.mc import _zscore
from treepolymer.rng import to_uniform

from laws import CoupledGaussian, SamplerLaw

LN2 = math.log(2.0)


def _plan(law, **kwargs):
    defaults = dict(spec=law, b=2, n=4, replicas=8, seed=1)
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


# --------------------------------------------------------------- estimators


def test_constant_tree_free_energy_is_exact():
    for b, n, c in [(2, 3, 1.0), (3, 2, 2.0), (2, 5, 0.5j)]:
        est = estimate_free_energy(_plan(DeterministicConstant(c), b=b, n=n))
        expected = math.log(b) + math.log(abs(c))
        assert est.mean == pytest.approx(expected, rel=1e-12)
        assert est.std_error == 0.0
        assert est.median == pytest.approx(expected, rel=1e-12)
        assert est.ci95 == (est.mean, est.mean)
        assert est.excluded_count == 0
        assert est.replicas == 8


def test_unit_modulus_pair_functional_rate_is_exact():
    law = LogNormalUniformPhase(0.0, 1.0)  # zero mean phase, unit radius
    est = estimate_w_free_energy(_plan(law, n=6))
    assert est.mean == pytest.approx(0.5 * LN2, rel=1e-12)
    assert est.std_error == 0.0


def test_undamped_pair_functional_rate_is_exact():
    est = estimate_w_free_energy(_plan(DeterministicConstant(1.0), n=6))
    assert est.mean == pytest.approx(LN2, rel=1e-12)


def test_estimators_validate_their_inputs():
    law = GaussianIndep(0.5, 0.5)
    with pytest.raises(DomainError):
        estimate_free_energy(_plan(law, n=0))
    with pytest.raises(DomainError):
        estimate_free_energy(_plan(law, replicas=0))
    with pytest.raises(BudgetExceeded):
        estimate_free_energy(_plan(law, n=10, node_budget=100))
    with pytest.raises(CoupledLaw):
        estimate_w_free_energy(_plan(CoupledGaussian(0.5, 0.5)))


def test_overflowed_replicas_are_refused_not_averaged():
    # at beta = 120 some generation's radii span more than one float64
    # exponent holds once squared, so W is refused while ln|Z| stays finite
    law = GaussianIndep(120.0, 0.5)
    with pytest.raises(DomainError, match="^w_free_energy is nan"):
        estimate_w_free_energy(_plan(law, n=8, replicas=4))
    assert math.isfinite(estimate_free_energy(_plan(law, n=8, replicas=4)).mean)
    with pytest.raises(DomainError, match="^free_energy is nan"):
        estimate_free_energy(_plan(GaussianIndep(250.0, 0.5), n=8, replicas=4))


def test_zero_partition_replicas_are_excluded_not_averaged():
    # radius 0 or 2 with equal odds: a quarter of the depth-1 trees have
    # both leaves at radius 0 and an exactly vanishing partition sum
    def polar(raw):
        u = to_uniform(raw[:, 2])
        return np.where(u < 0.5, 0.0, 2.0), np.zeros(raw.shape[0])

    law = SamplerLaw(polar)
    est = estimate_free_energy(_plan(law, n=1, replicas=64))
    assert est.excluded_count > 0
    assert est.replicas + est.excluded_count == 64
    # one value per replica, in order, with -inf exactly at the zero sums
    assert len(est.values) == 64
    for r, v in enumerate(est.values):
        fs = dfs_evaluate(law, 2, 1, TreeStream(1, r), include_w=False)
        assert (v == -math.inf) == (fs.ln_abs_z == -math.inf)
        if v != -math.inf:  # kept trees sum to 2 or 4 exactly
            assert v == pytest.approx(LN2, rel=1e-12) \
                or v == pytest.approx(2 * LN2, rel=1e-12)
    assert est.values.count(-math.inf) == est.excluded_count
    assert LN2 <= est.mean <= 2 * LN2


def test_thread_count_does_not_change_any_statistic():
    law = GaussianIndep(0.8, 0.8)
    serial = estimate_free_energy(_plan(law, n=8, replicas=12, threads=1))
    threaded = estimate_free_energy(_plan(law, n=8, replicas=12, threads=4))
    assert serial == threaded


def test_estimators_read_one_tree_per_replica(monkeypatch):
    # the benchmark's deep_trees contract: each estimator makes exactly one
    # mc.dfs_evaluate call per replica, looked up at call time, and its
    # values are those trees' rates in replica order
    trees = []
    inner = mc.dfs_evaluate

    def recording(*args, **kwargs):
        trees.append(inner(*args, **kwargs))
        return trees[-1]

    monkeypatch.setattr(mc, "dfs_evaluate", recording)
    law = GaussianIndep(0.8, 0.8)
    for estimator, rate in [
            (estimate_free_energy, lambda fs: fs.ln_abs_z / 6),
            (estimate_w_free_energy, lambda fs: fs.ln_w_cond / (2 * 6))]:
        for replicas in (1, 3):
            trees.clear()
            est = estimator(_plan(law, n=6, replicas=replicas, seed=9))
            assert len(trees) == replicas
            assert est.values == [rate(fs) for fs in trees]
            assert est.excluded_count == 0


def test_cell_estimates_are_each_laws_estimate_alone():
    # one walk of each replica's tree for a list of laws; a quarter of the
    # sampler law's depth-1 trees sum to exactly 0 and are excluded
    def polar(raw):
        u = to_uniform(raw[:, 2])
        return np.where(u < 0.5, 0.0, 2.0), np.zeros(raw.shape[0])

    for n, laws in [(1, [GaussianIndep(0.5, 0.5), SamplerLaw(polar),
                         DeterministicConstant(2j)]),
                    (6, [GaussianIndep(0.3, 1.2),
                         LogNormalUniformPhase(0.8, 0.5)])]:
        cells = mc.estimate_free_energy_cells(laws, 2, n, 16, 3)
        assert cells == [estimate_free_energy(_plan(
            law, n=n, replicas=16, seed=3, keep_values=False))
            for law in laws]
    assert cells[0].excluded_count == 0
    assert mc.estimate_free_energy_cells(
        [SamplerLaw(polar)], 2, 1, 16, 3)[0].excluded_count > 0


def test_cell_estimates_refuse_what_a_plan_refuses():
    laws = [GaussianIndep(0.5, 0.5)]
    with pytest.raises(DomainError, match="at least one replica"):
        mc.estimate_free_energy_cells(laws, 2, 4, 0, 1)
    with pytest.raises(DomainError, match="n >= 1"):
        mc.estimate_free_energy_cells(laws, 2, 0, 2, 1)
    with pytest.raises(BudgetExceeded, match="per-tree budget 100$"):
        mc.estimate_free_energy_cells(laws, 2, 10, 2, 1, node_budget=100)
    with pytest.raises(DomainError, match="^free_energy is nan in replica"):
        mc.estimate_free_energy_cells(
            laws + [GaussianIndep(250.0, 0.5)], 2, 8, 4, 1)


# ------------------------------------------------------------ batch moments


def test_batch_values_for_constant_law_are_exact():
    vals = batch_z_values(DeterministicConstant(2j), 2, 2, seed=0, replicas=16)
    assert vals.shape == (16,)
    assert np.all(vals == complex(-16.0))


def test_batch_values_of_no_replicas_are_empty():
    vals = batch_z_values(GaussianIndep(0.5, 0.5), 2, 3, seed=0, replicas=0)
    assert vals.shape == (0,) and vals.dtype == np.complex128


def test_batch_values_replay_and_prefix_stability():
    law = GaussianIndep(0.5, 0.5)
    first = batch_z_values(law, 2, 3, seed=9, replicas=20)
    again = batch_z_values(law, 2, 3, seed=9, replicas=20)
    assert np.array_equal(first, again)
    prefix = batch_z_values(law, 2, 3, seed=9, replicas=7)
    assert np.array_equal(first[:7], prefix)


def test_batch_values_do_not_depend_on_the_replica_count():
    # each replica's words are its own, and every node's value takes the
    # same operations in the same order whatever else shares its pass
    law = LogNormalUniformPhase(0.4, 0.6)
    full = batch_z_values(law, 2, 10, seed=4, replicas=3000)
    head = batch_z_values(law, 2, 10, seed=4, replicas=1500)
    assert np.array_equal(head, full[:1500])


def test_batch_values_draw_each_node_once_per_pass(monkeypatch):
    raw, calls = rng._raw_blocks, []
    monkeypatch.setattr(rng, "_raw_blocks",
                        lambda *a: calls.append(a) or raw(*a))
    batch_z_values(GaussianIndep(0.5, 0.5), 2, 8, seed=1, replicas=3000)
    assert len(calls) == 2**9 - 2     # the 510 nodes below the root


def test_nested_subtree_walks_keep_every_bit(monkeypatch):
    # a pass bound of 4 values cuts every walk below into passes of two
    # columns, nested in depth-1 subtrees, and 4096 slab draws cut ratio4's
    # resamples into slabs of 292 columns, so its weights read each slab
    # from column c0 of many passes; at the real bounds this ratio4 neither
    # nests nor cuts, and no other test nests the one-step check
    law = GaussianIndep(0.5, 0.7)

    def run() -> str:
        est = ratio4(law, 2, 3, omega_replicas=2, phase_resamples=1000,
                     seed=3)
        step = one_step_identity_check(law, 2, 3, TreeStream(3, 0),
                                       resamples=50)
        zs = batch_z_values(law, 2, 5, seed=3, replicas=10)
        return repr((zs.tolist(), est.values, est.value_ses, step))

    wide = run()
    monkeypatch.setattr(sim, "_PASS_VALUES", 4)
    monkeypatch.setattr(mc, "_SLAB_DRAWS", 1 << 12)
    assert run() == wide


@pytest.mark.parametrize("call", [
    lambda law: batch_z_values(law, 1, 3, seed=0, replicas=4),
    lambda law: batch_z_values(law, 2, -1, seed=0, replicas=4),
    lambda law: batch_z_values(law, 2, 3, seed=0, replicas=-1),
    lambda law: ratio4(law, 1, 3, omega_replicas=1, phase_resamples=1000,
                       seed=0),
    lambda law: ratio4(law, 2, 0, omega_replicas=1, phase_resamples=1000,
                       seed=0),
    lambda law: ratio4(law, 2, 3, omega_replicas=0, phase_resamples=1000,
                       seed=0),
    lambda law: one_step_identity_check(law, 2, 3, TreeStream(0, 0),
                                        resamples=0),
    lambda law: one_step_identity_check(law, 2, 3, TreeStream(0, 0),
                                        resamples=1),
    lambda law: verify_moments(_plan(law, b=1)),
    lambda law: verify_moments(_plan(law, replicas=1)),
], ids=["batch-b1", "batch-n-1", "batch-negative-replicas", "ratio4-b1",
        "ratio4-n0", "ratio4-no-omegas", "onestep-no-resamples",
        "onestep-one-resample", "verify-b1", "verify-one-replica"])
def test_batch_paths_refuse_a_bad_shape_as_a_domain_error(call):
    with pytest.raises(DomainError):
        call(GaussianIndep(0.5, 0.5))


def test_batch_values_budget_guard():
    with pytest.raises(BudgetExceeded):
        batch_z_values(GaussianIndep(0.5, 0.5), 2, 19, seed=0, replicas=1)
    with pytest.raises(BudgetExceeded):    # no pass holds one node's children
        batch_z_values(GaussianIndep(0.5, 0.5), 2**20, 0, seed=1, replicas=5)


def test_verify_mean_is_exact_for_constants():
    report, second = verify_moments(_plan(DeterministicConstant(2j), n=2,
                                          replicas=32))
    assert report.empirical == report.theoretical == complex(-16.0)
    assert report.z_scores == (0.0, 0.0)
    assert report.passed
    payload = cli._sanitize(report)
    assert payload["empirical"] == [-16.0, 0.0]
    assert payload["passed"] is True
    assert (second.name, second.empirical) == ("second_moment", 256.0)


def test_verify_mean_within_noise_for_random_laws():
    report, _ = verify_moments(_plan(GaussianIndep(0.5, 0.5), n=4,
                                     replicas=20_000))
    assert report.name == "mean"
    assert report.passed
    assert max(report.z_scores) < 5.0


def test_verify_second_moment_within_noise():
    for law in (GaussianIndep(0.5, 0.5), LogNormalUniformPhase(0.0, 1.0)):
        _, report = verify_moments(_plan(law, n=4, replicas=20_000))
        assert report.name == "second_moment"
        assert report.passed, (law.model, report.z_scores)


def test_zscore_edge_cases():
    assert _zscore(0.0, 0.0, 1.0) == 0.0
    assert _zscore(1e-9, 0.0, 1.0) == math.inf
    assert _zscore(1.0, 0.5, 1.0) == 2.0
    # with no spread, a gap within 1e-12 of the closed form is roundoff
    assert _zscore(2.5e-13, 0.0, 256.0) == 0.0
    assert _zscore(1e-12 * 256.0, 0.0, -256.0) == 0.0
    assert _zscore(1e-11 * 256.0, 0.0, 256.0) == math.inf
    assert _zscore(1e-300, 0.0, 0.0) == math.inf
    # an SE of roundoff size does not turn a roundoff gap into a score
    assert _zscore(2.5e-13, 1e-16, 256.0) == 0.0
    assert _zscore(1e-11 * 256.0, 1e-16, 256.0) == 1e-11 * 256.0 / 1e-16
    assert _zscore is sim._zscore


def test_second_moment_gate_passes_a_law_with_no_spread():
    # every |Z_2|^2 is exactly 256; the closed form goes through exp(2 ln 2)
    _, second = verify_moments(_plan(DeterministicConstant(2j), n=2,
                                     replicas=32))
    assert second.empirical == 256.0
    assert second.theoretical == pytest.approx(256.0, rel=1e-15)
    assert second.std_errors == (0.0,)
    assert second.z_scores == (0.0,)
    assert second.passed


def test_second_moment_gate_fails_a_closed_form_off_by_1e_9(monkeypatch):
    exact = mc.closed_form_second_moment

    def off(spec, b, n):
        rep = exact(spec, b, n)
        rep.value *= 1.0 + 1e-9
        return rep

    monkeypatch.setattr(mc, "closed_form_second_moment", off)
    _, second = verify_moments(_plan(DeterministicConstant(2j), n=2,
                                     replicas=32))
    assert second.z_scores == (math.inf,)
    assert not second.passed


# ----------------------------------------------------------------- ratio4


def test_ratio4_is_unity_without_phase_randomness():
    est = ratio4(RademacherPhase(t=1.0, beta=0.5), 2, 3,
                 omega_replicas=3, phase_resamples=1000, seed=5)
    for v in est.values:
        assert v == pytest.approx(1.0, abs=1e-12)
    for se in est.value_ses:
        assert se == pytest.approx(0.0, abs=1e-9)


def test_ratio4_guards():
    law = GaussianIndep(0.5, 0.5)
    with pytest.raises(DomainError):
        ratio4(law, 2, 3, omega_replicas=1, phase_resamples=10, seed=0)
    with pytest.raises(BudgetExceeded):
        ratio4(law, 2, 17, omega_replicas=1, phase_resamples=1000, seed=0)
    with pytest.raises(CoupledLaw):
        ratio4(CoupledGaussian(0.5, 0.5), 2, 3, omega_replicas=1,
               phase_resamples=1000, seed=0)


def test_ratio4_reports_per_tree_ratios_with_errors():
    law = GaussianIndep(0.8, 0.8)
    est = ratio4(law, 2, 4, omega_replicas=4, phase_resamples=1200, seed=2)
    assert len(est.values) == 4
    assert len(est.value_ses) == 4
    assert all(v > 0 for v in est.values)


def test_ratio4_is_deterministic():
    law = GaussianIndep(0.8, 0.8)
    a = ratio4(law, 2, 3, omega_replicas=2, phase_resamples=1000, seed=3)
    b = ratio4(law, 2, 3, omega_replicas=2, phase_resamples=1000, seed=3)
    assert a.values == b.values
    assert a.value_ses == b.value_ses


@pytest.mark.parametrize("base", [GaussianIndep(0.8, 0.8),
                                  LogNormalUniformPhase(0.5, 1.0)])
def test_a_law_given_only_by_its_polar_sampler_runs_every_sampler_consumer(base):
    # a law of one's own defines polar_from_raw alone and may return arrays
    # of its own; ratio4 and tau_moment_check read radii and phases from
    # it, and get the bits of the built-in law it copies
    law = SamplerLaw(base.polar_from_raw, damping=base.phase_damping())
    got = ratio4(law, 2, 4, omega_replicas=2, phase_resamples=1000, seed=3)
    want = ratio4(base, 2, 4, omega_replicas=2, phase_resamples=1000, seed=3)
    assert (got.values, got.value_ses) == (want.values, want.value_ses)
    got = tau_moment_check(law, tau=1.0, samples=500, seed=2)
    assert got == tau_moment_check(base, tau=1.0, samples=500, seed=2)


# ------------------------------------------------------------ tail bounds


def test_tail_bound_uniform_example():
    # X uniform on (0, 1): E X = 1/2, E X^2 = 1/3
    bound = paley_zygmund_bound(0.5, 1.0 / 3.0, nu=2.0, theta=0.5)
    assert bound == pytest.approx(3.0 / 16.0, rel=1e-12)


def test_tail_bound_constant_variable():
    for theta in (0.1, 0.5, 0.9):
        for nu in (1.5, 2.0, 3.0):
            bound = paley_zygmund_bound(2.0, 2.0**nu, nu=nu, theta=theta)
            assert bound == pytest.approx((1.0 - theta) ** (nu / (nu - 1.0)),
                                          rel=1e-12)


def test_tail_bound_rejects_bad_inputs():
    with pytest.raises(DomainError):
        paley_zygmund_bound(0.5, 1.0 / 3.0, nu=1.0, theta=0.5)
    with pytest.raises(DomainError):
        paley_zygmund_bound(0.5, 1.0 / 3.0, nu=2.0, theta=0.0)
    with pytest.raises(DomainError):
        paley_zygmund_bound(0.5, 1.0 / 3.0, nu=2.0, theta=1.0)
    with pytest.raises(DomainError):
        paley_zygmund_bound(-1.0, 1.0, nu=2.0, theta=0.5)
    with pytest.raises(DomainError):
        paley_zygmund_bound(1.0, 0.5, nu=2.0, theta=0.5)  # impossible moments


def test_tail_bound_tolerates_rounded_equality_case():
    # B a hair below 1 from fp rounding clamps to the constant-X bound
    bound = paley_zygmund_bound(3.0, 9.0 * (1.0 - 1e-12), nu=2.0, theta=0.5)
    assert bound == pytest.approx(0.25, rel=1e-9)


@given(
    st.lists(st.floats(0.01, 10.0), min_size=1, max_size=12),
    st.lists(st.floats(0.05, 1.0), min_size=12, max_size=12),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.sampled_from([1.5, 2.0, 3.0]),
)
def test_tail_bound_never_exceeds_exact_tail(values, weights, theta, nu):
    values = np.asarray(values)
    probs = np.asarray(weights[: len(values)])
    probs = probs / probs.sum()
    mean_x = float(probs @ values)
    mean_x_nu = float(probs @ values**nu)
    bound = paley_zygmund_bound(mean_x, mean_x_nu, nu=nu, theta=theta)
    tail = float(probs[values > theta * mean_x].sum())
    assert tail >= bound - 1e-12


# ------------------------------------------------------------- tau moments


def test_tau_moment_examples():
    rep = tau_moment_check(DeterministicConstant(2.0), tau=1.0, samples=500)
    assert rep.estimate.mean == pytest.approx(0.5, rel=1e-12)
    assert rep.estimate.std_error == 0.0
    assert not rep.diverging
    rep = tau_moment_check(LogNormalUniformPhase(0.0, 1.0), tau=2.0, samples=500)
    assert rep.estimate.mean == pytest.approx(1.0, rel=1e-12)
    gauss = tau_moment_check(GaussianIndep(1.0, 0.5), tau=1.0, samples=50_000)
    z = abs(gauss.estimate.mean - math.exp(0.5)) / gauss.estimate.std_error
    assert z < 5.0
    assert not gauss.diverging


def test_tau_moment_guards():
    law = GaussianIndep(0.5, 0.5)
    with pytest.raises(DomainError):
        tau_moment_check(law, tau=0.0, samples=500)
    with pytest.raises(DomainError):
        tau_moment_check(law, tau=2.5, samples=500)
    with pytest.raises(DomainError):
        tau_moment_check(law, tau=1.0, samples=50)


# --------------------------------------------------------------- monotone


def test_pair_functional_grows_with_phase_coherence():
    # same radius environment, damping ranging from none to total
    values = []
    for t in (1.0, 0.8, 0.5, 0.2, 0.0):
        law = RademacherPhase(t=t, beta=0.7)
        fs = dfs_evaluate(law, 2, 6, TreeStream(21, 0))
        values.append(fs.w_cond)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]
