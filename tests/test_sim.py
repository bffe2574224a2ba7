"""Tree evaluation: streaming recursion vs literal enumeration, exact cases."""

import cmath
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treepolymer import (
    BudgetExceeded,
    CoupledLaw,
    CustomLaw,
    DeterministicConstant,
    DomainError,
    GaussianIndep,
    LogNormalUniformPhase,
    RademacherPhase,
    TreeStream,
    brute_force_evaluate,
    closed_form_second_moment,
    dfs_evaluate,
    one_step_identity_check,
    trace_depths,
)

REL = 1e-12


def rel_err(a, b):
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


# ------------------------------------------------------------- exact trees


def test_constant_tree_sums_all_paths():
    fs = dfs_evaluate(DeterministicConstant(1.0), 2, 3, TreeStream(0, 0))
    assert fs.z == 8.0 + 0j
    assert fs.z_abs == 8.0
    assert fs.z_abs2 == 8.0
    assert fs.t_damped == 8.0
    assert fs.w_cond == 64.0  # no damping: full positive square
    assert fs.ln_abs_z == pytest.approx(math.log(8.0), rel=REL)
    assert fs.arg_z == 0.0


def test_depth_zero_tree_is_the_root_alone():
    fs = dfs_evaluate(DeterministicConstant(3.0), 2, 0, TreeStream(0, 0))
    assert fs.z == 1.0 + 0j
    assert fs.z_abs == 1.0
    assert fs.z_abs2 == 1.0
    assert fs.w_cond == 1.0


def test_imaginary_constant_rotates_the_sum():
    fs = dfs_evaluate(DeterministicConstant(2j), 2, 2, TreeStream(0, 0), include_w=False)
    assert fs.z == pytest.approx(-16.0 + 0j, rel=REL)
    assert fs.z_abs == pytest.approx(16.0, rel=REL)
    assert fs.z_abs2 == pytest.approx(64.0, rel=REL)
    assert cmath.isclose(cmath.exp(complex(fs.ln_abs_z, fs.arg_z)), fs.z, rel_tol=1e-12)


def _alternating_phase_law():
    """Children of every node get phases +pi/4, -pi/4 in order."""
    root2 = math.sqrt(2.0)

    def polar(raw):
        count = raw.shape[0]
        phases = np.where(np.arange(count) % 2 == 0, math.pi / 4.0, -math.pi / 4.0)
        return np.full(count, root2), phases

    table = {a: 0.5 * a * math.log(2.0) for a in (0.0, 1.0, 2.0, 4.0)}
    return CustomLaw(polar=polar, log_moments=table, mean=1.0 + 0j,
                     independent=False)


def test_position_dependent_phases_cancel_in_pairs():
    law = _alternating_phase_law()
    one = dfs_evaluate(law, 2, 1, TreeStream(0, 0), include_w=False)
    assert one.z == pytest.approx(2.0 + 0j, rel=REL)
    assert one.z_abs == pytest.approx(2.0 * math.sqrt(2.0), rel=REL)
    assert one.z_abs2 == pytest.approx(4.0, rel=REL)
    two = dfs_evaluate(law, 2, 2, TreeStream(0, 0), include_w=False)
    assert two.z == pytest.approx(4.0 + 0j, rel=REL)
    assert two.z_abs == pytest.approx(8.0, rel=REL)
    assert two.z_abs2 == pytest.approx(16.0, rel=REL)


# ------------------------------------------------- dual-route equivalence


@pytest.mark.parametrize("b", [2, 3])
@pytest.mark.parametrize("seed", [11, 12])
def test_streaming_matches_literal_enumeration(b, seed):
    laws = [
        GaussianIndep(0.8, 0.8),
        LogNormalUniformPhase(0.5, 0.5),
        RademacherPhase(t=0.6, beta=0.4),
    ]
    for law in laws:
        for n in range(1, 6):
            fast = dfs_evaluate(law, b, n, TreeStream(seed, 0))
            slow = brute_force_evaluate(law, b, n, TreeStream(seed, 0))
            assert rel_err(fast.z, slow.z) < REL
            assert rel_err(fast.z_abs, slow.z_abs) < REL
            assert rel_err(fast.z_abs2, slow.z_abs2) < REL
            assert rel_err(fast.w_cond, slow.w_cond) < REL
            assert rel_err(fast.t_damped, slow.t_damped) < REL


def test_scalar_combine_levels_match_enumeration(monkeypatch):
    # shrink the bottom blocks so the top sweep over the block roots, which
    # forms xi * Z as a scalar product would, handles most levels
    import treepolymer.sim as sim_module

    monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", 4)
    for b, n in [(2, 6), (3, 5)]:
        law = GaussianIndep(0.6, 0.6)
        fast = dfs_evaluate(law, b, n, TreeStream(7, 0))
        slow = brute_force_evaluate(law, b, n, TreeStream(7, 0))
        for name in ("z_abs", "z_abs2", "w_cond", "t_damped"):
            assert rel_err(getattr(fast, name), getattr(slow, name)) < 1e-11
        assert rel_err(fast.z, slow.z) < 1e-11


def test_block_size_does_not_change_values(monkeypatch):
    import treepolymer.sim as sim_module

    law = LogNormalUniformPhase(0.6, 0.4)
    full = dfs_evaluate(law, 2, 9, TreeStream(3, 1))
    monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", 2)
    tiny = dfs_evaluate(law, 2, 9, TreeStream(3, 1))
    assert rel_err(full.z, tiny.z) < 1e-12
    assert rel_err(full.w_cond, tiny.w_cond) < 1e-12


def test_block_size_moves_no_bit_of_the_radius_fields(monkeypatch):
    # the radius fields take no complex product and are summed in the same
    # order in the blocks and the top sweep (numpy's, which for b >= 8 is
    # not left to right), so only their exact exponent bookkeeping depends
    # on the block size; Z's products differ by fused multiply-add rounding
    import treepolymer.sim as sim_module

    laws = [GaussianIndep(0.8, 0.8), GaussianIndep(1.5, 0.1),
            LogNormalUniformPhase(0.6, 0.4), RademacherPhase(t=0.5, beta=0.3)]
    names = ("z_abs", "z_abs2", "t_damped", "w_cond",
             "ln_z_abs", "ln_z_abs2", "ln_t_damped", "ln_w_cond")
    for b, n in [(2, 9), (3, 6), (2, 12), (9, 3)]:
        for law in laws:
            for r in range(5):
                bits = set()
                for leaves in (2, 4, 1 << 14):
                    monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", leaves)
                    fs = dfs_evaluate(law, b, n, TreeStream(13, r))
                    bits.add(np.array([getattr(fs, f) for f in names]).tobytes())
                assert len(bits) == 1, (b, n, law, r)


@pytest.mark.parametrize("b, n", [(2, 1), (2, 15), (3, 9)])
def test_subnormal_weights_are_rescaled_exactly(b, n):
    # every product stays exact at these depths, so only the logs round
    c = 2.0 ** -1060
    fs = dfs_evaluate(DeterministicConstant(c), b, n, TreeStream(0, 0))
    assert rel_err(fs.ln_abs_z, n * (math.log(b) + math.log(c))) < 1e-12
    assert rel_err(fs.ln_z_abs, n * (math.log(b) + math.log(c))) < 1e-12


# ----------------------------------------------------------- pair damping


def test_no_damping_collapses_to_full_square():
    law = RademacherPhase(t=1.0, beta=0.5)
    fs = dfs_evaluate(law, 2, 5, TreeStream(3, 0))
    assert rel_err(fs.w_cond, fs.z_abs**2) < REL
    assert rel_err(fs.t_damped, fs.z_abs) < REL


def test_total_damping_collapses_to_diagonal():
    law = LogNormalUniformPhase(0.5, 1.0)
    fs = dfs_evaluate(law, 2, 5, TreeStream(3, 0))
    assert rel_err(fs.w_cond, fs.z_abs2) < REL
    assert fs.t_damped == 0.0


# -------------------------------------------------------------- invariants


@st.composite
def independent_laws(draw):
    kind = draw(st.sampled_from(["gaussian", "uniform", "rademacher"]))
    s = st.floats(0.0, 1.5, allow_nan=False)
    if kind == "gaussian":
        return GaussianIndep(draw(s), draw(s))
    if kind == "uniform":
        return LogNormalUniformPhase(draw(s), draw(st.floats(0.0, 1.0)))
    return RademacherPhase(t=draw(st.floats(0.0, 1.0)), beta=draw(s))


@given(independent_laws(), st.integers(2, 3), st.integers(1, 6),
       st.integers(0, 2**32))
def test_functional_ordering_chain(law, b, n, seed):
    fs = dfs_evaluate(law, b, n, TreeStream(seed, 0))
    slack = 1.0 + 1e-9
    assert abs(fs.z) <= fs.z_abs * slack
    assert fs.z_abs**2 <= (b**n) * fs.z_abs2 * slack  # Cauchy-Schwarz
    assert fs.z_abs2 <= fs.w_cond * slack              # diagonal lower bound
    assert fs.w_cond <= fs.z_abs**2 * slack            # undamped upper bound
    assert fs.t_damped <= fs.z_abs * slack


@given(independent_laws(), st.integers(1, 5), st.integers(0, 2**32))
def test_log_fields_agree_with_plain_fields(law, n, seed):
    fs = dfs_evaluate(law, 2, n, TreeStream(seed, 0))
    for plain, logged in [(fs.z_abs, fs.ln_z_abs), (fs.z_abs2, fs.ln_z_abs2),
                          (abs(fs.z), fs.ln_abs_z), (fs.w_cond, fs.ln_w_cond)]:
        if plain == 0.0:
            assert logged == -math.inf
        else:
            assert logged == pytest.approx(math.log(plain), abs=1e-12)


# ------------------------------------------------------------- determinism


def test_reruns_are_bit_identical():
    law = GaussianIndep(0.8, 0.8)
    a = dfs_evaluate(law, 2, 10, TreeStream(1, 5))
    b = dfs_evaluate(law, 2, 10, TreeStream(1, 5))
    assert a == b


def test_thread_pool_reruns_are_bit_identical():
    law = GaussianIndep(0.8, 0.8)
    serial = [dfs_evaluate(law, 2, 8, TreeStream(1, r)) for r in range(8)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(
            lambda r: dfs_evaluate(law, 2, 8, TreeStream(1, r)), range(8)))
    assert serial == threaded


# ----------------------------------------------------------- second moment


def _meet_sum_second_moment(law, b, n):
    """Independent route: sum over ordered leaf pairs by their meet depth."""
    m2 = law.second_abs()
    m1sq = abs(law.mean_xi()) ** 2
    total = (b**n) * m2**n  # diagonal pairs
    for m in range(n):
        count = (b**n) * (b - 1) * b ** (n - m - 1)
        total += count * m2**m * m1sq ** (n - m)
    return total


@pytest.mark.parametrize(
    "law,b,n",
    [
        (DeterministicConstant(1.0), 2, 3),
        (LogNormalUniformPhase(0.0, 1.0), 2, 4),
        (GaussianIndep(0.5, 0.5), 2, 3),
        (GaussianIndep(0.3, 0.9), 3, 5),
        (RademacherPhase(t=0.4, beta=0.6), 2, 6),
    ],
)
def test_second_moment_closed_form_matches_pair_sum(law, b, n):
    report = closed_form_second_moment(law, b, n)
    assert rel_err(report.value, _meet_sum_second_moment(law, b, n)) < 1e-11
    assert report.ln_value == pytest.approx(math.log(report.value), rel=1e-12)


def test_second_moment_examples_and_growth_labels():
    assert closed_form_second_moment(LogNormalUniformPhase(0.0, 1.0), 2, 4).value == pytest.approx(16.0, rel=REL)
    assert closed_form_second_moment(DeterministicConstant(1.0), 2, 3).value == pytest.approx(64.0, rel=REL)
    assert closed_form_second_moment(GaussianIndep(0.3, 0.3), 2, 5).growth == "mean_squared"
    assert closed_form_second_moment(LogNormalUniformPhase(0.5, 1.0), 2, 5).growth == "diagonal"
    s = math.sqrt(0.5 * math.log(2.0))
    crit = closed_form_second_moment(GaussianIndep(s, s), 2, 3)
    assert crit.growth == "critical"
    assert crit.value == pytest.approx(64.0 * 2.5, rel=1e-12)  # 4^n (1 + n/2)


def test_second_moment_rejects_depth_zero():
    with pytest.raises(DomainError):
        closed_form_second_moment(GaussianIndep(0.5, 0.5), 2, 0)


# -------------------------------------------------------- one-step identity


def test_one_step_identity_is_exact_for_constants():
    report = one_step_identity_check(DeterministicConstant(1.0), 2, 2,
                                     TreeStream(0, 0), resamples=50)
    assert report.mean_residual == 0.0
    assert report.second_residual == 0.0


def test_one_step_identity_within_monte_carlo_noise():
    report = one_step_identity_check(GaussianIndep(0.5, 0.5), 2, 3,
                                     TreeStream(9, 0), resamples=8000)
    assert report.resamples == 8000
    assert report.mean_residual < 5.0
    assert report.second_residual < 5.0


def test_one_step_identity_needs_depth():
    with pytest.raises(DomainError):
        one_step_identity_check(GaussianIndep(0.5, 0.5), 2, 0, TreeStream(0, 0))


# ------------------------------------------------------------------ guards


def test_tree_budget_is_enforced():
    with pytest.raises(BudgetExceeded):
        dfs_evaluate(GaussianIndep(0.5, 0.5), 2, 30, TreeStream(0, 0))
    with pytest.raises(BudgetExceeded):
        dfs_evaluate(GaussianIndep(0.5, 0.5), 2, 10, TreeStream(0, 0),
                     node_budget=100)
    with pytest.raises(BudgetExceeded):
        brute_force_evaluate(GaussianIndep(0.5, 0.5), 2, 9, TreeStream(0, 0))


def test_pair_functionals_require_independent_phases():
    law = _alternating_phase_law()  # declared coupled
    with pytest.raises(CoupledLaw):
        dfs_evaluate(law, 2, 2, TreeStream(0, 0), include_w=True)
    with pytest.raises(CoupledLaw):
        brute_force_evaluate(law, 2, 2, TreeStream(0, 0), include_w=True)


def test_defect_injection_touches_only_the_pair_recursion():
    law = GaussianIndep(0.8, 0.8)
    clean = dfs_evaluate(law, 2, 3, TreeStream(4, 0))
    bad = dfs_evaluate(law, 2, 3, TreeStream(4, 0), _corrupt_w_pair=True)
    assert bad.z == clean.z
    assert bad.z_abs == clean.z_abs
    assert bad.z_abs2 == clean.z_abs2
    assert bad.w_cond != clean.w_cond


# -------------------------------------------------------------------- trace


def test_trace_walks_every_prefix_depth():
    law = GaussianIndep(0.5, 0.5)
    rows = trace_depths(law, 2, 5, TreeStream(1, 0))
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5]
    full = dfs_evaluate(law, 2, 5, TreeStream(1, 0))
    assert rows[-1]["ln_abs_z_over_n"] == pytest.approx(full.ln_abs_z / 5.0, rel=1e-12)
    assert rows[-1]["ln_w_over_2n"] == pytest.approx(full.ln_w_cond / 10.0, rel=1e-12)


def test_trace_skips_pair_functional_when_disabled():
    rows = trace_depths(GaussianIndep(0.5, 0.5), 2, 3, TreeStream(1, 0),
                        include_w=False)
    assert all(row["ln_w_over_2n"] is None for row in rows)


def test_trace_refuses_overflow_but_keeps_exact_zeros():
    with pytest.raises(DomainError, match="at depth 3: float64 overflow"):
        trace_depths(GaussianIndep(600.0, 0.5), 2, 4, TreeStream(0, 0))
    zero = CustomLaw(
        polar=lambda raw: (np.zeros(raw.shape[0]), np.zeros(raw.shape[0])),
        log_moments={0.0: 0.0, 2.0: 0.0}, mean=0j, independent=True,
        damping=1.0)
    for row in trace_depths(zero, 2, 2, TreeStream(0, 0)):
        assert [row[k] for k in row if k != "n"] == [-math.inf] * 4
