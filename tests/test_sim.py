"""Tree evaluation: streaming recursion vs literal enumeration, exact cases."""

import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

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
    brute_force_evaluate,
    closed_form_second_moment,
    dfs_evaluate,
    estimate_free_energy,
    estimate_w_free_energy,
    one_step_identity_check,
    ratio4,
    trace_depths,
    verify_moments,
)
from treepolymer import rng
from treepolymer import sim as sim_module
from treepolymer.cli import TRACE_HEADER
from treepolymer.rng import to_uniform

from laws import SamplerLaw

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

    return SamplerLaw(polar, independent=False)


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


@pytest.mark.parametrize("b", [4, 5])
def test_streaming_matches_literal_enumeration_at_wide_branching(b):
    # b >= 4 is where left-to-right sibling sums round differently from
    # numpy's row sum for complex values
    laws = [
        GaussianIndep(0.8, 0.8),
        LogNormalUniformPhase(0.5, 0.5),
        RademacherPhase(t=0.6, beta=0.4),
    ]
    for law in laws:
        for n in range(1, 5):
            fast = dfs_evaluate(law, b, n, TreeStream(13, 0))
            slow = brute_force_evaluate(law, b, n, TreeStream(13, 0))
            for name in ("z", "z_abs", "z_abs2", "w_cond", "t_damped"):
                assert rel_err(getattr(fast, name), getattr(slow, name)) < REL


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("b", range(2, 10))
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_group_sum_adds_siblings_left_to_right(b, dtype):
    rng = np.random.default_rng(b)
    groups = 200
    size = groups * b

    def draw():
        return rng.standard_normal(size) * 10.0 ** rng.integers(-6, 7, size)

    x = draw() + 1j * draw() if dtype is np.complex128 else draw()
    # signed zeros: a group of -0.0, one of mixed zeros, one of -0.0 and one
    # nonzero value
    x[:b] = -0.0
    x[b:2 * b] = [0.0 if j % 2 else -0.0 for j in range(b)]
    x[2 * b:3 * b] = -0.0
    x[3 * b - 1] = 1.5
    if dtype is np.complex128:
        x[:b] = complex(-0.0, -0.0)
        x[4 * b:5 * b] = complex(1.0, -0.0)
    want = []
    for i in range(groups):
        acc = x[i * b]
        for j in range(1, b):
            acc = acc + x[i * b + j]
        want.append(acc)
    want = np.array(want, dtype=dtype)
    assert _bits(sim_module._group_sum(x, b)) == _bits(want)
    # axis 0 of a node-major (nodes, replicas) array sums each column alike
    cols = np.stack([x, x[::-1]], axis=1)
    got = sim_module._group_sum(cols, b)
    assert _bits(got[:, 0]) == _bits(want)
    assert _bits(got[:, 1]) == _bits(sim_module._group_sum(x[::-1].copy(), b))


def test_w_carries_past_a_squared_radius_overflow():
    # the same radii shifted by 2^600 square past float64: every field
    # keeps its mantissa and gains exactly the power of two per generation
    base = GaussianIndep(0.5, 0.5)

    def shifted(raw):
        r, phi = base.polar_from_raw(raw)
        return np.ldexp(r, 600), phi

    big = SamplerLaw(shifted, damping=base.phase_damping())
    shift = 600 * math.log(2.0)
    for n in (3, 6):
        small = dfs_evaluate(base, 2, n, TreeStream(5, 0))
        large = dfs_evaluate(big, 2, n, TreeStream(5, 0))
        assert math.isfinite(large.ln_w_cond)
        assert large.ln_z_abs == pytest.approx(small.ln_z_abs + n * shift, rel=REL)
        assert large.ln_z_abs2 == pytest.approx(small.ln_z_abs2 + 2 * n * shift, rel=REL)
        assert large.ln_t_damped == pytest.approx(small.ln_t_damped + n * shift, rel=REL)
        assert large.ln_w_cond == pytest.approx(small.ln_w_cond + 2 * n * shift, rel=REL)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_custom_radii_of_any_real_dtype_match_enumeration(dtype):
    # a user sampler may return integer or single-precision radii
    def polar(raw):
        r = (raw[:, 0] % np.uint64(3) + np.uint64(1)).astype(dtype)
        return r, 2.0 * math.pi * to_uniform(raw[:, 1])

    law = SamplerLaw(polar, damping=0.5)
    for b, n in [(2, 1), (2, 5), (3, 4)]:
        fast = dfs_evaluate(law, b, n, TreeStream(2, 0))
        slow = brute_force_evaluate(law, b, n, TreeStream(2, 0))
        for name in ("z", "z_abs", "z_abs2", "w_cond", "t_damped"):
            assert rel_err(getattr(fast, name), getattr(slow, name)) < REL


def test_w_and_squared_sum_that_lost_terms_to_underflow_are_refused():
    # this tree's nodes span more than one exponent per generation holds:
    # computed in full, ln W came out -inf although W >= Z(|xi|^2), and
    # Z(|xi|^2) about e^600 too small
    law = GaussianIndep(120.0, 0.5)
    fs = dfs_evaluate(law, 2, 8, TreeStream(1, 27))
    assert math.isnan(fs.w_cond) and math.isnan(fs.ln_w_cond)
    assert math.isnan(fs.z_abs2) and math.isnan(fs.ln_z_abs2)
    assert math.isfinite(fs.ln_z_abs) and math.isfinite(fs.ln_t_damped)
    alone = dfs_evaluate(law, 2, 8, TreeStream(1, 27), include_w=False)
    assert math.isnan(alone.ln_z_abs2)
    assert alone.ln_abs_z == fs.ln_abs_z


def test_root_bounds_refuse_what_underflow_shrank():
    # W >= max(Z(|xi|^2), T^2) and b^n Z(|xi|^2) >= Z(|xi|)^2 at the root
    def finish(za, a2, t, w, include_w=True):
        # T = q^n Z(|xi|) is formed in _finish: q^n = t / za is exact here
        return sim_module._finish([1 + 0j, za, a2, w], [0] * 4,
                                  (1.0 if t is None else t / za, 0), 1, 2,
                                  include_w)

    fs = finish(2.0, 2.0, 1.0, 2.0)     # both bounds met with equality
    assert (fs.z_abs2, fs.w_cond) == (2.0, 2.0)
    for w in (1.5, 0.0):                # W below Z(|xi|^2): both refused
        fs = finish(2.0, 2.0, 1.0, w)
        assert math.isnan(fs.w_cond) and math.isnan(fs.ln_z_abs2)
    fs = finish(2.0, 2.0, 1.5, 2.0)     # W below T^2
    assert math.isnan(fs.ln_w_cond) and math.isnan(fs.z_abs2)
    for a2 in (1.0, 0.0):               # 2 Z(|xi|^2) below Z(|xi|)^2
        fs = finish(2.0, a2, None, None, include_w=False)
        assert math.isnan(fs.z_abs2) and fs.z_abs == 2.0


def test_a_scaled_down_generation_too_wide_to_square_is_refused():
    # radii 2^600 and 2^-400: scaled to below 2^480, the small one squares
    # below the normal range.  The lost term is negligible here, but the
    # sweep cannot tell, so Z(|xi|^2) and W are refused
    def polar(raw):
        count = raw.shape[0]
        r = np.where(np.arange(count) % 2 == 0, 2.0**600, 2.0**-400)
        return r, np.zeros(count)

    law = SamplerLaw(polar)
    fs = dfs_evaluate(law, 2, 1, TreeStream(0, 0))
    assert math.isnan(fs.ln_z_abs2) and math.isnan(fs.ln_w_cond)
    assert fs.ln_z_abs == pytest.approx(600 * math.log(2.0), rel=REL)
    assert fs.ln_t_damped == fs.ln_z_abs


def test_scalar_combine_levels_match_enumeration(monkeypatch):
    # shrink the bottom blocks so the top sweep over the block roots handles
    # most levels
    monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", 4)
    for b, n in [(2, 6), (3, 5)]:
        law = GaussianIndep(0.6, 0.6)
        fast = dfs_evaluate(law, b, n, TreeStream(7, 0))
        slow = brute_force_evaluate(law, b, n, TreeStream(7, 0))
        for name in ("z_abs", "z_abs2", "w_cond", "t_damped"):
            assert rel_err(getattr(fast, name), getattr(slow, name)) < 1e-11
        assert rel_err(fast.z, slow.z) < 1e-11


def test_block_size_does_not_change_values(monkeypatch):
    law = LogNormalUniformPhase(0.6, 0.4)
    full = dfs_evaluate(law, 2, 9, TreeStream(3, 1))
    monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", 2)
    tiny = dfs_evaluate(law, 2, 9, TreeStream(3, 1))
    assert rel_err(full.z, tiny.z) < 1e-12
    assert rel_err(full.w_cond, tiny.w_cond) < 1e-12


def test_block_size_moves_no_bit_of_the_radius_fields(monkeypatch):
    # every field is summed in the same order, left to right, and Z takes
    # the same complex product in the blocks and the top sweep, so only the
    # exact exponent bookkeeping depends on the block size; Z's bits too
    laws = [GaussianIndep(0.8, 0.8), GaussianIndep(1.5, 0.1),
            LogNormalUniformPhase(0.6, 0.4), RademacherPhase(t=0.5, beta=0.3)]
    names = ("z_abs", "z_abs2", "t_damped", "w_cond",
             "ln_z_abs", "ln_z_abs2", "ln_t_damped", "ln_w_cond",
             "z", "ln_abs_z", "arg_z")
    for b, n in [(2, 9), (3, 6), (2, 12), (9, 3)]:
        for law in laws:
            for r in range(5):
                bits = set()
                for leaves in (2, 4, 1 << 14):
                    monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", leaves)
                    fs = dfs_evaluate(law, b, n, TreeStream(13, r))
                    bits.add(np.array([getattr(fs, f) for f in names]).tobytes())
                assert len(bits) == 1, (b, n, law, r)


@pytest.mark.parametrize("n, philox, transforms", [
    (8, 2, [256, 254]),
    # two bottom blocks of 14 generations, then one level over their roots
    (15, 2 * 14 + 1, [1 << 14, (1 << 14) - 2] * 2 + [2]),
])
def test_a_sweep_transforms_its_widest_generation_then_the_rest(
        n, philox, transforms, monkeypatch):
    raw, calls = rng._raw_blocks, []
    monkeypatch.setattr(rng, "_raw_blocks",
                        lambda *a: calls.append(a) or raw(*a))
    law = GaussianIndep(0.5, 0.5)
    transform, sizes = law.radius_weight_from_raw, []
    monkeypatch.setattr(law, "radius_weight_from_raw",
                        lambda words, out=None: sizes.append(len(words)) or
                        transform(words, out))
    dfs_evaluate(law, 2, n, TreeStream(1, 0))
    assert (len(calls), sizes) == (philox, transforms)


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


def test_a_damping_whose_square_power_underflows_keeps_w_exact():
    # q^(2n) = 1e-2400 is far below float64, but q^h is carried as
    # (mantissa, exponent): W is the diagonal Z(|xi|^2) plus pair terms
    # that the oracle's float64 damping flushes to 0
    law = RademacherPhase(t=1e-200, beta=0.5)
    fast = dfs_evaluate(law, 2, 6, TreeStream(3, 0))
    slow = brute_force_evaluate(law, 2, 6, TreeStream(3, 0))
    assert math.isfinite(fast.w_cond)
    assert rel_err(fast.w_cond, slow.w_cond) < REL
    assert rel_err(fast.ln_t_damped,
                   6 * math.log(1e-200) + fast.ln_z_abs) < REL


@pytest.mark.parametrize("b, n, leaves", [
    (2, 7, None), (3, 5, None), (5, 3, None),
    (2, 9, 4), (3, 6, 9), (5, 4, 25),      # several bottom blocks
])
def test_damped_sum_is_q_to_the_n_times_the_radius_sum(b, n, leaves,
                                                       monkeypatch):
    # T = q^n Z(|xi|) is derived from one carried scalar q^h; check it over
    # the random laws, with and without the top sweep
    if leaves is not None:
        monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", leaves)
    laws = [GaussianIndep(0.8, 0.8), LogNormalUniformPhase(0.5, 0.5),
            RademacherPhase(t=0.6, beta=0.4)]
    for law in laws:
        ln_q = math.log(law.phase_damping())
        for r in range(3):
            fs = dfs_evaluate(law, b, n, TreeStream(17, r))
            assert rel_err(fs.ln_t_damped, n * ln_q + fs.ln_z_abs) < REL


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


# ------------------------------------------------------------- workspace
# Each thread reuses one set of work arrays (sim._Workspace) for every
# kernel, so nothing returned may be a view of them.


def _snapshot(value):
    """The bytes of a result, whatever it holds."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, list):
        return np.array(value).tobytes()
    return np.array([v for v in vars(value).values() if v is not None],
                    dtype=complex).tobytes()


def test_results_survive_a_later_call_of_another_size(monkeypatch):
    law = GaussianIndep(0.8, 0.8)
    calls = [
        lambda n: dfs_evaluate(law, 2, n, TreeStream(4, 0)),
        lambda n: dfs_evaluate(law, 3, n - 3, TreeStream(4, 0),
                               include_w=False),
        lambda n: batch_z_values(law, 2, n - 3, 5, 300 + n),
        lambda n: ratio4(law, 2, n - 6, 2, 1000, 6).values,
        lambda n: one_step_identity_check(law, 2, n - 5, TreeStream(4, 0),
                                          resamples=50 + n),
    ]
    for leaves in (1 << 14, 1 << 6):   # then multi-block trees
        monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", leaves)
        for call in calls:
            first = call(11)
            before = _snapshot(first)
            call(9)
            call(13)
            assert _snapshot(first) == before, (leaves, call)


def test_concurrent_sizes_keep_their_serial_bits(monkeypatch):
    # two sizes in flight at once, a multi-block n = 15 and an n = 9, so
    # each thread's workspace grows while the other's is in use
    monkeypatch.setattr(sim_module, "_BLOCK_LEAVES", 1 << 12)
    law = GaussianIndep(0.8, 0.8)
    jobs = [(n, r) for r in range(4) for n in (15, 9)]

    def run(job):
        n, r = job
        return (dfs_evaluate(law, 2, n, TreeStream(21, r)),
                batch_z_values(law, 2, n - 6, r, 200 * n).tobytes())

    serial = [run(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            threaded = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_a_warm_tree_allocates_little_beyond_its_words():
    # numpy reports its array data to tracemalloc.  At the peak of a warm
    # evaluation one generation's Philox words (2^14 draws, 512 KiB) and
    # numpy's 128-KiB cast buffer for xi *= r are alive: 0.63 MiB here,
    # where fresh arrays for every level and transform came to 2.1 MiB.
    # Any further array of a bottom-block generation alive with them adds
    # at least 128 KiB, so the bound sits just above the measured peak.
    law = GaussianIndep(0.8, 0.8)
    dfs_evaluate(law, 2, 16, TreeStream(1, 0))
    tracemalloc.start()
    try:
        dfs_evaluate(law, 2, 16, TreeStream(1, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2**20, peak


# ----------------------------------------------------------- second moment


def _meet_sum_second_moment(law, b, n):
    """Independent route: sum over ordered leaf pairs by their meet depth."""
    m2 = math.exp(law.log_moment_abs(2.0))
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
    s = math.sqrt(0.5 * math.log(2.0))
    crit = closed_form_second_moment(GaussianIndep(s, s), 2, 3)
    assert crit.value == pytest.approx(64.0 * 2.5, rel=1e-12)  # 4^n (1 + n/2)


def test_second_moment_stays_finite_in_log_space_past_float_range():
    # m2 = e^3200 and |m1|^2 = e^1600 overflow; sigma^2 / m2 = 1 - e^-1600,
    # so ln E|Z_3|^2 = 3 ln 2 + 3 * 3200 up to a term of e^-1600
    report = closed_form_second_moment(GaussianIndep(40.0, 0.0), 2, 3)
    assert report.value == math.inf
    assert report.ln_value == pytest.approx(3 * math.log(2.0) + 9600.0,
                                            rel=1e-15)


def test_second_moment_rejects_depth_zero():
    with pytest.raises(DomainError):
        closed_form_second_moment(GaussianIndep(0.5, 0.5), 2, 0)


# -------------------------------------------------------- one-step identity


def test_one_step_identity_is_exact_for_constants():
    # a law without spread has SEs of roundoff size, not 0; a gap within
    # roundoff of the target must still score 0
    for c, b, n, stream, resamples in [
            (1.0, 2, 2, TreeStream(0, 0), 50),
            (0.6 + 0.3j, 2, 10, TreeStream(13, 0), 100),
            (0.6 + 0.3j, 3, 6, TreeStream(13, 0), 100)]:
        report = one_step_identity_check(DeterministicConstant(c), b, n,
                                         stream, resamples=resamples)
        assert report.mean_residual == 0.0, (c, b, n)
        assert report.second_residual == 0.0, (c, b, n)


def test_one_step_identity_within_monte_carlo_noise():
    report = one_step_identity_check(GaussianIndep(0.5, 0.5), 2, 3,
                                     TreeStream(9, 0), resamples=8000)
    assert report.mean_residual < 5.0
    assert report.second_residual < 5.0


def test_one_step_bits_do_not_depend_on_blas_threads():
    # a BLAS matrix-vector product splits its sums by thread count, which
    # moved the last bits of this case between one thread and two
    args = "GaussianIndep(0.5, 0.7), 3, 6, TreeStream(13, 0), resamples=100"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(sim_module.__file__)),
                    env.get("PYTHONPATH")) if p)
    script = ("from treepolymer import *\n"
              f"print(repr(one_step_identity_check({args})))")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, check=True)
    here = one_step_identity_check(GaussianIndep(0.5, 0.7), 3, 6,
                                   TreeStream(13, 0), resamples=100)
    assert proc.stdout.strip() == repr(here)


def test_one_step_draws_each_node_once_per_pass(monkeypatch):
    # generation n+1 takes one call per node, the frozen tree one per
    # generation and its dfs_evaluate at most two
    raw, calls = rng._raw_blocks, []
    monkeypatch.setattr(rng, "_raw_blocks",
                        lambda *a: calls.append(a) or raw(*a))
    one_step_identity_check(GaussianIndep(0.5, 0.5), 2, 10, TreeStream(13, 0),
                            resamples=100)
    assert len(calls) <= 2**11 + 2 * 10


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


def _plan(budget):
    return ExperimentPlan(spec=GaussianIndep(0.5, 0.5), b=2, n=10,
                          replicas=2, seed=0, node_budget=budget)


_OVER_BUDGET = {   # each walks a depth-10 binary tree (or its depths)
    "dfs_evaluate": lambda budget: dfs_evaluate(
        GaussianIndep(0.5, 0.5), 2, 10, TreeStream(0, 0), node_budget=budget),
    "trace_depths": lambda budget: trace_depths(
        GaussianIndep(0.5, 0.5), 2, 10, TreeStream(0, 0), node_budget=budget),
    "one_step_identity_check": lambda budget: one_step_identity_check(
        GaussianIndep(0.5, 0.5), 2, 10, TreeStream(0, 0), resamples=100,
        node_budget=budget),
    "estimate_free_energy": lambda budget: estimate_free_energy(_plan(budget)),
    "estimate_w_free_energy":
        lambda budget: estimate_w_free_energy(_plan(budget)),
    "verify_moments": lambda budget: verify_moments(_plan(budget)),
    "ratio4": lambda budget: ratio4(
        GaussianIndep(0.5, 0.5), 2, 10, omega_replicas=1,
        phase_resamples=1000, seed=0, node_budget=budget),
}


@pytest.mark.parametrize("walker", list(_OVER_BUDGET))
def test_every_walker_refuses_a_tree_over_budget_in_one_wording(walker):
    with pytest.raises(BudgetExceeded, match=r"exceeds per-tree budget 100$"):
        _OVER_BUDGET[walker](100)


def test_trace_refuses_an_over_budget_depth_before_walking_any(monkeypatch):
    walked = []
    monkeypatch.setattr(sim_module, "dfs_evaluate",
                        lambda *args, **kwargs: walked.append(args))
    with pytest.raises(BudgetExceeded, match=r"2\^31 exceeds per-tree budget"):
        trace_depths(GaussianIndep(0.5, 0.5), 2, 30, TreeStream(0, 0))
    assert walked == []


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
    assert rows[-1]["ln_w_cond_over_2n"] == pytest.approx(full.ln_w_cond / 10.0, rel=1e-12)


def test_trace_rows_carry_the_csv_columns():
    rows = trace_depths(GaussianIndep(0.5, 0.5), 2, 2, TreeStream(1, 0))
    assert all(list(row) == TRACE_HEADER for row in rows)


def test_trace_skips_pair_functional_when_disabled():
    rows = trace_depths(GaussianIndep(0.5, 0.5), 2, 3, TreeStream(1, 0),
                        include_w=False)
    assert all(row["ln_w_cond_over_2n"] is None for row in rows)


def test_trace_refuses_overflow_but_keeps_exact_zeros():
    with pytest.raises(DomainError, match="at depth 3: float64 overflow"):
        trace_depths(GaussianIndep(600.0, 0.5), 2, 4, TreeStream(0, 0))
    zero = SamplerLaw(
        lambda raw: (np.zeros(raw.shape[0]), np.zeros(raw.shape[0])))
    for row in trace_depths(zero, 2, 2, TreeStream(0, 0)):
        assert [row[k] for k in row if k != "n"] == [-math.inf] * 4
