"""Environment laws: moment surfaces, phase damping, sampling, config records."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from treepolymer import (
    DeterministicConstant,
    DomainError,
    GaussianIndep,
    LogNormalUniformPhase,
    RademacherPhase,
    TreeStream,
    phase,
    spec_from_config,
)
from treepolymer.env import _WORK
from treepolymer.rng import normal_pair

from laws import SamplerLaw

REL = 1e-12


def close(a, b, rel=REL):
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def draws(law, stream, count):
    """i.i.d. weights xi from the stream's sequential region."""
    return law.radius_weight_from_raw(stream.seq_block(count))[1]


# ---------------------------------------------------------------- gaussian


def test_gaussian_moment_surface_closed_forms():
    law = GaussianIndep(1.0, 1.0)
    assert close(law.log_moment_abs(2.0), 2.0)
    assert close(math.exp(law.log_moment_abs(2.0)), math.e**2)
    assert close(law.lambda_r(0.7), 0.245)
    assert law.lambda_r_prime(0.7) == 0.7
    assert close(law.lambda_c(0.5), 0.125)
    assert close(abs(law.mean_xi()), 1.0)  # e^{1/2 - 1/2}
    assert close(law.phase_damping(), math.exp(-0.5))
    assert close(law.sigma2(), math.exp(2.0) - 1.0)


def test_gaussian_scaled_moment_surface():
    law = GaussianIndep(0.5, 0.8)
    assert close(law.log_moment_abs(3.0), 0.5 * (3.0 * 0.5) ** 2)
    assert close(law.log_mean_abs(), 0.5 * 0.25 - 0.5 * 0.64)


def test_gaussian_rejects_negative_parameters():
    with pytest.raises(DomainError):
        GaussianIndep(-0.1, 0.5)
    with pytest.raises(DomainError):
        GaussianIndep(0.5, -0.1)


def test_gaussian_sample_moments():
    law = GaussianIndep(0.6, 0.9)
    vals = draws(law, TreeStream(13, 0), 200_000)
    ln_r = np.log(np.abs(vals))
    count = ln_r.size
    assert abs(ln_r.mean()) < 5.0 * 0.6 / math.sqrt(count)
    assert abs(ln_r.var() - 0.36) < 5.0 * math.sqrt(2.0 * 0.36**2 / count)
    emp_mean = vals.mean()
    se = math.sqrt((vals.real.var() + vals.imag.var()) / count)
    assert abs(emp_mean - law.mean_xi()) < 5.0 * se


# ----------------------------------------------------------------- uniform


def test_uniform_phase_closed_forms():
    law = LogNormalUniformPhase(0.5, 0.5)
    assert close(law.lambda_c(0.5), math.log(math.pi / 2.0))
    assert close(law.phase_damping(), 2.0 / math.pi)
    assert close(law.log_moment_abs(2.0), 0.5)


def test_uniform_full_circle_has_exactly_zero_mean():
    law = LogNormalUniformPhase(0.5, 1.0)
    assert law.mean_xi() == 0j
    assert law.phase_damping() == 0.0
    assert law.log_mean_abs() == -math.inf
    assert law.lambda_c(1.0) == math.inf
    assert law.lambda_c(2.0) == math.inf


def test_uniform_rejects_gamma_outside_unit_interval():
    with pytest.raises(DomainError):
        LogNormalUniformPhase(0.5, 1.2)


def test_uniform_phase_sample_stays_in_band():
    law = LogNormalUniformPhase(0.0, 0.25)
    vals = draws(law, TreeStream(2, 0), 10_000)
    phases = np.angle(vals)
    assert np.all(np.abs(phases) <= 0.25 * math.pi + 1e-12)
    assert np.abs(vals).max() == pytest.approx(1.0)


# -------------------------------------------------------------- rademacher


def test_rademacher_two_point_phase():
    law = RademacherPhase(t=0.3, beta=0.7)
    assert close(law.phase_damping(), 0.3)
    assert close(abs(law.mean_xi()), math.exp(0.5 * 0.49) * 0.3)
    assert close(law.lambda_c(1.0), -math.log(0.3))
    vals = draws(law, TreeStream(5, 0), 4_000)
    phases = np.angle(vals)
    theta = math.acos(0.3)
    assert np.all(np.isclose(np.abs(phases), theta))
    assert (phases > 0).any() and (phases < 0).any()


def test_rademacher_unit_t_is_phaseless():
    law = RademacherPhase(t=1.0, beta=0.4)
    assert law.phase_damping() == 1.0
    assert law.lambda_c(3.7) == 0.0
    vals = draws(law, TreeStream(5, 0), 100)
    assert np.allclose(np.angle(vals), 0.0)


def test_rademacher_rejects_t_outside_unit_interval():
    with pytest.raises(DomainError):
        RademacherPhase(t=1.5)
    with pytest.raises(DomainError):
        RademacherPhase(t=0.5, beta=-1.0)


# ---------------------------------------------------------------- constant


def test_constant_law_is_deterministic():
    law = DeterministicConstant(2j)
    assert law.mean_xi() == 2j
    assert law.sigma2() == pytest.approx(0.0)
    assert law.lambda_c(0.9) == 0.0
    assert law.phase_damping() == 1.0
    assert close(law.log_moment_abs(3.0), 3.0 * math.log(2.0))
    vals = draws(law, TreeStream(1, 0), 8)
    assert np.allclose(vals, 2j)
    with pytest.raises(DomainError):
        DeterministicConstant(0)


# ------------------------------------------------------------------ config


# The fields each model takes, as spec_from_config reads them.
FIELDS = {"gaussian": ("beta", "gamma"), "uniform": ("beta", "gamma"),
          "rademacher": ("t", "beta"), "constant": ("c",)}


@pytest.mark.parametrize(
    "law",
    [
        GaussianIndep(0.8, 0.3),
        LogNormalUniformPhase(0.5, 0.5),
        RademacherPhase(t=0.6, beta=0.2),
        DeterministicConstant(1.5 - 2.5j),
    ],
)
def test_config_round_trip_preserves_the_law(law):
    record = {"model": law.model,
              **{key: getattr(law, key) for key in FIELDS[law.model]}}
    if law.model == "constant":
        record["c"] = [law.c.real, law.c.imag]
    rebuilt = spec_from_config(record)
    assert type(rebuilt) is type(law)
    for key in FIELDS[law.model]:
        assert getattr(rebuilt, key) == getattr(law, key)
    assert rebuilt.mean_xi() == law.mean_xi()


def test_spec_from_config_tolerates_branching_key_and_rejects_unknown_model():
    law = spec_from_config({"model": "gaussian", "beta": 0.1, "gamma": 0.2, "b": 3})
    assert isinstance(law, GaussianIndep)
    with pytest.raises(DomainError):
        spec_from_config({"model": "weibull"})
    with pytest.raises(DomainError):
        spec_from_config({"model": "gaussian", "beta": 0.1})


def test_custom_law_needs_two_table_nodes_and_is_not_config_serializable():
    # a law of one's own that declares no moment surface answers no moment
    # query, and no config record builds it
    law = SamplerLaw(lambda raw: (np.ones(raw.shape), np.zeros(raw.shape)))
    with pytest.raises(NotImplementedError):
        law.log_moment_abs(1.0)
    with pytest.raises(NotImplementedError):
        math.exp(law.log_moment_abs(2.0))
    with pytest.raises(DomainError, match="unknown model 'custom'"):
        spec_from_config({"model": "custom", "log_moments": {0.0: 0.0}})


@pytest.mark.parametrize("record", [
    {"model": "constant", "c": [1.0, 0.0], "beta": 0.5, "gamma": 3.0},
    {"model": "gaussian", "beta": 0.5, "gamma": 0.5, "t": 0.3},
    {"model": "uniform", "beta": 0.5, "gamma": 0.5, "c": [1.0, 0.0]},
    {"model": "rademacher", "t": 0.5, "gamma": 0.5},
])
def test_spec_from_config_refuses_fields_the_model_does_not_take(record):
    extra = [key for key in record
             if key != "model" and key not in FIELDS[record["model"]]]
    with pytest.raises(DomainError, match=f"does not take {', '.join(extra)}$"):
        spec_from_config(record)


@pytest.mark.parametrize("record", [
    {"model": "gaussian", "beta": math.nan, "gamma": 0.5},
    {"model": "gaussian", "beta": 0.5, "gamma": math.inf},
    {"model": "gaussian", "beta": "abc", "gamma": 0.5},
    {"model": "uniform", "beta": None, "gamma": 0.5},
    {"model": "uniform", "beta": 0.5, "gamma": math.nan},
    {"model": "rademacher", "t": math.nan},
    {"model": "rademacher", "t": 0.5, "beta": True},
    {"model": "constant", "c": [math.inf, 0.0]},
    {"model": "constant", "c": ["1", 0.0]},
    {"model": "constant", "c": [1.0]},
    {"model": "constant", "c": "1+1j"},
])
def test_laws_refuse_non_finite_or_non_numeric_parameters(record):
    with pytest.raises(DomainError):
        spec_from_config(record)


@pytest.mark.parametrize("make", [
    lambda x: GaussianIndep(x, 0.5),
    lambda x: GaussianIndep(0.5, x),
    lambda x: LogNormalUniformPhase(x, 0.5),
    lambda x: RademacherPhase(t=0.5, beta=x),
])
def test_laws_refuse_scales_whose_moments_overflow(make):
    # at the bound every moment the phase module evaluates is finite (a up
    # to 128); one float past it the constructor refuses
    law = make(1e150)
    for value in (law.log_moment_abs(128.0), law.log_mean_abs(),
                  law.lambda_c(law.gamma_scale),
                  phase.classify(law, 2).predicted_f,
                  phase.positive_weight_free_energy(law, 2, 2)):
        assert math.isfinite(value)
    with pytest.raises(DomainError, match="moments stay finite"):
        make(math.nextafter(1e150, math.inf))


@pytest.mark.parametrize("law", [
    GaussianIndep(0.8, 0.3),
    GaussianIndep(0.8, 0.0),     # zero phase scale: phases of -0.0
    LogNormalUniformPhase(0.5, 0.5),
    LogNormalUniformPhase(0.5, 0.0),
    RademacherPhase(t=0.6, beta=0.2),
    RademacherPhase(t=1.0, beta=0.2),
])
def test_weight_has_the_bits_of_the_complex_exponential(law):
    raw = TreeStream(4, 0).seq_block(20_000)
    r, phi = law.polar_from_raw(raw)
    _, xi = law.radius_weight_from_raw(raw)
    reference = r * np.exp(1j * phi)
    assert np.array_equal(xi.view(np.uint64), reference.view(np.uint64))


@pytest.mark.parametrize("law", [
    GaussianIndep(0.8, 0.3),
    LogNormalUniformPhase(0.5, 0.5),
    RademacherPhase(t=0.6, beta=0.2),
    DeterministicConstant(0.6 + 0.3j),
])
def test_lent_arrays_get_the_bits_of_fresh_ones(law):
    # the tree kernels lend workspace arrays through `out`, filled with
    # stale values here; the results must not depend on them
    raw = TreeStream(5, 0).seq_block(3000)

    def lent(*dtypes):
        # the results, then the work array of _WORK rows
        return (*(np.full(len(raw), 7.0, dtype=d) for d in dtypes),
                np.full((_WORK, len(raw)), 7.0))

    calls = [
        (law.polar_from_raw, lent(float, float)),
        (law.radius_weight_from_raw, lent(float, complex)),
    ]
    for transform, out in calls:
        fresh = transform(raw)
        into = transform(raw, out=out)
        for a, b, target in zip(fresh, into, out):
            assert b is target, transform
            assert a.tobytes() == b.tobytes(), transform


@pytest.mark.parametrize("law", [
    GaussianIndep(0.8, 0.3),
    GaussianIndep(0.8, 0.0),
    LogNormalUniformPhase(0.5, 0.5),
    RademacherPhase(t=0.6, beta=0.2),
])
def test_every_transform_takes_one_box_muller_pair(law):
    # ratio4 freezes radii from polar_from_raw while the tree kernels draw
    # through radius_weight_from_raw, so both must read the same normals,
    # bit for bit, and the radius must be the first of them
    raw = TreeStream(6, 0).seq_block(5000)
    r, phi = law.polar_from_raw(raw)
    z1, z2 = normal_pair(raw[:, 0], raw[:, 1])
    assert r.tobytes() == np.exp(law.beta * z1).tobytes()
    assert law.radius_weight_from_raw(raw)[0].tobytes() == r.tobytes()
    if law.model == "gaussian":
        assert phi.tobytes() == (law.gamma * z2).tobytes()


def test_moments_past_float_range_read_inf_and_a_zero_mean_stays_zero():
    law = GaussianIndep(40.0, 0.0)     # E xi = e^800, E|xi|^2 = e^3200
    assert law.mean_xi() == math.inf and law.sigma2() == math.inf
    assert RademacherPhase(t=0.5, beta=40.0).mean_xi() == math.inf
    # a phase factor of exactly 0 keeps the mean 0, not inf * 0 = nan
    assert LogNormalUniformPhase(40.0, 1.0).mean_xi() == 0.0
    assert RademacherPhase(t=0.0, beta=40.0).mean_xi() == 0.0
    # no spread reads 0, even where E|xi|^2 = 1e310 overflows
    assert DeterministicConstant(1e155).sigma2() == 0.0


# -------------------------------------------------------------- properties


@st.composite
def radius_laws(draw):
    kind = draw(st.sampled_from(["gaussian", "uniform", "rademacher", "constant"]))
    if kind == "gaussian":
        return GaussianIndep(draw(_scale()), draw(_scale()))
    if kind == "uniform":
        return LogNormalUniformPhase(draw(_scale()), draw(_unit()))
    if kind == "rademacher":
        return RademacherPhase(t=draw(_unit()), beta=draw(_scale()))
    return DeterministicConstant(complex(draw(_scale()) + 0.1, draw(_scale())))


def _scale():
    return st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False)


def _unit():
    return st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@given(radius_laws())
def test_zeroth_moment_is_one(law):
    assert close(law.log_moment_abs(0.0), 0.0, rel=1e-9)


@given(radius_laws(), st.floats(0.1, 4.0), st.floats(0.1, 4.0))
def test_log_moment_surface_is_convex(law, a1, a2):
    lo, hi = sorted((a1, a2))
    mid = 0.5 * (lo + hi)
    chord = 0.5 * (law.log_moment_abs(lo) + law.log_moment_abs(hi))
    assert law.log_moment_abs(mid) <= chord + 1e-9


@given(radius_laws())
def test_second_moment_dominates_squared_mean(law):
    assert law.sigma2() >= -1e-9
