"""Region classification: G surface, critical parameters, dual classifiers."""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from treepolymer import (
    DeterministicConstant,
    DomainError,
    GaussianIndep,
    LogNormalUniformPhase,
    NoBracket,
    RademacherPhase,
    alpha_min,
    classify,
    classify_indep_closed_form,
    critical_set,
    g_of_alpha,
    l2_check,
    positive_weight_free_energy,
)
from treepolymer.phase import (
    _CAP,
    _SCAN_STEPS,
    _decide,
    _first_bracket,
    _radius_part,
    predicted_w_rate,
)

from laws import CoupledGaussian

LN2 = math.log(2.0)
BETA_C = math.sqrt(2.0 * LN2)     # Gaussian b=2 strong-disorder threshold
BETA_0 = 0.5 * BETA_C
GAMMA_C = math.sqrt(LN2)
GAMMA_0 = math.sqrt(0.5 * LN2)


# ------------------------------------------------------------------ G(a)


def test_g_of_alpha_matches_closed_forms():
    assert g_of_alpha(DeterministicConstant(1.0), 2, 2.0) == pytest.approx(0.5 * LN2, rel=1e-12)
    law = GaussianIndep(1.0, 1.0)
    assert g_of_alpha(law, 2, 1.0) == pytest.approx(LN2 + 0.5, rel=1e-12)
    assert g_of_alpha(law, 2, 2.0) == pytest.approx((LN2 + 2.0) / 2.0, rel=1e-12)


def test_g_of_alpha_requires_positive_exponent():
    with pytest.raises(DomainError):
        g_of_alpha(GaussianIndep(1.0, 1.0), 2, 0.0)


def test_alpha_min_examples():
    assert alpha_min(GaussianIndep(1.0, 1.0), 2) == pytest.approx(BETA_C, abs=1e-6)
    assert alpha_min(GaussianIndep(0.3, 0.3), 2) == pytest.approx(BETA_C / 0.3, abs=1e-6)
    assert alpha_min(DeterministicConstant(1.0), 2) == math.inf


@given(st.floats(0.2, 2.0))
def test_alpha_min_scales_inversely_with_radius_strength(beta):
    assert alpha_min(GaussianIndep(beta, 0.5), 2) == pytest.approx(BETA_C / beta, abs=1e-6)


@given(st.floats(0.3, 2.2), st.floats(0.05, 0.95), st.floats(0.05, 0.95))
def test_g_is_unimodal_around_its_minimizer(beta, frac1, frac2):
    law = GaussianIndep(beta, 0.7)
    amin = BETA_C / beta
    lo1, lo2 = sorted((frac1 * amin, frac2 * amin))
    assume(lo2 - lo1 > 1e-6)
    assert g_of_alpha(law, 2, lo1) >= g_of_alpha(law, 2, lo2) - 1e-12
    hi1, hi2 = sorted((amin * (1.0 + frac1), amin * (1.0 + frac2)))
    assume(hi2 - hi1 > 1e-6)
    assert g_of_alpha(law, 2, hi2) >= g_of_alpha(law, 2, hi1) - 1e-12


# ------------------------------------------------------------------ L2 test


def test_l2_condition_examples():
    assert l2_check(DeterministicConstant(1.0), 2) is True
    assert l2_check(GaussianIndep(0.3, 0.3), 2) is True
    assert l2_check(GaussianIndep(0.0, GAMMA_C + 0.01), 2) is False
    assert l2_check(GaussianIndep(0.0, GAMMA_C - 0.01), 2) is True
    # exact-equality case (both sides are 0.0 in floating point): the
    # strict inequality excludes the boundary itself
    assert l2_check(RademacherPhase(t=0.5, beta=0.0), 4) is False


# ------------------------------------------------------------ critical set


def test_critical_set_gaussian_closed_forms():
    crit = critical_set(GaussianIndep(1.0, 1.0), 2)
    assert crit.beta_c == pytest.approx(BETA_C, abs=1e-8)
    assert crit.beta_0 == pytest.approx(BETA_0, abs=1e-8)
    assert crit.gamma_c == pytest.approx(GAMMA_C, abs=1e-8)
    assert crit.gamma_0 == pytest.approx(GAMMA_0, abs=1e-8)
    lo, hi = crit.gamma_0_bracket
    assert lo <= crit.gamma_0 <= hi


def test_critical_set_ternary_tree():
    crit = critical_set(GaussianIndep(1.0, 1.0), 3)
    assert crit.beta_c == pytest.approx(math.sqrt(2.0 * math.log(3.0)), abs=1e-8)
    assert crit.beta_0 == pytest.approx(0.5 * crit.beta_c, abs=1e-8)


def test_critical_set_infinite_sentinels_for_bounded_radius():
    crit = critical_set(DeterministicConstant(1.0), 2)
    assert crit.beta_c == math.inf
    assert crit.beta_0 == math.inf
    assert crit.gamma_c == math.inf
    assert crit.gamma_0 == math.inf
    assert crit.gamma_0_bracket is None


def test_critical_set_roots_satisfy_their_equations_for_other_phase_laws():
    law = LogNormalUniformPhase(0.5, 0.5)
    crit = critical_set(law, 2)
    assert 0.0 < crit.gamma_c < 1.0
    assert 2.0 * law.lambda_c(crit.gamma_c) == pytest.approx(LN2, abs=1e-9)
    two_point = RademacherPhase(t=0.0, beta=0.0)
    assert critical_set(two_point, 2).gamma_c == pytest.approx(0.5, abs=1e-9)


# ------------------------------------------------------- generic classifier


@pytest.mark.parametrize(
    "beta,gamma,region,f",
    [
        (0.3, 0.3, "R1", LN2),
        (0.3, 1.2, "R3", (LN2 + 0.18) / 2.0),
        (1.5, 0.1, "R2a", 1.5 * BETA_C),
        (0.8, 0.8, "R2b", 0.8 * BETA_C),
    ],
)
def test_classify_gaussian_examples(beta, gamma, region, f):
    report = classify(GaussianIndep(beta, gamma), 2)
    assert report.region == region
    assert report.predicted_f == pytest.approx(f, abs=1e-7)
    assert report.condition_trace


def test_classify_constant_is_weak_disorder():
    report = classify(DeterministicConstant(1.0), 2)
    assert report.region == "R1"
    assert report.predicted_f == pytest.approx(LN2, rel=1e-12)
    assert report.alpha_min == math.inf


def test_classify_reports_exact_boundary_with_both_values():
    beta = 0.3
    gamma_star = math.sqrt(LN2 - beta**2)  # curve where R1 and R3 formulas meet
    report = classify(GaussianIndep(beta, gamma_star), 2)
    assert report.region == "Boundary"
    assert report.boundary_values is not None
    lhs, rhs = report.boundary_values
    assert lhs == pytest.approx(rhs, abs=1e-9)
    assert report.boundary_width is not None


def test_classify_undetermined_without_independence():
    # 1 <= a_min < 2 and G(a_min) above ln(b|E xi|): R2b needs independence
    assert classify(GaussianIndep(0.8, 0.5), 2).region == "R2b"
    report = classify(CoupledGaussian(0.8, 0.5), 2)
    assert report.region == "Undetermined"
    assert math.isnan(report.predicted_f)


@pytest.mark.parametrize("independent", [True, False])
def test_region_rule_over_arrays_matches_it_cell_by_cell(independent):
    # columns: laws on both sides of beta_0 and beta_c, and a_min inside the
    # band of 1 and on both sides of 2 inside its band; rows: targets inside
    # and outside the band of each G value a condition reads, and E xi = 0
    eps = 1e-3
    radius = [_radius_part(GaussianIndep(beta, 0.0), 2)
              for beta in (0.0, 0.3, BETA_0, 0.8, BETA_C, 1.5)]
    radius += [(amin, 0.7, 0.72, 0.75) for amin in (1.0004, 1.9996, 2.0005)]
    parts = np.array(radius).T
    rows = [part + off for part in parts[1:]
            for off in (-2e-3, -5e-4, 0.0, 5e-4, 2e-3)]
    targets = np.array(rows + [np.full(len(radius), -math.inf)])
    code, f, edge = _decide(targets, independent, eps, tuple(parts))
    edge = np.broadcast_to(edge, code.shape)
    assert set(code.ravel().tolist()) == (
        {0, 1, 2, 3, 4} if independent else {0, 1, 3, 4, 5})
    for (i, j), target in np.ndenumerate(targets):
        one = _decide(float(target), independent, eps, radius[j])
        assert (code[i, j], f[i, j].tobytes(), edge[i, j].tobytes()) == \
            (one[0], np.float64(one[1]).tobytes(), np.float64(one[2]).tobytes())


def test_classify_reports_python_floats():
    # phase-point's JSON bytes are those of Python floats
    reports = [classify(law, 2) for law in (
        GaussianIndep(0.3, math.sqrt(LN2 - 0.3**2)), GaussianIndep(0.8, 0.5),
        CoupledGaussian(0.8, 0.5))]
    assert [rep.region for rep in reports] == ["Boundary", "R2b",
                                               "Undetermined"]
    assert all(type(rep.predicted_f) is float for rep in reports)
    assert [type(v) for v in reports[0].boundary_values] == [float, float]


def test_classify_free_energy_is_continuous_across_region_boundaries():
    delta = 1e-6
    cases = []
    beta = 0.3  # R1/R3 crossing in the phase direction
    gamma_star = math.sqrt(LN2 - beta**2)
    cases.append(((beta, gamma_star - delta), (beta, gamma_star + delta), {"R1", "R3"}))
    beta = 0.9  # R1/R2 crossing in the phase direction
    gamma_hat = BETA_C - beta
    cases.append(((beta, gamma_hat - delta), (beta, gamma_hat + delta), {"R1", "R2b"}))
    gamma = 0.9  # R3/R2 crossing in the radius direction
    cases.append(((BETA_0 - delta, gamma), (BETA_0 + delta, gamma), {"R3", "R2b"}))
    for (p_lo, p_hi, expected) in cases:
        rep_lo = classify(GaussianIndep(*p_lo), 2)
        rep_hi = classify(GaussianIndep(*p_hi), 2)
        assert {rep_lo.region, rep_hi.region} == expected
        assert abs(rep_lo.predicted_f - rep_hi.predicted_f) < 1e-5


def test_exactly_one_region_condition_fires_away_from_boundaries():
    checked = 0
    for beta in np.linspace(0.05, 2.0, 40):
        for gamma in np.linspace(0.05, 2.0, 40):
            target = LN2 + 0.5 * beta**2 - 0.5 * gamma**2

            def g(a):
                return LN2 / a + 0.5 * a * beta**2

            amin = BETA_C / beta
            c1 = g(min(max(amin, 1.0), 2.0)) < target
            c2 = amin < 1.0 or (amin < 2.0 and g(amin) > target)
            c3 = amin > 2.0 and g(2.0) > target
            margins = [
                abs(g(min(max(amin, 1.0), 2.0)) - target),
                abs(amin - 1.0),
                abs(amin - 2.0),
                abs(g(min(amin, 64.0)) - target),
                abs(g(2.0) - target),
            ]
            if min(margins) < 1e-7:
                continue
            checked += 1
            assert int(c1) + int(c2) + int(c3) == 1, (beta, gamma)
            report = classify(GaussianIndep(float(beta), float(gamma)), 2)
            expected = "R1" if c1 else ("R3" if c3 else ("R2a" if amin < 1 else "R2b"))
            assert report.region == expected, (beta, gamma)
    assert checked > 1200


# --------------------------------------------------- closed-form classifier


@pytest.fixture(scope="module")
def gaussian_crit():
    return critical_set(GaussianIndep(1.0, 1.0), 2)


@pytest.mark.parametrize(
    "beta,gamma,region",
    [
        (0.3, 0.3, "R1"),
        (0.3, 1.2, "R3"),
        (1.5, 0.1, "R2a"),
        (0.8, 0.8, "R2b"),
        (0.0, 0.0, "R1"),
    ],
)
def test_closed_form_classifier_examples(beta, gamma, region, gaussian_crit):
    report = classify_indep_closed_form(GaussianIndep(beta, gamma), 2,
                                        gaussian_crit)
    assert report.region == region


def test_closed_form_classifier_boundary_band(gaussian_crit):
    crit = gaussian_crit

    def region_at(beta):
        return classify_indep_closed_form(GaussianIndep(beta, 0.1), 2,
                                          crit).region

    assert region_at(crit.beta_c) == "Boundary"
    assert region_at(crit.beta_c + 5e-10) == "Boundary"
    assert region_at(crit.beta_c + 1e-8) == "R2a"
    report = classify_indep_closed_form(GaussianIndep(crit.beta_c, 0.1), 2,
                                        crit)
    assert report.boundary_values is not None


@given(st.floats(0.02, 2.0), st.floats(0.02, 2.0))
def test_dual_classifiers_agree_off_boundary(beta, gamma):
    law = GaussianIndep(beta, gamma)
    generic = classify(law, 2)
    crit = critical_set(law, 2)
    closed = classify_indep_closed_form(law, 2, crit)
    assume(generic.region != "Boundary" and closed.region != "Boundary")
    assert generic.region == closed.region
    assert generic.predicted_f == pytest.approx(closed.predicted_f, abs=1e-6)


# ------------------------------------------- one a_min over every scale

SCALE_LAWS = {
    "gaussian": lambda beta: GaussianIndep(beta, 0.3),
    "uniform": lambda beta: LogNormalUniformPhase(beta, 0.5),
    "rademacher": lambda beta: RademacherPhase(t=0.5, beta=beta),
}
# G carries a relative roundoff of a few units u = 2^-53, say 4u, and rises
# by d^2 / 2 at a relative distance d from a_min (in ln a, G'' = G there).
# Two values of G compare reliably only where that rise exceeds twice the
# roundoff, d > sqrt(16 u) = 4.2e-8, so no search on G places a_min closer.
AMIN_REL = 5e-8


@pytest.mark.parametrize("model", sorted(SCALE_LAWS))
@pytest.mark.parametrize("b", [2, 3, 1000])
@pytest.mark.parametrize("beta", [0.01, 0.3, 1.5, 5.0, 1e3, 1e5, 2e6, 1e9, 1e150])
def test_every_rate_reads_one_alpha_min_at_every_scale(model, b, beta):
    law = SCALE_LAWS[model](beta)
    beta_c = math.sqrt(2.0 * math.log(b))
    amin = alpha_min(law, b)
    if beta_c / beta > 64.0:
        assert amin == math.inf
    else:
        assert amin * beta == pytest.approx(beta_c, rel=AMIN_REL)
    rep = classify(law, b)
    if rep.region.startswith("R2"):
        assert rep.predicted_f == pytest.approx(beta * beta_c, rel=1e-12)
    # Derrida-Spohn: weights |xi| and |xi|^2, frozen above beta_c and beta_c/2
    p1 = math.log(b) + 0.5 * beta**2 if beta <= beta_c else beta * beta_c
    p2 = math.log(b) + 2.0 * beta**2 if beta <= 0.5 * beta_c \
        else 2.0 * beta * beta_c
    assert positive_weight_free_energy(law, 1, b) == pytest.approx(p1, rel=1e-12)
    assert positive_weight_free_energy(law, 2, b) == pytest.approx(p2, rel=1e-12)
    w = max(p1 - law.lambda_c(law.gamma_scale), 0.5 * p2)
    assert predicted_w_rate(law, b) == pytest.approx(w, rel=1e-12)
    crit = critical_set(law, b)
    assert crit.beta_0 == 0.5 * crit.beta_c


# ------------------------------------------------- positive-weight polymer


def test_positive_weight_free_energy_examples():
    assert positive_weight_free_energy(GaussianIndep(0.3, 0.9), 1, 2) == pytest.approx(
        LN2 + 0.045, abs=1e-9)
    assert positive_weight_free_energy(GaussianIndep(1.5, 0.0), 1, 2) == pytest.approx(
        1.5 * BETA_C, abs=1e-7)
    assert positive_weight_free_energy(DeterministicConstant(1.0), 2, 2) == pytest.approx(
        LN2, rel=1e-12)
    with pytest.raises(DomainError):
        positive_weight_free_energy(GaussianIndep(0.3, 0.3), 3, 2)


def test_positive_weight_free_energy_square_weights():
    # weights |xi|^2 double the effective radius strength
    val = positive_weight_free_energy(GaussianIndep(0.4, 0.0), 2, 2)
    assert val == pytest.approx(LN2 + 0.5 * (2.0 * 0.4) ** 2, abs=1e-9)
    strong = positive_weight_free_energy(GaussianIndep(1.2, 0.0), 2, 2)
    assert strong == pytest.approx(2.4 * BETA_C, abs=1e-7)


# ------------------------------------------------------------- bit pins
# The hex digits of alpha_min and of the critical set, recorded before the
# golden-section search was folded into `alpha_min` and the bracket scan made
# lazy; both rewrites keep every float operation, so every bit holds.

# alpha_min reads the radius alone, so the three scale laws share one pin
AMIN_BITS = {
    (0.3, 2): "0x1.f65c92a8f99ffp+1", (0.3, 3): "0x1.3c398d9e4e71dp+2",
    (0.3, 1000): "0x1.8c78c1819a681p+3",
    (1.5, 2): "0x1.91e3a8852d0dfp-1", (1.5, 3): "0x1.f9f5aefe34c21p-1",
    (1.5, 1000): "0x1.3d2d67994d05bp+1",
    (1e3, 2): "0x1.34a6a6605e6e5p-10", (1e3, 3): "0x1.8493b9c364af3p-10",
    (1e3, 1000): "0x1.e72f36d1f53a8p-9",
    (1e150, 2): "0x1.ed53e6b5335c3p-499", (1e150, 3): "0x1.3689c7afb826ap-498",
    (1e150, 1000): "0x1.85578efef4eb7p-497",
}


@pytest.mark.parametrize("model", sorted(SCALE_LAWS))
@pytest.mark.parametrize("b", [2, 3, 1000])
@pytest.mark.parametrize("beta", [0.01, 0.3, 1.5, 1e3, 1e150])
def test_alpha_min_keeps_its_bits(model, b, beta):
    assert alpha_min(SCALE_LAWS[model](beta), b).hex() == \
        AMIN_BITS.get((beta, b), "inf")


@pytest.mark.parametrize("b", [2, 3, 1000])
def test_alpha_min_of_a_constant_keeps_its_bits(b):
    assert alpha_min(DeterministicConstant(0.7 + 0.3j), b).hex() == "inf"


# beta_c, beta_0, gamma_c, gamma_0 and gamma_0's bracket
CRIT_BITS = {
    ("gaussian", 2): ("0x1.2d6abe44afc8cp+0", "0x1.2d6abe44afc8cp-1",
                      "0x1.aa4499161d6acp-1", "0x1.2d6abe44af000p-1",
                      ("0x1.2800000000000p-1", "0x1.3000000000000p-1")),
    ("gaussian", 3): ("0x1.7b784327618bcp+0", "0x1.7b784327618bcp-1",
                      "0x1.0c535ddc17012p+0", "0x1.7b78432761000p-1",
                      ("0x1.7800000000000p-1", "0x1.8000000000000p-1")),
    ("gaussian", 1000): ("0x1.dbc41b3571940p+1", "0x1.dbc41b3571940p+0",
                         "0x1.506ada48f46e0p+1", "0x1.dbc41b3571800p+0",
                         ("0x1.d800000000000p+0", "0x1.dc00000000000p+0")),
    ("uniform", 2): ("0x1.2d6abe44afc8cp+0", "0x1.2d6abe44afc8cp-1",
                     "0x1.c593c275f59b8p-2", "0x1.4692195c02000p-2",
                     ("0x1.4000000000000p-2", "0x1.5000000000000p-2")),
    ("uniform", 3): ("0x1.7b784327618bcp+0", "0x1.7b784327618bcp-1",
                     "0x1.17616b9e63462p-1", "0x1.96d77007a2000p-2",
                     ("0x1.9000000000000p-2", "0x1.a000000000000p-2")),
    ("uniform", 1000): ("0x1.dbc41b3571940p+1", "0x1.dbc41b3571940p+0",
                        "0x1.f04826473cb7ep-1", "0x1.b000faa745000p-1",
                        ("0x1.b000000000000p-1", "0x1.b800000000000p-1")),
    ("rademacher", 2): ("0x1.2d6abe44afc8cp+0", "0x1.2d6abe44afc8cp-1",
                        "0x1.800000000040ep-1", "0x1.179873da67000p-1",
                        ("0x1.1000000000000p-1", "0x1.1800000000000p-1")),
    ("rademacher", 3): ("0x1.7b784327618bcp+0", "0x1.7b784327618bcp-1",
                        "0x1.d313c3e7f8adap-1", "0x1.5a077352cd000p-1",
                        ("0x1.5800000000000p-1", "0x1.6000000000000p-1")),
    ("rademacher", 1000): ("0x1.dbc41b3571940p+1", "0x1.dbc41b3571940p+0",
                           "0x1.7844a51605c2cp+0", "0x1.544b9e6402800p+0",
                           ("0x1.5400000000000p+0", "0x1.5800000000000p+0")),
}
CRIT_LAWS = {"gaussian": GaussianIndep(1.0, 1.0),
             "uniform": LogNormalUniformPhase(1.0, 1.0),
             "rademacher": RademacherPhase(0.5, 1.0)}


@pytest.mark.parametrize("model, b", sorted(CRIT_BITS))
def test_critical_set_keeps_its_bits(model, b):
    crit = critical_set(CRIT_LAWS[model], b)
    assert (crit.beta_c.hex(), crit.beta_0.hex(), crit.gamma_c.hex(),
            crit.gamma_0.hex(), tuple(x.hex() for x in crit.gamma_0_bracket)) \
        == CRIT_BITS[model, b]


@pytest.mark.parametrize("lo", [0.0, 1e-9])
@pytest.mark.parametrize("k", [1, 75, _SCAN_STEPS])
@pytest.mark.parametrize("at_root", [False, True])
def test_first_bracket_evaluates_the_grid_only_up_to_the_sign_change(
        lo, k, at_root):
    grid = [lo + (_CAP - lo) * j / _SCAN_STEPS for j in range(_SCAN_STEPS + 1)]
    calls = []

    def f(x):
        calls.append(x)
        if at_root and x == grid[k]:
            return 0.0
        return -1.0 if x < grid[k] else 1.0

    assert _first_bracket(f, lo) == (grid[k - 1], grid[k])
    assert calls == grid[:k + 1]


def test_first_bracket_raises_after_the_whole_grid():
    calls = []

    def f(x):
        calls.append(x)
        return 1.0

    with pytest.raises(NoBracket):
        _first_bracket(f, 1e-9)
    assert len(calls) == _SCAN_STEPS + 1
