"""Free-energy prediction and phase-region classification.

The classifier machinery rests on G(a) = (ln b + ln E|xi|^a) / a, which is
unimodal with a unique minimizer a_min (possibly +inf).  Three regions:

* R1 -- some a in (1, 2] has G(a) < ln(b|E xi|); f = ln(b|E xi|).
* R2 -- a_min < 1 (R2a), or 1 <= a_min < 2 with G(a_min) > ln(b|E xi|) and
  independent radius/phase (R2b); f = G(a_min).
* R3 -- a_min > 2 and G(2) > ln(b|E xi|); f = (1/2) ln(b E|xi|^2) = G(2).

Equality sub-cases are reported as Boundary, never guessed.  A second,
independent classifier uses the critical parameters (beta_c, beta_0,
gamma_c, gamma_0) and explicit inequalities in (beta, gamma); the two must
agree away from the boundary band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import EnvironmentSpec
from .errors import DomainError, NoBracket

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # 0.618...
_CAP = 64.0          # search limit for a_min and the critical parameters
_A_LO = 1e-300       # least a the a_min search reaches: a_min = beta_c / beta
_SEARCH_TOL = 1e-8   # golden-section width in ln a, a relative width in a
_ROOT_TOL = 1e-12    # bisection width of a critical parameter
_SCAN_STEPS = 4096   # grid on which a critical parameter's root is bracketed


@dataclass
class PhaseReport:
    region: str                    # R1 | R2a | R2b | R3 | Boundary | Undetermined
    alpha_min: float               # +inf sentinel allowed
    g_at_alpha_min: float
    predicted_f: float
    l2_region: bool | None
    condition_trace: list = field(default_factory=list)
    boundary_values: tuple | None = None   # adjacent formula values when Boundary
    boundary_width: float | None = None


@dataclass
class CriticalSet:
    beta_c: float
    beta_0: float
    gamma_c: float
    gamma_0: float
    gamma_0_bracket: tuple | None = None


def g_of_alpha(spec: EnvironmentSpec, b: int, a: float) -> float:
    """G(a) = (ln b + ln E|xi|^a) / a."""
    if a <= 0:
        raise DomainError("g_of_alpha requires a > 0")
    return (math.log(b) + spec.log_moment_abs(a)) / a


def alpha_min(spec: EnvironmentSpec, b: int) -> float:
    """Unique minimizer of G on [_A_LO, _CAP], found by golden-section
    search over x = ln a to width _SEARCH_TOL (one relative tolerance in a),
    or +inf if G is still strictly decreasing at the cap (slope test)."""
    if g_of_alpha(spec, b, _CAP) < g_of_alpha(spec, b, _CAP - 1e-6 * _CAP):
        return math.inf
    lnb = math.log(b)

    def g(x):   # G(e^x), by g_of_alpha's operations
        a = math.exp(x)
        return (lnb + spec.log_moment_abs(a)) / a

    lo, hi = math.log(_A_LO), math.log(_CAP)
    x1 = hi - _INV_GOLDEN * (hi - lo)
    x2 = lo + _INV_GOLDEN * (hi - lo)
    f1, f2 = g(x1), g(x2)
    while hi - lo > _SEARCH_TOL:
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_GOLDEN * (hi - lo)
            f1 = g(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_GOLDEN * (hi - lo)
            f2 = g(x2)
    return math.exp(0.5 * (lo + hi))


def l2_check(spec: EnvironmentSpec, b: int) -> bool:
    """True iff E|xi|^2 < b |E xi|^2 (the uniform-integrability condition)."""
    return spec.log_moment_abs(2.0) < math.log(b) + 2.0 * spec.log_mean_abs()


def _radius_part(spec: EnvironmentSpec, b: int) -> tuple[float, float, float, float]:
    """The part of `classify` that reads only ln E|xi|^a, a moment of the
    radius: a_min, and G at a_min (capped), at a_min clamped to [1, 2] and
    at 2."""
    amin = alpha_min(spec, b)
    return (amin, g_of_alpha(spec, b, min(amin, _CAP)),
            g_of_alpha(spec, b, min(max(amin, 1.0), 2.0)),
            g_of_alpha(spec, b, 2.0))


_REGIONS = ("R1", "R2a", "R2b", "R3", "Boundary", "Undetermined")


@np.errstate(invalid="ignore")    # -inf + inf is nan, as in Python floats
def _decide(target, independent, eps: float, radius) -> tuple:
    """The one region rule, called by `classify` and `cli.cmd_diagram`,
    elementwise over targets ln(b |E xi|) and `radius` =
    `_radius_part(spec, b)`: the region code (an index into _REGIONS),
    predicted f and the formula value beside the target at a Boundary."""
    amin, g_amin, g_clamp, g2 = radius
    above_2 = amin > 2.0 + eps
    # 1 <= a_min < 2 region: deciding inequality G(a_min) vs target
    middle = (amin < 2.0 - eps) & (g_amin > target + eps)
    # R1, R2a, R3, an R1/R3 Boundary, R2b, Undetermined; else a Boundary:
    # G(a_min) near target, a_min near 1 or 2, or every inequality in band
    code = np.select([g_clamp < target - eps, amin < 1.0 - eps,
                      above_2 & (g2 > target + eps), above_2,
                      middle & independent, middle], [0, 1, 3, 4, 2, 5], 4)
    edge = np.where(above_2, g2, g_amin)
    # f = target in R1, G(a_min) in R2 and G(2) in R3
    f = np.choose(code, [target, g_amin, g_amin, g2, 0.5 * (target + edge),
                         math.nan])
    return code, f, edge


def classify(spec: EnvironmentSpec, b: int,
             eps_boundary: float = 1e-9) -> PhaseReport:
    """Phase region and predicted free energy from the moment surface alone,
    with the trace of every condition `_decide` reads."""
    target = math.log(b) + spec.log_mean_abs()   # ln(b |E xi|)
    amin, g_amin, g_clamp, g2 = radius = _radius_part(spec, b)
    code, f, edge = _decide(target, spec.independent, eps_boundary, radius)
    boundary = (target, float(edge)) if _REGIONS[code] == "Boundary" else None
    trace = [
        {"name": "min_G_on_(1,2]_vs_ln_b_mean", "lhs": g_clamp, "rhs": target,
         "fired": g_clamp < target - eps_boundary},
        {"name": "alpha_min_vs_1", "lhs": amin, "rhs": 1.0,
         "fired": amin < 1.0 - eps_boundary},
        {"name": "alpha_min_vs_2", "lhs": amin, "rhs": 2.0,
         "fired": amin > 2.0 + eps_boundary},
        {"name": "G_at_alpha_min_vs_ln_b_mean", "lhs": g_amin, "rhs": target,
         "fired": g_amin > target + eps_boundary},
        {"name": "G2_vs_ln_b_mean", "lhs": g2, "rhs": target,
         "fired": g2 > target + eps_boundary},
        {"name": "independent_phases", "lhs": spec.independent, "rhs": True,
         "fired": spec.independent},
    ]
    return PhaseReport(
        region=_REGIONS[code], alpha_min=amin, g_at_alpha_min=g_amin,
        predicted_f=float(f), l2_region=l2_check(spec, b),
        condition_trace=trace, boundary_values=boundary,
        boundary_width=eps_boundary if boundary else None)


def _bisect(f, lo: float, hi: float) -> float:
    """Plain bracketing bisection to width _ROOT_TOL; f(lo) and f(hi) must
    differ in sign."""
    flo = f(lo)
    for _ in range(200):
        if hi - lo <= _ROOT_TOL:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _first_bracket(f, lo: float) -> tuple[float, float]:
    """Smallest bracket [x0, x1] in [lo, _CAP] where f changes sign from
    f(lo), on a grid of _SCAN_STEPS steps.

    Scans left to right, computing each grid point only when it is reached,
    so the returned bracket contains the smallest root.  Raises NoBracket if
    f keeps the sign of f(lo) on the whole grid.
    """
    neg = f(lo) < 0
    prev = lo
    for k in range(1, _SCAN_STEPS + 1):
        x = lo + (_CAP - lo) * k / _SCAN_STEPS
        fx = f(x)
        if (fx < 0) != neg or fx == 0.0:
            return prev, x
        prev = x
    raise NoBracket(f"no sign change in [{lo}, {_CAP}]")


def critical_set(spec: EnvironmentSpec, b: int) -> CriticalSet:
    """Solve the four critical-parameter equations: beta_0's root is
    beta_c / 2, the others are bracketed and bisected.

    beta_c:  x L'(x) - L(x) = ln b           with L = lambda_r
    beta_0:  2x L'(2x) - L(2x) = ln b
    gamma_c: 2 lambda_c(g) = ln b
    gamma_0: L(2 beta_0) - 2 L(beta_0) + 2 lambda_c(g) = ln b

    A parameter whose equation has no root below the cap is set to +inf.
    """
    lnb = math.log(b)

    def legendre_gap(x):
        return x * spec.lambda_r_prime(x) - spec.lambda_r(x) - lnb

    beta_c = _solve_or_inf(legendre_gap)
    beta_0 = 0.5 * beta_c

    def phase_gap(g):
        return 2.0 * spec.lambda_c(g) - lnb

    gamma_c = _solve_or_inf(phase_gap)

    gamma_0 = math.inf
    g0_bracket = None
    if math.isfinite(beta_0):
        rhs = 0.5 * (lnb - spec.lambda_r(2.0 * beta_0) + 2.0 * spec.lambda_r(beta_0))

        def mixed_gap(g):
            return spec.lambda_c(g) - rhs

        try:
            g0_bracket = _first_bracket(mixed_gap, 0.0)
            gamma_0 = _bisect(mixed_gap, *g0_bracket)
        except NoBracket:
            pass

    return CriticalSet(beta_c, beta_0, gamma_c, gamma_0, g0_bracket)


def _solve_or_inf(f) -> float:
    try:
        return _bisect(f, *_first_bracket(f, 1e-9))
    except NoBracket:
        return math.inf


def classify_indep_closed_form(spec: EnvironmentSpec, b: int,
                               crit: CriticalSet,
                               eps_boundary: float = 1e-9) -> PhaseReport:
    """Region by the explicit independent-case inequalities.

    Independent of `classify`: uses only the law's lambda_r, its derivative
    lambda_r_prime, lambda_c, their critical parameters `crit`, and the
    law's (beta_scale, gamma_scale) coordinates.  Below beta_c, versus_ln_b
    puts R1 below ln b, R2b or R3 above it and a Boundary in the band.
    """
    beta = spec.beta_scale
    lnb = math.log(b)
    lc = spec.lambda_c(spec.gamma_scale)

    def f_weak():
        return lnb + spec.lambda_r(beta) - lc

    def f_strong():
        return beta * spec.lambda_r_prime(crit.beta_c)

    def f_second():
        return 0.5 * (lnb + spec.lambda_r(2.0 * beta))

    def report(region, f, trace, boundary_values=None):
        return PhaseReport(
            region=region, alpha_min=math.nan, g_at_alpha_min=math.nan,
            predicted_f=f, l2_region=None, condition_trace=trace,
            boundary_values=boundary_values,
            boundary_width=eps_boundary if boundary_values else None)

    def versus_ln_b(name, lhs, region, f_region):
        fired = lhs < lnb - eps_boundary
        trace = [{"name": name, "lhs": lhs, "rhs": lnb, "fired": fired}]
        if fired:
            return report("R1", f_weak(), trace)
        if lhs > lnb + eps_boundary:
            return report(region, f_region(), trace)
        return report("Boundary", 0.5 * (f_weak() + f_region()),
                      trace, (f_weak(), f_region()))

    if math.isfinite(crit.beta_c) and beta > crit.beta_c + eps_boundary:
        # beta above beta_c puts the G minimizer below 1 (a_min = beta_c/beta)
        trace = [{"name": "beta_vs_beta_c", "lhs": beta, "rhs": crit.beta_c,
                  "fired": True}]
        return report("R2a", f_strong(), trace)
    if math.isfinite(crit.beta_c) and abs(beta - crit.beta_c) <= eps_boundary:
        trace = [{"name": "beta_vs_beta_c", "lhs": beta, "rhs": crit.beta_c,
                  "fired": False}]
        return report("Boundary", 0.5 * (f_weak() + f_strong()),
                      trace, (f_weak(), f_strong()))

    if math.isfinite(crit.beta_0) and beta >= crit.beta_0:
        # beta in [beta_0, beta_c): R1 vs R2b by the tilted inequality
        lhs = f_strong() - spec.lambda_r(beta) + lc
        return versus_ln_b("tilted_mean_vs_ln_b", lhs, "R2b", f_strong)
    # beta below beta_0 (or beta_0 infinite): R1 vs R3 by the L2-type inequality
    lhs = spec.lambda_r(2.0 * beta) - 2.0 * spec.lambda_r(beta) + 2.0 * lc
    return versus_ln_b("second_moment_gap_vs_ln_b", lhs, "R3", f_second)


def positive_weight_free_energy(spec: EnvironmentSpec, exponent: int, b: int) -> float:
    """Almost-sure free energy of the positive-weight polymer with weights
    |xi|^exponent: exponent * G(min(a_min, exponent)) (Derrida-Spohn), that
    is ln b + ln E|xi|^exponent in weak disorder and exponent * G(a_min)
    when a_min < exponent."""
    if exponent not in (1, 2):
        raise DomainError("exponent must be 1 or 2")
    return exponent * g_of_alpha(spec, b, min(alpha_min(spec, b), exponent))


def predicted_w_rate(spec: EnvironmentSpec, b: int) -> float:
    """Growth rate of (1/2n) ln W: the off-diagonal route damped by the
    phases against half the squared-weight route."""
    off = -spec.lambda_c(spec.gamma_scale) \
        + positive_weight_free_energy(spec, 1, b)
    diag = 0.5 * positive_weight_free_energy(spec, 2, b)
    return max(off, diag)
