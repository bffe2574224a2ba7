"""Exact evaluation of partition functionals on one sampled weight tree.

``dfs_evaluate`` computes, without storing the tree, the root values of

* Z_n        = sum over paths of the product of complex weights,
* Z_n(|xi|)  = the same sum over |xi|,
* Z_n(|xi|^2),
* T_n        = q^n Z_n(|xi|)   with q = |E e^{i theta}| (internal to W),
* W_n        = E[|Z_n|^2 | radii], via the per-node recursion
               W <- sum_x |xi_x|^2 W_x + q^2 [ (sum_x |xi_x| T_x)^2
                                               - sum_x |xi_x|^2 T_x^2 ],
               T <- q sum_x |xi_x| T_x,   leaf base W = T = 1.

The pair term uses the squared-sum identity to stay O(b) per node; the
dropped cross terms are exactly the x = x' diagonal, and W dominates that
diagonal, so the subtraction loses no relative accuracy.

Every quantity is carried as (mantissa, base-2 exponent) with exact
power-of-two rescaling, one exponent per field and generation, so depth
alone cannot overflow.  One level sweep, ``_sweep``, applies the
recursions a generation at a time, summing siblings with numpy's plain
row sum: first over each of the b^k bottom subtrees of at most
``_BLOCK_LEAVES`` leaves, in index order, then once over the top k
generations, from the block roots aligned on each field's largest
exponent.  Memory is O(b^d + b^k) for blocks of depth d and k = n - d.

The top sweep forms xi * Z from real parts, (xr zr - xi zi, xr zi + xi zr),
and scales Z by the larger of |Re Z| and |Im Z|; the bottom blocks use
numpy's complex array product and scale Z by its modulus.  The digests in
``tests/test_digests.py`` pin both choices: ln|Z_n| depends in its last
bit on how the root value is split into mantissa and exponent, and numpy's
complex array product uses fused multiply-adds where the CPU has them, so
its bits differ from the plain form's.  For the same reason Z, and those
digests, can differ in the last bits between machines whose numpy
dispatches to different loops; the radius fields (Z(|xi|), Z(|xi|^2), T
and W) take no complex product.

``brute_force_evaluate`` is the independent oracle: literal path
enumeration, with W summed over ordered path pairs damped by
q^(2*(n - meet)) where meet is the generation of the pair's deepest common
node (sites strictly after the split are damped).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .env import EnvironmentSpec
from .errors import BudgetExceeded, CoupledLaw, DomainError
from .rng import TreeStream

DEFAULT_NODE_BUDGET = 1 << 24
_BLOCK_LEAVES = 1 << 14
_LN2 = math.log(2.0)


@dataclass
class FunctionalSet:
    """Root values of the path functionals on one sampled tree.

    Plain fields overflow to inf for extreme parameters.  The ln_* fields
    are -inf where the value is 0 and None where it is absent.  ln|Z_n| and
    ln Z_n(|xi|) are finite while every radius |xi| is, but Z_n(|xi|^2),
    T_n and W_n are formed from |xi|^2 in plain float64, so their logs
    become inf or nan once some ln|xi| exceeds about 354.  arg_z is the
    angle of Z_n, well defined even when |Z_n| overflows.
    """

    n: int
    z: complex
    z_abs: float
    z_abs2: float
    t_damped: float | None
    w_cond: float | None
    ln_abs_z: float
    ln_z_abs: float
    ln_z_abs2: float
    ln_t_damped: float | None
    ln_w_cond: float | None
    arg_z: float


def _ldexp(x: np.ndarray, k: int) -> np.ndarray:
    """x * 2**k exactly, part by part for complex x."""
    if x.dtype.kind != "c":
        return np.ldexp(x, k)
    return np.ldexp(x.view(np.float64), k).view(x.dtype)


def _renorm(x: np.ndarray, e: int, size: np.ndarray) -> tuple[np.ndarray, int]:
    """Rescale x by the power of two that brings max(size) into [0.5, 1)."""
    mx = float(np.max(size))
    if mx <= 0.0 or not math.isfinite(mx):
        return x, e
    k = math.frexp(mx)[1]
    if k == 0:
        return x, e
    return _ldexp(x, -k), e + k


def _to_float(m: float, e: int) -> float:
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _ln_scaled(m: float, e: int) -> float:
    return -math.inf if m == 0.0 else math.log(m) + e * _LN2


def _group_sum(x: np.ndarray, b: int) -> np.ndarray:
    """Sum consecutive groups of b elements."""
    return x.reshape(-1, b).sum(axis=1)


def _check_budget(b: int, n: int, node_budget: int) -> None:
    if b < 2:
        raise DomainError("branching factor must be >= 2")
    if n < 0:
        raise DomainError("depth must be >= 0")
    if b ** (n + 1) > node_budget:
        raise BudgetExceeded(
            f"b^(n+1) = {b}^{n + 1} exceeds node budget {node_budget}")


def _block_depth(b: int, n: int) -> int:
    d = 0
    while d < n and b ** (d + 1) <= _BLOCK_LEAVES:
        d += 1
    return d


@np.errstate(over="ignore", invalid="ignore")
def _sweep(spec, b: int, stream: TreeStream, g0: int, i0: int, levels: int,
           m: list, e: list, q: float, include_w: bool, corrupt: bool,
           top: bool) -> tuple[list, list]:
    """Apply the per-node recursions `levels` times, from the b**levels
    generation-(g0 + levels) nodes under node (g0, i0) up to that node.

    m holds the mantissa arrays of (Z, Z(|xi|), Z(|xi|^2), T, W) over those
    nodes and e their exponents.  With top=True, xi * Z is formed from real
    parts and Z is scaled by its larger part (see the module docstring).
    m is emptied, so the widest arrays are freed after the first level.
    Overflow stays in the values (see FunctionalSet), unwarned by numpy."""
    z, za, a2, t, w = m
    m.clear()
    ez, ea, ea2, et, ew = e
    for j in range(levels, 0, -1):
        count = b**j
        raw = stream.node_block(b, g0 + j, i0 * count, count)
        r, xi = spec.radius_weight_from_raw(raw)
        r2 = r * r
        if top:
            xz = np.empty_like(z)
            xz.real = xi.real * z.real - xi.imag * z.imag
            xz.imag = xi.real * z.imag + xi.imag * z.real
        else:
            xz = xi * z
        z = _group_sum(xz, b)
        za = _group_sum(r * za, b)
        a2 = _group_sum(r2 * a2, b)
        if include_w:
            rt = r * t
            s1 = _group_sum(rt, b)
            s2 = _group_sum(rt * rt, b)
            diag = _group_sum(r2 * w, b)
            pair = (q * q) * np.maximum(s1 * s1 - s2, 0.0)
            if corrupt:
                pair = pair * 1.001
            e_new = max(ew, 2 * et)
            w = diag * math.ldexp(1.0, ew - e_new) \
                + pair * math.ldexp(1.0, 2 * et - e_new)
            ew = e_new
            t = q * s1
            t, et = _renorm(t, et, t)
            w, ew = _renorm(w, ew, w)
        z, ez = _renorm(z, ez, np.abs(z.view(np.float64)) if top else np.abs(z))
        za, ea = _renorm(za, ea, za)
        a2, ea2 = _renorm(a2, ea2, a2)
    return [z, za, a2, t, w], [ez, ea, ea2, et, ew]


def dfs_evaluate(spec: EnvironmentSpec, b: int, n: int, stream: TreeStream,
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 include_w: bool = True,
                 _corrupt_w_pair: bool = False) -> FunctionalSet:
    """All root functionals of the depth-n tree: level sweeps over the
    bottom blocks, then one over the block roots."""
    _check_budget(b, n, node_budget)
    if include_w and not spec.independent:
        raise CoupledLaw("W requires independent radius/phase")
    q = spec.phase_damping() if include_w else 0.0
    d = _block_depth(b, n)
    k = n - d
    leaves = b**d
    tw = leaves if include_w else 1   # without W, T and W stay one 1 per block
    roots = [_sweep(spec, b, stream, k, i, d,
                    [np.ones(leaves, dtype=np.complex128), np.ones(leaves),
                     np.ones(leaves), np.ones(tw), np.ones(tw)], [0] * 5,
                    q, include_w, _corrupt_w_pair, top=False)
             for i in range(b**k)]
    m, e = roots[0]
    if k:
        e = np.max([root_e for _, root_e in roots], axis=0).tolist()
        m = [np.concatenate([_ldexp(root_m[f], root_e[f] - e[f])
                             for root_m, root_e in roots]) for f in range(5)]
        m, e = _sweep(spec, b, stream, 0, 0, k, m, e, q, include_w,
                      _corrupt_w_pair, top=True)
    return _finish([complex(m[0][0])] + [float(v[0]) for v in m[1:]], e, n,
                   include_w)


def _finish(m: list, e: list, n: int, include_w: bool) -> FunctionalSet:
    z, za, a2, t, w = m
    ez, ea, ea2, et, ew = e
    return FunctionalSet(
        n=n,
        z=complex(_to_float(z.real, ez), _to_float(z.imag, ez)),
        z_abs=_to_float(za, ea),
        z_abs2=_to_float(a2, ea2),
        t_damped=_to_float(t, et) if include_w else None,
        w_cond=_to_float(w, ew) if include_w else None,
        ln_abs_z=_ln_scaled(abs(z), ez),
        ln_z_abs=_ln_scaled(za, ea),
        ln_z_abs2=_ln_scaled(a2, ea2),
        ln_t_damped=_ln_scaled(t, et) if include_w else None,
        ln_w_cond=_ln_scaled(w, ew) if include_w else None,
        arg_z=cmath.phase(z),
    )


def brute_force_evaluate(spec: EnvironmentSpec, b: int, n: int,
                         stream: TreeStream,
                         include_w: bool = True) -> FunctionalSet:
    """Literal path/pair enumeration oracle; shares no combine code with
    dfs_evaluate."""
    if n > 8 or b > 3:
        raise BudgetExceeded("brute force limited to n <= 8, b <= 3")
    if n < 0 or b < 2:
        raise DomainError("need n >= 0 and b >= 2")
    if include_w and not spec.independent:
        raise CoupledLaw("W requires independent radius/phase")
    q = spec.phase_damping() if include_w else 0.0

    leaves = b**n
    path_c = np.ones(leaves, dtype=np.complex128)
    path_r = np.ones(leaves)
    for g in range(1, n + 1):
        raw = stream.node_block(b, g, 0, b**g)
        r, xi = spec.radius_weight_from_raw(raw)
        rep = b ** (n - g)
        path_c = path_c * np.repeat(xi, rep)
        path_r = path_r * np.repeat(r, rep)

    z = complex(path_c.sum())
    za = float(path_r.sum())
    a2 = float((path_r * path_r).sum())

    t = w = None
    if include_w:
        t = q**n * za
        idx = np.arange(leaves)
        w = 0.0
        chunk = max(1, (1 << 22) // max(leaves, 1))
        for c0 in range(0, leaves, chunk):
            rows = idx[c0:c0 + chunk]
            meet = np.zeros((rows.size, leaves), dtype=np.int16)
            for g in range(1, n + 1):
                div = b ** (n - g)
                meet += rows[:, None] // div == idx[None, :] // div
            damp = np.power(q, 2.0 * (n - meet))
            w += float(path_r[rows] @ (damp @ path_r))

    def _ln(v):
        return -math.inf if v == 0.0 else math.log(v)

    return FunctionalSet(
        n=n, z=z, z_abs=za, z_abs2=a2, t_damped=t, w_cond=w,
        ln_abs_z=_ln(abs(z)), ln_z_abs=_ln(za), ln_z_abs2=_ln(a2),
        ln_t_damped=_ln(t) if t is not None else None,
        ln_w_cond=_ln(w) if w is not None else None,
        arg_z=cmath.phase(z),
    )


@dataclass
class SecondMomentReport:
    value: float
    ln_value: float
    growth: str        # mean_squared | critical | diagonal
    growth_rate: float  # asymptotic (1/n) ln E|Z_n|^2


def closed_form_second_moment(spec: EnvironmentSpec, b: int, n: int) -> SecondMomentReport:
    """Exact E|Z_n|^2 = b^n (b|m1|^2)^n + sigma^2 b^n m2^(n-1) sum_j x^j,
    with x = b|m1|^2 / m2, plus the growth-rate trichotomy label."""
    if n < 1:
        raise DomainError("closed form needs n >= 1")
    lnb = math.log(b)
    ln_m2 = spec.log_moment_abs(2.0)
    ln_m1 = spec.log_mean_abs()
    sigma2 = max(spec.sigma2(), 0.0)
    ln_a = lnb + 2.0 * ln_m1            # ln(b |m1|^2)
    term1 = n * lnb + n * ln_a
    if sigma2 == 0.0:
        term2 = -math.inf
    else:
        ln_x = ln_a - ln_m2
        term2 = (math.log(sigma2) + n * lnb + (n - 1) * ln_m2
                 + _ln_geom_sum(ln_x, n))
    ln_value = _logaddexp(term1, term2)
    value = math.exp(ln_value) if ln_value < 709.0 else math.inf
    gap = ln_a - ln_m2                   # sign of b|m1|^2 - m2
    if gap > 1e-12:
        growth, rate = "mean_squared", 2.0 * (lnb + ln_m1)
    elif gap < -1e-12:
        growth, rate = "diagonal", lnb + ln_m2
    else:
        growth, rate = "critical", lnb + ln_m2
    return SecondMomentReport(value, ln_value, growth, rate)


def _ln_geom_sum(ln_x: float, n: int) -> float:
    """ln sum_{j=0}^{n-1} x^j for x = e^ln_x >= 0."""
    if ln_x == -math.inf:
        return 0.0                      # only the j = 0 term
    if abs(ln_x) < 1e-14:
        return math.log(n)
    x = math.exp(ln_x)
    if ln_x < 0:
        return math.log1p(-x**n) - math.log1p(-x)
    return (n - 1) * ln_x + math.log1p(-x**-n) - math.log1p(-1.0 / x)


def _logaddexp(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


@dataclass
class OneStepReport:
    resamples: int
    mean_residual: float     # |empirical E[Z_{n+1}|F_n] - b m1 Z_n| / SE (or abs diff when SE = 0)
    second_residual: float   # same for E[|Z_{n+1}|^2|F_n]
    mean_se: float
    second_se: float


def one_step_identity_check(spec: EnvironmentSpec, b: int, n: int,
                            stream: TreeStream, resamples: int = 10000,
                            node_budget: int = DEFAULT_NODE_BUDGET) -> OneStepReport:
    """Freeze a depth-n tree, resample generation n+1 `resamples` times, and
    compare the empirical conditional mean of Z_{n+1} with b m1 Z_n and the
    conditional second moment with b^2|m1|^2 |Z_n|^2 + b sigma^2 Z_n(|xi|^2)."""
    if n < 1:
        raise DomainError("need n >= 1")
    _check_budget(b, n + 1, node_budget)
    leaves = b**n
    if leaves * 16 > node_budget * 8:
        raise BudgetExceeded("path table for the frozen tree exceeds budget")

    path_c = np.ones(leaves, dtype=np.complex128)
    for g in range(1, n + 1):
        raw = stream.node_block(b, g, 0, b**g)
        _, xi = spec.radius_weight_from_raw(raw)
        path_c = path_c * np.repeat(xi, b ** (n - g))
    z_n = complex(path_c.sum())
    fs = dfs_evaluate(spec, b, n, stream, node_budget=node_budget,
                      include_w=False)
    za2 = fs.z_abs2

    z_next = np.empty(resamples, dtype=np.complex128)
    for rix in range(resamples):
        sub = TreeStream(stream.seed, stream.replica + 1 + rix)
        raw = sub.node_block(b, n + 1, 0, b ** (n + 1))
        _, xi = spec.radius_weight_from_raw(raw)
        z_next[rix] = path_c @ xi.reshape(leaves, b).sum(axis=1)

    m1 = spec.mean_xi()
    sigma2 = max(spec.sigma2(), 0.0)
    target1 = b * m1 * z_n
    mean1 = complex(z_next.mean())
    se1 = math.sqrt((np.var(z_next.real) + np.var(z_next.imag)) / resamples)
    diff1 = abs(mean1 - target1)
    resid1 = diff1 if se1 == 0.0 else diff1 / se1

    v = np.abs(z_next) ** 2
    target2 = b * b * abs(m1) ** 2 * abs(z_n) ** 2 + b * sigma2 * za2
    mean2 = float(v.mean())
    se2 = float(np.std(v) / math.sqrt(resamples))
    diff2 = abs(mean2 - target2)
    resid2 = diff2 if se2 == 0.0 else diff2 / se2

    return OneStepReport(resamples, resid1, resid2, se1, se2)


def trace_depths(spec: EnvironmentSpec, b: int, n: int, stream: TreeStream,
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 include_w: bool = True) -> list[dict]:
    """Per-depth normalized logs for convergence traces: rows of
    (n', ln|z|/n', ln z_abs/n', ln z_abs2/n', ln w/(2n')).  A value that is
    nan or +inf, from float64 overflow, is refused; -inf (a sum that is
    exactly 0) is kept."""
    rows = []
    for depth in range(1, n + 1):
        fs = dfs_evaluate(spec, b, depth, stream, node_budget=node_budget,
                          include_w=include_w)
        row = {
            "n": depth,
            "ln_abs_z_over_n": fs.ln_abs_z / depth,
            "ln_z_abs_over_n": fs.ln_z_abs / depth,
            "ln_z_abs2_over_n": fs.ln_z_abs2 / depth,
            "ln_w_over_2n": (fs.ln_w_cond / (2.0 * depth))
                            if fs.ln_w_cond is not None else None,
        }
        for col, v in row.items():
            if v is not None and not v < math.inf:
                raise DomainError(f"trace {col} is {v} at depth {depth}: "
                                  "float64 overflow")
        rows.append(row)
    return rows
