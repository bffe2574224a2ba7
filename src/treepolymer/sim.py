"""Exact evaluation of partition functionals on one sampled weight tree.

``dfs_evaluate`` computes, without storing the tree, the root values of

* Z_n        = sum over paths of the product of complex weights,
* Z_n(|xi|)  = the same sum over |xi|,
* Z_n(|xi|^2),
* W_n        = E[|Z_n|^2 | radii], via the per-node recursion
               W <- sum_x |xi_x|^2 W_x + q^(2h+2) [ (sum_x |xi_x| A_x)^2
                                                    - sum_x (|xi_x| A_x)^2 ]
               over the children x, of height h, with A = Z(|xi|),
               q = |E e^{i theta}| and leaf base W = 1,
* T_n        = q^n Z_n(|xi|).

A node of height h has damped sum T = q^h Z(|xi|), so the pair term
q^2 [(sum_x |xi_x| T_x)^2 - sum_x (|xi_x| T_x)^2] is the one above, built
from the products |xi_x| A_x of Z(|xi|)'s update: no T is carried, only
the scalar q^h.  The squared-sum identity keeps the pair term O(b) per
node; the dropped cross terms are exactly the x = x' diagonal, and W
dominates that diagonal, so the subtraction loses no relative accuracy.

Every quantity, and each generation's radii, is carried as (mantissa,
base-2 exponent) with exact power-of-two rescaling, one exponent per field
and generation, so neither depth nor squared radii overflow.  One level
sweep, ``_sweep``, applies the recursions a generation at a time, summing
siblings left to right with strided adds (``_group_sum``, shared with the
many-tree ``_column_z``; at b <= 3 its bits are numpy's row sum's, except
that negative zeros sum to -0.0, not +0.0): first over each of the b^k
bottom subtrees of at most ``_BLOCK_LEAVES`` leaves, in index order, then
once over the top k generations, from the block roots aligned on each
field's largest exponent.  Each sweep transforms its widest generation's
draws in one call per law and all the generations above it in a second, so
a tree within one block makes at most two Philox and two transform calls
per law.

A sweep has a cell axis: ``_evaluate_cells`` walks a tree of at most
_BLOCK_LEAVES / 2 leaves once for a block of up to _BLOCK_LEAVES // b^n
laws, such as a diagram's cells, one column per law; ``mc``'s replica map
walks a larger tree law by law.  Each law transforms the words into its
own contiguous row of cell-major fields, so exp, cos and sin run numpy's
contiguous loops, and the recursions read the rows as (nodes, laws)
columns.
Exponents are per field, generation and column: Python ints for one law,
so a lone tree's bookkeeping stays scalar-cheap, and (1, C) arrays for C
laws.  A column runs its law's float operations in their order alone, so
it keeps its bits and depends on no other column.

Memory is O(C (b^d + b^k)) for C laws and blocks of depth d and
k = n - d, in one workspace per thread (``_Workspace``, held in a
``threading.local`` as ``rng`` holds its Philox generator) that lives as
long as its thread.  It has one array per role (draw words, radii and
weights, the transforms' work rows, each field over a sweep's generations,
a level's products and parent-wide sums, ``_column_z``'s columns and one
array per nesting depth), grown to the largest size the role has needed
and used through slices: 2.9 MiB for the level sweep of a depth-20 tree
with W at b = 2, 10.5 MiB for 10^4 batch replicas at n = 9.  Every level
forms its products, sibling sums and rescalings in place, and the
transforms write into the workspace, so a warm evaluation allocates only
Philox output and the root values, which it copies out as Python numbers;
``_column_z`` returns its columns' Z_n in a new array.

Every sweep forms xi * Z with numpy's complex array product and scales Z by
its modulus, so the block size moves no bit of Z while no value turns
subnormal.  numpy's complex product uses fused multiply-adds where the CPU
has them, so Z, and the digests in ``tests/test_digests.py`` that pin it,
can differ in the last bits between machines whose numpy dispatches to
different loops; the radius fields (Z(|xi|), Z(|xi|^2), W and T) take no
complex product.

``brute_force_evaluate`` is the independent oracle: literal path
enumeration, with W summed over ordered path pairs damped by
q^(2*(n - meet)) where meet is the generation of the pair's deepest common
node (sites strictly after the split are damped).
"""

from __future__ import annotations

import cmath
import math
import threading
from dataclasses import dataclass

import numpy as np

from .env import _WORK, EnvironmentSpec
from .errors import BudgetExceeded, CoupledLaw, DomainError
from .rng import BatchStream, TreeStream, node_offset

DEFAULT_NODE_BUDGET = 1 << 24
_SLAB_DRAWS = 1 << 14     # node draws per transform call in the batch paths
_PASS_VALUES = 1 << 19    # complex values per _column_z subtree
_BLOCK_LEAVES = 1 << 14
_LN2 = math.log(2.0)
_R_TOP = 480    # a sweep scales each generation's radii to below 2^_R_TOP
_LOSS_SLACK = 1e-9   # roundoff allowed in the root bounds' logs (see _finish)


@dataclass
class FunctionalSet:
    """Root values of the path functionals on one sampled tree.

    Plain fields overflow to inf for extreme parameters.  The ln_* fields
    are -inf where the value is 0 and None where it is absent; they do not
    overflow while every radius |xi| is finite (see _R_TOP).  One exponent
    per field and generation cannot hold nodes that differ by more than
    about 2^2000: the smaller ones underflow and are lost.  Z_n(|xi|^2) and
    W_n, which span the most, are nan where _sweep or _finish finds such a
    loss; Z_n and Z_n(|xi|) are not checked.  arg_z is the angle of Z_n,
    well defined even when |Z_n| overflows.  t_damped = q^n Z_n(|xi|) is
    formed once, in _finish, so ln_t_damped stays finite where q^n
    underflows.  Z_n's bits do not depend on whether W is computed.
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


class _Workspace(dict):
    """One thread's work arrays by role, each grown to the largest size its
    role has needed and handed out as a leading slice, shaped (rows, size)
    if rows are given.  A role has one use live at a time."""

    def take(self, role: str, size: int, dtype=np.float64,
             rows: int | None = None) -> np.ndarray:
        a = self.get(role)
        if a is None or len(a) < (rows or 1) * size:
            a = self[role] = np.empty((rows or 1) * size, dtype=dtype)
        return a[:size] if rows is None else a[:rows * size].reshape(rows, size)


_local = threading.local()


def _workspace() -> _Workspace:
    """This thread's workspace, made on its first use."""
    ws = getattr(_local, "workspace", None)
    if ws is None:
        ws = _local.workspace = _Workspace()
    return ws


def _draw(ws: _Workspace, spec, raw: np.ndarray,
          xi: np.ndarray | None = None):
    """(|xi|, xi) of the words raw, transformed in the workspace ws; xi goes
    into the given array, if any.  For a list of laws, each law transforms
    the words into its own contiguous row, read through (words, laws)
    views."""
    n = len(raw)
    work = ws.take("work", _WORK * n).reshape(_WORK, n)
    if isinstance(spec, list):
        r, xi = ws.take("r", n, rows=len(spec)), ws.take(
            "xi", n, np.complex128, len(spec))
        for law, r_row, xi_row in zip(spec, r, xi):
            law.radius_weight_from_raw(raw, out=(r_row, xi_row, work))
        return r.T, xi.T
    if xi is None:
        xi = ws.take("xi", n, np.complex128)
    return spec.radius_weight_from_raw(raw, out=(ws.take("r", n), xi, work))


def _renorm(x: np.ndarray, e, size: np.ndarray, top: int = 0):
    """Rescale each column of x in place by the power of two that brings the
    max of size's column into [2^(top-1), 2^top); return the new exponents
    e: an int for a 1-D x, a (1, C) array for a (nodes, C) x."""
    if x.ndim == 1:
        mx = float(np.maximum.reduce(size))
        if mx <= 0.0 or not math.isfinite(mx):
            return e
        k = math.frexp(mx)[1] - top
        if k:
            v = x.view(np.float64) if x.dtype.kind == "c" else x
            np.ldexp(v, -k, out=v)   # part by part for complex x: exact
        return e + k
    mx = np.maximum.reduce(size, axis=0, keepdims=True)
    k = np.where((mx > 0.0) & (mx < math.inf), np.frexp(mx)[1] - top, 0)
    for v in (x.real, x.imag) if x.dtype.kind == "c" else (x,):
        np.ldexp(v, -k, out=v)
    return e + k


def _to_float(m: float, e: int) -> float:
    try:
        return math.ldexp(m, e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _ln_scaled(m: float, e: int) -> float:
    return -math.inf if m == 0.0 else math.log(m) + e * _LN2


def _group_sum(x: np.ndarray, b: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Sum consecutive groups of b entries along axis 0, left to right,
    into out if given: x[0::b] + x[1::b] + ... + x[b-1::b]."""
    s = np.add(x[0::b], x[1::b], out=out)
    for j in range(2, b):
        s += x[j::b]
    return s


def _check_budget(b: int, n: int, node_budget: int) -> None:
    """The per-tree refusal of every walker: b >= 2, n >= 0, then budget."""
    if b < 2:
        raise DomainError("branching factor must be >= 2")
    if n < 0:
        raise DomainError("depth must be >= 0")
    if b ** (n + 1) > node_budget:
        raise BudgetExceeded(
            f"b^(n+1) = {b}^{n + 1} exceeds per-tree budget {node_budget}")


@np.errstate(over="ignore", invalid="ignore")
def _sweep(spec, b: int, stream: TreeStream, g0: int, i0: int,
           levels: int, m: list, e: list, t: tuple, q, include_w: bool,
           corrupt: bool) -> tuple[list, list, tuple]:
    """Apply the per-node recursions `levels` times, from the b**levels
    generation-(g0 + levels) nodes under node (g0, i0) up to that node.

    m holds the values of (Z, Z(|xi|), Z(|xi|^2), W) over those nodes, as
    numbers or sequences, and e their exponents; t is (mantissa, exponent)
    of q^h for their height h, advanced only with W.  For one law spec
    they are Python numbers, as are the root values returned.  For a list
    of C laws, q is a (1, C) array of their dampings, e and t turn into
    (1, C) arrays as the levels rescale them, and each root value is a
    list over the laws.  Generation j (0 at node (g0, i0)) of a field lies
    at [node_offset(b, j), node_offset(b, j + 1)) of its workspace array.
    The widest generation is drawn and transformed alone; after its level,
    every generation above it in one transform call per law, from one
    counter range when node (g0, i0) is the root.
    The largest radius goes to [2^479, 2^480), so b-fold sums of squares
    stay finite; an infinite radius's overflow stays, unwarned by numpy.
    A scale-down that squares a positive radius below the normal range
    loses terms of the r^2-weighted sums, which are then refused as nan."""
    ws = _workspace()
    rows = len(spec) if isinstance(spec, list) else None
    size, hi = node_offset(b, levels + 1), node_offset(b, levels)
    z = ws.take("z", size, np.complex128, rows).T
    za, a2, w = (ws.take(role, size, rows=rows).T
                 for role in ("za", "a2", "w"))
    products = ws.take("products", b**levels, rows=rows).T  # r * Z(|xi|)
    parents = ws.take("parents", b**levels // b, rows=rows).T
    fields = (z[hi:], za[hi:], a2[hi:], w[hi:])      # the widest generation
    for f, v in zip(fields, m):
        f[:] = v
    ez, ea, ea2, ew = e
    tm, et = t
    vmax, frexp, ldexp, anyof = ((max, math.frexp, math.ldexp, bool)
                                 if rows is None else
                                 (np.maximum, np.frexp, np.ldexp, np.any))
    for j in range(levels, 0, -1):
        width = b**j
        if j == levels:
            r, xi = _draw(ws, spec, stream.node_block(
                b, g0 + j, i0 * width, width))
        else:
            if j == levels - 1:
                count = node_offset(b, levels) - 1
                if g0 == 0:
                    raw = stream.node_block(b, 1, 0, count)
                else:
                    raw = ws.take("raw", 4 * count,
                                  np.uint64).reshape(count, 4)
                    for g in range(1, levels):
                        lo = node_offset(b, g) - 1
                        raw[lo:lo + b**g] = stream.node_block(
                            b, g0 + g, i0 * b**g, b**g)
                r_up, xi_up = _draw(ws, spec, raw)
            lo = node_offset(b, j) - 1   # generation g0 + j's first draw
            r, xi = r_up[lo:lo + width], xi_up[lo:lo + width]
        z1, za1, a21, w1 = fields
        lo = node_offset(b, j - 1)       # the parents' values at [lo, hi)
        fields = z0, za0, a20, w0 = z[lo:hi], za[lo:hi], a2[lo:hi], w[lo:hi]
        hi = lo
        k = _renorm(r, 0, r, _R_TOP)
        if anyof(k > 0):
            lost = (k > 0) & (np.min(r, axis=0, where=r > 0, initial=1.0,
                                     keepdims=True) < 2.0**-511)
            np.copyto(a21, np.nan, where=lost)
            np.copyto(w1, np.nan, where=lost)
        ea, ea2, ew = ea + k, ea2 + 2 * k, ew + 2 * k
        rza = np.multiply(r, za1, out=products[:width])
        np.multiply(r, r, out=r)     # r^2 from here on
        _group_sum(np.multiply(xi, z1, out=xi), b, z0)
        _group_sum(rza, b, za0)
        if include_w:
            s2 = _group_sum(np.multiply(rza, rza, out=rza), b,
                            parents[:width // b])
        _group_sum(np.multiply(r, a21, out=a21), b, a20)
        if include_w:
            tm, dt = frexp(q * tm)
            et = et + dt
            _group_sum(np.multiply(r, w1, out=w1), b, w0)   # the diagonal
            pair = np.multiply(za0, za0, out=rza[:width // b])
            pair -= s2
            np.maximum(pair, 0.0, out=pair)
            pair *= tm * tm
            if corrupt:
                pair *= 1.001
            ep = 2 * (ea + et)
            e_new = vmax(ew, ep)
            w0 *= ldexp(1.0, ew - e_new)
            pair *= ldexp(1.0, ep - e_new)
            w0 += pair
            ew = _renorm(w0, e_new, w0)
        ez = _renorm(z0, ez, np.abs(z0, out=parents[:width // b]))
        ea = _renorm(za0, ea, za0)
        ea2 = _renorm(a20, ea2, a20)
    if not include_w:
        w[0] = 1.0       # as at a leaf
    return [f[0].tolist() for f in (z, za, a2, w)], [ez, ea, ea2, ew], (tm, et)


def _scaled(x, k: int):
    """x * 2**k exactly, part by part for complex x."""
    if isinstance(x, complex):
        return complex(math.ldexp(x.real, k), math.ldexp(x.imag, k))
    return math.ldexp(x, k)


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
    d = 0                                   # the bottom blocks' depth
    while d < n and b ** (d + 1) <= _BLOCK_LEAVES:
        d += 1
    k = n - d
    roots = [_sweep(spec, b, stream, k, i, d, [1.0] * 4, [0] * 4, (1.0, 0),
                    q, include_w, _corrupt_w_pair) for i in range(b**k)]
    m, e, t = roots[0]
    if k:
        e = [max(root_e[f] for _, root_e, _ in roots) for f in range(4)]
        m = [[_scaled(root_m[f], root_e[f] - e[f])
              for root_m, root_e, _ in roots] for f in range(4)]
        m, e, t = _sweep(spec, b, stream, 0, 0, k, m, e, t, q, include_w,
                         _corrupt_w_pair)
    return _finish(m, e, t, n, b, include_w)


def _evaluate_cells(specs: list, b: int, n: int, stream: TreeStream,
                    include_w: bool = True) -> list[FunctionalSet]:
    """dfs_evaluate, without its refusals, of one tree of at most
    _BLOCK_LEAVES / 2 leaves for each law of specs, with the bits each gets
    alone: one sweep for up to _BLOCK_LEAVES // b**n laws, a column each."""
    per = _BLOCK_LEAVES // b**n
    out = []
    for c0 in range(0, len(specs), per):
        laws = specs[c0:c0 + per]
        q = np.array([[spec.phase_damping() if include_w else 0.0
                       for spec in laws]])
        m, e, t = _sweep(laws, b, stream, 0, 0, n, [1.0] * 4, [0] * 4,
                         (1.0, 0), q, include_w, False)
        e, t = ([np.broadcast_to(x, q.shape)[0].tolist() for x in xs]
                for xs in (e, t))
        out += [_finish(*cell, n, b, include_w)
                for cell in zip(zip(*m), zip(*e), zip(*t))]
    return out


def _finish(m, e, t, n: int, b: int, include_w: bool) -> FunctionalSet:
    """The root values from the root's (Z, Z(|xi|), Z(|xi|^2), W) mantissas
    m, exponents e and q^n as (mantissa, exponent) t: T_n = q^n Z_n(|xi|)
    is formed here, and W_n and Z_n(|xi|^2) are nan where an exact root
    bound shows that underflow lost part of them (see FunctionalSet)."""
    z, za, a2, w = m
    ez, ea, ea2, ew = e
    t, et = t[0] * za, t[1] + ea
    # Underflow mostly shrinks a value: terms flushed to 0 are lost, though
    # a subnormal may round up.  A W below Z(|xi|^2) or T^2 lost terms that
    # its diagonal shares with Z(|xi|^2), so both go; b^n Z(|xi|^2) >=
    # Z(|xi|)^2 (Cauchy-Schwarz) checks Z(|xi|^2) alone.
    ln_a2 = _ln_scaled(a2, ea2)
    if include_w and _ln_scaled(w, ew) + _LOSS_SLACK \
            < max(ln_a2, 2 * _ln_scaled(t, et)):
        a2 = w = math.nan
    if ln_a2 + _LOSS_SLACK < 2 * _ln_scaled(za, ea) - n * math.log(b):
        a2 = math.nan
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
    if n > 8 or b**n > 3**8:
        raise BudgetExceeded("brute force limited to n <= 8, b^n <= 3^8")
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


def closed_form_second_moment(spec: EnvironmentSpec, b: int, n: int) -> SecondMomentReport:
    """Exact E|Z_n|^2 = b^n (b|m1|^2)^n + sigma^2 b^n m2^(n-1) sum_j x^j,
    x = b|m1|^2 / m2, from np.logaddexp of the terms' logs, sigma^2 = m2 (1 -
    |m1|^2 / m2) taken in log space: ln_value is finite where m2 overflows."""
    if n < 1:
        raise DomainError("closed form needs n >= 1")
    lnb = math.log(b)
    ln_m2 = spec.log_moment_abs(2.0)
    ln_m1 = spec.log_mean_abs()
    ln_a = lnb + 2.0 * ln_m1            # ln(b |m1|^2)
    term1 = n * lnb + n * ln_a
    spread = -math.expm1(2.0 * ln_m1 - ln_m2)      # sigma^2 / m2
    if spread <= 0.0:
        term2 = -math.inf
    else:
        ln_x = ln_a - ln_m2
        term2 = (math.log(spread) + n * lnb + n * ln_m2
                 + _ln_geom_sum(ln_x, n))
    ln_value = float(np.logaddexp(term1, term2))
    value = math.exp(ln_value) if ln_value < 709.0 else math.inf
    return SecondMomentReport(value, ln_value)


def _ln_geom_sum(ln_x: float, n: int) -> float:
    """ln sum_{j=0}^{n-1} x^j for x = e^ln_x >= 0."""
    if abs(ln_x) < 1e-14:
        return math.log(n)
    x = math.exp(ln_x)
    if ln_x < 0:
        return math.log1p(-x**n) - math.log1p(-x)
    return (n - 1) * ln_x + math.log1p(-x**-n) - math.log1p(-1.0 / x)


def _column_z(b: int, n: int, count: int, weights) -> np.ndarray:
    """Z_n of count trees (one_step_identity_check's, mc.batch_z_values' and
    mc.ratio4's), one per column, in a new array.  The columns are walked in
    passes of up to _PASS_VALUES // b, a pass of cnt columns over node-major
    (nodes, cnt) arrays as nested bottom subtrees of the largest depth s
    with b^s * cnt <= _PASS_VALUES.  weights(g, i0, c0, out) fills out, the
    workspace's (k, cnt) slice for nodes i0 .. i0+k-1 of generation g in
    columns c0 .. c0+cnt-1, asked for once per node and pass.  Nothing is
    rescaled, so a column's Z_n does not depend on the other columns."""
    if b > _PASS_VALUES:
        raise BudgetExceeded(f"b = {b} exceeds {_PASS_VALUES} values per pass")
    ws = _workspace()
    z = np.empty(count, dtype=np.complex128)

    def subtree(g: int, i: int, d: int, depth: int) -> np.ndarray:
        """Z at node (g, i) over its depth-d subtree, shape (cnt,): t levels
        over the b^t subtrees of depth d - t, a multiple of s, whose values
        fill the rows of this nesting depth's array."""
        t = min(d, (d - 1) % s + 1)
        rows = 1 if t == d else b**t       # level t's input rows
        v = ws.take(f"v{depth}", max(rows, b**t // b) * cnt,
                    np.complex128).reshape(-1, cnt)
        if t == d:
            v[0] = 1.0
        else:
            for c in range(rows):
                v[c] = subtree(g + t, i * b**t + c, d - t, depth + 1)
        for j in range(t, 0, -1):
            xi = ws.take("cols", b**j * cnt, np.complex128).reshape(b**j, cnt)
            weights(g + j, i * b**j, c0, xi)
            xi *= v[:rows]
            rows = b**(j - 1)
            _group_sum(xi, b, v[:rows])
        return v[0]

    for c0 in range(0, count, _PASS_VALUES // b):
        cnt = min(_PASS_VALUES // b, count - c0)
        s = max(j for j in range(1, n + 2) if b**j * cnt <= _PASS_VALUES)
        z[c0:c0 + cnt] = subtree(0, 0, n, 0)
    return z


def _batch_weights(spec, seed: int, b: int, r0: int):
    """_column_z weights of BatchStream(seed) replica r0 + c in column c,
    one draw call per node and pass and one transform call per _SLAB_DRAWS
    draws."""
    bs = BatchStream(seed)

    def weights(g: int, i0: int, c0: int, out: np.ndarray) -> None:
        ws = _workspace()
        k, cnt = out.shape
        per = max(1, _SLAB_DRAWS // cnt)
        for j0 in range(0, k, per):
            m = min(per, k - j0)
            raw = ws.take("raw", 4 * m * cnt, np.uint64).reshape(m, cnt, 4)
            for j in range(m):
                raw[j] = bs.node_block(b, g, i0 + j0 + j, r0 + c0, cnt)
            _draw(ws, spec, raw.reshape(m * cnt, 4),
                  out[j0:j0 + m].reshape(-1))

    return weights


def _zscore(diff: float, se: float, target) -> float:
    """diff / se, where a gap of at most 1e-12 * |target|, the roundoff of
    a closed form, scores 0, and with no spread (se = 0) any larger gap
    scores inf.  A sample without spread can carry an se of roundoff size,
    so the gap is judged first."""
    if diff <= 1e-12 * abs(target):
        return 0.0
    return math.inf if se == 0.0 else diff / se


@dataclass
class OneStepReport:
    mean_residual: float     # _zscore of |empirical E[Z_{n+1}|F_n] - b m1 Z_n|
    second_residual: float   # same for E[|Z_{n+1}|^2|F_n]
    mean_se: float
    second_se: float


def one_step_identity_check(spec: EnvironmentSpec, b: int, n: int,
                            stream: TreeStream, resamples: int = 10000,
                            node_budget: int = DEFAULT_NODE_BUDGET) -> OneStepReport:
    """Freeze a depth-n tree, resample generation n+1 `resamples` times, and
    compare the empirical conditional mean of Z_{n+1} with b m1 Z_n and the
    conditional second moment with b^2|m1|^2 |Z_n|^2 + b sigma^2 Z_n(|xi|^2).
    Resample s is batch-stream replica ((replica + 1) << 32) + s of the
    tree's seed; one _column_z walk takes them all, the frozen weights
    repeated across its columns."""
    if n < 1:
        raise DomainError("need n >= 1")
    if resamples < 2:
        raise DomainError("need at least 2 resamples")
    _check_budget(b, n + 1, node_budget)
    fs = dfs_evaluate(spec, b, n, stream, node_budget=node_budget,
                      include_w=False)
    fresh = _batch_weights(spec, stream.seed, b, (stream.replica + 1) << 32)

    def weights(g: int, i0: int, c0: int, out: np.ndarray) -> None:
        if g > n:
            fresh(g, i0, c0, out)
        else:
            xi = _draw(_workspace(), spec,
                       stream.node_block(b, g, i0, len(out)))[1]
            out[...] = xi[:, None]

    z_next = _column_z(b, n + 1, resamples, weights)

    m1 = spec.mean_xi()
    sigma2 = max(spec.sigma2(), 0.0)
    target1 = b * m1 * fs.z
    mean1 = complex(z_next.mean())
    se1 = math.sqrt((np.var(z_next.real) + np.var(z_next.imag)) / resamples)
    resid1 = _zscore(abs(mean1 - target1), se1, target1)

    v = np.abs(z_next) ** 2
    target2 = b * b * abs(m1) ** 2 * abs(fs.z) ** 2 + b * sigma2 * fs.z_abs2
    mean2 = float(v.mean())
    se2 = float(np.std(v) / math.sqrt(resamples))
    resid2 = _zscore(abs(mean2 - target2), se2, target2)

    return OneStepReport(resid1, resid2, se1, se2)


def trace_depths(spec: EnvironmentSpec, b: int, n: int, stream: TreeStream,
                 node_budget: int = DEFAULT_NODE_BUDGET,
                 include_w: bool = True) -> list[dict]:
    """Per-depth normalized logs for convergence traces: rows of
    (n', ln|z|/n', ln z_abs/n', ln z_abs2/n', ln w/(2n')).  A value that is
    nan or +inf, from float64 overflow or a refused underflow loss, is
    refused; -inf (a sum that is exactly 0) is kept."""
    _check_budget(b, n, node_budget)     # before any depth is walked
    rows = []
    for depth in range(1, n + 1):
        fs = dfs_evaluate(spec, b, depth, stream, node_budget=node_budget,
                          include_w=include_w)
        row = {
            "n": depth,
            "ln_abs_z_over_n": fs.ln_abs_z / depth,
            "ln_z_abs_over_n": fs.ln_z_abs / depth,
            "ln_z_abs2_over_n": fs.ln_z_abs2 / depth,
            "ln_w_cond_over_2n": (fs.ln_w_cond / (2.0 * depth))
                                 if fs.ln_w_cond is not None else None,
        }
        for col, v in row.items():
            if v is not None and not v < math.inf:
                raise DomainError(f"trace {col} is {v} at depth {depth}: "
                                  "float64 overflow or underflow")
        rows.append(row)
    return rows
