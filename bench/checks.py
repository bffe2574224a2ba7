"""Checks made apart from the program.

Each function here recomputes an answer by the benchmark's own means (path
enumeration, closed-form moments, the region rules at the analytic
minimiser) or tests a property the method must have, and returns a list of
failure messages: empty means the program's output passed.  Raw Philox
words come from the program's public ``TreeStream.node_block``; everything
after the words (the Box-Muller and phase transforms, the sums, the
recursions) is written here and shares no code with ``treepolymer``.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
BETA_C = math.sqrt(2.0 * LN2)  # b = 2 Gaussian critical inverse temperature

# The diagram's boundary band, plus the golden-section tolerance of the
# program's alpha_min (1e-8) so that a cell the program may place on either
# side of the band is excluded rather than judged.
DIAGRAM_BAND = 1e-3
BAND_SLACK = 1e-6


# -- the weights, from raw words ----------------------------------------------

def _uniform(words):
    return (words >> np.uint64(11)).astype(np.float64) * 2.0**-53


def law_weights(law, words):
    """(|xi|, xi) for raw words of shape (count, 4).

    law is a tuple ("gaussian", beta, gamma), ("uniform", beta, gamma) or
    ("constant", c): the benchmark's own description of the laws it runs.
    """
    kind = law[0]
    if kind == "constant":
        c = complex(law[1])
        return np.full(len(words), abs(c)), np.full(len(words), c)
    beta, gamma = law[1], law[2]
    u1, u2 = _uniform(words[:, 0]), _uniform(words[:, 1])
    rho = np.sqrt(-2.0 * np.log1p(-u1))
    r = np.exp(beta * rho * np.cos(2.0 * np.pi * u2))
    if kind == "gaussian":
        phi = gamma * rho * np.sin(2.0 * np.pi * u2)
    elif kind == "uniform":
        phi = gamma * math.pi * (2.0 * _uniform(words[:, 2]) - 1.0)
    else:
        raise ValueError(f"unknown law {law!r}")
    return r, r * (np.cos(phi) + 1j * np.sin(phi))


def sinc(g: float) -> float:
    if g == 0.0:
        return 1.0
    if g == round(g):
        return 0.0
    return math.sin(math.pi * g) / (math.pi * g)


def law_moments(law) -> tuple[complex, float, float]:
    """(E xi, E|xi|^2, q = |E e^{i theta}|) in closed form."""
    kind = law[0]
    if kind == "constant":
        c = complex(law[1])
        return c, abs(c) ** 2, 1.0
    beta, gamma = law[1], law[2]
    q = math.exp(-0.5 * gamma**2) if kind == "gaussian" else abs(sinc(gamma))
    m1 = math.exp(0.5 * beta**2) * (q if kind == "gaussian" else sinc(gamma))
    return complex(m1), math.exp(2.0 * beta**2), q


# -- path enumeration -----------------------------------------------------------

def enumerate_paths(law, b: int, n: int, stream) -> dict:
    """Z, Z(|xi|), Z(|xi|^2) and W of the depth-n tree by listing its paths.

    W sums R_l R_l' q^(2(n - g)) over ordered leaf pairs whose deepest
    common ancestor is at generation g, grouped by that generation: the
    pairs sharing an ancestor at generation g weigh (sum of R under it)^2.
    """
    leaves = b**n
    total = (b ** (n + 1) - 1) // (b - 1) - 1          # generations 1..n
    words = stream.node_block(b, 1, 0, total) if n else np.zeros((0, 4), np.uint64)
    r, xi = law_weights(law, words)
    path_r = np.ones(leaves)
    path_xi = np.ones(leaves, dtype=np.complex128)
    start = 0
    for g in range(1, n + 1):
        width = b**g
        rep = leaves // width
        path_r = path_r * np.repeat(r[start:start + width], rep)
        path_xi = path_xi * np.repeat(xi[start:start + width], rep)
        start += width
    q = law_moments(law)[2]
    shared = [float(np.sum(path_r.reshape(b**g, -1).sum(axis=1) ** 2))
              for g in range(n + 1)] + [0.0]
    w = sum(q ** (2 * (n - g)) * (shared[g] - shared[g + 1])
            for g in range(n)) + shared[n]
    return {"z": complex(path_xi.sum()), "z_abs": float(path_r.sum()),
            "z_abs2": float(np.sum(path_r * path_r)), "w": w}


def match_enumeration(fs, ref: dict, tol: float = 1e-12) -> list[str]:
    """dfs_evaluate's functionals against the enumeration, to tol.

    Z is compared on the scale of Z(|xi|), the size of the terms it sums.
    """
    errs = {
        "z": abs(fs.z - ref["z"]) / ref["z_abs"],
        "z_abs": abs(fs.z_abs - ref["z_abs"]) / ref["z_abs"],
        "z_abs2": abs(fs.z_abs2 - ref["z_abs2"]) / ref["z_abs2"],
    }
    if fs.w_cond is not None:
        errs["w"] = abs(fs.w_cond - ref["w"]) / ref["w"]
    return [f"{k} differs from path enumeration by {v:.3e}"
            for k, v in errs.items() if not v <= tol]


# -- properties of one tree -----------------------------------------------------

def tree_inequalities(fs, b: int, q: float, tol: float = 1e-9) -> list[str]:
    """The orderings every tree's functionals obey, in log space.

    |Z| <= Z(|xi|);  Z(|xi|^2) <= Z(|xi|)^2 <= b^n Z(|xi|^2) (Cauchy-Schwarz
    over the b^n paths);  Z(|xi|^2) <= W <= Z(|xi|)^2 (W keeps the diagonal
    pairs and damps the others by q^2k <= 1);  T = q^n Z(|xi|).
    """
    n = fs.n
    la, la2 = fs.ln_z_abs, fs.ln_z_abs2
    out = []
    if not fs.ln_abs_z <= la + tol:
        out.append(f"ln|Z| {fs.ln_abs_z} > ln Z(|xi|) {la}")
    if not la2 <= 2.0 * la + tol:
        out.append(f"Z(|xi|^2) > Z(|xi|)^2 ({la2} vs {2 * la})")
    if not 2.0 * la <= n * math.log(b) + la2 + tol:
        out.append("Z(|xi|)^2 > b^n Z(|xi|^2)")
    if fs.ln_w_cond is not None:
        if not la2 - tol <= fs.ln_w_cond <= 2.0 * la + tol:
            out.append(f"ln W {fs.ln_w_cond} outside [{la2}, {2 * la}]")
        ln_t = n * math.log(q) + la if q > 0.0 else -math.inf
        if not abs(fs.ln_t_damped - ln_t) <= tol * max(1.0, abs(ln_t)):
            out.append(f"ln T {fs.ln_t_damped} != n ln q + ln Z(|xi|) {ln_t}")
    return out


# -- moments across replicas ----------------------------------------------------

def mean_z(law, b: int, n: int) -> complex:
    """E Z_n = (b m1)^n."""
    return (b * law_moments(law)[0]) ** n


def second_moment(law, b: int, n: int) -> float:
    """E|Z_n|^2 by a_k = b m2 a_{k-1} + b(b-1)|m1|^2 |b m1|^(2(k-1)), a_0 = 1."""
    m1, m2, _ = law_moments(law)
    a = 1.0
    for k in range(1, n + 1):
        a = b * m2 * a + b * (b - 1) * abs(m1) ** 2 * abs(b * m1) ** (2 * (k - 1))
    return a


def z_score(sample, expected: float) -> float:
    sample = np.asarray(sample, dtype=float)
    se = float(np.std(sample, ddof=1)) / math.sqrt(sample.size)
    diff = abs(float(sample.mean()) - expected)
    if se == 0.0:
        return 0.0 if diff <= 1e-12 * max(1.0, abs(expected)) else math.inf
    return diff / se


def moment_scores(law, b: int, n: int, zs) -> dict:
    """z-scores of the sample mean of Z_n (both parts) and of |Z_n|^2."""
    zs = np.asarray(zs)
    m = mean_z(law, b, n)
    return {"re": z_score(zs.real, m.real), "im": z_score(zs.imag, m.imag),
            "abs2": z_score(np.abs(zs) ** 2, second_moment(law, b, n))}


def scores_within(scores: dict, limit: float = 5.0) -> list[str]:
    return [f"z-score {k} = {v:.2f} > {limit}"
            for k, v in scores.items() if not v <= limit]


# -- phase resampling (ratio4) --------------------------------------------------

PHASE_REPLICA_BASE = 1 << 32


def resampled_moments(law, b: int, n: int, seed: int, omega: int,
                      resamples: int, tree_stream) -> np.ndarray:
    """|Z|^2 over the phase resamples of one frozen radius tree.

    Radii come from tree (seed, omega); resample j draws its phases from
    tree (seed, 2^32 + omega * resamples + j), the stream layout ratio4
    documents.  Returns the sample of |Z|^2, one value per resample.
    """
    leaves = b**n
    total = (b ** (n + 1) - 1) // (b - 1) - 1
    radii, _ = law_weights(law, tree_stream(seed, omega).node_block(b, 1, 0, total))
    z2 = np.empty(resamples)
    for j in range(resamples):
        words = tree_stream(seed, PHASE_REPLICA_BASE + omega * resamples + j) \
            .node_block(b, 1, 0, total)
        _, unit = law_weights((law[0], 0.0, law[2]), words)
        xi = radii * unit
        path = np.ones(leaves, dtype=np.complex128)
        start = 0
        for g in range(1, n + 1):
            width = b**g
            path = path * np.repeat(xi[start:start + width], leaves // width)
            start += width
        z2[j] = abs(path.sum()) ** 2
    return z2


# -- phase regions --------------------------------------------------------------

def region_rules(model: str, beta, gamma, b: int = 2,
                 band: float = DIAGRAM_BAND + BAND_SLACK):
    """Region, f and an in-band mask for arrays of (beta, gamma).

    Both scale families have ln E|xi|^a = a^2 beta^2 / 2, so
    G(a) = ln b / a + a beta^2 / 2 with minimiser alpha_min = sqrt(2 ln b)/beta.
    T = ln(b|E xi|).  R1 if min over (1, 2] of G is below T; else R2a if
    alpha_min < 1; else R3 if alpha_min > 2 and G(2) > T; else R2b if
    G(alpha_min) > T.  A cell is in band when any of these margins is
    within band.
    """
    beta = np.asarray(beta, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    lnb = math.log(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        if model == "gaussian":
            ln_m1 = 0.5 * beta**2 - 0.5 * gamma**2
        elif model == "uniform":
            s = np.array([abs(sinc(float(g))) for g in gamma.ravel()]) \
                .reshape(gamma.shape)
            ln_m1 = 0.5 * beta**2 + np.log(s)
        else:
            raise ValueError(model)
        target = lnb + ln_m1
        amin = np.where(beta > 0, math.sqrt(2.0 * lnb) / beta, np.inf)

        def g_of(a):
            return lnb / a + 0.5 * a * beta**2

        clamp = np.clip(amin, 1.0, 2.0)
        g_clamp = g_of(clamp)
        g_amin = np.where(np.isfinite(amin), g_of(amin), np.nan)
        g2 = g_of(2.0)
        margins = [g_clamp - target, amin - 1.0, amin - 2.0, g2 - target,
                   np.where((amin >= 1.0) & (amin <= 2.0), g_amin - target,
                            np.inf)]
    in_band = np.zeros(beta.shape, dtype=bool)
    for m in margins:
        in_band |= np.abs(np.nan_to_num(m, nan=np.inf)) <= band
    region = np.full(beta.shape, "R2b", dtype=object)
    f = np.where(np.isfinite(amin), g_amin, np.nan)
    r1 = g_clamp < target
    r2a = ~r1 & (amin < 1.0)
    r3 = ~r1 & ~r2a & (amin > 2.0)
    region[r1] = "R1"
    region[r2a] = "R2a"
    region[r3] = "R3"
    f = np.where(r1, target, np.where(r3, g2, f))
    return region, f, in_band


def check_regions(model: str, beta, gamma, regions, fs, b: int = 2,
                  band: float = DIAGRAM_BAND + BAND_SLACK,
                  tol: float = 1e-9) -> tuple[np.ndarray, int]:
    """Per-cell verdicts: (bad mask over cells, number excluded in band)."""
    want_region, want_f, in_band = region_rules(model, beta, gamma, b, band)
    regions = np.asarray(regions, dtype=object)
    fs = np.asarray(fs, dtype=float)
    bad = (regions != want_region) | ~(np.abs(fs - want_f) <= tol)
    return bad & ~in_band, int(in_band.sum())


def _bisect_decreasing(fn, lo: float, hi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_closed_form(model: str, b: int = 2) -> dict:
    """beta_c, beta_0, gamma_c, gamma_0 of the unit-scale law.

    beta_c = sqrt(2 ln b) and beta_0 = beta_c / 2 for both families.  The
    phase parameters solve lambda_c(g) = ln b / 2 and ln b / 4: for the
    Gaussian phase lambda_c = g^2 / 2, for the uniform phase
    lambda_c = -ln sinc(g), solved here by bisection on (0, 1).
    """
    lnb = math.log(b)
    beta_c = math.sqrt(2.0 * lnb)
    if model == "gaussian":
        gamma_c, gamma_0 = math.sqrt(lnb), math.sqrt(0.5 * lnb)
    else:
        gamma_c = _bisect_decreasing(lambda g: sinc(g) - math.exp(-0.5 * lnb),
                                     1e-9, 1.0)
        gamma_0 = _bisect_decreasing(lambda g: sinc(g) - math.exp(-0.25 * lnb),
                                     1e-9, 1.0)
    return {"beta_c": beta_c, "beta_0": 0.5 * beta_c, "gamma_c": gamma_c,
            "gamma_0": gamma_0}


def probe_f(beta: float, gamma: float) -> tuple[str, float, float]:
    """Region, f and alpha_min = beta_c / beta of a b = 2 Gaussian probe."""
    region, f, _ = region_rules("gaussian", [beta], [gamma], 2, band=0.0)
    amin = BETA_C / beta if beta > 0 else math.inf
    return str(region[0]), float(f[0]), amin


def two_depth_rate(ln_z_n, ln_z_m, n: int, m: int, c: float) -> float:
    """mean_r [ln|Z_n^r| - ln|Z_m^r| + c ln(n/m)] / (n - m), the depth-
    corrected free-energy estimate; replicas with ln|Z| = -inf are dropped."""
    vals = [(a - bm + c * math.log(n / m)) / (n - m)
            for a, bm in zip(ln_z_n, ln_z_m)
            if a != -math.inf and bm != -math.inf]
    return float(np.mean(vals))
