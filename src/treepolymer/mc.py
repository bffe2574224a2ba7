"""Replicated Monte Carlo experiments over independent environment trees.

Replicas are independent tasks keyed by the counter-based stream, so the
estimators return identical values for any scheduling or thread count.
``batch_z_values`` and ``ratio4`` evaluate many small trees at once in
``sim._column_z``; ``batch_z_values`` draws from the transposed stream
family (replicas contiguous per node), whose law is the per-replica one's.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .env import _WORK, EnvironmentSpec, _weight
from .errors import BudgetExceeded, CoupledLaw, DomainError
from .rng import TreeStream, node_offset
from .sim import (_SLAB_DRAWS, DEFAULT_NODE_BUDGET, _batch_weights,
                  _column_z, _workspace, _zscore, closed_form_second_moment,
                  dfs_evaluate)

# Phase-resample streams live in a replica range far above any omega index.
_PHASE_REPLICA_BASE = 1 << 32


@dataclass
class McEstimate:
    replicas: int
    mean: float
    std_error: float
    ci95: tuple[float, float]
    median: float
    excluded_count: int = 0
    values: list | None = None         # per replica in order, -inf if excluded
    value_ses: list | None = None      # filled by ratio4

    def to_dict(self) -> dict:
        return {
            "replicas": self.replicas,
            "mean": self.mean,
            "std_error": self.std_error,
            "ci95": list(self.ci95),
            "median": self.median,
            "excluded_count": self.excluded_count,
        }


@dataclass
class ExperimentPlan:
    spec: EnvironmentSpec
    b: int
    n: int
    replicas: int
    seed: int
    node_budget: int = DEFAULT_NODE_BUDGET
    threads: int = 1
    keep_values: bool = True

    def check(self) -> None:
        if self.replicas < 1:
            raise DomainError("need at least one replica")
        if self.b ** (self.n + 1) > self.node_budget:
            raise BudgetExceeded(
                f"b^(n+1) = {self.b}^{self.n + 1} exceeds per-tree budget "
                f"{self.node_budget}")


def _estimate(values: list[float], excluded: int) -> McEstimate:
    r = len(values)
    if r == 0:
        raise DomainError("all replicas were excluded")
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(r)) if r > 1 else 0.0
    return McEstimate(
        replicas=r, mean=mean, std_error=se,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
        median=float(statistics.median(values)),
        excluded_count=excluded)


def _replica_map(plan: ExperimentPlan, fn) -> list:
    replicas = range(plan.replicas)
    if plan.threads <= 1:
        return [fn(r) for r in replicas]
    with ThreadPoolExecutor(max_workers=plan.threads) as pool:
        return list(pool.map(fn, replicas))


def _replica_estimate(plan: ExperimentPlan, one, functional: str) -> McEstimate:
    """Estimate from one value per replica.  A value of -inf (a sum that is
    exactly 0) is excluded and counted; nan or +inf, from float64 overflow
    or a refused underflow loss (see sim.FunctionalSet), is refused.
    `values`, if kept, holds every replica's value in order."""
    raw = _replica_map(plan, one)
    for r, v in enumerate(raw):
        if math.isnan(v) or v == math.inf:
            raise DomainError(f"{functional} is {v} in replica {r}: "
                              "float64 overflow or underflow")
    kept = [v for v in raw if v != -math.inf]
    est = _estimate(kept, len(raw) - len(kept))
    if plan.keep_values:
        est.values = raw
    return est


def _free_energy(plan: ExperimentPlan, include_w: bool) -> McEstimate:
    plan.check()
    if plan.n < 1:
        raise DomainError("free energy needs n >= 1")
    if include_w and not plan.spec.independent:
        raise CoupledLaw("W requires independent radius/phase")

    def one(r: int) -> float:
        fs = dfs_evaluate(plan.spec, plan.b, plan.n, TreeStream(plan.seed, r),
                          node_budget=plan.node_budget, include_w=include_w)
        return fs.ln_w_cond / (2.0 * plan.n) if include_w \
            else fs.ln_abs_z / plan.n

    return _replica_estimate(
        plan, one, "w_free_energy" if include_w else "free_energy")


def estimate_free_energy(plan: ExperimentPlan) -> McEstimate:
    """Mean of (1/n) ln|Z_n| over independent replicas; zero-|Z| replicas
    are excluded and counted."""
    return _free_energy(plan, False)


def estimate_w_free_energy(plan: ExperimentPlan) -> McEstimate:
    """Mean of (1/2n) ln W_n over independent radius environments."""
    return _free_energy(plan, True)


def batch_z_values(spec: EnvironmentSpec, b: int, n: int, seed: int,
                   replicas: int) -> np.ndarray:
    """Z_n of batch-stream replicas 0 .. replicas-1 of a small tree, all in
    one sim._column_z walk, so a replica's Z_n does not depend on the
    others."""
    if b < 2 or n < 0:
        raise DomainError("need b >= 2 and n >= 0")
    if replicas < 0:
        raise DomainError("replicas must be >= 0")
    if b**n > (1 << 18):
        raise BudgetExceeded("batch evaluation limited to b^n <= 2^18")
    return _column_z(b, n, replicas, _batch_weights(spec, seed, b, 0))


@dataclass
class VerifyReport:
    name: str
    replicas: int
    empirical: complex | float
    theoretical: complex | float
    z_scores: tuple[float, ...]
    std_errors: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        emp = self.empirical
        theo = self.theoretical
        return {
            "name": self.name,
            "replicas": self.replicas,
            "empirical": [emp.real, emp.imag] if isinstance(emp, complex) else emp,
            "theoretical": [theo.real, theo.imag] if isinstance(theo, complex) else theo,
            "z_scores": list(self.z_scores),
            "std_errors": list(self.std_errors),
            "passed": self.passed,
        }


def verify_moments(plan: ExperimentPlan) -> tuple[VerifyReport, VerifyReport]:
    """One batch of Z_n, checked twice: the complex mean against
    b^n m1^n (componentwise z-scores) and the mean of |Z_n|^2 against the
    closed form; each gate is a z-score of at most 5."""
    plan.check()
    if plan.replicas < 2:
        raise DomainError("the moment gates need at least 2 replicas")
    zs = batch_z_values(plan.spec, plan.b, plan.n, plan.seed, plan.replicas)
    theo = (plan.b * plan.spec.mean_xi()) ** plan.n
    emp = complex(zs.mean())
    r = plan.replicas
    se_re = float(np.std(zs.real, ddof=1) / math.sqrt(r))
    se_im = float(np.std(zs.imag, ddof=1) / math.sqrt(r))
    z_re = _zscore(abs(emp.real - theo.real), se_re, theo)
    z_im = _zscore(abs(emp.imag - theo.imag), se_im, theo)
    mean = VerifyReport(
        name="mean", replicas=r, empirical=emp, theoretical=theo,
        z_scores=(z_re, z_im), std_errors=(se_re, se_im),
        passed=max(z_re, z_im) <= 5.0)

    v = np.abs(zs) ** 2
    theo2 = closed_form_second_moment(plan.spec, plan.b, plan.n).value
    emp2 = float(v.mean())
    se = float(np.std(v, ddof=1) / math.sqrt(r))
    z = _zscore(abs(emp2 - theo2), se, theo2)
    second = VerifyReport(
        name="second_moment", replicas=r, empirical=emp2,
        theoretical=theo2, z_scores=(z,), std_errors=(se,), passed=z <= 5.0)
    return mean, second


def ratio4(spec: EnvironmentSpec, b: int, n: int, omega_replicas: int,
           phase_resamples: int, seed: int,
           node_budget: int = DEFAULT_NODE_BUDGET) -> McEstimate:
    """Conditional fourth-moment ratio E[|Z|^4|radii] / E[|Z|^2|radii]^2 per
    frozen radius tree, estimated from phase resamples, with jackknife SEs.

    Resample j of radius tree o takes its phases from the whole tree
    TreeStream(seed, 2^32 + o * phase_resamples + j).  A slab of
    _SLAB_DRAWS // nodes resamples (at least one) is transformed in one
    polar_from_raw call, weighted by env._weight with the frozen radii
    broadcast, and walked by one sim._column_z call.

    The returned estimate carries per-omega ratios in `values` and their
    jackknife standard errors in `value_ses`.
    """
    if not spec.independent:
        raise CoupledLaw("phase resampling needs independent radius/phase")
    if b < 2 or n < 1:
        raise DomainError("need b >= 2 and n >= 1")
    if omega_replicas < 1:
        raise DomainError("need omega_replicas >= 1")
    if phase_resamples < 1000:
        raise DomainError("need at least 1000 phase resamples")
    if b ** (n + 1) > node_budget or b**n > (1 << 16):
        raise BudgetExceeded("tree too large for phase resampling")

    nodes = node_offset(b, n + 1) - 1       # generations 1..n, one range
    m = phase_resamples
    per = max(1, _SLAB_DRAWS // nodes)      # resamples per slab
    ws = _workspace()
    ratios: list[float] = []
    ses: list[float] = []
    for o in range(omega_replicas):
        radii = spec.polar_from_raw(
            TreeStream(seed, o).node_block(b, 1, 0, nodes))[0]
        z2 = np.empty(m)
        for j0 in range(0, m, per):
            k = min(per, m - j0)
            first = _PHASE_REPLICA_BASE + o * m + j0
            raw = ws.take("raw", 4 * k * nodes, np.uint64).reshape(k, nodes, 4)
            for j in range(k):
                raw[j] = TreeStream(seed, first + j).node_block(b, 1, 0, nodes)
            phi = spec.polar_from_raw(raw.reshape(-1, 4), out=(
                ws.take("r", k * nodes), ws.take("phi", k * nodes),
                ws.take("work", _WORK * k * nodes).reshape(_WORK, -1)))[1]
            xi = _weight(radii, phi.reshape(k, nodes), ws.take(
                "xi", k * nodes, np.complex128).reshape(k, nodes))

            def weights(g: int, i0: int, c0: int, out: np.ndarray) -> None:
                lo = node_offset(b, g) - 1 + i0
                out[...] = xi[c0:c0 + out.shape[1], lo:lo + len(out)].T

            z2[j0:j0 + k] = np.abs(_column_z(b, n, k, weights)) ** 2
        z4 = z2 * z2
        s2 = float(z2.mean())
        s4 = float(z4.mean())
        ratio = s4 / (s2 * s2)
        s2_i = (m * s2 - z2) / (m - 1)
        s4_i = (m * s4 - z4) / (m - 1)
        ratio_i = s4_i / (s2_i * s2_i)
        se = float(math.sqrt((m - 1) / m * np.sum((ratio_i - ratio_i.mean()) ** 2)))
        ratios.append(ratio)
        ses.append(se)

    est = _estimate(ratios, 0)
    est.values = ratios
    est.value_ses = ses
    return est


def paley_zygmund_bound(mean_x: float, mean_x_nu: float, nu: float,
                        theta: float) -> float:
    """Lower bound B^(-1/(nu-1)) (1-theta)^(nu/(nu-1)) for P[X > theta E X],
    where B = E[X^nu] / (E X)^nu for a nonnegative X."""
    if nu <= 1.0:
        raise DomainError("nu must be > 1")
    if not 0.0 < theta < 1.0:
        raise DomainError("theta must be in (0, 1)")
    if mean_x <= 0.0 or mean_x_nu <= 0.0:
        raise DomainError("moments must be positive")
    bb = mean_x_nu / mean_x**nu
    if bb < 1.0:
        if bb < 1.0 - 1e-9:
            raise DomainError("E[X^nu] < (E X)^nu violates moment ordering")
        bb = 1.0
    return bb ** (-1.0 / (nu - 1.0)) * (1.0 - theta) ** (nu / (nu - 1.0))


@dataclass
class TauReport:
    tau: float
    estimate: McEstimate
    diverging: bool
    tail_slope: float
    max_share: float


def tau_moment_check(spec: EnvironmentSpec, tau: float, samples: int,
                     seed: int = 0) -> TauReport:
    """Monte Carlo evidence for E|xi|^-tau < inf, with a running-mean tail
    heuristic; evidence only, not a certificate."""
    if not 0.0 < tau <= 2.0:
        raise DomainError("tau must be in (0, 2]")
    if samples < 100:
        raise DomainError("need at least 100 samples")
    stream = TreeStream(seed, 0)
    vals = np.empty(samples)
    chunk = 1 << 16
    for i0 in range(0, samples, chunk):
        cnt = min(chunk, samples - i0)
        r = spec.polar_from_raw(stream.seq_block(cnt))[0]
        vals[i0:i0 + cnt] = r ** (-tau)
    est = _estimate(vals.tolist(), 0)
    cum = np.cumsum(vals) / np.arange(1, samples + 1)
    half = cum[samples // 2 - 1]
    slope = (math.log(cum[-1]) - math.log(half)) / (math.log(samples) - math.log(samples // 2))
    max_share = float(vals.max() / vals.sum())
    return TauReport(tau=tau, estimate=est,
                     diverging=bool(slope > 0.1 or max_share > 0.2),
                     tail_slope=float(slope), max_share=max_share)
