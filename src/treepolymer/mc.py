"""Replicated Monte Carlo experiments over independent environment trees.

Replicas are independent tasks keyed by the counter-based stream, so the
estimators return identical values for any scheduling or thread count.
The moment verifiers use the transposed stream family (replicas contiguous
per node) to batch many small trees in a few numpy passes; the law is
identical to the per-replica family.
"""

from __future__ import annotations

import math
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .env import EnvironmentSpec
from .errors import BudgetExceeded, CoupledLaw, DomainError
from .rng import BatchStream, TreeStream, node_offset
from .sim import (DEFAULT_NODE_BUDGET, closed_form_second_moment,
                  dfs_evaluate)

# Phase-resample streams live in a replica range far above any omega index.
_PHASE_REPLICA_BASE = 1 << 32

# Memory bounds of the small-tree batches: complex values per (trees x leaves)
# pass, and node draws per call of a law's transform (never less than one
# phase resample's tree, or one node across the pass).
_PASS_VALUES = 1 << 19
_SLAB_DRAWS = 1 << 16


@dataclass
class McEstimate:
    replicas: int
    mean: float
    std_error: float
    ci95: tuple[float, float]
    median: float
    excluded_count: int = 0
    values: list | None = None         # per replica in order, -inf if excluded
    max_value: float | None = None     # filled by ratio4
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
    exactly 0) is excluded and counted; nan or +inf, from float64 overflow,
    is refused.  `values`, if kept, holds every replica's value in order."""
    raw = _replica_map(plan, one)
    for r, v in enumerate(raw):
        if math.isnan(v) or v == math.inf:
            raise DomainError(f"{functional} is {v} in replica {r}: "
                              "float64 overflow")
    kept = [v for v in raw if v != -math.inf]
    est = _estimate(kept, len(raw) - len(kept))
    if plan.keep_values:
        est.values = raw
    return est


def estimate_free_energy(plan: ExperimentPlan) -> McEstimate:
    """Mean of (1/n) ln|Z_n| over independent replicas; zero-|Z| replicas
    are excluded and counted."""
    plan.check()
    if plan.n < 1:
        raise DomainError("free energy needs n >= 1")

    def one(r: int) -> float:
        fs = dfs_evaluate(plan.spec, plan.b, plan.n, TreeStream(plan.seed, r),
                          node_budget=plan.node_budget, include_w=False)
        return fs.ln_abs_z / plan.n

    return _replica_estimate(plan, one, "free_energy")


def estimate_w_free_energy(plan: ExperimentPlan) -> McEstimate:
    """Mean of (1/2n) ln W_n over independent radius environments."""
    plan.check()
    if plan.n < 1:
        raise DomainError("free energy needs n >= 1")
    if not plan.spec.independent:
        raise CoupledLaw("W requires independent radius/phase")

    def one(r: int) -> float:
        fs = dfs_evaluate(plan.spec, plan.b, plan.n, TreeStream(plan.seed, r),
                          node_budget=plan.node_budget, include_w=True)
        return fs.ln_w_cond / (2.0 * plan.n)

    return _replica_estimate(plan, one, "w_free_energy")


def batch_z_values(spec: EnvironmentSpec, b: int, n: int, seed: int,
                   replicas: int) -> np.ndarray:
    """Z_n for many replicas of a small tree, vectorized across replicas."""
    if b**n > (1 << 18):
        raise BudgetExceeded("batch evaluation limited to b^n <= 2^18")
    bs = BatchStream(seed)
    out = np.empty(replicas, dtype=np.complex128)
    chunk = max(1, _PASS_VALUES // b**n)
    for r0 in range(0, replicas, chunk):
        cnt = min(chunk, replicas - r0)
        per = max(1, _SLAB_DRAWS // cnt)       # nodes per transform call
        v = np.ones((cnt, b**n), dtype=np.complex128)
        for g in range(n, 0, -1):
            width = b**g
            xi = np.empty((cnt, width), dtype=np.complex128)
            for i0 in range(0, width, per):
                k = min(per, width - i0)
                raw = np.concatenate([bs.node_block(b, g, i, r0, cnt)
                                      for i in range(i0, i0 + k)])
                xi[:, i0:i0 + k] = \
                    spec.radius_weight_from_raw(raw)[1].reshape(k, cnt).T
            v = (xi * v).reshape(cnt, width // b, b).sum(axis=2)
        out[r0:r0 + cnt] = v[:, 0]
    return out


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


def _zscore(diff: float, se: float) -> float:
    if se == 0.0:
        return 0.0 if diff == 0.0 else math.inf
    return diff / se


def verify_mean(plan: ExperimentPlan) -> VerifyReport:
    """Empirical complex mean of Z_n against b^n m1^n, componentwise z-scores."""
    plan.check()
    zs = batch_z_values(plan.spec, plan.b, plan.n, plan.seed, plan.replicas)
    theo = (plan.b * plan.spec.mean_xi()) ** plan.n
    emp = complex(zs.mean())
    r = plan.replicas
    se_re = float(np.std(zs.real, ddof=1) / math.sqrt(r))
    se_im = float(np.std(zs.imag, ddof=1) / math.sqrt(r))
    z_re = _zscore(abs(emp.real - theo.real), se_re)
    z_im = _zscore(abs(emp.imag - theo.imag), se_im)
    return VerifyReport(
        name="mean", replicas=r, empirical=emp, theoretical=theo,
        z_scores=(z_re, z_im), std_errors=(se_re, se_im),
        passed=max(z_re, z_im) <= 5.0)


def verify_second_moment(plan: ExperimentPlan) -> VerifyReport:
    """Empirical mean of |Z_n|^2 against the closed form, z-score gate."""
    plan.check()
    zs = batch_z_values(plan.spec, plan.b, plan.n, plan.seed, plan.replicas)
    v = np.abs(zs) ** 2
    theo = closed_form_second_moment(plan.spec, plan.b, plan.n).value
    emp = float(v.mean())
    se = float(np.std(v, ddof=1) / math.sqrt(plan.replicas))
    z = _zscore(abs(emp - theo), se)
    return VerifyReport(
        name="second_moment", replicas=plan.replicas, empirical=emp,
        theoretical=theo, z_scores=(z,), std_errors=(se,), passed=z <= 5.0)


def ratio4(spec: EnvironmentSpec, b: int, n: int, omega_replicas: int,
           phase_resamples: int, seed: int,
           node_budget: int = DEFAULT_NODE_BUDGET) -> McEstimate:
    """Conditional fourth-moment ratio E[|Z|^4|radii] / E[|Z|^2|radii]^2 per
    frozen radius tree, estimated from phase resamples, with jackknife SEs.

    The returned estimate carries per-omega ratios in `values`, their
    jackknife standard errors in `value_ses`, and the max in `max_value`.
    """
    if not spec.independent:
        raise CoupledLaw("phase resampling needs independent radius/phase")
    if phase_resamples < 1000:
        raise DomainError("need at least 1000 phase resamples")
    if b ** (n + 1) > node_budget or b**n > (1 << 16):
        raise BudgetExceeded("tree too large for phase resampling")

    leaves = b**n
    nodes = node_offset(b, n + 1) - 1       # generations 1..n, one range
    m = phase_resamples
    chunk = max(1, _PASS_VALUES // leaves)  # resamples per recursion pass
    per = max(1, _SLAB_DRAWS // nodes)      # resamples per transform call
    ratios: list[float] = []
    ses: list[float] = []
    for o in range(omega_replicas):
        radii = spec.radius_from_raw(
            TreeStream(seed, o).node_block(b, 1, 0, nodes))
        z2 = np.empty(m)
        z4 = np.empty(m)
        for j0 in range(0, m, chunk):
            cnt = min(chunk, m - j0)
            phi = np.empty((cnt, nodes))
            for s0 in range(0, cnt, per):
                k = min(per, cnt - s0)
                first = _PHASE_REPLICA_BASE + o * m + j0 + s0
                raw = np.concatenate(
                    [TreeStream(seed, first + j).node_block(b, 1, 0, nodes)
                     for j in range(k)])
                phi[s0:s0 + k] = spec.phase_from_raw(raw).reshape(k, nodes)
            v = np.ones((cnt, leaves), dtype=np.complex128)
            for g in range(n, 0, -1):
                lo, width = node_offset(b, g) - 1, b**g
                xi = radii[None, lo:lo + width] \
                    * np.exp(1j * phi[:, lo:lo + width])
                v = (xi * v).reshape(cnt, width // b, b).sum(axis=2)
            zabs2 = np.abs(v[:, 0]) ** 2
            z2[j0:j0 + cnt] = zabs2
            z4[j0:j0 + cnt] = zabs2 * zabs2
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
    est.max_value = max(ratios)
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
        r = spec.radius_from_raw(stream.seq_block(cnt))
        vals[i0:i0 + cnt] = r ** (-tau)
    mean = float(vals.mean())
    se = float(np.std(vals, ddof=1) / math.sqrt(samples))
    est = McEstimate(
        replicas=samples, mean=mean, std_error=se,
        ci95=(mean - 1.96 * se, mean + 1.96 * se),
        median=float(np.median(vals)), excluded_count=0)
    cum = np.cumsum(vals) / np.arange(1, samples + 1)
    half = cum[samples // 2 - 1]
    slope = (math.log(cum[-1]) - math.log(half)) / (math.log(samples) - math.log(samples // 2))
    max_share = float(vals.max() / vals.sum())
    return TauReport(tau=tau, estimate=est,
                     diverging=bool(slope > 0.1 or max_share > 0.2),
                     tail_slope=float(slope), max_share=max_share)
