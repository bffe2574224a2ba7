"""Environment laws for the complex random weights xi = e^{beta*omega + i*gamma*theta}.

Each law exposes one sampling transform, ``polar_from_raw`` (raw Philox
words -> radius and phase arrays, drawn together so that a law may couple
them), and the analytic moment surface used by the phase module:

* ``log_moment_abs(a)``  -- ln E|xi|^a
* ``mean_xi``            -- m1 = E[xi]
* ``lambda_r(x)``        -- ln E e^{x*omega} for the standardized log-radius
* ``lambda_c(g)``        -- -ln|E e^{i*g*theta}| for the standardized phase
* ``phase_damping``      -- q = |E e^{i*theta_model}| at the law's own scale

The weight xi = r (cos phi + i sin phi) is formed from the polar sample in
one place, ``_weight``, for the tree kernels and for ``mc.ratio4`` alike.
Each transform writes into arrays its caller lends through ``out`` and
allocates only when given none, so the tree kernels reuse one set of work
arrays per thread.  The built-in random laws share one log-normal radius
(``_LogNormalRadius``) and differ only in their phase step.  Their scales
beta (and the Gaussian gamma) are refused above ``_MAX_SCALE`` = 1e150,
past which the moment surface would overflow.
"""

from __future__ import annotations

import cmath
import math
import numbers

import numpy as np

from .errors import DomainError
from .rng import normal_pair, to_uniform


def _real(name: str, value) -> float:
    """A law parameter as a finite float; anything else is a DomainError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return x


# Largest beta, or Gaussian gamma, a law takes.  The phase module reads
# G(a) = (ln b + ln E|xi|^a) / a with ln E|xi|^a = (a x)^2 / 2 for a <= 64,
# so (a x)^2 <= 64^2 x^2.  At x = 1e150 that stays below 4.1e303; Python's
# float ** raises OverflowError from about x = 2.1e152 on.
_MAX_SCALE = 1e150


def _scale(name: str, value) -> float:
    """A scale parameter (beta, or the Gaussian gamma) in [0, _MAX_SCALE]."""
    x = _real(name, value)
    if x < 0:
        raise DomainError(f"{name} must be >= 0")
    if x > _MAX_SCALE:
        raise DomainError(f"{name} must be <= {_MAX_SCALE!r} so that the "
                          f"moments stay finite, got {value!r}")
    return x


_WORK = 5   # work rows: normal_pair's 4 and a phase


def _exp(x: float) -> float:
    """math.exp(x), inf where it overflows."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _fresh(n: int, out: tuple | None, dtype=np.float64) -> tuple:
    """out, or fresh arrays of length n (float64, then of `dtype`) and a
    work array."""
    return out or (np.empty(n), np.empty(n, dtype), np.empty((_WORK, n)))


def _weight(r: np.ndarray, phi: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """xi = r * (cos phi + i sin phi), the bits of r * exp(i*phi), into xi
    (complex128, phi's shape); r broadcasts against phi."""
    np.cos(phi, out=xi.real)
    np.sin(phi, out=xi.imag)
    xi *= r
    return xi


class EnvironmentSpec:
    """Base law. Subclasses fill the sampler and moment surface; a law of
    one's own subclasses it too and defines ``polar_from_raw``, the one
    sampler.  The tree evaluators and Monte Carlo checks read only the
    sampler (and ``phase_damping`` for W), the classifiers the moment
    surface.  A law with coupled radius and phase sets
    ``independent = False``.

    The sampling methods map raw words, shape (n, 4), to length-n arrays.
    Their optional ``out`` lends the arrays to write: the results (float64,
    and complex128 for xi) of length n, then a float64 work array of shape
    (``_WORK``, n).  Given ``out``, the built-in laws allocate nothing.  A
    law of one's own may ignore ``out`` in ``polar_from_raw`` and return
    arrays of its own, of any real dtype; ``radius_weight_from_raw``, which
    the tree kernels call, writes into ``out`` in any case."""

    model = "abstract"
    independent = True
    beta_scale = 1.0   # point on the lambda_r axis the law itself sits at
    gamma_scale = 1.0  # point on the lambda_c axis the law itself sits at

    # -- sampling ---------------------------------------------------------
    def polar_from_raw(self, raw: np.ndarray, out: tuple | None = None) \
            -> tuple[np.ndarray, np.ndarray]:
        """(|xi|, phase); out = (r, phi, work)."""
        raise NotImplementedError

    def radius_weight_from_raw(self, raw: np.ndarray,
                               out: tuple | None = None) \
            -> tuple[np.ndarray, np.ndarray]:
        """(|xi|, xi) pairs, out = (r, xi, work); by default xi is rebuilt
        from the polar sample by ``_weight``.

        Laws whose complex value is known exactly override this to avoid
        the roundoff of the polar reconstruction.
        """
        r, xi, work = _fresh(len(raw), out, np.complex128)
        rr, phi = self.polar_from_raw(raw, (r, work[0], work[1:]))
        if rr is not r:
            r[...] = rr
        _weight(r, phi, xi)
        return r, xi

    # -- moment surface ----------------------------------------------------
    def log_moment_abs(self, a: float) -> float:
        raise NotImplementedError

    def mean_xi(self) -> complex:
        raise NotImplementedError

    def log_mean_abs(self) -> float:
        """ln |E xi|, -inf when the mean vanishes."""
        m = abs(self.mean_xi())
        return -math.inf if m == 0.0 else math.log(m)

    def sigma2(self) -> float:
        """E|xi|^2 (1 - |E xi|^2 / E|xi|^2), inf where it overflows."""
        spread = -math.expm1(2 * self.log_mean_abs() - self.log_moment_abs(2))
        return _exp(self.log_moment_abs(2)) * spread if spread > 0 else 0.0

    def lambda_r(self, x: float) -> float:
        raise NotImplementedError

    def lambda_r_prime(self, x: float) -> float:
        raise NotImplementedError

    def lambda_c(self, g: float) -> float:
        raise NotImplementedError

    def phase_damping(self) -> float:
        lc = self.lambda_c(self.gamma_scale)
        return 0.0 if math.isinf(lc) else math.exp(-lc)


class _LogNormalRadius(EnvironmentSpec):
    """Radius e^{beta*omega} with standard normal omega, the first
    Box-Muller normal of each word pair: ln E|xi|^a = (a*beta)^2 / 2, and
    E xi = e^{beta^2/2} q for the phase damping q >= 0 (0 where q is 0).
    Subclasses set ``beta`` and ``beta_scale`` and define ``_phase``, which
    turns the pair's second normal, in the phase array, into the phase."""

    def polar_from_raw(self, raw, out=None):
        r, phi = normal_pair(raw[:, 0], raw[:, 1], _fresh(len(raw), out))
        r *= self.beta
        np.exp(r, out=r)
        return r, self._phase(raw, phi)

    def log_moment_abs(self, a):
        return 0.5 * (a * self.beta) ** 2

    def mean_xi(self):
        q = self.phase_damping()
        return complex(_exp(0.5 * self.beta**2) * q if q else 0.0)

    def log_mean_abs(self):
        q = self.phase_damping()
        return -math.inf if q == 0.0 else 0.5 * self.beta**2 + math.log(q)

    def lambda_r(self, x):
        return 0.5 * x * x

    def lambda_r_prime(self, x):
        return float(x)


class GaussianIndep(_LogNormalRadius):
    """omega, theta independent standard normals scaled by beta, gamma."""

    model = "gaussian"

    def __init__(self, beta: float, gamma: float):
        self.beta = self.beta_scale = _scale("beta", beta)
        self.gamma = self.gamma_scale = _scale("gamma", gamma)

    def _phase(self, raw, z2):
        z2 *= self.gamma
        return z2

    def mean_xi(self):
        return complex(_exp(0.5 * self.beta**2 - 0.5 * self.gamma**2))

    def log_mean_abs(self):
        return 0.5 * self.beta**2 - 0.5 * self.gamma**2

    def lambda_c(self, g):
        return 0.5 * g * g

    def phase_damping(self):
        # not the base's exp(-lambda_c): gamma**2 goes through libm pow,
        # which differs from gamma*gamma in the last bit for some gamma
        return math.exp(-0.5 * self.gamma**2)


class LogNormalUniformPhase(_LogNormalRadius):
    """Log-normal radius; phase uniform on [-gamma*pi, gamma*pi], gamma in
    [0, 1]."""

    model = "uniform"

    def __init__(self, beta: float, gamma: float):
        self.beta = self.beta_scale = _scale("beta", beta)
        gamma = _real("gamma", gamma)
        if not 0.0 <= gamma <= 1.0:
            raise DomainError("gamma must be in [0, 1]")
        self.gamma = self.gamma_scale = gamma

    def _phase(self, raw, z2):
        u = to_uniform(raw[:, 2], z2)
        u *= 2.0
        u -= 1.0
        u *= self.gamma * math.pi
        return u

    def lambda_c(self, g):
        s = abs(_sinc(g))
        return math.inf if s == 0.0 else -math.log(s)

    def phase_damping(self):
        return abs(_sinc(self.gamma))


def _sinc(g: float) -> float:
    """sin(pi*g)/(pi*g) with the removable singularity at 0 and exact zeros
    at the other integers (sin(pi*k) would come back ~1e-16 otherwise)."""
    if g == 0.0:
        return 1.0
    if g == math.floor(g):
        return 0.0
    return math.sin(math.pi * g) / (math.pi * g)


class RademacherPhase(_LogNormalRadius):
    """Two-point phase: e^{i*theta} = t + i*sqrt(1-t^2) or its conjugate,
    each with probability 1/2, so |E e^{i*theta}| = t exactly; log-normal
    radius."""

    model = "rademacher"

    def __init__(self, t: float, beta: float = 0.0):
        t = _real("t", t)
        if not 0.0 <= t <= 1.0:
            raise DomainError("t must be in [0, 1]")
        self.t = t
        self.beta = self.beta_scale = _scale("beta", beta)
        self._theta = math.acos(t)

    def _phase(self, raw, z2):
        u = to_uniform(raw[:, 2], z2)
        heads = u < 0.5
        u.fill(-self._theta)
        u[heads] = self._theta
        return u

    def lambda_c(self, g):
        c = abs(math.cos(g * self._theta))
        return math.inf if c == 0.0 else -math.log(c)

    def phase_damping(self):
        return self.t


class DeterministicConstant(EnvironmentSpec):
    """xi identically equal to a nonzero complex constant c, given as a
    number or as [re, im]."""

    model = "constant"

    def __init__(self, c: complex):
        if isinstance(c, (list, tuple)):
            if len(c) != 2:
                raise DomainError(f"c must be [re, im], got {c!r}")
            c = complex(_real("c", c[0]), _real("c", c[1]))
        if isinstance(c, bool) or not isinstance(c, numbers.Complex):
            raise DomainError(f"c must be a complex number, got {c!r}")
        c = complex(c)
        if not cmath.isfinite(c):
            raise DomainError(f"c must be finite, got {c!r}")
        if c == 0:
            raise DomainError("c must be nonzero")
        self.c = c

    def polar_from_raw(self, raw, out=None):
        r, phi, _ = _fresh(len(raw), out)
        r.fill(abs(self.c))
        phi.fill(cmath.phase(self.c))
        return r, phi

    def radius_weight_from_raw(self, raw, out=None):
        r, xi, _ = _fresh(len(raw), out, np.complex128)
        r.fill(abs(self.c))
        xi.fill(self.c)
        return r, xi

    def log_moment_abs(self, a):
        return a * math.log(abs(self.c))

    def mean_xi(self):
        return self.c

    def lambda_r(self, x):
        return x * math.log(abs(self.c))

    def lambda_r_prime(self, x):
        return math.log(abs(self.c))

    def lambda_c(self, g):
        return 0.0


_MODELS = {cls.model: cls for cls in (GaussianIndep, LogNormalUniformPhase,
                                     RademacherPhase, DeterministicConstant)}


def _fields(law: type) -> tuple[str, ...]:
    """A law's config fields: its constructor's arguments, in order."""
    code = law.__init__.__code__
    return code.co_varnames[1:code.co_argcount]


def spec_from_config(record: dict) -> EnvironmentSpec:
    """Build a law from a tagged config record, e.g. {"model": "gaussian", ...}.
    The fields are the law's constructor arguments; a field the model does
    not take is refused, not ignored."""
    rec = dict(record)
    model = rec.pop("model", None)
    rec.pop("b", None)  # branching factor belongs to the run, tolerated here
    law = _MODELS.get(model) if isinstance(model, str) else None
    if law is None:
        raise DomainError(f"unknown model {model!r}")
    fields = _fields(law)
    for name in fields[:len(fields) - len(law.__init__.__defaults__ or ())]:
        if name not in rec:
            raise DomainError(f"model {model!r} is missing field {name!r}")
    extra = [str(key) for key in rec if key not in fields]
    if extra:
        raise DomainError(f"model {model!r} does not take {', '.join(extra)}")
    return law(**rec)
