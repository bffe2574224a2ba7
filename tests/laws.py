"""Laws that only the tests build: a coupled Gaussian and a sampler-only law.

A law of one's own subclasses ``EnvironmentSpec``; these two are the
smallest such subclasses the tests need.
"""

from treepolymer import EnvironmentSpec, GaussianIndep


class CoupledGaussian(GaussianIndep):
    """The Gaussian moment surface, declared as a law with coupled phases."""

    independent = False


class SamplerLaw(EnvironmentSpec):
    """A law given only by its polar sampler, raw words -> (radius, phase);
    it has no moment surface.  ``damping`` is the phase damping that W
    reads.  It ignores the arrays a caller lends and returns its own."""

    def __init__(self, polar, independent=True, damping=1.0):
        self._polar = polar
        self.independent = independent
        self._damping = damping

    def polar_from_raw(self, raw, out=None):
        return self._polar(raw)

    def phase_damping(self):
        return self._damping
