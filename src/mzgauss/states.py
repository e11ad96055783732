"""Gaussian input preparations and their single-mode moments.

A port is prepared by squeezing the vacuum and then displacing it,
D(gamma) S(chi) |0>.  Every closed-form result downstream consumes only the
moment quantities collected in :class:`PortMoments`.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import NumericalOverflow

TWO_PI = 2.0 * math.pi


def canonical_angle(phase: float) -> float:
    """Map an angle to [0, 2*pi)."""
    phase = math.fmod(phase, TWO_PI)
    if phase < 0.0:
        phase += TWO_PI
    # fmod can return TWO_PI after the branch above for tiny negatives
    if phase >= TWO_PI:
        phase -= TWO_PI
    return phase


@dataclass(frozen=True)
class Coherent:
    """Displacement amplitude gamma = magnitude * exp(i * phase)."""

    magnitude: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.magnitude) and math.isfinite(self.phase)):
            raise ValueError(f"coherent amplitude must be finite, got {self.magnitude!r} "
                             f"at phase {self.phase!r}")
        if self.magnitude < 0.0:
            raise ValueError("coherent magnitude must be >= 0")
        phase = 0.0 if self.magnitude == 0.0 else canonical_angle(self.phase)
        object.__setattr__(self, "phase", phase)

    @property
    def value(self) -> complex:
        return self.magnitude * cmath.exp(1j * self.phase)


@dataclass(frozen=True)
class Squeeze:
    """Squeeze parameter chi = factor * exp(i * phase)."""

    factor: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.factor) and math.isfinite(self.phase)):
            raise ValueError(f"squeeze parameter must be finite, got {self.factor!r} "
                             f"at phase {self.phase!r}")
        if self.factor < 0.0:
            raise ValueError("squeeze factor must be >= 0")
        phase = 0.0 if self.factor == 0.0 else canonical_angle(self.phase)
        object.__setattr__(self, "phase", phase)


@dataclass(frozen=True)
class GaussianPort:
    """One input mode: squeeze-then-displace, D(gamma) S(chi) |0>."""

    displacement: Coherent = Coherent()
    squeeze: Squeeze = Squeeze()

    @staticmethod
    def from_params(magnitude: float = 0.0, phase: float = 0.0,
                    factor: float = 0.0, squeeze_phase: float = 0.0) -> "GaussianPort":
        return GaussianPort(Coherent(magnitude, phase), Squeeze(factor, squeeze_phase))

    @staticmethod
    def vacuum() -> "GaussianPort":
        return GaussianPort()

    def rotated(self, delta: float) -> "GaussianPort":
        """Rotate the mode phase: gamma -> gamma e^{i delta}, chi -> chi e^{2i delta}."""
        disp = Coherent(self.displacement.magnitude, self.displacement.phase + delta)
        sqz = Squeeze(self.squeeze.factor, self.squeeze.phase + 2.0 * delta)
        return GaussianPort(disp, sqz)

    @functools.cached_property
    def moments(self) -> "PortMoments":
        """:func:`port_moments` of this port, computed on first use."""
        return port_moments(self)


@dataclass(frozen=True)
class PortMoments:
    """The single-mode moments every closed-form formula consumes.

    mean_a   = <a>
    mean_a2  = <a^2>
    mean_n   = <n>
    var_n    = <n^2> - <n>^2
    corr_na  = <n a> - <n><a>
    dn       = <n> - |<a>|^2      (sinh^2 s)
    dm       = <a^2> - <a>^2      (-sinh(2s) e^{i theta} / 2)

    The centred moments dn and dm carry the squeezing alone, so products of
    two ports never cancel their leading |<a>|^2 terms numerically.
    """

    mean_a: complex
    mean_a2: complex
    mean_n: float
    var_n: float
    corr_na: complex
    dn: float
    dm: complex

    def rotated(self, delta: float) -> "PortMoments":
        """Moments of the phase-rotated mode e^{i delta n} (a -> a e^{i delta})."""
        ph = cmath.exp(1j * delta)
        return PortMoments(
            mean_a=self.mean_a * ph,
            mean_a2=self.mean_a2 * ph * ph,
            mean_n=self.mean_n,
            var_n=self.var_n,
            corr_na=self.corr_na * ph,
            dn=self.dn,
            dm=self.dm * ph * ph,
        )


def port_moments(port: GaussianPort) -> PortMoments:
    """Moments of the squeezed-coherent state D(gamma) S(chi) |0>."""
    from .upsilon import upsilon_minus

    gamma = port.displacement.value
    s = port.squeeze.factor
    sq_ph = cmath.exp(1j * port.squeeze.phase)
    try:
        sh2 = math.sinh(s) ** 2
        sh_2s = math.sinh(2.0 * s)

        dm = -0.5 * sh_2s * sq_ph
        mean_a = gamma
        mean_a2 = gamma * gamma + dm
        mean_n = abs(gamma) ** 2 + sh2
        var_n = 0.5 * sh_2s ** 2 + upsilon_minus(port.displacement, port.squeeze)
        corr_na = gamma * sh2 - 0.5 * gamma.conjugate() * sh_2s * sq_ph
    except OverflowError:
        raise NumericalOverflow(f"the moments of a port with |gamma| = {abs(gamma):g} and "
                                f"squeeze factor {s:g} overflow") from None
    return PortMoments(mean_a, mean_a2, mean_n, var_n, corr_na, sh2, dm)


def pair_terms(p0: PortMoments, p1: PortMoments) -> tuple[float, float]:
    """Cross-port combinations shared by the detection variances and the Fisher matrix.

    base  = <n0> + <n1> + 2 (<n0><n1> - |<a0>|^2 |<a1>|^2)
    cross = Re(<a0^2><a1^2>* - <a0>^2 <a1>*^2)

    both written through the centred moments, free of cancellation.
    """
    a0, a1 = p0.mean_a, p1.mean_a
    base = p0.mean_n + p1.mean_n + 2.0 * (abs(a0) ** 2 * p1.dn + p0.dn * abs(a1) ** 2
                                          + p0.dn * p1.dn)
    cross = (a0 * a0 * p1.dm.conjugate() + p0.dm * (a1 * a1).conjugate()
             + p0.dm * p1.dm.conjugate()).real
    return base, cross
