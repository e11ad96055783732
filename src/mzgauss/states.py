"""Gaussian input preparations, their single-mode moments and their photon-number covariance.

A port is prepared by squeezing the vacuum and then displacing it,
D(gamma) S(chi) |0>.  A Gaussian port is fixed by <a>, <n> and the centred
moments of :class:`PortMoments`.  The Fisher matrix, the QFI and both
photon-counting variances read the two ports' moments through the one Gram
factor of :func:`number_factor`; homodyne reads them through
:func:`quadrature_noise`.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

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

    @functools.cached_property
    def moments(self) -> "PortMoments":
        """:func:`port_moments` of this port, computed on first use."""
        return port_moments(self)


@dataclass(frozen=True)
class PortMoments:
    """The single-mode moments every closed-form formula consumes.

    mean_a   = <a>
    mean_n   = <n>
    dn       = <n> - |<a>|^2      (sinh^2 s)
    dm       = <a^2> - <a>^2      (-sinh(2s) e^{i theta} / 2)

    The centred moments dn and dm carry the squeezing alone, so products of
    two ports never cancel their leading |<a>|^2 terms numerically.  By Wick's
    theorem every higher moment of the Gaussian port follows from these.
    """

    mean_a: complex
    mean_n: float
    dn: float
    dm: complex

    def rotated(self, delta: float) -> "PortMoments":
        """Moments of the phase-rotated mode e^{i delta n} (a -> a e^{i delta})."""
        ph = cmath.exp(1j * delta)
        return PortMoments(mean_a=self.mean_a * ph, mean_n=self.mean_n, dn=self.dn,
                           dm=self.dm * ph * ph)


def port_moments(port: GaussianPort) -> PortMoments:
    """Moments of the squeezed-coherent state D(gamma) S(chi) |0>."""
    gamma = port.displacement.value
    s = port.squeeze.factor
    try:
        sh2 = math.sinh(s) ** 2
        dm = -0.5 * math.sinh(2.0 * s) * cmath.exp(1j * port.squeeze.phase)
        mean_n = abs(gamma) ** 2 + sh2
    except OverflowError:
        raise NumericalOverflow(f"the moments of a port with |gamma| = {abs(gamma):g} and "
                                f"squeeze factor {s:g} overflow") from None
    return PortMoments(gamma, mean_n, sh2, dm)


def drop_residue(part: float, size: float) -> float:
    """0 for a part below 4 ulp of ``size``, the magnitude of what it is formed from: the rounding
    left of an exact 0, e.g. of Re(a0* a1) at amplitudes pi/2 apart, not a slope of the mean."""
    return 0.0 if abs(part) < 4.0 * sys.float_info.epsilon * size else part


def quadrature_noise(p: PortMoments) -> tuple[float, complex]:
    """(e^{-s}, axis) of a port: its quadrature noise along an amplitude u,
    (2 dn + 1)|u|^2 + 2 Re(u*^2 dm), is the sum of squares (e^{-s}|u|)^2 + Im(axis u)^2.

    e^{-2s} is the reciprocal of e^{2s} = 1 + 2 dn + 2 |dm|, which subtracts
    nothing, so the squeezed quadrature keeps its digits at any squeeze factor.
    """
    size = abs(p.dm)
    root = math.sqrt(1.0 / (1.0 + 2.0 * (p.dn + size)))
    return root, 2.0 * math.sqrt(size) * cmath.exp(-0.5j * cmath.phase(-p.dm))


def number_factor(p0: PortMoments, p1: PortMoments) -> tuple[np.ndarray, tuple]:
    """Columns of the Gram factor F (11 x 4) and the means of N, Jx, Jy, Jz = a^dag sigma_j a.

    By Wick's theorem the symmetrised Cov(O_i, O_j) = columns[i] . columns[j].
    Rows per port: :func:`quadrature_noise` along g = sigma_j <a> (three) and
    sqrt(Var n) on N +- Jz; of the centred pair a0^dag a1: |dn0 - dn1| /
    (sqrt(dn0 (dn1 + 1)) + sqrt(dn1 (dn0 + 1))) on Jx and on Jy, and
    2 sqrt(conj(dm0) dm1) across both.
    """
    a0, a1 = p0.mean_a, p1.mean_a
    (root0, axis0), (root1, axis1) = quadrature_noise(p0), quadrature_noise(p1)

    def linear(g0, g1):  # the six rows of the quadrature noise along g = sigma_j <a>
        return [root0 * g0.real, root0 * g0.imag, (axis0 * g0).imag,
                root1 * g1.real, root1 * g1.imag, (axis1 * g1).imag]

    try:  # the squeezing part of sqrt(Var n) of each port
        v0, v1 = (math.sqrt(p.dn * (p.dn + 1.0) + abs(p.dm) ** 2) for p in (p0, p1))
        if math.isinf(v0 + v1):
            raise OverflowError
    except OverflowError:
        raise NumericalOverflow("the photon-number variance of a port overflows") from None
    gap = math.sqrt(p0.dn * (p1.dn + 1.0)) + math.sqrt(p1.dn * (p0.dn + 1.0))
    gap = abs(p0.dn - p1.dn) / gap if gap else 0.0
    pair = 2.0 * cmath.sqrt(p0.dm.conjugate() * p1.dm)
    columns = (linear(a0, a1) + [v0, v1, 0.0, 0.0, 0.0],
               linear(a1, a0) + [0.0, 0.0, gap, 0.0, pair.real],
               linear(complex(a1.imag, -a1.real), complex(-a0.imag, a0.real))
               + [0.0, 0.0, 0.0, gap, pair.imag],
               linear(a0, -a1) + [v0, -v1, 0.0, 0.0, 0.0])
    cross = a0.conjugate() * a1
    jx, jy = (2.0 * drop_residue(part, abs(a0) * abs(a1)) for part in (cross.real, cross.imag))
    means = (p0.mean_n + p1.mean_n, jx, jy, p0.mean_n - p1.mean_n)
    return np.array(columns), means
