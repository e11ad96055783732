"""Means, variances, sensitivities and working points of the detection schemes.

Three realistic read-outs of the interferometer are modeled: the photocurrent
difference between both output ports, the intensity of output port 4 alone,
and balanced homodyne detection of the port-4 quadrature.  Every quantity is
computed from the two ports' moments through one generic path; the cube
beam-splitter convention enters as a phase rotation of port 0.

Detector efficiency eta < 1 is the standard fictitious beam splitter of
transmission sqrt(eta) in front of each ideal detector.  Referred to the ideal
observable (divided by eta^2), it adds (1 - eta)/eta times the detected photon
number to the variance of a number observable and (1 - eta)/(4 eta) of vacuum
noise to the homodyne one; the slope of the mean scales out.

Where the phase sensitivity loses meaning (vanishing slope of the mean, or a
parameter choice that removes all phase dependence from the observable) the
infinity marker is returned instead of raising.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._minimize import golden_minimize
from .errors import FlatObjective
from .interferometer import CUBE_PORT0_ROTATION, BsConvention, MziScenario
from .states import TWO_PI, PortMoments, pair_terms


@dataclass(frozen=True)
class DifferenceIntensity:
    """Observable n4 - n5."""


@dataclass(frozen=True)
class SingleModeIntensity:
    """Observable n4.

    With an undisplaced port 0 the optimum obeys, to leading order in
    1/|alpha|, Delta phi^2 = exp(-2r)/|alpha|^2 + 2 sqrt(Var n1 Var n0)/|alpha|^4,
    with r and z the port-0 and port-1 squeezing: the photon-number noise of
    port 0 reaches the one detector.  The optimum therefore approaches
    exp(-r)/|alpha| only once exp(-2r)|alpha|^2 dominates 2 sqrt(Var n1 Var n0),
    e.g. from |alpha| ~ 6e5 on for r = 2.3, z = 2.2 with port 1 anti-squeezed
    in amplitude.
    """


@dataclass(frozen=True)
class Homodyne:
    """Port-4 quadrature at local-oscillator phase ``local_phase``.

    ``None`` keeps the oscillator in phase with the port-1 coherent source.
    """

    local_phase: float | None = None


DetectionScheme = Union[DifferenceIntensity, SingleModeIntensity, Homodyne]


@dataclass(frozen=True)
class SensitivityPoint:
    phase: float
    delta_phi: float  # +inf marks an undefined sensitivity at this phase

    def __post_init__(self):
        if not (self.delta_phi > 0.0 or math.isinf(self.delta_phi)):
            raise ValueError(f"delta_phi must be positive or +inf, got {self.delta_phi}")


def effective_moments(scenario: MziScenario) -> tuple[PortMoments, PortMoments]:
    """(port0, port1) moments with the cube convention folded into port 0."""
    p0 = scenario.port0.moments
    p1 = scenario.port1.moments
    if scenario.convention is BsConvention.CUBE:
        p0 = p0.rotated(CUBE_PORT0_ROTATION)
    return p0, p1


def _setup(scheme: DetectionScheme, scenario: MziScenario):
    """Moments, local-oscillator phase and loss excess (1 - eta)/eta of a scenario."""
    p0, p1 = effective_moments(scenario)
    phi_l = None
    if isinstance(scheme, Homodyne):
        phi_l = scheme.local_phase
        if phi_l is None:
            phi_l = scenario.port1.displacement.phase
    return p0, p1, phi_l, (1.0 - scenario.efficiency) / scenario.efficiency


def _nd_mean(p0, p1, phi):
    return (math.cos(phi) * (p1.mean_n - p0.mean_n)
            - 2.0 * math.sin(phi) * (p0.mean_a * p1.mean_a.conjugate()).real)


def _nd_slope(p0, p1, phi):
    return abs(math.sin(phi) * (p0.mean_n - p1.mean_n)
               - 2.0 * math.cos(phi) * (p0.mean_a * p1.mean_a.conjugate()).real)


def _nd_var(p0, p1, phi):
    base, cross = pair_terms(p0, p1)
    corr = (p0.corr_na.conjugate() * p1.mean_a
            - p0.mean_a * p1.corr_na.conjugate()).real
    return (math.cos(phi) ** 2 * (p0.var_n + p1.var_n)
            + math.sin(phi) ** 2 * (base + 2.0 * cross)
            + 2.0 * math.sin(2.0 * phi) * corr)


def _n4_mean(p0, p1, phi):
    half = 0.5 * phi
    return (math.sin(half) ** 2 * p0.mean_n + math.cos(half) ** 2 * p1.mean_n
            - math.sin(phi) * (p0.mean_a * p1.mean_a.conjugate()).real)


def _n4_slope(p0, p1, phi):
    return 0.5 * _nd_slope(p0, p1, phi)


def _n4_var(p0, p1, phi):
    half = 0.5 * phi
    sin_phi = math.sin(phi)
    base, cross = pair_terms(p0, p1)
    return (math.sin(half) ** 4 * p0.var_n + math.cos(half) ** 4 * p1.var_n
            + 0.25 * sin_phi ** 2 * base + 0.5 * sin_phi ** 2 * cross
            - sin_phi * (p0.mean_a * p1.mean_a.conjugate()).real
            - 2.0 * math.sin(half) ** 2 * sin_phi * (p0.corr_na.conjugate() * p1.mean_a).real
            - 2.0 * math.cos(half) ** 2 * sin_phi * (p0.mean_a * p1.corr_na.conjugate()).real)


def _quad_port_var(p: PortMoments, phi_l: float) -> float:
    """Quadrature variance of a single mode at angle phi_l (vacuum gives 1/4).

    With psi = arg(-dm) - 2 phi_l the angle between the squeezing and the
    local oscillator, the variance is (e^{-2s} cos^2(psi/2) + e^{2s} sin^2(psi/2))/4
    = e^{-2s}/4 + |dm| sin^2(psi/2), and e^{2s} = 1 + 2 dn + 2 |dm|.  Taking
    e^{-2s} as the reciprocal of that sum subtracts nothing, so the squeezed
    quadrature keeps its digits at any squeeze factor.
    """
    size = abs(p.dm)
    return 0.25 / (1.0 + 2.0 * (p.dn + size)) + size * math.sin(0.5 * cmath.phase(-p.dm) - phi_l) ** 2


def _x_mean(p0, p1, phi, phi_l):
    half = 0.5 * phi
    rot = cmath.exp(-1j * phi_l)
    return (-math.sin(half) * (rot * p0.mean_a).real
            + math.cos(half) * (rot * p1.mean_a).real)


def _x_slope(p0, p1, phi, phi_l):
    half = 0.5 * phi
    rot = cmath.exp(-1j * phi_l)
    return 0.5 * abs(math.cos(half) * (rot * p0.mean_a).real
                     + math.sin(half) * (rot * p1.mean_a).real)


def _x_var(p0, p1, phi, phi_l):
    half = 0.5 * phi
    return (math.sin(half) ** 2 * _quad_port_var(p0, phi_l)
            + math.cos(half) ** 2 * _quad_port_var(p1, phi_l))


def observable_mean(scheme: DetectionScheme, scenario: MziScenario) -> float:
    """Mean of the ideal (lossless) observable at the scenario phase."""
    p0, p1, phi_l, _ = _setup(scheme, scenario)
    phi = scenario.phase
    if isinstance(scheme, DifferenceIntensity):
        return _nd_mean(p0, p1, phi)
    if isinstance(scheme, SingleModeIntensity):
        return _n4_mean(p0, p1, phi)
    return _x_mean(p0, p1, phi, phi_l)


def _var_slope(scheme, setup, phi) -> tuple[float, float]:
    """Variance with detector loss, clamped at 0, and |d<A>/dphi| at phi."""
    p0, p1, phi_l, excess = setup
    if isinstance(scheme, DifferenceIntensity):
        # n4 + n5 equals the conserved total input photon number
        var = _nd_var(p0, p1, phi) + excess * (p0.mean_n + p1.mean_n)
        slope = _nd_slope(p0, p1, phi)
    elif isinstance(scheme, SingleModeIntensity):
        var = _n4_var(p0, p1, phi) + excess * _n4_mean(p0, p1, phi)
        slope = _n4_slope(p0, p1, phi)
    else:
        var = _x_var(p0, p1, phi, phi_l) + 0.25 * excess
        slope = _x_slope(p0, p1, phi, phi_l)
    return max(var, 0.0), slope


def _delta_phi(var: float, slope: float) -> float:
    return math.inf if slope == 0.0 else math.sqrt(var) / slope


def observable_variance(scheme: DetectionScheme, scenario: MziScenario) -> float:
    """Variance at the scenario phase, detector loss included, in units of the ideal observable."""
    return _var_slope(scheme, _setup(scheme, scenario), scenario.phase)[0]


def sensitivity(scheme: DetectionScheme, scenario: MziScenario) -> SensitivityPoint:
    """Delta phi = sqrt(variance) / |slope| at the scenario phase and efficiency."""
    setup = _setup(scheme, scenario)
    return SensitivityPoint(scenario.phase, _delta_phi(*_var_slope(scheme, setup, scenario.phase)))


# --- optimal working points ---------------------------------------------------

_SAMPLES = 16   # phases sampled per optimum; variance and slope^2 have degree <= 2 in phi
_ORDERS = np.arange(-2, 3)
_TRIM = 1e-12   # stationarity coefficients at or below this share of the largest are rounding
_TIE = 1e-12    # a candidate must be lower by more than this relative margin to win
_POLISH = 1e-3  # half-width in rad of the golden refinement around the winner


def optimal_working_point(scheme: DetectionScheme, scenario: MziScenario) -> SensitivityPoint:
    """Best (phi_opt, Delta phi) over the free internal phase, detector loss included.

    Delta phi^2 = V / Q with V the variance and Q the squared slope of the
    mean, both trigonometric polynomials of degree <= 2 in phi.  Their
    coefficients come from 16 samples; the stationarity condition
    V'Q - VQ' = 0 is then a polynomial of degree 8 in e^{i phi}, and the phase
    of each root is judged with the closed form ``sensitivity`` uses.  Among
    near-equal candidates the lowest phase wins; a golden-section search
    around the winner polishes the last digits where the root is imprecise.

    For the single-mode scheme with an undisplaced port 0 the optimum
    reaches the asymptote exp(-r)/|alpha| only once exp(-2r)|alpha|^2
    dominates 2 sqrt(Var n1 Var n0); below that the port-0 photon-number
    noise keeps it well above (8.0 times at |alpha| = 1e3, r = 2.3, z = 2.2;
    see ``SingleModeIntensity``).
    """
    setup = _setup(scheme, scenario)

    def delta_phi(phi):
        return _delta_phi(*_var_slope(scheme, setup, phi))

    phases = np.arange(_SAMPLES) * (TWO_PI / _SAMPLES)
    var, slope = np.array([_var_slope(scheme, setup, phi) for phi in phases]).T
    if not slope.any():
        raise FlatObjective("the mean carries no phase dependence")
    v = np.fft.fft(var)[_ORDERS] / _SAMPLES
    q = np.fft.fft(slope ** 2)[_ORDERS] / _SAMPLES
    # coefficients of e^{i n phi}, n = -4..4, of V'Q - VQ'
    stationary = np.convolve(1j * _ORDERS * v, q) - np.convolve(v, 1j * _ORDERS * q)
    stationary[np.abs(stationary) <= _TRIM * np.abs(stationary).max()] = 0.0
    roots = np.roots(stationary[::-1])
    candidates = np.sort(np.angle(roots) % TWO_PI) if roots.size else phases

    best_phi, best = 0.0, math.inf
    for phi in candidates:
        value = delta_phi(float(phi))
        if value < best * (1.0 - _TIE):
            best_phi, best = float(phi), value

    x, value = golden_minimize(lambda p: delta_phi(p % TWO_PI),
                               best_phi - _POLISH, best_phi + _POLISH, tol=1e-9)
    if value < best * (1.0 - _TIE):
        best_phi, best = x % TWO_PI, value
    return SensitivityPoint(best_phi, best)
