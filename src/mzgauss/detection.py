"""Means, variances, sensitivities and working points of the detection schemes.

Three realistic read-outs of the interferometer are modeled: the photocurrent
difference between both output ports, the intensity of output port 4 alone,
and balanced homodyne detection of the port-4 quadrature.  One kernel gives
every quantity over arrays of phases (and of stacked scenarios); the scalar
functions are its one-element views.  Both photon counts are combinations x of
N, Jx and Jz: their variance is |F x|^2 over the scenario's Gram factor F
(:func:`states.number_factor`) and their slope comes from the means of the
four.  Homodyne reads each port's noise from :func:`states.quadrature_noise`.
The cube beam-splitter convention enters as a phase rotation of port 0.

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

from .errors import FlatObjective, NumericalOverflow
from .interferometer import MziScenario
from .states import TWO_PI, quadrature_noise


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
        _check_positive(np.array([self.delta_phi]))


def _terms(scheme: DetectionScheme, scenario: MziScenario) -> tuple:
    """The phase-independent constants of a scheme's mean, variance and slope."""
    if isinstance(scheme, Homodyne):
        p0, p1 = scenario.folded_moments
        phi_l = scheme.local_phase
        if phi_l is None:
            phi_l = scenario.port1.displacement.phase
        rot = cmath.exp(-1j * phi_l)
        # a port's quadrature variance at angle phi_l is a quarter of its noise along e^{i phi_l}
        q0, q1 = (0.25 * (root * root + (axis * rot.conjugate()).imag ** 2)
                  for root, axis in map(quadrature_noise, (p0, p1)))
        return (rot * p0.mean_a).real, (rot * p1.mean_a).real, q0, q1
    columns, (total, jx, _, jz) = scenario.factor
    if isinstance(scheme, DifferenceIntensity):
        # n5 - n4 = cos(phi) Jz + sin(phi) Jx, and n4 + n5 = N is conserved
        return columns[0], columns[3], columns[1], jz, jx, total
    # -2 n4 = cos(phi) Jz + sin(phi) Jx - N; the mean comes from the port-4 amplitude
    p0, p1 = scenario.folded_moments
    return (columns[0], columns[3], columns[1], 0.5 * jz, 0.5 * jx,
            p0.mean_a, p1.mean_a, p0.dn, p1.dn)


def _excess(efficiency):
    """Loss excess (1 - eta)/eta: the detector noise added to the ideal observable."""
    return (1.0 - efficiency) / efficiency


def _kernel(scheme: DetectionScheme, terms, phi, excess):
    """Mean, variance with detector loss and |d<A>/dphi| at the phases ``phi``.

    ``terms`` are the constants of :func:`_terms`, as floats (vectors of the
    Gram factor) or stacked as ``(rows, 1)`` (``(rows, 1, 11)``); they broadcast
    against ``phi`` and ``excess``.  Mean and variance are those of the ideal
    observable; the slope scales out of Delta phi, so loss only adds variance.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a variance that overflows raises below
        if isinstance(scheme, Homodyne):
            quad0, quad1, qvar0, qvar1 = terms
            half = 0.5 * phi
            sin_half, cos_half = np.sin(half), np.cos(half)
            mean = -sin_half * quad0 + cos_half * quad1
            slope = 0.5 * np.abs(cos_half * quad0 + sin_half * quad1)
            var = sin_half ** 2 * qvar0 + cos_half ** 2 * qvar1 + 0.25 * excess
        else:
            # each count is +-(cos(phi) Jz + sin(phi) Jx - c N) / w over (N, Jx, Jy, Jz), with
            # variance |F (.)|^2 / w^2, a sum of squares, and a slope read from the means <J>
            along_n, along_z, along_x, split, cross, *rest = terms
            cos, sin = np.cos(phi), np.sin(phi)
            rows = cos[..., None] * along_z + sin[..., None] * along_x
            slope = np.abs(sin * split - cos * cross)
            if isinstance(scheme, DifferenceIntensity):
                mean = -(cos * split) - sin * cross
                detected, weight = rest[0], 1.0
            else:
                # port 4 is cos(phi/2) a1 - sin(phi/2) a0, with amplitude u: taking u itself,
                # not |u|^2 written out, keeps the digits of the mean next to a dark fringe,
                # where the terms of |u|^2 cancel
                rows -= along_n
                mean0, mean1, dn0, dn1 = rest
                half = 0.5 * phi
                sin_half, cos_half = np.sin(half), np.cos(half)
                u = cos_half * mean1 - sin_half * mean0
                mean = u.real ** 2 + u.imag ** 2 + (sin_half ** 2 * dn0 + cos_half ** 2 * dn1)
                detected, weight = mean, 0.25
            var = weight * np.einsum("...i,...i->...", rows, rows) + excess * detected
    if not math.isfinite(var.max()):  # inf, or nan from an infinite loss term times 0
        raise NumericalOverflow("a detection variance overflows")
    return mean, var, slope


def _delta_phi(var, slope):
    """sqrt(var)/slope, +inf where the slope vanishes or the quotient rounds to 0.

    A zero Delta phi would beat every quantum bound: it is a rounded 0/0, as on
    the dark fringe of coherent inputs or where the variance underflows.
    """
    with np.errstate(over="ignore"):  # a quotient that overflows is the +inf marker already
        values = np.divide(np.sqrt(var), slope, out=np.full(np.shape(var), math.inf),
                           where=slope != 0.0)
    values[values == 0.0] = math.inf
    return values


def _check_positive(values) -> None:
    """The :class:`SensitivityPoint` contract for arrays: every value is positive or +inf."""
    bad = ~((values > 0.0) | np.isinf(values))
    if bad.any():
        raise ValueError(f"delta_phi must be positive or +inf, got {float(values[bad][0])}")


def observable_stats(scheme: DetectionScheme, scenario: MziScenario, phases):
    """Means and variances of the ideal observable at each of ``phases``, as arrays.

    The variance includes detector loss, in units of the ideal observable.
    """
    mean, var, _ = _kernel(scheme, _terms(scheme, scenario), np.asarray(phases, dtype=float),
                           _excess(scenario.efficiency))
    return mean, var


def sensitivities(scheme: DetectionScheme, scenario: MziScenario, phases,
                  efficiencies=None) -> np.ndarray:
    """Delta phi at each of ``phases``, broadcast against ``efficiencies``.

    Without ``efficiencies`` the scenario's efficiency holds throughout.  A
    value that is neither positive nor +inf raises like :class:`SensitivityPoint`.
    """
    phases = np.asarray(phases, dtype=float)
    excess = _excess(scenario.efficiency if efficiencies is None
                     else np.asarray(efficiencies, dtype=float))
    _, var, slope = _kernel(scheme, _terms(scheme, scenario), phases, excess)
    values = _delta_phi(var, slope)
    _check_positive(values)
    return values


def observable_mean(scheme: DetectionScheme, scenario: MziScenario) -> float:
    """Mean of the ideal (lossless) observable at the scenario phase."""
    return float(observable_stats(scheme, scenario, [scenario.phase])[0][0])


def observable_variance(scheme: DetectionScheme, scenario: MziScenario) -> float:
    """Variance at the scenario phase, detector loss included, in units of the ideal observable."""
    return float(observable_stats(scheme, scenario, [scenario.phase])[1][0])


def sensitivity(scheme: DetectionScheme, scenario: MziScenario) -> SensitivityPoint:
    """Delta phi = sqrt(variance) / |slope| at the scenario phase and efficiency."""
    return SensitivityPoint(scenario.phase,
                            float(sensitivities(scheme, scenario, [scenario.phase])[0]))


# --- optimal working points ---------------------------------------------------

_SAMPLES = 16   # phases sampled per optimum; variance and slope^2 have degree <= 2 in phi
_PHASES = np.arange(_SAMPLES) * (TWO_PI / _SAMPLES)
_ORDERS = np.arange(-2, 3)
_WEIGHTS = 1j * (_ORDERS[:, None] - _ORDERS)  # i (j - k) for V's order j and Q's order k
_TRIM = 1e-12   # stationarity coefficients at or below this share of the largest are rounding
_TIE = 1e-12    # a candidate must be lower by more than this relative margin to win
_POLISH = 1e-3  # half-width in rad of the refinement window around the winner
_LEVELS = 7     # refinement levels; each shrinks the window 16-fold, to 3.7e-12 rad spacing
_OFFSETS = np.arange(-16, 17) / 16.0  # grid of one level, in units of its half-width
_FRINGE = 1e-5  # a port-4 amplitude below this share of its terms has cancelled
_NUDGE = 4e-5   # rad from a dark-fringe root to where its value is judged


def _stationarity(v, q):
    """Coefficients of e^{i n phi}, n = -4..4, of V'Q - VQ' from those of V and Q (n = -2..2).

    The product of e^{i j phi} in V and e^{i k phi} in Q enters with i (j - k),
    so the n = +-4 coefficients vanish identically.
    """
    out = np.zeros((v.shape[0], 9), dtype=complex)
    for j, weight in enumerate(_WEIGHTS):
        out[:, j:j + 5] += v[:, j:j + 1] * (weight * q)
    return out


def _root_phases(coeffs):
    """Sorted phases of the roots of sum_n coeffs[:, n + 4] e^{i n phi}, one row each.

    Per row this is ``numpy.roots`` on the coefficients of z^8 ... z^0: a zero
    low-order coefficient adds a root at 0, i.e. phase 0.  Rows are grouped by
    their span of non-zero coefficients, and each group's companion matrices
    go to one stacked ``numpy.linalg.eigvals``.  Rows with no root get the
    sample phases.  Shorter rows are padded with NaN, which never wins.
    """
    nonzero = coeffs != 0.0
    width = coeffs.shape[1]
    low = nonzero.argmax(axis=1)
    high = np.where(nonzero.any(axis=1), width - 1 - nonzero[:, ::-1].argmax(axis=1), 0)
    spans = set(zip(low.tolist(), high.tolist()))
    columns = max(hi if hi else _SAMPLES for _, hi in spans)  # hi - lo roots and lo zeros
    out = np.full((coeffs.shape[0], columns), np.nan)
    for lo, hi in spans:
        rows = np.flatnonzero((low == lo) & (high == hi))
        degree = hi - lo
        if degree + lo == 0:
            out[rows, :_SAMPLES] = _PHASES
            continue
        roots = np.zeros((rows.size, degree + lo), dtype=complex)
        if degree:
            poly = coeffs[rows, hi::-1][:, :degree + 1]   # highest order first
            companion = np.zeros((rows.size, degree, degree), dtype=complex)
            companion[:, 1:, :-1] = np.eye(degree - 1)
            companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
            roots[:, :degree] = np.linalg.eigvals(companion)
        out[rows, :degree + lo] = np.sort(np.angle(roots) % TWO_PI, axis=1)
    return out


def _dark_fringe(terms, phi):
    """Where the single-mode Delta phi is a rounded 0/0, next to a dark fringe.

    There the port-4 amplitude u = cos(phi/2) a1 - sin(phi/2) a0 keeps fewer
    than 11 of its 16 digits, and so do the variance and the slope; searching
    such phases would pick out rounding noise.  ``terms`` are the
    single-mode constants of :func:`_terms`.
    """
    mean0, mean1 = terms[5:7]
    half = 0.5 * phi
    cos_half, sin_half = np.cos(half), np.sin(half)
    size = np.abs(cos_half * np.abs(mean1)) + np.abs(sin_half * np.abs(mean0))
    return np.abs(cos_half * mean1 - sin_half * mean0) < _FRINGE * size


def _working_points(scheme: DetectionScheme, terms, excess):
    """(phase, Delta phi, flat) of stacked scenarios; ``terms`` and ``excess`` are (rows, 1).

    Rows whose mean carries no phase dependence are marked flat, with +inf.
    """
    _, var, slope = _kernel(scheme, terms, _PHASES, excess)
    flat = ~slope.any(axis=1)
    phase = np.zeros(flat.shape)
    best = np.full(flat.shape, math.inf)
    live = np.flatnonzero(~flat)
    if not live.size:
        return phase, best, flat
    terms = [t[live] for t in terms]
    excess = excess[live]
    v = np.fft.fft(var[live])[:, _ORDERS] / _SAMPLES
    q = np.fft.fft(slope[live] ** 2)[:, _ORDERS] / _SAMPLES
    stationary = _stationarity(v, q)
    size = np.abs(stationary)
    stationary[size <= _TRIM * size.max(axis=1, keepdims=True)] = 0.0
    candidates = _root_phases(stationary)
    if isinstance(scheme, SingleModeIntensity):
        # a root on a dark fringe is judged just beside it, where the value keeps its digits
        candidates = np.where(_dark_fringe(terms, candidates), (candidates + _NUDGE) % TWO_PI,
                              candidates)
    values = _delta_phi(*_kernel(scheme, terms, candidates, excess)[1:])

    # the candidates are sorted, so a later one must be lower by more than the tie margin
    best_phi, best_value = np.zeros(live.size), np.full(live.size, math.inf)
    for phi, value in zip(candidates.T, values.T):
        wins = value < best_value * (1.0 - _TIE)
        best_phi = np.where(wins, phi, best_phi)
        best_value = np.where(wins, value, best_value)

    # lockstep grid refinement around every winner, kept where it is lower
    center, low, half = best_phi, best_value, _POLISH
    rows = np.arange(live.size)
    for _ in range(_LEVELS):
        trial = center[:, None] + half * _OFFSETS
        trial_values = _delta_phi(*_kernel(scheme, terms, trial % TWO_PI, excess)[1:])
        if isinstance(scheme, SingleModeIntensity):
            trial_values[_dark_fringe(terms, trial)] = math.inf
        pick = trial_values.argmin(axis=1)
        center, low = trial[rows, pick], trial_values[rows, pick]
        half /= 16.0
    wins = low < best_value * (1.0 - _TIE)
    phase[live] = np.where(wins, center % TWO_PI, best_phi)
    best[live] = np.where(wins, low, best_value)
    return phase, best, flat


def _stacked(scheme: DetectionScheme, scenarios):
    """Constants and loss excess of several scenarios as (rows, 1) arrays."""
    columns = zip(*(_terms(scheme, scenario) for scenario in scenarios))
    excess = _excess(np.array([[scenario.efficiency] for scenario in scenarios]))
    return [np.array(column)[:, None] for column in columns], excess


def working_points(scheme: DetectionScheme, scenarios) -> tuple[np.ndarray, np.ndarray]:
    """Optimal phases and Delta phi of many scenarios in one pass.

    A scenario without any phase dependence gets its own phase and +inf, as
    :func:`optimal_working_point` would raise ``FlatObjective`` for it.
    """
    phase, values, flat = _working_points(scheme, *_stacked(scheme, scenarios))
    phase[flat] = [scenario.phase for scenario, f in zip(scenarios, flat) if f]
    _check_positive(values)
    return phase, values


def optimal_working_point(scheme: DetectionScheme, scenario: MziScenario) -> SensitivityPoint:
    """Best (phi_opt, Delta phi) over the free internal phase, detector loss included.

    Delta phi^2 = V / Q with V the variance and Q the squared slope of the
    mean, both trigonometric polynomials of degree <= 2 in phi.  Their
    coefficients come from 16 samples; the stationarity condition
    V'Q - VQ' = 0 is then a polynomial of degree 8 in e^{i phi}, and the phase
    of each root is judged with the closed form ``sensitivity`` uses.  Among
    near-equal candidates the lowest phase wins; a grid refinement around the
    winner polishes the last digits where the root is imprecise.  This is the
    one-row view of :func:`working_points`.

    Next to a dark fringe the single-mode Delta phi is a 0/0 quotient whose
    digits the rounding of the port-4 amplitude eats: there a root is judged
    4e-5 rad aside, and the refinement skips such phases.

    How the single-mode optimum approaches exp(-r)/|alpha| is set out at
    ``SingleModeIntensity`` (8.0 times above at |alpha| = 1e3, r = 2.3, z = 2.2).
    """
    phase, values, flat = _working_points(scheme, *_stacked(scheme, [scenario]))
    if flat[0]:
        raise FlatObjective("the mean carries no phase dependence")
    return SensitivityPoint(float(phase[0]), float(values[0]))
