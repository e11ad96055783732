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
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from ._minimize import grid_minimize
from .errors import FlatObjective, NumericalOverflow
from .interferometer import MziScenario
from .states import TWO_PI, drop_residue, quadrature_noise


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

    def __post_init__(self):
        if self.local_phase is not None and not math.isfinite(self.local_phase):
            raise ValueError(f"local_phase must be finite, got {self.local_phase!r}")


DetectionScheme = Union[DifferenceIntensity, SingleModeIntensity, Homodyne]


@dataclass(frozen=True)
class SensitivityPoint:
    phase: float
    delta_phi: float  # +inf marks an undefined sensitivity at this phase

    def __post_init__(self):
        _check_positive(np.array([self.delta_phi]))


def _terms(schemes, scenario: MziScenario) -> list[tuple]:
    """The phase-independent constants of each scheme's mean, variance and slope.

    The intensity schemes hold the same Gram column objects, so that the Gram
    rows of one :class:`_Phases` serve them all.
    """
    p0, p1 = scenario.folded_moments
    gram = None
    out = []
    for scheme in schemes:
        if isinstance(scheme, Homodyne):
            phi_l = scheme.local_phase
            if phi_l is None:
                phi_l = scenario.port1.displacement.phase
            rot = cmath.exp(-1j * phi_l)
            # a port's quadrature variance at angle phi_l is a quarter of its noise along e^{i phi_l}
            q0, q1 = (0.25 * (root * root + (axis * rot.conjugate()).imag ** 2)
                      for root, axis in map(quadrature_noise, (p0, p1)))
            quad0, quad1 = (drop_residue((rot * p.mean_a).real, abs(p.mean_a)) for p in (p0, p1))
            out.append((quad0, quad1, q0, q1))
            continue
        if gram is None:
            (along_n, along_x, _, along_z), (total, jx, _, jz) = scenario.factor
            gram = along_n, along_z, along_x
        if isinstance(scheme, DifferenceIntensity):
            # n5 - n4 = cos(phi) Jz + sin(phi) Jx, and n4 + n5 = N is conserved
            out.append((*gram, jz, jx, total))
        else:
            # -2 n4 = cos(phi) Jz + sin(phi) Jx - N; the mean comes from the port-4 amplitude
            out.append((*gram, 0.5 * jz, 0.5 * jx, p0.mean_a, p1.mean_a, p0.dn, p1.dn))
    return out


def _excess(efficiency):
    """Loss excess (1 - eta)/eta: the detector noise added to the ideal observable."""
    with np.errstate(over="ignore"):  # an infinite excess makes the variance raise
        return (1.0 - efficiency) / efficiency


class _Phases:
    """Phases and their trigonometry, computed once for every scheme evaluated at them.

    One instance serves one scenario, or one stack of scenarios: the Gram rows
    are kept for the next scheme that asks with the same two columns.
    """

    def __init__(self, phi):
        self.phi = phi
        self._gram = None

    @functools.cached_property
    def full(self):
        """(cos phi, sin phi)."""
        return np.cos(self.phi), np.sin(self.phi)

    @functools.cached_property
    def half(self):
        """(sin phi/2, cos phi/2)."""
        half = 0.5 * self.phi
        return np.sin(half), np.cos(half)

    def gram(self, along_z, along_x):
        """The rows cos(phi) F_z + sin(phi) F_x of the Gram factor."""
        if self._gram is None or self._gram[0] is not along_z or self._gram[1] is not along_x:
            cos, sin = self.full
            self._gram = along_z, along_x, cos[..., None] * along_z + sin[..., None] * along_x
        return self._gram[2]


def _kernel(scheme: DetectionScheme, terms, at: _Phases, excess):
    """Mean, variance with detector loss and |d<A>/dphi| at the phases of ``at``.

    ``terms`` are the constants of :func:`_terms`, as floats (vectors of the
    Gram factor) or stacked as ``(rows, 1)`` (``(rows, 1, 11)``); they broadcast
    against the phases and ``excess``.  Mean and variance are those of the ideal
    observable; the slope scales out of Delta phi, so loss only adds variance.
    Callers run it with overflow and invalid values ignored, and pass the
    variance to :func:`_check_finite`.
    """
    if isinstance(scheme, Homodyne):
        quad0, quad1, qvar0, qvar1 = terms
        sin_half, cos_half = at.half
        mean = -sin_half * quad0 + cos_half * quad1
        slope = 0.5 * np.abs(cos_half * quad0 + sin_half * quad1)
        var = sin_half ** 2 * qvar0 + cos_half ** 2 * qvar1 + 0.25 * excess
        return mean, var, slope
    # each count is +-(cos(phi) Jz + sin(phi) Jx - c N) / w over (N, Jx, Jy, Jz), with
    # variance |F (.)|^2 / w^2, a sum of squares, and a slope read from the means <J>
    along_n, along_z, along_x, split, cross, *rest = terms
    cos, sin = at.full
    rows = at.gram(along_z, along_x)
    slope = np.abs(sin * split - cos * cross)
    if isinstance(scheme, DifferenceIntensity):
        mean = -(cos * split) - sin * cross
        detected, weight = rest[0], 1.0
    else:
        # port 4 is cos(phi/2) a1 - sin(phi/2) a0, with amplitude u: taking u itself,
        # not |u|^2 written out, keeps the digits of the mean next to a dark fringe,
        # where the terms of |u|^2 cancel
        rows = rows - along_n  # a new array: the Gram rows are shared
        mean0, mean1, dn0, dn1 = rest
        sin_half, cos_half = at.half
        u = cos_half * mean1 - sin_half * mean0
        mean = u.real ** 2 + u.imag ** 2 + (sin_half ** 2 * dn0 + cos_half ** 2 * dn1)
        detected, weight = mean, 0.25
    var = weight * np.einsum("...i,...i->...", rows, rows) + excess * detected
    return mean, var, slope


def _check_finite(var) -> None:
    """Raise where a variance overflowed: inf, or nan from an infinite loss term times 0."""
    if var.size and not math.isfinite(var.max()):
        raise NumericalOverflow("a detection variance overflows")


def _evaluate(schemes, terms, at: _Phases, excess) -> np.ndarray:
    """Mean, variance and slope of every scheme on one scenario, as a (3, len(schemes), ...) array."""
    out = np.empty((3, len(schemes), *np.broadcast(at.phi, excess).shape))
    with np.errstate(over="ignore", invalid="ignore"):  # a variance that overflows raises below
        for k, (scheme, scheme_terms) in enumerate(zip(schemes, terms)):
            out[0, k], out[1, k], out[2, k] = _kernel(scheme, scheme_terms, at, excess)
    _check_finite(out[1])
    return out


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


def observable_stats(schemes, scenario: MziScenario, phases):
    """Means and variances of every scheme's ideal observable at each of ``phases``.

    Both are ``(len(schemes), ...)`` arrays from one pass, as in
    :func:`sensitivities`; row ``k`` is that of ``schemes[k]``.  The variance
    includes detector loss, in units of the ideal observable.
    """
    mean, var, _ = _evaluate(schemes, _terms(schemes, scenario),
                             _Phases(np.asarray(phases, dtype=float)), _excess(scenario.efficiency))
    return mean, var


def sensitivities(schemes, scenario: MziScenario, phases, efficiencies=None) -> np.ndarray:
    """Delta phi of every scheme at each of ``phases``, broadcast against ``efficiencies``.

    The result is a ``(len(schemes), ...)`` array from one pass: row ``k`` is
    that of ``schemes[k]``, and the phase trigonometry and Gram rows are
    computed once for all rows.  Without ``efficiencies`` the scenario's
    efficiency holds throughout.  A value that is neither positive nor +inf
    raises like :class:`SensitivityPoint`.
    """
    excess = _excess(scenario.efficiency if efficiencies is None
                     else np.asarray(efficiencies, dtype=float))
    _, var, slope = _evaluate(schemes, _terms(schemes, scenario),
                              _Phases(np.asarray(phases, dtype=float)), excess)
    values = _delta_phi(var, slope)
    _check_positive(values)
    return values


def observable_mean(scheme: DetectionScheme, scenario: MziScenario) -> float:
    """Mean of the ideal (lossless) observable at the scenario phase."""
    return float(observable_stats([scheme], scenario, [scenario.phase])[0][0, 0])


def observable_variance(scheme: DetectionScheme, scenario: MziScenario) -> float:
    """Variance at the scenario phase, detector loss included, in units of the ideal observable."""
    return float(observable_stats([scheme], scenario, [scenario.phase])[1][0, 0])


def sensitivity(scheme: DetectionScheme, scenario: MziScenario) -> SensitivityPoint:
    """Delta phi = sqrt(variance) / |slope| at the scenario phase and efficiency."""
    return SensitivityPoint(scenario.phase,
                            float(sensitivities([scheme], scenario, scenario.phase)[0]))


# --- optimal working points ---------------------------------------------------

_SAMPLES = 16   # phases sampled per optimum; variance and slope^2 have degree <= 2 in phi
_PHASES = np.arange(_SAMPLES) * (TWO_PI / _SAMPLES)
_ORDERS = np.arange(-2, 3)
_WEIGHTS = 1j * (_ORDERS[:, None] - _ORDERS)  # i (j - k) for V's order j and Q's order k
_TRIM = 1e-12   # stationarity coefficients at or below this share of the largest are rounding
_TIE = 1e-12    # a candidate must be lower by more than this relative margin to win
_POLISH = 1e-3  # half-width in rad of the refinement window around the winner
_LEVELS = 7     # refinement levels; each shrinks the window 16-fold, to 3.7e-12 rad spacing
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
    go to one stacked ``numpy.linalg.eigvals``.  A row with no root gets the
    one candidate phase 0.  A row with fewer phases than the widest is padded
    with copies of its own first phase: judged by the strict tie margin of
    :func:`_working_points`, a copy of an earlier candidate never wins.
    """
    nonzero = coeffs != 0.0
    width = coeffs.shape[1]
    low = nonzero.argmax(axis=1)
    high = np.where(nonzero.any(axis=1), width - 1 - nonzero[:, ::-1].argmax(axis=1), 0)
    spans = set(zip(low.tolist(), high.tolist()))
    out = np.zeros((coeffs.shape[0], high.max(initial=1)))  # hi - lo roots and lo zeros a row
    for lo, hi in spans:
        rows = np.flatnonzero((low == lo) & (high == hi))
        degree = hi - lo
        if not hi:  # no root: the one candidate, phase 0, and its padding are zeros
            continue
        roots = np.zeros((rows.size, hi), dtype=complex)
        if degree:
            poly = coeffs[rows, hi::-1][:, :degree + 1]   # highest order first
            companion = np.zeros((rows.size, degree, degree), dtype=complex)
            companion[:, 1:, :-1] = np.eye(degree - 1)
            companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
            roots[:, :degree] = np.linalg.eigvals(companion)
        phases = np.sort(np.angle(roots) % TWO_PI, axis=1)
        out[rows, :hi] = phases
        out[rows, hi:] = phases[:, :1]
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


def _working_points(schemes, scenarios):
    """(phase, Delta phi, flat) of every scheme on every scenario, as flat arrays.

    The results have one block of ``len(scenarios)`` rows per scheme.  Only
    the kernel passes go scheme by scheme, each on :func:`_stacked` constants;
    every other stage runs once over all rows, but the grid polish, which runs
    once over the single-mode rows, if any.  Rows whose mean carries no phase
    dependence are marked flat: their one candidate, phase 0, is +inf.
    """
    rows = len(scenarios)
    stacks, excess = _stacked(schemes, scenarios)
    parts = list(zip(schemes, stacks))

    def sample(parts, phi):
        """Variance and slope of the blocks of rows of ``parts``, each row at its own phases ``phi``."""
        var, slope = np.empty(phi.shape), np.empty(phi.shape)
        with np.errstate(over="ignore", invalid="ignore"):  # a variance that overflows raises below
            for k, (scheme, terms) in enumerate(parts):
                block = slice(k * rows, (k + 1) * rows)
                _, var[block], slope[block] = _kernel(scheme, terms, _Phases(phi[block]), excess)
        _check_finite(var)
        return var, slope

    var, slope = sample(parts, np.broadcast_to(_PHASES, (len(schemes) * rows, _SAMPLES)))
    flat = ~slope.any(axis=1)
    # V'Q - VQ' keeps its roots when V and Q are scaled: a power of two per row is
    # exact, and keeps the product of a large variance and slope^2 from overflowing
    var = np.ldexp(var, -np.frexp(var.max(axis=1, keepdims=True))[1])
    slope = np.ldexp(slope, -np.frexp(slope.max(axis=1, keepdims=True))[1])
    v = np.fft.fft(var)[:, _ORDERS] / _SAMPLES
    q = np.fft.fft(slope ** 2)[:, _ORDERS] / _SAMPLES
    stationary = _stationarity(v, q)
    size = np.abs(stationary)
    stationary[size <= _TRIM * size.max(axis=1, keepdims=True)] = 0.0
    candidates = _root_phases(stationary)
    single = [k for k, scheme in enumerate(schemes) if isinstance(scheme, SingleModeIntensity)]
    for k in single:
        # a root on a dark fringe is judged just beside it, where the value keeps its digits
        block = slice(k * rows, (k + 1) * rows)
        roots = candidates[block]
        candidates[block] = np.where(_dark_fringe(stacks[k], roots), (roots + _NUDGE) % TWO_PI, roots)
    values = _delta_phi(*sample(parts, candidates))

    # the candidates are sorted, so a later one must be lower by more than the tie margin
    best_phi, best_value = np.zeros(flat.size), np.full(flat.size, math.inf)
    for phi, value in zip(candidates.T, values.T):
        wins = value < best_value * (1.0 - _TIE)
        best_phi = np.where(wins, phi, best_phi)
        best_value = np.where(wins, value, best_value)
    if not single:
        return best_phi, best_value, flat

    # lockstep grid refinement around the single-mode winners, kept where it is lower:
    # next to a dark fringe their value is a rounded 0/0.  A df or homodyne quotient
    # has none, and a root off by 1e-8 rad moves it by about 1e-16, inside the tie margin
    polished = [parts[k] for k in single]
    picked = np.concatenate([np.arange(k * rows, (k + 1) * rows) for k in single])

    def objective(trial):
        trial_values = _delta_phi(*sample(polished, trial % TWO_PI))
        for k, (_, terms) in enumerate(polished):
            block = slice(k * rows, (k + 1) * rows)
            trial_values[block][_dark_fringe(terms, trial[block])] = math.inf
        return trial_values

    center, low = grid_minimize(objective, best_phi[picked], _POLISH, _LEVELS)
    wins = low < best_value[picked] * (1.0 - _TIE)
    best_phi[picked[wins]] = center[wins] % TWO_PI
    best_value[picked[wins]] = low[wins]
    return best_phi, best_value, flat


def _stacked(schemes, scenarios):
    """Constants of every scheme on several scenarios as (rows, 1) arrays, and the loss excess."""
    per_scenario = [_terms(schemes, scenario) for scenario in scenarios]
    stacks = [[np.array(column)[:, None] for column in zip(*(terms[k] for terms in per_scenario))]
              for k in range(len(schemes))]
    return stacks, _excess(np.array([[scenario.efficiency] for scenario in scenarios]))


def working_points(schemes, scenarios) -> tuple[np.ndarray, np.ndarray]:
    """Optimal phases and Delta phi of every scheme on many scenarios, in one pass.

    Both results are ``(len(schemes), len(scenarios))`` arrays; entry
    ``[k, j]`` is ``optimal_working_point(schemes[k], scenarios[j])``.  A
    scenario without any phase dependence gets its own phase and +inf, as
    :func:`optimal_working_point` would raise ``FlatObjective`` for it.
    """
    phase, values, flat = _working_points(schemes, scenarios)
    phase[flat] = np.tile([scenario.phase for scenario in scenarios], len(schemes))[flat]
    _check_positive(values)
    shape = (len(schemes), len(scenarios))
    return phase.reshape(shape), values.reshape(shape)


def optimal_working_point(scheme: DetectionScheme, scenario: MziScenario) -> SensitivityPoint:
    """Best (phi_opt, Delta phi) over the free internal phase, detector loss included.

    Delta phi^2 = V / Q with V the variance and Q the squared slope of the
    mean, both trigonometric polynomials of degree <= 2 in phi.  Their
    coefficients come from 16 samples; the stationarity condition
    V'Q - VQ' = 0 is then a polynomial of degree 8 in e^{i phi}, and the phase
    of each root is judged with the closed form ``sensitivity`` uses.  Among
    near-equal candidates the lowest phase wins.  This is the one-row view of
    :func:`working_points`.

    Next to a dark fringe the single-mode Delta phi is a 0/0 quotient whose
    digits the rounding of the port-4 amplitude eats: there a root is judged
    4e-5 rad aside.  A grid refinement around the single-mode winner then
    polishes its last digits, skipping such phases, and is kept where it is
    lower by more than the tie margin.  The difference and homodyne winners
    are not refined: their quotient has no such 0/0, so at a simple minimum a
    root off by 1e-8 rad moves the value by about 1e-16, and a refinement
    never won there.

    How the single-mode optimum approaches exp(-r)/|alpha| is set out at
    ``SingleModeIntensity`` (8.0 times above at |alpha| = 1e3, r = 2.3, z = 2.2).
    """
    phase, values, flat = _working_points([scheme], [scenario])
    if flat[0]:
        raise FlatObjective("the mean carries no phase dependence")
    return SensitivityPoint(float(phase[0]), float(values[0]))
