"""Phase-matching-condition families, regime boundaries and the phase-grid maximizer.

Three families of input phase relations each maximize the QFI in a region of
the (|alpha|, |beta|) plane; the boundary amplitudes below are the exact
crossing points of the corresponding closed-form QFI expressions.  The
squeezed-vacuum families are PMC1 and PMC2 named for beta = 0, and
:attr:`PmcSet.regime` alone maps each family to the one of these three whose
phase relations, QFI, asymptote and Heisenberg optima it uses.  The
brute-force grid maximizer over the three free phase differences, refined
with the lockstep grid of :func:`_minimize.grid_minimize` that the working-point
optimizer also uses, validates the analytic families.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._minimize import grid_minimize
from .errors import NumericalOverflow, UndefinedBoundary
from .fisher import pmc_qfis, qfi_closed_form
from .interferometer import CUBE_PORT0_ROTATION, BsConvention
from .states import TWO_PI, GaussianPort


class PmcSet(enum.Enum):
    """Optimal phase-assignment families, all referenced to theta_alpha."""

    PMC1 = "pmc1"                      # squeezers in anti-phase, coherents in phase
    PMC2 = "pmc2"                      # everything in phase (high-coherent optimum)
    PMC3 = "pmc3"                      # coherents pi/2 apart (low-coherent optimum)
    SQZVAC_OPTIMAL = "sqzvac_optimal"  # PMC1 named for beta = 0
    SQZVAC_WIDEBAND = "sqzvac_wideband"  # PMC2 named for beta = 0

    @property
    def regime(self) -> PmcSet:
        """The family of :data:`REGIME_FAMILIES` whose phases and closed forms this one uses."""
        return _SQZVAC_REGIMES.get(self, self)

    @property
    def row(self) -> int:
        """Index of :attr:`regime` into :data:`REGIME_FAMILIES` and the rows of ``pmc_qfis``."""
        return REGIME_FAMILIES.index(self.regime)


REGIME_FAMILIES = (PmcSet.PMC1, PmcSet.PMC2, PmcSet.PMC3)
_SQZVAC_REGIMES = {PmcSet.SQZVAC_OPTIMAL: PmcSet.PMC1, PmcSet.SQZVAC_WIDEBAND: PmcSet.PMC2}


def apply_pmc(pmc: PmcSet, theta_alpha: float, alpha: float, beta: float,
              r: float, z: float,
              convention: BsConvention = BsConvention.SYMMETRIC) -> tuple[GaussianPort, GaussianPort]:
    """Concrete (port1, port0) preparations satisfying the constraints of the family's regime.

    Under the cube convention the port-0 phases shift (squeeze phase by pi,
    displacement phase by pi/2) so that the same physical optimum is realized.
    """
    theta = 2.0 * theta_alpha
    theta_beta = theta_alpha
    regime = pmc.regime
    if regime is PmcSet.PMC1:
        phi_zeta = theta + math.pi
    elif regime is PmcSet.PMC2:
        phi_zeta = theta
    else:
        theta_beta = theta_alpha - 0.5 * math.pi
        phi_zeta = 2.0 * theta_beta

    if convention is BsConvention.CUBE:
        theta -= 2.0 * CUBE_PORT0_ROTATION
        theta_beta -= CUBE_PORT0_ROTATION

    port1 = GaussianPort.from_params(alpha, theta_alpha, z, phi_zeta)
    port0 = GaussianPort.from_params(beta, theta_beta, r, theta)
    return port1, port0


def single_mode_alpha_lim(z: float) -> float:
    """Amplitude above which the aligned-phase single-mode working point wins (beta = 0)."""
    c2z = math.cosh(2.0 * z)
    return math.sqrt(c2z + math.sqrt(4.0 * c2z ** 2 - 3.0)) / 2.0


_RADICAND_RTOL = 1e-14  # a negative radicand this small against its terms is rounding


@dataclass(frozen=True)
class RegimeBoundaries:
    """Limit amplitudes partitioning the (|alpha|, |beta|) plane at fixed r, z.

    ``alpha_13``/``alpha_23`` are the small-|beta| crossings of families 1/3
    and 2/3, ``alpha_circ`` the triple point where all three beta curves meet,
    and ``beta_12`` the (|alpha|-independent) crossing of families 1 and 2.
    ``beta_23``/``beta_13`` are curves over |alpha|, defined only where their
    radicands are non-negative; a radicand negative only by rounding counts
    as 0.
    """

    r: float
    z: float
    s_helper: float
    alpha_13: float
    alpha_23: float
    alpha_circ: float
    beta_12: float
    alpha_lim_single: float

    def beta_23(self, alpha: float) -> float:
        s2r, s2z = math.sinh(2.0 * self.r), math.sinh(2.0 * self.z)
        e2z = math.exp(2.0 * self.z)
        den = 4.0 * alpha ** 2 * e2z * math.cosh(self.r - self.z) ** 2 - s2r * s2z
        num = math.exp(-2.0 * self.r) * s2r * s2z * (self.s_helper + alpha ** 2 * e2z)
        if num == 0.0 and den > 0.0:
            return 0.0
        if den <= 0.0:
            raise UndefinedBoundary(
                f"beta_23 undefined at alpha={alpha}: radicand denominator {den:.3e} <= 0"
            )
        return math.sqrt(num / den)

    def beta_13(self, alpha: float) -> float:
        s2z = math.sinh(2.0 * self.z)
        if s2z == 0.0:
            raise UndefinedBoundary("beta_13 undefined for z = 0")
        e2r, e2z = math.exp(2.0 * self.r), math.exp(2.0 * self.z)
        factor = 2.0 * e2r * math.cosh(self.r - self.z) ** 2 / s2z - 1.0  # inf at a subnormal s2z
        lead = alpha ** 2 * factor if alpha else 0.0
        tail = self.s_helper / e2z
        radicand = lead - tail
        if radicand < 0.0:
            # at r = 0 the radicand vanishes at alpha_circ = alpha_13 and
            # rounds to about -1 ulp of its terms
            if -radicand > _RADICAND_RTOL * max(abs(lead), tail):
                raise UndefinedBoundary(
                    f"beta_13 undefined at alpha={alpha}: radicand {radicand:.3e} < 0"
                )
            radicand = 0.0
        return math.exp(self.z - self.r) * math.sqrt(radicand)


def boundaries(r: float, z: float) -> RegimeBoundaries:
    """Evaluate every closed-form limit amplitude at squeeze factors (r, z)."""
    if r < 0.0 or z < 0.0:
        raise ValueError("squeeze factors must be >= 0")
    try:
        s2r, s2z = math.sinh(2.0 * r), math.sinh(2.0 * z)
        e2r, e2z = math.exp(2.0 * r), math.exp(2.0 * z)
        s_helper = 0.5 * (s2r ** 2 + s2z ** 2)
        shared = e2r * (e2r + 2.0 * e2z) + 1.0

        alpha_13 = math.sqrt(2.0 * s_helper * s2z / shared)
        alpha_23 = math.exp(-z) * math.sqrt(s2r * s2z) / (2.0 * math.cosh(r - z))
        alpha_circ = math.sqrt(s2z * (e2r * s2r + 2.0 * s_helper) / shared)
        beta_12 = math.sqrt(0.5 * s2r)
        limits = RegimeBoundaries(
            r=r, z=z, s_helper=s_helper,
            alpha_13=alpha_13, alpha_23=alpha_23,
            alpha_circ=alpha_circ, beta_12=beta_12,
            alpha_lim_single=single_mode_alpha_lim(z),
        )
        # a product that overflows gives inf, and a quotient by an inf gives 0
        if not all(map(math.isfinite, (s_helper, shared, alpha_13, alpha_23, alpha_circ))):
            raise OverflowError
    except OverflowError:
        raise NumericalOverflow(f"the regime boundaries overflow at r = {r:g}, z = {z:g}") from None
    return limits


def regime_qfis(alpha, beta, r: float, z: float) -> tuple[np.ndarray, np.ndarray]:
    """Index into :data:`REGIME_FAMILIES` of the best family, and the stacked QFIs.

    ``alpha`` and ``beta`` are scalars or broadcastable arrays.  Direct value
    comparison rather than boundary-table lookups, so the edge orderings of
    the atlas (including alpha_23 > alpha_13 and r = z) come out right
    automatically.  ``argmax`` returns the first maximum, so exact ties
    resolve to PMC1 > PMC2 > PMC3.
    """
    values = pmc_qfis(alpha, beta, r, z)
    return np.argmax(values, axis=0), values


def classify(alpha: float, beta: float, r: float, z: float) -> PmcSet:
    """The family whose closed-form QFI is maximal at these magnitudes."""
    best, _ = regime_qfis(alpha, beta, r, z)
    return REGIME_FAMILIES[int(best)]


def grid_search_qfi(alpha: float, beta: float, r: float, z: float,
                    resolution: int = 32,
                    convention: BsConvention = BsConvention.SYMMETRIC,
                    ) -> tuple[tuple[float, float, float], float]:
    """Exhaustive QFI maximization over the three free phases, then refinement.

    theta_alpha is fixed to 0 (a joint rotation of all phases leaves the QFI
    unchanged); the lattice covers (theta, phi_zeta, theta_beta) in [0, 2pi)^3.
    Three rounds over the phases refine the best lattice point one phase at a
    time, by :func:`_minimize.grid_minimize` of the negated QFI.  Every value
    is the general-phase closed form of :func:`fisher.qfi_closed_form`, not
    the Gram factor.  Returns the refined best phase triple and its QFI.
    """
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    axis = np.linspace(0.0, TWO_PI, resolution, endpoint=False)

    best_val = -math.inf
    point = [0.0, 0.0, 0.0]
    pz = axis[:, None]
    tb = axis[None, :]
    for th in axis:  # slab over theta keeps memory flat
        vals = qfi_closed_form(alpha, beta, r, z, convention=convention,
                               theta=th, phi_zeta=pz, theta_beta=tb)
        k = int(np.argmax(vals))
        if vals.flat[k] > best_val:
            best_val = float(vals.flat[k])
            point = [float(th), float(axis[k // resolution]), float(axis[k % resolution])]

    for _ in range(3):  # coordinate-wise refinement within one lattice step
        for i in range(3):
            def neg(trial, i=i):
                theta, phi_zeta, theta_beta = point[:i] + [trial] + point[i + 1:]
                return -qfi_closed_form(alpha, beta, r, z, convention=convention, theta=theta,
                                        phi_zeta=phi_zeta, theta_beta=theta_beta)

            # nine levels, each 16-fold, from one lattice step (<= 2 pi / 8): below 1e-10 rad
            (point[i],), (low,) = grid_minimize(neg, [point[i]], TWO_PI / resolution, 9)
    phases = tuple(float(x % TWO_PI) for x in point)
    return phases, -float(low)
