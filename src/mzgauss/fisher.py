"""Two-parameter Fisher information, QFI and the Cramer-Rao bound.

The generic path reads everything off the Gram factor F of the two ports'
photon-number covariance (:func:`states.number_factor`), with columns
n = F e_N and y = F e_y: F_ss = |n|^2 = Var N, F_dd = |y|^2 = Var Jy and
F_sd = +-n.y = +-Cov(N, Jy).  The QFI F_dd - F_sd^2/F_ss is the squared
part of y across n, read as a sum of squared 2x2 minors, so F_dd is never
cancelled against F_sd^2/F_ss.  The closed-form path re-expresses the same
elements through the published general-phase forms and the optimal
phase-matching families; both must agree to 1e-10 and are tested against the
truncated Fock oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveInformation, NumericalOverflow
from .interferometer import BsConvention, MziScenario

# sign of F_sd against Cov(N, Jy) of the folded ports: the conventions label the arms oppositely
_SD_SIGN = {BsConvention.SYMMETRIC: -1.0, BsConvention.CUBE: 1.0}


@dataclass(frozen=True)
class FisherMatrix:
    """Elements of the 2x2 matrix over the sum/difference phase parameters."""

    f_ss: float
    f_dd: float
    f_sd: float


def fisher_matrix(scenario: MziScenario) -> FisherMatrix:
    """Fisher matrix of the scenario; the internal phase and efficiency do not enter.

    An element that overflows raises ``NumericalOverflow``.
    """
    columns, _ = scenario.factor
    pair = columns[0:3:2]  # the columns of N and Jy
    with np.errstate(over="ignore"):  # checked below
        (f_ss, f_sd), (_, f_dd) = (pair @ pair.T).tolist()
    f_sd = _SD_SIGN[scenario.convention] * f_sd + 0.0  # + 0.0: never -0
    if not math.isfinite(max(f_ss, f_dd)):  # then |f_sd| <= sqrt(f_ss f_dd) is finite too
        raise NumericalOverflow(f"the Fisher matrix overflows: f_ss = {f_ss:g}, f_dd = {f_dd:g}")
    return FisherMatrix(f_ss=f_ss, f_dd=f_dd, f_sd=f_sd)


def qfi(scenario: MziScenario) -> float:
    """Difference-parameter quantum Fisher information F_dd - F_sd^2 / F_ss.

    With the columns n = F e_N and y = F e_y of ``scenario.factor`` and
    n^ = n / |n|, the Lagrange identity gives
    F_dd - F_sd^2/F_ss = sum_{i<j} (n^_i y_j - n^_j y_i)^2: a sum of squares,
    each at most F_dd, so it is never negative and F_dd is never cancelled
    against F_sd^2/F_ss.  |n| = 0 only for two vacua, where the QFI is 0.  A
    QFI that overflows raises ``NumericalOverflow``.
    """
    columns, _ = scenario.factor
    n, y = columns[0], columns[2]
    size = math.hypot(*n.tolist())  # |n|, with no overflow or underflow on the way
    if size == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # both (i, j) and (j, i) of n^_i y_j - n^_j y_i, each over sqrt(2)
        wedge = (n / (math.sqrt(2.0) * size))[:, None] * y
        wedge = (wedge - wedge.T).ravel()
        value = float(wedge @ wedge)
    if not math.isfinite(value):
        raise NumericalOverflow(f"the QFI overflows at F_ss = {size:g}^2")
    return value


def qcrb(fisher_information: float, shots: int = 1) -> float:
    """Phase-sensitivity floor 1 / sqrt(shots * F)."""
    if fisher_information <= 0.0:
        raise NonPositiveInformation(f"Fisher information must be > 0, got {fisher_information}")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    return 1.0 / (math.sqrt(shots) * math.sqrt(fisher_information))  # the product may overflow


# --- closed forms ------------------------------------------------------------

def _ups(mag, two_s_cosh, two_s_sinh, angle, sign):
    return mag ** 2 * (two_s_cosh + sign * two_s_sinh * np.cos(angle))


def phase_fisher_elements(alpha, beta, r, z, theta, phi_zeta, theta_beta,
                          theta_alpha=0.0, convention: BsConvention = BsConvention.SYMMETRIC):
    """Closed-form (f_ss, f_dd, f_sd) for arbitrary input phases.

    Accepts scalars or broadcastable numpy arrays; the cube convention is the
    symmetric one with port 0 rotated by -pi/2 (squeeze phase by -pi).
    """
    if convention is BsConvention.CUBE:
        theta = np.asarray(theta) - math.pi
        theta_beta = np.asarray(theta_beta) - 0.5 * math.pi

    c2r, s2r = np.cosh(2.0 * r), np.sinh(2.0 * r)
    c2z, s2z = np.cosh(2.0 * z), np.sinh(2.0 * z)
    shr2, shz2 = np.sinh(r) ** 2, np.sinh(z) ** 2

    f_dd = (_ups(alpha, c2r, s2r, 2.0 * np.asarray(theta_alpha) - theta, +1)
            + _ups(beta, c2z, s2z, 2.0 * np.asarray(theta_beta) - phi_zeta, +1)
            + 0.5 * (c2r * c2z - s2r * s2z * np.cos(np.asarray(theta) - phi_zeta) - 1.0))
    f_ss = (0.5 * (s2r ** 2 + s2z ** 2)
            + _ups(beta, c2r, s2r, 2.0 * np.asarray(theta_beta) - theta, -1)
            + _ups(alpha, c2z, s2z, 2.0 * np.asarray(theta_alpha) - phi_zeta, -1))
    f_sd = alpha * beta * (
        s2r * np.sin(np.asarray(theta_alpha) + theta_beta - theta)
        - s2z * np.sin(np.asarray(theta_alpha) + theta_beta - phi_zeta)
        - 2.0 * (1.0 + shr2 + shz2) * np.sin(np.asarray(theta_alpha) - theta_beta)
    )
    return f_ss, f_dd, f_sd


def qfi_from_elements(f_ss, f_dd, f_sd):
    """Vector-friendly F_dd - F_sd^2 / F_ss; F_ss = 0 (two vacua, where F_sd = 0) gives F_dd."""
    f_ss = np.asarray(f_ss, dtype=float)
    vacua = f_ss == 0.0
    corr = np.where(vacua, 0.0, np.asarray(f_sd) ** 2 / np.where(vacua, 1.0, f_ss))
    out = np.asarray(f_dd) - corr
    return float(out) if out.ndim == 0 else out


def pmc_qfis(alpha, beta, r: float, z: float) -> np.ndarray:
    """Optimal QFIs of the families PMC1, PMC2 and PMC3, stacked along axis 0.

    ``alpha`` and ``beta`` are scalars or broadcastable arrays; the squeeze
    factors are scalars, so every r- and z-only quantity is computed once.
    PMC3 is written without the cancelling ``- top / bottom`` correction:
    with S = (sinh^2 2r + sinh^2 2z) / 2, bottom = S + beta^2 e^{2r} + alpha^2 e^{2z}
    and top = (alpha beta)^2 (e^{2r} + e^{2z})^2, the published
    alpha^2 e^{2r} + beta^2 e^{2z} - top / bottom equals
    [e^{2r+2z} (alpha^2 - beta^2)^2 + S (alpha^2 e^{2r} + beta^2 e^{2z})] / bottom,
    a sum of non-negative terms.  Where top is 0 the plain sum is kept, so
    that the exact PMC1/PMC3 tie at beta = 0 is not broken by one rounding.

    Squeeze factors whose sinh or exp overflow raise ``NumericalOverflow``; an
    amplitude that overflows a term leaves inf or nan in the value it enters.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    try:
        e2r, e2z = math.exp(2.0 * r), math.exp(2.0 * z)
        sh_plus, sh_minus = math.sinh(r + z) ** 2, math.sinh(r - z) ** 2
        s_helper = 0.5 * (math.sinh(2.0 * r) ** 2 + math.sinh(2.0 * z) ** 2)
    except OverflowError:
        raise NumericalOverflow(f"the PMC QFIs overflow at r = {r:g}, z = {z:g}") from None

    # an overflow below leaves an inf or a nan in its family's value, which
    # qfi_closed_form and the regimes command check; bottom = 0 only at
    # alpha = beta = r = z = 0, where np.where takes the plain sum
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a2, b2 = alpha * alpha, beta * beta
        a2e2r = a2 * e2r
        pmc1 = a2e2r + b2 / e2z + sh_plus
        coherent = a2e2r + b2 * e2z
        pmc2 = coherent + sh_minus
        split = (alpha - beta) * (alpha + beta)
        bottom = s_helper + b2 * e2r + a2 * e2z
        top = e2r * e2z * (split * split) + s_helper * coherent
        reduced = sh_plus + top / bottom
        if np.isinf(top).any():
            # the numerator alone overflows: divide first, every factor of
            # e2r split * e2z split / bottom and S / bottom * coherent is bounded
            scaled = sh_plus + ((e2r * split) * (e2z * (split / bottom))
                                + (s_helper / bottom) * coherent)
            reduced = np.where(np.isinf(top), scaled, reduced)
        pmc3 = np.where(a2 * b2 == 0.0, coherent + sh_plus, reduced)
    return np.stack((pmc1, pmc2, pmc3))


def qfi_closed_form(alpha: float, beta: float, r: float, z: float,
                    pmc=None, convention: BsConvention = BsConvention.SYMMETRIC,
                    *, theta_alpha: float = 0.0, theta: float | None = None,
                    phi_zeta: float | None = None, theta_beta: float | None = None) -> float:
    """QFI from the published closed forms.

    With ``pmc`` given, evaluates that family's optimal-value expression (the
    value is convention independent; only the realizing phases move) as one
    entry of :func:`pmc_qfis`; the squeezed-vacuum families share the PMC1
    and PMC2 expressions.  With ``pmc=None`` the three explicit phases are
    required and the general-phase element expressions are combined.
    """
    from .pmc import PmcSet

    if pmc is not None:
        if pmc in (PmcSet.PMC1, PmcSet.SQZVAC_OPTIMAL):
            row = 0
        elif pmc in (PmcSet.PMC2, PmcSet.SQZVAC_WIDEBAND):
            row = 1
        elif pmc is PmcSet.PMC3:
            row = 2
        else:
            raise ValueError(f"unknown PMC family {pmc!r}")
        value = float(pmc_qfis(alpha, beta, r, z)[row])
        if not math.isfinite(value):
            raise NumericalOverflow(f"the {pmc.value} QFI overflows at |alpha| = {alpha:g}, "
                                    f"|beta| = {beta:g}, r = {r:g}, z = {z:g}")
        return value

    if theta is None or phi_zeta is None or theta_beta is None:
        raise ValueError("explicit phases are required when no PMC family is given")
    f_ss, f_dd, f_sd = phase_fisher_elements(
        alpha, beta, r, z, theta, phi_zeta, theta_beta, theta_alpha, convention
    )
    return qfi_from_elements(f_ss, f_dd, f_sd)
