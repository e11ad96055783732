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
from .interferometer import CUBE_PORT0_ROTATION, BsConvention, MziScenario

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
        theta = np.asarray(theta) + 2.0 * CUBE_PORT0_ROTATION
        theta_beta = np.asarray(theta_beta) + CUBE_PORT0_ROTATION

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


def _or_inf(fn, x: float) -> float:
    """``fn(x)``, or inf where it overflows: only the families that use it become non-finite."""
    try:
        return fn(x)
    except OverflowError:
        return math.inf


def _times(square, factor: float):
    """``square * factor``, where a zero amplitude stays 0 also against an infinite factor."""
    return square * factor if factor < math.inf else np.where(square == 0.0, 0.0, square * factor)


def _scaled_quotient(alpha, beta, r: float, z: float, e2r: float, e2z: float):
    """PMC3's top / bottom of :func:`pmc_qfis` with no intermediate overflow.

    The quotient [e^{2r+2z} (a^2 - b^2)^2 + S C] / (S + D), with
    C = a^2 e^{2r} + b^2 e^{2z} and D = b^2 e^{2r} + a^2 e^{2z}, is homogeneous
    of degree 1 in (a^2, b^2, S) and in (e^{2r}, e^{2z}, S).  It is taken at
    a and b divided by 2^c, the larger in [1/2, 1), and e^{2r} and e^{2z}
    divided by 4^m, the larger below 1, and multiplied back by 4^(c + m): all
    exact powers of two.  There it is C / (1 + D / S) +
    (e^{2r} split) (e^{2z} split) / (S + D) with split = a^2 - b^2, whose
    products overflow only where the quotient does; a scaled S that still
    overflows leaves C.
    """
    c = np.frexp(np.maximum(np.abs(alpha), np.abs(beta)))[1]
    m = (math.frexp(max(e2r, e2z))[1] + 1) // 2
    a, b = np.ldexp(alpha, -c), np.ldexp(beta, -c)
    a2, b2 = a * a, b * b
    er, ez = math.ldexp(e2r, -2 * m), math.ldexp(e2z, -2 * m)
    s_helper = 0.5 * (np.ldexp(_or_inf(math.sinh, 2.0 * r), -(c + m)) ** 2
                      + np.ldexp(_or_inf(math.sinh, 2.0 * z), -(c + m)) ** 2)
    split = (a - b) * (a + b)
    rest = b2 * er + a2 * ez
    quotient = (a2 * er + b2 * ez) / (1.0 + rest / s_helper) + (er * split) * (ez * split) / (s_helper + rest)
    return np.ldexp(quotient, 2 * (c + m))


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
    Where S overflows (r or z above about 177.4), or top does, top / bottom
    comes from :func:`_scaled_quotient`, finite wherever the quotient is
    while e^{2r} and e^{2z} are (r, z up to about 354.8).

    A term that overflows, of the squeeze factors or of the amplitudes,
    leaves inf or nan in the values of the families it enters, and only there.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    e2r, e2z = _or_inf(math.exp, 2.0 * r), _or_inf(math.exp, 2.0 * z)
    sh_plus, sh_minus, sh_2r, sh_2z = (_or_inf(lambda x: math.sinh(x) ** 2, x)
                                       for x in (r + z, r - z, 2.0 * r, 2.0 * z))
    s_helper = 0.5 * (sh_2r + sh_2z)

    # an overflow leaves an inf or a nan in the value of each family it enters,
    # which qfi_closed_form and the regimes command check; bottom = 0 only at
    # alpha = beta = r = z = 0, where np.where takes the plain sum
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a2, b2 = alpha * alpha, beta * beta
        a2e2r = _times(a2, e2r)
        pmc1 = a2e2r + b2 / e2z + sh_plus
        coherent = a2e2r + _times(b2, e2z)
        pmc2 = coherent + sh_minus
        if math.isinf(s_helper):
            quotient = _scaled_quotient(alpha, beta, r, z, e2r, e2z)
        else:
            split = (alpha - beta) * (alpha + beta)
            bottom = s_helper + b2 * e2r + a2 * e2z
            top = e2r * e2z * (split * split) + s_helper * coherent
            quotient = top / bottom
            if not np.isfinite(top).all():
                # top overflows, or is e^{2r} e^{2z} = inf times a split of 0
                quotient = np.where(np.isfinite(top), quotient,
                                    _scaled_quotient(alpha, beta, r, z, e2r, e2z))
        pmc3 = np.where(a2 * b2 == 0.0, coherent + sh_plus, sh_plus + quotient)
    return np.stack((pmc1, pmc2, pmc3))


def qfi_closed_form(alpha: float, beta: float, r: float, z: float,
                    pmc=None, convention: BsConvention = BsConvention.SYMMETRIC,
                    *, theta_alpha=0.0, theta=None, phi_zeta=None, theta_beta=None):
    """QFI from the published closed forms.

    With ``pmc`` given, a ``pmc.PmcSet`` member, evaluates its optimal-value
    expression (the value is convention independent; only the realizing
    phases move) as row ``pmc.row`` of :func:`pmc_qfis`, the row of the
    family's regime.  With ``pmc=None`` the three explicit phases are
    required and the general-phase elements of :func:`phase_fisher_elements`
    are combined to F_dd - F_sd^2 / F_ss (F_dd where F_ss = 0, at two vacua).
    The phases are scalars, giving a float, or broadcastable numpy arrays,
    giving an array.
    """
    if pmc is not None:
        value = float(pmc_qfis(alpha, beta, r, z)[pmc.row])
        if not math.isfinite(value):
            raise NumericalOverflow(f"the {pmc.value} QFI overflows at |alpha| = {alpha:g}, "
                                    f"|beta| = {beta:g}, r = {r:g}, z = {z:g}")
        return value

    if theta is None or phi_zeta is None or theta_beta is None:
        raise ValueError("explicit phases are required when no PMC family is given")
    f_ss, f_dd, f_sd = phase_fisher_elements(
        alpha, beta, r, z, theta, phi_zeta, theta_beta, theta_alpha, convention
    )
    f_ss = np.asarray(f_ss, dtype=float)
    vacua = f_ss == 0.0  # two vacua, where F_sd = 0 and the QFI is F_dd
    corr = np.where(vacua, 0.0, np.asarray(f_sd) ** 2 / np.where(vacua, 1.0, f_ss))
    out = np.asarray(f_dd) - corr
    return float(out) if out.ndim == 0 else out
