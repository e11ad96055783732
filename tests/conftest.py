import mpmath
import numpy as np
import pytest

from mzgauss.interferometer import BsConvention


def relerr(a: float, b: float, floor: float = 1.0) -> float:
    """Relative error with an absolute floor for near-zero quantities."""
    return abs(a - b) / max(abs(a), abs(b), floor)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def mp_fisher_elements(scenario):
    """The published general-phase (F_ss, F_dd, F_sd) in mpmath at the scenario's own doubles.

    The cube convention folds port 0 by exactly -pi/2.  The working precision
    is the caller's.
    """
    port1, port0 = scenario.port1, scenario.port0
    alpha, theta_alpha, z, phi_zeta = (mpmath.mpf(x) for x in (
        port1.displacement.magnitude, port1.displacement.phase, port1.squeeze.factor, port1.squeeze.phase))
    beta, theta_beta, r, theta = (mpmath.mpf(x) for x in (
        port0.displacement.magnitude, port0.displacement.phase, port0.squeeze.factor, port0.squeeze.phase))
    if scenario.convention is BsConvention.CUBE:
        theta, theta_beta = theta - mpmath.pi, theta_beta - mpmath.pi / 2
    c2r, s2r, c2z, s2z = mpmath.cosh(2 * r), mpmath.sinh(2 * r), mpmath.cosh(2 * z), mpmath.sinh(2 * z)

    def ups(mag, c, s, angle, sign):
        return mag ** 2 * (c + sign * s * mpmath.cos(angle))

    f_dd = (ups(alpha, c2r, s2r, 2 * theta_alpha - theta, 1) + ups(beta, c2z, s2z, 2 * theta_beta - phi_zeta, 1)
            + (c2r * c2z - s2r * s2z * mpmath.cos(theta - phi_zeta) - 1) / 2)
    f_ss = ((s2r ** 2 + s2z ** 2) / 2 + ups(beta, c2r, s2r, 2 * theta_beta - theta, -1)
            + ups(alpha, c2z, s2z, 2 * theta_alpha - phi_zeta, -1))
    f_sd = alpha * beta * (s2r * mpmath.sin(theta_alpha + theta_beta - theta)
                           - s2z * mpmath.sin(theta_alpha + theta_beta - phi_zeta)
                           - 2 * (1 + mpmath.sinh(r) ** 2 + mpmath.sinh(z) ** 2)
                           * mpmath.sin(theta_alpha - theta_beta))
    return f_ss, f_dd, f_sd
