import math

import mpmath
import numpy as np
import pytest

from mzgauss.detection import sensitivities, sensitivity
from mzgauss.heisenberg import heisenberg_optima
from mzgauss.interferometer import BsConvention

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def relerr(a: float, b: float, floor: float = 1.0) -> float:
    """Relative error with an absolute floor for near-zero quantities."""
    return abs(a - b) / max(abs(a), abs(b), floor)


def satisfies_optimum(pmc, f, tol=1e-6) -> bool:
    """Whether the power fractions lie on one of the family's optimizing manifolds."""
    values = {"f_alpha": f.f_alpha, "f_beta": f.f_beta, "f_r": f.f_r, "f_z": f.f_z}
    return any(all(abs(sum(values[part] for part in key.split("+")) - target) <= tol
                   for key, target in manifold.items())
               for manifold in heisenberg_optima(pmc).manifolds)


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


def _golden_minimize(fn, lo, hi, tol):
    """Golden-section search for the minimum of fn on [lo, hi]: (x, fn(x))."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def scan_optimum(scheme, scenario, points=4000):
    """(phase, Delta phi) of an independent optimum: a dense phase scan, then a
    golden-section refinement of its best point with the scalar ``sensitivity``.

    It shares no search code with the optimizer, which refines on a grid.
    """
    phis = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    k = int(np.argmin(sensitivities(scheme, scenario, phis)))
    step = 2 * math.pi / points
    return _golden_minimize(lambda p: sensitivity(scheme, scenario.with_phase(p)).delta_phi,
                            phis[k] - step, phis[k] + step, tol=1e-12)
