"""Truncated Fock-space brute-force simulator.

Everything here is deliberately independent of the closed-form modules: states
are built by exponentiating truncated mode operators, propagated through the
interferometer as explicit unitaries, and measured as matrix elements.  The
closed forms are verified against this path, never the other way around.

Layout: a two-mode state is a (n_max+1) x (n_max+1) complex array; axis 0 is
input port 0, axis 1 is input port 1.  After :func:`evolve`, axis 0 reads out
output port 4 and axis 1 output port 5 (the interferometer unitary is fixed so
that the usual input->output coefficient table holds exactly, with the global
phase compensated rather than ignored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from .errors import StepTooCoarse, TruncationError
from .fisher import FisherMatrix
from .interferometer import CUBE_PORT0_ROTATION, BsConvention, MziScenario
from .states import GaussianPort, PortMoments

TAIL_TOL = 1e-10

_OBSERVABLES = ("n4", "n5", "n_diff", "n4_sq", "n_diff_sq", "quad", "quad_sq")

_bs_generator_cache: dict[int, scipy.sparse.csr_matrix] = {}


@dataclass(frozen=True)
class FockVector:
    """Two-mode pure state on the truncated basis, indexed by (n0, n1)."""

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tail_mass(self) -> float:
        """Population of the top-two occupation shells of either mode."""
        p = np.abs(self.amplitudes) ** 2
        top = p[-2:, :].sum() + p[:-2, -2:].sum()
        return float(top)

    def overlap(self, other: "FockVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "FockVector") -> float:
        return abs(self.overlap(other)) ** 2


def _annihilator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def _single_mode_vector(port: GaussianPort, n_max: int) -> np.ndarray:
    """D(gamma) S(chi) |0> by truncated operator exponentials."""
    dim = n_max + 1
    a = _annihilator(dim)
    ad = a.conj().T
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0

    s = port.squeeze.factor
    if s > 0.0:
        chi = s * np.exp(1j * port.squeeze.phase)
        gen = 0.5 * (np.conj(chi) * (a @ a) - chi * (ad @ ad))
        vec = scipy.linalg.expm(gen) @ vec
    gamma = port.displacement.value
    if gamma != 0:
        gen = gamma * ad - np.conj(gamma) * a
        vec = scipy.linalg.expm(gen) @ vec
    return vec


def single_mode_moments(port: GaussianPort, n_max: int = 60) -> PortMoments:
    """The port moments extracted from the truncated Fock vector."""
    vec = _single_mode_vector(port, n_max)
    dim = n_max + 1
    a = _annihilator(dim)
    ns = np.arange(dim, dtype=float)

    tail = float(np.sum(np.abs(vec[-2:]) ** 2))
    if tail >= TAIL_TOL:
        raise TruncationError(tail, n_max)

    av = a @ vec
    mean_a = complex(np.vdot(vec, av))
    mean_a2 = complex(np.vdot(vec, a @ av))
    p = np.abs(vec) ** 2
    mean_n = float(np.dot(ns, p))
    mean_n2 = float(np.dot(ns ** 2, p))
    mean_na = complex(np.vdot(vec, ns * av))
    return PortMoments(
        mean_a=mean_a,
        mean_a2=mean_a2,
        mean_n=mean_n,
        var_n=mean_n2 - mean_n ** 2,
        corr_na=mean_na - mean_n * mean_a,
        dn=mean_n - abs(mean_a) ** 2,
        dm=mean_a2 - mean_a ** 2,
    )


def prepare(scenario: MziScenario, n_max: int = 60) -> FockVector:
    """Normalized product state D1 S1 D0 S0 |0,0> on the truncated basis."""
    v0 = _single_mode_vector(scenario.port0, n_max)
    v1 = _single_mode_vector(scenario.port1, n_max)
    state = FockVector(np.outer(v0, v1), n_max)
    tail = state.tail_mass()
    if tail >= TAIL_TOL:
        raise TruncationError(tail, n_max)
    return state


def _bs_generator(n_max: int) -> scipy.sparse.csr_matrix:
    """Generator K with expm(K) the first 50/50 beam splitter (i pi/4 (a0+ a1 + a0 a1+))."""
    if n_max not in _bs_generator_cache:
        dim = n_max + 1
        a = scipy.sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr")
        ad = a.T
        eye = scipy.sparse.identity(dim, format="csr")
        h = scipy.sparse.kron(ad, a) + scipy.sparse.kron(a, ad)
        _bs_generator_cache[n_max] = (0.25j * math.pi * h).tocsr()
    return _bs_generator_cache[n_max]


def _apply_bs(amps: np.ndarray, n_max: int) -> np.ndarray:
    flat = amps.reshape(-1)
    out = expm_multiply(_bs_generator(n_max), flat)
    return out.reshape(amps.shape)


def _rotate_axis0(amps: np.ndarray, delta: float) -> np.ndarray:
    dim = amps.shape[0]
    return amps * np.exp(1j * delta * np.arange(dim))[:, None]


def apply_first_bs(state: FockVector, convention: BsConvention = BsConvention.SYMMETRIC) -> FockVector:
    """State just after the first beam splitter (internal modes on the two axes)."""
    amps = state.amplitudes
    if convention is BsConvention.CUBE:
        amps = _rotate_axis0(amps, CUBE_PORT0_ROTATION)
    return FockVector(_apply_bs(amps, state.n_max), state.n_max)


def evolve(state: FockVector, phi: float, convention: BsConvention = BsConvention.SYMMETRIC) -> FockVector:
    """Full interferometer at total internal phase shift phi.

    The composite is BS . phase(phi on mode of axis 1) . BS with a total-number
    phase absorbing the otherwise-ignored global factor, so output-port
    observables measured on the result match the coefficient-table convention
    exactly (homodyne included).
    """
    n_max = state.n_max
    dim = n_max + 1
    amps = state.amplitudes
    if convention is BsConvention.CUBE:
        amps = _rotate_axis0(amps, CUBE_PORT0_ROTATION)

    # global-phase compensator exp(-i (phi/2 + pi/2) N_total)
    chi = 0.5 * phi + 0.5 * math.pi
    ns = np.arange(dim)
    total = ns[:, None] + ns[None, :]
    amps = amps * np.exp(-1j * chi * total)

    amps = _apply_bs(amps, n_max)
    amps = amps * np.exp(1j * phi * ns)[None, :]
    amps = _apply_bs(amps, n_max)
    return FockVector(amps, n_max)


def attenuate(state: FockVector, transmission: float) -> FockVector:
    """Mix axis 0 with axis 1 on a beam splitter of intensity transmission T.

    Models detector loss when axis 1 holds vacuum: <n'> = T <n> on axis 0.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    n_max = state.n_max
    dim = n_max + 1
    theta = math.acos(math.sqrt(transmission))
    a = scipy.sparse.diags(np.sqrt(np.arange(1.0, dim)), 1, format="csr")
    ad = a.T
    gen = theta * (scipy.sparse.kron(ad, a) - scipy.sparse.kron(a, ad))
    flat = expm_multiply(gen.tocsr(), state.amplitudes.reshape(-1))
    return FockVector(flat.reshape(dim, dim), n_max)


def _apply_quadrature(amps: np.ndarray, local_phase: float) -> np.ndarray:
    """X_{phi_L} = (e^{-i phi_L} a + e^{i phi_L} a^dag)/2 acting on axis 0."""
    dim = amps.shape[0]
    root = np.sqrt(np.arange(1.0, dim))
    out = np.zeros_like(amps)
    # a: out[n] += sqrt(n+1) amps[n+1];  a^dag: out[n] += sqrt(n) amps[n-1]
    out[:-1, :] += np.exp(-1j * local_phase) * root[:, None] * amps[1:, :]
    out[1:, :] += np.exp(1j * local_phase) * root[:, None] * amps[:-1, :]
    return 0.5 * out


def measure_stats(state: FockVector, observable: str, local_phase: float = 0.0) -> float:
    """<psi| O |psi> for the named output observable.

    ``n4``/``n5`` are the output-port photon numbers (axes 0/1 of an evolved
    state), ``n_diff`` their difference, ``*_sq`` the squared operators, and
    ``quad``/``quad_sq`` the port-4 quadrature at local-oscillator phase
    ``local_phase``.
    """
    amps = state.amplitudes
    dim = amps.shape[0]
    ns = np.arange(dim, dtype=float)
    p = np.abs(amps) ** 2

    if observable == "n4":
        return float(p.sum(axis=1) @ ns)
    if observable == "n5":
        return float(p.sum(axis=0) @ ns)
    if observable == "n_diff":
        diff = ns[:, None] - ns[None, :]
        return float(np.sum(diff * p))
    if observable == "n4_sq":
        return float(p.sum(axis=1) @ ns ** 2)
    if observable == "n_diff_sq":
        diff = ns[:, None] - ns[None, :]
        return float(np.sum(diff ** 2 * p))
    if observable == "quad":
        xv = _apply_quadrature(amps, local_phase)
        return float(np.vdot(amps, xv).real)
    if observable == "quad_sq":
        xv = _apply_quadrature(amps, local_phase)
        return float(np.vdot(xv, xv).real)
    raise ValueError(f"unknown observable {observable!r}; expected one of {_OBSERVABLES}")


def _fisher_from_differences(psi, dpsi_s, dpsi_d) -> FisherMatrix:
    def elem(da, db):
        val = np.vdot(da, db) - np.vdot(da, psi) * np.vdot(psi, db)
        return float(4.0 * val.real)

    return FisherMatrix(
        f_ss=elem(dpsi_s, dpsi_s),
        f_dd=elem(dpsi_d, dpsi_d),
        f_sd=elem(dpsi_s, dpsi_d),
    )


def numerical_fisher(scenario: MziScenario, n_max: int = 60, h: float = 1e-4) -> FisherMatrix:
    """Two-parameter Fisher matrix by central finite differences of the state.

    The two arm phases act as exp(i phi_1 n) and exp(i phi_2 n) on the internal
    modes with the sum/difference parameters phi_1 = (phi_s + phi_d)/2 and
    phi_2 = (phi_s - phi_d)/2, so phi_d coincides with the total internal shift
    the detection schemes estimate.  A Richardson check (halving h) guards the
    step size.
    """
    if not 1e-5 <= h <= 1e-3:
        raise ValueError("finite-difference step h must lie in [1e-5, 1e-3]")

    base = prepare(scenario, n_max)
    amps = base.amplitudes
    if scenario.convention is BsConvention.CUBE:
        amps = _rotate_axis0(amps, CUBE_PORT0_ROTATION)
    psi = _apply_bs(amps, n_max).reshape(-1)

    dim = n_max + 1
    ns = np.arange(dim)
    n_ax1 = np.tile(ns, dim).astype(float)            # phi_1 generator (internal mode on axis 1)
    n_ax0 = np.repeat(ns, dim).astype(float)          # phi_2 generator (internal mode on axis 0)

    def phased(phi_s: float, phi_d: float) -> np.ndarray:
        phi1 = 0.5 * (phi_s + phi_d)
        phi2 = 0.5 * (phi_s - phi_d)
        return psi * np.exp(1j * (phi1 * n_ax1 + phi2 * n_ax0))

    def matrix(step: float) -> FisherMatrix:
        dpsi_s = (phased(step, 0.0) - phased(-step, 0.0)) / (2.0 * step)
        dpsi_d = (phased(0.0, step) - phased(0.0, -step)) / (2.0 * step)
        return _fisher_from_differences(psi, dpsi_s, dpsi_d)

    coarse = matrix(h)
    fine = matrix(0.5 * h)
    scale = max(abs(fine.f_ss), abs(fine.f_dd), 1.0)
    for a, b in ((coarse.f_ss, fine.f_ss), (coarse.f_dd, fine.f_dd), (coarse.f_sd, fine.f_sd)):
        rel = abs(a - b) / max(abs(b), 1e-6 * scale)
        if rel >= 1e-5:
            raise StepTooCoarse(f"Richardson check failed: relative change {rel:.3e} at h={h}")
    return fine
