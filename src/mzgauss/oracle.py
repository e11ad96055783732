"""Truncated Fock-space brute-force simulator.

Everything here is deliberately independent of the closed-form modules: states
are built by exponentiating truncated mode operators, propagated through the
interferometer as explicit unitaries, and measured as matrix elements.  The
closed forms are verified against this path, never the other way around.

Every exponential is of a truncated generator c L - c* L^T whose L has a single
off-diagonal, so it splits into small independent chains of basis states: the
beam splitters conserve n0 + n1 (one chain per anti-diagonal of the (n0, n1)
grid), displacement couples n with n + 1 and squeezing n with n + 2.  Each
chain is exponentiated exactly through the eigenvectors of its real symmetric
tridiagonal hopping matrix (:func:`_apply_chain`).  Those depend on n_max and
the chain's shape alone, not on the amplitude, so they are computed once per
n_max and cached.

Layout: a two-mode state is a (n_max+1) x (n_max+1) complex array; axis 0 is
input port 0, axis 1 is input port 1.  After :func:`apply_first_bs` the axes
hold the two internal modes, and after :func:`evolve_many` axis 0 reads out
output port 4 and axis 1 output port 5.  The global phase is compensated, not
dropped, so the usual input->output coefficient table holds exactly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationError
from .fisher import FisherMatrix
from .interferometer import CUBE_PORT0_ROTATION, BsConvention, MziScenario
from .states import GaussianPort, PortMoments

TAIL_TOL = 1e-10


@dataclass(frozen=True)
class FockVector:
    """Two-mode pure state on the truncated basis, indexed by (n0, n1)."""

    amplitudes: np.ndarray
    n_max: int

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    def tail_mass(self) -> float:
        """Population of the top-two occupation shells of either mode."""
        p = np.abs(self.amplitudes) ** 2
        top = p[-2:, :].sum() + p[:-2, -2:].sum()
        return float(top)


def _chain_basis(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the real symmetric L + L^T, ``off`` below the diagonal."""
    return np.linalg.eigh(np.diag(off, -1))


def _apply_chain(c: complex, basis: tuple[np.ndarray, np.ndarray], vecs: np.ndarray) -> np.ndarray:
    """exp(c L - c* L^T) along the last axis of ``vecs``; ``basis`` is the chain's eigenpairs.

    The gauge g = diag(e^{i k (arg c - pi/2)}) turns the generator into i|c|
    times L + L^T = V diag(lambda) V^T, so the exponential is
    g V e^{i|c| lambda} V^T g*: two products with V and no unitary.
    """
    eigvals, eigvecs = basis
    gauge = np.exp(1j * (np.angle(c) - 0.5 * math.pi) * np.arange(len(eigvals)))
    coeffs = (vecs * gauge.conj()) @ eigvecs
    return ((coeffs * np.exp(1j * abs(c) * eigvals)) @ eigvecs.T) * gauge


def _annihilator(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


@functools.lru_cache(maxsize=2)
def _ladder_bases(n_max: int, step: int) -> tuple[tuple[np.ndarray, tuple], ...]:
    """(Fock indices, eigenpairs) of each chain of (a^dag)^step, one per residue of n mod step."""
    chains = []
    for first in range(step):
        ns = np.arange(first, n_max + 1, step)
        # (a^dag)^step |n> = sqrt((n+1) ... (n+step)) |n+step>
        off = np.sqrt(np.prod([ns[:-1] + j for j in range(1, step + 1)], axis=0, dtype=float))
        chains.append((ns, _chain_basis(off)))
    return tuple(chains)


def _apply_ladder(vec: np.ndarray, c: complex, step: int) -> np.ndarray:
    """exp(c (a^dag)^step - c* a^step) vec, chain by chain."""
    out = np.empty_like(vec)
    for ns, basis in _ladder_bases(len(vec) - 1, step):
        out[ns] = _apply_chain(c, basis, vec[ns])
    return out


def _single_mode_vector(port: GaussianPort, n_max: int) -> np.ndarray:
    """D(gamma) S(chi) |0> by truncated operator exponentials."""
    vec = np.zeros(n_max + 1, dtype=complex)
    vec[0] = 1.0

    s = port.squeeze.factor
    if s > 0.0:
        # S(chi) = exp((chi* a^2 - chi a^dag^2) / 2)
        vec = _apply_ladder(vec, -0.5 * s * np.exp(1j * port.squeeze.phase), 2)
    gamma = port.displacement.value
    if gamma != 0:
        vec = _apply_ladder(vec, gamma, 1)
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
    mean_n = float(np.dot(ns, np.abs(vec) ** 2))
    return PortMoments(mean_a=mean_a, mean_n=mean_n, dn=mean_n - abs(mean_a) ** 2,
                       dm=mean_a2 - mean_a ** 2)


def prepare(scenario: MziScenario, n_max: int = 60) -> FockVector:
    """Normalized product state D1 S1 D0 S0 |0,0> on the truncated basis."""
    v0 = _single_mode_vector(scenario.port0, n_max)
    v1 = _single_mode_vector(scenario.port1, n_max)
    state = FockVector(np.outer(v0, v1), n_max)
    tail = state.tail_mass()
    if tail >= TAIL_TOL:
        raise TruncationError(tail, n_max)
    return state


@functools.lru_cache(maxsize=2)
def _sector_bases(n_max: int) -> tuple[tuple[np.ndarray, tuple], ...]:
    """(flat indices, eigenpairs) of the chain a0^dag a1 on each n0 + n1 sector."""
    dim = n_max + 1
    sectors = []
    for total in range(2 * n_max + 1):
        n0 = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        off = np.sqrt((n0[:-1] + 1.0) * (total - n0[:-1]))
        sectors.append((n0 * dim + (total - n0), _chain_basis(off)))
    return tuple(sectors)


def _sector_blocks(n_max: int, c: complex) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """exp(c a0^dag a1 - c* a0 a1^dag) as (flat indices, transposed unitary) per sector.

    The blocks keep their exact sizes (2.4 MB in all at n_max = 60, against
    7.2 MB for a padded stack).  The chain applied to the rows of the identity
    gives the transposed unitary.
    """
    return tuple((idx, _apply_chain(c, basis, np.eye(len(idx))))
                 for idx, basis in _sector_bases(n_max))


@functools.lru_cache(maxsize=2)
def _balanced_bs_blocks(n_max: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The 50/50 beam splitter exp(i pi/4 (a0^dag a1 + a0 a1^dag)), sector by sector."""
    return _sector_blocks(n_max, 0.25j * math.pi)


def _apply_blocks(blocks, amps: np.ndarray) -> np.ndarray:
    """Apply a sector-blocked two-mode unitary to one state or a stack of states."""
    flat = amps.reshape(-1, amps.shape[-2] * amps.shape[-1])
    out = np.empty(flat.shape, dtype=complex)
    for idx, unitary_t in blocks:
        out[:, idx] = flat[:, idx] @ unitary_t
    return out.reshape(amps.shape)


def apply_first_bs(state: FockVector, convention: BsConvention = BsConvention.SYMMETRIC) -> FockVector:
    """State just after the first beam splitter (internal modes on the two axes)."""
    amps = state.amplitudes
    if convention is BsConvention.CUBE:
        amps = amps * np.exp(1j * CUBE_PORT0_ROTATION * np.arange(state.n_max + 1))[:, None]
    return FockVector(_apply_blocks(_balanced_bs_blocks(state.n_max), amps), state.n_max)


def evolve_many(inside: FockVector, phis) -> list[FockVector]:
    """Output states at each total internal phase shift in ``phis``.

    ``inside`` is the state after the first beam splitter.  Each phase applies
    exp(i phi n) to the internal mode on axis 1 together with the total-number
    compensator exp(-i (phi/2 + pi/2) N_total), which absorbs the
    otherwise-ignored global factor so that output-port observables match the
    coefficient-table convention exactly (homodyne included).  The compensator
    commutes with the beam splitters, so it is applied here, and the second
    beam splitter acts on all phases in one batch.
    """
    n_max = inside.n_max
    ns = np.arange(n_max + 1)
    total = ns[:, None] + ns[None, :]
    phis = np.asarray(phis, dtype=float)[:, None, None]
    chi = 0.5 * phis + 0.5 * math.pi
    phased = inside.amplitudes * np.exp(1j * (phis * ns - chi * total))
    out = _apply_blocks(_balanced_bs_blocks(n_max), phased)
    return [FockVector(amps, n_max) for amps in out]


def attenuate(state: FockVector, transmission: float) -> FockVector:
    """Mix axis 0 with axis 1 on a beam splitter of intensity transmission T.

    Models detector loss when axis 1 holds vacuum: <n'> = T <n> on axis 0.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    theta = math.acos(math.sqrt(transmission))
    return FockVector(_apply_blocks(_sector_blocks(state.n_max, theta), state.amplitudes),
                      state.n_max)


def _apply_quadrature(amps: np.ndarray, local_phase: float) -> np.ndarray:
    """X_{phi_L} = (e^{-i phi_L} a + e^{i phi_L} a^dag)/2 acting on axis 0."""
    dim = amps.shape[0]
    root = np.sqrt(np.arange(1.0, dim))
    out = np.zeros_like(amps)
    # a: out[n] += sqrt(n+1) amps[n+1];  a^dag: out[n] += sqrt(n) amps[n-1]
    out[:-1, :] += np.exp(-1j * local_phase) * root[:, None] * amps[1:, :]
    out[1:, :] += np.exp(1j * local_phase) * root[:, None] * amps[:-1, :]
    return 0.5 * out


def output_stats(state: FockVector, local_phase: float = 0.0) -> dict[str, float]:
    """<psi| O |psi> for every output observable, from one |psi|^2 and one quadrature image.

    ``n4``/``n5`` are the output-port photon numbers (axes 0/1 of an evolved
    state), ``n_diff`` their difference, ``*_sq`` the squared operators, and
    ``quad``/``quad_sq`` the port-4 quadrature at local-oscillator phase
    ``local_phase``.
    """
    amps = state.amplitudes
    ns = np.arange(amps.shape[0], dtype=float)
    p = np.abs(amps) ** 2
    p4 = p.sum(axis=1)
    diff = ns[:, None] - ns[None, :]
    xv = _apply_quadrature(amps, local_phase)
    return {
        "n4": float(p4 @ ns),
        "n5": float(p.sum(axis=0) @ ns),
        "n_diff": float(np.sum(diff * p)),
        "n4_sq": float(p4 @ ns ** 2),
        "n_diff_sq": float(np.sum(diff ** 2 * p)),
        "quad": float(np.vdot(amps, xv).real),
        "quad_sq": float(np.vdot(xv, xv).real),
    }


def generator_fisher(inside: FockVector) -> FisherMatrix:
    """Two-parameter Fisher matrix of the state after the first beam splitter.

    The two arm phases act as exp(i phi_1 n) and exp(i phi_2 n) on the internal
    modes of axes 1 and 0, with the sum/difference parameters
    phi_1 = (phi_s + phi_d)/2 and phi_2 = (phi_s - phi_d)/2, so phi_d coincides
    with the total internal shift the detection schemes estimate.  The
    generators G_s = (n_ax1 + n_ax0)/2 and G_d = (n_ax1 - n_ax0)/2 are diagonal,
    and for a pure state the matrix is 4 Cov(G_a, G_b) over |psi|^2.
    """
    p = np.abs(inside.amplitudes) ** 2
    ns = np.arange(inside.n_max + 1, dtype=float)
    g_s = 0.5 * (ns[None, :] + ns[:, None])
    g_d = 0.5 * (ns[None, :] - ns[:, None])
    d_s = g_s - np.sum(p * g_s)
    d_d = g_d - np.sum(p * g_d)
    return FisherMatrix(
        f_ss=float(4.0 * np.sum(p * d_s * d_s)),
        f_dd=float(4.0 * np.sum(p * d_d * d_d)),
        f_sd=float(4.0 * np.sum(p * d_s * d_d)),
    )
