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

The 2 n_max + 1 beam-splitter chains are applied as a few stacked products,
not one by one: each chain is padded to a multiple of :data:`_BUCKET` states,
the chains of one padded width form one (B, w, w) stack, and one index plan
per n_max lays the states out in those slots.  Both beam splitters are the
real rotation R(theta) = exp(theta (a0^dag a1 - a0 a1^dag)): the 50/50 one
is e^{i pi/2 n0} R(pi/4) e^{-i pi/2 n0}, whose two phases join the phase
vectors the callers apply anyway.  So every stack is real, 1.4 MB in all at
n_max = 60.  A beam splitter gathers its states into the slot layout once,
applies every phase diagonal there through each slot's cached (n0, n1),
rotates the slots in place bucket by bucket and takes them back once; the
phased batch of :func:`evolve_many` is built in that layout directly.  So a
case of ``verify`` makes a few state-sized arrays, not one per step.

Measurement reads |psi|^2 once for the counts, and the quadrature from the
ladder moments <a> and <a^2>, sums over shifted slices of psi, instead of
building X psi (:func:`output_stats`).

Layout: a two-mode state is a plain (n_max+1) x (n_max+1) complex amplitude
array; a function given a state reads n_max from its shape and never writes
to it.  Axis 0 is input port 0, axis 1 is input port 1.  Any trailing axes
are a batch of states: :func:`evolve_many` returns one (dim, dim, phases)
array, and :func:`apply_first_bs`, :func:`attenuate` and
:func:`output_stats` act on every state of a batch at once.  After
:func:`apply_first_bs` the axes hold the two internal modes, and after
:func:`evolve_many` axis 0 reads out output port 4 and axis 1 output port 5.
The global phase is compensated, not dropped, so the usual input->output
coefficient table holds exactly.
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
_BUCKET = 8  # sector chains are padded to a multiple of this many slots


def _chain_basis(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the real symmetric L + L^T, ``off`` below the diagonal.

    A stack of chains (``off`` of shape (B, n - 1)) gives stacked eigenpairs.
    """
    n = off.shape[-1] + 1
    hop = np.zeros(off.shape[:-1] + (n, n))
    hop[..., np.arange(1, n), np.arange(n - 1)] = off
    return np.linalg.eigh(hop)


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
    tail = float(np.sum(np.abs(vec[-2:]) ** 2))
    if tail >= TAIL_TOL:
        raise TruncationError(tail, n_max)

    # the ladder moments as in output_stats: sums over shifted slices of the vector
    ns = np.arange(n_max + 1.0)
    root = np.sqrt(ns[1:])
    mean_a = complex(np.vdot(vec[:-1], root * vec[1:]))
    mean_a2 = complex(np.vdot(vec[:-2], root[:-1] * root[1:] * vec[2:]))
    mean_n = float(np.dot(ns, np.abs(vec) ** 2))
    return PortMoments(mean_a=mean_a, mean_n=mean_n, dn=mean_n - abs(mean_a) ** 2,
                       dm=mean_a2 - mean_a ** 2)


def prepare(scenario: MziScenario, n_max: int = 60) -> np.ndarray:
    """Normalized product state D1 S1 D0 S0 |0,0>, a (n_max+1, n_max+1) amplitude array."""
    amps = np.outer(_single_mode_vector(scenario.port0, n_max),
                    _single_mode_vector(scenario.port1, n_max))
    p = np.abs(amps) ** 2
    tail = float(p[-2:, :].sum() + p[:-2, -2:].sum())  # the top two shells of either mode
    if tail >= TAIL_TOL:
        raise TruncationError(tail, n_max)
    return amps


@dataclass(frozen=True)
class _SectorPlan:
    """The n0 + n1 sectors of one truncation, padded and stacked by width.

    Each sector's chain is padded up to a multiple of :data:`_BUCKET` slots,
    and the sectors of one padded width w form a bucket of B rows.  ``gather``
    holds the flat index each slot reads (pad slots read index 0, which the
    zeroed pad rows and columns of every stack then ignore), ``inverse`` the
    slot that holds each flat index, ``n0`` and ``n1`` the Fock indices that
    each slot reads, so that a phase diagonal in the Fock basis multiplies
    the slots directly, and each bucket is (slots, sub-diagonals
    of shape (B, w - 1), real-slot mask of shape (B, w)).
    """

    gather: np.ndarray
    inverse: np.ndarray
    n0: np.ndarray
    n1: np.ndarray
    buckets: tuple[tuple[slice, np.ndarray, np.ndarray], ...]


@functools.lru_cache(maxsize=2)
def _sector_plan(n_max: int) -> _SectorPlan:
    """The bucketed layout of the chains of a0^dag a1, one chain per n0 + n1 sector."""
    dim = n_max + 1
    by_width: dict[int, list] = {}
    for total in range(2 * n_max + 1):
        n0 = np.arange(max(0, total - n_max), min(total, n_max) + 1)
        by_width.setdefault(-(-len(n0) // _BUCKET) * _BUCKET, []).append((total, n0))
    gather, buckets, start = [], [], 0
    for width, sectors in by_width.items():
        idx = np.zeros((len(sectors), width), dtype=np.intp)
        off = np.zeros((len(sectors), width - 1))
        real = np.zeros((len(sectors), width), dtype=bool)
        for row, (total, n0) in enumerate(sectors):
            idx[row, :len(n0)] = n0 * dim + (total - n0)
            off[row, :len(n0) - 1] = np.sqrt((n0[:-1] + 1.0) * (total - n0[:-1]))
            real[row, :len(n0)] = True
        gather.append(idx.reshape(-1))
        buckets.append((slice(start, start + idx.size), off, real))
        start += idx.size
    gather = np.concatenate(gather)
    slots = np.concatenate([real.reshape(-1) for _, _, real in buckets])
    inverse = np.empty(dim * dim, dtype=np.intp)
    inverse[gather[slots]] = np.flatnonzero(slots)
    n0, n1 = np.divmod(gather, dim)
    return _SectorPlan(gather, inverse, n0, n1, tuple(buckets))


def _rotation_stacks(n_max: int, theta: float) -> tuple[np.ndarray, ...]:
    """R(theta) = exp(theta (a0^dag a1 - a0 a1^dag)) as one real (B, w, w) stack per bucket.

    Through the gauge of :func:`_apply_chain` (arg c = 0), R[j, k] is the real
    sum_m V_jm V_km cos(theta lambda_m + (k - j) pi/2): a cosine product where
    k - j is even and a sine product where it is odd.  Pad rows and columns
    are zeroed, so a pad slot neither feeds nor receives a real slot.
    """
    stacks = []
    for _, off, real in _sector_plan(n_max).buckets:
        eigvals, eigvecs = _chain_basis(off)
        ks = np.arange(real.shape[1])
        turns = (ks[None, :] - ks[:, None]) % 4
        rot = np.where(turns % 2 == 0,
                       (1 - turns) * ((eigvecs * np.cos(theta * eigvals)[:, None, :]) @ eigvecs.mT),
                       (turns - 2) * ((eigvecs * np.sin(theta * eigvals)[:, None, :]) @ eigvecs.mT))
        stacks.append(rot * (real[:, :, None] & real[:, None, :]))
    return tuple(stacks)


@functools.lru_cache(maxsize=2)
def _balanced_stacks(n_max: int) -> tuple[np.ndarray, ...]:
    """The stacks of R(pi/4), the core of the 50/50 beam splitter.

    exp(i pi/4 (a0^dag a1 + a0 a1^dag)) = e^{i pi/2 n0} R(pi/4) e^{-i pi/2 n0},
    and the callers apply the two phases.  The real stacks take 1.4 MB at
    n_max = 60, against 2.4 MB for exact-size complex blocks and 7.2 MB for
    one complex stack padded to 61 states.
    """
    return _rotation_stacks(n_max, 0.25 * math.pi)


def _gather(plan: _SectorPlan, amps: np.ndarray) -> np.ndarray:
    """``amps``, of shape (dim, dim, *batch), in the plan's slot layout: one column per state."""
    cols = np.asarray(amps, dtype=complex).reshape(len(plan.inverse), math.prod(amps.shape[2:]))
    return np.take(cols, plan.gather, axis=0)


def _scatter(plan: _SectorPlan, slots: np.ndarray, shape: tuple) -> np.ndarray:
    """The states of ``slots`` back in the (dim, dim, *batch) layout of ``shape``."""
    return np.take(slots, plan.inverse, axis=0).reshape(shape)


def _apply_sectors(plan: _SectorPlan, stacks, slots: np.ndarray) -> None:
    """Apply a sector-stacked real rotation in place to ``slots``, the plan's (slots, k) layout.

    The real view puts each column's real and imaginary parts side by side as
    2k real columns, so each bucket is one real stacked product; only its
    bucket-sized result is a new array.
    """
    cols = slots.view(float)
    for (part, _, real), stack in zip(plan.buckets, stacks):
        block = cols[part].reshape(real.shape + (cols.shape[1],))
        block[...] = stack @ block


def _i_powers(n_max: int) -> np.ndarray:
    """i^n on n = 0 .. n_max, exactly."""
    return np.array([1.0, 1.0j, -1.0, -1.0j])[np.arange(n_max + 1) % 4]


def apply_first_bs(amps: np.ndarray, convention: BsConvention = BsConvention.SYMMETRIC) -> np.ndarray:
    """State just after the first beam splitter, shaped like ``amps`` (internal modes on the two axes)."""
    n_max = amps.shape[0] - 1
    plan = _sector_plan(n_max)
    turn = CUBE_PORT0_ROTATION if convention is BsConvention.CUBE else 0.0
    # e^{i pi/2 n0} R(pi/4) e^{-i pi/2 n0}, after the cube convention's turn of port 0
    inner = np.exp(1j * (turn - 0.5 * math.pi) * np.arange(n_max + 1))
    slots = _gather(plan, amps)
    slots *= inner[plan.n0, None]
    _apply_sectors(plan, _balanced_stacks(n_max), slots)
    slots *= _i_powers(n_max)[plan.n0, None]
    return _scatter(plan, slots, amps.shape)


def evolve_many(inside: np.ndarray, phis) -> np.ndarray:
    """Output states at each total internal phase shift in ``phis``, as one batch.

    ``inside`` is one (dim, dim) state after the first beam splitter; the
    result has shape (dim, dim, len(phis)).  Each phase applies
    exp(i phi n) to the internal mode on axis 1 together with the total-number
    compensator exp(-i (phi/2 + pi/2) N_total), which absorbs the
    otherwise-ignored global factor so that output-port observables match the
    coefficient-table convention exactly (homodyne included).  The compensator
    commutes with the beam splitters, so it is applied here, and the second
    beam splitter acts on all phases in one batch.  Both phases, and the beam
    splitter's inner e^{-i pi/2 n0}, factor into one vector per axis, which
    the slots read by their (n0, n1): the phased batch is built in the slot
    layout, rotated there in place, and taken back once.
    """
    n_max = inside.shape[0] - 1
    plan = _sector_plan(n_max)
    phis = np.asarray(phis, dtype=float)
    ns = np.arange(n_max + 1)
    axis0 = np.exp(-1j * np.outer(ns, 0.5 * phis + math.pi))
    axis1 = np.exp(1j * np.outer(ns, 0.5 * phis - 0.5 * math.pi))
    slots = np.take(axis0, plan.n0, axis=0)
    # inside[:, :, None] * axis0[:, None, :] * axis1, slot by slot and in that order
    np.multiply(_gather(plan, inside), slots, out=slots)
    slots *= np.take(axis1, plan.n1, axis=0)
    _apply_sectors(plan, _balanced_stacks(n_max), slots)
    out = _scatter(plan, slots, inside.shape + axis0.shape[1:])
    out *= _i_powers(n_max)[:, None, None]
    return out


def attenuate(amps: np.ndarray, transmission: float) -> np.ndarray:
    """Mix axis 0 with axis 1 on a beam splitter of intensity transmission T.

    Models detector loss when axis 1 holds vacuum: <n'> = T <n> on axis 0.
    """
    if not 0.0 <= transmission <= 1.0:
        raise ValueError("transmission must lie in [0, 1]")
    n_max = amps.shape[0] - 1
    plan = _sector_plan(n_max)
    slots = _gather(plan, amps)
    _apply_sectors(plan, _rotation_stacks(n_max, math.acos(math.sqrt(transmission))), slots)
    return _scatter(plan, slots, amps.shape)


def output_stats(amps: np.ndarray, local_phase: float = 0.0) -> dict[str, np.ndarray]:
    """<psi| O |psi> for every output observable, from |psi|^2 and two ladder moments.

    ``n4``/``n5`` are the output-port photon numbers (axes 0/1 of an evolved
    state), ``n_diff`` their difference, ``*_sq`` the squared operators, and
    ``quad``/``quad_sq`` the port-4 quadrature
    X = (e^{-i phi_L} a + e^{i phi_L} a^dag)/2 at local-oscillator phase
    ``local_phase``.  Each value is reduced over axes 0 and 1 only, so it has
    the state's batch shape: one entry per phase of :func:`evolve_many`, 0-d
    for a single state.

    The counts come from the two marginals of |psi|^2 and the cross moment
    <n4 n5>.  The quadrature comes from <a> and <a^2> on axis 0, sums over
    shifted slices of psi: <X> = Re(e^{-i phi_L} <a>) and, with the truncated
    operators, X^2 = (e^{-2i phi_L} a^2 + h.c. + a a^dag + a^dag a)/4, where
    a a^dag is n + 1 except on the top shell, where it is 0.  So <X^2> is
    Re(e^{-2i phi_L} <a^2>)/2 + <n4>/2 + (1 - (n_max + 1) P4(n_max))/4, the
    same truncated operator that acting with X and squaring measures.
    """
    n_max = amps.shape[0] - 1
    ns = np.arange(n_max + 1, dtype=float)
    p = np.abs(amps)
    p *= p
    p4, p5 = np.einsum("ij...->i...", p), p.sum(axis=0)
    n4, n5 = np.tensordot(ns, p4, axes=1), np.tensordot(ns, p5, axes=1)
    n4_sq = np.tensordot(ns ** 2, p4, axes=1)
    cross = np.tensordot(ns, np.tensordot(ns, p, axes=1), axes=1)  # <n4 n5>
    # <a> = sum sqrt(n+1) psi*[n] psi[n+1] and <a^2> likewise; vecdot conjugates its first argument
    root = np.sqrt(ns[1:])
    mean_a = np.tensordot(root, np.vecdot(amps[:-1], amps[1:], axis=1), axes=1)
    mean_a2 = np.tensordot(root[:-1] * root[1:], np.vecdot(amps[:-2], amps[2:], axis=1), axes=1)
    return {
        "n4": n4,
        "n5": n5,
        "n_diff": n4 - n5,
        "n4_sq": n4_sq,
        "n_diff_sq": n4_sq + np.tensordot(ns ** 2, p5, axes=1) - 2.0 * cross,
        "quad": (np.exp(-1j * local_phase) * mean_a).real,
        "quad_sq": (0.5 * (np.exp(-2j * local_phase) * mean_a2).real + 0.5 * n4
                    + 0.25 * (1.0 - (n_max + 1) * p4[-1])),
    }


def generator_fisher(inside: np.ndarray) -> FisherMatrix:
    """Two-parameter Fisher matrix of the state after the first beam splitter.

    The two arm phases act as exp(i phi_1 n) and exp(i phi_2 n) on the internal
    modes of axes 1 and 0, with the sum/difference parameters
    phi_1 = (phi_s + phi_d)/2 and phi_2 = (phi_s - phi_d)/2, so phi_d coincides
    with the total internal shift the detection schemes estimate.  The
    generators G_s = (n_ax1 + n_ax0)/2 and G_d = (n_ax1 - n_ax0)/2 are diagonal,
    and for a pure state the matrix is 4 Cov(G_a, G_b) over |psi|^2.
    """
    p = np.abs(inside) ** 2
    ns = np.arange(inside.shape[0], dtype=float)
    g_s = 0.5 * (ns[None, :] + ns[:, None])
    g_d = 0.5 * (ns[None, :] - ns[:, None])
    d_s = g_s - np.sum(p * g_s)
    d_d = g_d - np.sum(p * g_d)
    return FisherMatrix(
        f_ss=float(4.0 * np.sum(p * d_s * d_s)),
        f_dd=float(4.0 * np.sum(p * d_d * d_d)),
        f_sd=float(4.0 * np.sum(p * d_s * d_d)),
    )
