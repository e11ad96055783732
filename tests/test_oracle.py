"""The truncated Fock simulator itself: preparation, evolution, measurement, Fisher."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from mzgauss import oracle
from mzgauss.errors import TruncationError
from mzgauss.fisher import FisherMatrix, fisher_matrix, qfi, qfi_closed_form
from mzgauss.interferometer import CUBE_PORT0_ROTATION, BsConvention, MziScenario
from mzgauss.oracle import (FockVector, _single_mode_vector, apply_first_bs,
                            attenuate, evolve_many, generator_fisher,
                            output_stats, prepare, single_mode_moments)
from mzgauss.pmc import PmcSet, apply_pmc
from mzgauss.states import GaussianPort

from conftest import relerr


def _vac():
    return GaussianPort.vacuum()


def test_prepare_vacuum():
    state = prepare(MziScenario(_vac(), _vac()), 20)
    assert state.amplitudes[0, 0] == pytest.approx(1.0)
    assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-14)
    assert abs(state.amplitudes[1:, :]).max() == 0.0


def test_prepare_coherent_poisson_amplitudes():
    state = prepare(MziScenario(GaussianPort.from_params(1.0), _vac()), 40)
    col = state.amplitudes[0, :]  # port 1 lives on axis 1
    for n in range(8):
        expected = math.exp(-0.5) / math.sqrt(math.factorial(n))
        assert col[n].real == pytest.approx(expected, rel=1e-12)
        assert abs(col[n].imag) < 1e-14


def test_prepare_squeezed_vacuum_amplitudes():
    """Even-number amplitudes follow the tanh/cosh decomposition."""
    s, phase = 0.5, 0.9
    state = prepare(MziScenario(_vac(), GaussianPort.from_params(0, 0, s, phase)), 60)
    col = state.amplitudes[:, 0]  # port 0 lives on axis 0
    tau = -np.exp(1j * phase) * math.tanh(s)
    for n in range(0, 12, 2):
        k = n // 2
        expected = ((tau / 2.0) ** k * math.sqrt(math.factorial(n)) / math.factorial(k)
                    / math.sqrt(math.cosh(s)))
        assert col[n] == pytest.approx(expected, rel=1e-10)
        assert abs(col[n + 1]) < 1e-14
    moments = single_mode_moments(GaussianPort.from_params(0, 0, s, phase), 60)
    assert relerr(moments.mean_n, math.sinh(s) ** 2) < 1e-10


def test_truncation_error_raised_outside_remit():
    with pytest.raises(TruncationError) as info:
        prepare(MziScenario(GaussianPort.from_params(5.0), _vac()), 60)
    assert info.value.tail >= 1e-10


def test_evolve_preserves_norm_and_energy(rng):
    port1 = GaussianPort.from_params(1.1, 0.4, 0.5, 1.3)
    port0 = GaussianPort.from_params(0.7, 2.0, 0.4, 0.6)
    state = prepare(MziScenario(port1, port0), 60)
    stats = output_stats(evolve_many(apply_first_bs(state), [0.0])[0])
    energy_in = stats["n4"] + stats["n5"]
    for conv in BsConvention:
        for out in evolve_many(apply_first_bs(state, conv), rng.uniform(0, 2 * math.pi, 3)):
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
            stats = output_stats(out)
            assert abs(stats["n4"] + stats["n5"] - energy_in) < 1e-10


def test_zero_phase_swaps_modes():
    port1 = GaussianPort.from_params(0.9, 0.0, 0.3, 0.0)
    state = prepare(MziScenario(port1, _vac()), 50)
    stats = output_stats(evolve_many(apply_first_bs(state), [0.0])[0])
    n1_in = 0.9 ** 2 + math.sinh(0.3) ** 2
    assert stats["n4"] == pytest.approx(n1_in, rel=1e-12)
    assert stats["n5"] == pytest.approx(0.0, abs=1e-12)


def test_single_photon_interference():
    amps = np.zeros((12, 12), dtype=complex)
    amps[0, 1] = 1.0
    phis = (0.0, 0.7, math.pi / 2, 2.5)
    for phi, out in zip(phis, evolve_many(apply_first_bs(FockVector(amps, 11)), phis)):
        assert output_stats(out)["n4"] == pytest.approx(math.cos(phi / 2) ** 2, abs=1e-12)


def test_vacuum_quadrature_variance():
    state = prepare(MziScenario(_vac(), _vac()), 20)
    stats = output_stats(evolve_many(apply_first_bs(state), [1.0])[0])
    assert stats["quad"] == pytest.approx(0.0, abs=1e-14)
    assert stats["quad_sq"] == pytest.approx(0.25, abs=1e-12)
    for obs in ("n4", "n5", "n_diff", "n4_sq", "n_diff_sq"):
        assert stats[obs] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("convention", list(BsConvention))
def test_output_stats_match_explicit_operators(convention, rng):
    """The one-pass measurement against dense operator matrix elements."""
    n_max = 40
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    n = a.T @ a
    for _ in range(3):
        port1 = GaussianPort.from_params(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi))
        port0 = GaussianPort.from_params(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi))
        local = float(rng.uniform(0, 2 * math.pi))
        inside = apply_first_bs(prepare(MziScenario(port1, port0, convention), n_max), convention)
        out = evolve_many(inside, [rng.uniform(0, 2 * math.pi)])[0]
        psi = out.amplitudes
        quad = 0.5 * (np.exp(-1j * local) * a + np.exp(1j * local) * a.T)
        n4, n5, x = n @ psi, psi @ n.T, quad @ psi
        diff = n4 - n5
        expected = {"n4": np.vdot(psi, n4), "n5": np.vdot(psi, n5), "n_diff": np.vdot(psi, diff),
                    "n4_sq": np.vdot(n4, n4), "n_diff_sq": np.vdot(diff, diff),
                    "quad": np.vdot(psi, x), "quad_sq": np.vdot(x, x)}
        stats = output_stats(out, local)
        assert set(stats) == set(expected)
        for name, value in expected.items():
            assert abs(stats[name] - value.real) <= 1e-14 * max(abs(value), 1.0), name


def test_opposite_squeezers_pass_the_first_bs_unattenuated():
    """zeta = -xi turns into two equal-and-opposite squeezed vacuums inside."""
    r, theta = 0.6, 0.8
    port0 = GaussianPort.from_params(0, 0, r, theta)
    port1 = GaussianPort.from_params(0, 0, r, theta + math.pi)
    state = prepare(MziScenario(port1, port0), 60)
    inside = apply_first_bs(state)

    v_plus = prepare(MziScenario(_vac(), GaussianPort.from_params(0, 0, r, theta)), 60)
    v_minus = prepare(MziScenario(GaussianPort.from_params(0, 0, r, theta + math.pi), _vac()), 60)
    target = FockVector(np.outer(v_plus.amplitudes[:, 0], v_minus.amplitudes[0, :]), 60)
    assert abs(np.vdot(inside.amplitudes, target.amplitudes)) ** 2 >= 1.0 - 1e-8


def test_equal_squeezers_remove_all_phase_dependence():
    port = GaussianPort.from_params(0, 0, 0.5, 1.1)
    inside = apply_first_bs(prepare(MziScenario(port, port), 60))

    def means(phis):
        return np.array([output_stats(out)["n_diff"] for out in evolve_many(inside, phis)])

    values = means(np.linspace(0.0, 2 * math.pi, 17))
    assert max(values) - min(values) < 1e-9
    # central finite differences of the mean vanish everywhere
    h, phis = 1e-3, np.array([0.3, 1.2, 2.9, 4.4])
    slopes = (means(phis + h) - means(phis - h)) / (2 * h)
    assert np.abs(slopes).max() < 1e-9


def test_general_scenario_mean_matches_closed_form():
    port1 = GaussianPort.from_params(1.0, 0.0, 0.4, 0.0)
    port0 = GaussianPort.from_params(0.5, 0.0, 0.5, 0.0)
    out = evolve_many(apply_first_bs(prepare(MziScenario(port1, port0), 50)), [1.0])[0]
    assert relerr(output_stats(out)["n_diff"], -0.491799675253796) < 1e-8


def _oracle_qfi(fm):
    """F_dd - F_sd^2/F_ss of the oracle's own elements, without the closed-form path."""
    return fm.f_dd - fm.f_sd ** 2 / fm.f_ss


def test_numerical_fisher_examples():
    sc = MziScenario(GaussianPort.from_params(1.0), _vac())
    fm = generator_fisher(apply_first_bs(prepare(sc, 40)))
    assert abs(fm.f_dd - 1.0) < 1e-4

    port1 = GaussianPort.from_params(1.0, 0.0, 0.4, math.pi)
    port0 = GaussianPort.from_params(0.0, 0.0, 0.5, 0.0)
    fm = generator_fisher(apply_first_bs(prepare(MziScenario(port1, port0), 60)))
    assert relerr(fm.f_dd, math.e + math.sinh(0.9) ** 2) < 1e-6
    assert abs(fm.f_sd) < 1e-8

    port1, port0 = apply_pmc(PmcSet.PMC3, 0.0, 0.8, 0.5, 0.5, 0.4)
    sc3 = MziScenario(port1, port0)
    fd = generator_fisher(apply_first_bs(prepare(sc3, 60)))
    closed = fisher_matrix(sc3)
    assert relerr(_oracle_qfi(fd), qfi(sc3)) < 1e-4
    assert relerr(_oracle_qfi(fd), 2.123472941) < 1e-4
    assert relerr(abs(fd.f_sd), abs(closed.f_sd)) < 1e-4  # sign is convention bound


def test_numerical_fisher_cube_convention():
    port1, port0 = apply_pmc(PmcSet.PMC3, 0.0, 0.8, 0.5, 0.5, 0.4, BsConvention.CUBE)
    sc = MziScenario(port1, port0, BsConvention.CUBE)
    fd = generator_fisher(apply_first_bs(prepare(sc, 60), BsConvention.CUBE))
    assert relerr(_oracle_qfi(fd), qfi(sc)) < 1e-4
    assert relerr(_oracle_qfi(fd), qfi_closed_form(0.8, 0.5, 0.5, 0.4, pmc=PmcSet.PMC3)) < 1e-4


# --- the chain exponentials against a second, independent construction --------

def _random_state(rng, n_max):
    amps = rng.standard_normal((n_max + 1,) * 2) + 1j * rng.standard_normal((n_max + 1,) * 2)
    return FockVector(amps / np.linalg.norm(amps), n_max)


def _sparse_two_mode_generator(n_max, c):
    """c a0^dag a1 - c* a0 a1^dag on the full truncated two-mode basis."""
    a = scipy.sparse.diags(np.sqrt(np.arange(1.0, n_max + 1)), 1, format="csr")
    hop = scipy.sparse.kron(a.T, a)
    return (c * hop - np.conj(c) * hop.T).tocsr()


@pytest.mark.parametrize("n_max", [10, 40, 60])
def test_sector_beam_splitters_match_sparse_expm(n_max, rng):
    state = _random_state(rng, n_max)
    flat = state.amplitudes.reshape(-1)
    bs = expm_multiply(_sparse_two_mode_generator(n_max, 0.25j * math.pi), flat)
    assert np.abs(apply_first_bs(state).amplitudes.reshape(-1) - bs).max() < 1e-12
    for transmission in (0.0, 0.3, 0.85, 1.0):
        theta = math.acos(math.sqrt(transmission))
        lossy = expm_multiply(_sparse_two_mode_generator(n_max, theta), flat)
        assert np.abs(attenuate(state, transmission).amplitudes.reshape(-1) - lossy).max() < 1e-12


def _dense_single_mode(n_max, chi, gamma):
    a = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    ad = a.T
    vacuum = np.zeros(n_max + 1, dtype=complex)
    vacuum[0] = 1.0
    squeezed = scipy.linalg.expm(0.5 * (np.conj(chi) * a @ a - chi * ad @ ad)) @ vacuum
    return scipy.linalg.expm(gamma * ad - np.conj(gamma) * a) @ squeezed


def test_single_mode_vector_matches_dense_expm(rng):
    """Truncations in turn, so a cached eigenbasis is never reused at the wrong n_max."""
    for n_max in (24, 60, 24, 60):
        for _ in range(3):
            port = GaussianPort.from_params(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi),
                                            rng.uniform(0, 0.8), rng.uniform(0, 2 * math.pi))
            chi = port.squeeze.factor * np.exp(1j * port.squeeze.phase)
            expected = _dense_single_mode(n_max, chi, port.displacement.value)
            assert np.abs(_single_mode_vector(port, n_max) - expected).max() < 1e-12


def test_chain_eigenbases_are_shared_across_amplitudes():
    """Two displacements in a row reuse one cached eigenbasis and stay exact."""
    n_max = 60
    _single_mode_vector(GaussianPort.from_params(0.3), n_max)  # fill the cache
    hits = oracle._ladder_bases.cache_info().hits
    for magnitude, phase in ((0.4, 0.2), (1.3, 2.9)):
        port = GaussianPort.from_params(magnitude, phase)
        expected = _dense_single_mode(n_max, 0.0, port.displacement.value)
        assert np.abs(_single_mode_vector(port, n_max) - expected).max() < 1e-12
    assert oracle._ladder_bases.cache_info().hits == hits + 2


@pytest.mark.parametrize("convention", list(BsConvention))
def test_evolve_many_matches_evolve(convention, rng):
    """A batch of phases gives the states of the phases evolved one at a time."""
    port1 = GaussianPort.from_params(0.9, 0.3, 0.4, 2.1)
    port0 = GaussianPort.from_params(0.6, 1.7, 0.3, 0.5)
    inside = apply_first_bs(prepare(MziScenario(port1, port0, convention), 50), convention)
    phis = rng.uniform(0, 2 * math.pi, 4)
    batch = evolve_many(inside, phis)
    assert len(batch) == len(phis)
    for phi, out in zip(phis, batch):
        single = evolve_many(inside, [phi])[0]
        assert np.abs(out.amplitudes - single.amplitudes).max() < 1e-14


@pytest.mark.parametrize("convention", list(BsConvention))
def test_generator_fisher_matches_central_difference(convention, rng):
    """4 Cov(G_a, G_b) against a central difference of the phased internal state."""
    n_max, h = 60, 1e-4
    for _ in range(3):
        port1 = GaussianPort.from_params(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi))
        port0 = GaussianPort.from_params(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi))
        state = prepare(MziScenario(port1, port0, convention), n_max)
        amps = state.amplitudes
        if convention is BsConvention.CUBE:
            amps = amps * np.exp(1j * CUBE_PORT0_ROTATION * np.arange(n_max + 1))[:, None]
        # the first beam splitter, built here from the full sparse generator
        psi = expm_multiply(_sparse_two_mode_generator(n_max, 0.25j * math.pi),
                            amps.reshape(-1))
        ns = np.arange(n_max + 1, dtype=float)
        n_ax1, n_ax0 = np.tile(ns, n_max + 1), np.repeat(ns, n_max + 1)

        def phased(phi_s, phi_d):
            phi1, phi2 = 0.5 * (phi_s + phi_d), 0.5 * (phi_s - phi_d)
            return psi * np.exp(1j * (phi1 * n_ax1 + phi2 * n_ax0))

        ds = (phased(h, 0.0) - phased(-h, 0.0)) / (2 * h)
        dd = (phased(0.0, h) - phased(0.0, -h)) / (2 * h)

        def elem(da, db):
            return 4.0 * (np.vdot(da, db) - np.vdot(da, psi) * np.vdot(psi, db)).real

        fd = FisherMatrix(f_ss=elem(ds, ds), f_dd=elem(dd, dd), f_sd=elem(ds, dd))
        exact = generator_fisher(apply_first_bs(state, convention))
        scale = max(exact.f_ss, exact.f_dd)
        for a, b in ((exact.f_ss, fd.f_ss), (exact.f_dd, fd.f_dd), (exact.f_sd, fd.f_sd)):
            assert abs(a - b) / max(abs(a), abs(b), 1e-6 * scale) < 1e-6
