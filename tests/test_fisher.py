"""Fisher matrix, QFI and Cramer-Rao bound, generic vs closed forms."""

import math
from decimal import Decimal, localcontext

import pytest

from mzgauss.errors import DegenerateMatrix, NonPositiveInformation
from mzgauss.fisher import (FisherMatrix, fisher_matrix, qcrb, qfi,
                            qfi_closed_form)
from mzgauss.interferometer import BsConvention, MziScenario
from mzgauss.pmc import PmcSet, apply_pmc
from mzgauss.states import GaussianPort

from conftest import relerr


def test_both_vacuum_gives_zero_matrix():
    sc = MziScenario(GaussianPort.vacuum(), GaussianPort.vacuum())
    fm = fisher_matrix(sc)
    assert (fm.f_ss, fm.f_dd, fm.f_sd) == (0.0, 0.0, 0.0)
    assert qfi(fm) == 0.0


def test_coherent_only_shot_noise():
    sc = MziScenario(GaussianPort.from_params(2.0), GaussianPort.vacuum())
    fm = fisher_matrix(sc)
    assert fm.f_dd == pytest.approx(4.0)
    assert fm.f_ss == pytest.approx(4.0)
    assert fm.f_sd == 0.0
    assert qfi(fm) == pytest.approx(4.0)


def test_squeezed_coherent_plus_squeezed_vacuum_example():
    # optimal phase relations with alpha=1, z=0.4, r=0.5: F_dd = e + sinh^2(0.9)
    port1 = GaussianPort.from_params(1.0, 0.0, 0.4, math.pi)
    port0 = GaussianPort.from_params(0.0, 0.0, 0.5, 0.0)
    fm = fisher_matrix(MziScenario(port1, port0))
    assert fm.f_sd == 0.0
    assert relerr(fm.f_dd, 3.77201841661768) < 1e-12
    assert relerr(qfi(fm), math.e + math.sinh(0.9) ** 2) < 1e-12


def test_f_sd_vanishes_without_port0_displacement(rng):
    for _ in range(15):
        port1 = GaussianPort.from_params(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        port0 = GaussianPort.from_params(0.0, 0.0, rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        for conv in BsConvention:
            fm = fisher_matrix(MziScenario(port1, port0, conv))
            assert abs(fm.f_sd) < 1e-12


def test_qfi_degenerate_matrix_guard():
    with pytest.raises(DegenerateMatrix):
        qfi(FisherMatrix(f_ss=0.0, f_dd=1.0, f_sd=0.5))
    assert qfi(FisherMatrix(f_ss=0.0, f_dd=1.0, f_sd=0.0)) == 1.0


def test_qcrb_values_and_errors():
    assert qcrb(4.0) == pytest.approx(0.5)
    assert qcrb(4.0, shots=100) == pytest.approx(0.05)
    expected = 1.0 / math.sqrt(math.e + math.sinh(0.9) ** 2)
    assert qcrb(math.e + math.sinh(0.9) ** 2) == pytest.approx(expected, rel=1e-14)
    assert relerr(expected, 0.514888388272567) < 1e-13
    with pytest.raises(NonPositiveInformation):
        qcrb(0.0)
    with pytest.raises(NonPositiveInformation):
        qcrb(-1.0)
    with pytest.raises(ValueError):
        qcrb(1.0, shots=0)


def test_pmc_closed_forms_reduce_and_cross_check():
    # PMC1 at beta=0 reduces to the squeezed-vacuum optimum
    assert qfi_closed_form(1.3, 0.0, 0.6, 0.4, pmc=PmcSet.PMC1) == pytest.approx(
        qfi_closed_form(1.3, 0.0, 0.6, 0.4, pmc=PmcSet.SQZVAC_OPTIMAL))
    # PMC2 with equal amplitudes and factors doubles the single-port information
    val = qfi_closed_form(1.0, 1.0, 0.5, 0.5, pmc=PmcSet.PMC2)
    assert val == pytest.approx(2.0 * math.e, rel=1e-14)
    # frozen PMC3 values and generic-path agreement
    assert relerr(qfi_closed_form(1.0, 0.5, 0.5, 0.4, pmc=PmcSet.PMC3), 2.7969987881237) < 1e-12
    port1, port0 = apply_pmc(PmcSet.PMC3, 0.0, 1.0, 0.5, 0.5, 0.4)
    generic = qfi(fisher_matrix(MziScenario(port1, port0)))
    assert relerr(generic, 2.7969987881237) < 1e-10
    # a strongly squeezed, strongly displaced point on the published curve
    big = qfi_closed_form(2.8, 20.0, 2.3, 2.2, pmc=PmcSet.PMC3)
    assert relerr(big, 32969.8291191279) < 1e-12
    ports = apply_pmc(PmcSet.PMC3, 0.0, 2.8, 20.0, 2.3, 2.2)
    assert relerr(qfi(fisher_matrix(MziScenario(*ports))), big) < 1e-10


@pytest.mark.parametrize("convention", list(BsConvention))
@pytest.mark.parametrize("pmc", list(PmcSet))
def test_closed_form_equals_generic_for_random_draws(pmc, convention, rng):
    for _ in range(50):
        alpha, beta, r, z = rng.uniform(0.05, 3.0, 4)
        if pmc in (PmcSet.SQZVAC_OPTIMAL, PmcSet.SQZVAC_WIDEBAND):
            beta = 0.0
        theta_alpha = rng.uniform(0.0, 2 * math.pi)
        port1, port0 = apply_pmc(pmc, theta_alpha, alpha, beta, r, z, convention)
        generic = qfi(fisher_matrix(MziScenario(port1, port0, convention)))
        closed = qfi_closed_form(alpha, beta, r, z, pmc=pmc)
        assert relerr(generic, closed) < 1e-10


def test_general_phase_closed_form_matches_generic(rng):
    for conv in BsConvention:
        for _ in range(25):
            alpha, beta, r, z = rng.uniform(0.0, 2.0, 4)
            ta, tb, th, pz = rng.uniform(0.0, 2 * math.pi, 4)
            port1 = GaussianPort.from_params(alpha, ta, z, pz)
            port0 = GaussianPort.from_params(beta, tb, r, th)
            generic = qfi(fisher_matrix(MziScenario(port1, port0, conv)))
            closed = qfi_closed_form(alpha, beta, r, z, convention=conv,
                                     theta_alpha=ta, theta=th, phi_zeta=pz, theta_beta=tb)
            assert relerr(generic, closed) < 1e-10


def test_explicit_phases_required_without_family():
    with pytest.raises(ValueError):
        qfi_closed_form(1.0, 0.5, 0.5, 0.4)


def test_pmc3_qfi_survives_large_amplitudes():
    """F_dd no longer loses its squeezing terms against |alpha|^2 |beta|^2 at 1e5."""
    for convention in BsConvention:
        ports = apply_pmc(PmcSet.PMC3, 0.0, 1e5, 1e5, 2.3, 2.2, convention)
        value = qfi(fisher_matrix(MziScenario(*ports, convention)))
        assert relerr(value, 4091.19267, floor=0.0) < 1e-6


def _pmc3_decimal(alpha, beta, r, z):
    """The published PMC3 expression, cancellation and all, in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        a, b, r, z = (Decimal(float(x)) for x in (alpha, beta, r, z))

        def sinh(x):
            return (x.exp() - (-x).exp()) / 2

        e2r, e2z = (2 * r).exp(), (2 * z).exp()
        top = (a * b) ** 2 * (e2r + e2z) ** 2
        bottom = (sinh(2 * r) ** 2 + sinh(2 * z) ** 2) / 2 + b * b * e2r + a * a * e2z
        return float(a * a * e2r + b * b * e2z + sinh(r + z) ** 2 - top / bottom)


def test_pmc3_closed_form_matches_decimal_reference(rng):
    """No cancellation in the PMC3 closed form, up to amplitudes of 1e6."""
    draws = [(1e6, 1e6, 2.3, 2.2), (1e5, 1e5, 2.3, 2.2), (3.0, 0.0, 0.4, 0.7)]
    for _ in range(400):
        alpha, beta = 10.0 ** rng.uniform(-2.0, 6.0, 2)
        if rng.uniform() < 0.25:
            beta = alpha * (1.0 + rng.uniform(-1e-3, 1e-3))  # the dip at equal amplitudes
        draws.append((alpha, beta, *rng.uniform(0.0, 2.3, 2)))
    for alpha, beta, r, z in draws:
        value = qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC3)
        assert relerr(value, _pmc3_decimal(alpha, beta, r, z), floor=0.0) < 1e-12
    assert relerr(qfi_closed_form(1e6, 1e6, 2.3, 2.2, pmc=PmcSet.PMC3), 4091.19268,
                  floor=0.0) < 1e-8
