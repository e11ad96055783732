"""Fisher matrix, QFI and Cramer-Rao bound, generic vs closed forms."""

import math
import sys
from decimal import Decimal, localcontext

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mzgauss.errors import NonPositiveInformation, NumericalOverflow
from mzgauss.fisher import fisher_matrix, qcrb, qfi, qfi_closed_form
from mzgauss.interferometer import BsConvention, MziScenario
from mzgauss.pmc import PmcSet, apply_pmc
from mzgauss.states import GaussianPort

from conftest import mp_fisher_elements, mp_pmc3, relerr


def test_both_vacuum_gives_zero_matrix():
    sc = MziScenario(GaussianPort.vacuum(), GaussianPort.vacuum())
    fm = fisher_matrix(sc)
    assert (fm.f_ss, fm.f_dd, fm.f_sd) == (0.0, 0.0, 0.0)
    assert qfi(sc) == 0.0


def test_coherent_only_shot_noise():
    sc = MziScenario(GaussianPort.from_params(2.0), GaussianPort.vacuum())
    fm = fisher_matrix(sc)
    assert fm.f_dd == pytest.approx(4.0)
    assert fm.f_ss == pytest.approx(4.0)
    assert fm.f_sd == 0.0
    assert qfi(sc) == pytest.approx(4.0)


def test_squeezed_coherent_plus_squeezed_vacuum_example():
    # optimal phase relations with alpha=1, z=0.4, r=0.5: F_dd = e + sinh^2(0.9)
    port1 = GaussianPort.from_params(1.0, 0.0, 0.4, math.pi)
    port0 = GaussianPort.from_params(0.0, 0.0, 0.5, 0.0)
    sc = MziScenario(port1, port0)
    fm = fisher_matrix(sc)
    assert fm.f_sd == 0.0
    assert relerr(fm.f_dd, 3.77201841661768) < 1e-12
    assert relerr(qfi(sc), math.e + math.sinh(0.9) ** 2) < 1e-12


def test_f_sd_vanishes_without_port0_displacement(rng):
    for _ in range(15):
        port1 = GaussianPort.from_params(rng.uniform(0, 2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        port0 = GaussianPort.from_params(0.0, 0.0, rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        for conv in BsConvention:
            fm = fisher_matrix(MziScenario(port1, port0, conv))
            assert abs(fm.f_sd) < 1e-12


def test_qfi_keeps_f_sd_of_small_amplitudes():
    """F_sd counts at any scale: an absolute cut at F_ss < 1e-12 once dropped it (1.25e-14)."""
    alpha, beta, theta_beta = 1e-7, 5e-8, 0.3
    total = alpha ** 2 + beta ** 2  # F_ss = F_dd without squeezing; F_sd = 2 alpha beta sin(0.3)
    expected = total - (2.0 * alpha * beta * math.sin(theta_beta)) ** 2 / total
    assert relerr(expected, 1.1801342e-14, floor=0.0) < 1e-7
    sc = MziScenario(GaussianPort.from_params(alpha), GaussianPort.from_params(beta, theta_beta))
    assert relerr(qfi(sc), expected, floor=0.0) < 1e-12
    closed = qfi_closed_form(alpha, beta, 0.0, 0.0, theta=0.0, phi_zeta=0.0, theta_beta=theta_beta)
    assert relerr(closed, expected, floor=0.0) < 1e-12


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
    generic = qfi(MziScenario(port1, port0))
    assert relerr(generic, 2.7969987881237) < 1e-10
    # a strongly squeezed, strongly displaced point on the published curve
    big = qfi_closed_form(2.8, 20.0, 2.3, 2.2, pmc=PmcSet.PMC3)
    assert relerr(big, 32969.8291191279) < 1e-12
    ports = apply_pmc(PmcSet.PMC3, 0.0, 2.8, 20.0, 2.3, 2.2)
    assert relerr(qfi(MziScenario(*ports)), big) < 1e-10


@pytest.mark.parametrize("convention", list(BsConvention))
@pytest.mark.parametrize("pmc", list(PmcSet))
def test_closed_form_equals_generic_for_random_draws(pmc, convention, rng):
    for _ in range(50):
        alpha, beta, r, z = rng.uniform(0.05, 3.0, 4)
        if pmc in (PmcSet.SQZVAC_OPTIMAL, PmcSet.SQZVAC_WIDEBAND):
            beta = 0.0
        theta_alpha = rng.uniform(0.0, 2 * math.pi)
        port1, port0 = apply_pmc(pmc, theta_alpha, alpha, beta, r, z, convention)
        generic = qfi(MziScenario(port1, port0, convention))
        closed = qfi_closed_form(alpha, beta, r, z, pmc=pmc)
        assert relerr(generic, closed) < 1e-10


def test_general_phase_closed_form_matches_generic(rng):
    for conv in BsConvention:
        for _ in range(25):
            alpha, beta, r, z = rng.uniform(0.0, 2.0, 4)
            ta, tb, th, pz = rng.uniform(0.0, 2 * math.pi, 4)
            port1 = GaussianPort.from_params(alpha, ta, z, pz)
            port0 = GaussianPort.from_params(beta, tb, r, th)
            generic = qfi(MziScenario(port1, port0, conv))
            closed = qfi_closed_form(alpha, beta, r, z, convention=conv,
                                     theta_alpha=ta, theta=th, phi_zeta=pz, theta_beta=tb)
            assert relerr(generic, closed) < 1e-10


def test_explicit_phases_required_without_family():
    with pytest.raises(ValueError):
        qfi_closed_form(1.0, 0.5, 0.5, 0.4)


def test_closed_form_overflow_names_its_family():
    """No CLI input reaches this raise: heisenberg checks that <N_tot>^2 fits first,
    and no family's QFI exceeds it by more than O(N_tot)."""
    with pytest.raises(NumericalOverflow, match=r"the pmc1 QFI overflows at \|alpha\| = 1e\+200, "):
        qfi_closed_form(1e200, 0.0, 0.5, 0.5, pmc=PmcSet.PMC1)


def test_pmc3_qfi_survives_large_amplitudes():
    """F_dd no longer loses its squeezing terms against |alpha|^2 |beta|^2 at 1e5."""
    for convention in BsConvention:
        ports = apply_pmc(PmcSet.PMC3, 0.0, 1e5, 1e5, 2.3, 2.2, convention)
        value = qfi(MziScenario(*ports, convention))
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


@pytest.mark.parametrize("alpha,beta,r,z", [
    (2.7386127875258306e110, 1549193338482.9668, 26.504123651516238, 177.47084701273656),
    (6.69e148, 7.6e-44, 3.05, 269.1),
    (3.162277660168379e76, 3.162277660168379e76, 177.6456257508215, 177.3902129389385),
])
def test_pmc3_closed_form_where_a_term_overflows(alpha, beta, r, z):
    """PMC3 where bottom overflows through alpha^2 e^{2z} (7.9e243), where the squeeze
    sum does and a product of the u-scaled numerator did (2.0e300), and where
    e^{2r} e^{2z} overflows against alpha = beta (8.2e307)."""
    want = mp_pmc3(alpha, beta, r, z)
    assert abs(qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC3) - want) < 1e-15 * want


def test_pmc3_closed_form_is_finite_wherever_its_value_fits(rng):
    """Over r or z in [177.5, 354.5], where the squeeze sum overflows, and amplitudes up to
    1e154: a value below the largest double is finite and within the rounding of r + z,
    sinh^2(r + z) moving by 2 (r + z) ulp; a value above it raises.  The published form
    cancels here by up to 460 digits, so the reference runs at 520."""
    fits = 0
    for _ in range(200):
        r, z = rng.uniform(177.5, 354.5), rng.uniform(0.0, 354.5 if rng.uniform() < 0.5 else 5.0)
        if rng.uniform() < 0.5:
            r, z = z, r
        alpha, beta = 10.0 ** rng.uniform(-150.0, 154.0, 2)
        want = mp_pmc3(alpha, beta, r, z, dps=520)
        if want < sys.float_info.max:
            fits += 1
            value = qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC3)
            assert abs(value - want) < (1e-15 + 2.0 * (r + z) * 2.0 ** -52) * want
        else:
            with pytest.raises(NumericalOverflow):
                qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC3)
    assert fits > 50


@settings(max_examples=300, deadline=None)
# the cube fold rotates port 0 by exp(-i pi/2) = 6e-17 - i: 7.5e-45 against an exact 0
@example(log_alpha=-6.0, log_beta=-6.0, near=1, gap=-1.0, below=False, r=0.0, z=0.0,
         family=PmcSet.PMC3, phases=[0.0, 0.0, 0.0, 0.0], convention=BsConvention.CUBE)
@given(log_alpha=st.floats(-9.0, 7.0), log_beta=st.floats(-9.0, 7.0), near=st.integers(0, 3),
       gap=st.floats(-12.0, -0.3), below=st.booleans(), r=st.floats(0.0, 2.3), z=st.floats(0.0, 2.3),
       family=st.sampled_from(list(PmcSet) + [None]),
       phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4),
       convention=st.sampled_from(list(BsConvention)))
def test_qfi_matches_50_digit_reference(log_alpha, log_beta, near, gap, below, r, z, family,
                                        phases, convention):
    """qfi(scenario) against F_dd - F_sd^2/F_ss of the published elements in 50-digit mpmath.

    The amplitudes are log-uniform in [1e-9, 1e7], a quarter of them with
    |beta| within 1e-12 ... 0.5 relative of |alpha|; the reference is taken
    at the scenario's own double phases, with the cube fold exact.  The bound
    is 1e-9 relative plus the backward error of the factor's columns, a few
    ulp of |F e_y| = sqrt(F_dd) each, and its square: those terms matter only
    where the QFI is below 1e-10 F_dd, as for PMC3 at r = z = 0 and
    |alpha| ~ |beta|, where the QFI is set by the last digits of the
    amplitudes (3.9e-7 relative at |alpha| - |beta| = 1e-6, |alpha| = 1375,
    and QFI = 5e-19 F_dd) or of the fold.
    """
    alpha = 10.0 ** log_alpha
    beta = alpha * (1.0 + (-1.0 if below else 1.0) * 10.0 ** gap) if near == 0 else 10.0 ** log_beta
    theta_alpha, phi_zeta, theta_beta, theta = phases
    if family is None:
        ports = (GaussianPort.from_params(alpha, theta_alpha, z, phi_zeta),
                 GaussianPort.from_params(beta, theta_beta, r, theta))
    else:
        ports = apply_pmc(family, theta_alpha, alpha, beta, r, z, convention)
    sc = MziScenario(*ports, convention)
    value = qfi(sc)
    with mpmath.workdps(50):
        f_ss, f_dd, f_sd = mp_fisher_elements(sc)
        want = max(f_dd - f_sd ** 2 / f_ss, 0)  # an exact 0 may round to -1e-50 F_dd
        allowed = 1e-9 * want + 1e-14 * mpmath.sqrt(f_dd * want) + 1e-30 * f_dd
        assert value >= 0.0
        assert abs(value - want) <= allowed, (value, float(want), float(want / f_dd))
