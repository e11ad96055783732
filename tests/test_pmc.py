"""Phase-matching families, regime boundaries and the grid maximizer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzgauss.errors import UndefinedBoundary
from mzgauss.fisher import qfi, qfi_closed_form
from mzgauss.interferometer import BsConvention, MziScenario
from mzgauss.pmc import (PmcSet, apply_pmc, boundaries, classify,
                         grid_search_qfi, single_mode_alpha_lim)

from conftest import relerr


def test_published_limit_values():
    b = boundaries(2.3, 2.2)
    assert abs(b.alpha_13 - 2.54) < 0.01
    assert abs(b.alpha_23 - 2.48) < 0.01
    assert abs(b.alpha_circ - 3.76) < 0.01
    assert abs(b.beta_12 - 4.98) < 0.01
    assert abs(single_mode_alpha_lim(2.2) - 5.5) < 0.05


def test_beta12_is_an_exact_crossing():
    """PMC1 and PMC2 exchange optimality exactly at beta_12, for any alpha."""
    for r, z in ((2.3, 2.2), (0.8, 0.5), (1.0, 1.0)):
        b = boundaries(r, z)
        for alpha in (0.3, 2.0, 50.0):
            f1 = qfi_closed_form(alpha, b.beta_12, r, z, pmc=PmcSet.PMC1)
            f2 = qfi_closed_form(alpha, b.beta_12, r, z, pmc=PmcSet.PMC2)
            assert relerr(f1, f2) < 1e-10


def test_beta_curves_are_exact_crossings():
    r, z = 2.3, 2.2
    b = boundaries(r, z)
    for alpha in (2.6, 3.0, 3.5):
        beta = b.beta_23(alpha)
        assert relerr(qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC2),
                      qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC3)) < 1e-10
    for alpha in (2.6, 4.0, 10.0):
        beta = b.beta_13(alpha)
        assert relerr(qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC1),
                      qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC3)) < 1e-10


def test_curves_meet_at_triple_point():
    b = boundaries(2.3, 2.2)
    assert abs(b.beta_12 - b.beta_13(b.alpha_circ)) < 1e-8
    assert abs(b.beta_12 - b.beta_23(b.alpha_circ)) < 1e-8


def test_boundary_domains():
    b = boundaries(2.3, 2.2)
    with pytest.raises(UndefinedBoundary):
        b.beta_23(0.5 * b.alpha_23)
    with pytest.raises(UndefinedBoundary):
        b.beta_13(0.1)
    with pytest.raises(UndefinedBoundary):
        boundaries(0.7, 0.0).beta_13(1.0)
    # equal squeeze factors stay finite
    be = boundaries(1.1, 1.1)
    assert math.isfinite(be.beta_23(2 * be.alpha_23))
    assert math.isfinite(be.alpha_circ)
    # degenerate crossing for r = 0: no squeezer in port 0 makes PMC2 win immediately
    assert boundaries(0.0, 0.0).beta_12 == 0.0


def test_classify_reproduces_atlas_examples():
    assert classify(0.5, 0.25, 2.3, 2.2) is PmcSet.PMC3
    assert classify(4.0, 1.0, 2.3, 2.2) is PmcSet.PMC1
    assert classify(500.0, 100.0, 2.3, 2.2) is PmcSet.PMC2


def test_classify_breaks_exact_ties_in_order():
    # r = z = 0 and beta = 0 make PMC1 and PMC2 exactly equal
    assert classify(1.0, 0.0, 0.0, 0.0) is PmcSet.PMC1


def test_apply_pmc_examples():
    port1, port0 = apply_pmc(PmcSet.PMC2, 0.0, 1.0, 1.0, 0.5, 0.5)
    assert port0.squeeze.phase == 0.0 and port1.squeeze.phase == 0.0
    assert port0.displacement.phase == 0.0

    port1, port0 = apply_pmc(PmcSet.PMC3, 0.0, 1.0, 1.0, 0.5, 0.5)
    assert port0.displacement.phase == pytest.approx(3 * math.pi / 2)
    assert port1.squeeze.phase == pytest.approx(math.pi)
    assert port0.squeeze.phase == 0.0

    port1, port0 = apply_pmc(PmcSet.PMC1, math.pi / 4, 1.0, 1.0, 0.5, 0.5)
    assert port0.squeeze.phase == pytest.approx(math.pi / 2)
    assert port1.squeeze.phase == pytest.approx(3 * math.pi / 2)
    assert port0.displacement.phase == pytest.approx(math.pi / 4)


def test_pmc1_anti_phase_sign_is_immaterial():
    # phi_zeta - theta = +pi and -pi prepare the same physical optimum
    from mzgauss.states import GaussianPort

    alpha, beta, r, z = 1.2, 0.4, 0.7, 0.5
    port1, port0 = apply_pmc(PmcSet.PMC1, 0.0, alpha, beta, r, z)
    theta = port0.squeeze.phase
    plus = qfi(MziScenario(port1, port0))
    port1_minus = GaussianPort.from_params(alpha, 0.0, z, theta - math.pi)
    assert port1_minus.squeeze.phase == pytest.approx(port1.squeeze.phase)
    minus = qfi(MziScenario(port1_minus, port0))
    assert plus == pytest.approx(minus, rel=1e-14)
    assert plus == pytest.approx(qfi_closed_form(alpha, beta, r, z, pmc=PmcSet.PMC1), rel=1e-12)


def test_grid_search_recovers_sqzvac_optimum():
    alpha, r, z = 1.0, 0.7, 0.5
    phases, best = grid_search_qfi(alpha, 0.0, r, z, resolution=32)
    expected = qfi_closed_form(alpha, 0.0, r, z, pmc=PmcSet.SQZVAC_OPTIMAL)
    assert relerr(best, expected) < 1e-3
    theta, phi_zeta, _ = phases  # theta_beta is free when beta = 0
    assert min(theta % math.pi, math.pi - theta % math.pi) < 1e-3
    assert abs(((theta - phi_zeta) % (2 * math.pi)) - math.pi) < 1e-3


@pytest.mark.parametrize("alpha,beta,expected", [
    (0.5, 0.25, PmcSet.PMC3),
    (4.0, 1.0, PmcSet.PMC1),
    (500.0, 100.0, PmcSet.PMC2),
])
def test_grid_search_agrees_with_classify(alpha, beta, expected):
    phases, best = grid_search_qfi(alpha, beta, 2.3, 2.2, resolution=48)
    closed = qfi_closed_form(alpha, beta, 2.3, 2.2, pmc=expected)
    assert relerr(best, closed) < 1e-3
    assert classify(alpha, beta, 2.3, 2.2) is expected
    # the refined maximum sits on the quarter-pi phase lattice
    for ph in phases:
        frac = ph / (0.5 * math.pi)
        assert abs(frac - round(frac)) * 0.5 * math.pi < 1e-4


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_alpha=st.floats(-1.0, math.log10(500.0)), log_beta=st.floats(-1.0, math.log10(500.0)),
       r=st.floats(0.0, 2.3), z=st.floats(0.0, 2.3), convention=st.sampled_from(list(BsConvention)))
def test_grid_maximum_never_below_the_classified_family(log_alpha, log_beta, r, z, convention):
    """Off criterion 4's grid: the brute-force maximum reaches the classified family's QFI.

    Every family's phases lie on the resolution-32 lattice, and the
    refinement never lowers its start, so only rounding may separate them.
    """
    alpha, beta = 10.0 ** log_alpha, 10.0 ** log_beta
    _, best = grid_search_qfi(alpha, beta, r, z, 32, convention)
    family = classify(alpha, beta, r, z)
    assert best >= qfi_closed_form(alpha, beta, r, z, pmc=family) * (1.0 - 1e-9)


def test_resolution_validated():
    with pytest.raises(ValueError):
        grid_search_qfi(1.0, 0.5, 0.5, 0.5, resolution=4)


def test_pmc3_dip_near_equal_amplitudes():
    high = qfi_closed_form(500.0, 400.0, 2.3, 2.2, pmc=PmcSet.PMC3)
    dip = qfi_closed_form(500.0, 500.0, 2.3, 2.2, pmc=PmcSet.PMC3)
    assert dip < high


def test_cube_remap_preserves_the_optimum():
    alpha, beta, r, z = 1.4, 0.7, 0.9, 0.6
    for pmc in (PmcSet.PMC1, PmcSet.PMC2, PmcSet.PMC3):
        sym = qfi(MziScenario(*apply_pmc(pmc, 0.3, alpha, beta, r, z)))
        port1, port0 = apply_pmc(pmc, 0.3, alpha, beta, r, z, BsConvention.CUBE)
        cube = qfi(MziScenario(port1, port0, BsConvention.CUBE))
        assert relerr(sym, cube) < 1e-10
