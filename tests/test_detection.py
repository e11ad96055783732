"""Detection-scheme means, variances, sensitivities and working points."""

import math

import mpmath
import numpy as np
import pytest

from mzgauss._minimize import golden_minimize
from mzgauss.detection import (DifferenceIntensity, Homodyne,
                               SingleModeIntensity, observable_mean,
                               observable_variance, optimal_working_point,
                               sensitivity)
from mzgauss.errors import FlatObjective
from mzgauss.fisher import fisher_matrix, qcrb, qfi
from mzgauss.interferometer import BsConvention, MziScenario
from mzgauss.oracle import evolve, measure_stats, prepare
from mzgauss.pmc import PmcSet, apply_pmc
from mzgauss.states import GaussianPort, port_moments

from conftest import relerr

ALL_SCHEMES = (DifferenceIntensity(), SingleModeIntensity(), Homodyne())


def _sqzvac_scenario(alpha, r, z, theta_alpha=0.0, wideband=False):
    family = PmcSet.SQZVAC_WIDEBAND if wideband else PmcSet.SQZVAC_OPTIMAL
    port1, port0 = apply_pmc(family, theta_alpha, alpha, 0.0, r, z)
    return MziScenario(port1, port0)


def test_vacuum_means_vanish():
    sc = MziScenario(GaussianPort.vacuum(), GaussianPort.vacuum(), phase=0.7)
    for scheme in ALL_SCHEMES:
        assert observable_mean(scheme, sc) == 0.0


def test_difference_mean_sqzvac_family():
    # cos(phi) (|alpha|^2 + sinh^2 z - sinh^2 r) at phi = pi/3
    sc = _sqzvac_scenario(1.0, 0.5, 0.4).with_phase(math.pi / 3)
    assert relerr(observable_mean(DifferenceIntensity(), sc), 0.4485885778724) < 1e-12


def test_single_mode_mean_at_zero_phase():
    port1 = GaussianPort.from_params(1.2, 0.4, 0.3, 1.0)
    port0 = GaussianPort.from_params(0.7, 1.1, 0.6, 2.0)
    sc = MziScenario(port1, port0, phase=0.0)
    expected = 1.2 ** 2 + math.sinh(0.3) ** 2
    assert observable_mean(SingleModeIntensity(), sc) == pytest.approx(expected, rel=1e-14)


def test_coherent_only_difference_variance_is_shot_noise():
    sc0 = MziScenario(GaussianPort.from_params(1.7), GaussianPort.vacuum())
    for phi in np.linspace(0.0, 2 * math.pi, 7):
        var = observable_variance(DifferenceIntensity(), sc0.with_phase(phi))
        assert var == pytest.approx(1.7 ** 2, rel=1e-12)


def test_difference_variance_at_half_pi_under_pmcs():
    alpha, r, z = 1.0, 0.5, 0.4
    sc = _sqzvac_scenario(alpha, r, z).with_phase(math.pi / 2)
    expected = alpha ** 2 * math.exp(-2 * r) + math.sinh(r - z) ** 2
    assert observable_variance(DifferenceIntensity(), sc) == pytest.approx(expected, rel=1e-12)


def test_general_state_variance_against_oracle():
    # frozen oracle value at n_max=50 for the all-phases-zero scenario, phi = 1
    port1 = GaussianPort.from_params(1.0, 0.0, 0.4, 0.0)
    port0 = GaussianPort.from_params(0.5, 0.0, 0.5, 0.0)
    sc = MziScenario(port1, port0, phase=1.0)
    var = observable_variance(DifferenceIntensity(), sc)
    assert relerr(var, 1.52385212919246) < 1e-8

    out = evolve(prepare(sc, 50), 1.0)
    live = measure_stats(out, "n_diff_sq") - measure_stats(out, "n_diff") ** 2
    assert relerr(var, live) < 1e-8
    assert relerr(observable_mean(DifferenceIntensity(), sc), -0.491799675253796) < 1e-8


def test_all_schemes_match_oracle_with_cube_convention(rng):
    port1 = GaussianPort.from_params(0.8, 1.9, 0.5, 0.3)
    port0 = GaussianPort.from_params(1.1, 0.6, 0.4, 2.5)
    base = MziScenario(port1, port0, BsConvention.CUBE)
    state = prepare(base, 60)
    for phi in rng.uniform(0.0, 2 * math.pi, 3):
        sc = base.with_phase(float(phi))
        out = evolve(state, float(phi), BsConvention.CUBE)
        local = port1.displacement.phase
        for scheme, obs in ((DifferenceIntensity(), "n_diff"),
                            (SingleModeIntensity(), "n4"),
                            (Homodyne(), "quad")):
            mean = measure_stats(out, obs, local)
            assert relerr(observable_mean(scheme, sc), mean) < 1e-10
            var = measure_stats(out, obs + "_sq" if obs != "quad" else "quad_sq", local) - mean ** 2
            assert relerr(observable_variance(scheme, sc), var) < 1e-8


def test_cube_means_follow_published_forms(rng):
    """Cube convention: the interference terms pick up the imaginary part."""
    port1 = GaussianPort.from_params(1.2, 0.8, 0.2, 1.5)
    port0 = GaussianPort.from_params(0.9, 2.2, 0.3, 0.4)
    p0, p1 = port_moments(port0), port_moments(port1)
    for phi in rng.uniform(0.0, 2 * math.pi, 5):
        sc = MziScenario(port1, port0, BsConvention.CUBE, phase=float(phi))
        im = (p1.mean_a * p0.mean_a.conjugate()).imag
        nd = (math.cos(phi) * (p1.mean_n - p0.mean_n) + 2.0 * math.sin(phi) * im)
        n4 = (math.cos(phi / 2) ** 2 * p1.mean_n + math.sin(phi / 2) ** 2 * p0.mean_n
              + math.sin(phi) * im)
        assert observable_mean(DifferenceIntensity(), sc) == pytest.approx(nd, abs=1e-12)
        assert observable_mean(SingleModeIntensity(), sc) == pytest.approx(n4, abs=1e-12)


def test_sensitivity_shot_noise_limit():
    sc = MziScenario(GaussianPort.from_params(2.5), GaussianPort.vacuum(), phase=math.pi / 2)
    point = sensitivity(DifferenceIntensity(), sc)
    assert point.delta_phi == pytest.approx(1.0 / 2.5, rel=1e-12)


def test_sensitivity_returns_infinity_on_vanishing_slope():
    sc = MziScenario(GaussianPort.from_params(2.5), GaussianPort.vacuum(), phase=0.0)
    assert math.isinf(sensitivity(DifferenceIntensity(), sc).delta_phi)


def test_homodyne_matches_squeezed_vacuum_result():
    # at phi = pi under the first phase relation the squeezing in port 1 drops out
    sc = _sqzvac_scenario(1.4, 0.6, 0.9).with_phase(math.pi)
    point = sensitivity(Homodyne(), sc)
    assert point.delta_phi == pytest.approx(math.exp(-0.6) / 1.4, rel=1e-12)


@pytest.mark.parametrize("factor", [0.0, 0.6, 2.3, 9.0, 20.0, 170.0])
@pytest.mark.parametrize("squeeze_phase", [0.0, 1.3])
def test_homodyne_variance_against_mpmath(factor, squeeze_phase):
    """(cosh 2s - sinh 2s cos(theta - 2 phi_l)) / 4 to 50 digits, cancellation and all.

    At phi = 0 the read-out port carries port 1 alone.  Squeeze phase 0 with
    local phase 0 is the squeezed quadrature, e^{-2s}/4.
    """
    port1 = GaussianPort.from_params(1.0, 0.0, factor, squeeze_phase)
    scenario = MziScenario(port1, GaussianPort.vacuum(), phase=0.0)
    for local_phase in (0.0, 0.5, math.pi / 2, 2.0):
        # the terms are e^{4s} times the result: 2s extra digits keep 50 of them
        with mpmath.workdps(50 + int(2 * factor)):
            s, angle = mpmath.mpf(factor), mpmath.mpf(squeeze_phase) - 2 * mpmath.mpf(local_phase)
            expected = (mpmath.cosh(2 * s) - mpmath.sinh(2 * s) * mpmath.cos(angle)) / 4
        got = observable_variance(Homodyne(local_phase), scenario)
        assert got > 0.0
        assert abs(got - expected) / expected < 1e-13, (local_phase, got, expected)


def test_homodyne_local_phase_override():
    sc = _sqzvac_scenario(1.4, 0.6, 0.0, theta_alpha=0.7).with_phase(math.pi)
    default = sensitivity(Homodyne(), sc).delta_phi
    explicit = sensitivity(Homodyne(local_phase=0.7), sc).delta_phi
    assert default == explicit
    detuned = sensitivity(Homodyne(local_phase=0.7 + 1.0), sc).delta_phi
    assert detuned > default


def test_single_mode_working_point_matches_closed_form():
    # frozen closed-form optimum for alpha=1, r=0.5, z=0.4 under the optimal relations
    sc = _sqzvac_scenario(1.0, 0.5, 0.4)
    point = optimal_working_point(SingleModeIntensity(), sc)
    assert abs(point.phase - 1.8981404501349168) < 1e-9
    assert relerr(point.delta_phi, 1.9523206159132667) < 1e-12
    # both arctan branches are equivalent working points
    mirrored = sensitivity(SingleModeIntensity(), sc.with_phase(2 * math.pi - point.phase))
    assert mirrored.delta_phi == pytest.approx(point.delta_phi, rel=1e-12)


def _scan_optimum(scheme, sc, points=4000):
    """Independent reference: dense phase scan plus golden refinement."""
    phis = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    values = [sensitivity(scheme, sc.with_phase(float(p))).delta_phi for p in phis]
    k = int(np.argmin(values))
    step = 2 * math.pi / points
    return golden_minimize(lambda p: sensitivity(scheme, sc.with_phase(p)).delta_phi,
                           phis[k] - step, phis[k] + step, tol=1e-12)


def test_analytic_working_points_agree_with_scan_minimizer():
    """The root-based optima match an independent scan plus refinement."""
    sc = _sqzvac_scenario(1.0, 0.5, 0.4)
    for scheme in ALL_SCHEMES:
        point = optimal_working_point(scheme, sc)
        phase, value = _scan_optimum(scheme, sc)
        delta = abs(point.phase - phase) % (2 * math.pi)
        # sg has two mirror-image optima; either phase is a correct answer
        mirror = abs(point.phase + phase - 2 * math.pi)
        assert min(delta, 2 * math.pi - delta, mirror) < 1e-6
        assert point.delta_phi <= value * (1 + 1e-12)

    ports = apply_pmc(PmcSet.PMC2, 0.4, 1.3, 0.8, 0.6, 0.35)
    general = MziScenario(*ports, efficiency=0.7)
    for scheme in ALL_SCHEMES:
        point = optimal_working_point(scheme, general)
        assert point.delta_phi == pytest.approx(_scan_optimum(scheme, general)[1], rel=1e-11)
        assert sensitivity(scheme, general.with_phase(point.phase)).delta_phi == point.delta_phi


def test_difference_working_point_at_half_pi_for_undisplaced_port0():
    sc = _sqzvac_scenario(1.0, 0.5, 0.4)
    point = optimal_working_point(DifferenceIntensity(), sc)
    assert point.phase == pytest.approx(math.pi / 2, abs=1e-12)
    expected = math.sqrt(math.exp(-1.0) + math.sinh(0.1) ** 2) / abs(
        1.0 + math.sinh(0.4) ** 2 - math.sinh(0.5) ** 2)
    assert point.delta_phi == pytest.approx(expected, rel=1e-12)


def test_equal_squeezing_ties_homodyne_and_difference():
    sc = _sqzvac_scenario(2.0, 0.7, 0.7)
    hom = optimal_working_point(Homodyne(), sc).delta_phi
    df = optimal_working_point(DifferenceIntensity(), sc).delta_phi
    assert hom == pytest.approx(math.exp(-0.7) / 2.0, rel=1e-12)
    assert df == pytest.approx(hom, rel=1e-12)


def test_pmc2_homodyne_reaches_its_closed_optimum():
    alpha, beta, r, z = 1.5, 0.9, 0.45, 0.3
    port1, port0 = apply_pmc(PmcSet.PMC2, 0.2, alpha, beta, r, z)
    sc = MziScenario(port1, port0)
    point = optimal_working_point(Homodyne(), sc)
    expected = 1.0 / math.sqrt(alpha ** 2 * math.exp(2 * r) + beta ** 2 * math.exp(2 * z))
    assert point.delta_phi == pytest.approx(expected, rel=1e-12)


def test_working_points_beat_dense_phase_sampling(rng):
    """The optimum is never worse than 10^4 uniformly sampled phases, lossy or not."""
    phis = np.linspace(0.0, 2 * math.pi, 10_000, endpoint=False)
    for efficiency in (1.0, 0.6):
        for _ in range(3):
            port1 = GaussianPort.from_params(rng.uniform(0.1, 2), rng.uniform(0, 2 * math.pi),
                                             rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi))
            port0 = GaussianPort.from_params(rng.uniform(0.1, 2), rng.uniform(0, 2 * math.pi),
                                             rng.uniform(0, 0.9), rng.uniform(0, 2 * math.pi))
            sc = MziScenario(port1, port0, efficiency=efficiency)
            for scheme in ALL_SCHEMES:
                best = optimal_working_point(scheme, sc).delta_phi
                sampled = min(sensitivity(scheme, sc.with_phase(p)).delta_phi for p in phis)
                assert best <= sampled * (1.0 + 1e-12)


def test_single_mode_optimum_finds_the_deeper_basin():
    """Two nearly equal sg minima: a 720-point scan refined the shallower one."""
    ports = apply_pmc(PmcSet.PMC1, 5.527777157037824, 0.1806803804791186,
                      0.20031244540561197, 1.9992432696619447, 1.793026750521971)
    point = optimal_working_point(SingleModeIntensity(), MziScenario(*ports))
    assert relerr(point.delta_phi, 4.82276159239, floor=0.0) < 1e-11


def test_single_mode_optimum_at_large_amplitude():
    """The sg optimum near a dark fringe at |alpha| ~ 5e4 matches a 60-digit optimum."""
    ports = apply_pmc(PmcSet.PMC2, 1.333873566992744, 54909.81159106134,
                      45030.58579336825, 1.4165022761590549, 0.17052217010039536)
    point = optimal_working_point(SingleModeIntensity(), MziScenario(*ports))
    assert relerr(point.delta_phi, 4.299429931239e-6, floor=0.0) < 1e-12


def test_working_point_hierarchy_on_grid():
    for alpha in (0.7, 1.0, 3.0, 10.0, 100.0):
        for r, z in ((0.5, 0.4), (1.0, 1.0), (2.3, 2.2), (0.3, 0.8)):
            sc = _sqzvac_scenario(alpha, r, z)
            bound = qcrb(qfi(fisher_matrix(sc)))
            sg = optimal_working_point(SingleModeIntensity(), sc).delta_phi
            df = optimal_working_point(DifferenceIntensity(), sc).delta_phi
            hom = optimal_working_point(Homodyne(), sc).delta_phi
            assert sg >= df * (1.0 - 1e-12)
            assert df >= bound * (1.0 - 1e-12)
            assert hom >= bound * (1.0 - 1e-12)


def test_every_phase_quantity_is_two_pi_periodic(rng):
    """Sensitivities, variances and measurable means repeat after 2 pi.

    The homodyne mean flips sign with the field under phi -> phi + 2 pi; only
    its magnitude is observable, and that is periodic.
    """
    port1 = GaussianPort.from_params(1.3, 0.5, 0.4, 2.0)
    port0 = GaussianPort.from_params(0.4, 1.8, 0.7, 0.9)
    base = MziScenario(port1, port0)
    for phi in rng.uniform(0.0, 2 * math.pi, 4):
        here, there = base.with_phase(float(phi)), base.with_phase(float(phi) + 2 * math.pi)
        for scheme in ALL_SCHEMES:
            a = sensitivity(scheme, here)
            b = sensitivity(scheme, there)
            assert a.delta_phi == pytest.approx(b.delta_phi, rel=1e-9)
            assert observable_variance(scheme, here) == pytest.approx(
                observable_variance(scheme, there), rel=1e-9)
            wrap = -1.0 if isinstance(scheme, Homodyne) else 1.0
            assert observable_mean(scheme, here) == pytest.approx(
                wrap * observable_mean(scheme, there), abs=1e-9)


def test_two_equal_squeezers_have_no_working_point():
    port = GaussianPort.from_params(0.0, 0.0, 0.5, 0.0)
    sc = MziScenario(port, port)
    for scheme in (DifferenceIntensity(), SingleModeIntensity(), Homodyne()):
        with pytest.raises(FlatObjective):
            optimal_working_point(scheme, sc)
