"""Detection-scheme means, variances, sensitivities and working points."""

import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzgauss.detection import (DifferenceIntensity, Homodyne, SensitivityPoint,
                               SingleModeIntensity, observable_mean,
                               observable_stats, observable_variance,
                               optimal_working_point, sensitivities,
                               sensitivity, working_points)
from mzgauss.detection import _root_phases
from mzgauss.errors import FlatObjective
from mzgauss.fisher import fisher_matrix, qcrb, qfi
from mzgauss.interferometer import CUBE_PORT0_ROTATION, BsConvention, MziScenario
from mzgauss.oracle import apply_first_bs, evolve_many, output_stats, prepare
from mzgauss.pmc import PmcSet, apply_pmc
from mzgauss.states import GaussianPort, port_moments

from conftest import mp_fisher_elements, polish_reference, relerr, scan_optimum

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

    stats = output_stats(evolve_many(apply_first_bs(prepare(sc, 50)), [1.0]))
    live = stats["n_diff_sq"][0] - stats["n_diff"][0] ** 2
    assert relerr(var, live) < 1e-8
    assert relerr(observable_mean(DifferenceIntensity(), sc), -0.491799675253796) < 1e-8


def test_all_schemes_match_oracle_with_cube_convention(rng):
    port1 = GaussianPort.from_params(0.8, 1.9, 0.5, 0.3)
    port0 = GaussianPort.from_params(1.1, 0.6, 0.4, 2.5)
    base = MziScenario(port1, port0, BsConvention.CUBE)
    inside = apply_first_bs(prepare(base, 60), BsConvention.CUBE)
    phis = rng.uniform(0.0, 2 * math.pi, 3)
    stats = output_stats(evolve_many(inside, phis), port1.displacement.phase)
    for k, phi in enumerate(phis):
        sc = base.with_phase(float(phi))
        for scheme, obs in ((DifferenceIntensity(), "n_diff"),
                            (SingleModeIntensity(), "n4"),
                            (Homodyne(), "quad")):
            mean = stats[obs][k]
            assert relerr(observable_mean(scheme, sc), mean) < 1e-10
            var = stats[obs + "_sq"][k] - mean ** 2
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


@pytest.mark.parametrize("local_phase", [math.nan, math.inf])
def test_non_finite_local_phase_rejected(local_phase):
    with pytest.raises(ValueError, match="local_phase must be finite"):
        Homodyne(local_phase)


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


def test_analytic_working_points_agree_with_scan_minimizer():
    """The root-based optima match an independent scan plus refinement."""
    sc = _sqzvac_scenario(1.0, 0.5, 0.4)
    for scheme in ALL_SCHEMES:
        point = optimal_working_point(scheme, sc)
        phase, value = scan_optimum(scheme, sc)
        delta = abs(point.phase - phase) % (2 * math.pi)
        # sg has two mirror-image optima; either phase is a correct answer
        mirror = abs(point.phase + phase - 2 * math.pi)
        assert min(delta, 2 * math.pi - delta, mirror) < 1e-6
        assert point.delta_phi <= value * (1 + 1e-12)

    ports = apply_pmc(PmcSet.PMC2, 0.4, 1.3, 0.8, 0.6, 0.35)
    general = MziScenario(*ports, efficiency=0.7)
    for scheme in ALL_SCHEMES:
        point = optimal_working_point(scheme, general)
        assert point.delta_phi == pytest.approx(scan_optimum(scheme, general)[1], rel=1e-11)
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
    """The optimum is never worse than 10^4 uniformly sampled phases, lossy or not.

    The samples come from the array view ``sensitivities``, which the next
    test holds equal to the scalar ``sensitivity``.
    """
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
                sampled = sensitivities([scheme], sc, phis)[0].min()
                assert best <= sampled * (1.0 + 1e-12)


def test_array_views_equal_scalar_views(rng):
    """Every entry of the phase-array functions is the scalar function at that phase."""
    phis = rng.uniform(-1.0, 7.0, 40)
    for convention in BsConvention:
        port1 = GaussianPort.from_params(1.3, 0.5, 0.4, 2.0)
        port0 = GaussianPort.from_params(0.4, 1.8, 0.7, 0.9)
        base = MziScenario(port1, port0, convention, efficiency=0.8)
        for scheme in ALL_SCHEMES:
            (means,), (variances,) = observable_stats([scheme], base, phis)
            values = sensitivities([scheme], base, phis)[0]
            for k, phi in enumerate(phis):
                sc = base.with_phase(float(phi))
                assert means[k] == observable_mean(scheme, sc)
                assert variances[k] == observable_variance(scheme, sc)
                assert values[k] == sensitivity(scheme, sc).delta_phi
            etas = np.linspace(0.3, 1.0, 8)
            for eta, value in zip(etas, sensitivities([scheme], base, 1.1, etas)[0]):
                assert value == sensitivity(scheme, base.with_phase(1.1).with_efficiency(eta)).delta_phi


def _ordered_subsets(items):
    return [subset for size in range(1, len(items) + 1)
            for subset in itertools.permutations(items, size)]


@pytest.mark.parametrize("local_phase", [None, 2.2])
def test_stacked_sensitivities_equal_one_scheme_calls(local_phase, rng):
    """Row k of one call for several schemes is the one-scheme call for schemes[k], bit for bit.

    Over every ordered subset of df, sg and hom, on a phase array and on an
    efficiency array, in both conventions, lossless and lossy; the means and
    variances of ``observable_stats`` on the phase array too.
    """
    schemes = (DifferenceIntensity(), SingleModeIntensity(), Homodyne(local_phase))
    phis = rng.uniform(-1.0, 7.0, 24)
    etas = np.linspace(0.3, 1.0, 9)
    port1 = GaussianPort.from_params(1.3, 0.5, 0.4, 2.0)
    port0 = GaussianPort.from_params(0.4, 1.8, 0.7, 0.9)
    for convention in BsConvention:
        for efficiency in (1.0, 0.7):
            base = MziScenario(port1, port0, convention, 0.4, efficiency)
            for args in ((phis,), (base.phase, etas)):
                for subset in _ordered_subsets(schemes):
                    values = sensitivities(list(subset), base, *args)
                    assert values.shape == (len(subset), 24 if args[0] is phis else 9)
                    for k, scheme in enumerate(subset):
                        assert np.array_equal(values[k], sensitivities([scheme], base, *args)[0])
            for subset in _ordered_subsets(schemes):
                means, variances = observable_stats(list(subset), base, phis)
                for k, scheme in enumerate(subset):
                    (mean,), (variance,) = observable_stats([scheme], base, phis)
                    assert np.array_equal(means[k], mean) and np.array_equal(variances[k], variance)


def _number_moments(scenario):
    """(Var n, <n a> - <n><a>) of the folded port 0 and of port 1, from the port parameters."""
    out = []
    cube = scenario.convention is BsConvention.CUBE
    for port, rotation in ((scenario.port0, CUBE_PORT0_ROTATION if cube else 0.0), (scenario.port1, 0.0)):
        gamma, s = port.displacement.value, port.squeeze.factor
        angle = 2.0 * port.displacement.phase - port.squeeze.phase
        var_n = (0.5 * math.sinh(2.0 * s) ** 2
                 + port.displacement.magnitude ** 2 * (math.cosh(2.0 * s) - math.sinh(2.0 * s) * math.cos(angle)))
        corr_na = (gamma * math.sinh(s) ** 2
                   - 0.5 * gamma.conjugate() * math.sinh(2.0 * s) * cmath.exp(1j * port.squeeze.phase))
        out.append((var_n, corr_na * cmath.exp(1j * rotation)))
    return out


def _per_phase_reference(scheme, scenario):
    """(mean, variance, |slope|) at the scenario phase, one phase at a time in math.

    The scalar closed forms the array kernel replaced, in their operation order;
    the number variances and the single-mode mean are the expanded forms, written
    out term by term, that the kernel now takes from the Gram factor and the
    port-4 amplitude.
    """
    p0, p1 = scenario.folded_moments
    (var_n0, corr0), (var_n1, corr1) = _number_moments(scenario)
    phi, half = scenario.phase, 0.5 * scenario.phase
    excess = (1.0 - scenario.efficiency) / scenario.efficiency
    re01 = (p0.mean_a * p1.mean_a.conjugate()).real
    # base = <n0> + <n1> + 2 (<n0><n1> - |<a0>|^2 |<a1>|^2) and
    # cross = Re(<a0^2><a1^2>* - <a0>^2 <a1>*^2), through the centred moments
    a0, a1 = p0.mean_a, p1.mean_a
    base = p0.mean_n + p1.mean_n + 2.0 * (abs(a0) ** 2 * p1.dn + p0.dn * abs(a1) ** 2
                                          + p0.dn * p1.dn)
    cross = (a0 * a0 * p1.dm.conjugate() + p0.dm * (a1 * a1).conjugate()
             + p0.dm * p1.dm.conjugate()).real
    nd_slope = abs(math.sin(phi) * (p0.mean_n - p1.mean_n) - 2.0 * math.cos(phi) * re01)
    if isinstance(scheme, DifferenceIntensity):
        corr = (corr0.conjugate() * p1.mean_a - p0.mean_a * corr1.conjugate()).real
        mean = math.cos(phi) * (p1.mean_n - p0.mean_n) - 2.0 * math.sin(phi) * re01
        var = (math.cos(phi) ** 2 * (var_n0 + var_n1) + math.sin(phi) ** 2 * (base + 2.0 * cross)
               + 2.0 * math.sin(2.0 * phi) * corr + excess * (p0.mean_n + p1.mean_n))
        return mean, max(var, 0.0), nd_slope
    if isinstance(scheme, SingleModeIntensity):
        s = math.sin(phi)
        mean = math.sin(half) ** 2 * p0.mean_n + math.cos(half) ** 2 * p1.mean_n - s * re01
        var = (math.sin(half) ** 4 * var_n0 + math.cos(half) ** 4 * var_n1
               + 0.25 * s ** 2 * base + 0.5 * s ** 2 * cross - s * re01
               - 2.0 * math.sin(half) ** 2 * s * (corr0.conjugate() * p1.mean_a).real
               - 2.0 * math.cos(half) ** 2 * s * (p0.mean_a * corr1.conjugate()).real)
        return mean, max(var + excess * mean, 0.0), 0.5 * nd_slope
    phi_l = scenario.port1.displacement.phase if scheme.local_phase is None else scheme.local_phase
    rot = cmath.exp(-1j * phi_l)
    x0, x1 = (rot * p0.mean_a).real, (rot * p1.mean_a).real
    q0, q1 = (0.25 / (1.0 + 2.0 * (p.dn + abs(p.dm)))
              + abs(p.dm) * math.sin(0.5 * cmath.phase(-p.dm) - phi_l) ** 2 for p in (p0, p1))
    var = math.sin(half) ** 2 * q0 + math.cos(half) ** 2 * q1 + 0.25 * excess
    return (-math.sin(half) * x0 + math.cos(half) * x1, var,
            0.5 * abs(math.cos(half) * x0 + math.sin(half) * x1))


def test_kernel_matches_per_phase_reference(rng):
    """The array kernel agrees with the per-phase scalar closed forms to a few ulp."""
    for _ in range(40):
        port1 = GaussianPort.from_params(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        port0 = GaussianPort.from_params(rng.uniform(0, 3), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi))
        base = MziScenario(port1, port0, rng.choice(list(BsConvention)),
                           efficiency=rng.choice([1.0, rng.uniform(0.5, 0.99)]))
        phis = rng.uniform(0, 2 * math.pi, 8)
        for scheme in ALL_SCHEMES + (Homodyne(local_phase=rng.uniform(0, 2 * math.pi)),):
            (means,), (variances,) = observable_stats([scheme], base, phis)
            values = sensitivities([scheme], base, phis)[0]
            for k, phi in enumerate(phis):
                mean, var, slope = _per_phase_reference(scheme, base.with_phase(float(phi)))
                scale = max(abs(mean), var, 1.0)  # the powers round apart by an ulp or so
                assert abs(means[k] - mean) <= 2e-15 * scale
                assert abs(variances[k] - var) <= 2e-15 * scale
                assert values[k] == pytest.approx(math.sqrt(var) / slope, rel=1e-13)


def test_batched_working_points_equal_one_row_optima():
    """Every (scheme, row) entry of one cross-scheme pass is that one-row optimum, bit for bit.

    The rows hold a lossy general state, the mirror-image sg tie (the lower
    phase wins), a row flat for every scheme, one flat for homodyne alone
    (two unequal squeezed vacua) and a wideband squeezed vacuum.  The schemes
    yield different candidate counts, so the shared root stage pads the batch.
    """
    mirror = _sqzvac_scenario(1.0, 0.5, 0.4)
    general = MziScenario(*apply_pmc(PmcSet.PMC2, 0.4, 1.3, 0.8, 0.6, 0.35), efficiency=0.7)
    flat = MziScenario(GaussianPort.from_params(0.0, 0.0, 0.5, 0.0),
                       GaussianPort.from_params(0.0, 0.0, 0.5, 0.0), phase=0.3)
    dark = MziScenario(GaussianPort.from_params(0.0, 0.0, 0.9, 0.0),
                       GaussianPort.from_params(0.0, 0.0, 0.4, 1.0), phase=1.1)
    scenarios = [general, mirror, flat, dark, _sqzvac_scenario(30.0, 1.2, 0.8, wideband=True)]
    schemes = ALL_SCHEMES + (Homodyne(local_phase=0.9),)
    phases, values = working_points(schemes, scenarios)
    assert phases.shape == values.shape == (len(schemes), len(scenarios))
    flats = 0
    for k, scheme in enumerate(schemes):
        for j, sc in enumerate(scenarios):
            try:
                point = optimal_working_point(scheme, sc)
            except FlatObjective:
                flats += 1
                point = SensitivityPoint(sc.phase, math.inf)
            assert (phases[k, j], values[k, j]) == (point.phase, point.delta_phi)
    assert flats == len(schemes) + 2  # the flat row, and the homodyne entries of ``dark``
    reverse = working_points(schemes[::-1], scenarios)
    assert np.array_equal(reverse[0], phases[::-1]) and np.array_equal(reverse[1], values[::-1])
    assert abs(phases[1, 1] - 1.8981404501349168) < 1e-9
    twin = sensitivity(SingleModeIntensity(), mirror.with_phase(2 * math.pi - phases[1, 1]))
    assert twin.delta_phi == pytest.approx(values[1, 1], rel=1e-12)


def _wide_scenario(rng):
    """A scenario drawn over the CLI range: a PMC family or free phases, both
    conventions, lossy or not, |alpha| and |beta| log-uniform in [1e-3, 1e7]
    (beta = 0 for a squeezed-vacuum family) and squeeze factors up to 4."""
    convention = rng.choice(list(BsConvention))
    alpha, beta = 10.0 ** rng.uniform(-3.0, 7.0, 2)
    r, z = rng.uniform(0.0, 4.0, 2)
    family = rng.choice(list(PmcSet) + [None])
    if family is None:
        theta_alpha, phi_zeta, theta_beta, theta = rng.uniform(0.0, 2 * math.pi, 4)
        ports = (GaussianPort.from_params(alpha, theta_alpha, z, phi_zeta),
                 GaussianPort.from_params(beta, theta_beta, r, theta))
    else:
        if family.regime is not family:
            beta = 0.0
        ports = apply_pmc(family, rng.uniform(0.0, 2 * math.pi), alpha, beta, r, z, convention)
    efficiency = rng.choice([1.0, rng.uniform(0.3, 0.99)])
    return MziScenario(*ports, convention, rng.uniform(0.0, 2 * math.pi), efficiency)


def test_working_point_rows_do_not_depend_on_the_scheme_set(rng):
    """Row k of one pass is the one-scheme pass for schemes[k], bit for bit, over the CLI
    range, with the single-mode scheme twice: only its rows are polished, block by block."""
    scenarios = [_wide_scenario(rng) for _ in range(120)]
    schemes = (SingleModeIntensity(), DifferenceIntensity(), Homodyne(), SingleModeIntensity(),
               Homodyne(local_phase=0.9))
    phases, values = working_points(schemes, scenarios)
    for k, scheme in enumerate(schemes):
        alone = working_points([scheme], scenarios)
        assert np.array_equal(phases[k], alone[0][0]) and np.array_equal(values[k], alone[1][0])
    pair = working_points(schemes[1:3], scenarios)
    assert np.array_equal(pair[0], phases[1:3]) and np.array_equal(pair[1], values[1:3])


def test_polish_never_lowers_a_difference_or_homodyne_optimum(rng):
    """The optimizer polishes the single-mode rows alone.  Over 300 scenarios across the
    CLI range, the same polish on a df or homodyne optimum never wins by the tie margin."""
    scenarios = [_wide_scenario(rng) for _ in range(300)]
    schemes = (DifferenceIntensity(), Homodyne(), Homodyne(local_phase=0.9))
    phases, values = working_points(schemes, scenarios)
    for k, scheme in enumerate(schemes):
        for sc, phase, value in zip(scenarios, phases[k].tolist(), values[k].tolist()):
            assert polish_reference(scheme, sc, phase, value) == (phase, value), (scheme, sc)


def test_root_phases_pad_short_rows_with_their_first_phase():
    """Rows of spans (1, 7), (3, 5) and (0, 6) and an all-zero row: all finite, copies pad.

    A row of span (lo, hi) has hi - lo roots of its polynomial and lo at
    z = 0, of phase 0; they fill its first hi columns in sorted order.  The
    (0, 6) row has no root at 0, so its padding is not a run of zeros.  The
    all-zero row has no root: its one candidate is phase 0, so it widens
    nothing.
    """
    rng = np.random.default_rng(5)
    spans = [(1, 7), (3, 5), (0, 6)]
    coeffs = np.zeros((4, 9), dtype=complex)
    for row, (lo, hi) in zip(coeffs, spans):
        row[lo:hi + 1] = rng.normal(size=hi - lo + 1) + 1j * rng.normal(size=hi - lo + 1)
    out = _root_phases(coeffs)
    assert out.shape == (4, 7) and np.isfinite(out).all()
    for row, phases, (lo, hi) in zip(coeffs, out, spans):
        roots = np.angle(np.roots(row[hi:lo - 1 if lo else None:-1])) % (2 * math.pi)
        expected = np.sort(np.concatenate([roots, np.zeros(lo)]))
        assert np.allclose(phases[:hi], expected, rtol=0.0, atol=1e-12)
        assert np.all(np.diff(phases[:hi]) >= 0.0)
        assert np.all(phases[hi:] == phases[0])
    assert out[2, 0] > 0.0
    assert np.array_equal(out[3], np.zeros(7))


def test_cancelled_variance_never_wins_a_working_point():
    """Two coherent inputs: the sg optimum sits on the dark fringe, a 0/0 limit.

    Written out, the variance there cancels to rounding noise (and to 0); the
    optimum must still match a 60-digit minimization of the same closed form.
    """
    ports = apply_pmc(PmcSet.SQZVAC_WIDEBAND, 0.9101856971267421, 0.17510958801731716,
                      0.0018118040317442405, 0.0, 0.0, BsConvention.CUBE)
    sc = MziScenario(*ports, BsConvention.CUBE, efficiency=0.7483466515062236)
    point = optimal_working_point(SingleModeIntensity(), sc)
    assert relerr(point.delta_phi, 6.60108642260641, floor=0.0) < 1e-10


def _mp_forms(ports, efficiency=1.0):
    """The expanded closed forms of both number schemes in mpmath, as a function of phi.

    ``ports`` are the folded (port0, port1) as mpmath (<a>, dn, dm); the
    returned function gives (df variance, sg mean, sg variance, |d<n4 - n5>/dphi|)
    with detector loss.  Written out term by term, so they cancel where the
    kernel does not: the working precision has to cover that.
    """
    mp = mpmath.mp
    moments = []
    for a, dn, dm in ports:
        size = abs(a) ** 2
        moments.append({"a": a, "n": size + dn, "dn": dn, "dm": dm, "corr": a * dn + mp.conj(a) * dm,
                        "var": dn ** 2 + dn + abs(dm) ** 2 + size * (2 * dn + 1)
                        + 2 * mp.re(mp.conj(a) ** 2 * dm)})
    p0, p1 = moments
    excess = (1 - mpmath.mpf(efficiency)) / mpmath.mpf(efficiency)
    re01 = mp.re(p0["a"] * mp.conj(p1["a"]))
    base = p0["n"] + p1["n"] + 2 * (abs(p0["a"]) ** 2 * p1["dn"] + p0["dn"] * abs(p1["a"]) ** 2
                                    + p0["dn"] * p1["dn"])
    cross = mp.re(p0["a"] ** 2 * mp.conj(p1["dm"]) + p0["dm"] * mp.conj(p1["a"]) ** 2
                  + p0["dm"] * mp.conj(p1["dm"]))
    corr0, corr1 = mp.re(mp.conj(p0["corr"]) * p1["a"]), mp.re(p0["a"] * mp.conj(p1["corr"]))

    def forms(phi):
        s, c, sin, cos = mpmath.sin(phi / 2), mpmath.cos(phi / 2), mpmath.sin(phi), mpmath.cos(phi)
        df = (cos ** 2 * (p0["var"] + p1["var"]) + sin ** 2 * (base + 2 * cross)
              + 4 * sin * cos * (corr0 - corr1) + excess * (p0["n"] + p1["n"]))
        mean = s ** 2 * p0["n"] + c ** 2 * p1["n"] - sin * re01
        sg = (s ** 4 * p0["var"] + c ** 4 * p1["var"] + sin ** 2 * base / 4 + sin ** 2 * cross / 2
              - sin * re01 - 2 * s ** 2 * sin * corr0 - 2 * c ** 2 * sin * corr1 + excess * mean)
        return df, mean, sg, abs(sin * (p0["n"] - p1["n"]) - 2 * cos * re01)
    return forms


def _mp_single_mode(scenario):
    """Delta phi(phi) of the single-mode scheme: the expanded closed form in 60 digits.

    The port moments are rebuilt in mpmath from <a>, dn and dm, so the
    cancellation next to a dark fringe leaves 40 digits.
    """
    forms = _mp_forms([(mpmath.mpc(p.mean_a), mpmath.mpf(p.dn), mpmath.mpc(p.dm))
                       for p in scenario.folded_moments], scenario.efficiency)

    def value(phi):
        _, _, var, slope = forms(phi)
        return mpmath.sqrt(var) / (slope / 2)
    return value


def _mp_minimum(f, center, half):
    """Golden-section minimum of f on center +- half, to about 1e-20 rad."""
    a, b = mpmath.mpf(center) - half, mpmath.mpf(center) + half
    g = (mpmath.sqrt(5) - 1) / 2
    c, d = b - g * (b - a), a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(85):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return min(fc, fd)


def test_near_coherent_single_mode_optima_match_60_digits(rng):
    """Near-coherent inputs put the sg optimum next to a dark fringe.

    The PMC families fix the relative phase of the two displacements, so the
    fringe goes fully dark.  Over seeded draws with squeezing <= 0.05, half of
    the squeeze factors exactly 0, the optimum matches a 60-digit golden
    minimization of the expanded closed form to 1e-9 on either side.
    """
    families = (PmcSet.PMC1, PmcSet.PMC2, PmcSet.SQZVAC_WIDEBAND)
    with mpmath.workdps(60):
        for _ in range(60):
            convention = rng.choice(list(BsConvention))
            r, z = (rng.choice([0.0, 0.0, 1e-3, rng.uniform(0, 0.05)]) for _ in range(2))
            ports = apply_pmc(families[rng.integers(3)], rng.uniform(0, 2 * math.pi),
                              10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3), r, z, convention)
            sc = MziScenario(*ports, convention, efficiency=rng.choice([1.0, rng.uniform(0.3, 1.0)]))
            point = optimal_working_point(SingleModeIntensity(), sc)
            f = _mp_single_mode(sc)
            reference = min(_mp_minimum(f, point.phase, half) for half in (1e-7, 1e-5, 1e-3))
            assert abs(point.delta_phi - reference) <= 1e-9 * reference, sc


@settings(max_examples=150, deadline=None)
@given(alpha=st.floats(-2.0, 5.0), beta=st.floats(-2.0, 5.0), r=st.floats(0.0, 2.3),
       z=st.floats(0.0, 2.3), phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=5, max_size=5),
       convention=st.sampled_from(list(BsConvention)))
def test_gram_factor_matches_50_digit_references(alpha, beta, r, z, phases, convention):
    """Fisher elements and df/sg variances read off the Gram factor, against 50 digits.

    The references are the published general-phase elements and the expanded
    detection variances, both rebuilt in mpmath from the port parameters.  The
    cube F_sd of ``fisher_matrix`` has the sign opposite to the folded closed
    form; it is held to sqrt(F_ss F_dd), as it is 0 under many phase relations.
    """
    ta, tb, theta, phi_zeta, phi = phases
    port1 = GaussianPort.from_params(10 ** alpha, ta, z, phi_zeta)
    port0 = GaussianPort.from_params(10 ** beta, tb, r, theta)
    sc = MziScenario(port1, port0, convention)
    cube = convention is BsConvention.CUBE
    fm = fisher_matrix(sc)
    with mpmath.workdps(50):
        mpf = mpmath.mpf
        ref = mp_fisher_elements(sc)
        ports = []
        for port, rotation in ((port0, -mpmath.pi / 2 if cube else 0), (port1, 0)):
            s = mpf(port.squeeze.factor)
            ports.append((mpf(port.displacement.magnitude)
                          * mpmath.expjpi((mpf(port.displacement.phase) + rotation) / mpmath.pi),
                          mpmath.sinh(s) ** 2,
                          -mpmath.sinh(2 * s) / 2
                          * mpmath.expjpi((mpf(port.squeeze.phase) + 2 * rotation) / mpmath.pi)))
        df, _, sg, _ = _mp_forms(ports)(mpf(phi))
    # F_sd is a dot product of two columns: it rounds relative to their norms
    scale = max(float(mpmath.sqrt(ref[0] * ref[1])), 1.0)
    sign = -1.0 if cube else 1.0
    for got, want, size in ((fm.f_ss, ref[0], ref[0]), (fm.f_dd, ref[1], ref[1]),
                            (fm.f_sd, sign * ref[2], scale)):
        assert abs(got - want) <= 1e-12 * max(abs(size), 1), (got, want)
    for scheme, want in ((DifferenceIntensity(), df), (SingleModeIntensity(), sg)):
        got = observable_stats([scheme], sc, [phi])[1][0, 0]
        assert got >= 0.0
        assert abs(got - want) <= 1e-12 * max(abs(want), 1), (scheme, got, want)


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
            bound = qcrb(qfi(sc))
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
