"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5 checks that the detection optima converge to the asymptote
exp(-r)/|alpha| where the method places that convergence.  At |alpha| = 1e3,
r = 2.3, z = 2.2 the difference-intensity and homodyne optima lie within 5% of
it.  The single-mode optimum does not: the photon-number noise of the
squeezed-vacuum port leaks into the one detector, so Delta phi_sg^2 carries a
2 sqrt(Var n1 Var n0)/|alpha|^4 term next to exp(-2r)/|alpha|^2.  There the
test checks the single-mode optimum against that leading-order expansion,
checks that its excess over the asymptote falls tenfold per decade of
|alpha|, and checks the 5% convergence at |alpha| = 1e6.
"""

import itertools
import math
import time

import numpy as np

from mzgauss import detection, oracle
from mzgauss.detection import DifferenceIntensity, Homodyne, SingleModeIntensity
from mzgauss.fisher import fisher_matrix, qcrb, qfi, qfi_closed_form
from mzgauss.heisenberg import PowerFractions, asymptotic_qfi
from mzgauss.interferometer import BsConvention, MziScenario
from mzgauss.pmc import (PmcSet, apply_pmc, boundaries, classify,
                         grid_search_qfi, single_mode_alpha_lim)
from mzgauss.states import GaussianPort

from conftest import relerr, satisfies_optimum


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} [{name}] failed{suffix}"


def test_criterion_01_limit_values():
    b = boundaries(2.3, 2.2)
    checks = [
        abs(b.alpha_13 - 2.54) <= 0.01,
        abs(b.alpha_23 - 2.48) <= 0.01,
        abs(b.alpha_circ - 3.76) <= 0.01,
        abs(b.beta_12 - 4.98) <= 0.01,
        abs(single_mode_alpha_lim(2.2) - 5.5) <= 0.05,
    ]
    detail = (f"alpha13={b.alpha_13:.4f} alpha23={b.alpha_23:.4f} "
              f"circ={b.alpha_circ:.4f} beta12={b.beta_12:.4f} "
              f"single={single_mode_alpha_lim(2.2):.4f}")
    _report(1, "limit-value reproduction", all(checks), detail)


def test_criterion_02_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(42)
    n_max = 60
    worst = {"mean": 0.0, "var": 0.0, "fisher": 0.0}
    schemes = ((DifferenceIntensity(), "n_diff"),
               (SingleModeIntensity(), "n4"),
               (Homodyne(), "quad"))

    for case in range(200):
        port1 = GaussianPort.from_params(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi))
        port0 = GaussianPort.from_params(rng.uniform(0, 1.2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 0.6), rng.uniform(0, 2 * math.pi))
        convention = BsConvention.SYMMETRIC if case % 2 == 0 else BsConvention.CUBE
        base = MziScenario(port1, port0, convention)
        inside = oracle.apply_first_bs(oracle.prepare(base, n_max), convention)
        local = port1.displacement.phase

        phis = rng.uniform(0, 2 * math.pi, 5)
        for phi, evolved in zip(phis, oracle.evolve_many(inside, phis)):
            scenario = base.with_phase(float(phi))
            stats = oracle.output_stats(evolved, local)
            for scheme, obs in schemes:
                mean_o = stats[obs]
                worst["mean"] = max(worst["mean"], relerr(
                    detection.observable_mean(scheme, scenario), mean_o))
                var_o = stats[obs + "_sq"] - mean_o ** 2
                worst["var"] = max(worst["var"], relerr(
                    detection.observable_variance(scheme, scenario), var_o))

        closed = fisher_matrix(base)
        fd = oracle.generator_fisher(inside)
        scale = max(closed.f_ss, closed.f_dd, 1.0)
        for a, b in ((closed.f_ss, fd.f_ss), (closed.f_dd, fd.f_dd),
                     (abs(closed.f_sd), abs(fd.f_sd))):
            worst["fisher"] = max(worst["fisher"],
                                  abs(a - b) / max(abs(a), abs(b), 1e-6 * scale))

    elapsed = time.time() - start
    ok = worst["mean"] < 1e-8 and worst["var"] < 1e-6 and worst["fisher"] < 1e-4
    _report(2, "oracle equivalence over the box", ok and elapsed < 300.0,
            f"worst mean={worst['mean']:.2e} var={worst['var']:.2e} "
            f"fisher={worst['fisher']:.2e} in {elapsed:.0f}s")


def test_criterion_03_closed_form_generic_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for pmc in PmcSet:
        for convention in BsConvention:
            for _ in range(50):
                alpha, beta, r, z = rng.uniform(0.05, 3.0, 4)
                if pmc in (PmcSet.SQZVAC_OPTIMAL, PmcSet.SQZVAC_WIDEBAND):
                    beta = 0.0
                theta_alpha = rng.uniform(0, 2 * math.pi)
                ports = apply_pmc(pmc, theta_alpha, alpha, beta, r, z, convention)
                generic = qfi(MziScenario(*ports, convention))
                closed = qfi_closed_form(alpha, beta, r, z, pmc=pmc)
                worst = max(worst, relerr(generic, closed))
    _report(3, "closed-form/generic QFI identity", worst < 1e-10, f"worst={worst:.2e}")


def test_criterion_04_pmc_atlas():
    """Atlas agreement plus lattice structure of the brute-force maxima.

    In the small-alpha / large-beta corner the exhaustive search finds the
    port-swapped twin of the anti-phase family, which the three-family table
    handles only through the alpha/beta exchange symmetry; there the family
    value closest to the brute-force maximum still has to be the classified
    one, and the maximum must dominate it.  The residual excess is reported.
    """
    r, z = 2.3, 2.2
    grid = np.geomspace(0.5, 500.0, 10)
    quarter = 0.5 * math.pi
    agreement = True
    lattice_ok = True
    excess = 0.0
    detail = ""
    for alpha in grid:
        for beta in grid:
            phases, best = grid_search_qfi(float(alpha), float(beta), r, z, resolution=32)
            values = {p: qfi_closed_form(float(alpha), float(beta), r, z, pmc=p)
                      for p in (PmcSet.PMC1, PmcSet.PMC2, PmcSet.PMC3)}
            chosen = classify(float(alpha), float(beta), r, z)
            nearest = min(values, key=lambda p: abs(values[p] - best))
            if nearest is not chosen:
                agreement = False
                detail = f"classify mismatch at ({alpha:.3g},{beta:.3g})"
            if best < values[chosen] * (1.0 - 1e-9):
                agreement = False
                detail = f"grid max below classified family at ({alpha:.3g},{beta:.3g})"
            excess = max(excess, (best - values[chosen]) / best)
            for ph in phases:
                frac = ph / quarter
                if abs(frac - round(frac)) * quarter >= 1e-4:
                    lattice_ok = False
                    detail = f"off-lattice phase {ph:.6f} at ({alpha:.3g},{beta:.3g})"
    if not detail:
        detail = f"max swapped-twin excess {excess:.2e}"
    _report(4, "PMC atlas correctness", agreement and lattice_ok, detail)


def _sg_leading_order(alpha: float, r: float, z: float) -> float:
    """Single-mode optimum to leading order in 1/|alpha|, for beta = 0.

    Near phi = pi the n4 variance is Var n0 + (eps/2)^4 Var n1
    + (eps/2)^2 |alpha|^2 exp(-2r) and the slope is |alpha|^2 eps/2, with
    eps = pi - phi.  Minimising over eps gives
    Delta phi^2 = exp(-2r)/|alpha|^2 + 2 sqrt(Var n1 Var n0)/|alpha|^4, with
    the photon-number variances of the anti-squeezed coherent port 1 and the
    squeezed-vacuum port 0.
    """
    var_n1 = alpha ** 2 * math.exp(2 * z) + 0.5 * math.sinh(2 * z) ** 2
    var_n0 = 0.5 * math.sinh(2 * r) ** 2
    return math.sqrt(math.exp(-2 * r) / alpha ** 2
                     + 2 * math.sqrt(var_n1 * var_n0) / alpha ** 4)


def test_criterion_05_detection_hierarchy():
    hierarchy_ok = True
    for alpha in (0.7, 1.0, 3.0, 10.0, 100.0):
        for r, z in ((0.5, 0.4), (1.0, 1.0), (2.3, 2.2), (0.3, 0.8)):
            ports = apply_pmc(PmcSet.SQZVAC_OPTIMAL, 0.0, alpha, 0.0, r, z)
            sc = MziScenario(*ports)
            bound = qcrb(qfi(sc))
            sg = detection.optimal_working_point(SingleModeIntensity(), sc).delta_phi
            df = detection.optimal_working_point(DifferenceIntensity(), sc).delta_phi
            hom = detection.optimal_working_point(Homodyne(), sc).delta_phi
            if not (sg >= df * (1 - 1e-12) and df >= bound * (1 - 1e-12)
                    and hom >= bound * (1 - 1e-12)):
                hierarchy_ok = False

    r, z = 2.3, 2.2

    def optimum(scheme, alpha):
        sc = MziScenario(*apply_pmc(PmcSet.SQZVAC_OPTIMAL, 0.0, alpha, 0.0, r, z))
        return detection.optimal_working_point(scheme, sc).delta_phi

    def off(value, alpha):
        target = math.exp(-r) / alpha
        return abs(value - target) / target

    optima = {"df": optimum(DifferenceIntensity(), 1e3), "hom": optimum(Homodyne(), 1e3)}
    convergence = {k: off(v, 1e3) for k, v in optima.items()}
    convergence_ok = all(c < 0.05 for c in convergence.values())

    # single mode: the leading-order expansion at 1e3, an excess over the
    # asymptote that falls tenfold per decade, and 5% convergence at 1e6
    decades = (1e3, 1e4, 1e5)
    sg = {alpha: optimum(SingleModeIntensity(), alpha) for alpha in decades + (1e6,)}
    expansion = _sg_leading_order(1e3, r, z)
    expansion_err = abs(sg[1e3] - expansion) / expansion
    excess = [(sg[a] * a / math.exp(-r)) ** 2 - 1.0 for a in decades]
    falls = [hi / lo for hi, lo in zip(excess, excess[1:])]
    sg_ok = (expansion_err < 1e-4 and off(sg[1e6], 1e6) < 0.05
             and all(abs(f / 10.0 - 1.0) < 0.01 for f in falls))

    detail = " ".join(
        ["hierarchy ok;" if hierarchy_ok else "hierarchy violated;"]
        + [f"{k}={v:.4g} ({100 * convergence[k]:.1f}% off)" for k, v in optima.items()]
        + [f"sg={sg[1e3]:.4g} ({expansion_err:.1e} from expansion)",
           "excess fall/decade=" + " ".join(f"{f:.4g}" for f in falls),
           f"sg(1e6)={sg[1e6]:.4g} ({100 * off(sg[1e6], 1e6):.1f}% off)"])
    _report(5, "detection-scheme hierarchy", hierarchy_ok and convergence_ok and sg_ok,
            detail)


def test_criterion_06_homodyne_saturation():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        alpha, beta = rng.uniform(0.5, 3.0, 2)
        r = rng.uniform(0.1, 1.2)
        theta_alpha = rng.uniform(0, 2 * math.pi)
        ports = apply_pmc(PmcSet.PMC2, theta_alpha, alpha, beta, r, r)
        point = detection.optimal_working_point(Homodyne(), MziScenario(*ports))
        product = point.delta_phi * math.sqrt(
            alpha ** 2 * math.exp(2 * r) + beta ** 2 * math.exp(2 * r))
        worst = max(worst, abs(product - 1.0))
    _report(6, "homodyne QCRB saturation", worst < 1e-12, f"worst |prod-1|={worst:.2e}")


def test_criterion_07_heisenberg_fractions():
    n = 50.0
    exact_ratio = asymptotic_qfi(PmcSet.PMC2, PowerFractions(1 / 6, 1 / 6, 1 / 3, 1 / 3, n)) / n ** 2
    four_ninths_ok = exact_ratio == 4.0 / 9.0

    simplex_ok = True
    k = 20
    for pmc in (PmcSet.PMC1, PmcSet.PMC2, PmcSet.PMC3):
        best = 0.0
        for i, j, l in itertools.product(range(k + 1), repeat=3):
            if i + j + l > k:
                continue
            f = PowerFractions(i / k, j / k, l / k, (k - i - j - l) / k, 1.0)
            ratio = asymptotic_qfi(pmc, f)
            best = max(best, ratio)
            if ratio > 1.0 + 1e-12:
                simplex_ok = False
            if ratio > 1.0 - 1e-6 and not satisfies_optimum(pmc, f, tol=1e-6):
                simplex_ok = False
        if abs(best - 1.0) > 1e-6:
            simplex_ok = False

    big = 1e4
    convergence_ok = True
    for pmc, f in ((PmcSet.PMC1, PowerFractions(0.25, 0.0, 0.5, 0.25, big)),
                   (PmcSet.PMC2, PowerFractions(0.5, 0.0, 0.5, 0.0, big)),
                   (PmcSet.PMC3, PowerFractions(0.0, 0.0, 0.5, 0.5, big))):
        alpha, beta, r, z = f.to_magnitudes()
        if abs(qfi_closed_form(alpha, beta, r, z, pmc=pmc) / big ** 2 - 1.0) > 0.05:
            convergence_ok = False

    _report(7, "Heisenberg fractions", four_ninths_ok and simplex_ok and convergence_ok,
            f"PMC2 ratio={exact_ratio}")


def test_criterion_08_loss_model():
    rng = np.random.default_rng(8)
    port1 = GaussianPort.from_params(1.2, 0.4, 0.5, 2.8)
    port0 = GaussianPort.from_params(0.6, 1.9, 0.3, 0.7)
    sc = MziScenario(port1, port0, phase=1.1)
    schemes = (DifferenceIntensity(), SingleModeIntensity(), Homodyne())

    # loss degrades every optimum, and the lossy optimum is the lossy minimum
    optimum_ok = True
    for scheme in schemes:
        lossless = detection.optimal_working_point(scheme, sc).delta_phi
        lossy = detection.optimal_working_point(scheme, sc.with_efficiency(0.7))
        at_phase = detection.sensitivity(scheme, sc.with_efficiency(0.7).with_phase(lossy.phase))
        optimum_ok &= lossy.delta_phi > lossless and at_phase.delta_phi == lossy.delta_phi

    shot = MziScenario(GaussianPort.from_params(2.0), GaussianPort.vacuum(), phase=1.1)
    ideal = detection.sensitivity(SingleModeIntensity(), shot).delta_phi
    shot_ok = all(
        relerr(detection.sensitivity(SingleModeIntensity(), shot.with_efficiency(e)).delta_phi,
               ideal / math.sqrt(e)) < 1e-12
        for e in (0.9, 0.5, 0.2))

    monotone_ok = True
    for _ in range(8):
        p1 = GaussianPort.from_params(rng.uniform(0.2, 2), rng.uniform(0, 2 * math.pi),
                                      rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        p0 = GaussianPort.from_params(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi),
                                      rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        scenario = MziScenario(p1, p0, phase=float(rng.uniform(0.3, 2.8)))
        for scheme in schemes:
            values = [detection.sensitivity(scheme, scenario.with_efficiency(e)).delta_phi
                      for e in np.linspace(0.15, 1.0, 8)]
            if all(math.isfinite(v) for v in values):
                if not all(a >= b - 1e-12 * abs(b) for a, b in zip(values, values[1:])):
                    monotone_ok = False
    _report(8, "loss model", optimum_ok and shot_ok and monotone_ok)


def test_criterion_09_convention_invariance():
    worst = 0.0
    for pmc in PmcSet:
        alpha, beta, r, z = 1.4, 0.7, 0.9, 0.6
        if pmc in (PmcSet.SQZVAC_OPTIMAL, PmcSet.SQZVAC_WIDEBAND):
            beta = 0.0
        per_convention = []
        for convention in BsConvention:
            ports = apply_pmc(pmc, 0.3, alpha, beta, r, z, convention)
            per_convention.append(qfi(MziScenario(*ports, convention)))
        worst = max(worst, relerr(*per_convention))

    # grid maxima agree between conventions, non-circularly: the cube search's
    # argmax is re-evaluated through the explicit cube Fisher formulas
    alpha, beta, r, z = 1.2, 0.8, 0.8, 0.6
    _, best_sym = grid_search_qfi(alpha, beta, r, z, 32, BsConvention.SYMMETRIC)
    cube_phases, best_cube = grid_search_qfi(alpha, beta, r, z, 32, BsConvention.CUBE)
    worst = max(worst, relerr(best_sym, best_cube))
    theta, phi_zeta, theta_beta = cube_phases
    port1 = GaussianPort.from_params(alpha, 0.0, z, phi_zeta)
    port0 = GaussianPort.from_params(beta, theta_beta, r, theta)
    re_eval = qfi(MziScenario(port1, port0, BsConvention.CUBE))
    worst = max(worst, relerr(re_eval, best_sym))

    # the cube optimum of the undisplaced-port-0 family sits at the remapped
    # phase relations: 2 theta_alpha - theta = +/-pi and theta - phi_zeta = 0
    port1, port0 = apply_pmc(PmcSet.SQZVAC_OPTIMAL, 0.0, 1.0, 0.0, 0.7, 0.5,
                             BsConvention.CUBE)
    remap_ok = (abs(port0.squeeze.phase - math.pi) < 1e-12
                and abs(port0.squeeze.phase - port1.squeeze.phase) < 1e-12)
    value = qfi(MziScenario(port1, port0, BsConvention.CUBE))
    worst = max(worst, relerr(value, qfi_closed_form(1.0, 0.0, 0.7, 0.5,
                                                     pmc=PmcSet.SQZVAC_OPTIMAL)))
    _report(9, "convention invariance", worst < 1e-10 and remap_ok, f"worst={worst:.2e}")


def test_criterion_10_two_squeezer_structure():
    r, theta = 0.6, 1.1
    port0 = GaussianPort.from_params(0, 0, r, theta)
    port1 = GaussianPort.from_params(0, 0, r, theta + math.pi)  # zeta = -xi
    inside = oracle.apply_first_bs(oracle.prepare(MziScenario(port1, port0), 60))
    v_a = oracle.prepare(MziScenario(GaussianPort.vacuum(),
                                     GaussianPort.from_params(0, 0, r, theta)), 60)
    v_b = oracle.prepare(MziScenario(GaussianPort.from_params(0, 0, r, theta + math.pi),
                                     GaussianPort.vacuum()), 60)
    target = oracle.FockVector(
        np.outer(v_a.amplitudes[:, 0], v_b.amplitudes[0, :]), 60)
    fidelity = abs(np.vdot(inside.amplitudes, target.amplitudes)) ** 2

    port = GaussianPort.from_params(0, 0, 0.5, 0.4)  # zeta = xi
    equal = oracle.apply_first_bs(oracle.prepare(MziScenario(port, port), 60))

    def means(phis):
        return np.array([oracle.output_stats(out)["n_diff"]
                         for out in oracle.evolve_many(equal, phis)])

    h, phis = 1e-3, np.linspace(0.0, 2 * math.pi, 9)
    slope = np.abs(means(phis + h) - means(phis - h)).max() / (2 * h)
    _report(10, "two-squeezer structural properties",
            fidelity >= 1.0 - 1e-8 and slope < 1e-9,
            f"fidelity deficit={1.0 - fidelity:.2e} max slope={slope:.2e}")


def test_figure_curves_reproducible(tmp_path, capsys):
    """Sweep outputs are finite, periodic, and show the cited features."""
    from mzgauss.cli import main

    # high-amplitude family over one period, avoiding the isolated poles
    argv = ["sweep", "--axis", "phi", "--steps", "41",
            "--set", "port1.alpha.magnitude=1000", "--set", "port1.zeta.factor=2.2",
            "--set", "port0.xi.factor=2.3", "--set", "pmc=sqzvac_optimal"]
    assert main(argv + ["--start", "0.05", "--stop", "3.09159265358979"]) == 0
    first = capsys.readouterr().out
    assert main(argv + ["--start", str(0.05 + 2 * math.pi),
                        "--stop", str(3.09159265358979 + 2 * math.pi)]) == 0
    second = capsys.readouterr().out

    def table(text):
        rows = [line.split(",") for line in text.strip().splitlines()
                if line and not line.startswith("#")][1:]
        return np.array([[float(v) for v in row] for row in rows])

    a, b = table(first), table(second)
    assert np.isfinite(a).all()
    assert np.allclose(a[:, 1:], b[:, 1:], rtol=1e-9)  # 2 pi periodicity

    # difference-intensity sensitivity peaks at phi = pi/2 when beta = 0
    ports = apply_pmc(PmcSet.SQZVAC_OPTIMAL, 0.0, 1e3, 0.0, 2.3, 2.2)
    sc = MziScenario(*ports)
    point = detection.optimal_working_point(DifferenceIntensity(), sc)
    assert abs(point.phase - math.pi / 2) < 1e-9

    # PMC3 dip near |beta| = |alpha| at |alpha| = 500: the Cramer-Rao column
    # of an amplitude sweep peaks where the Fisher information dips
    argv = ["sweep", "--axis", "beta", "--start", "400", "--stop", "600", "--steps", "21",
            "--set", "port1.alpha.magnitude=500", "--set", "port1.zeta.factor=2.2",
            "--set", "port0.xi.factor=2.3", "--set", "pmc=pmc3", "--set", "scheme=hom"]
    assert main(argv) == 0
    data = table(capsys.readouterr().out)
    betas, bound = data[:, 0], data[:, -1]
    assert abs(betas[int(np.argmax(bound))] - 500.0) <= 10.0
    assert qfi_closed_form(500.0, 500.0, 2.3, 2.2, pmc=PmcSet.PMC3) < \
        qfi_closed_form(500.0, 400.0, 2.3, 2.2, pmc=PmcSet.PMC3)
    print("figure-curve reproduction: PASS")
