"""Detector-efficiency model, folded into ``sensitivity`` and ``optimal_working_point``."""

import math

import numpy as np

from mzgauss.detection import (DifferenceIntensity, Homodyne,
                               SingleModeIntensity, optimal_working_point,
                               sensitivity)
from mzgauss.interferometer import MziScenario
from mzgauss.oracle import apply_first_bs, attenuate, evolve_many, output_stats, prepare
from mzgauss.pmc import PmcSet, apply_pmc
from mzgauss.states import GaussianPort

from conftest import relerr

ALL_SCHEMES = (DifferenceIntensity(), SingleModeIntensity(), Homodyne())


def _scenario(phase=1.1, efficiency=1.0):
    port1 = GaussianPort.from_params(1.2, 0.4, 0.5, 2.8)
    port0 = GaussianPort.from_params(0.6, 1.9, 0.3, 0.7)
    return MziScenario(port1, port0, phase=phase, efficiency=efficiency)


def test_shot_noise_scaling_law():
    # coherent-only single-mode detection is shot-noise limited: delta' = delta / sqrt(eta)
    sc = MziScenario(GaussianPort.from_params(2.0), GaussianPort.vacuum(), phase=1.1)
    ideal = sensitivity(SingleModeIntensity(), sc).delta_phi
    for eta in (0.9, 0.6, 0.25):
        lossy = sensitivity(SingleModeIntensity(), sc.with_efficiency(eta)).delta_phi
        assert relerr(lossy, ideal / math.sqrt(eta)) < 1e-12


def test_monotone_in_efficiency(rng):
    for _ in range(6):
        port1 = GaussianPort.from_params(rng.uniform(0.2, 2), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        port0 = GaussianPort.from_params(rng.uniform(0, 1.5), rng.uniform(0, 2 * math.pi),
                                         rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        sc = MziScenario(port1, port0, phase=float(rng.uniform(0.3, 2.8)))
        for scheme in ALL_SCHEMES:
            values = [sensitivity(scheme, sc.with_efficiency(e)).delta_phi
                      for e in np.linspace(0.2, 1.0, 9)]
            if all(math.isfinite(v) for v in values):
                assert all(a >= b - 1e-12 * abs(b) for a, b in zip(values, values[1:]))


def test_continuity_as_efficiency_approaches_unity():
    sc = _scenario()
    for scheme in ALL_SCHEMES:
        ideal = sensitivity(scheme, sc).delta_phi
        near = sensitivity(scheme, sc.with_efficiency(0.999999)).delta_phi
        assert relerr(near, ideal, floor=abs(ideal)) < 1e-4


def test_degraded_yet_finite_at_working_point():
    port1, port0 = apply_pmc(PmcSet.PMC1, 0.0, 1.5, 0.4, 0.8, 0.6)
    sc = MziScenario(port1, port0, efficiency=0.6)
    point = optimal_working_point(DifferenceIntensity(), sc)
    ideal = sensitivity(DifferenceIntensity(),
                        sc.with_efficiency(1.0).with_phase(point.phase)).delta_phi
    assert math.isfinite(point.delta_phi)
    assert point.delta_phi > ideal


def test_fictitious_beam_splitter_in_oracle():
    """The oracle reproduces <n'> = eta <n> and the lossy variance formula."""
    port1 = GaussianPort.from_params(0.9, 0.8, 0.5, 2.2)
    single = prepare(MziScenario(port1, GaussianPort.vacuum()), 60)
    # phi = 0 routes the prepared mode to axis 0, vacuum to axis 1
    swapped = evolve_many(apply_first_bs(single), [0.0])
    ideal = output_stats(swapped)
    n_ideal = ideal["n4"][0]
    v_ideal = ideal["n4_sq"] - n_ideal ** 2
    for eta in (0.85, 0.5):
        lossy = output_stats(attenuate(swapped, eta))
        n_obs = lossy["n4"][0]
        v_obs = lossy["n4_sq"][0] - n_obs ** 2
        assert relerr(n_obs, eta * n_ideal) < 1e-8
        assert relerr(v_obs, eta ** 2 * v_ideal + eta * (1 - eta) * n_ideal) < 1e-8
