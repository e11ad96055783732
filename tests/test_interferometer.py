"""Beam-splitter conventions and the scenario container."""

import math

import numpy as np
import pytest

from mzgauss.detection import SingleModeIntensity, observable_mean
from mzgauss.errors import InvalidEfficiency
from mzgauss.interferometer import BsConvention, MziScenario
from mzgauss.oracle import apply_first_bs, evolve_many, output_stats, prepare
from mzgauss.states import GaussianPort


@pytest.mark.parametrize("convention", list(BsConvention))
def test_cube_single_photon_split(convention, rng):
    """One photon reaches detector 4 with probability cos^2(phi/2) from port 1
    and sin^2(phi/2) from port 0, and never leaves the two detectors."""
    phis = np.concatenate(([0.0, 0.5 * math.pi, math.pi], rng.uniform(0.0, 2 * math.pi, 4)))
    # (n0, n1) of the photon: in through port 1, then through port 0
    for occupied, split in (((0, 1), np.cos), ((1, 0), np.sin)):
        amps = np.zeros((16, 16), dtype=complex)
        amps[occupied] = 1.0
        stats = output_stats(evolve_many(apply_first_bs(amps, convention), phis))
        assert stats["n4"] == pytest.approx(split(phis / 2) ** 2, abs=1e-12)
        assert stats["n4"] + stats["n5"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("convention", list(BsConvention))
def test_energy_conservation(convention, rng):
    port1 = GaussianPort.from_params(0.9, 0.7, 0.4, 1.1)
    port0 = GaussianPort.from_params(0.6, 2.1, 0.3, 0.2)
    base = MziScenario(port1, port0, convention)
    n_in = sum(p.displacement.magnitude ** 2 + math.sinh(p.squeeze.factor) ** 2
               for p in (port1, port0))

    inside = apply_first_bs(prepare(base, 50), convention)
    phis = rng.uniform(0.0, 2 * math.pi, 3)
    stats = output_stats(evolve_many(inside, phis))
    for phi, n4_o, n5_o in zip(phis, stats["n4"], stats["n5"]):
        scenario = base.with_phase(float(phi))
        n4 = observable_mean(SingleModeIntensity(), scenario)
        # output port 5 equals port 4 at a phase shifted by pi, so the
        # closed-form means must already conserve the input photon number
        n5 = observable_mean(SingleModeIntensity(), base.with_phase(float(phi) - math.pi))
        assert n4 + n5 == pytest.approx(n_in, abs=1e-12)
        assert n4 == pytest.approx(n4_o, abs=1e-10)
        assert n5 == pytest.approx(n5_o, abs=1e-10)
        assert n4_o + n5_o == pytest.approx(n_in, abs=1e-10)


def test_efficiency_validated():
    port = GaussianPort.vacuum()
    with pytest.raises(InvalidEfficiency):
        MziScenario(port, port, efficiency=0.0)
    with pytest.raises(InvalidEfficiency):
        MziScenario(port, port, efficiency=1.2)
    MziScenario(port, port, efficiency=1.0)  # boundary value allowed


@pytest.mark.parametrize("phase", [math.nan, math.inf, -math.inf])
def test_non_finite_phase_rejected(phase):
    """As for the ports' parameters, so that no detection formula reads a nan phase."""
    port = GaussianPort.from_params(1.0)
    with pytest.raises(ValueError, match="phase must be finite"):
        MziScenario(port, port, phase=phase)
    with pytest.raises(ValueError, match="phase must be finite"):
        MziScenario(port, port).with_phase(phase)
