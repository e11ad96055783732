"""Port preparations and the moment extraction."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzgauss.oracle import single_mode_moments
from mzgauss.states import Coherent, GaussianPort, Squeeze, port_moments

from conftest import relerr


def test_vacuum_moments_all_zero():
    m = port_moments(GaussianPort.vacuum())
    assert m.mean_a == 0 and m.mean_n == 0
    assert m.dn == 0 and m.dm == 0


def test_coherent_only_is_poissonian():
    m = port_moments(GaussianPort.from_params(2.0))
    assert m.mean_a == pytest.approx(2.0)
    assert m.mean_n == pytest.approx(4.0)
    assert m.dn == 0 and m.dm == 0


def test_squeezed_vacuum_against_fock_oracle():
    # frozen oracle values at n_max=60 for (alpha=0, s=0.5, phase=0)
    port = GaussianPort.from_params(0.0, 0.0, 0.5, 0.0)
    m = port_moments(port)
    assert relerr(m.mean_n, 0.271540317407622) < 1e-10
    assert relerr(m.dm.real, -0.5876005968219) < 1e-10
    assert abs(m.dm.imag) < 1e-12

    oracle = single_mode_moments(port, 60)
    assert relerr(m.mean_n, oracle.mean_n) < 1e-10
    assert abs(m.dm - oracle.dm) < 1e-10


def test_all_moments_match_oracle_over_box(rng):
    """Closed forms vs the truncated Fock expansion across the sampling box."""
    for _ in range(12):
        port = GaussianPort.from_params(
            rng.uniform(0.0, 1.5), rng.uniform(0.0, 2 * math.pi),
            rng.uniform(0.0, 0.8), rng.uniform(0.0, 2 * math.pi))
        closed = port_moments(port)
        fock = single_mode_moments(port, 72)
        assert relerr(closed.mean_n, fock.mean_n) < 1e-8
        assert abs(closed.mean_a - fock.mean_a) < 1e-8
        assert abs(closed.dn - fock.dn) < 1e-8
        assert abs(closed.dm - fock.dm) < 1e-8


@given(mag=st.floats(0.0, 3.0), s=st.floats(0.0, 2.0),
       ph=st.floats(0.0, 2 * math.pi), sph=st.floats(0.0, 2 * math.pi))
def test_mean_n_bounds_coherent_part(mag, s, ph, sph):
    m = port_moments(GaussianPort.from_params(mag, ph, s, sph))
    assert m.mean_n >= abs(m.mean_a) ** 2 - 1e-12
    if s == 0.0:
        assert m.mean_n == pytest.approx(abs(m.mean_a) ** 2)
    elif s > 1e-3:
        assert m.mean_n > abs(m.mean_a) ** 2


@settings(max_examples=40)
@given(delta=st.floats(-10.0, 10.0), mag=st.floats(0.1, 2.0),
       s=st.floats(0.1, 1.0), ph=st.floats(0.0, 2 * math.pi),
       sph=st.floats(0.0, 2 * math.pi))
def test_phase_covariance(delta, mag, s, ph, sph):
    """Joint rotation (theta+delta, vartheta+2delta) rotates the complex moments."""
    base = port_moments(GaussianPort.from_params(mag, ph, s, sph))
    rot = port_moments(GaussianPort.from_params(mag, ph + delta, s, sph + 2 * delta))
    u = cmath.exp(1j * delta)
    assert rot.mean_n == pytest.approx(base.mean_n, rel=1e-12)
    assert abs(rot.mean_a - base.mean_a * u) < 1e-9 * (1 + mag)
    assert rot.dn == base.dn
    assert abs(rot.dm - base.dm * u * u) < 1e-9


def test_zero_magnitude_canonicalizes_phase():
    assert Coherent(0.0, 1.3).phase == 0.0
    assert Squeeze(0.0, 2.7).phase == 0.0
    assert Coherent(1.0, 2 * math.pi + 0.5).phase == pytest.approx(0.5)
    assert Coherent(1.0, -0.5).phase == pytest.approx(2 * math.pi - 0.5)


def test_negative_magnitude_rejected():
    with pytest.raises(ValueError):
        Coherent(-1.0)
    with pytest.raises(ValueError):
        Squeeze(-0.1)


@pytest.mark.parametrize("make", [
    lambda: Coherent(float("nan")),
    lambda: Coherent(float("inf")),
    lambda: Coherent(1.0, float("nan")),
    lambda: Squeeze(float("inf")),
    lambda: Squeeze(float("nan")),
    lambda: Squeeze(0.5, float("-inf")),
])
def test_non_finite_parameters_rejected(make):
    with pytest.raises(ValueError, match="finite"):
        make()
