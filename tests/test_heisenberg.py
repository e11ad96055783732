"""Power-fraction scaling analysis."""

import itertools
import math

import numpy as np
import pytest

from mzgauss.fisher import qfi_closed_form
from mzgauss.heisenberg import PowerFractions, asymptotic_qfi, heisenberg_optima
from mzgauss.interferometer import BsConvention
from mzgauss.pmc import PmcSet, apply_pmc

from conftest import satisfies_optimum


def test_pmc2_four_ninths():
    f = PowerFractions(1 / 6, 1 / 6, 1 / 3, 1 / 3, 50.0)
    assert asymptotic_qfi(PmcSet.PMC2, f) == (4.0 / 9.0) * 50.0 ** 2


def test_pmc1_family_heisenberg_point():
    f = PowerFractions(0.3, 0.0, 0.5, 0.2, 10.0)
    assert asymptotic_qfi(PmcSet.PMC1, f) == pytest.approx(100.0)
    # the alpha/z split within the remaining half is free
    g = PowerFractions(0.0, 0.0, 0.5, 0.5, 10.0)
    assert asymptotic_qfi(PmcSet.PMC1, g) == pytest.approx(100.0)


def test_no_squeezing_in_port0_kills_pmc1_family():
    f = PowerFractions(0.6, 0.0, 0.0, 0.4, 10.0)
    assert asymptotic_qfi(PmcSet.PMC1, f) == 0.0


def test_declared_optima_attain_the_limit():
    n = 7.0
    cases = {
        PmcSet.PMC1: PowerFractions(0.2, 0.0, 0.5, 0.3, n),
        PmcSet.PMC2: PowerFractions(0.5, 0.0, 0.5, 0.0, n),
        PmcSet.PMC3: PowerFractions(0.0, 0.0, 0.5, 0.5, n),
        PmcSet.SQZVAC_OPTIMAL: PowerFractions(0.5, 0.0, 0.5, 0.0, n),
        PmcSet.SQZVAC_WIDEBAND: PowerFractions(0.5, 0.0, 0.5, 0.0, n),
    }
    for pmc, f in cases.items():
        assert asymptotic_qfi(pmc, f) == pytest.approx(n ** 2, rel=1e-12)
        assert satisfies_optimum(pmc, f)


def _simplex_lattice(step=0.05):
    k = round(1.0 / step)
    for i, j, l in itertools.product(range(k + 1), repeat=3):
        if i + j + l <= k:
            yield (i / k, j / k, l / k, (k - i - j - l) / k)


@pytest.mark.parametrize("pmc", [PmcSet.PMC1, PmcSet.PMC2, PmcSet.PMC3])
def test_limit_attained_only_on_declared_manifolds(pmc):
    best = 0.0
    for fa, fb, fr, fz in _simplex_lattice():
        f = PowerFractions(fa, fb, fr, fz, 1.0)
        ratio = asymptotic_qfi(pmc, f)
        assert ratio <= 1.0 + 1e-12
        best = max(best, ratio)
        if ratio > 1.0 - 1e-6:
            assert satisfies_optimum(pmc, f, tol=1e-6)
    assert best == pytest.approx(1.0)


def test_exact_qfi_converges_at_large_power():
    n = 1e4
    for pmc, f in ((PmcSet.PMC1, PowerFractions(0.25, 0.0, 0.5, 0.25, n)),
                   (PmcSet.PMC2, PowerFractions(0.5, 0.0, 0.5, 0.0, n)),
                   (PmcSet.PMC3, PowerFractions(0.0, 0.0, 0.5, 0.5, n))):
        alpha, beta, r, z = f.to_magnitudes()
        exact = qfi_closed_form(alpha, beta, r, z, pmc=pmc)
        assert abs(exact / n ** 2 - 1.0) < 0.05


def test_fraction_parameter_round_trip():
    f = PowerFractions(0.3, 0.2, 0.4, 0.1, 123.0)
    alpha, beta, r, z = f.to_magnitudes()
    total = alpha ** 2 + beta ** 2 + math.sinh(r) ** 2 + math.sinh(z) ** 2
    assert total == pytest.approx(123.0, rel=1e-12)


def test_validation():
    with pytest.raises(ValueError):
        PowerFractions(0.5, 0.5, 0.5, -0.5, 1.0)
    with pytest.raises(ValueError):
        PowerFractions(0.4, 0.3, 0.2, 0.2, 1.0)
    with pytest.raises(ValueError):
        PowerFractions(0.25, 0.25, 0.25, 0.25, 0.0)


def test_optima_descriptions():
    assert heisenberg_optima(PmcSet.PMC1).manifolds == ({"f_r": 0.5, "f_beta": 0.0, "f_alpha+f_z": 0.5},)
    assert len(heisenberg_optima(PmcSet.PMC2).manifolds) == 2
    assert heisenberg_optima(PmcSet.PMC3).manifolds[0]["f_r"] == 0.5


@pytest.mark.parametrize("fractions", [
    (float("nan"), 0.0, 0.5, 0.5, 10.0),
    (0.25, 0.25, 0.25, 0.25, float("inf")),
    (0.25, 0.25, 0.25, 0.25, float("nan")),
])
def test_non_finite_fractions_rejected(fractions):
    with pytest.raises(ValueError):
        PowerFractions(*fractions)


_REGIMES = {PmcSet.PMC1: PmcSet.PMC1, PmcSet.PMC2: PmcSet.PMC2, PmcSet.PMC3: PmcSet.PMC3,
            PmcSet.SQZVAC_OPTIMAL: PmcSet.PMC1, PmcSet.SQZVAC_WIDEBAND: PmcSet.PMC2}


def _mapping_fractions():
    """Fixed and seeded fractions, with zeros and with f_beta > 0."""
    yield 0.0, 0.5, 0.0, 0.5
    yield 0.25, 0.25, 0.25, 0.25
    rng = np.random.default_rng(1515)
    for _ in range(24):
        weights = rng.uniform(0.05, 1.0, 4) * (rng.uniform(size=4) < 0.7)
        if weights.sum() > 0.0:
            yield tuple((weights / weights.sum()).tolist())


@pytest.mark.parametrize("pmc", list(PmcSet))
def test_every_family_uses_its_regime_closed_forms(pmc):
    """Asymptote, exact QFI, optima and ports are those of the family's regime.

    ``sqzvac_wideband`` once took an asymptote without PMC2's 4 f_beta f_z
    term and only the first of PMC2's two manifolds.
    """
    n = 1e10
    for fractions in _mapping_fractions():
        f = PowerFractions(*fractions, n)
        exact = qfi_closed_form(*f.to_magnitudes(), pmc=pmc)
        assert abs(asymptotic_qfi(pmc, f) / n ** 2 - exact / n ** 2) < 1e-9, fractions

    n = 1e8
    for manifold in heisenberg_optima(pmc).manifolds:
        values = dict.fromkeys(("f_alpha", "f_beta", "f_r", "f_z"), 0.0)
        for key, target in manifold.items():  # a summed key is split evenly
            parts = key.split("+")
            values.update((part, target / len(parts)) for part in parts)
        f = PowerFractions(**values, n_tot=n)
        assert abs(qfi_closed_form(*f.to_magnitudes(), pmc=pmc) / n ** 2 - 1.0) < 1e-6, manifold

    regime = _REGIMES[pmc]
    assert heisenberg_optima(pmc).manifolds == heisenberg_optima(regime).manifolds
    for convention in BsConvention:
        for magnitudes in ((1.3, 0.7, 0.6, 0.4), (2.0, 0.0, 0.3, 0.9)):
            assert (apply_pmc(pmc, 0.8, *magnitudes, convention)
                    == apply_pmc(regime, 0.8, *magnitudes, convention))
            assert (qfi_closed_form(*magnitudes, pmc=pmc)
                    == qfi_closed_form(*magnitudes, pmc=regime))
