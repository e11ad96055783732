"""Asymptotic Heisenberg-scaling analysis in input power fractions.

With every component photon number large, the QFI of each phase-matching
family reduces to <N_tot>^2 times a function of the four power fractions.
The Heisenberg limit F = <N_tot>^2 is reached only on family-specific
fraction manifolds.  Both the asymptote and the manifolds belong to the
family's regime (:attr:`pmc.PmcSet.regime`): a squeezed-vacuum family has
those of PMC1 or PMC2, whose QFI it also shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NumericalOverflow
from .pmc import PmcSet


@dataclass(frozen=True)
class PowerFractions:
    """Fractions of <N_tot> carried by the two coherent and two squeeze inputs."""

    f_alpha: float
    f_beta: float
    f_r: float
    f_z: float
    n_tot: float

    def __post_init__(self):
        for name in ("f_alpha", "f_beta", "f_r", "f_z"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        total = self.f_alpha + self.f_beta + self.f_r + self.f_z
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"fractions must sum to 1, got {total}")
        if not (self.n_tot > 0.0 and math.isfinite(self.n_tot)):
            raise ValueError(f"n_tot must be positive and finite, got {self.n_tot}")

    def to_magnitudes(self) -> tuple[float, float, float, float]:
        """(alpha, beta, r, z) realizing these fractions exactly, sinh^2 s = f n."""
        return (
            math.sqrt(self.f_alpha * self.n_tot),
            math.sqrt(self.f_beta * self.n_tot),
            math.asinh(math.sqrt(self.f_r * self.n_tot)),
            math.asinh(math.sqrt(self.f_z * self.n_tot)),
        )


def asymptotic_qfi(pmc: PmcSet, f: PowerFractions) -> float:
    """Leading-order QFI for the family at the given fractions and total power.

    It never exceeds the Heisenberg limit <N_tot>^2, and <N_tot>^2 is scaled
    last, so it is finite whenever that is.
    """
    try:
        n2 = f.n_tot ** 2
    except OverflowError:
        raise NumericalOverflow(f"<N_tot>^2 overflows at n_tot = {f.n_tot:g}") from None
    regime = pmc.regime
    if regime is PmcSet.PMC1:
        return n2 * (4.0 * f.f_r * (f.f_alpha + f.f_z))
    if regime is PmcSet.PMC2:
        return n2 * (4.0 * (f.f_alpha * f.f_r + f.f_beta * f.f_z))
    num = f.f_alpha * f.f_beta * (f.f_r + f.f_z) ** 2
    den = 0.5 * f.f_r ** 2 + 0.5 * f.f_z ** 2 + f.f_alpha * f.f_z + f.f_beta * f.f_r
    corr = 0.0 if num == 0.0 else num / den
    return n2 * (4.0 * (f.f_alpha * f.f_r + f.f_beta * f.f_z + f.f_r * f.f_z - corr))


_OPTIMA = {
    # the split of the remaining half between f_alpha and f_z is free
    PmcSet.PMC1: ({"f_r": 0.5, "f_beta": 0.0, "f_alpha+f_z": 0.5},),
    PmcSet.PMC2: ({"f_alpha": 0.5, "f_r": 0.5, "f_beta": 0.0, "f_z": 0.0},
                  {"f_beta": 0.5, "f_z": 0.5, "f_alpha": 0.0, "f_r": 0.0}),
    # Two squeezed vacuums is the interior optimum.  With one coherent source off this
    # family degenerates to the anti-phase squeezer one (the corresponding 2 theta -
    # phase constraint becomes vacuous), so its free-split manifolds reach the limit too.
    PmcSet.PMC3: ({"f_r": 0.5, "f_z": 0.5, "f_alpha": 0.0, "f_beta": 0.0},
                  {"f_beta": 0.0, "f_r": 0.5, "f_alpha+f_z": 0.5},
                  {"f_alpha": 0.0, "f_z": 0.5, "f_beta+f_r": 0.5}),
}


def heisenberg_optima(pmc: PmcSet) -> tuple[dict[str, float], ...]:
    """The regime's fraction manifolds on which F / <N_tot>^2 attains its peak value of 1.

    Each manifold is a fresh dict of linear constraints on the fractions; keys
    may be single fraction names or sums like ``f_alpha+f_z``.
    """
    return tuple(dict(manifold) for manifold in _OPTIMA[pmc.regime])
