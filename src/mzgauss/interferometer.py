"""Mach-Zehnder scenario container and beam-splitter conventions.

Two balanced 50/50 conventions are supported.  They differ by reflection
phases only, which remaps optimal input phase relations but leaves every
attainable optimum unchanged.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidEfficiency
from .states import GaussianPort, PortMoments, number_factor

# phase rotation applied to input port 0 that turns the cube convention into
# the symmetric one (up to an unmeasurable phase on output port 5)
CUBE_PORT0_ROTATION = -0.5 * math.pi


class BsConvention(enum.Enum):
    SYMMETRIC = "symmetric"
    CUBE = "cube"


@dataclass(frozen=True)
class MziScenario:
    """Two input ports, BS convention, total internal phase and detector efficiency.

    ``port1`` is the mode carrying the primary coherent source; ``port0`` the
    other input.  ``phase`` is the total internal shift (unknown part plus the
    experimentally controlled part); only the total enters any formula.
    """

    port1: GaussianPort
    port0: GaussianPort
    convention: BsConvention = BsConvention.SYMMETRIC
    phase: float = 0.0
    efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise InvalidEfficiency(f"efficiency must be in (0, 1], got {self.efficiency}")

    @functools.cached_property
    def folded_moments(self) -> tuple[PortMoments, PortMoments]:
        """(port0, port1) moments with the cube convention folded into port 0."""
        p0 = self.port0.moments
        if self.convention is BsConvention.CUBE:
            p0 = p0.rotated(CUBE_PORT0_ROTATION)
        return p0, self.port1.moments

    @functools.cached_property
    def factor(self) -> tuple[np.ndarray, tuple]:
        """:func:`states.number_factor` of the folded ports, computed on first use."""
        return number_factor(*self.folded_moments)

    def with_phase(self, phase: float) -> "MziScenario":
        return MziScenario(self.port1, self.port0, self.convention, phase, self.efficiency)

    def with_efficiency(self, efficiency: float) -> "MziScenario":
        return MziScenario(self.port1, self.port0, self.convention, self.phase, efficiency)
