"""Exception types raised across the package."""


class MzGaussError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(MzGaussError):
    """Malformed or inconsistent CLI configuration."""


class DegenerateMatrix(MzGaussError):
    """Fisher matrix with vanishing sum-sum element but nonzero cross element."""


class NonPositiveInformation(MzGaussError):
    """Cramer-Rao bound requested for non-positive Fisher information."""


class InvalidEfficiency(MzGaussError):
    """Detector efficiency outside (0, 1]."""


class FlatObjective(MzGaussError):
    """Phase sensitivity is infinite for every internal phase shift."""


class UndefinedBoundary(MzGaussError):
    """A regime-boundary curve evaluated outside its domain (negative radicand)."""


class TruncationError(MzGaussError):
    """Fock-space truncation too small for the requested state.

    Carries the measured tail mass in ``tail``.
    """

    def __init__(self, tail: float, n_max: int):
        self.tail = tail
        self.n_max = n_max
        super().__init__(
            f"tail mass {tail:.3e} in the top occupation shells exceeds the "
            f"tolerance at n_max={n_max}"
        )


class NumericalOverflow(MzGaussError):
    """A quantity exceeds the range of double-precision floats."""
