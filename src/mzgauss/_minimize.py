"""The one minimizer of the library: lockstep grid refinement of many 1-D minima at once."""

from __future__ import annotations

import numpy as np

_OFFSETS = np.arange(-16, 17) / 16.0  # grid of one level, in units of its half-width


def grid_minimize(fn, center, half: float, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Refine a minimum of ``fn`` near each entry of ``center``, all rows in lockstep.

    Each level evaluates ``fn`` on a ``(rows, 33)`` array, 33 points evenly over
    center +- half per row, keeps each row's argmin as its center and narrows
    ``half`` 16-fold.  ``fn`` treats rows independently.  The center is a grid
    point, so no row ends worse than it starts (unless ``fn`` gives nan).
    Returns the final centers and their values.
    """
    center = np.asarray(center, dtype=float)
    rows = np.arange(center.size)
    for _ in range(levels):
        trial = center[:, None] + half * _OFFSETS
        values = fn(trial)
        pick = values.argmin(axis=1)
        center, low = trial[rows, pick], values[rows, pick]
        half /= 16.0
    return center, low
