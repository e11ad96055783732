"""The lockstep grid refinement shared by the working-point optimizer and the phase-grid maximizer."""

import numpy as np

from mzgauss._minimize import grid_minimize


def _bumpy(t):
    return np.cos(13.0 * t) + 0.3 * np.sin(41.0 * t) + 0.05 * t * t


def test_never_worse_than_the_start():
    centers = np.linspace(-3.0, 3.0, 25)
    for half in (1e-3, 0.1, 1.0):
        center, low = grid_minimize(_bumpy, centers, half, 5)
        assert np.array_equal(low, _bumpy(center))
        assert (low <= _bumpy(centers)).all()


def test_finds_a_narrow_quadratic_minimum():
    target = 0.31415926535897
    center, low = grid_minimize(lambda t: ((t - target) / 1e-3) ** 2, [0.3], 0.05, 9)
    assert abs(center[0] - target) < 1e-12
    assert low[0] < 1e-18


def test_rows_are_refined_independently():
    def at(targets):
        targets = np.asarray(targets)[:, None]
        return grid_minimize(lambda t: np.abs(t - targets), [0.0, 0.0, 0.0], 1.0, 6)

    center, low = at([0.25, -0.5, 0.7])
    for row, other in ((0, [0.25, 0.9, -0.9]), (1, [0.3, -0.5, 0.0]), (2, [-1.0, 1.0, 0.7])):
        moved_center, moved_low = at(other)
        assert moved_center[row] == center[row] and moved_low[row] == low[row]
        alone_center, alone_low = grid_minimize(lambda t: np.abs(t - other[row]), [0.0], 1.0, 6)
        assert alone_center[0] == moved_center[row] and alone_low[0] == moved_low[row]
