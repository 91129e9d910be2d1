"""Step-halving reference solutions of the master relation, kept as an
oracle for ``corr_ode.solve_master``.

Each level inserts the midpoint of every step of the one before, so the
nodes of the coarse grid keep even indices, and the answer is
Richardson-extrapolated from the two finest levels, assuming the march's
order 4.
"""

from __future__ import annotations

import numpy as np

from horomix.corr_ode import solve_master


def refine_grid(grid: np.ndarray) -> np.ndarray:
    mids = 0.5 * (grid[:-1] + grid[1:])
    return np.sort(np.concatenate([grid, mids]))


def oracle_trajectory(mode, lam: float, y0: complex, grid: np.ndarray, tol: float = 1e-10):
    """Reference solution on ``grid`` by up to five step halvings.

    Returns (values at the nodes of ``grid``, error estimate).
    """
    grid = np.asarray(grid, dtype=float)
    fine = grid
    prev = solve_master(mode, lam, y0, fine).y
    idx = np.arange(grid.size)
    err = float("inf")
    for _ in range(5):
        fine = refine_grid(fine)
        idx = idx * 2
        cur = solve_master(mode, lam, y0, fine).y[idx]
        err = float(np.max(np.abs(cur - prev)))
        if err < tol:
            extrap = cur + (cur - prev) / 15.0
            return extrap, err / 15.0
        prev = cur
    return prev, err
