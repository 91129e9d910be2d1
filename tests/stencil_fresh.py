"""The stencil rules of the correlation ODE as they were before their
plans, kept as an independent oracle for them, and the tensor derivative
stencils of the Morse-chart oracle (tests/morse_chart.py).

Every function builds its :func:`fornberg_weights` tables afresh on every
call; the planned rules must return the same bits.
"""

from __future__ import annotations

import numpy as np

from horomix._stencils import fornberg_weights, tensor_grid


def tensor_stencil(k: tuple, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the tensorized central D^k stencil at ``step``:
    2m + 1 nodes per axis, m = (kᵢ + 4)//2 + 1, with the order-kᵢ
    :func:`fornberg_weights` column at 0."""
    axes, weights = [], []
    for ki in k:
        m = (ki + 4) // 2 + 1
        nodes = np.arange(-m, m + 1) * step
        axes.append(nodes)
        weights.append(fornberg_weights(nodes, 0.0, ki)[:, ki])
    pts = tensor_grid(axes)
    wts = np.prod(tensor_grid(weights), axis=-1)
    return pts, wts


def cumulative_quadratic(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative ∫ from grid[0] by local degree-4 interpolatory quadrature.

    Each cell [t_k, t_(k+1)] integrates the quartic through its five
    nearest samples (fewer on shorter grids), as the Taylor sum at t_k:
    ∫ p = Σ_m p⁽ᵐ⁾(t_k)·hᵐ⁺¹/(m+1)!, with the derivatives from the
    :func:`fornberg_weights` table of the cell's window.
    """
    n = grid.size
    width = min(5, n)
    cells = np.arange(n - 1)
    start = np.clip(cells - (width - 1) // 2, 0, n - width)
    window = start[:, None] + np.arange(width)
    table = fornberg_weights(grid[window], grid[cells], width - 1)
    powers = np.arange(1, width + 1)
    taylor = np.diff(grid)[:, None] ** powers / np.cumprod(powers)
    w = np.matmul(table, taylor[:, :, None])[:, :, 0]
    steps = np.matmul(w[:, None, :], values[window][:, :, None])[:, 0, 0]
    return np.concatenate([[0.0 + 0.0j], np.cumsum(steps)])


def second_derivative_from_first(grid: np.ndarray, yprime: np.ndarray) -> np.ndarray:
    """y'' at interior nodes by 5-point stencils on y'.

    Per node the stencil differentiates in whichever coordinate (t or
    log t) is locally closer to uniform; both are exact on local degree-4
    polynomials, the choice only controls conditioning.  The two nodes at
    each boundary return NaN.
    """
    n = grid.size
    out = np.full(n, np.nan, dtype=complex)
    window = np.arange(max(n - 4, 0))[:, None] + np.arange(5)
    t = grid[window]
    # windows reaching t ≤ 0 stay in t; the 1.0 placeholder is never used
    use_log = t[:, 0] > 0.0
    logt = np.log(np.where(use_log[:, None], t, 1.0))
    dt, dtau = np.diff(t[use_log]), np.diff(logt[use_log])
    use_log[use_log] = dtau.max(1) / dtau.min(1) <= dt.max(1) / dt.min(1)
    coords = np.where(use_log[:, None], logt, t)
    w = fornberg_weights(coords, coords[:, 2], 1)[..., 1]
    # matmul keeps the bits of one dot product per node
    d = np.matmul(w[:, None, :], yprime[window][:, :, None])[:, 0, 0]
    d[use_log] /= t[use_log, 2]
    out[2 : n - 2] = d
    return out
