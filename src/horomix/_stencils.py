"""Finite-difference stencils, Gauss–Legendre rules, tensor-product grids and
bracketed root finding.

One implementation of each primitive, shared by the eigenvalue model, the
Euler-residual stencils of the correlation ODE, the Laplace quadrature and
Morse-chart differentiation, the cover-density quadratures and the
character-lattice sweeps.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, LatticeSizeError

GRID_CAP = 100_000_000
# Points a validation sweep may use: 11 per axis fit up to d = 5.
SWEEP_BUDGET = 1_000_000


def bracketed_roots(fn, lo, hi, xtol: float, rtol: float) -> np.ndarray:
    """Roots of the vectorized ``fn`` in the brackets [lo, hi], elementwise.

    ``fn`` maps an array of abscissae to an array of the same shape; it is
    called once per bisection step on the whole batch.  A bracket is done
    when its width drops below xtol + rtol·|x| (the stopping rule of
    Brent's method) or when it holds two adjacent floats and cannot shrink
    further.  The result is the secant point of the final bracket, which
    lies inside it.  A bracket whose ends have the same strict sign raises
    DomainError.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    lo, hi = lo.copy(), hi.copy()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi)):
        raise DomainError("brackets must be finite with lo <= hi")
    f_lo = np.asarray(fn(lo), float)
    f_hi = np.asarray(fn(hi), float)
    if np.any((np.sign(f_lo) * np.sign(f_hi) > 0.0) | np.isnan(f_lo) | np.isnan(f_hi)):
        raise DomainError("a bracket has no sign change")
    # a zero at either end is the root; collapse the bracket onto it
    at_lo, at_hi = f_lo == 0.0, (f_hi == 0.0) & (f_lo != 0.0)
    hi[at_lo], f_hi[at_lo] = lo[at_lo], 0.0
    lo[at_hi], f_lo[at_hi] = hi[at_hi], 0.0
    rising = f_lo < 0.0
    while True:
        mid = 0.5 * lo + 0.5 * hi
        active = (hi - lo >= xtol + rtol * np.abs(mid)) & (lo < mid) & (mid < hi)
        if not active.any():
            break
        f_mid = np.asarray(fn(mid), float)
        below = (f_mid < 0.0) == rising
        zero = f_mid == 0.0
        move_lo = active & (below | zero)
        move_hi = active & (~below | zero)
        lo[move_lo], f_lo[move_lo] = mid[move_lo], f_mid[move_lo]
        hi[move_hi], f_hi[move_hi] = mid[move_hi], f_mid[move_hi]
    span = f_hi - f_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        secant = lo - f_lo * (hi - lo) / span
    inside = (span != 0.0) & (lo <= secant) & (secant <= hi)
    return np.where(inside, secant, 0.5 * lo + 0.5 * hi)


def monotone_inverse(psi, target, xtol: float, rtol: float) -> np.ndarray:
    """q ≥ 0 with ψ(q) = target, elementwise, for ψ increasing on [0, ∞)
    with ψ(0) = 0 and targets ≥ 0.

    The upper bracket starts at max(target, 1) and doubles until ψ passes
    the target; a target ψ does not reach below 1e12 raises DomainError.
    """
    target = np.asarray(target, float)
    hi = np.maximum(target, 1.0)
    short = psi(hi) < target
    while short.any():
        hi = np.where(short, 2.0 * hi, hi)
        if np.any(hi > 1e12):
            raise DomainError("monotone profile cannot reach the requested level")
        short = psi(hi) < target
    return bracketed_roots(lambda q: psi(q) - target, 0.0, hi, xtol, rtol)


def fornberg_weights(nodes, x0, order: int) -> np.ndarray:
    """Stencil table of derivative orders 0..order at x0 on distinct nodes.

    ``nodes`` has shape (..., n) and ``x0`` broadcasts over its leading axes;
    column k of the (..., n, order + 1) result weighs the k-th derivative.
    Fornberg's recursion (Math. Comp. 51, 1988): exact for polynomials of
    degree below n, and each window of a batch gets the bits it gets alone.
    """
    nodes, x0 = np.asarray(nodes, float), np.asarray(x0, float)[..., None]
    batch = np.broadcast_shapes(nodes.shape[:-1], x0.shape[:-1])
    nodes = np.broadcast_to(nodes, batch + nodes.shape[-1:])
    c = np.zeros(nodes.shape + (order + 1,))
    c[..., 0, 0] = 1.0
    c1, c4 = np.ones(batch + (1,)), nodes[..., :1] - x0
    for i in range(1, nodes.shape[-1]):
        ks = np.arange(1.0, min(i, order) + 1.0)
        c5, c4 = c4, nodes[..., i : i + 1] - x0
        c3 = nodes[..., i : i + 1] - nodes[..., :i]
        c2 = np.cumprod(c3, axis=-1)[..., -1:]
        # row i from the old row i − 1, then rows 0..i−1 at once: the scalar
        # recursion's j- and downward k-loops read only old values
        old, rows = c[..., i - 1, : ks.size + 1], c[..., :i, : ks.size + 1]
        c[..., i, 1 : ks.size + 1] = c1 * (ks * old[..., :-1] - c5 * old[..., 1:]) / c2
        c[..., i, :1] = -c1 * c5 * old[..., :1] / c2
        shifted = c4[..., None] * rows[..., 1:] - ks * rows[..., :-1]
        rows[..., 1:] = shifted / c3[..., None]
        rows[..., 0] = c4 * rows[..., 0] / c3
        c1 = c2
    return c


def tensor_grid(axes, cap: int = GRID_CAP) -> np.ndarray:
    """All points of the product of 1-d ``axes`` as an (N, d) array.

    Points are in lex order (the last axis varies fastest).  A grid of more
    than ``cap`` points is refused before anything is allocated.
    """
    size = math.prod(len(a) for a in axes)
    if size > cap:
        raise LatticeSizeError(f"tensor grid has {size} points, above the cap {cap}")
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def sweep_grid(half_widths, per_axis: int) -> np.ndarray:
    """Evenly spaced tensor grid over the box ∏[−u, u], for validation sweeps.

    Keeps ``per_axis`` points on every axis while the grid fits
    SWEEP_BUDGET; above that the per-axis count shrinks until it fits,
    but never below 2 (the box vertices).  Where the 2^d vertices alone
    exceed the budget (d ≥ 20) the sweep is refused before allocation.
    """
    d = len(half_widths)
    n = per_axis
    while n > 2 and n**d > SWEEP_BUDGET:
        n -= 1
    return tensor_grid([np.linspace(-u, u, n) for u in half_widths], SWEEP_BUDGET)


def gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss–Legendre nodes and weights on [lo, hi]."""
    x, w = leggauss(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def finite_difference_gradient(fn, x0: np.ndarray) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    h = 1e-5
    grad = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        grad[i] = (float(fn(x0 + e)) - float(fn(x0 - e))) / (2 * h)
    return grad


def finite_difference_hessian(fn, x0: np.ndarray) -> np.ndarray:
    """Central second differences, Richardson-refined once for robustness."""

    def hess_at(step):
        x0a = np.asarray(x0, dtype=float)
        d = x0a.size
        out = np.empty((d, d))
        f0 = float(fn(x0a))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = step
            out[i, i] = (float(fn(x0a + ei)) - 2 * f0 + float(fn(x0a - ei))) / step**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = step
                mixed = (
                    float(fn(x0a + ei + ej))
                    - float(fn(x0a + ei - ej))
                    - float(fn(x0a - ei + ej))
                    + float(fn(x0a - ei - ej))
                ) / (4 * step**2)
                out[i, j] = out[j, i] = mixed
        return out

    h = 1e-4
    coarse = hess_at(h)
    fine = hess_at(h / 2)
    return (4.0 * fine - coarse) / 3.0
