"""Finite-difference stencils, Gauss–Legendre rules, tensor-product grids,
quadratic forms, bracketed root finding (bisection, and safeguarded Newton
certified against it) and exactly rounded summation.

One implementation of each primitive, shared by the eigenvalue model, the
Euler-residual stencils of the correlation ODE, the Laplace quadrature and
Morse-chart differentiation, the cover-density quadratures and the
character-lattice sweeps and averages.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError, LatticeSizeError

GRID_CAP = 100_000_000
# Points a validation sweep may use: 11 per axis fit up to d = 5.
SWEEP_BUDGET = 1_000_000
# Values per exact_sum pass: the per-exponent sums stay exact integers in
# float64 while _SUM_CHUNK · 2²⁷ ≤ 2⁵³, and the temporaries stay O(chunk).
_SUM_CHUNK = 1 << 20
# Steps a safeguarded Newton solve takes before its roots go to bisection.
_NEWTON_STEPS = 12


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


def _newton_roots(fn, start, lo, hi, xtol: float, rtol: float) -> np.ndarray:
    """Roots of the vectorized ``fn`` in the brackets [lo, hi], elementwise,
    by safeguarded Newton from ``start`` (clipped into its bracket), for
    ``fn`` that rises through its root: fn(lo) ≤ 0 ≤ fn(hi).

    ``fn`` maps an array of abscissae to an array of the same shape.  It is
    called on the batch shape with one extra leading axis, once per step
    with the points of that step stacked, so whatever it broadcasts against
    must broadcast against both shapes.  Each step evaluates x − h, x and
    x + h, h = 2⁻²⁰·|x| + xtol: the sign of f(x) narrows the bracket, and
    the central difference is the slope, whose accuracy sets only how fast
    the steps shrink.  A step that leaves the closed bracket goes to its
    midpoint.  Once every step is below xtol + rtol·|x|, or after
    _NEWTON_STEPS steps, each root x is certified by fn(x − tol) ≤ 0 ≤
    fn(x + tol), tol = xtol + rtol·|x|: a sign change within the stopping
    rule of :func:`bracketed_roots`.  An element that fails it, or never
    converged, is solved again by :func:`bracketed_roots` on its bracket,
    which raises DomainError if the bracket holds no sign change.
    """
    lo, hi, x = np.broadcast_arrays(*(np.asarray(a, float) for a in (lo, hi, start)))
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi)):
        raise DomainError("brackets must be finite with lo <= hi")
    x = np.minimum(np.maximum(x, lo), hi)
    offsets = np.array([-1.0, 0.0, 1.0]).reshape((3,) + (1,) * x.ndim)
    for _ in range(_NEWTON_STEPS):
        h = 2.0**-20 * np.abs(x) + xtol
        f_minus, f_x, f_plus = np.asarray(fn(x + offsets * h), float)
        lo = np.where(f_x < 0.0, x, lo)
        hi = np.where(f_x > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = x - f_x * (2.0 * h) / (f_plus - f_minus)
        # inclusive: a converged x on a bracket end must stay a Newton point
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * lo + 0.5 * hi)
        converged = np.abs(new - x) < xtol + rtol * np.abs(new)
        x = new
        if converged.all():
            break
    tol = xtol + rtol * np.abs(x)
    f_minus, f_plus = np.asarray(fn(np.stack([x - tol, x + tol])), float)
    certified = converged & (f_minus <= 0.0) & (f_plus >= 0.0)
    if certified.all():
        return x
    # bisect the rest on their brackets; the certified ones on [x − tol,
    # x + tol], which holds their sign change, and keep their x
    lo, hi = np.where(certified, x - tol, lo), np.where(certified, x + tol, hi)
    return np.where(certified, x, bracketed_roots(fn, lo, hi, xtol, rtol))


def exact_sum(values) -> float:
    """The exactly rounded (half to even) sum of a float64 array, computed
    in numpy: bit for bit what ``math.fsum`` returns.

    Each value is m·2^e with m·2²⁷ = whole + frac, |whole| < 2²⁷ and frac
    a multiple of 2⁻²⁶.  Both parts are summed per exponent e with
    ``np.bincount``, exactly, one chunk of at most _SUM_CHUNK values at a
    time; the per-exponent sums fold into one Python integer in units of
    2⁻¹¹²⁶, and one int/int true division rounds it, subnormals included.
    An empty array and any exact cancellation sum to 0.0, not −0.0.
    Non-finite values raise DomainError before anything is summed, and so
    does a sum that overflows float64.  Where only fsum's partial sums
    overflow (1e308 + 1e308 − 1e308), fsum raises and this returns the sum.
    """
    return _round_total(_exact_total(values))


def _exact_total(values) -> int:
    """The sum of a float64 array, exactly, as an integer in units of
    2⁻¹¹²⁶: the integer that :func:`exact_sum` rounds.  Integer totals of
    several arrays add, and scale by integers, without rounding.
    Non-finite values raise DomainError."""
    x = np.asarray(values, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise DomainError("cannot sum non-finite values (nan or ±inf)")
    total = 0
    for start in range(0, x.size, _SUM_CHUNK):
        m, e = np.frexp(x[start : start + _SUM_CHUNK])
        m *= 2.0**27
        whole = np.trunc(m)
        m -= whole
        bucket = np.add(e, 1073, dtype=np.intp)  # frexp exponents start at −1073
        whole_sums = np.bincount(bucket, weights=whole)
        frac_sums = np.bincount(bucket, weights=m) * 2.0**26
        for k in np.flatnonzero((whole_sums != 0.0) | (frac_sums != 0.0)).tolist():
            total += ((int(whole_sums[k]) << 26) + int(frac_sums[k])) << k
    return total


def _round_total(total: int) -> float:
    """total·2⁻¹¹²⁶, correctly rounded (half to even) to float64; a value
    beyond float64 raises DomainError."""
    try:
        return total / (1 << 1126)
    except OverflowError:
        raise DomainError("the exact sum overflows float64") from None


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


def quadratic_form(pts, matrix) -> np.ndarray:
    """ωᵀMω for each point ω along the last axis of ``pts``.

    The terms (ωᵢ·Mᵢⱼ)·ωⱼ are added in lex order of (i, j), which is bit
    for bit numpy's Einstein summation "...i,ij,...j->..." when M₀₀ ≥ 0
    (the first term then is never −0.0), at a fraction of its cost for
    d ≤ 4.  Negating every point leaves the bits unchanged.
    """
    # one contiguous copy per coordinate: the d² passes below then stream
    cols = list(np.ascontiguousarray(np.moveaxis(np.asarray(pts, dtype=float), -1, 0)))
    total = None
    for ci, row in zip(cols, matrix.tolist()):
        for cj, entry in zip(cols, row):
            term = ci * entry
            term *= cj
            if total is None:
                total = term
            else:
                total += term
    return total


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


@functools.lru_cache(maxsize=16)
def legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss–Legendre nodes and weights on [−1, 1], computed once per
    n and shared read-only."""
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss–Legendre nodes and weights on [lo, hi]."""
    x, w = legendre_rule(n)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def finite_difference_gradient(fn, x0: np.ndarray) -> np.ndarray:
    """Central first differences with step 1e-5.

    ``fn`` maps a (k, d) array of points to their k values; all 2d stencil
    points go to it in one call.
    """
    x0 = np.asarray(x0, dtype=float)
    h = 1e-5
    steps = h * np.eye(x0.size)
    f_plus, f_minus = np.split(np.asarray(fn(np.concatenate([x0 + steps, x0 - steps]))), 2)
    return (f_plus - f_minus) / (2 * h)


def finite_difference_hessian(fn, x0: np.ndarray) -> np.ndarray:
    """Central second differences at steps 1e-4 and 5e-5, Richardson-refined
    once for robustness.

    ``fn`` maps a (k, d) array of points to their k values; the 2(1 + 2d²)
    stencil points of both steps go to it in one call.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    iu, ju = np.triu_indices(d, 1)
    h = 1e-4
    points = []
    for step in (h, h / 2):
        steps = step * np.eye(d)
        plus, minus = x0 + steps, x0 - steps
        points += [x0[None], plus, minus, plus[iu] + steps[ju], plus[iu] - steps[ju],
                   minus[iu] + steps[ju], minus[iu] - steps[ju]]
    values = np.asarray(fn(np.concatenate(points))).reshape(2, -1)
    cuts = np.cumsum([1, d, d, iu.size, iu.size, iu.size])
    estimates = []
    for step, row in zip((h, h / 2), values):
        f0, fp, fm, fpp, fpm, fmp, fmm = np.split(row, cuts)
        out = np.diag((fp - 2 * f0 + fm) / step**2)
        out[iu, ju] = out[ju, iu] = (fpp - fpm - fmp + fmm) / (4 * step**2)
        estimates.append(out)
    coarse, fine = estimates
    return (4.0 * fine - coarse) / 3.0
