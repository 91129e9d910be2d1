"""Fornberg finite-difference weights, Gauss–Legendre rules, tensor-product
grids, quadratic forms and exactly rounded summation.

One implementation of each primitive, shared by the eigenvalue model, the
Euler-residual stencils of the correlation ODE, the Laplace quadrature,
the cover-density quadratures and the character-lattice sweeps and
averages.
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
# Values per exact_sum chunk (256 KiB), chosen by timing the lattice
# sweep's strata in one process: 2¹⁵ beat 2¹⁴ and 2¹⁶.  The extraction
# levels are exact for the M with 2^M ≥ _SUM_CHUNK + 2, derived from it at
# call time; the per-exponent sums of the tail route stay exact integers in
# float64 while _SUM_CHUNK · 2²⁷ ≤ 2⁵³.
_SUM_CHUNK = 1 << 15
# Points per face up to which unit_faces keeps a rule: every rank-2 count,
# rank 3 up to 128 points per axis and rank 4 up to 25 (4.4 MB), where a
# kept rank-5 cover-density rule of 24 points per axis would hold 137 MB.
_FACE_CACHE_POINTS = 1 << 14


def exact_sum(values) -> float:
    """The exactly rounded (half to even) sum of a float64 array, computed
    in numpy: bit for bit what ``math.fsum`` returns.

    The array is summed exactly, one chunk of at most _SUM_CHUNK values at
    a time, into one Python integer in units of 2⁻¹¹²⁶ (:func:`_exact_total`:
    error-free extraction after Rump, Ogita & Oishi, with a per-exponent
    route for what it leaves), and one int/int true division rounds it,
    subnormals included.  An empty array and any exact cancellation sum to
    0.0, not −0.0.  Non-finite values raise DomainError, and so does a sum
    that overflows float64.  Where only fsum's partial sums overflow
    (1e308 + 1e308 − 1e308), fsum raises and this returns the sum.
    """
    return _round_total(_exact_total(values))


def _exact_total(values) -> int:
    """The sum of a float64 array, exactly, as an integer in units of
    2⁻¹¹²⁶: the integer that :func:`exact_sum` rounds.  Integer totals of
    several arrays add, and scale by integers, without rounding.
    Non-finite values raise DomainError; the input is never written.

    Each chunk goes through up to two levels of error-free extraction
    (Rump, Ogita & Oishi, "Accurate floating-point summation part I:
    faithful rounding", SIAM J. Sci. Comput. 31(1), 2008, ExtractVector,
    Lemmas 3.2–3.3).  With every |x| ≤ 2^(E−M), σ = 2^E and
    2^M ≥ _SUM_CHUNK + 2, q = (x + σ) − σ is a multiple of 2^(E−53) of
    size at most 2^(E−M) and r = x − q is exact, so ``np.sum(q)`` is exact
    in any order; |r| ≤ 2^(E−53), so the next level takes σ·2^(M−53).
    The chunk's max/min pass sets the first σ and refuses non-finite
    values; a chunk of one repeated value leaves one remainder, so where
    that is 0 after the first level the chunk is done.  What the levels
    leave, the nonzero remainders of values whose low bits lie more than
    2·(53 − M) binary places under the chunk's magnitude, goes to
    :func:`_exponent_total`, and so does a chunk whose σ would leave the
    normal range (values near DBL_MAX, or only tiny ones).
    """
    x = np.asarray(values, dtype=float).ravel()
    m = (_SUM_CHUNK + 1).bit_length()  # the M of 2^M ≥ _SUM_CHUNK + 2
    # the remainders go to `rem`; each level's q to `rem` on the first
    # level (whose input is x) and to `q` after, so no pass touches three
    # arrays and the input is only read
    rem_buf = np.empty(min(x.size, _SUM_CHUNK))
    q_buf = np.empty_like(rem_buf)
    total = 0
    for start in range(0, x.size, _SUM_CHUNK):
        rest = x[start : start + _SUM_CHUNK]
        hi, lo = float(rest.max()), float(rest.min())
        if not (math.isfinite(hi) and math.isfinite(lo)):
            raise DomainError("cannot sum non-finite values (nan or ±inf)")
        rem, q = rem_buf[: rest.size], q_buf[: rest.size]
        # σ = 2^exp with max|x| < 2^(exp − M)
        exp = math.frexp(max(hi, -lo))[1] + m
        settled = False
        for level in range(2):
            if settled or not -1022 <= exp <= 1023:
                break
            sigma = math.ldexp(1.0, exp)
            ext = rem if level == 0 else q
            np.add(rest, sigma, out=ext)
            ext -= sigma
            # the exact level sum is num/2^k, k ≤ 1074: num·2^(1126−k) units
            num, den = float(ext.sum()).as_integer_ratio()
            total += num << (1127 - den.bit_length())
            rest = np.subtract(rest, ext, out=rem)
            exp += m - 53
            # one value repeated leaves one remainder: where it is 0, stop
            settled = hi == lo and rest[0] == 0.0
        if not settled:
            nonzero = rest != 0.0
            if nonzero.any():
                total += _exponent_total(rest[nonzero])
    return total


def _exponent_total(x: np.ndarray) -> int:
    """:func:`_exact_total` of at most 2²⁶ finite values, summed per binary
    exponent: each value is m·2^e with m·2²⁷ = whole + frac, |whole| < 2²⁷
    and frac a multiple of 2⁻²⁶, and both parts are summed per e with
    ``np.bincount``, exactly, before they fold into the integer total."""
    m, e = np.frexp(x)
    m *= 2.0**27
    whole = np.trunc(m)
    m -= whole
    bucket = np.add(e, 1073, dtype=np.intp)  # frexp exponents start at −1073
    whole_sums = np.bincount(bucket, weights=whole)
    frac_sums = np.bincount(bucket, weights=m) * 2.0**26
    total = 0
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

    Points are in lex order (the last axis varies fastest); no axes give
    the one point of a (1, 0) array.  A grid of more than ``cap`` points is
    refused before anything is allocated.
    """
    size = math.prod(len(a) for a in axes)
    if size > cap:
        raise LatticeSizeError(f"tensor grid has {size} points, above the cap {cap}")
    if not axes:
        return np.empty((1, 0))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def columns(pts) -> list:
    """The d coordinates of points along the last axis of ``pts``, one
    contiguous copy each: the coordinate arrays that :func:`quadratic_form`
    and the λ₀ of ``spectral_model`` take."""
    return list(np.ascontiguousarray(np.moveaxis(np.asarray(pts, dtype=float), -1, 0)))


def quadratic_form(coords, matrix) -> np.ndarray:
    """ωᵀMω on the points whose d coordinates are the arrays ``coords``.

    The coordinate arrays broadcast against each other: the columns of a
    point array (:func:`columns`), or an open mesh, one axis per coordinate
    as ``np.ix_`` gives, on which each term costs the size of its own axes
    and only the running total the whole mesh.  The terms (ωᵢ·Mᵢⱼ)·ωⱼ are
    added in lex order of (i, j), so every point has the same bits in
    either form, and they are bit for bit numpy's Einstein summation
    "...i,ij,...j->..." when M₀₀ ≥ 0 (the first term then is never −0.0),
    at a fraction of its cost for d ≤ 4.  Negating every point leaves the
    bits unchanged.
    """
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
    total = None
    for ci, row in zip(coords, matrix.tolist()):
        for cj, entry in zip(coords, row):
            term = ci * entry
            if np.shape(cj) == np.shape(term):
                term *= cj
            else:
                term = term * cj
            total = _accumulate(total, term, shape)
    return total


def _accumulate(total, term, shape):
    """total + term, in place in whichever of the two is fresh and already
    has the broadcast ``shape`` (IEEE addition is commutative, so the bits
    do not depend on which); ``term`` is always fresh, ``total`` fresh or
    None."""
    if total is None:
        return term
    if np.shape(total) == shape:
        total += term
        return total
    if np.shape(term) == shape:
        term += total
        return term
    return total + term


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


def unit_faces(d: int, n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """(points, columns, mirrored): the unit n-point Gauss–Legendre tensor
    rule on each face of [−1, 1]^d, read-only.  A rule of at most
    _FACE_CACHE_POINTS points per face is built once per (d, n) on first
    use and shared; a larger one is built afresh on every call.

    ``points`` is (2d, n^(d−1), d), the 2d faces in the order +e₁, −e₁,
    +e₂, ...: on face ±eᵢ coordinate i is ±1 and the others are the face
    coordinates in lex order (a rank-1 face is ±1).  ``columns`` is the
    (d − 1, n^(d−1)) array of the face coordinates' weights, row j the
    weight of coordinate j at each face point.  ``mirrored`` is True where
    every −eᵢ face holds, bit for bit, the negated points of the +eᵢ face
    in reverse order, as it does where the nodes are exactly antisymmetric
    (every even n; an odd n has a middle node whose negation is not it).
    """
    build = _unit_faces.__wrapped__ if n ** (d - 1) > _FACE_CACHE_POINTS else _unit_faces
    return build(d, n)


@functools.lru_cache(maxsize=16)
def _unit_faces(d: int, n: int) -> tuple[np.ndarray, np.ndarray, bool]:
    x, w = legendre_rule(n)
    coords = tensor_grid([x] * (d - 1))
    cols = np.ascontiguousarray(tensor_grid([w] * (d - 1)).T)
    points = np.empty((2 * d, len(coords), d))
    for i in range(d):
        face = points[2 * i : 2 * i + 2]
        face[0, :, i], face[1, :, i] = 1.0, -1.0
        face[..., :i], face[..., i + 1 :] = coords[:, :i], coords[:, i:]
    # compared as bits, so a +0.0 node and its −0.0 negation differ
    mirrored = np.array_equal(points[1::2].view(np.uint64), (-points[0::2, ::-1]).view(np.uint64))
    points.flags.writeable = cols.flags.writeable = False
    return points, cols, mirrored


def _cube_faces(d: int, n: int, lead) -> tuple[np.ndarray, np.ndarray]:
    """(points, weights) of an n-point Gauss–Legendre tensor rule on each
    face of [−1, 1]^d: the read-only ``points`` of :func:`unit_faces` and
    weights, shared by every face, ((lead·w₁)·w₂)···, ``lead`` broadcast
    against a new last axis of n^(d−1) entries.
    """
    points, cols, _ = unit_faces(d, n)
    weights = np.asarray(lead, dtype=float)[..., None]
    for col in cols:
        weights = weights * col
    return points, weights
