"""Spectral measures of the eigenvalue branch over finite character lattices.

A finite Abelian cover with cyclic orders (N₁, …, N_d) contributes the
rational character lattice (1/N₁)Z/Z × ⋯ × (1/N_d)Z/Z.  Averages of a
test function over the branch values λ₀(ω) at those points converge, as
min Nᵢ → ∞, to ∫ f(x) ρ(x) dx against the pushforward density of
Lebesgue measure under λ₀, which factors as ρ(x) = x^(d/2−1)·ζ̃(x) with
ζ̃ bounded near 0.

A character is swept at its representative j/n in [−1/2, 1/2), so the
representatives of ω and −ω are exact negatives, and λ₀ is even: the
lattice sweep evaluates λ₀ at one member of each ±ω pair and counts it
twice, and every sum is exactly rounded over the full multiset.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import _stencils
from ._stencils import GRID_CAP, _exact_total, _round_total, gauss_legendre, tensor_grid
from .errors import DomainError, LatticeSizeError, ModelValidityError
from .laplace import _QUAD_REL_TOL, _face_count
from .spectral_model import SpectralModel

# Points per open-mesh block of the lattice sweep, chosen by timing its
# strata in one process: with 2¹⁵-value chunks, 2¹⁵ beat 2¹⁴ and 2¹⁶.
_BLOCK = 1 << 15


def __getattr__(name):
    # perfbench's tracer looks up cover_spectrum.brentq to count root solves;
    # nothing here calls it, so scipy is imported only on that lookup.
    if name == "brentq":
        from scipy.optimize import brentq

        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class CharacterLattice:
    orders: tuple

    def __post_init__(self):
        try:
            orders = tuple(self.orders)
        except TypeError:  # a bare number
            orders = None
        # bool is an int subclass, and int() would truncate a float
        if orders is None or not all(
            isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in orders
        ):
            raise DomainError(
                f"lattice orders must be a sequence of integers, got {self.orders!r}"
            )
        orders = tuple(int(n) for n in orders)
        object.__setattr__(self, "orders", orders)
        if not orders or any(n <= 0 for n in orders):
            raise DomainError(f"lattice orders must be positive, got {orders}")

    @property
    def size(self) -> int:
        return math.prod(self.orders)


def _check_rank(model: SpectralModel, lattice: CharacterLattice) -> None:
    """A lattice of another rank than the model's raises DomainError: the
    box radii and the Gram rows would be zipped with its orders and cut
    short, and the average would be that of another lattice."""
    if len(lattice.orders) != model.rank_d:
        raise DomainError(
            f"a rank-{model.rank_d} model needs {model.rank_d} lattice orders, "
            f"got {len(lattice.orders)}: {lattice.orders}"
        )


def _index_range(n: int, half: float) -> range:
    """Signed indices j, one per class of Z/n, of the representatives j/n
    in [−1/2, 1/2) with |j/n| ≤ half (give or take one index per end).
    The range is symmetric about 0, except that for even n it may start at
    −n/2, whose negative is not in it."""
    top = math.ceil(half * n)
    return range(max(-(n // 2), -top), min((n + 1) // 2, top + 1))


def _axis(n: int, j0: int, j1: int) -> np.ndarray:
    """Representatives j/n of the signed indices j0 ≤ j < j1, ascending.
    Those of j and −j are exact negatives, so λ₀ has the same bits on
    both; for j ≥ 0 they are the fractions a/n, a = j.  Any run of indices
    has the bits of the same entries of a longer run.  The indices are
    counted in float64, exactly (|j| < 2⁵³), which spares the integer
    array and its conversion: the same bits as ``np.arange(j0, j1) / n``."""
    values = np.arange(j0, j1, dtype=float)
    values /= n
    return values


def _box_ranges(lattice: CharacterLattice, halves, cap: int) -> list:
    """(n, index range of :func:`_index_range`) per axis for the lattice
    characters inside the box ∏[−hᵢ, hᵢ].  A box of more than ``cap``
    points raises LatticeSizeError before any allocation."""
    box = [(n, _index_range(n, h)) for n, h in zip(lattice.orders, halves)]
    size = math.prod(len(idx) for _, idx in box)
    if size > cap:
        raise LatticeSizeError(f"lattice box has {size} points, above the cap {cap}")
    return box


def _box_blocks(ranges, axis):
    """The points of the sub-box ∏ ranges, each range (n, j0, j1) the
    indices of :func:`_axis`, in lex order, as open meshes of at most
    _BLOCK points: d coordinate arrays, one block axis each, that broadcast
    to the block.  A block is fixed indices on the axes before k, a slab of
    axis k and the whole axes after k, with k the first axis whose later
    axes hold at most _BLOCK points together.  The fixed and the later axes
    come from ``axis``; axis k comes from ``axis`` where one slab holds it
    whole, and from :func:`_axis`, one slab per block, where it does not.
    No point array is built, and neither is a rank-1 box longer than a
    slab.  At d = 1 a block is its slab."""
    d = len(ranges)
    sizes = [j1 - j0 for _, j0, j1 in ranges]
    k, tail = d - 1, 1
    while k > 0 and tail * sizes[k] <= _BLOCK:
        tail *= sizes[k]
        k -= 1
    slab = _BLOCK // tail
    ndim = d - k
    # a fixed axis as (size, 1, …, 1): its row i is the coordinate of index i
    fixed = [axis(*r).reshape((-1,) + (1,) * ndim) for r in ranges[:k]]
    later = [axis(*r).reshape((1,) * a + (-1,) + (1,) * (ndim - 1 - a))
             for a, r in enumerate(ranges[k + 1 :], 1)]
    n, j0, j1 = ranges[k]
    build = axis if j1 - j0 <= slab else _axis
    for index in itertools.product(*(range(size) for size in sizes[:k])):
        at = [c[i] for c, i in zip(fixed, index)]
        for i in range(j0, j1, slab):
            run = build(n, i, min(i + slab, j1)).reshape((-1,) + (1,) * (ndim - 1))
            yield at + [run] + later


def _half_box(box) -> tuple[list, list]:
    """The box of :func:`_box_ranges` as disjoint sub-boxes, each a list of
    per-axis index ranges (n, j0, j1) of :func:`_axis`, split by the weight
    their points carry: (pair boxes, single boxes).

    The indices of an axis are a symmetric core −m … m, after at most one
    unpaired edge index −n/2.  The core of the box is swept once per ±ω
    pair: for each axis k, the points that are 0 on the axes before k and
    positive on axis k, times the core of the axes after k, each standing
    for itself and its mirror (weight 2); the origin stands for itself
    alone (weight 1).  The edge shell, the points with an unpaired index,
    is swept whole at weight 1, as one sub-box per axis k with an edge:
    the core before k, the edge on k, the full axes after.  Nothing is
    built here, so the leading axis, the longest of a rank-1 box, never
    builds its negative half unless a later axis has an edge.
    """
    tops = [idx.stop - 1 for _, idx in box]
    core = [(n, -m, m + 1) for (n, _), m in zip(box, tops)]
    origin = [(n, 0, 1) for n, _ in box]
    full = [(n, idx.start, idx.stop) for n, idx in box]
    pairs = [
        origin[:k] + [(n, 1, m + 1)] + core[k + 1 :]
        for k, ((n, _), m) in enumerate(zip(box, tops)) if m > 0
    ]
    singles = [
        core[:k] + [(n, idx.start, -tops[k])] + full[k + 1 :]
        for k, (n, idx) in enumerate(box) if idx.start < -tops[k]
    ]
    singles.append(origin)
    return pairs, singles


def enumerate_characters(lattice: CharacterLattice) -> np.ndarray:
    """All lattice characters as centered torus points j/n, lex-ordered.

    Centered representatives keep sublevel sets of λ₀ near 0 away from
    the fundamental-domain boundary; they are those the lattice sweep
    uses.  Lattices above GRID_CAP points raise LatticeSizeError.
    """
    box = _box_ranges(lattice, [0.5] * len(lattice.orders), GRID_CAP)
    return tensor_grid([_axis(n, idx.start, idx.stop) for n, idx in box])


def _elementwise(f, x: np.ndarray):
    """f(x), refused with DomainError unless it has x's shape: a scalar
    or otherwise reshaped result would be counted once per call, not once
    per value."""
    y = f(x)
    if np.shape(y) != x.shape:
        raise DomainError(
            f"f must be elementwise: an argument of shape {x.shape} gave shape {np.shape(y)}"
        )
    return y


def _weighted_total(chunks, f) -> int:
    """Σ weight·Σ f(values) over (weight, values) chunks, exactly, as the
    integer of :func:`_stencils._exact_total`: integer totals add without
    rounding, so its rounding is ``math.fsum`` over the full multiset.
    An f that is not elementwise raises DomainError (:func:`_elementwise`)."""
    return sum(w * _exact_total(_elementwise(f, vals)) for w, vals in chunks)


def _leaves(keep: np.ndarray, coords, bound) -> bool:
    """Whether a kept point of the open mesh ``coords`` has a coordinate
    beyond ``bound`` on its axis: the mask of each axis is built on that
    axis alone, and only an axis with a value beyond it is checked
    against ``keep``."""
    for c, u in zip(coords, bound):
        out = np.abs(c) > u
        if out.any() and np.any(keep & out):
            return True
    return False


def _kept_chunks(model: SpectralModel, lattice: CharacterLattice, epsilon: float):
    """λ₀ ≤ ε over the box around the ellipsoid {q ≤ ε}, q the quadratic
    part, as (weight, values) chunks, one per block that keeps a value:
    each value of weight 2 is λ₀ at a character and at its mirror, each of
    weight 1 at one character.  Every preset adds coeff × a non-negative
    term, so λ₀ ≥ q unless coeff < 0 (whole torus).  A lattice of another
    rank than the model's raises DomainError before anything is built.

    λ₀ is even and the representatives j/n are exact mirrors, so the
    sweep visits one member of each ±ω pair (:func:`_half_box`), all
    pairs before the singles.  Each sub-box is swept in the open-mesh
    blocks of :func:`_box_blocks`, one ``lambda0_mesh`` call each; a range
    that is built whole is built once per sweep.  A block's chunk is its
    values ≤ ε, at most _BLOCK of them in a fresh array (the block's own,
    unmasked, where it keeps them all); a block that keeps none yields
    nothing.  The bits do not depend on the blocking (λ₀ has the same bits
    at a point in any mesh) nor on the host.  A kept point outside the
    working box U raises ModelValidityError from its block, found from
    per-axis masks of the coordinates outside U; U is symmetric, so
    checking the swept member of a pair checks both.
    """
    _check_rank(model, lattice)
    if not 0.0 < epsilon <= model.gap_delta:
        raise DomainError(
            f"epsilon must lie in (0, gap_delta = {model.gap_delta}], got {epsilon}"
        )
    pert = model.perturbation
    reach = epsilon if pert is None or pert.coeff >= 0.0 else math.inf
    radii = np.sqrt(reach * np.diag(np.linalg.inv(model.gram)) / model.quad_coeff)
    box = _box_ranges(lattice, np.minimum(radii * (1.0 + 1e-9), 0.5), GRID_CAP)
    bound = model.domain_u + 1e-12
    # where every axis lies in U, no kept point can leave it
    inside_u = all(max(-idx.start, idx.stop - 1) / n <= u for (n, idx), u in zip(box, bound))
    axis = functools.cache(_axis)
    for weight, boxes in zip((2, 1), _half_box(box)):
        for ranges in boxes:
            for coords in _box_blocks(ranges, axis):
                lam = model.lambda0_mesh(coords)
                keep = lam <= epsilon
                kept = np.count_nonzero(keep)
                if not kept:
                    continue
                if not inside_u and _leaves(keep, coords, bound):
                    raise ModelValidityError(
                        "epsilon sublevel set leaves the working box U; the branch "
                        "model does not control those characters"
                    )
                yield weight, lam.reshape(-1) if kept == lam.size else lam[keep]


def spectral_average(
    model: SpectralModel,
    lattice: CharacterLattice,
    f,
    epsilon: float,
) -> float:
    """(1/∏Nᵢ) Σ_{λ₀(ω) ≤ ε} f(λ₀(ω)) over the character lattice.

    ``f`` must be elementwise on arrays of branch values (same shape in,
    same shape out; DomainError otherwise) and supported in [0, ε); ε may
    not exceed the branch gap, above which unmodeled eigenvalue branches
    would contribute.  The sweep streams: f is called
    on the kept values of each block, at most _BLOCK of them in an array
    it may keep, each value once per ±ω pair, and each call's sum is added
    exactly into one integer total, rounded once before the division.  The
    result is ``math.fsum`` over every character's value, divided by ∏Nᵢ,
    in whatever order the values arrive.  A non-finite value of ``f``, or a sum that overflows float64,
    raises DomainError.
    """
    total = _weighted_total(_kept_chunks(model, lattice, epsilon), f)
    return _round_total(total) / lattice.size


# ---------------------------------------------------------------------------
# limiting density
# ---------------------------------------------------------------------------


@dataclass
class DensityTable:
    density: np.ndarray        # full pushforward density rho(x)
    zeta_tilde: np.ndarray     # rho(x) / x^(d/2 - 1)
    exponent: float            # d/2 - 1


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _radial_density(c: float, d: int, vd: float, root_det: float, x) -> np.ndarray:
    """ρ(x) for λ₀ = φ(q) = q + c·q²: the sublevel set {q ≤ q*} with
    φ(q*) = x is an ellipsoid of volume q*^(d/2)·V_d/√det M, differentiated
    in x.  Its smaller root is q* = 2x/(1 + √(1 + 4cx)), where
    φ′(q*) = √(1 + 4cx); a level with 1 + 4cx ≤ 0 lies above the top of
    φ and raises DomainError."""
    disc = 1.0 + 4.0 * c * x
    if np.any(disc <= 0.0):
        raise DomainError("the radial profile cannot reach the requested level")
    slope = np.sqrt(disc)
    qstar = 2.0 * x / (1.0 + slope)
    with np.errstate(divide="ignore"):
        rho = (d / 2.0) * qstar ** (d / 2.0 - 1.0) * vd / root_det / slope
    at_zero = math.inf if d == 1 else (vd / root_det if d == 2 else 0.0)
    return np.where(x == 0.0, at_zero, rho)


def _face_density(model: SpectralModel, x: np.ndarray) -> np.ndarray:
    """ρ(x) = ∏uᵢ·Σ_faces ∫ s*^(d−2)/(2√(Q² + 4Cx)) dp over the faces of the
    cone rule's pyramids, on the face rule :func:`laplace._face_count`
    accepts for Q(ω) = quad_coeff·ωᵀGω at _QUAD_REL_TOL.

    Along the ray s·w, w = u ⊙ p, a perturbed model has λ₀ = Q(w)·s² + C(w)·s⁴
    (Q the quadratic part, C the quartic preset), so the level x is met at
    s*² = 2x/(Q + √(Q² + 4Cx)), where ∂λ₀/∂s = 2s*·√(Q² + 4Cx), and the
    coarea formula over dξ = ∏uᵢ·s^(d−1) ds dp gives ρ.  As x → 0 the face
    sum tends to (∏uᵢ/2)·Σ_faces ∫ Q^(−d/2) dp, half the identity's left
    side, so the identity the helper checks is this density's x → 0 limit.
    λ₀ ≤ x at a face node (the level set reaches the box, or its ray turns
    back below x) raises DomainError.  Levels go in blocks of at most _BLOCK
    (level, face point) pairs, or one level.  The 2d faces share the cone
    rule's cap GRID_CAP // (2d): where 24 points per axis exceed it,
    LatticeSizeError is raised before allocation, and where no count that
    fits meets the identity, QuadratureError.
    """
    d = model.rank_d
    cap = GRID_CAP // (2 * d) // (2 * d)
    _, _, (w, wts, quad) = _face_count(model.quad_coeff, model.gram, model.domain_u, cap,
                                       _QUAD_REL_TOL, 0)
    w, wts, quad = w.reshape(-1, d), np.tile(wts, 2 * d), quad.reshape(-1)
    quartic = model.perturbation(_stencils.columns(w), quad)
    if x.size and np.max(x) >= np.min(quad + quartic):
        raise DomainError("level set touches the working box; reduce epsilon")
    rho = np.empty_like(x)
    step = max(1, _BLOCK // quad.size)
    for k in range(0, x.size, step):
        level = x[k : k + step, None]
        root = np.sqrt(quad * quad + 4.0 * quartic * level)
        s2 = 2.0 * level / (quad + root)
        rho[k : k + step] = np.sum(wts * s2 ** (0.5 * (d - 2)) / (2.0 * root), axis=1)
    return rho


def limit_density(
    model: SpectralModel, epsilon: float, grid: np.ndarray
) -> DensityTable:
    """Pushforward density of torus Lebesgue measure under λ₀ on [0, ε].

    Models with a :meth:`SpectralModel.radial_profile` (pure quadratic,
    radial quartic, rank-1 quartic) reduce exactly to one dimension,
    λ₀ = q + c·q² (:func:`_radial_density`).  Every other model, in every
    rank, integrates over the faces of the cone rule's pyramids
    (:func:`_face_density`), on the face rule whose x → 0 limit
    :func:`laplace._face_count` checks.  Both are closed forms along each
    ray: every level set is a quadratic in r², so no root is solved.  The
    x^(d/2−1) factor is split off into ``zeta_tilde``, which stays bounded
    near 0.  A grid level outside [0, ε], NaN included, raises DomainError.
    """
    if not 0.0 < epsilon <= model.gap_delta:
        raise DomainError("epsilon must lie in (0, gap_delta]")
    grid = np.asarray(grid, dtype=float)
    if not np.all((0.0 <= grid) & (grid <= epsilon)):
        raise DomainError("density grid must lie inside [0, epsilon]")
    d = model.rank_d
    c = model.radial_profile()
    expo = d / 2.0 - 1.0
    vd = _unit_ball_volume(d)
    root_det = math.sqrt(float(np.linalg.det(model.quad_coeff * model.gram)))
    # small-x limit from the Hessian: (d/2) V_d / sqrt(det M)
    zeta0 = (d / 2.0) * vd / root_det
    if c is not None:
        rho = _radial_density(c, d, vd, root_det, grid)
    else:
        rho = _face_density(model, grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(grid > 0.0, grid, 1.0)
        zt = np.where(grid > 0.0, rho * safe ** (-expo), np.nan)
    if grid.size and grid[0] == 0.0:
        zt[0] = zeta0
    return DensityTable(density=rho, zeta_tilde=zt, exponent=expo)


def limit_integral(model: SpectralModel, f, epsilon: float) -> float:
    """∫₀^ε f(x) ρ(x) dx via the substitution x = s² (regular integrand),
    by 200-point Gauss–Legendre in s.  ``f`` must be elementwise, as for
    :func:`spectral_average`: called once on the array of 200 nodes, it
    must return an array of that shape (DomainError otherwise)."""
    s, w = gauss_legendre(0.0, math.sqrt(epsilon), 200)
    x = s * s
    table = limit_density(model, epsilon, x)
    vals = np.asarray(_elementwise(f, x), dtype=float) * table.density * 2.0 * s
    return float(np.dot(w, vals))


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    min_n: int
    empirical: float
    abs_err: float


@dataclass
class ConvergenceReport:
    rows: list = field(default_factory=list)
    fitted_exponent: float = float("nan")
    limit_value: float = float("nan")


def convergence_study(
    model: SpectralModel,
    f,
    epsilon: float,
    order_sequence,
) -> ConvergenceReport:
    """Empirical-vs-limit errors along a sequence of growing lattices.

    The fitted decay exponent of |error| against min Nᵢ is reported, not
    asserted; zero errors are excluded from the fit.  Every lattice is
    checked (integer orders of the model's rank) before anything is
    computed.
    """
    lattices = [CharacterLattice(entry) for entry in order_sequence]
    for lattice in lattices:
        _check_rank(model, lattice)
    mins = [min(lattice.orders) for lattice in lattices]
    if any(b <= a for a, b in zip(mins, mins[1:])):
        raise DomainError("order sequence must strictly increase in min N")
    limit = limit_integral(model, f, epsilon)
    report = ConvergenceReport(limit_value=limit)
    for lattice, mn in zip(lattices, mins):
        emp = spectral_average(model, lattice, f, epsilon)
        report.rows.append(
            ConvergenceRow(min_n=mn, empirical=emp, abs_err=abs(emp - limit))
        )
    errs = np.array([r.abs_err for r in report.rows])
    ns = np.array([r.min_n for r in report.rows], dtype=float)
    good = errs > 0.0
    if np.count_nonzero(good) >= 2:
        report.fitted_exponent = float(
            -np.polyfit(np.log(ns[good]), np.log(errs[good]), 1)[0]
        )
    return report


# -- CLI test functions -------------------------------------------------------


def make_test_function(name: str, epsilon: float):
    """Named test functions supported on [0, ε)."""
    if name == "one":
        return lambda x: np.ones_like(np.asarray(x, dtype=float))
    if name == "linear":
        return lambda x: np.maximum(epsilon - np.asarray(x, dtype=float), 0.0)
    if name == "bump":

        def bump(x):
            x = np.asarray(x, dtype=float)
            inside = x < epsilon
            out = np.zeros_like(x)
            with np.errstate(divide="ignore", over="ignore"):
                out[inside] = np.exp(1.0 - epsilon / (epsilon - x[inside]))
            return out

        return bump
    raise DomainError(f"unknown test function {name!r}")
