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

import math
from dataclasses import dataclass, field

import numpy as np

from ._stencils import (
    GRID_CAP,
    _exact_total,
    _newton_roots,
    _round_total,
    fornberg_weights,
    gauss_legendre,
    monotone_inverse,
    tensor_grid,
)
from .errors import DomainError, LatticeSizeError, ModelValidityError
from .spectral_model import SpectralModel

_BLOCK = 8192


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
        orders = tuple(int(n) for n in self.orders)
        object.__setattr__(self, "orders", orders)
        if not orders or any(n <= 0 for n in orders):
            raise DomainError(f"lattice orders must be positive, got {orders}")

    @property
    def size(self) -> int:
        return math.prod(self.orders)


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
    has the bits of the same entries of a longer run."""
    return np.arange(j0, j1) / n


def _box_ranges(lattice: CharacterLattice, halves, cap: int) -> list:
    """(n, index range of :func:`_index_range`) per axis for the lattice
    characters inside the box ∏[−hᵢ, hᵢ].  A box of more than ``cap``
    points raises LatticeSizeError before any allocation."""
    box = [(n, _index_range(n, h)) for n, h in zip(lattice.orders, halves)]
    size = math.prod(len(idx) for _, idx in box)
    if size > cap:
        raise LatticeSizeError(f"lattice box has {size} points, above the cap {cap}")
    return box


def _box_blocks(axes):
    """The points of the box ∏ axes in lex order, as (B, d) blocks of at
    most _BLOCK points: a slab of the leading axis times the tensor of the
    other axes, or times a run of that tensor's rows where it alone holds
    more than _BLOCK points.  The box itself is never built."""
    lead = axes[0]
    rest = tensor_grid(axes[1:]) if len(axes) > 1 else np.empty((1, 0))
    step = min(len(rest), _BLOCK)
    slab = _BLOCK // step
    for i in range(0, lead.size, slab):
        heads = lead[i : i + slab]
        for r in range(0, len(rest), step):
            rows = rest[r : r + step]
            block = np.empty((heads.size * len(rows), len(axes)))
            block[:, 0] = np.repeat(heads, len(rows))
            block[:, 1:] = np.tile(rows, (heads.size, 1))
            yield block


def _half_box(box) -> tuple[list, list]:
    """The box of :func:`_box_ranges` as disjoint sub-boxes (lists of
    axes), split by the weight their points carry: (pair boxes, single
    boxes).

    The indices of an axis are a symmetric core −m … m, after at most one
    unpaired edge index −n/2.  The core of the box is swept once per ±ω
    pair: for each axis k, the points that are 0 on the axes before k and
    positive on axis k, times the core of the axes after k, each standing
    for itself and its mirror (weight 2); the origin stands for itself
    alone (weight 1).  The edge shell, the points with an unpaired index,
    is swept whole at weight 1, as one sub-box per axis k with an edge:
    the core before k, the edge on k, the full axes after.  Only these
    pieces are built, each by :func:`_axis`, so the leading axis, the
    longest of a rank-1 box, never builds its negative half unless a
    later axis has an edge.
    """
    tops = [idx.stop - 1 for _, idx in box]
    edged = [k for k, (_, idx) in enumerate(box) if idx.start < -tops[k]]
    # the pairs of earlier axes read the core of every later axis; the
    # leading axis's core is read only by the edge sub-boxes of later axes
    lead_core = any(k > 0 for k in edged)
    cores = [
        _axis(n, -m, m + 1) if k > 0 or lead_core else None
        for k, ((n, _), m) in enumerate(zip(box, tops))
    ]
    origin = [_axis(n, 0, 1) for n, _ in box]
    pairs = [
        origin[:k] + [_axis(n, 1, m + 1)] + cores[k + 1 :]
        for k, ((n, _), m) in enumerate(zip(box, tops)) if m > 0
    ]
    singles = [
        cores[:k] + [_axis(box[k][0], box[k][1].start, -tops[k])]
        + [_axis(n, idx.start, idx.stop) for n, idx in box[k + 1 :]]
        for k in edged
    ]
    singles.append(origin)
    return pairs, singles


def enumerate_characters(lattice: CharacterLattice, cap: int = GRID_CAP) -> np.ndarray:
    """All lattice characters as centered torus points j/n, lex-ordered.

    Centered representatives keep sublevel sets of λ₀ near 0 away from
    the fundamental-domain boundary; they are those the lattice sweep
    uses.  Lattices above ``cap`` points raise LatticeSizeError.
    """
    box = _box_ranges(lattice, [0.5] * len(lattice.orders), cap)
    return tensor_grid([_axis(n, idx.start, idx.stop) for n, idx in box], cap)


@dataclass
class SpectralHistogram:
    epsilon: float
    values: np.ndarray         # branch values <= epsilon, sorted
    weight: float              # 1/|lattice|
    count: int
    mass: float
    moments: tuple             # (first, second) weighted moments


def _multiset_sum(pairs: np.ndarray, singles: np.ndarray) -> float:
    """The exactly rounded sum of the full multiset, each value of
    ``pairs`` counted twice and each of ``singles`` once, through the
    exact integer totals of :func:`exact_sum`: bit for bit ``math.fsum``
    over the full sweep, with no doubled copy built."""
    return _round_total(2 * _exact_total(pairs) + _exact_total(singles))


def build_histogram(
    model: SpectralModel, lattice: CharacterLattice, epsilon: float
) -> SpectralHistogram:
    """The kept branch values of every character, sorted (each ±ω pair
    twice), with moments that are exactly rounded sums divided by ∏Nᵢ, as
    in :func:`spectral_average`."""
    pairs, singles = _branch_values(model, lattice, epsilon)
    w = 1.0 / lattice.size
    vals = np.sort(np.concatenate([pairs, pairs, singles]))
    return SpectralHistogram(
        epsilon=epsilon,
        values=vals,
        weight=w,
        count=vals.size,
        mass=vals.size * w,
        moments=tuple(
            _multiset_sum(pairs**k, singles**k) / lattice.size for k in (1, 2)
        ),
    )


def _branch_values(
    model: SpectralModel, lattice: CharacterLattice, epsilon: float
) -> tuple[np.ndarray, np.ndarray]:
    """λ₀ ≤ ε over the box around the ellipsoid {q ≤ ε}, q the quadratic
    part, as (pairs, singles): each value of ``pairs`` is λ₀ at a character
    and at its mirror, each of ``singles`` at one character.  Every
    preset adds coeff × a non-negative term, so λ₀ ≥ q unless coeff < 0
    (whole torus).

    λ₀ is even and the representatives j/n are exact mirrors, so the
    sweep visits one member of each ±ω pair (:func:`_half_box`).  Each
    sub-box is swept in (B, d) blocks of :func:`_box_blocks`, one
    ``lambda0_batch`` call each, and only the values ≤ ε are kept, written
    once into a buffer per weight whose unkept tail is never touched.  The
    bits do not depend on the blocking (λ₀ is evaluated point by point)
    nor on the host.  A kept point outside the working box U raises
    ModelValidityError; U is symmetric, so checking the swept member of a
    pair checks both.
    """
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

    def sweep(boxes):
        kept = np.empty(sum(math.prod(a.size for a in box) for box in boxes))
        count = 0
        for box in boxes:
            for pts in _box_blocks(box):
                lam = model.lambda0_batch(pts)
                keep = lam <= epsilon
                if not inside_u and np.any(np.abs(pts[keep]) > bound):
                    raise ModelValidityError(
                        "epsilon sublevel set leaves the working box U; the branch "
                        "model does not control those characters"
                    )
                vals = lam[keep]
                kept[count : count + vals.size] = vals
                count += vals.size
        return kept[:count]

    pairs, singles = _half_box(box)
    return sweep(pairs), sweep(singles)


def spectral_average(
    model: SpectralModel,
    lattice: CharacterLattice,
    f,
    epsilon: float,
) -> float:
    """(1/∏Nᵢ) Σ_{λ₀(ω) ≤ ε} f(λ₀(ω)) over the character lattice.

    ``f`` must be vectorized on arrays of branch values and supported in
    [0, ε); ε may not exceed the branch gap, above which unmodeled
    eigenvalue branches would contribute.  f is evaluated once per ±ω
    pair, and the sum over the full multiset is exactly rounded before
    the division, so the result is ``math.fsum`` over every character's
    value, divided by ∏Nᵢ, in whatever order the values arrive.  A
    non-finite value of ``f``, or a sum that overflows float64, raises
    DomainError.
    """
    pairs, singles = _branch_values(model, lattice, epsilon)
    return _multiset_sum(f(pairs), f(singles)) / lattice.size


# ---------------------------------------------------------------------------
# limiting density
# ---------------------------------------------------------------------------


@dataclass
class DensityTable:
    x: np.ndarray
    density: np.ndarray        # full pushforward density rho(x)
    zeta_tilde: np.ndarray     # rho(x) / x^(d/2 - 1)
    exponent: float            # d/2 - 1
    epsilon: float


def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


def _radial_density(profile, d: int, vd: float, root_det: float, x) -> np.ndarray:
    """ρ(x) for λ₀ = φ(q): the sublevel set {q ≤ q*} with φ(q*) = x is an
    ellipsoid of volume q*^(d/2)·V_d/√det M, differentiated in x."""
    phi, phi_p = profile
    qstar = monotone_inverse(phi, x, xtol=1e-16, rtol=8.9e-16)
    with np.errstate(divide="ignore"):
        rho = (d / 2.0) * qstar ** (d / 2.0 - 1.0) * vd / root_det / phi_p(qstar)
    at_zero = math.inf if d == 1 else (vd / root_det if d == 2 else 0.0)
    return np.where(x == 0.0, at_zero, rho)


def _angular_density_2d(model: SpectralModel, x: np.ndarray) -> np.ndarray:
    """ρ(x) = ∫ r·(∂λ₀/∂r)⁻¹ dφ on the level curves of general 2-d models,
    by 64-point Gauss–Legendre in the angle.  All len(x) × 64 radii are
    solved in one batch by safeguarded Newton (``_stencils._newton_roots``)
    on [0, min U], started from the quadratic guess √(x/Q(e)) of each unit
    direction e: each root is certified within 1e-15 + 8.9e-16·r of a sign
    change of λ₀(r·e) − x, and bisection takes any that is not.
    ∂λ₀/∂r comes from one 5-point stencil evaluation."""
    phis, wts = gauss_legendre(0.0, 2.0 * math.pi, 64)
    directions = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    rmax = float(np.min(model.domain_u))
    level = np.asarray(x, float)[:, None]

    def lam_r(r):
        # the points r·e, stored coordinate first, so λ₀ reads each
        # coordinate as one contiguous array
        pts = np.empty((2,) + r.shape)
        np.multiply(r, directions.T.reshape((2,) + (1,) * (r.ndim - 1) + phis.shape), out=pts)
        return model.lambda0_batch(np.moveaxis(pts, 0, -1))

    if np.any(lam_r(np.full(phis.shape, rmax)) <= level):
        raise DomainError("level set touches the working box; reduce epsilon")
    r_root = _newton_roots(
        lambda r: lam_r(r) - level, np.sqrt(level / model.quadratic_part(directions)),
        0.0, rmax, xtol=1e-15, rtol=8.9e-16,
    )
    # ∂λ₀/∂r by the 5-point stencil at step 1e-3·r (every level, so r, is > 0)
    offsets, step = np.arange(-2.0, 3.0), 1e-3 * r_root
    on_nodes = lam_r(r_root + step * offsets[:, None, None])
    dlam = np.tensordot(fornberg_weights(offsets, 0.0, 1)[:, 1], on_nodes, axes=1) / step
    return (wts * r_root / dlam).sum(axis=1)


def limit_density(
    model: SpectralModel, epsilon: float, grid: np.ndarray
) -> DensityTable:
    """Pushforward density of torus Lebesgue measure under λ₀ on [0, ε].

    Models with a :meth:`SpectralModel.radial_profile` (pure quadratic,
    radial quartic, rank-1 quartic) reduce exactly to one dimension, whose
    inverse is bisected.  Other 2-d models integrate over level curves
    whose radii are solved by certified safeguarded Newton, with bisection
    for any radius that fails its certificate (:func:`_angular_density_2d`).
    The x^(d/2−1) factor is split off into ``zeta_tilde``, which stays
    bounded near 0.
    """
    if not 0.0 < epsilon <= model.gap_delta:
        raise DomainError("epsilon must lie in (0, gap_delta]")
    grid = np.asarray(grid, dtype=float)
    if np.any(grid < 0.0) or np.any(grid > epsilon):
        raise DomainError("density grid must lie inside [0, epsilon]")
    d = model.rank_d
    profile = model.radial_profile()
    if profile is None and d != 2:
        raise DomainError("general non-radial models are supported only in dimension 2")
    expo = d / 2.0 - 1.0
    vd = _unit_ball_volume(d)
    root_det = math.sqrt(float(np.linalg.det(model.quad_coeff * model.gram)))
    if profile is not None:
        rho = _radial_density(profile, d, vd, root_det, grid)
    else:
        rho = _angular_density_2d(model, np.where(grid > 0.0, grid, 1e-12 * epsilon))
    with np.errstate(divide="ignore", invalid="ignore"):
        safe = np.where(grid > 0.0, grid, 1.0)
        zt = np.where(grid > 0.0, rho * safe ** (-expo), np.nan)
    if grid.size and grid[0] == 0.0:
        # small-x limit from the Hessian: (d/2) V_d / sqrt(det M)
        zt[0] = (d / 2.0) * vd / root_det
    return DensityTable(
        x=grid, density=rho, zeta_tilde=zt, exponent=expo, epsilon=epsilon
    )


def limit_integral(model: SpectralModel, f, epsilon: float) -> float:
    """∫₀^ε f(x) ρ(x) dx via the substitution x = s² (regular integrand),
    by 200-point Gauss–Legendre in s."""
    s, w = gauss_legendre(0.0, math.sqrt(epsilon), 200)
    x = s * s
    table = limit_density(model, epsilon, x)
    vals = np.asarray(f(x), dtype=float) * table.density * 2.0 * s
    return float(np.dot(w, vals))


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    min_n: int
    empirical: float
    limit: float
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
    asserted; zero errors are excluded from the fit.
    """
    seq = [tuple(int(n) for n in entry) for entry in order_sequence]
    mins = [min(entry) for entry in seq]
    if any(b <= a for a, b in zip(mins, mins[1:])):
        raise DomainError("order sequence must strictly increase in min N")
    limit = limit_integral(model, f, epsilon)
    report = ConvergenceReport(limit_value=limit)
    for orders, mn in zip(seq, mins):
        emp = spectral_average(model, CharacterLattice(orders), f, epsilon)
        report.rows.append(
            ConvergenceRow(
                min_n=mn, empirical=emp, limit=limit, abs_err=abs(emp - limit)
            )
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
