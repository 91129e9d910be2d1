"""Spectral measures of the eigenvalue branch over finite character lattices.

A finite Abelian cover with cyclic orders (N₁, …, N_d) contributes the
rational character lattice (1/N₁)Z/Z × ⋯ × (1/N_d)Z/Z.  Averages of a
test function over the branch values λ₀(ω) at those points converge, as
min Nᵢ → ∞, to ∫ f(x) ρ(x) dx against the pushforward density of
Lebesgue measure under λ₀, which factors as ρ(x) = x^(d/2−1)·ζ̃(x) with
ζ̃ bounded near 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._parallel import parallel_map
from ._stencils import (
    GRID_CAP,
    bracketed_roots,
    fornberg_weights,
    gauss_legendre,
    monotone_inverse,
    tensor_grid,
)
from .errors import DomainError, ModelValidityError
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


def _centered_axis(n: int) -> np.ndarray:
    """Representatives a/n shifted into [−1/2, 1/2), sorted ascending."""
    vals = np.arange(n, dtype=float) / n
    vals[vals >= 0.5] -= 1.0
    return np.sort(vals)


def enumerate_characters(lattice: CharacterLattice, cap: int = GRID_CAP) -> np.ndarray:
    """All lattice characters as centered torus points, lex-ordered.

    Centered representatives keep sublevel sets of λ₀ near 0 away from
    the fundamental-domain boundary.  Lattices above ``cap`` points raise
    LatticeSizeError.
    """
    return tensor_grid([_centered_axis(n) for n in lattice.orders], cap)


@dataclass
class SpectralHistogram:
    epsilon: float
    values: np.ndarray         # branch values <= epsilon, sorted
    weight: float              # 1/|lattice|
    count: int
    mass: float
    moments: tuple             # (first, second) weighted moments


def build_histogram(
    model: SpectralModel, lattice: CharacterLattice, epsilon: float
) -> SpectralHistogram:
    lam = _branch_values(model, lattice, epsilon)
    w = 1.0 / lattice.size
    vals = np.sort(lam)
    return SpectralHistogram(
        epsilon=epsilon,
        values=vals,
        weight=w,
        count=vals.size,
        mass=vals.size * w,
        moments=(float(vals.sum() * w), float((vals**2).sum() * w)),
    )


def _branch_values(
    model: SpectralModel, lattice: CharacterLattice, epsilon: float
) -> np.ndarray:
    """λ₀ at all lattice points with λ₀ ≤ ε, evaluated in fixed blocks."""
    if not 0.0 < epsilon <= model.gap_delta:
        raise DomainError(
            f"epsilon must lie in (0, gap_delta = {model.gap_delta}], got {epsilon}"
        )
    pts = enumerate_characters(lattice)
    blocks = [pts[i : i + _BLOCK] for i in range(0, pts.shape[0], _BLOCK)]

    def work(block):
        lam = model.lambda0_batch(block)
        keep = lam <= epsilon
        return lam[keep], block[keep]

    kept_lam, kept_pts = [], []
    for lam, p in parallel_map(work, blocks):
        kept_lam.append(lam)
        kept_pts.append(p)
    lam = np.concatenate(kept_lam) if kept_lam else np.empty(0)
    sel = np.concatenate(kept_pts) if kept_pts else np.empty((0, model.rank_d))
    if sel.size and np.any(np.abs(sel) > model.domain_u + 1e-12):
        raise ModelValidityError(
            "epsilon sublevel set leaves the working box U; the branch model "
            "does not control those characters"
        )
    return lam


def spectral_average(
    model: SpectralModel,
    lattice: CharacterLattice,
    f,
    epsilon: float,
) -> float:
    """(1/∏Nᵢ) Σ_{λ₀(ω) ≤ ε} f(λ₀(ω)) over the character lattice.

    ``f`` must be vectorized on arrays of branch values and supported in
    [0, ε); ε may not exceed the branch gap, above which unmodeled
    eigenvalue branches would contribute.
    """
    lam = _branch_values(model, lattice, epsilon)
    if lam.size == 0:
        return 0.0
    vals = np.asarray(f(lam), dtype=float)
    # fsum is exactly rounded, so the sum does not depend on the order or
    # the blocking in which the kept values arrive.
    return math.fsum(vals.tolist()) / lattice.size


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
    by 64-point Gauss–Legendre in the angle; all len(x) × 64 radii are found
    in one batch of bisection steps, and ∂λ₀/∂r comes from one 5-point
    stencil evaluation."""
    phis, wts = gauss_legendre(0.0, 2.0 * math.pi, 64)
    directions = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    rmax = float(np.min(model.domain_u))
    level = np.asarray(x, float)[:, None]

    def lam_r(r):
        return model.lambda0_batch(r[..., None] * directions)

    if np.any(lam_r(np.full(phis.shape, rmax)) <= level):
        raise DomainError("level set touches the working box; reduce epsilon")
    r_root = bracketed_roots(
        lambda r: lam_r(r) - level, 0.0, np.full((level.size, phis.size), rmax),
        xtol=1e-15, rtol=8.9e-16,
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
    radial quartic, rank-1 quartic) reduce exactly to one dimension; other
    2-d models integrate over level curves numerically.
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
