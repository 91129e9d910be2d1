"""Correlation-coefficient ODE pipeline.

A mode pair (n, m) of even integers and an eigenvalue λ ∈ [0, 1/4) define,
for y(t) a model correlation coefficient, the integro-differential master
relation

    y'(t) = (t³ + 4t)⁻¹ ∫₀ᵗ h(s) ds,
    h(s)  = −4λ s y(s) + 2i(m+n) s y'(s) + i(m+n) y(s) + (m−n)² y(s)/s,

whose differentiated form is the Euler equation

    t² y'' + 3t y' + 4λ y = f(t),
    f(t)  = −4y'' − 4y'/t + 2i(m+n) y' + i(m+n) y/t + (m−n)² y/t².

The forcing f decays like 1/t, and solutions that stay bounded at t = 0
behave like A·t^(ν−1) with ν = √(1−4λ).  This module solves the master
relation, assembles and audits f, verifies the Euler identity with local
stencils, evaluates the variation-of-parameters formula, and extracts the
tail amplitude with truncation bounds from an audited decay envelope.
The tail integrals take sampled forcing only, integrated by one rule,
:func:`power_weighted_integral`; a callable forcing serves the Euler
residual alone.

Singular-term handling: for m ≠ n the master integrand carries y(s)/s, so
an exact solution needs y(0) = 0; we integrate the regularized term
(m−n)²·(y(s) − y(0))/s, which coincides with the original whenever the
data is consistent, and treat nonzero y(0) as a synthetic extension.  The
indicial structure makes k₀ = |m−n|/2 a free Taylor mode at 0; its
amplitude is a solver argument.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._stencils import fornberg_weights
from .errors import ConsistencyError, DomainError, TruncationError
from .spectral_model import lambda_of_nu, nu_of_lambda

_SERIES_T = 0.5          # series radius actually used (convergence radius is 2)
# farthest first node past 0 the series may reach: its 40-term tail is about
# (t/2)^40, at most 2^-40 ≈ 9.1e-13 here (and 0.13 at t = 1.9)
_SERIES_T_MAX = 1.0
_SERIES_TERMS = 40
_CONSISTENCY_TOL = 1e-6  # master residual above which a trajectory is rejected
# grids whose stencil plans stay cached: ode-tail cycles three master grids,
# and an ode or selftest run reuses its one grid across calls
_PLAN_CACHE = 8


@dataclass(frozen=True)
class ModePair:
    n: int
    m: int

    def __post_init__(self):
        if self.n % 2 or self.m % 2:
            raise DomainError(f"mode integers must be even, got {(self.n, self.m)}")

    @property
    def mu(self) -> int:
        return self.n + self.m

    @property
    def dsq(self) -> int:
        return (self.m - self.n) ** 2

    @property
    def resonant_k(self) -> int:
        """Index of the free Taylor coefficient at 0 (0 when m == n)."""
        return abs(self.m - self.n) // 2


@dataclass
class TrajectoryMeta:
    lam: float
    nu: float
    mode: ModePair
    y0: complex
    startup: str = "series"
    inconsistency: float = 0.0
    master_residual: float = float("nan")


@dataclass
class Trajectory:
    grid: np.ndarray
    y: np.ndarray
    y_prime: np.ndarray
    meta: TrajectoryMeta

    def __post_init__(self):
        if np.any(np.diff(self.grid) <= 0):
            raise DomainError("trajectory grid must be strictly increasing")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.y_prime))):
            raise DomainError("trajectory samples must be finite")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def master_grid(t_max: float, steps_per_decade: int = 400) -> np.ndarray:
    """Composite grid: step 1e-3 on [0, 1], uniform in log t on [1, t_max].
    t_max must be finite and exceed 1, and steps_per_decade as
    :func:`log_grid` needs (DomainError otherwise, before anything is
    built)."""
    if t_max <= 1.0:
        raise DomainError("t_max must exceed 1")
    tail = log_grid(1.0, t_max, steps_per_decade)
    return np.concatenate([np.linspace(0.0, 1.0, 1001), tail[1:]])


def log_grid(t_min: float, t_max: float, steps_per_decade: int = 400) -> np.ndarray:
    """Geometric grid from t_min to t_max, about steps_per_decade steps per
    decade and at least 2 steps; needs finite 0 < t_min < t_max and a
    finite steps_per_decade ≥ 1 (DomainError otherwise)."""
    if not (math.isfinite(t_min) and math.isfinite(t_max) and 0.0 < t_min < t_max):
        raise DomainError(f"log grid needs finite 0 < t_min < t_max, got {t_min}, {t_max}")
    if not (math.isfinite(steps_per_decade) and steps_per_decade >= 1):
        raise DomainError(
            f"log grid needs a finite step count per decade of at least 1, got {steps_per_decade}"
        )
    decades = math.log10(t_max / t_min)
    n = max(2, round(decades * steps_per_decade))
    return np.logspace(math.log10(t_min), math.log10(t_max), n + 1)


# ---------------------------------------------------------------------------
# Taylor startup
# ---------------------------------------------------------------------------


def taylor_coefficients(
    mode: ModePair,
    lam: float,
    y0: complex,
    resonant_amplitude: complex,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Startup expansion y = Σ a_k t^k + log t · Σ b_k t^k at the origin.

    Matching powers in the master relation gives, with D = (m−n)² and
    μ = m+n,

        a_k (4k² − D) = R_k(a) + (coupling to b),
        b_k (4k² − D) = R_k(b),
        R_k(c) = −c_{k−2} [k(k−2) + 4λ] + iμ(2k−1) c_{k−1}.

    For D ≠ 0 the index k₀ = |m−n|/2 is resonant: a_{k₀} is free and set
    to ``resonant_amplitude``, while the log channel is switched on with
    b_{k₀} = R_{k₀}(a)/(8k₀), the unique value closing the plain-power
    equation at k₀.  Consistent data has R_{k₀}(a) = 0, so b ≡ 0 and the
    expansion is an honest power series.  Returns (a, b, |R_{k₀}(a)|).
    """
    mu, dsq = float(mode.mu), float(mode.dsq)
    k0 = mode.resonant_k
    a = np.zeros(_SERIES_TERMS, dtype=complex)
    b = np.zeros(_SERIES_TERMS, dtype=complex)
    a[0] = y0
    defect = 0.0

    def r_of(c, k):
        rhs = 1j * mu * (2 * k - 1) * c[k - 1]
        if k >= 2:
            rhs -= c[k - 2] * (k * (k - 2) + 4.0 * lam)
        return rhs

    for k in range(1, _SERIES_TERMS):
        denom = 4.0 * k * k - dsq
        if dsq > 0 and k == k0:
            rhs = r_of(a, k)
            defect = abs(rhs)
            b[k] = rhs / (8.0 * k0)
            a[k] = resonant_amplitude
            continue
        b[k] = r_of(b, k) / denom
        rhs = r_of(a, k) - 4.0 * k * b[k] + 2j * mu * b[k - 1]
        if k >= 2:
            rhs -= k * b[k - 2]
        correction = -1j * mu * (2 * k - 1) * b[k - 1] - dsq * b[k]
        if k >= 2:
            correction += 4.0 * lam * b[k - 2]
        a[k] = (rhs + correction / k) / denom
    return a, b, defect


def _series_eval(a: np.ndarray, b: np.ndarray, t: np.ndarray):
    """(y, y', I) from the startup expansion; I = (t³+4t) y'."""
    t = np.asarray(t, dtype=float)
    ks = np.arange(a.size)
    powers = t[..., None] ** ks
    dpow = np.zeros_like(powers)
    dpow[..., 1:] = powers[..., :-1] * ks[1:]
    y = powers @ a
    yp = dpow @ a
    if np.any(b):
        logt = np.where(t > 0.0, np.log(np.where(t > 0.0, t, 1.0)), 0.0)
        sb = powers @ b
        sbp = dpow @ b
        y = y + logt * sb
        # S_b starts at t^{k0} with k0 >= 1, so S_b/t is finite at 0
        sb_over_t = (powers[..., :-1] @ b[1:]) if a.size > 1 else 0.0
        yp = yp + logt * sbp + sb_over_t
    integral = (t**3 + 4.0 * t) * yp
    return y, yp, integral


# ---------------------------------------------------------------------------
# master-equation solver
# ---------------------------------------------------------------------------


def _master_integrand(t, y, yp, lam, mu, dsq, y0):
    """h(t) = −4λ t y + 2iμ t y' + iμ y + D (y − y0)/t at t > 0 (scalars or arrays)."""
    h = -4.0 * lam * t * y + 2j * mu * t * yp + 1j * mu * y
    if dsq:
        h = h + dsq * (y - y0) / t
    return h


def _stage_times(coef, n):
    """The stage map S: z ↦ A z + b, A = [[0, a], [p, q]], b = (b_y, r),
    composed after the affine map ``n``.

    An affine map of the state z = (y, ∫₀ᵗh) is the six entries
    (m00, m01, c0, m10, m11, c1) of z ↦ [[m00, m01], [m10, m11]] z + (c0, c1).
    """
    a, b_y, p, q, r = coef
    n00, n01, c0, n10, n11, c1 = n
    return (
        a * n10, a * n11, a * c1 + b_y,
        p * n00 + q * n10, p * n01 + q * n11, p * c0 + q * c1 + r,
    )


def _identity_plus(s, k):
    """The affine map z ↦ z + s·(k z), entry by entry."""
    k00, k01, c0, k10, k11, c1 = k
    return 1.0 + s * k00, s * k01, s * c0, s * k10, 1.0 + s * k11, s * c1


def _series_start(grid: np.ndarray) -> int:
    """Index of the node where the march takes over from the startup series:
    the last node at or below _SERIES_T, and never the node t = 0 itself.

    A first node past 0 beyond _SERIES_T_MAX raises DomainError.
    """
    if grid.size > 1 and grid[1] > _SERIES_T_MAX:
        raise DomainError(
            f"first node past 0 is {grid[1]}; the startup series reaches {_SERIES_T_MAX}"
        )
    return max(int(np.searchsorted(grid, _SERIES_T, side="right")) - 1, min(1, grid.size - 1))


def _step_maps(grid, lam, mu, dsq, y0):
    """Affine maps z₊ = M z + c of classical RK4 on every step of ``grid``,
    whose nodes are all positive.

    The master system is linear in z = (y, ∫₀ᵗh): z′ = A(t) z + b(t) with
    A = [[0, a], [p, q]], b = (0, r), a = 1/(t(t²+4)), p = −4λt + iμ + D/t,
    q = 2iμt·a and r = −D·y0/t.
    With the stage map S(t): z ↦ A(t) z + b(t), one RK4 step is the affine
    map I + h/6·(K₁ + 2K₂ + 2K₃ + K₄), where K₁ = S(t),
    K₂ = S(t + h/2)∘(I + h/2·K₁), K₃ = S(t + h/2)∘(I + h/2·K₂) and
    K₄ = S(t + h)∘(I + h·K₃), built here for all steps in one elementwise
    pass.  Returns the six entries (m00, m01, c0, m10, m11, c1) as arrays
    of one entry per step.
    """

    def stage(t):
        a = 1.0 / (t * (t * t + 4.0))
        return a, 0.0, -4.0 * lam * t + dsq / t + 1j * mu, 2j * mu * t * a, -dsq * y0 / t

    t, h = grid[:-1], np.diff(grid)
    left, mid, right = stage(t), stage(t + 0.5 * h), stage(grid[1:])
    k1 = (0.0,) + left
    k2 = _stage_times(mid, _identity_plus(0.5 * h, k1))
    k3 = _stage_times(mid, _identity_plus(0.5 * h, k2))
    k4 = _stage_times(right, _identity_plus(h, k3))
    total = tuple(w + 2.0 * x + 2.0 * y + z for w, x, y, z in zip(k1, k2, k3, k4))
    return _identity_plus(h / 6.0, total)


def _apply(m, z):
    """The affine maps ``m`` (shape (2, 3, k), rows (m00, m01, c0) and
    (m10, m11, c1)) applied to the states ``z`` (shape (2, k))."""
    return m[:, 0] * z[0] + m[:, 1] * z[1] + m[:, 2]


def _march(maps, y, i):
    """States (y, ∫₀ᵗh) after every step of the affine ``maps`` of
    :func:`_step_maps`, from the state (y, i), as the two rows of one array.

    A work-efficient prefix scan (Blelloch, CMU-CS-90-190, 1990): the
    up-sweep composes adjacent pairs of maps, halving the arrays each
    level and carrying an odd level's last map up alone; the down-sweep
    gives each block its entry state, the left child's map applied to its
    parent's entry state; a last pass applies every step map to its entry
    state.
    """
    levels = [np.array(maps, dtype=complex).reshape(2, 3, -1)]
    while levels[-1].shape[2] > 1:
        level = levels[-1]
        n, pairs = level.shape[2], level.shape[2] // 2
        left, right = level[..., : 2 * pairs : 2], level[..., 1 : 2 * pairs : 2]
        up = np.empty((2, 3, n - pairs), dtype=complex)
        up[..., :pairs] = right[:, 0:1] * left[0:1] + right[:, 1:2] * left[1:2]
        up[:, 2, :pairs] += right[:, 2]
        up[..., pairs:] = level[..., 2 * pairs :]
        levels.append(up)

    entry = np.array([[y], [i]], dtype=complex)
    for level in reversed(levels[:-1]):
        n, pairs = level.shape[2], level.shape[2] // 2
        below = np.empty((2, n), dtype=complex)
        below[:, ::2] = entry
        below[:, 1::2] = _apply(level[..., : 2 * pairs : 2], entry[:, :pairs])
        entry = below
    return _apply(levels[0], entry)


def solve_master(
    mode: ModePair,
    lam: float,
    y0: complex,
    grid: np.ndarray,
    resonant_amplitude: complex = 1.0,
) -> Trajectory:
    """March the master relation over ``grid`` (which must start at 0).

    The coupled state z = (y, ∫₀ᵗ h) satisfies a linear 2-system, stepped
    with classical RK4 from the last node at or below t = 0.5 outward, as
    one affine map per step: :func:`_step_maps` builds every step's
    z₊ = M z + c in one array pass, and :func:`_march` composes them by a
    prefix scan of array passes.  Up to that node the startup expansion of
    :func:`taylor_coefficients` is evaluated directly; for synthetic
    resonant data with a nonzero defect this includes the t^k·log t
    channel, so the march stays full-order.  Where the first node past 0
    lies beyond 0.5 the series is evaluated there and the march starts from
    it; a first node beyond 1 raises DomainError.  So do non-finite grid
    nodes, y0 or resonant amplitude, before any work.
    """
    if not 0.0 <= lam < 0.25:
        raise DomainError(f"lambda must lie in [0, 1/4), got {lam}")
    grid = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise DomainError("master grid nodes must be finite")
    if not (np.isfinite(complex(y0)) and np.isfinite(complex(resonant_amplitude))):
        raise DomainError(
            f"y0 and the resonant amplitude must be finite, got {y0}, {resonant_amplitude}"
        )
    if grid[0] != 0.0:
        raise DomainError("master grid must start at t = 0")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("master grid must be strictly increasing")
    start = _series_start(grid)

    mu, dsq = float(mode.mu), float(mode.dsq)
    y0 = complex(y0)
    amp = complex(resonant_amplitude) if dsq else 0.0
    a_ser, b_ser, defect = taylor_coefficients(mode, lam, y0, amp)
    scale = max(abs(y0), abs(amp), 1.0)
    consistent = defect <= 1e-10 * scale
    if not consistent and mode.resonant_k == 1:
        raise ConsistencyError(
            f"mode {(mode.n, mode.m)} with y0 = {y0} has no solution "
            "differentiable at 0; use y0 = 0 for |m - n| = 2"
        )

    n = grid.size
    y = np.zeros(n, dtype=complex)
    yp = np.zeros(n, dtype=complex)

    ys, yps, integs = _series_eval(a_ser, b_ser, grid[: start + 1])
    y[: start + 1] = ys
    yp[: start + 1] = yps
    startup = "series" if consistent else "series+log"

    maps = _step_maps(grid[start:], lam, mu, dsq, y0)
    marched, integrals = _march(maps, y[start], integs[start])
    t = grid[start + 1 :]
    y[start + 1 :] = marched
    yp[start + 1 :] = integrals / (t * (t * t + 4.0))

    meta = TrajectoryMeta(
        lam=lam,
        nu=nu_of_lambda(lam),
        mode=mode,
        y0=y0,
        startup=startup,
        inconsistency=defect,
    )
    traj = Trajectory(grid=grid, y=y, y_prime=yp, meta=meta)
    meta.master_residual = master_relation_residual(traj, lam)
    return traj


def master_relation_residual(traj: Trajectory, lam: float) -> float:
    """Residual of y'(t)(t³+4t) = ∫₀ᵗ h, recomputed from the samples.

    The integrand is rebuilt from the samples on every call and integrated
    by local quartic quadrature (:func:`cumulative_quadratic`, one array
    pass), independently of the solver's running state, so a trajectory not
    produced by the master relation is caught.  Only the quadrature weights,
    a function of the grid alone, are built once per grid and shared from a
    bounded cache keyed by the grid's bytes.  :func:`assemble_forcing`
    re-runs it on every trajectory it is given, whatever its source.
    """
    t, y, yp = traj.grid, traj.y, traj.y_prime
    mode, y0 = traj.meta.mode, traj.meta.y0
    mu, dsq = float(mode.mu), float(mode.dsq)
    pos = t > 0.0
    h = np.empty(t.size, dtype=complex)
    h[pos] = _master_integrand(t[pos], y[pos], yp[pos], lam, mu, dsq, y0)
    h[~pos] = 1j * mu * y[~pos] + dsq * yp[~pos]  # D·y' is the limit of D(y − y0)/s
    integral = cumulative_quadratic(t, h)
    lhs = yp * (t**3 + 4.0 * t)
    denom = 1.0 + np.abs(lhs) + np.abs(integral)
    return float(np.max(np.abs(lhs - integral) / denom))


# ---------------------------------------------------------------------------
# sample-based quadrature helpers
# ---------------------------------------------------------------------------


def _per_grid(build):
    """Cache ``build(grid)`` by the grid's float64 bytes for the last
    _PLAN_CACHE grids, so a grid mutated in place gets a fresh plan; the
    plan's arrays are shared read-only."""

    @functools.lru_cache(maxsize=_PLAN_CACHE)
    def cached(key: bytes) -> tuple:
        plan = build(np.frombuffer(key))
        for part in plan:
            part.flags.writeable = False
        return plan

    @functools.wraps(build)
    def plan(grid: np.ndarray) -> tuple:
        return cached(np.ascontiguousarray(grid, float).tobytes())

    plan.cache_info, plan.cache_clear = cached.cache_info, cached.cache_clear
    return plan


@_per_grid
def _cumulative_plan(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's window of five nearest nodes (fewer on shorter grids) and
    its quadrature weights: the :func:`fornberg_weights` table at the cell's
    left end contracted with the Taylor factors hᵐ⁺¹/(m+1)!."""
    n = grid.size
    width = min(5, n)
    cells = np.arange(n - 1)
    start = np.clip(cells - (width - 1) // 2, 0, n - width)
    window = start[:, None] + np.arange(width)
    table = fornberg_weights(grid[window], grid[cells], width - 1)
    powers = np.arange(1, width + 1)
    taylor = np.diff(grid)[:, None] ** powers / np.cumprod(powers)
    return window, np.matmul(table, taylor[:, :, None])[:, :, 0]


def cumulative_quadratic(grid: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Cumulative ∫ from grid[0] by local degree-4 interpolatory quadrature.

    Each cell [t_k, t_(k+1)] integrates the quartic through its five
    nearest samples (fewer on shorter grids), as the Taylor sum at t_k:
    ∫ p = Σ_m p⁽ᵐ⁾(t_k)·hᵐ⁺¹/(m+1)!, with the derivatives from the
    :func:`fornberg_weights` table of the cell's window.  The weights
    depend only on the grid: they are built once per grid and kept in a
    bounded cache keyed by the grid's bytes, while the values are weighed
    afresh on every call.
    """
    window, w = _cumulative_plan(grid)
    steps = np.matmul(w[:, None, :], values[window][:, :, None])[:, 0, 0]
    return np.concatenate([[0.0 + 0.0j], np.cumsum(steps)])


def _check_samples(grid: np.ndarray, values: np.ndarray) -> None:
    """Refuse samples the quadratic rule cannot integrate: fewer than 3,
    not 1-d, unequal lengths, non-finite, or a grid not strictly increasing."""
    if grid.ndim != 1 or values.shape != grid.shape or grid.size < 3:
        raise DomainError("forcing needs at least 3 samples, 1-d, as many values as nodes")
    if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
        raise DomainError("forcing samples must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("forcing sample grid must be strictly increasing")


def power_weighted_integral(
    grid: np.ndarray, values: np.ndarray, exponent: float,
    a: float | np.ndarray, b: float | np.ndarray,
) -> complex | np.ndarray:
    """∫ r^p f(r) dr over [a, b] ⊆ [grid[0], grid[-1]] for sampled f.

    The interpolant is quadratic through three samples per cell and r^p is
    integrated exactly per cell, so integrable endpoint singularities
    (p > −1 with grid[0] = 0) cost no accuracy.  At p = −1 every range must
    start above 0, and the q = 0 moment ∫ dr/r is a log.  The ends broadcast;
    each range is its first partial cell [a, min(b, next node)], plus its
    whole cells off one cumulative table of the grid, plus its last partial
    cell [node, b], so all ranges cost O(grid + ranges).  An empty range
    gives 0.  Samples the rule cannot integrate raise DomainError, as in
    :meth:`ForcingProfile.from_samples`.
    """
    _check_samples(grid, values)
    p = float(exponent)
    if p < -1.0:
        raise DomainError("exponent must be at least -1 for an integrable weight")
    lo, hi = np.broadcast_arrays(a, b)
    if not np.all((grid[0] - 1e-12 <= lo) & (lo <= hi) & (hi <= grid[-1] + 1e-12)):
        raise DomainError("integration range must lie within the sample grid")
    n, shape = grid.size, lo.shape
    lo, hi = (np.clip(x, grid[0], grid[-1]).ravel() for x in (lo, hi))
    if p == -1.0 and not np.all(lo > 0.0):
        raise DomainError("the weight 1/r needs ranges that start above 0")
    # the cells holding each range's ends; kb == ka when one cell holds both
    ka = np.minimum(np.searchsorted(grid, lo, side="right") - 1, n - 2)
    kb = np.maximum(np.searchsorted(grid, hi, side="left") - 1, ka)
    # every whole cell, then the first and the last partial cell of each range;
    # at p = −1 no range holds [0, grid[1]] whole, and its log moment is infinite
    c0 = int(p == -1.0 and grid[0] == 0.0)
    cell = np.concatenate([np.arange(c0, n - 1), ka, kb])
    seg_a = np.concatenate([grid[c0:-1], lo, np.where(kb > ka, grid[kb], hi)])
    seg_b = np.concatenate([grid[c0 + 1 :], np.minimum(hi, grid[ka + 1]), hi])
    j = np.clip(cell, 1, n - 2)
    x0, x1, x2 = grid[j - 1], grid[j], grid[j + 1]
    f0, f1, f2 = values[j - 1], values[j], values[j + 1]
    d0 = (x0 - x1) * (x0 - x2)
    d1 = (x1 - x0) * (x1 - x2)
    d2 = (x2 - x0) * (x2 - x1)
    q1 = np.array([p, p + 1.0, p + 2.0])[:, None] + 1.0  # ∫ r^q dr per cell
    if p > -1.0:
        mp, mp1, mp2 = (seg_b**q1 - seg_a**q1) / q1
    else:  # q = 0: the log moment ∫ dr/r
        mp1, mp2 = (seg_b**q1[1:] - seg_a**q1[1:]) / q1[1:]
        mp = np.log1p((seg_b - seg_a) / seg_a)
    w0 = (mp2 - (x1 + x2) * mp1 + x1 * x2 * mp) / d0
    w1 = (mp2 - (x0 + x2) * mp1 + x0 * x2 * mp) / d1
    w2 = (mp2 - (x0 + x1) * mp1 + x0 * x1 * mp) / d2
    parts = w0 * f0 + w1 * f1 + w2 * f2
    table = np.concatenate([np.zeros(1 + c0), np.cumsum(parts[: n - 1 - c0])])
    first, last = parts[n - 1 - c0 :].reshape(2, -1)
    whole = np.where(kb > ka, table[kb] - table[ka + 1], 0.0)
    return ((first + whole) + last).reshape(shape)[()]


# ---------------------------------------------------------------------------
# forcing profiles
# ---------------------------------------------------------------------------


@dataclass
class ForcingProfile:
    """A forcing f(t), either samples on a grid or a callable.

    Only samples are integrated.  They carry a decay envelope
    |f(t)| ≤ decay_c / t for t ≥ 1, audited, not proved: decay_c is the max
    of t·|f| over the samples at t ≥ 1 (:meth:`envelope_audit`), and the
    tail bounds assume it holds beyond the last sample.  A callable serves
    :func:`euler_residual` through :meth:`values_on` and carries no
    envelope; :meth:`_cutoff` refuses it."""

    fn: object = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    decay_c: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def from_callable(cls, fn) -> "ForcingProfile":
        """A callable f(t) → complex, for :func:`euler_residual`; the tail
        integrals refuse it.  ``fn`` is not called here."""
        return cls(fn=fn, decay_c=math.nan)

    @classmethod
    def from_samples(cls, grid: np.ndarray, values: np.ndarray) -> "ForcingProfile":
        """Samples of f at ``grid``: at least 3 finite 1-d samples on a
        strictly increasing grid, as the quadratic rule needs."""
        grid, values = np.asarray(grid, float), np.asarray(values, complex)
        _check_samples(grid, values)
        profile = cls(grid=grid, values=values)
        profile.decay_c = profile.envelope_audit()
        return profile

    @property
    def sampled(self) -> bool:
        return self.values is not None

    def values_on(self, grid: np.ndarray) -> np.ndarray:
        if self.sampled:
            if self.grid.size == np.asarray(grid).size and np.allclose(
                self.grid, grid, rtol=0, atol=1e-12
            ):
                return self.values
            raise ConsistencyError("sampled forcing is not aligned with the grid")
        t = np.asarray(grid, dtype=float)  # fn gets each point as a Python float
        values = [complex(self.fn(x)) for x in t.ravel().tolist()]
        return np.array(values, complex).reshape(t.shape)

    def envelope_audit(self) -> float:
        """Max of t·|f(t)| over the samples at t ≥ 1 (0 if none)."""
        mask = self.grid >= 1.0
        return float(np.max(np.abs(self.values[mask]) * self.grid[mask], initial=0.0))

    def _cutoff(self, nu: float, tol: float | None) -> tuple[float, float]:
        """(R, envelope tail bound at R) for tail integrals stopped at R, the
        last sample.  A bound above ``tol`` raises :class:`TruncationError`
        (None checks nothing).  A callable raises DomainError before
        anything is evaluated.
        """
        if not self.sampled:
            raise DomainError(
                "tail integrals take sampled forcing; build it with ForcingProfile.from_samples"
            )
        if tol is not None and not tol >= 0.0:
            raise DomainError(f"tol must be non-negative, got {tol}")
        if not math.isfinite(self.decay_c):
            raise DomainError("forcing must carry a finite decay envelope")
        cutoff = float(self.grid[-1])
        bound = _tail_bound(nu, self.decay_c, cutoff)
        if tol is not None and bound > tol:
            raise TruncationError(
                f"sampled forcing ends at {cutoff:.3e}; tail bound {bound:.3e} "
                f"exceeds {tol:.1e}",
                achieved_bound=bound,
            )
        return cutoff, bound


# ---------------------------------------------------------------------------
# forcing assembly and the Euler identity
# ---------------------------------------------------------------------------


def assemble_forcing(
    mode: ModePair,
    traj: Trajectory,
    lam: float,
) -> ForcingProfile:
    """Sample f along a master trajectory and audit its decay envelope.

    The second derivative is recovered algebraically from the master
    relation (y'' = (h − (3t²+4) y')/(t³+4t)), which is first re-verified
    from the samples; trajectories that do not satisfy the master relation,
    or were solved for another mode, are rejected.  f(0) is filled by
    polynomial extrapolation (the order-0 :func:`fornberg_weights` at 0)
    and reported against the endpoint identities f(0) = 4λ y(0) and
    f'(0) = (4−ν²) y'(0).
    """
    if mode != traj.meta.mode:
        raise ConsistencyError(
            f"trajectory was solved for mode {(traj.meta.mode.n, traj.meta.mode.m)}, "
            f"not {(mode.n, mode.m)}"
        )
    resid = master_relation_residual(traj, lam)
    if resid > _CONSISTENCY_TOL:
        raise ConsistencyError(
            f"trajectory does not satisfy the master relation "
            f"(residual {resid:.3e} > {_CONSISTENCY_TOL:.1e})"
        )
    t, y, yp = traj.grid, traj.y, traj.y_prime
    mode_mu, dsq = float(mode.mu), float(mode.dsq)
    y0 = traj.meta.y0

    pos = t > 0.0
    tp = t[pos]
    h = _master_integrand(tp, y[pos], yp[pos], lam, mode_mu, dsq, y0)
    ypp = (h - (3.0 * tp**2 + 4.0) * yp[pos]) / (tp**3 + 4.0 * tp)

    f = (
        -4.0 * ypp
        - 4.0 * yp[pos] / tp
        + 2j * mode_mu * yp[pos]
        + 1j * mode_mu * y[pos] / tp
    )
    if dsq:
        f = f + dsq * (y[pos] - y0) / tp**2

    values = np.empty(t.size, dtype=complex)
    values[pos] = f
    if t[0] == 0.0:
        k = min(5, f.size)
        at_zero = fornberg_weights(tp[:k], 0.0, 0)[:, 0]
        f0 = at_zero @ f[:k]
        values[0] = f0
        fp0 = at_zero @ ((f[:k] - f0) / tp[:k])
    else:
        f0 = values[0]
        fp0 = complex("nan")

    profile = ForcingProfile.from_samples(t, values)
    nu = traj.meta.nu
    profile.diagnostics = {
        "f0": complex(f0),
        "f0_expected": 4.0 * lam * y0,
        "fprime0": complex(fp0),
        "fprime0_expected": (4.0 - nu * nu) * traj.y_prime[0],
        "master_residual": resid,
    }
    return profile


@_per_grid
def _derivative_plan(grid: np.ndarray) -> tuple:
    """The 5-node windows of the interior nodes, their first-derivative
    weights at the centre node in t or log t, which windows use log t, and
    the centre nodes that convert d/dlog t back to d/dt."""
    window = np.arange(max(grid.size - 4, 0))[:, None] + np.arange(5)
    t = grid[window]
    # windows reaching t ≤ 0 stay in t; the 1.0 placeholder is never used
    use_log = t[:, 0] > 0.0
    logt = np.log(np.where(use_log[:, None], t, 1.0))
    dt, dtau = np.diff(t[use_log]), np.diff(logt[use_log])
    use_log[use_log] = dtau.max(1) / dtau.min(1) <= dt.max(1) / dt.min(1)
    coords = np.where(use_log[:, None], logt, t)
    # a copy, so the cache keeps no order-0 column
    w = fornberg_weights(coords, coords[:, 2], 1)[..., 1].copy()
    return window, w, use_log, t[use_log, 2]


def second_derivative_from_first(grid: np.ndarray, yprime: np.ndarray) -> np.ndarray:
    """y'' at interior nodes by 5-point stencils on y'.

    Per node the stencil differentiates in whichever coordinate (t or
    log t) is locally closer to uniform; both are exact on local degree-4
    polynomials, the choice only controls conditioning.  The stencils
    depend only on the grid: they are built once per grid and kept in a
    bounded cache keyed by the grid's bytes, while y' is weighed afresh on
    every call.  The two nodes at each boundary return NaN.
    """
    n = grid.size
    out = np.full(n, np.nan, dtype=complex)
    window, w, use_log, centre = _derivative_plan(grid)
    # matmul keeps the bits of one dot product per node
    d = np.matmul(w[:, None, :], yprime[window][:, :, None])[:, 0, 0]
    d[use_log] /= centre
    out[2 : n - 2] = d
    return out


def euler_residual(traj: Trajectory, forcing: ForcingProfile, lam: float) -> float:
    """sup over interior nodes of |t²y'' + 3ty' + 4λy − f|/(1 + max|y|)."""
    per_point = euler_residual_pointwise(traj, forcing, lam)
    finite = per_point[np.isfinite(per_point)]
    if finite.size == 0:
        raise DomainError("grid too short for 5-point stencils")
    return float(np.max(finite))


def euler_residual_pointwise(
    traj: Trajectory, forcing: ForcingProfile, lam: float
) -> np.ndarray:
    t, y, yp = traj.grid, traj.y, traj.y_prime
    f = forcing.values_on(t)
    ypp = second_derivative_from_first(t, yp)
    resid = np.abs(t**2 * ypp + 3.0 * t * yp + 4.0 * lam * y - f)
    resid /= 1.0 + float(np.max(np.abs(y)))
    resid[~np.isfinite(ypp)] = np.nan
    resid[t <= 0.0] = np.nan
    return resid


# ---------------------------------------------------------------------------
# variation of parameters and tail constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailEstimate:
    value: complex
    tail_bound: float
    cutoff: float


def _tail_bound(nu: float, decay_c: float, cutoff: float) -> float:
    """Envelope bound decay_c·R^(−ν)/(2ν²) on |(1/2ν)∫_R^∞ r^(−ν) f dr|."""
    return decay_c * cutoff ** (-nu) / (2.0 * nu * nu)


def asymptotic_constant(
    nu: float,
    forcing: ForcingProfile,
    tol: float | None = None,
) -> TailEstimate:
    """Tail functional −(1/2ν) ∫₁^∞ r^(−ν) f(r) dr, cut at R, the last
    sample of the sampled ``forcing`` (a callable raises DomainError).

    The truncation error at R is bounded by decay_c·R^(−ν)/(2ν²) from the
    decay envelope, which is audited, not proved (see
    :class:`ForcingProfile`), and |value| ≤ decay_c/(2ν²) always.  A bound
    above ``tol`` raises TruncationError; ``tol=None`` checks nothing.
    """
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu must lie in (0, 1], got {nu}")
    cutoff, bound = forcing._cutoff(nu, tol)
    integral = power_weighted_integral(forcing.grid, forcing.values, -nu, a=1.0, b=cutoff)
    return TailEstimate(value=-integral / (2.0 * nu), tail_bound=bound, cutoff=cutoff)


def asymptotic_amplitude(
    nu: float, forcing: ForcingProfile, tol: float | None = None
) -> TailEstimate:
    """Tail amplitude  (1/2ν) ∫₀^∞ r^(−ν) f(r) dr  of the bounded solution.

    The unique solution of the Euler equation that stays bounded at t = 0
    satisfies y(t)·t^(1−ν) → this value; see the module notes.  Requires
    ν < 1 so the weight is integrable at 0, and sampled forcing from t = 0
    (a callable raises DomainError); the integral stops at the last sample,
    with the tail bound of :func:`asymptotic_constant` checked against
    ``tol`` (None checks nothing).
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must lie in (0, 1) for the amplitude, got {nu}")
    cutoff, bound = forcing._cutoff(nu, tol)
    integral = power_weighted_integral(forcing.grid, forcing.values, -nu, a=0.0, b=cutoff)
    return TailEstimate(value=integral / (2.0 * nu), tail_bound=bound, cutoff=cutoff)


def particular_trajectory(
    nu: float, forcing: ForcingProfile, grid: np.ndarray
) -> Trajectory:
    """Sample the variation-of-parameters solution and its derivative,

        y(t) = −(t^(ν−1)/2ν) P(t) − (t^(−ν−1)/2ν) Q(t),
        P(t) = ∫_t^∞ r^(−ν) f dr,   Q(t) = ∫₀^t r^ν f dr.

    This is the particular solution that decays like 1/t; it differs from
    the bounded-at-0 solution by a multiple of t^(ν−1).  The forcing must
    be sampled from t = 0 (a callable raises DomainError) and is integrated
    to its last sample, in one pass for all points.  Points not 1-d,
    non-empty, finite, strictly increasing and > 0 raise DomainError before
    any integral.  The derivative is
    analytic in the two running integrals:
        y' = −((ν−1) t^(ν−2)/2ν) P(t) + ((1+ν) t^(−ν−2)/2ν) Q(t).
    """
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu must lie in (0, 1], got {nu}")
    t = np.asarray(grid, dtype=float)
    ok = t.ndim == 1 and t.size and np.all(np.isfinite(t))
    if not (ok and np.all(np.diff(t, prepend=0.0) > 0.0)):  # the prepended 0 asks t[0] > 0
        raise DomainError("formula trajectories need 1-d, finite, increasing points > 0")
    cutoff, _ = forcing._cutoff(nu, None)
    head = power_weighted_integral(forcing.grid, forcing.values, nu, a=0.0, b=t)
    tail = power_weighted_integral(forcing.grid, forcing.values, -nu, a=t, b=cutoff)
    y = -(t ** (nu - 1.0)) / (2 * nu) * tail - t ** (-nu - 1.0) / (2 * nu) * head
    yp = (
        -((nu - 1.0) * t ** (nu - 2.0)) / (2 * nu) * tail
        + ((1.0 + nu) * t ** (-nu - 2.0)) / (2 * nu) * head
    )
    meta = TrajectoryMeta(
        lam=lambda_of_nu(nu), nu=nu, mode=ModePair(0, 0), y0=complex("nan"), startup="formula"
    )
    return Trajectory(grid=t, y=y, y_prime=yp, meta=meta)


# ---------------------------------------------------------------------------
# tail diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailReport:
    sup: float
    slope: float
    bounded: bool


def tail_remainder_check(traj: Trajectory, a_const: complex, nu: float) -> TailReport:
    """Check that t·|y(t) − A t^(ν−1)| stays bounded.

    Returns the sup over t ≥ 1 and the log-log slope over the top decade
    of the grid; ``bounded`` means slope < 0.05.  An unbounded trend is
    reported, never raised; a grid with fewer than two nodes in that
    decade raises DomainError.
    """
    mask = traj.grid >= 1.0
    t = traj.grid[mask]
    win = t >= traj.grid[-1] / 10.0
    if np.count_nonzero(win) < 2:
        raise DomainError("tail check needs two grid nodes in the top decade of t >= 1")
    err = t * np.abs(traj.y[mask] - a_const * t ** (nu - 1.0))
    sup = float(np.max(err))
    tw, ew = t[win], err[win]
    if np.max(ew, initial=0.0) < 1e-300:
        slope = float("-inf")
    else:
        ew = np.maximum(ew, 1e-300)
        slope = float(np.polyfit(np.log(tw), np.log(ew), 1)[0])
    return TailReport(sup=sup, slope=slope, bounded=slope < 0.05)


def _fit_powers(t: np.ndarray, target: np.ndarray, exponents: tuple) -> tuple:
    """Least-squares coefficients of ``target`` on t^e for the two
    ``exponents``, and the design matrix.  Fewer than 3 nodes raise
    DomainError: two unknowns on one or two nodes leave no residual."""
    if t.size < 3:
        raise DomainError(f"a two-term fit needs at least 3 nodes, the window holds {t.size}")
    design = np.column_stack([t**e for e in exponents]).astype(complex)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return coef, design


def fit_tail_amplitude(traj: Trajectory, nu: float) -> complex:
    """Least-squares fit of y·t^(1−ν) = A + B·t^(−ν) over the top two decades;
    fewer than 3 grid nodes there raise DomainError."""
    hi = traj.grid[-1]
    mask = (traj.grid >= hi / 100.0) & (traj.grid <= hi)
    t = traj.grid[mask]
    coef, _ = _fit_powers(t, traj.y[mask] * t ** (1.0 - nu), (0.0, -nu))
    return complex(coef[0])
