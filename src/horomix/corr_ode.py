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
tail amplitude with certified truncation bounds.

Singular-term handling: for m ≠ n the master integrand carries y(s)/s, so
an exact solution needs y(0) = 0; we integrate the regularized term
(m−n)²·(y(s) − y(0))/s, which coincides with the original whenever the
data is consistent, and treat nonzero y(0) as a synthetic extension.  The
indicial structure makes k₀ = |m−n|/2 a free Taylor mode at 0; its
amplitude is a solver argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._stencils import fornberg_weights
from .errors import ConsistencyError, ConvergenceError, DomainError, TruncationError
from .spectral_model import nu_of_lambda

_SERIES_T = 0.5          # series radius actually used (convergence radius is 2)
_SERIES_TERMS = 40
_CONSISTENCY_TOL = 1e-6  # master residual above which a trajectory is rejected
_R_MAX = 1e280           # largest certified tail cutoff


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
    resonant_amplitude: complex = 0.0
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
    """Composite grid: step 1e-3 on [0, 1], uniform in log t on [1, t_max]."""
    if t_max <= 1.0:
        raise DomainError("t_max must exceed 1")
    lin = np.linspace(0.0, 1.0, 1001)
    decades = math.log10(t_max)
    n_log = max(2, round(decades * steps_per_decade))
    logpart = np.logspace(0.0, decades, n_log + 1)[1:]
    return np.concatenate([lin, logpart])


def log_grid(t_min: float, t_max: float, steps_per_decade: int = 400) -> np.ndarray:
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
    resonant_amplitude: complex = 0.0,
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


def _rhs(t, y, integral, lam, mu, dsq, y0, yp_at_zero):
    if t == 0.0:
        return yp_at_zero, 1j * mu * y0 + dsq * yp_at_zero
    yp = integral / (t * (t * t + 4.0))
    return yp, _master_integrand(t, y, yp, lam, mu, dsq, y0)


def solve_master(
    mode: ModePair,
    lam: float,
    y0: complex,
    grid: np.ndarray,
    resonant_amplitude: complex = 1.0,
    check_tol: float | None = None,
) -> Trajectory:
    """March the master relation over ``grid`` (which must start at 0).

    The coupled state (y, ∫₀ᵗ h) satisfies an ordinary 2-system, stepped
    with classical RK4 from t = 0.5 outward.  On [0, 0.5] the startup
    expansion of :func:`taylor_coefficients` is evaluated directly; for
    synthetic resonant data with a nonzero defect this includes the
    t^k·log t channel, so the march stays full-order.
    """
    if not 0.0 <= lam < 0.25:
        raise DomainError(f"lambda must lie in [0, 1/4), got {lam}")
    grid = np.asarray(grid, dtype=float)
    if grid[0] != 0.0:
        raise DomainError("master grid must start at t = 0")
    if np.any(np.diff(grid) <= 0):
        raise DomainError("master grid must be strictly increasing")

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
    yp_at_zero = a_ser[1]

    n = grid.size
    y = np.zeros(n, dtype=complex)
    yp = np.zeros(n, dtype=complex)

    start = max(int(np.searchsorted(grid, _SERIES_T, side="right")) - 1, 0)
    ys, yps, integs = _series_eval(a_ser, b_ser, grid[: start + 1])
    y[: start + 1] = ys
    yp[: start + 1] = yps
    startup = "series" if consistent else "series+log"

    yc, ic = y[start], integs[start]
    for k in range(start, n - 1):
        t, t_next = grid[k], grid[k + 1]
        h = t_next - t
        k1y, k1i = _rhs(t, yc, ic, lam, mu, dsq, y0, yp_at_zero)
        k2y, k2i = _rhs(
            t + h / 2, yc + h / 2 * k1y, ic + h / 2 * k1i, lam, mu, dsq, y0, yp_at_zero
        )
        k3y, k3i = _rhs(
            t + h / 2, yc + h / 2 * k2y, ic + h / 2 * k2i, lam, mu, dsq, y0, yp_at_zero
        )
        k4y, k4i = _rhs(t_next, yc + h * k3y, ic + h * k3i, lam, mu, dsq, y0, yp_at_zero)
        yc = yc + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        ic = ic + h / 6 * (k1i + 2 * k2i + 2 * k3i + k4i)
        y[k + 1] = yc
        yp[k + 1] = ic / (t_next * (t_next**2 + 4.0))

    meta = TrajectoryMeta(
        lam=lam,
        nu=nu_of_lambda(lam),
        mode=mode,
        y0=y0,
        resonant_amplitude=amp,
        startup=startup,
        inconsistency=defect,
    )
    traj = Trajectory(grid=grid, y=y, y_prime=yp, meta=meta)
    meta.master_residual = master_relation_residual(traj, lam)
    if check_tol is not None and meta.master_residual > check_tol:
        raise ConvergenceError(
            f"master residual {meta.master_residual:.3e} above {check_tol:.1e}; "
            "refine the grid",
            achieved=meta.master_residual,
        )
    return traj


def refine_grid(grid: np.ndarray) -> np.ndarray:
    mids = 0.5 * (grid[:-1] + grid[1:])
    return np.sort(np.concatenate([grid, mids]))


def oracle_trajectory(
    mode: ModePair,
    lam: float,
    y0: complex,
    grid: np.ndarray,
    tol: float = 1e-10,
):
    """Reference solution on ``grid`` by up to five step halvings.

    Returns (values at the nodes of ``grid``, error estimate).  The final
    answer is Richardson-extrapolated from the two finest levels assuming
    the marching order 4.
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


def master_relation_residual(traj: Trajectory, lam: float) -> float:
    """Residual of y'(t)(t³+4t) = ∫₀ᵗ h, recomputed from the samples.

    The integral is rebuilt by local quartic quadrature of the integrand
    (:func:`cumulative_quadratic`, one array pass), independently of the
    solver's running state, so a trajectory not produced by the master
    relation is caught.  :func:`assemble_forcing` re-runs it on every
    trajectory it is given, whatever its source.
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
    a: float | None = None, b: float | None = None,
) -> complex:
    """∫ r^p f(r) dr over [a, b] ⊆ [grid[0], grid[-1]] for sampled f.

    The interpolant is quadratic through three samples per cell and r^p is
    integrated exactly per cell, so integrable endpoint singularities
    (p > −1 with grid[0] = 0) cost no accuracy.  An empty range gives 0.
    Samples the rule cannot integrate raise DomainError, as in
    :meth:`ForcingProfile.from_samples`.
    """
    _check_samples(grid, values)
    p = float(exponent)
    if p <= -1.0:
        raise DomainError("exponent must exceed -1 for an integrable weight")
    lo = grid[0] if a is None else a
    hi = grid[-1] if b is None else b
    if not (grid[0] - 1e-12 <= lo <= hi <= grid[-1] + 1e-12):
        raise DomainError("integration range must lie within the sample grid")
    # cell k clipped to [lo, hi]; cells outside it have zero length
    seg_a, seg_b = np.clip(grid[:-1], lo, hi), np.clip(grid[1:], lo, hi)
    j = np.clip(np.arange(grid.size - 1), 1, grid.size - 2)
    x0, x1, x2 = grid[j - 1], grid[j], grid[j + 1]
    f0, f1, f2 = values[j - 1], values[j], values[j + 1]
    d0 = (x0 - x1) * (x0 - x2)
    d1 = (x1 - x0) * (x1 - x2)
    d2 = (x2 - x0) * (x2 - x1)
    q1 = np.array([p, p + 1.0, p + 2.0])[:, None] + 1.0  # ∫ r^q dr per cell, q > −1
    mp, mp1, mp2 = (seg_b**q1 - seg_a**q1) / q1
    w0 = (mp2 - (x1 + x2) * mp1 + x1 * x2 * mp) / d0
    w1 = (mp2 - (x0 + x2) * mp1 + x0 * x2 * mp) / d1
    w2 = (mp2 - (x0 + x1) * mp1 + x0 * x1 * mp) / d2
    return np.sum(w0 * f0 + w1 * f1 + w2 * f2)


def _quad_complex(fn, a, b, points=None):
    # imported here: only callable forcings need scipy, so importing the
    # package does not load it
    from scipy.integrate import quad

    kw = {"limit": 200}
    if points:
        pts = [p for p in points if a < p < b]
        if pts:
            kw["points"] = pts
    re = quad(lambda r: fn(r).real, a, b, **kw)[0]
    im = quad(lambda r: fn(r).imag, a, b, **kw)[0]
    return re + 1j * im


def _geometric_panels(fn, a, r_stop, points=()):
    """Σ of quad over panels [a, 10a, 100a, ...] up to r_stop; robust for
    integrands that die long before the certified cutoff."""
    total = 0.0 + 0.0j
    lo = a
    while lo < r_stop:
        hi = min(lo * 10.0, r_stop)
        total += _quad_complex(fn, lo, hi, points=points)
        lo = hi
    return total


# ---------------------------------------------------------------------------
# forcing profiles
# ---------------------------------------------------------------------------


@dataclass
class ForcingProfile:
    """A forcing f(t) with a certified decay envelope |f(t)| ≤ decay_c / t
    for t ≥ 1.  Either a smooth callable or samples on a grid; only this
    class branches on the form (see :meth:`_cutoff` and :meth:`_weighted`)."""

    fn: object = None
    grid: np.ndarray | None = None
    values: np.ndarray | None = None
    decay_c: float = 0.0
    breakpoints: tuple = ()
    diagnostics: dict = field(default_factory=dict)

    @classmethod
    def from_callable(
        cls,
        fn,
        decay_c: float | None = None,
        breakpoints: tuple = (),
    ) -> "ForcingProfile":
        profile = cls(fn=fn, breakpoints=tuple(breakpoints))
        sup = profile.envelope_audit()
        if decay_c is None:
            decay_c = sup
        elif sup > decay_c * (1.0 + 1e-9):
            raise ConsistencyError(
                f"claimed envelope {decay_c} violated: t|f(t)| reaches {sup}"
            )
        profile.decay_c = decay_c
        return profile

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
        return np.array([complex(self.fn(t)) for t in np.asarray(grid, float)])

    def envelope_audit(self) -> float:
        """Max of t·|f(t)| over the samples at t ≥ 1 (0 if none), or over 801
        log-spaced points of [1, 1e4] for a callable; must not exceed decay_c."""
        if self.sampled:
            mask = self.grid >= 1.0
            return float(np.max(np.abs(self.values[mask]) * self.grid[mask], initial=0.0))
        ts = np.logspace(0.0, 4.0, 801)
        return float(max(abs(complex(self.fn(t))) * t for t in ts))

    def _cutoff(
        self, nu: float, tol: float | None, r_max: float
    ) -> tuple[float, float]:
        """(R, envelope tail bound at R) for tail integrals stopped at R.

        Samples stop at the last sample and raise :class:`TruncationError`
        when the bound there exceeds ``tol`` (None certifies nothing).  A
        callable stops at the smallest R ≤ r_max whose bound reaches ``tol``
        (1e-9 when None) and raises when there is no such R.
        """
        if tol is not None and not tol >= 0.0:
            raise DomainError(f"tol must be non-negative, got {tol}")
        if not math.isfinite(self.decay_c):
            raise DomainError("forcing must carry a finite decay envelope")
        if self.sampled:
            cutoff = float(self.grid[-1])
            bound = _tail_bound(nu, self.decay_c, cutoff)
            if tol is not None and bound > tol:
                raise TruncationError(
                    f"sampled forcing ends at {cutoff:.3e}; tail bound {bound:.3e} "
                    f"exceeds {tol:.1e}",
                    achieved_bound=bound,
                )
            return cutoff, bound
        if self.decay_c == 0.0:
            return 1.0, 0.0
        tol = 1e-9 if tol is None else tol
        try:
            r_req = (self.decay_c / (2.0 * nu * nu * tol)) ** (1.0 / nu)
        except (ZeroDivisionError, OverflowError):  # tol = 0, or R beyond any float
            r_req = math.inf
        if r_req > r_max:
            achieved = _tail_bound(nu, self.decay_c, r_max)
            raise TruncationError(
                f"tail bound cannot reach {tol:.1e} within R_max={r_max:.1e} "
                f"(achieved {achieved:.3e})",
                achieved_bound=achieved,
            )
        cutoff = max(r_req, 1.0)
        return cutoff, _tail_bound(nu, self.decay_c, cutoff)

    def _weighted(self, p: float, a: float, b: float) -> complex:
        """∫_a^b r^p f(r) dr.

        Samples use :func:`power_weighted_integral`.  A callable is
        integrated over geometric panels from a > 0; from a = 0 it takes one
        adaptive pass on [0, b] when p ≥ 0, and for p < 0 (where b ≥ 1, the
        callable cutoff) substitutes r = s^(1/(1+p)) on [0, 1] to absorb the
        weight, then adds panels.
        """
        if self.sampled:
            return power_weighted_integral(self.grid, self.values, p, a=a, b=b)
        fn, points = self.fn, self.breakpoints

        def integrand(r):
            return r**p * fn(r)

        if a > 0.0:
            return _geometric_panels(integrand, a, b, points=points)
        if p >= 0.0:
            return _quad_complex(integrand, 0.0, b, points=points)
        power = 1.0 / (1.0 + p)
        head = _quad_complex(
            lambda s: power * fn(s**power), 0.0, 1.0,
            points=[x ** (1.0 + p) for x in points if 0 < x < 1],
        )
        return head + _geometric_panels(integrand, 1.0, b, points=points)


# ---------------------------------------------------------------------------
# forcing assembly and the Euler identity
# ---------------------------------------------------------------------------


def assemble_forcing(
    mode: ModePair,
    traj: Trajectory,
    lam: float,
) -> ForcingProfile:
    """Sample f along a master trajectory and certify its decay envelope.

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
    tol: float | None = 1e-9,
    r_max: float = _R_MAX,
) -> TailEstimate:
    """Tail functional −(1/2ν) ∫₁^∞ r^(−ν) f(r) dr with a certified cutoff.

    The truncation error at cutoff R is bounded by decay_c·R^(−ν)/(2ν²)
    from the decay envelope, and |value| ≤ decay_c/(2ν²) always.
    """
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu must lie in (0, 1], got {nu}")
    cutoff, bound = forcing._cutoff(nu, tol, r_max)
    integral = forcing._weighted(-nu, 1.0, cutoff)
    return TailEstimate(value=-integral / (2.0 * nu), tail_bound=bound, cutoff=cutoff)


def asymptotic_amplitude(
    nu: float, forcing: ForcingProfile, tol: float | None = None
) -> TailEstimate:
    """Tail amplitude  (1/2ν) ∫₀^∞ r^(−ν) f(r) dr  of the bounded solution.

    The unique solution of the Euler equation that stays bounded at t = 0
    satisfies y(t)·t^(1−ν) → this value; see the module notes.  Requires
    ν < 1 so the weight is integrable at 0, and sampled forcing to start
    at t = 0.
    """
    if not 0.0 < nu < 1.0:
        raise DomainError(f"nu must lie in (0, 1) for the amplitude, got {nu}")
    cutoff, bound = forcing._cutoff(nu, tol, _R_MAX)
    integral = forcing._weighted(-nu, 0.0, cutoff)
    return TailEstimate(value=integral / (2.0 * nu), tail_bound=bound, cutoff=cutoff)


def particular_solution(nu: float, forcing: ForcingProfile, t: float) -> complex:
    """Variation-of-parameters value at ``t``; see :func:`particular_trajectory`."""
    return complex(particular_trajectory(nu, forcing, [t]).y[0])


def particular_trajectory(
    nu: float, forcing: ForcingProfile, grid: np.ndarray
) -> Trajectory:
    """Sample the variation-of-parameters solution and its derivative,

        y(t) = −(t^(ν−1)/2ν) P(t) − (t^(−ν−1)/2ν) Q(t),
        P(t) = ∫_t^∞ r^(−ν) f dr,   Q(t) = ∫₀^t r^ν f dr.

    This is the particular solution that decays like 1/t; it differs from
    the bounded-at-0 solution by a multiple of t^(ν−1).  Sampled forcing
    must start at t = 0 and is integrated to its last sample; callable
    forcing is cut where the envelope bounds the tail by 1e-9.  The
    derivative is analytic in the two running integrals:
        y' = −((ν−1) t^(ν−2)/2ν) P(t) + ((1+ν) t^(−ν−2)/2ν) Q(t).
    """
    if not 0.0 < nu <= 1.0:
        raise DomainError(f"nu must lie in (0, 1], got {nu}")
    grid = np.asarray(grid, dtype=float)
    if grid[0] <= 0.0:
        raise DomainError("formula trajectories need a positive grid")
    cutoff, _ = forcing._cutoff(nu, None, _R_MAX)
    y = np.empty(grid.size, dtype=complex)
    yp = np.empty(grid.size, dtype=complex)
    for i, t in enumerate(grid):
        head = forcing._weighted(nu, 0.0, t)
        # the callable panel sum is empty (zero) once t reaches the cutoff
        tail = forcing._weighted(-nu, t, cutoff)
        y[i] = -(t ** (nu - 1.0)) / (2 * nu) * tail - t ** (-nu - 1.0) / (2 * nu) * head
        yp[i] = (
            -((nu - 1.0) * t ** (nu - 2.0)) / (2 * nu) * tail
            + ((1.0 + nu) * t ** (-nu - 2.0)) / (2 * nu) * head
        )
    lam = (1.0 - nu * nu) / 4.0
    meta = TrajectoryMeta(
        lam=lam, nu=nu, mode=ModePair(0, 0), y0=complex("nan"), startup="formula"
    )
    return Trajectory(grid=grid, y=y, y_prime=yp, meta=meta)


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
    reported, never raised.
    """
    mask = traj.grid >= 1.0
    t = traj.grid[mask]
    err = t * np.abs(traj.y[mask] - a_const * t ** (nu - 1.0))
    sup = float(np.max(err)) if err.size else 0.0
    hi = t[-1]
    win = (t >= hi / 10.0)
    tw, ew = t[win], err[win]
    if np.max(ew, initial=0.0) < 1e-300:
        slope = float("-inf")
    else:
        ew = np.maximum(ew, 1e-300)
        slope = float(np.polyfit(np.log(tw), np.log(ew), 1)[0])
    return TailReport(sup=sup, slope=slope, bounded=slope < 0.05)


def fit_tail_amplitude(traj: Trajectory, nu: float) -> complex:
    """Least-squares fit of y·t^(1−ν) = A + B·t^(−ν) over the top two decades."""
    hi = traj.grid[-1]
    mask = (traj.grid >= hi / 100.0) & (traj.grid <= hi)
    t = traj.grid[mask]
    target = traj.y[mask] * t ** (1.0 - nu)
    design = np.column_stack([np.ones_like(t), t ** (-nu)]).astype(complex)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return complex(coef[0])


def homogeneous_split(
    traj: Trajectory, nu: float, forcing: ForcingProfile, window: tuple = (2.0, 50.0)
) -> dict:
    """Fit master − formula against the homogeneous pair (t^(ν−1), t^(−ν−1)).

    The bounded master solution should equal the formula solution plus
    its tail amplitude times t^(ν−1) with no t^(−ν−1) component.
    """
    mask = (traj.grid >= window[0]) & (traj.grid <= window[1])
    t = traj.grid[mask]
    formula = particular_trajectory(nu, forcing, t)
    diff = traj.y[mask] - formula.y
    design = np.column_stack([t ** (nu - 1.0), t ** (-nu - 1.0)]).astype(complex)
    coef, *_ = np.linalg.lstsq(design, diff, rcond=None)
    resid = float(np.max(np.abs(diff - design @ coef)))
    return {"c_plus": complex(coef[0]), "c_minus": complex(coef[1]), "residual": resid}
