"""Laplace-type integrals  ∫_U e^{T v(ξ)} a(ξ) dξ  and their expansions.

The phase v is smooth with v(0) = 0, v < 0 off the origin, and a positive
definite Hessian H = −D²v(0), so the integral admits the expansion

    I(T) = Σ_j c_j T^(−j−d/2),    c₀ = (2π)^{d/2} a(0) / √det H,

with only even Gaussian moments contributing.  Three routes to the
coefficients are provided: exact Morse normalization for quadratic,
radial, and one-dimensional phases; a panel quadrature oracle for I(T)
itself; and sequential Richardson extraction from sampled values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._stencils import (
    bracketed_roots,
    finite_difference_hessian,
    fornberg_weights,
    monotone_inverse,
    sweep_grid,
    tensor_grid,
)
from .errors import (
    ConditioningError,
    DomainError,
    ModelValidityError,
    QuadratureError,
    UnsupportedMorseClassError,
)

_MAX_EXPANSION_ORDER = 4  # finite differences above D^8 b are not stable
# Relative accuracy laplace_quadrature certifies; remainder_slope takes it
# as the noise floor of sampled values.
_QUAD_REL_TOL = 1e-10


def _double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def gaussian_moment(k) -> float:
    """∫_{R^d} e^{−‖θ‖²/2} θ^k dθ for a multi-index k.

    Zero when any entry is odd; otherwise ∏_i √(2π) (k_i − 1)!!.
    """
    k = tuple(int(v) for v in np.atleast_1d(k))
    if any(v < 0 for v in k):
        raise DomainError(f"multi-index entries must be >= 0, got {k}")
    if any(v % 2 for v in k):
        return 0.0
    out = 1.0
    for v in k:
        out *= math.sqrt(2.0 * math.pi) * _double_factorial(v - 1)
    return out


# ---------------------------------------------------------------------------
# phase problems
# ---------------------------------------------------------------------------


@dataclass
class PhaseProblem:
    """Phase/amplitude pair on a box, with the critical-point Hessian.

    ``v`` and ``a`` take (N, d) arrays and return (N,).  ``morse`` tags
    the normalization class available to :func:`laplace_expand`:
    "quadratic", "radial" (v = φ(½ξᵀHξ)), "oned", or None (quadrature and
    :func:`fit_expansion` only).
    """

    dim: int
    v: object
    a: object
    box: np.ndarray
    hessian: np.ndarray
    morse: str | None = None
    phi: object = None
    phi_prime: object = None

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        self.hessian = np.atleast_2d(np.asarray(self.hessian, dtype=float))
        if self.box.shape != (self.dim,) or np.any(self.box <= 0):
            raise DomainError("box must hold positive half-widths per dimension")
        if self.hessian.shape != (self.dim, self.dim):
            raise DomainError("hessian shape mismatch")
        if np.linalg.eigvalsh(self.hessian)[0] <= 0.0:
            raise ModelValidityError("hessian H = -D^2 v(0) must be positive definite")
        v0 = float(self.v(np.zeros((1, self.dim)))[0])
        if abs(v0) > 1e-12:
            raise ModelValidityError(f"v(0) must vanish, got {v0}")

    def validate(self) -> None:
        """Audit v < 0 off 0 on a sweep of the box (9 points per axis while
        the budget allows) and the Hessian against finite differences
        (relative tolerance 1e-6)."""
        pts = sweep_grid(self.box, 9)
        vals = self.v(pts)
        interior = np.any(pts != 0.0, axis=1)
        if np.any(vals[interior] >= 0.0):
            raise ModelValidityError("phase audit failed: v(xi) >= 0 off the origin")
        fd = finite_difference_hessian(
            lambda x: self.v(x.reshape(1, self.dim))[0], np.zeros(self.dim)
        )
        if not np.allclose(-fd, self.hessian, rtol=1e-6, atol=1e-8):
            raise ModelValidityError("-D^2 v(0) does not match the declared hessian")


def _unit_amplitude(pts):
    return np.ones(pts.shape[0])


def quadratic_problem(hessian, a=None) -> PhaseProblem:
    """Exactly quadratic phase v = −½ ξᵀHξ."""
    hessian = np.atleast_2d(np.asarray(hessian, dtype=float))
    d = hessian.shape[0]
    box = np.full(d, 8.0 / math.sqrt(np.linalg.eigvalsh(hessian)[0]))
    v = lambda pts: -0.5 * np.einsum("ni,ij,nj->n", pts, hessian, pts)
    a_fn = _unit_amplitude if a is None else a
    return PhaseProblem(dim=d, v=v, a=a_fn, box=box, hessian=hessian, morse="quadratic")


def radial_problem(hessian, phi, phi_prime, box=None) -> PhaseProblem:
    """Radial phase v = φ(q), q = ½ ξᵀHξ, with φ(0) = 0 and φ'(0) = −1."""
    hessian = np.atleast_2d(np.asarray(hessian, dtype=float))
    d = hessian.shape[0]
    if abs(phi(0.0)) > 1e-14 or abs(phi_prime(0.0) + 1.0) > 1e-10:
        raise ModelValidityError("radial phase needs phi(0) = 0 and phi'(0) = -1")
    if box is None:
        box = np.full(d, 8.0 / math.sqrt(np.linalg.eigvalsh(hessian)[0]))
    q = lambda pts: 0.5 * np.einsum("ni,ij,nj->n", pts, hessian, pts)
    v = lambda pts: phi(q(pts))
    return PhaseProblem(
        dim=d, v=v, a=_unit_amplitude, box=box, hessian=hessian,
        morse="radial", phi=phi, phi_prime=phi_prime,
    )


def oned_problem(v, hessian, box=None) -> PhaseProblem:
    """General one-dimensional phase; normalized by θ(ξ) = sgn(ξ)√(−2v)."""
    h = float(np.atleast_2d(np.asarray(hessian, float))[0, 0])
    if box is None:
        box = np.array([8.0 / math.sqrt(h)])
    return PhaseProblem(
        dim=1, v=v, a=_unit_amplitude, box=np.atleast_1d(box), hessian=[[h]],
        morse="oned",
    )


def custom_problem(dim, v, a, hessian, box) -> PhaseProblem:
    return PhaseProblem(dim=dim, v=v, a=a, box=box, hessian=hessian, morse=None)


def preset_gauss1d() -> PhaseProblem:
    return quadratic_problem([[1.0]])


def preset_gauss2d() -> PhaseProblem:
    return quadratic_problem(np.eye(2))


def preset_quartic1d() -> PhaseProblem:
    phi = lambda q: -q - q * q
    phi_p = lambda q: -1.0 - 2.0 * q
    return radial_problem([[1.0]], phi, phi_p, box=np.array([3.0]))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------


def _panel_edges(half_width: float, core: float) -> np.ndarray:
    """Symmetric edges 0, ±core, ±2·core, ±4·core, ... capped at ±half_width."""
    edges = [0.0]
    w = min(core, half_width)
    while w < half_width:
        edges.append(w)
        w *= 2.0
    edges.append(half_width)
    pos = np.array(edges)
    return np.concatenate([-pos[::-1][:-1], pos])


def _tensor_value(problem: PhaseProblem, T: float, nodes: int, ratio: float):
    """Panel tensor quadrature value and the L¹ mass of the integrand."""
    d = problem.dim
    diag = np.sqrt(np.diag(problem.hessian))
    core = ratio / (diag * math.sqrt(max(T, 1.0)))
    x_ref, w_ref = leggauss(nodes)
    per_dim = []
    for i in range(d):
        edges = _panel_edges(problem.box[i], core[i])
        pts, wts = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            # not _stencils.gauss_legendre: mid + half·x makes the nodes of
            # mirrored panels exact negatives, and the output bits rely on it
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            pts.append(mid + half * x_ref)
            wts.append(half * w_ref)
        per_dim.append((np.concatenate(pts), np.concatenate(wts)))
    pts = tensor_grid([p for p, _ in per_dim])
    wts = np.prod(tensor_grid([w for _, w in per_dim]), axis=-1)
    integrand = np.exp(T * problem.v(pts)) * problem.a(pts)
    return float(np.dot(wts, integrand)), float(np.dot(np.abs(wts), np.abs(integrand)))


def laplace_quadrature(
    problem: PhaseProblem,
    t_value: float,
    nodes: int = 24,
    panel_ratio: float = 1.0,
) -> float:
    """∫_U e^{T v} a dξ by Gauss–Legendre tensor panels refined toward 0.

    The result is certified by agreement of two refinement levels
    (``nodes`` and ``nodes + 8`` points per panel) to ``_QUAD_REL_TOL``,
    measured against the integrand's L¹ mass so cancellation to an exact
    zero (odd amplitudes) certifies cleanly.
    """
    if t_value < 0.0:
        raise DomainError("t_value must be nonnegative")
    coarse, _ = _tensor_value(problem, t_value, nodes, panel_ratio)
    fine, l1 = _tensor_value(problem, t_value, nodes + 8, panel_ratio)
    err = abs(fine - coarse)
    allowance = _QUAD_REL_TOL * abs(fine) + 5e-15 * l1  # roundoff floor on cancellation
    if err > allowance:
        achieved = err / max(abs(fine), 1e-300)
        raise QuadratureError(
            f"refinement levels disagree at T={t_value}: "
            f"relative deviation {achieved:.3e} > {_QUAD_REL_TOL:.1e}",
            achieved=achieved,
        )
    return fine


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------


@dataclass
class ExpansionCoefficients:
    order_n: int
    c: np.ndarray
    fit_residual: float = 0.0
    dim: int = 1

    def reconstruct(self, T) -> np.ndarray:
        T = np.asarray(T, dtype=float)
        out = np.zeros_like(T)
        for j, cj in enumerate(self.c):
            out = out + cj * T ** (-(j + self.dim / 2.0))
        return out


def _tensor_derivative(fn, k: tuple) -> float:
    """D^k fn(0) by tensorized central stencils, Richardson-refined.

    The value at 0 is subtracted before the stencil is applied so the
    constant mode cancels exactly instead of through the (large) weights.
    """
    f0 = float(fn(np.zeros((1, len(k))))[0])

    def at(step):
        axes, weights = [], []
        for ki in k:
            m = (ki + 4) // 2 + 1
            nodes = np.arange(-m, m + 1) * step
            axes.append(nodes)
            weights.append(fornberg_weights(nodes, 0.0, ki)[:, ki])
        pts = tensor_grid(axes)
        wts = np.prod(tensor_grid(weights), axis=-1)
        return float(np.dot(wts, fn(pts) - f0))

    h = 0.05
    coarse, fine = at(h), at(h / 2)
    return (16.0 * fine - coarse) / 15.0


def _even_multi_indices(total: int, dim: int):
    """All multi-indices with even entries summing to 2·total."""

    def comps(s, parts):
        if parts == 1:
            yield (s,)
            return
        for first in range(s + 1):
            for rest in comps(s - first, parts - 1):
                yield (first,) + rest

    for comp in comps(total, dim):
        yield tuple(2 * c for c in comp)


def _pushforward_amplitude(problem: PhaseProblem):
    """b(θ) = a(ρ(θ)) · det Dρ(θ) for the supported Morse classes."""
    d = problem.dim
    H = problem.hessian
    L = np.linalg.cholesky(H)
    l_inv = np.linalg.inv(L)
    det_fac = 1.0 / math.sqrt(float(np.linalg.det(H)))

    if problem.morse == "quadratic":

        def b(theta):
            xi = theta @ l_inv
            return problem.a(xi) * det_fac

        return b

    if problem.morse == "radial":
        phi, phi_p = problem.phi, problem.phi_prime

        def b(theta):
            # ξ = g·θ·L⁻¹ with ½|ξ|²_H = q̂, where φ(q̂) = −½|θ|² (φ decreasing)
            s = np.linalg.norm(theta, axis=1)
            qhat = monotone_inverse(
                lambda q: -phi(q), 0.5 * s * s, xtol=1e-15, rtol=1e-15
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                r = np.sqrt(2.0 * qhat)
                g = np.where(s < 1e-300, 1.0, r / s)
                rp = np.where(s < 1e-300, 1.0, -s / (phi_p(qhat) * r))
            xi = (theta * g[:, None]) @ l_inv
            return problem.a(xi) * det_fac * g ** (d - 1) * rp

        return b

    if problem.morse == "oned":
        vfun = problem.v
        u = float(problem.box[0])

        def v_at(xi):
            return vfun(xi[:, None])

        def b(theta):
            # ξ = ρ(θ) solves sgn(ξ)·√(−2v(ξ)) = θ on the half-box of θ's sign
            th = theta[:, 0]
            xi = bracketed_roots(
                lambda x: np.copysign(np.sqrt(np.maximum(-2.0 * v_at(x), 0.0)), x) - th,
                np.where(th > 0.0, 0.0, -u), np.where(th > 0.0, u, 0.0),
                xtol=1e-15, rtol=8.9e-16,
            )
            h_fd = 1e-6
            vp = (v_at(xi + h_fd) - v_at(xi - h_fd)) / (2 * h_fd)
            # theta'(xi) = -v' / (sgn(xi)·sqrt(-2v)); rho'(theta) = 1/theta'
            with np.errstate(divide="ignore", invalid="ignore"):
                tp = -vp / np.copysign(np.sqrt(-2.0 * v_at(xi)), xi)
                out = problem.a(xi[:, None]) / tp
            at_zero = float(problem.a(np.zeros((1, 1)))[0]) / math.sqrt(float(H[0, 0]))
            return np.where(np.abs(th) < 1e-300, at_zero, out)

        return b

    raise UnsupportedMorseClassError(
        "phase outside the quadratic/radial/1-d normalization classes; "
        "sample laplace_quadrature and use fit_expansion instead"
    )


def laplace_expand(problem: PhaseProblem, order_n: int) -> ExpansionCoefficients:
    """Expansion coefficients through the Morse chart.

    c_j pairs the even Taylor coefficients of the pushforward amplitude
    with Gaussian moments; odd orders vanish identically.  Orders above 4
    are refused (the stencil differentiation is no longer trustworthy).
    """
    if order_n < 0:
        raise DomainError("order_n must be >= 0")
    if order_n > _MAX_EXPANSION_ORDER:
        raise DomainError(f"order_n capped at {_MAX_EXPANSION_ORDER}")
    b = _pushforward_amplitude(problem)
    d = problem.dim
    c = np.zeros(order_n + 1)
    c[0] = float(b(np.zeros((1, d)))[0]) * gaussian_moment((0,) * d)
    for j in range(1, order_n + 1):
        total = 0.0
        for k in _even_multi_indices(j, d):
            moment = gaussian_moment(k)
            if moment == 0.0:
                continue
            deriv = _tensor_derivative(b, k)
            fact = 1.0
            for ki in k:
                fact *= math.factorial(ki)
            total += deriv / fact * moment
        c[j] = total
    return ExpansionCoefficients(order_n=order_n, c=c, dim=d)


# ---------------------------------------------------------------------------
# coefficient extraction from samples
# ---------------------------------------------------------------------------


def _richardson_ladder(x: np.ndarray, g: np.ndarray):
    """Limit of g(x) = c₀ + c₁x + ... as x → 0 on a geometric ladder.

    Returns (estimate, first increment, best increment); the estimate is
    the tableau entry, at most six levels deep, where increments stop
    improving.
    """
    ratios = x[:-1] / x[1:]
    rho = float(np.exp(np.mean(np.log(ratios))))
    if np.max(np.abs(ratios / rho - 1.0)) > 1e-6:
        raise ConditioningError("sample ladder is not geometric in T")
    tableau = [np.asarray(g, dtype=float)]
    depth = min(6, x.size - 1)
    for mth in range(1, depth + 1):
        prev = tableau[-1]
        fac = rho**mth
        tableau.append((fac * prev[1:] - prev[:-1]) / (fac - 1.0))
    diag = np.array([t[-1] for t in tableau])
    increments = np.abs(np.diff(diag))
    if increments.size == 0:
        return float(diag[-1]), 0.0, 0.0
    best = int(np.argmin(increments)) + 1
    return float(diag[best]), float(increments[0]), float(increments[best - 1])


def fit_expansion(samples, dim: int, order_n: int) -> ExpansionCoefficients:
    """Sequential extraction of c₀ … c_N from samples (T, I(T)).

    Each stage Richardson-extrapolates T^{d/2}·(residual) on a geometric
    decade ladder, then divides the residual by 1/T and repeats.  The
    decade is chosen per stage as the one whose ladder converges best:
    subtraction noise grows like T^j, so later coefficients are extracted
    from lower decades (always using the top decade would amplify the
    roundoff of earlier stages past any useful tolerance).  A stage with
    no internally converging ladder raises ConditioningError carrying the
    last stable order.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2:
        raise DomainError("samples must be an (M, 2) array of (T, I)")
    order = np.argsort(samples[:, 0])
    T = samples[order, 0]
    vals = samples[order, 1]
    if T[-1] / T[0] < 99.999:
        raise DomainError("samples must span at least two decades of T")
    if T.size < 2 * (order_n + 1):
        raise DomainError(f"need at least {2 * (order_n + 1)} samples")

    x = 1.0 / T
    n_windows = int(math.floor(math.log10(T[-1] / T[0]) + 1e-9))
    windows = []
    for s in range(n_windows):
        hi = T[-1] / 10.0**s
        mask = (T >= hi / 10.0000001) & (T <= hi * 1.0000001)
        if np.count_nonzero(mask) >= 4:
            windows.append(mask)
    if not windows:
        raise DomainError("no decade window holds at least 4 samples")

    g = vals * T ** (dim / 2.0)
    coeffs = np.zeros(order_n + 1)
    for j in range(order_n + 1):
        candidates = []
        for mask in windows:
            try:
                est, first_inc, best_inc = _richardson_ladder(
                    x[mask][::-1], g[mask][::-1]
                )
            except ConditioningError:
                continue
            candidates.append((best_inc, first_inc, est))
        if not candidates:
            raise ConditioningError(
                f"no geometric decade ladder available for c_{j}",
                last_stable_order=j - 1,
                coefficients=coeffs[:j].copy(),
            )
        best_inc, first_inc, est = min(candidates, key=lambda c: c[0])
        converged = best_inc <= max(0.3 * first_inc, 1e-12 * abs(est))
        if not converged:
            raise ConditioningError(
                f"extraction of c_{j} is unstable",
                last_stable_order=j - 1,
                coefficients=coeffs[:j].copy(),
            )
        coeffs[j] = est
        g = (g - est) * T
    fit = ExpansionCoefficients(order_n=order_n, c=coeffs, dim=dim)
    fit.fit_residual = float(np.max(np.abs(fit.reconstruct(T) - vals)))
    return fit


def remainder_slope(samples, coeffs: ExpansionCoefficients, n_terms: int) -> float:
    """Log-log slope of |I(T) − Σ_{j<n_terms} c_j T^{−j−d/2}|.

    Measured over the highest sample decade whose remainder sits above
    20× the relative noise floor of the samples; −inf when the remainder
    is unmeasurable at that floor everywhere.
    """
    samples = np.asarray(samples, dtype=float)
    order = np.argsort(samples[:, 0])
    T, vals = samples[order, 0], samples[order, 1]
    partial = ExpansionCoefficients(
        order_n=n_terms - 1, c=coeffs.c[:n_terms], dim=coeffs.dim
    )
    resid = np.abs(vals - partial.reconstruct(T))
    above = resid > 20.0 * _QUAD_REL_TOL * np.abs(vals)
    if not np.any(above):
        return float("-inf")
    t_hi = T[above][-1]
    window = above & (T >= t_hi / 10.0000001) & (T <= t_hi * 1.0000001)
    if np.count_nonzero(window) < 3:
        return float("-inf")
    return float(np.polyfit(np.log(T[window]), np.log(resid[window]), 1)[0])
