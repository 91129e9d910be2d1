"""Laplace-type integrals  ∫_U e^{T v(ξ)} a(ξ) dξ  and their expansions.

The phase v is smooth with v(0) = 0, v < 0 off the origin, and a positive
definite Hessian H = −D²v(0), so the integral admits the expansion

    I(T) = Σ_j c_j T^(−j−d/2),    c₀ = (2π)^{d/2} a(0) / √det H,

with only even Gaussian moments contributing.  Three routes to the
coefficients are provided: exact Morse normalization for quadratic,
radial, and one-dimensional phases; a quadrature oracle for I(T) itself;
and sequential Richardson extraction from sampled values.

The oracle is a cone rule (Duffy, SIAM J. Numer. Anal. 19, 1982): the box
splits into 2d pyramids with apex at the peak 0, so the concentration of
e^{T v} lives in one radial variable per pyramid, and each face needs one
fixed Gauss rule whatever T is.  Its sums are numpy pairwise sums, never
BLAS dot products, so its bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._stencils import (
    GRID_CAP,
    bracketed_roots,
    finite_difference_hessian,
    fornberg_weights,
    legendre_rule,
    monotone_inverse,
    quadratic_form,
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
# Relative refinement gap laplace_quadrature accepts; remainder_slope takes it
# as the noise floor of sampled values.
_QUAD_REL_TOL = 1e-10
# Coarse-level Gauss points per face axis of the cone rule, by rank; the fine
# level adds 8, and a rank-1 face is a point.  Read off the refinement gap of
# mixing models with random Grams (diagonal in [0.5, 2], |correlation| ≤ 0.5):
# at d = 2, 300 of 300 gap below 3e-12 with 28 or 32 points; at d = 3, 28 of 30
# pass at 24 points (the two misses, of condition about 6, gap 1.3e-10) and
# all 30 at 28, which costs about 1.3× the time.
_FACE_NODES = {2: 48, 3: 24}
_FACE_NODES_HIGH = 16


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
        fd = finite_difference_hessian(self.v, np.zeros(self.dim))
        if not np.allclose(-fd, self.hessian, rtol=1e-6, atol=1e-8):
            raise ModelValidityError("-D^2 v(0) does not match the declared hessian")


def _unit_amplitude(pts):
    return np.ones(pts.shape[0])


def quadratic_problem(hessian, a=None) -> PhaseProblem:
    """Exactly quadratic phase v = −½ ξᵀHξ."""
    hessian = np.atleast_2d(np.asarray(hessian, dtype=float))
    d = hessian.shape[0]
    box = np.full(d, 8.0 / math.sqrt(np.linalg.eigvalsh(hessian)[0]))
    v = lambda pts: -0.5 * quadratic_form(pts, hessian)
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
    q = lambda pts: 0.5 * quadratic_form(pts, hessian)
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


def _radial_edges(s0: float) -> np.ndarray:
    """Panel edges 0, s0, 2·s0, 4·s0, ... capped at 1."""
    edges = [0.0]
    w = min(s0, 1.0)
    while w < 1.0:
        edges.append(w)
        w *= 2.0
    edges.append(1.0)
    return np.array(edges)


def _cone_value(problem: PhaseProblem, T: np.ndarray, nodes: int, face_nodes: int):
    """Cone-rule values and integrand L¹ masses on the ladder T, from one rule
    graded for its largest T where v and a are evaluated once.

    The box splits into 2d pyramids with apex 0, one per face ξᵢ = ±uᵢ.
    With ξ = s·p, p on the face, dξ = uᵢ·s^{d−1} ds dp: the radial rule
    puts ``nodes`` Gauss points on each panel of ``_radial_edges``, and
    each face carries one ``face_nodes``-point Gauss tensor rule.  Points
    are in lex order of (face, s, face coordinates), the faces in the
    order +u₁, −u₁, +u₂, ...
    """
    d, u = problem.dim, problem.box
    # the ray through the centre of face i decays like e^{−T·Hᵢᵢuᵢ²·s²/2}
    kappa = float(np.max(np.diag(problem.hessian) * u * u))
    edges = _radial_edges(1.0 / math.sqrt(T.max(initial=1.0) * kappa))
    x_ref, w_ref = legendre_rule(nodes)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * x_ref).ravel()
    radial_w = (half[:, None] * w_ref).ravel() * s ** (d - 1)
    x_face, w_face = legendre_rule(face_nodes)
    # one face's (s, face coordinates) grid; the cap counts all 2d faces
    # before anything is allocated
    cap = GRID_CAP // (2 * d)
    face = tensor_grid([s] + [x_face] * (d - 1), cap)
    face_w = np.prod(tensor_grid([radial_w] + [w_face] * (d - 1), cap), axis=-1)
    pts = np.concatenate([
        np.insert(face[:, 1:], f // 2, 1.0 - 2.0 * (f % 2), axis=1) for f in range(2 * d)
    ])
    pts *= np.tile(face[:, 0], 2 * d)[:, None] * u
    weighted = np.tile(face_w * math.prod(u), 2 * d) * problem.a(pts)
    v = problem.v(pts)
    value, l1 = np.empty_like(T), np.empty_like(T)
    terms = np.empty_like(v)
    for k, t in enumerate(T):
        np.exp(np.multiply(t, v, out=terms), out=terms)
        terms *= weighted
        # np.sum, not np.dot: BLAS orders a dot product by its thread count
        value[k] = np.sum(terms)
        l1[k] = np.sum(np.abs(terms, out=terms))
    return value, l1


def laplace_quadrature(problem: PhaseProblem, t_value, nodes: int = 24):
    """∫_U e^{T v} a dξ by a cone rule: 2d pyramids with apex at the peak 0.

    Each pyramid is graded toward 0 in its one radial variable, by
    Gauss–Legendre panels that start at 1/√(T_max·κ), κ = maxᵢ Hᵢᵢuᵢ², and
    double in width, and carries a fixed Gauss tensor rule on its face (see
    :func:`_cone_value`).  The accuracy is a refinement-gap estimate, not
    a proven bound: two levels (``nodes`` and ``nodes + 8`` radial points
    per panel, with the face rule raised by 8 points per axis) must agree
    to ``_QUAD_REL_TOL``, measured against the integrand's L¹ mass so
    cancellation to an exact zero (odd amplitudes) passes cleanly.  A
    ladder of T values shares one rule per level and returns an array;
    each T keeps its own refinement-gap estimate.  A rule above the grid
    cap raises LatticeSizeError before anything is allocated.
    """
    T = np.asarray(t_value, dtype=float)
    if not np.all(np.isfinite(T) & (T >= 0.0)):
        raise DomainError("t_value must be finite and nonnegative")
    ladder = T.reshape(-1)
    face_nodes = _FACE_NODES.get(problem.dim, _FACE_NODES_HIGH)
    coarse, _ = _cone_value(problem, ladder, nodes, face_nodes)
    fine, l1 = _cone_value(problem, ladder, nodes + 8, face_nodes + 8)
    err = np.abs(fine - coarse)
    allowance = _QUAD_REL_TOL * np.abs(fine) + 5e-15 * l1  # roundoff floor on cancellation
    if np.any(err > allowance):
        k = np.flatnonzero(err > allowance)[0]
        achieved = float(err[k] / max(abs(fine[k]), 1e-300))
        raise QuadratureError(
            f"refinement levels disagree at T={ladder[k]}: "
            f"relative deviation {achieved:.3e} > {_QUAD_REL_TOL:.1e}",
            achieved=achieved,
        )
    return float(fine[0]) if T.ndim == 0 else fine.reshape(T.shape)


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
    # stage j multiplies the roundoff of g by up to T^j: a window's
    # increment at or below that floor is converged to roundoff
    noise = 1e3 * np.finfo(float).eps * float(np.max(np.abs(g)))
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
            candidates.append((best_inc, first_inc, est, noise * T[mask][-1] ** j))
        if not candidates:
            raise ConditioningError(
                f"no geometric decade ladder available for c_{j}",
                last_stable_order=j - 1,
                coefficients=coeffs[:j].copy(),
            )
        best_inc, first_inc, est, floor = min(candidates, key=lambda c: c[0])
        converged = best_inc <= max(0.3 * first_inc, 1e-12 * abs(est), floor)
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
