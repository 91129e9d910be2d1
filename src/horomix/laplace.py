"""Laplace-type integrals  ∫_U e^{T v(ξ)} a(ξ) dξ  and their expansions.

The phase v is smooth with v(0) = 0, v < 0 off the origin, and a positive
definite Hessian H = −D²v(0), so the integral admits the expansion

    I(T) = Σ_j c_j T^(−j−d/2),    c₀ = (2π)^{d/2} a(0) / √det H,

with only even Gaussian moments contributing.  Three routes are provided:
the Taylor series of a polynomial phase and amplitude paired with Gaussian
moments, exact up to rounding at every order; a quadrature oracle for I(T)
itself; and sequential Richardson extraction from sampled values.

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
    _cube_faces,
    columns,
    legendre_rule,
    quadratic_form,
    sweep_grid,
)
from .errors import (
    ConditioningError,
    DomainError,
    LatticeSizeError,
    ModelValidityError,
    QuadratureError,
    UnsupportedMorseClassError,
)

# Relative refinement gap laplace_quadrature accepts; remainder_slope takes it
# as the noise floor of sampled values.
_QUAD_REL_TOL = 1e-10
# Gauss points per radial panel of laplace_quadrature's coarse level.
_RADIAL_NODES = 24
# Floor of every cone-rule exponent T·v.  exp below about −708 gives a
# subnormal and below about −745 a zero, both on numpy's slow path; e^(−600)
# times any weight above 1e-47 is a normal float, where a floor of −707
# would still leave e^(−707)·w subnormal.
_EXP_FLOOR = -600.0
# Monomials in d variables up to the largest degree laplace_expand tracks
# (6·order_n for a phase with terms of degree 3 or 4) that it may hold;
# above this it refuses before it expands anything.  Phases with
# every cubic and quartic term took 1.3 s at d = 4, order 4 (20 475) and
# 1.9 s at d = 5, order 3 (33 649); d = 6, order 3 (134 596) took 7.5 s.
_SERIES_BUDGET = 50_000
# Points per axis of the caller's largest level at the first count of
# _face_count's ladder; laplace_quadrature takes that count at d = 1.
_FACE_FIRST = 24


def _face_count(coeff: float, m: np.ndarray, u: np.ndarray, cap: int, tol: float, extra: int):
    """``(n, largest, (w, wts, q))``: the face rule on the box ∏[−uᵢ, uᵢ] for
    a phase whose quadratic part is Q(ω) = coeff·ωᵀmω, where the caller's
    largest rule has n + ``extra`` points per axis.  The rule is that of
    :func:`_stencils._cube_faces` with n points per axis: the (2d, n^(d−1), d)
    ray directions w = u ⊙ p, their weights scaled by ∏uᵢ, and
    Q(w) = coeff·quadratic_form(w, m); ``largest`` is the largest n that fits.

    n is the first of 24 − extra (``_FACE_FIRST`` − extra), 32 − extra, ...
    whose rule meets the face identity
    Σ_faces ∫ Q(u⊙p)^(−d/2) dp = 2π^(d/2)/(Γ(d/2)·∏uᵢ·√det(coeff·m))
    to ``tol`` relative: the large-T limit of the cone rule's face integrand
    and the x → 0 limit of the cover density's, whose Gauss error the
    complex zeros of Q set (Trefethen, SIAM Review 50, 2008).  The largest
    rule has at least 24 points per axis: a 16-point one met the identity
    only to 2e-12 on a seeded rank-2 Gram, where the cover density is held
    to 1e-12 against its angular closed form.  A rank-1 face is one point,
    so d = 1 takes the first count and reports it as the largest.  A count
    fits where its n + extra points per axis do: the first puts at most
    ``cap`` points on a face, and every larger one at most ``cap``
    coordinates, d a point, so that a rule grows past the first only within
    the memory the cap stands for; and (n + extra)³ is at most GRID_CAP,
    since numpy builds an n-point Gauss rule by an n × n eigenproblem.
    Where the first does not fit, LatticeSizeError is raised before
    anything is allocated.  Gauss errors fall geometrically in n, so after
    each miss the last two errors predict the count that meets ``tol``;
    where that count does not fit, or the largest count that fits misses,
    QuadratureError is raised with the last error.  :func:`laplace_quadrature`
    does not call this at d = 1: it takes the first count there itself.
    """
    d = len(u)
    if _FACE_FIRST ** (d - 1) > cap:
        raise LatticeSizeError(
            f"face rule of {_FACE_FIRST} points per axis counts {_FACE_FIRST ** (d - 1)} "
            f"against the cap {cap}"
        )
    # counting coordinates past the first count keeps rank-4 mixing at 24
    # points per axis, about 2.4 GB of arrays at T = 1e4; counting points
    # would admit 32 on a correlated Gram, over 3.2 GB
    top = _FACE_FIRST
    while d > 1 and d * (top + 8) ** (d - 1) <= cap and (top + 8) ** 3 <= GRID_CAP:
        top += 8
    root_det = math.sqrt(float(np.linalg.det(coeff * m)))
    exact = 2.0 * math.pi ** (d / 2.0) / (math.gamma(d / 2.0) * root_det)
    prev = None
    for size in range(_FACE_FIRST, top + 1, 8):
        n = size - extra
        faces, wts = _cube_faces(d, n, math.prod(u))
        faces *= u
        q = coeff * quadratic_form(columns(faces), m)
        achieved = abs(np.sum(wts * q ** (-d / 2.0)) / exact - 1.0)
        if achieved <= tol:
            return n, top - extra, (faces, wts, q)
        if prev is not None and achieved < prev:
            need = size + 8 * math.ceil(math.log(tol / achieved) / math.log(achieved / prev))
            if need > top:
                raise QuadratureError(
                    f"the {n}-point face rule misses the face identity by "
                    f"{achieved:.3e} relative, and its rate of convergence puts a "
                    f"rule that meets {tol:.0e} at {need} points per axis, past {top}, "
                    f"the largest that fits the cap of {cap}",
                    achieved=achieved,
                )
        prev = achieved
    raise QuadratureError(
        f"the {n}-point face rule, the largest that fits the cap of {cap}, "
        f"misses the face identity by {achieved:.3e} relative",
        achieved=achieved,
    )


class Polynomial(dict):
    """Σ_k c_k ξ^k: a map from multi-index k (a tuple of d exponents) to
    its coefficient c_k, callable on an (N, d) array of points.

    Each term is evaluated as c_k·∏ᵢ ξᵢ^kᵢ, each power a product of
    repeated factors ((ξ·ξ)·ξ)··· shared by the terms of one call, in the
    order the map holds the terms, and the terms are added in that order.
    Multiplication is the same on every host, where the SIMD paths of pow
    are not, and an even power of −ξ has the bits of that power of ξ.
    """

    def __init__(self, coeffs):
        super().__init__(
            (tuple(int(e) for e in k), float(c)) for k, c in dict(coeffs).items()
        )
        if len({len(k) for k in self}) != 1 or any(e < 0 for k in self for e in k):
            raise DomainError(
                "polynomial terms need multi-indices of one length with entries >= 0"
            )

    @property
    def dim(self) -> int:
        return len(next(iter(self)))

    def __call__(self, pts):
        if pts.shape[-1] != self.dim:
            raise DomainError(f"polynomial in {self.dim} variables, points have {pts.shape[-1]}")
        powers = [[None, pts[:, i]] for i in range(self.dim)]  # ξᵢ^e at [i][e]
        out = np.zeros(pts.shape[0])
        for k, c in self.items():
            term = None  # c·ξᵢ^kᵢ from the first nonzero kᵢ on
            for col, ki in zip(powers, k):
                while len(col) <= ki:
                    col.append(col[-1] * col[1])
                if ki and term is None:
                    term = c * col[ki]
                elif ki:
                    term *= col[ki]
            out += c if term is None else term
        return out


def _moment(k: tuple, sigma: list, memo: dict) -> float:
    """E[ξᵏ] for ξ ~ N(0, Σ), by Stein's identity E[ξᵢ·f] = Σⱼ Σᵢⱼ·E[∂ⱼf]
    on f = ξ^(k − eᵢ), i the first nonzero entry of k; memoised in ``memo``."""
    if k in memo:
        return memo[k]
    if sum(k) % 2:
        return 0.0
    i = next(i for i, e in enumerate(k) if e)
    rest = list(k)
    rest[i] -= 1
    total = 0.0
    for j, e in enumerate(rest):
        if e:
            lower = rest.copy()
            lower[j] -= 1
            total += sigma[i][j] * e * _moment(tuple(lower), sigma, memo)
    memo[k] = total
    return total


def gaussian_moment(k) -> float:
    """∫_{R^d} e^{−‖θ‖²/2} θ^k dθ for a multi-index k.

    Zero when any entry is odd; otherwise ∏_i √(2π) (k_i − 1)!!.
    """
    k = tuple(int(v) for v in np.atleast_1d(k))
    if any(v < 0 for v in k):
        raise DomainError(f"multi-index entries must be >= 0, got {k}")
    d = len(k)
    identity = np.eye(d).tolist()
    return math.sqrt(2.0 * math.pi) ** d * _moment(k, identity, {(0,) * d: 1.0})


# ---------------------------------------------------------------------------
# phase problems
# ---------------------------------------------------------------------------


@dataclass
class PhaseProblem:
    """Phase/amplitude pair on a box, with the critical-point Hessian.

    ``v`` and ``a`` take (N, d) arrays and return (N,).  Where both are
    :class:`Polynomial`, :func:`laplace_expand` gives the expansion
    coefficients; any other callable (such as the mixing phase ν₀ − 1)
    has the quadrature and :func:`fit_expansion` only.
    """

    dim: int
    v: object
    a: object
    box: np.ndarray
    hessian: np.ndarray

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        self.hessian = np.atleast_2d(np.asarray(self.hessian, dtype=float))
        box = self.box
        if box.shape != (self.dim,) or not np.all((0.0 < box) & (box < math.inf)):
            raise DomainError("box must hold finite positive half-widths per dimension")
        if self.hessian.shape != (self.dim, self.dim):
            raise DomainError("hessian shape mismatch")
        if not np.all(np.isfinite(self.hessian)):
            raise DomainError("hessian entries must be finite")
        if np.linalg.eigvalsh(self.hessian)[0] <= 0.0:
            raise ModelValidityError("hessian H = -D^2 v(0) must be positive definite")
        if isinstance(self.v, Polynomial):
            if any(sum(k) < 2 and c != 0.0 for k, c in self.v.items()):
                raise ModelValidityError(
                    "the phase has a term of degree 0 or 1: its critical point is not at 0"
                )
        else:
            v0 = float(self.v(np.zeros((1, self.dim)))[0])
            if abs(v0) > 1e-12:
                raise ModelValidityError(f"v(0) must vanish, got {v0}")

    def validate(self) -> None:
        """Audit v < 0 off 0 on a sweep of the box (9 points per axis while
        the budget allows) and, for a :class:`Polynomial` phase, the declared
        Hessian against the −D²v(0) of :func:`_peak_hessian` (relative
        tolerance 1e-6)."""
        pts = sweep_grid(self.box, 9)
        vals = self.v(pts)
        interior = np.any(pts != 0.0, axis=1)
        if np.any(vals[interior] >= 0.0):
            raise ModelValidityError("phase audit failed: v(xi) >= 0 off the origin")
        if isinstance(self.v, Polynomial) and not np.allclose(
            _peak_hessian(self.v), self.hessian, rtol=1e-6, atol=1e-8
        ):
            raise ModelValidityError("-D^2 v(0) does not match the declared hessian")


def _peak_hessian(v: Polynomial) -> np.ndarray:
    """H = −D²v(0), read exactly from the degree-2 terms of ``v``."""
    d = v.dim
    hessian = np.zeros((d, d))
    for k, c in v.items():
        if sum(k) == 2:
            i, j = [m for m, e in enumerate(k) for _ in range(e)]
            hessian[i, j] = hessian[j, i] = -2.0 * c if i == j else -c
    return hessian


def quadratic_problem(hessian, a=None) -> PhaseProblem:
    """Exactly quadratic phase v = −½ ξᵀHξ, as a :class:`Polynomial`; the
    amplitude ``a`` defaults to 1."""
    hessian = np.atleast_2d(np.asarray(hessian, dtype=float))
    d = hessian.shape[0]
    box = np.full(d, 8.0 / math.sqrt(np.linalg.eigvalsh(hessian)[0]))
    unit = np.eye(d, dtype=int)
    v = {
        tuple(unit[i] + unit[j]): -0.5 * hessian[i, i] if i == j else -hessian[i, j]
        for i in range(d) for j in range(i, d) if hessian[i, j] != 0.0
    }
    a_fn = Polynomial({(0,) * d: 1.0}) if a is None else a
    return PhaseProblem(dim=d, v=Polynomial(v), a=a_fn, box=box, hessian=hessian)


def custom_problem(dim, v, a, hessian, box) -> PhaseProblem:
    """Polynomial phase and amplitude from maps of multi-index to
    coefficient (see :class:`Polynomial`)."""
    return PhaseProblem(dim=dim, v=Polynomial(v), a=Polynomial(a), box=box, hessian=hessian)


def preset_gauss1d() -> PhaseProblem:
    return quadratic_problem([[1.0]])


def preset_gauss2d() -> PhaseProblem:
    return quadratic_problem(np.eye(2))


def preset_quartic1d() -> PhaseProblem:
    """v = −ξ²/2 − ξ⁴/4 on [−3, 3], a = 1."""
    return custom_problem(1, {(2,): -0.5, (4,): -0.25}, {(0,): 1.0}, [[1.0]], [3.0])


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


def _cone_edges(problem: PhaseProblem, T: np.ndarray) -> np.ndarray:
    """Radial panel edges of the cone rule graded for the ladder's largest
    T: ``_radial_edges(1/√(T_max·κ))``, κ = maxᵢ Hᵢᵢuᵢ²."""
    # the ray through the centre of face i decays like e^{−T·Hᵢᵢuᵢ²·s²/2};
    # Python floats, so an overflow to inf is refused rather than warned
    u = problem.box.tolist()
    kappa = max(h * x * x for h, x in zip(np.diag(problem.hessian).tolist(), u))
    scale = float(T.max(initial=1.0)) * kappa
    if not math.isfinite(scale):
        raise DomainError(f"T_max·κ overflows float64 (κ = maxᵢ Hᵢᵢuᵢ² = {kappa})")
    return _radial_edges(1.0 / math.sqrt(scale))


def _cone_value(problem: PhaseProblem, T: np.ndarray, edges: np.ndarray, nodes: int,
                face_nodes: int):
    """Cone-rule values and integrand L¹ masses on the ladder T, from one rule
    on the radial panel ``edges`` (:func:`_cone_edges` of the ladder) where
    v and a are evaluated once.

    The box splits into 2d pyramids with apex 0, one per face ξᵢ = ±uᵢ.
    With ξ = s·p, p on the face, dξ = uᵢ·s^{d−1} ds dp: the radial rule
    puts ``nodes`` Gauss points on each panel, and each face carries one
    ``face_nodes``-point Gauss tensor rule, that of
    ``_stencils._cube_faces``, which the cover density shares.  The points
    form one (2d, s, face point, d) array, the faces in the order +u₁,
    −u₁, +u₂, ...; coordinate j of a point is pⱼ·(s·uⱼ) and its weight
    ((w_s·w₁)·w₂···)·∏u times a.

    Gauss nodes are antisymmetric, so the −uᵢ face holds the mirror images
    −p of the +uᵢ face's points with its face coordinates reversed.  Where
    v takes the same bits there (every even phase), each T exponentiates
    the + faces only and the − faces read a reversed view of them; any
    other phase exponentiates every face.  Where no weighted amplitude has
    its sign bit set, the L¹ mass is the value itself.  Every exponent T·v
    is floored at _EXP_FLOOR = −600 before its exp, so no exp or weight
    product is subnormal or zero; the exact sum moves by at most
    e^(−600)·Σ|w| ≈ 2.6e-261·Σ|w|.  The values and masses are bit for bit
    those of the plain rule, one unfloored exp per point and one pairwise
    np.sum over all 2d faces in lex order, on every case and T ladder up
    to 1e6 of tests/test_laplace.py's TestConeOracle, which also runs this
    rule with underflow raising.
    """
    d, u = problem.dim, problem.box
    x_ref, w_ref = legendre_rule(nodes)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * x_ref).ravel()
    radial_w = (half[:, None] * w_ref).ravel() * s ** (d - 1)
    # the cap counts all 2d faces before anything is allocated
    cap, per_face = GRID_CAP // (2 * d), s.size * face_nodes ** (d - 1)
    if per_face > cap:
        raise LatticeSizeError(f"cone rule has {per_face} points per face, above the cap {cap}")
    # one face is an (s, face point) grid; the ±1 coordinate times s·uᵢ is exact
    faces, face_w = _cube_faces(d, face_nodes, radial_w)
    pts = np.empty((2 * d, s.size, faces.shape[1], d))
    for j in range(d):
        np.multiply(faces[:, None, :, j], (s * u[j])[:, None], out=pts[..., j])
    pts = pts.reshape(-1, d)
    face_w = face_w * math.prod(u)
    weighted = (problem.a(pts).reshape(2 * d, -1) * face_w.reshape(-1)).reshape(d, 2, s.size, -1)
    v = problem.v(pts).reshape(d, 2, s.size, -1)
    mirrored = np.array_equal(v[:, 1], v[:, 0, :, ::-1])
    # the faces whose exponentials each T computes: the + faces, or all 2d
    src = np.ascontiguousarray(v[:, 0]) if mirrored else v.reshape(2 * d, s.size, -1)
    expo = np.empty_like(src)
    exp_plus, exp_minus = (expo, expo[..., ::-1]) if mirrored else (expo[0::2], expo[1::2])
    nonneg = not np.signbit(weighted).any()
    terms = np.empty_like(weighted)
    flat = terms.reshape(-1)
    value, l1 = np.empty_like(T), np.empty_like(T)
    # κ bounds only the quadratic part at the face centres, so T·v may still
    # overflow to −inf where T_max·κ is finite; the floor then takes it
    with np.errstate(over="ignore"):
        for k, t in enumerate(T):
            np.multiply(t, src, out=expo)
            np.exp(np.maximum(expo, _EXP_FLOOR, out=expo), out=expo)
            np.multiply(exp_plus, weighted[:, 0], out=terms[:, 0])
            np.multiply(exp_minus, weighted[:, 1], out=terms[:, 1])
            # np.sum, not np.dot: BLAS orders a dot product by its thread count
            value[k] = np.sum(flat)
            l1[k] = value[k] if nonneg else np.sum(np.abs(flat, out=flat))
    return value, l1


def laplace_quadrature(problem: PhaseProblem, t_value):
    """∫_U e^{T v} a dξ by a cone rule: 2d pyramids with apex at the peak 0.

    Each pyramid is graded toward 0 in its one radial variable, by
    Gauss–Legendre panels that start at 1/√(T_max·κ), κ = maxᵢ Hᵢᵢuᵢ², and
    double in width, and carries a Gauss tensor rule on its face (see
    :func:`_cone_value`) of n points per axis, n the first of 16, 24, ...
    that :func:`_face_count` finds meeting the face identity of the
    quadratic part ½ξᵀHξ to a tenth of ``_QUAD_REL_TOL``.  A rank-1 face
    is one point whatever n is, so d = 1 takes n = 16 without sizing it.
    The panel edges are computed once per call and shared by every level.
    The accuracy is a refinement-gap estimate, not a proven bound: two
    levels (_RADIAL_NODES and _RADIAL_NODES + 8 radial points per panel,
    with n and n + 8 face points per axis) must agree to ``_QUAD_REL_TOL``,
    measured against the integrand's L¹ mass so cancellation to an exact
    zero (odd amplitudes) passes cleanly; where they do not, both face
    levels step up by 8 once, if n + 8 is at most the largest count
    :func:`_face_count` reports fits (never at d = 1), before
    QuadratureError.  A ladder of T values shares one rule per level and
    returns an array; each T keeps its own refinement-gap estimate.  An even
    phase costs one exp per point pair ±p and T, and a non-negative
    amplitude one sum per T.  Exponents are floored at −600, which moves a
    sum by at most e^(−600)·Σ|w| ≈ 2.6e-261·Σ|w| over the rule's weighted
    amplitudes w; with that floor and both shortcuts the values keep the
    bits of the plain rule
    (TestConeOracle in tests/test_laplace.py).  Before the cone rule is
    built, a ladder whose T_max·κ overflows float64 raises DomainError; a
    fine level whose 24-point faces put more than GRID_CAP // (2d) points
    on a pyramid raises LatticeSizeError; and a face count that meets the
    identity but does not fit that cap, by the rate of convergence of the
    counts that do, raises QuadratureError; so do levels that still
    disagree after the step.
    """
    T = np.asarray(t_value, dtype=float)
    if not np.all(np.isfinite(T) & (T >= 0.0)):
        raise DomainError("t_value must be finite and nonnegative")
    ladder = T.reshape(-1)
    d = problem.dim
    edges = _cone_edges(problem, ladder)
    if d == 1:
        # a rank-1 face is one point: _face_count would take its first count
        face_nodes = largest = _FACE_FIRST - 8
    else:
        # the fine level is the larger rule: the face count is sized under its cap
        cap = GRID_CAP // (2 * d) // ((edges.size - 1) * (_RADIAL_NODES + 8))
        face_nodes, largest = _face_count(0.5, problem.hessian, problem.box, cap,
                                          0.1 * _QUAD_REL_TOL, 8)[:2]
    # The identity is the face rule's error at large T.  At the low end of
    # a ladder e^{T·v} is not yet negligible on the box faces, and where v
    # nears a singularity there (λ₀ → 1/4 at the corners of a mixing box)
    # that part's error ran to 400× the identity's at T = 1e2, which one
    # more step of 8 face points took below 1e-14.  One step is an
    # empirical bound: it sufficed for every d = 2 mix-verdict job of seven
    # seeds (about 1 in 600 needs it), and none of 360 seeded rank-3 mixing
    # models needed it.
    for step in (0, 8):
        n = face_nodes + step
        if n > largest:
            break
        coarse, _ = _cone_value(problem, ladder, edges, _RADIAL_NODES, n)
        fine, l1 = _cone_value(problem, ladder, edges, _RADIAL_NODES + 8, n + 8)
        err = np.abs(fine - coarse)
        allowance = _QUAD_REL_TOL * np.abs(fine) + 5e-15 * l1  # roundoff floor on cancellation
        if not np.any(err > allowance):
            return float(fine[0]) if T.ndim == 0 else fine.reshape(T.shape)
    k = np.flatnonzero(err > allowance)[0]
    achieved = float(err[k] / max(abs(fine[k]), 1e-300))
    raise QuadratureError(
        f"refinement levels disagree at T={ladder[k]}: "
        f"relative deviation {achieved:.3e} > {_QUAD_REL_TOL:.1e}",
        achieved=achieved,
    )


# ---------------------------------------------------------------------------
# expansion coefficients
# ---------------------------------------------------------------------------


@dataclass
class ExpansionCoefficients:
    c: np.ndarray
    fit_residual: float = 0.0
    dim: int = 1

    def reconstruct(self, T) -> np.ndarray:
        T = np.asarray(T, dtype=float)
        out = np.zeros_like(T)
        for j, cj in enumerate(self.c):
            out = out + cj * T ** (-(j + self.dim / 2.0))
        return out


def _truncated_product(p: dict, q: dict, max_degree: int, scale: float) -> dict:
    """scale·p·q without the terms of degree above ``max_degree``."""
    out = {}
    for kp, cp in p.items():
        room = max_degree - sum(kp)
        for kq, cq in q.items():
            if sum(kq) <= room:
                k = tuple(x + y for x, y in zip(kp, kq))
                out[k] = out.get(k, 0.0) + cp * cq * scale
    return out


def _series_degree(a: Polynomial, rest: dict, order_n: int) -> int:
    """Largest degree of a monomial that :func:`laplace_expand` tracks: the
    terms of a·Rⁿ/n! (n ≤ 2N, and n = 0 alone where R = 0) have degrees
    from lo(a) + n·lo(R) to hi(a) + n·hi(R), cut at 2(N + n); 0 where no
    term is tracked."""
    a_deg = [sum(k) for k, c in a.items() if c != 0.0]
    if not a_deg:
        return 0
    r_deg = [sum(k) for k in rest] or [0]
    a_lo, a_hi, r_lo, r_hi = min(a_deg), max(a_deg), min(r_deg), max(r_deg)
    top = 0
    for n in range(2 * order_n + 1 if rest else 1):
        high = min(a_hi + n * r_hi, 2 * (order_n + n))
        if a_lo + n * r_lo <= high:
            top = max(top, high)
    return top


def laplace_expand(problem: PhaseProblem, order_n: int) -> ExpansionCoefficients:
    """c₀ … c_N of I(T) ~ Σ c_j T^(−j−d/2) over ℝᵈ, from the Taylor series
    of a polynomial phase and amplitude (Hörmander, *The Analysis of Linear
    Partial Differential Operators I*, Thm 7.7.5).

    With v = −½ξᵀHξ + R, R the terms of degree ≥ 3 and H read off v's
    degree-2 terms, a·e^{T·R} = Σₙ a·(T·R)ⁿ/n!.  A monomial ξᵏ of a·Rⁿ/n!
    adds its coefficient times (2π)^{d/2}·det(H)^{−1/2}·E[ξᵏ], ξ ~ N(0, H⁻¹),
    to c_j with j = |k|/2 − n; odd |k| add nothing, and only n ≤ 2j and
    |k| ≤ 6j reach c_j.  The moments come from Stein's recursion
    (:func:`_moment`).  The box cut is exponentially small in T and is not
    part of the series.

    A phase or amplitude that is not a :class:`Polynomial` raises
    UnsupportedMorseClassError.  Where the monomials in d variables up to
    the largest degree the series tracks (:func:`_series_degree`, at most
    6·order_n) outnumber _SERIES_BUDGET, LatticeSizeError is raised before
    anything is expanded; a v with H not positive definite raises
    ModelValidityError, and :class:`PhaseProblem` refuses a v with a
    nonzero term of degree 0 or 1 (a critical point off 0).
    """
    if order_n < 0:
        raise DomainError("order_n must be >= 0")
    v, a, d = problem.v, problem.a, problem.dim
    if not (isinstance(v, Polynomial) and isinstance(a, Polynomial)):
        raise UnsupportedMorseClassError(
            "the series needs a polynomial phase and amplitude; "
            "sample laplace_quadrature and use fit_expansion instead"
        )
    rest = {k: c for k, c in v.items() if sum(k) >= 3 and c != 0.0}
    monomials = math.comb(_series_degree(a, rest, order_n) + d, d)
    if monomials > _SERIES_BUDGET:
        raise LatticeSizeError(
            f"series of order {order_n} in {d} variables tracks {monomials} "
            f"monomials, above the budget {_SERIES_BUDGET}"
        )
    hessian = _peak_hessian(v)
    if np.linalg.eigvalsh(hessian)[0] <= 0.0:
        raise ModelValidityError("the phase's degree-2 terms are not negative definite")
    sigma = np.linalg.inv(hessian).tolist()
    memo = {(0,) * d: 1.0}
    c = np.zeros(order_n + 1)
    # a·Rⁿ/n!, without the terms of degree above 2(N + n), which reach no c_j
    term = {k: x for k, x in a.items() if sum(k) <= 2 * order_n}
    for n in range(2 * order_n + 1):
        if n:
            term = _truncated_product(term, rest, 2 * (order_n + n), 1.0 / n)
        for k, x in term.items():
            degree = sum(k)
            if degree % 2 == 0:
                c[degree // 2 - n] += x * _moment(k, sigma, memo)
    c *= gaussian_moment((0,) * d) / math.sqrt(float(np.linalg.det(hessian)))
    return ExpansionCoefficients(c=c, dim=d)


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


def _sorted_samples(samples):
    """(T, I) of sampled values, sorted by T.  Anything but an (M, 2) array,
    M ≥ 1, of finite values with every T > 0 raises DomainError before any
    arithmetic."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] == 0:
        raise DomainError("samples must be an (M, 2) array of (T, I), M >= 1")
    if not (np.all(np.isfinite(samples)) and np.all(samples[:, 0] > 0.0)):
        raise DomainError("samples must be finite, with every T > 0")
    order = np.argsort(samples[:, 0])
    return samples[order, 0], samples[order, 1]


def fit_expansion(samples, dim: int, order_n: int) -> ExpansionCoefficients:
    """Sequential extraction of c₀ … c_N from samples (T, I(T)).

    Each stage Richardson-extrapolates T^{d/2}·(residual) on a geometric
    decade ladder, then divides the residual by 1/T and repeats.  The
    decade is chosen per stage as the one whose ladder converges best:
    subtraction noise grows like T^j, so later coefficients are extracted
    from lower decades (always using the top decade would amplify the
    roundoff of earlier stages past any useful tolerance).  A stage with
    no internally converging ladder raises ConditioningError carrying the
    last stable order.  A negative order_n raises DomainError, as do
    samples that are not an (M, 2) array of finite values with every
    T > 0 (:func:`_sorted_samples`).
    """
    if order_n < 0:
        raise DomainError("order_n must be >= 0")
    T, vals = _sorted_samples(samples)
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
    fit = ExpansionCoefficients(c=coeffs, dim=dim)
    fit.fit_residual = float(np.max(np.abs(fit.reconstruct(T) - vals)))
    return fit


def remainder_slope(samples, coeffs: ExpansionCoefficients, n_terms: int) -> float:
    """Log-log slope of |I(T) − Σ_{j<n_terms} c_j T^{−j−d/2}|.

    Measured over the highest sample decade whose remainder sits above
    20× the relative noise floor of the samples; −inf when the remainder
    is unmeasurable at that floor everywhere.  Samples are checked as in
    :func:`fit_expansion`.
    """
    T, vals = _sorted_samples(samples)
    partial = ExpansionCoefficients(c=coeffs.c[:n_terms], dim=coeffs.dim)
    resid = np.abs(vals - partial.reconstruct(T))
    above = resid > 20.0 * _QUAD_REL_TOL * np.abs(vals)
    if not np.any(above):
        return float("-inf")
    t_hi = T[above][-1]
    window = above & (T >= t_hi / 10.0000001) & (T <= t_hi * 1.0000001)
    if np.count_nonzero(window) < 3:
        return float("-inf")
    return float(np.polyfit(np.log(T[window]), np.log(resid[window]), 1)[0])
