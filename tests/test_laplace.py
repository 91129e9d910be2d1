import math
import time
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest

from horomix import laplace
from horomix.corr_ode import log_grid
from horomix.errors import (
    ConditioningError,
    DomainError,
    LatticeSizeError,
    ModelValidityError,
    QuadratureError,
    UnsupportedMorseClassError,
)
from horomix.laplace import (
    ExpansionCoefficients,
    Polynomial,
    custom_problem,
    fit_expansion,
    gaussian_moment,
    laplace_expand,
    laplace_quadrature,
    preset_gauss1d,
    preset_gauss2d,
    preset_quartic1d,
    quadratic_problem,
    remainder_slope,
)
from horomix.mixing import MixingProblem, induced_phase_problem
from horomix.spectral_model import Perturbation, SpectralModel
import morse_chart
from cone_plain import plain_cone_value
from tensor_panels import tensor_quadrature

S2PI = math.sqrt(2.0 * math.pi)


def _dfact(n):
    out = 1
    while n > 1:
        out, n = out * n, n - 2
    return out


class TestGaussianMoments:
    def test_normalizing_integral(self):
        assert gaussian_moment((0,)) == pytest.approx(S2PI, rel=1e-15)

    def test_odd_vanishes(self):
        assert gaussian_moment((1, 3)) == 0.0

    def test_fourth_moment(self):
        assert gaussian_moment((4,)) == pytest.approx(3 * S2PI, rel=1e-15)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_all_multi_indices_up_to_eight(self, dim):
        for k in product(range(9), repeat=dim):
            if sum(k) > 8:
                continue
            got = gaussian_moment(k)
            if any(v % 2 for v in k):
                assert got == 0.0
            else:
                expected = math.prod(S2PI * _dfact(v - 1) for v in k)
                assert got == pytest.approx(expected, rel=1e-13)

    def test_negative_entry_rejected(self):
        with pytest.raises(DomainError):
            gaussian_moment((-2,))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_covariance_moments_match_isserlis(self, dim):
        # E[ξᵏ] for ξ ~ N(0, Σ) is the sum over perfect matchings of the
        # factors of ξᵏ of the product of Σ over the matched pairs
        def matchings(idx):
            if not idx:
                yield 1.0
                return
            first, rest = idx[0], idx[1:]
            for m, partner in enumerate(rest):
                for tail in matchings(rest[:m] + rest[m + 1:]):
                    yield sigma[first][partner] * tail

        rng = np.random.default_rng(17)
        L = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
        sigma = (L @ L.T).tolist()
        memo = {(0,) * dim: 1.0}
        for k in product(range(7), repeat=dim):
            if sum(k) > 6:
                continue
            idx = [i for i, e in enumerate(k) for _ in range(e)]
            expected = math.fsum(matchings(idx)) if len(idx) % 2 == 0 else 0.0
            got = laplace._moment(k, sigma, memo)
            assert got == pytest.approx(expected, rel=1e-13, abs=1e-13), k


class TestPolynomial:
    def test_matches_term_by_term_powers(self):
        p = Polynomial({(0, 0): 0.5, (3, 0): -1.25, (1, 4): 2.0, (2, 2): 0.75, (0, 7): -0.1})
        pts = np.random.default_rng(23).uniform(-2.0, 2.0, (200, 2))
        terms = [c * pts[:, 0] ** k[0] * pts[:, 1] ** k[1] for k, c in p.items()]
        scale = np.sum(np.abs(terms), axis=0)
        assert np.all(np.abs(p(pts) - np.sum(terms, axis=0)) <= 1e-15 * scale)
        # the documented order, bit for bit: ((c·ξ₁^k₁)·ξ₂^k₂), each power
        # ((ξ·ξ)·ξ)···, the terms added in map order to zeros
        def power(x, e):
            out = x
            for _ in range(e - 1):
                out = out * x
            return out

        expected = np.zeros(len(pts))
        for k, c in p.items():
            term = np.full(len(pts), c)
            for x, e in zip(pts.T, k):
                if e:
                    term = term * power(x, e)
            expected = expected + term
        assert np.array_equal(p(pts), expected)

    def test_even_polynomial_has_the_same_bits_at_negated_points(self):
        p = Polynomial({(2, 0): -0.5, (0, 4): -0.25, (2, 2): 0.3, (6, 0): 1.0 / 3.0})
        pts = np.random.default_rng(29).standard_normal((128, 2))
        assert np.array_equal(p(pts), p(-pts))

    @pytest.mark.parametrize("coeffs", [
        {(2,): 1.0, (1, 1): 1.0},
        {(2, -1): 1.0},
        {},
    ], ids=["mixed-lengths", "negative-entry", "empty"])
    def test_malformed_multi_indices_refused(self, coeffs):
        with pytest.raises(DomainError):
            Polynomial(coeffs)

    def test_points_of_another_dimension_refused(self):
        with pytest.raises(DomainError):
            Polynomial({(2, 0): 1.0})(np.zeros((4, 3)))


class TestQuadrature:
    def test_gauss1d(self):
        val = laplace_quadrature(preset_gauss1d(), 100.0)
        assert val == pytest.approx(math.sqrt(2 * math.pi / 100), rel=1e-10)

    def test_gauss2d(self):
        val = laplace_quadrature(preset_gauss2d(), 50.0)
        assert val == pytest.approx(2 * math.pi / 50, rel=1e-10)

    def test_quartic_self_refinement(self, monkeypatch):
        p = preset_quartic1d()
        a = laplace_quadrature(p, 200.0)
        monkeypatch.setattr(laplace, "_RADIAL_NODES", 40)
        b = laplace_quadrature(p, 200.0)
        assert a == pytest.approx(b, rel=1e-10)

    def test_odd_amplitude_integrates_to_zero(self):
        p = quadratic_problem([[1.0]], a=lambda pts: pts[:, 0] ** 3)
        assert abs(laplace_quadrature(p, 50.0)) < 1e-14

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            laplace_quadrature(preset_gauss1d(), -1.0)

    @pytest.mark.parametrize("preset, face_counts", [(preset_quartic1d, 0), (preset_gauss2d, 1)])
    def test_one_set_of_edges_and_no_rank1_face_sizing(self, preset, face_counts, monkeypatch):
        # the panel edges are graded once per call and shared by both
        # levels; a rank-1 face is one point, so d = 1 sizes no face rule,
        # and its levels take the count _face_count would have returned
        p, calls, levels = preset(), [], []
        first = _face_count(p)
        for name in ("_cone_edges", "_face_count"):
            fn = getattr(laplace, name)
            monkeypatch.setattr(laplace, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        cone = laplace._cone_value
        monkeypatch.setattr(laplace, "_cone_value",
                            lambda p, t, edges, nodes, n: levels.append(n)
                            or cone(p, t, edges, nodes, n))
        laplace_quadrature(p, 1e4)
        assert calls.count("_cone_edges") == 1
        assert calls.count("_face_count") == face_counts
        assert levels == [first, first + 8]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, [1e2, np.nan], [1e2, -1.0]])
    def test_non_finite_or_negative_t_rejected(self, bad):
        with pytest.raises(DomainError):
            laplace_quadrature(preset_gauss1d(), bad)

    @pytest.mark.parametrize("preset, ladder", [
        (preset_gauss1d, [1e307, 1e308]),  # κ = 64
        (preset_quartic1d, 1e308),         # κ = 9
    ])
    def test_overflowing_ladder_refused_before_any_rule(self, preset, ladder, monkeypatch):
        # T_max·κ = ∞ would start the panel edges at 0, which never double
        # to 1, so the refusal must come before any edge is built
        def no_edges(s0):
            raise AssertionError(f"panel edges built from s0 = {s0}")

        monkeypatch.setattr(laplace, "_radial_edges", no_edges)
        with pytest.raises(DomainError, match="overflows"):
            laplace_quadrature(preset(), ladder)

    def test_overflowing_exponents_floored_without_a_warning(self):
        # T_max·κ = 9e307 is finite, but T·v at the box edge (v = −24.75)
        # overflows to −inf, which the exponent floor takes; with warnings
        # raised as errors the value still comes back
        ladder = np.array([1e306, 1e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = laplace_quadrature(preset_quartic1d(), ladder)
        assert vals == pytest.approx(np.sqrt(2 * math.pi / ladder), rel=1e-12)

    @pytest.mark.parametrize("box, hessian", [
        ([math.inf], [[1.0]]),
        ([math.nan], [[1.0]]),
        ([1.0], [[math.inf]]),
        ([1.0], [[math.nan]]),
    ], ids=["inf-box", "nan-box", "inf-hessian", "nan-hessian"])
    def test_non_finite_box_or_hessian_refused(self, box, hessian):
        # an infinite box makes κ infinite: the same endless panel edges
        with pytest.raises(DomainError, match="finite"):
            custom_problem(1, {(2,): -0.5}, {(0,): 1.0}, hessian, box)

    @pytest.mark.parametrize("preset", [preset_gauss1d, preset_gauss2d, preset_quartic1d])
    def test_ladder_matches_scalar_calls(self, preset):
        # one grid graded for the largest T serves the whole ladder
        p = preset()
        T = log_grid(1e2, 1e6, 2)
        ladder = laplace_quadrature(p, T)
        scalar = np.array([laplace_quadrature(p, t) for t in T])
        assert isinstance(ladder, np.ndarray) and ladder.shape == T.shape
        np.testing.assert_allclose(ladder, scalar, rtol=1e-10, atol=0)

    def test_scalar_call_returns_python_float(self):
        assert type(laplace_quadrature(preset_gauss2d(), 100.0)) is float
        assert type(laplace_quadrature(preset_gauss1d(), np.float64(100.0))) is float

    def test_empty_ladder_returns_empty_array(self):
        out = laplace_quadrature(preset_gauss1d(), np.array([]))
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    def test_failing_ladder_names_first_failing_t(self):
        # cos(40ξ) is unresolved on the wide outer panels, which only small T reach
        p = quadratic_problem([[1.0]], a=lambda x: np.cos(40.0 * x[:, 0]))
        T = np.array([1e4, 100.0])
        exact = np.sqrt(2.0 * math.pi / T) * np.exp(-800.0 / T)
        assert laplace_quadrature(p, T) == pytest.approx(exact, rel=1e-10)
        with pytest.raises(QuadratureError, match=r"at T=4\.0:"):
            laplace_quadrature(p, [1e4, 4.0, 1.0])

    @pytest.mark.parametrize("preset", [preset_gauss1d, preset_gauss2d, preset_quartic1d])
    def test_cone_matches_tensor_panels(self, preset):
        p = preset()
        T = log_grid(1e2, 1e6, 2)
        np.testing.assert_allclose(
            laplace_quadrature(p, T), tensor_quadrature(p, T), rtol=1e-10, atol=0
        )

    def test_oversized_rule_refused_before_allocation(self):
        # rank 8 at T = 1e6: the smallest fine rule has 16 faces × 448
        # radial × 16^7 face points
        p = quadratic_problem(np.eye(8))
        start = time.perf_counter()
        with pytest.raises(LatticeSizeError):
            laplace_quadrature(p, 1e6)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("T", [10.0, 100.0, 1000.0])
    def test_gaussian_exactness_invariant(self, T):
        val = laplace_quadrature(preset_gauss2d(), T)
        assert val == pytest.approx(2 * math.pi / T, rel=1e-12)

    def test_problem_validation(self):
        p = preset_quartic1d()
        p.validate()
        with pytest.raises(ModelValidityError):
            # v(0) != 0
            custom_problem(1, v={(0,): 0.1, (2,): -1.0}, a={(0,): 1.0},
                           hessian=[[2.0]], box=[1.0])

    @pytest.mark.parametrize("v, declared", [
        ({(2,): -1.0}, [[3.0]]),  # -D^2 v(0) = 2
        ({(2, 0): -0.5, (0, 2): -0.5, (1, 1): -0.25}, np.eye(2)),  # off-diagonal 0.25
    ])
    def test_validation_rejects_wrong_declared_hessian(self, v, declared):
        # construction passes, validate must not
        d = len(declared)
        p = custom_problem(d, v=v, a={(0,) * d: 1.0}, hessian=declared, box=np.ones(d))
        with pytest.raises(ModelValidityError, match="declared hessian"):
            p.validate()

    def test_validation_accepts_steep_sextic(self):
        # -ξ²/2 - 1e11·ξ⁶: a finite-difference step of 1e-4 sees the sextic
        # term, while the degree-2 term gives H = 1 exactly
        p = custom_problem(1, {(2,): -0.5, (6,): -1e11}, {(0,): 1.0}, [[1.0]], [0.01])
        p.validate()
        assert laplace_expand(p, 0).c[0] == pytest.approx(math.sqrt(2 * math.pi), rel=1e-15)

    def test_validation_accepts_matching_hessian_2d(self):
        custom_problem(
            2,
            v={(2, 0): -1.0, (0, 2): -0.5, (1, 1): -0.25},
            a={(0, 0): 1.0},
            hessian=[[2.0, 0.25], [0.25, 1.0]],
            box=[1.0, 1.0],
        ).validate()

    def test_validation_sweep_fits_budget_in_8d(self):
        # 9^8 = 4.3e7 sweep points would take 2.8 GB; the budgeted sweep
        # audits 5 points per axis instead
        quadratic_problem(np.eye(8)).validate()
        unit = np.eye(8, dtype=int)
        v = {tuple(2 * e): -0.5 for e in unit} | {tuple(4 * e): 1.0 for e in unit}
        bad = custom_problem(8, v=v, a={(0,) * 8: 1.0}, hessian=np.eye(8), box=np.full(8, 1.0))
        with pytest.raises(ModelValidityError, match="v\\(xi\\) >= 0"):
            bad.validate()


def _mixing_phase(d, perturbation=None, correlated=False):
    gram = np.eye(d) + (0.3 * (np.ones((d, d)) - np.eye(d)) if correlated else 0.0)
    model = SpectralModel(
        genus=2, rank_d=d, gram=gram, perturbation=perturbation, gap_delta=0.1
    )
    return induced_phase_problem(MixingProblem(model=model))


def _odd_phase():
    # a cubic term: v(−ξ) ≠ v(ξ), so every face gets its own exponentials
    v = {(2, 0): -0.5, (0, 2): -0.5, (3, 0): 0.05}
    return custom_problem(2, v, {(0, 0): 1.0, (0, 2): 1.0}, np.eye(2), [3.0, 3.0])


def _signed_amplitude():
    # a changes sign at ξ₁ = −1/2, so the L¹ mass is a second sum
    return quadratic_problem(np.eye(2), a=lambda pts: 0.5 + pts[:, 0])


CONE_CASES = {
    "gauss1d": preset_gauss1d,
    "quartic1d": preset_quartic1d,
    "gauss2d": preset_gauss2d,
    "radial_quartic-d1": lambda: _mixing_phase(1, Perturbation("radial_quartic", 0.5)),
    "radial_quartic-d2": lambda: _mixing_phase(2, Perturbation("radial_quartic", 0.5)),
    "radial_quartic-d3": lambda: _mixing_phase(3, Perturbation("radial_quartic", 0.5)),
    "quartic-d1": lambda: _mixing_phase(1, Perturbation("quartic", 0.2)),
    "quartic-d2": lambda: _mixing_phase(2, Perturbation("quartic", 0.2)),
    "quartic-d3": lambda: _mixing_phase(3, Perturbation("quartic", 0.2)),
    "correlated-d2": lambda: _mixing_phase(2, correlated=True),
    "correlated-d3": lambda: _mixing_phase(3, correlated=True),
    "odd-phase": _odd_phase,
    "signed-amplitude": _signed_amplitude,
}


def _face_count(p):
    """The coarse face count laplace_quadrature sizes for ``p`` where its
    cap does not bind."""
    return laplace._face_count(0.5, p.hessian, p.box, laplace.GRID_CAP,
                               0.1 * laplace._QUAD_REL_TOL, 8)[0]


def _cone_value(p, T, nodes, face_nodes):
    """laplace._cone_value on the panel edges laplace_quadrature grades for T."""
    return laplace._cone_value(p, T, laplace._cone_edges(p, T), nodes, face_nodes)


def _per_t_exps(p, nodes, face_nodes):
    """(rule points, exponentials per T) of the cone rule on ``p``: the
    difference between ladders of three and two T."""
    counts = {"exp": 0, "points": 0}

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x, **kwargs):
            counts["exp"] += x.size
            return np.exp(x, **kwargs)

    v, work = p.v, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(p, "v", lambda pts: counts.__setitem__("points", len(pts)) or v(pts))
        mp.setattr(laplace, "np", CountingNumpy())
        for T in (np.array([1.0, 10.0, 100.0]), np.array([1.0, 100.0])):
            counts["exp"] = 0
            _cone_value(p, T, nodes, face_nodes)
            work.append(counts["exp"])
    return counts["points"], work[0] - work[1]


class TestConeOracle:
    """The cone rule against the plain rule of tests/cone_plain.py."""

    T = log_grid(1.0, 1e3, 2)

    @pytest.mark.parametrize("level", [0, 8])
    @pytest.mark.parametrize("case", sorted(CONE_CASES))
    def test_same_bits_as_plain_rule(self, case, level):
        p = CONE_CASES[case]()
        face_nodes = _face_count(p) + level
        value, l1 = _cone_value(p, self.T, 24 + level, face_nodes)
        plain_value, plain_l1 = plain_cone_value(p, self.T, 24 + level, face_nodes)
        assert np.array_equal(value, plain_value)
        assert np.array_equal(l1, plain_l1)
        # which branches the case takes: mirrored faces for an even phase,
        # one sum for a non-negative amplitude
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (64, p.dim)) * p.box
        mirrored = case != "odd-phase"
        assert np.array_equal(p.v(pts), p.v(-pts)) == mirrored
        assert np.array_equal(value, l1) == (case != "signed-amplitude")
        points, exps = _per_t_exps(p, 24 + level, face_nodes)
        assert exps == (points // 2 if mirrored else points)

    @pytest.mark.parametrize("level", [0, 8])
    @pytest.mark.parametrize("case", sorted(CONE_CASES))
    def test_same_bits_without_underflow_up_to_1e6(self, case, level):
        # up to T = 1e6 most exponents T·v fall below −745, where the plain
        # rule's exp returns zeros, some into (−745, −708), where it returns
        # subnormals; the floored rule makes neither, and its tiny terms
        # vanish in every sum
        p = CONE_CASES[case]()
        T = log_grid(1.0, 1e6, 2)
        face_nodes = _face_count(p) + level
        with np.errstate(under="raise"):
            value, l1 = _cone_value(p, T, 24 + level, face_nodes)
        plain_value, plain_l1 = plain_cone_value(p, T, 24 + level, face_nodes)
        assert np.array_equal(value, plain_value)
        assert np.array_equal(l1, plain_l1)

    @pytest.mark.parametrize("case", ["gauss2d", "quartic-d3"])
    def test_grid_cap_refusal_unchanged(self, case, monkeypatch):
        p = CONE_CASES[case]()
        face_nodes = _face_count(p)
        seen = []
        v = p.v
        p.v = lambda pts: seen.append(pts.shape[0]) or v(pts)
        _cone_value(p, self.T, 24, face_nodes)
        rule = seen[-1]
        # a cap of exactly `rule` points admits the rule, one point less refuses it
        for cap, refused in ((rule, False), (rule - 1, True)):
            monkeypatch.setattr(laplace, "GRID_CAP", cap)
            for fn in (_cone_value, plain_cone_value):
                if refused:
                    with pytest.raises(LatticeSizeError):
                        fn(p, self.T, 24, face_nodes)
                else:
                    fn(p, self.T, 24, face_nodes)


def _face_identity_error(m, u, n):
    """Relative error of an n-point Gauss rule per face axis on the face
    identity Σ_faces ∫ Q(u⊙p)^(−d/2) dp = 2π^(d/2)/(Γ(d/2)·∏uᵢ·√det M),
    built here face by face from leggauss, not from the library's faces."""
    d = len(u)
    x, w = np.polynomial.legendre.leggauss(n)
    coords = np.array(list(product(x, repeat=d - 1)))
    wts = np.prod(np.array(list(product(w, repeat=d - 1))), axis=-1)
    total = 0.0
    for i, sign in product(range(d), (1.0, -1.0)):
        omega = np.insert(coords, i, sign, axis=1) * u
        total += np.sum(wts * np.sum((omega @ m) * omega, axis=-1) ** (-d / 2))
    root_det = math.sqrt(np.linalg.det(m))
    exact = 2 * math.pi ** (d / 2) / (math.gamma(d / 2) * math.prod(u) * root_det)
    return abs(total / exact - 1.0)


def _seeded_face_case(d, seed):
    """A Gram within 0.1 of the identity off its diagonal, on a cube box of
    seeded side."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.2, 0.2, (d, d))
    return np.eye(d) + 0.5 * (a + a.T) * (1.0 - np.eye(d)), np.full(d, rng.uniform(0.5, 2.0))


# (tol, extra) of laplace_quadrature's and of the cover density's face counts
_CONE_SIZING = (0.1 * laplace._QUAD_REL_TOL, 8)
_DENSITY_SIZING = (laplace._QUAD_REL_TOL, 0)


class TestFaceCount:
    """The face count is the smallest multiple of 8 that meets the face
    identity: a tenth of the refinement tolerance under the cone rule's
    fine level, the tolerance itself at the cover density's one rule."""

    TARGET = 0.1 * laplace._QUAD_REL_TOL
    CONE = _CONE_SIZING
    DENSITY = _DENSITY_SIZING

    @pytest.mark.parametrize(
        "case, sizing, expected",
        [pytest.param((d, seed), _CONE_SIZING, 16, id=f"cone-d{d}-seed{seed}")
         for d in (2, 3, 4, 5) for seed in (0, 1)]
        + [pytest.param((d, seed), _DENSITY_SIZING, 24, id=f"density-d{d}-seed{seed}")
           for d in (2, 3, 4) for seed in (0, 1)]
        + [pytest.param("correlated", _CONE_SIZING, 24, id="cone-correlated"),
           pytest.param("correlated", _DENSITY_SIZING, 24, id="density-correlated"),
           pytest.param("found", _CONE_SIZING, 40, id="cone-found"),
           pytest.param("found", _DENSITY_SIZING, 32, id="density-found")],
    )
    def test_smallest_count_meeting_the_identity(self, case, sizing, expected, found_gram):
        coeff = 1.0
        if case == "correlated":
            m, u = np.array([[1.3, -0.5], [-0.5, 1.8]]), np.ones(2)
        elif case == "found":
            model = SpectralModel(genus=2, rank_d=3, gram=found_gram)
            coeff, m, u = model.quad_coeff, model.gram, model.domain_u
        else:
            m, u = _seeded_face_case(*case)
        tol, extra = sizing
        n = laplace._face_count(coeff, m, u, laplace.GRID_CAP, tol, extra)[0]
        m = coeff * m
        assert n == expected
        assert _face_identity_error(m, u, n) <= tol
        if n > 24 - extra:
            assert _face_identity_error(m, u, n - 8) > tol

    def test_rank1_face_is_one_point(self):
        # its count is the first, 16 under a fine level of 24, at any cap
        # that holds the face's one point, and it is reported as the
        # largest, so laplace_quadrature never steps up at d = 1
        m, u = np.array([[0.7]]), np.array([2.0])
        assert laplace._face_count(1.0, m, u, 1, *self.CONE)[:2] == (16, 16)
        with pytest.raises(LatticeSizeError, match="face rule"):
            laplace._face_count(1.0, m, u, 0, *self.CONE)

    def test_ill_conditioned_gram_refused_under_the_cap(self):
        # condition 1e4 at d = 2: 16 and 24 points miss the identity by
        # 0.84 and 0.76, a rate that puts the count that meets it past the
        # largest the cap admits, so it is refused at once, within 2 MiB
        p = quadratic_problem(np.diag([1.0, 1e-4]))
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match="24-point face rule misses") as info:
                laplace_quadrature(p, 1e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21
        assert info.value.achieved > 1e-3

    def test_cap_bounds_the_fine_level(self, found_gram):
        # the count is 40, a fine level of 48 points per axis, which fits
        # where its 48² points of 3 coordinates do.  Under one coordinate
        # less the rate of 16 and 24 points (5.8e-6, 1.1e-8) puts it at 40
        # already, so 32 is not tried; under 3·32² − 1 the 16-point rule is
        # the largest that fits, and under 24² − 1 none does
        m = np.asarray(found_gram)
        assert laplace._face_count(1.0, m, np.ones(3), 3 * 48**2, *self.CONE)[0] == 40
        with pytest.raises(QuadratureError, match="24-point.* 48 points per axis") as info:
            laplace._face_count(1.0, m, np.ones(3), 3 * 48**2 - 1, *self.CONE)
        assert 1e-9 < info.value.achieved < 1e-7
        with pytest.raises(QuadratureError, match="16-point face rule, the largest") as info:
            laplace._face_count(1.0, m, np.ones(3), 3 * 32**2 - 1, *self.CONE)
        assert 1e-6 < info.value.achieved < 1e-5
        with pytest.raises(LatticeSizeError, match="face rule"):
            laplace._face_count(1.0, m, np.ones(3), 24**2 - 1, *self.CONE)

    def test_first_count_held_to_points_larger_to_coordinates(self):
        # rank 4: a cap of 32³ points admits the first fine level, 24, but
        # not 32, whose 4·32³ coordinates exceed it; a Gram whose 16 points
        # miss the identity is refused there, one that meets it passes
        gram = np.array([[1.0, 0.4, 0.0, 0.0], [0.4, 1.0, 0.4, 0.0],
                         [0.0, 0.4, 1.0, 0.4], [0.0, 0.0, 0.4, 1.0]])
        assert _face_identity_error(gram, np.ones(4), 16) > self.TARGET
        assert _face_identity_error(gram, np.ones(4), 24) <= self.TARGET
        with pytest.raises(QuadratureError, match="16-point face rule, the largest"):
            laplace._face_count(1.0, gram, np.ones(4), 32**3, *self.CONE)
        assert laplace._face_count(1.0, gram, np.ones(4), 4 * 32**3, *self.CONE)[0] == 24
        assert laplace._face_count(1.0, np.eye(4), np.ones(4), 24**3, *self.CONE)[0] == 16

    def test_eigenproblem_bounds_the_count(self):
        # at d = 2 a face of n points fits any cap above n, but numpy's
        # n-point rule is an n × n eigenproblem: counts stop at n³ ≤ GRID_CAP,
        # 464 points, which the condition-1e3 Gram (about 380) fits and the
        # condition-1e4 one (about 1200) does not
        m, u = np.diag([1.0, 1e-3]), np.ones(2)
        assert 300 < laplace._face_count(1.0, m, u, laplace.GRID_CAP, *self.DENSITY)[0] <= 464
        with pytest.raises(QuadratureError, match="largest that fits"):
            laplace._face_count(1.0, np.diag([1.0, 1e-4]), u, laplace.GRID_CAP, *self.DENSITY)


def _quartic_closed_form(j):
    # ∫ exp(−T(ξ²/2 + ξ⁴/4)): c_j = (−1)^j √(2π) (4j−1)!! / (4^j j!)
    return (-1) ** j * S2PI * _dfact(4 * j - 1) / (4**j * math.factorial(j))


def _radial_phase(hessian, coeff):
    """v = −q − coeff·q², q = ½ξᵀHξ, as a coefficient map."""
    minus_q = dict(quadratic_problem(hessian).v)
    v = dict(minus_q)
    for k1, c1 in minus_q.items():
        for k2, c2 in minus_q.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            v[k] = v.get(k, 0.0) - coeff * c1 * c2
    return v


def _assert_series_matches_quadrature(p, orders, T):
    # the remainder of the order-N series is about its first omitted term,
    # |c_{N+1}|·T^(−N−1−d/2), and the quadrature is good to its refinement gap
    quad = laplace_quadrature(p, T)
    for order_n in orders:
        c = laplace_expand(p, order_n + 1).c
        series = ExpansionCoefficients(c=c[:-1], dim=p.dim)
        bound = abs(c[-1]) * T ** (-order_n - 1 - p.dim / 2) + 1e-10 * np.abs(quad)
        assert np.all(np.abs(series.reconstruct(T) - quad) <= bound), order_n


class TestExpansion:
    def test_quadratic_exact_any_dim(self):
        for problem, c0 in [(preset_gauss1d(), S2PI), (preset_gauss2d(), 2 * math.pi)]:
            coeffs = laplace_expand(problem, 2)
            assert coeffs.c[0] == pytest.approx(c0, rel=1e-12)
            assert coeffs.c[1] == 0.0 and coeffs.c[2] == 0.0

    def test_quadratic_amplitude_xi_squared(self):
        p = quadratic_problem([[1.0]], a=Polynomial({(2,): 1.0}))
        coeffs = laplace_expand(p, 1)
        assert coeffs.c[0] == 0.0
        assert coeffs.c[1] == pytest.approx(S2PI, rel=1e-15)

    def test_no_order_cap(self):
        # orders above 4 were refused while the coefficients came from
        # stencil derivatives; the series is exact at every order
        coeffs = laplace_expand(preset_quartic1d(), 6)
        exact = [_quartic_closed_form(j) for j in range(7)]
        np.testing.assert_allclose(coeffs.c, exact, rtol=1e-14, atol=0.0)

    def test_quartic_cross_checked_against_fit(self):
        p = preset_quartic1d()
        T = np.logspace(2, 6, 33)
        samples = np.column_stack([T, [laplace_quadrature(p, t) for t in T]])
        fitted = fit_expansion(samples, 1, 2)
        series = laplace_expand(p, 2)
        np.testing.assert_allclose(fitted.c, series.c, rtol=1e-4, atol=1e-6)

    def test_custom_quartic_matches_closed_form(self):
        # the quartic of quartic1d as a custom phase, its terms in the other
        # order, with a box of its own
        p = custom_problem(1, {(4,): -0.25, (2,): -0.5}, {(0,): 1.0}, [[1.0]], [2.0])
        exact = [_quartic_closed_form(j) for j in range(5)]
        np.testing.assert_allclose(laplace_expand(p, 4).c, exact, rtol=1e-14, atol=0.0)

    def test_polynomial_custom_phase_expands(self):
        # a non-radial quartic: once refused, now expanded by the series
        v = {(2, 0): -0.5, (0, 2): -0.5, (2, 2): -0.1}
        p = custom_problem(2, v, {(0, 0): 1.0}, np.eye(2), [2.0, 2.0])
        _assert_series_matches_quadrature(p, [3], np.logspace(3, 5, 5))

    def test_mixing_phase_refused(self):
        # ν₀ − 1 is no polynomial: its coefficients come from fit_expansion
        p = _mixing_phase(2, Perturbation("quartic", 0.2))
        with pytest.raises(UnsupportedMorseClassError, match="fit_expansion"):
            laplace_expand(p, 1)

    @pytest.mark.parametrize("case", ["odd_phase", "correlated-d3"])
    def test_series_matches_quadrature(self, case):
        if case == "odd_phase":
            # the odd_phase.json document of scripts/cli_digests.py
            v = {(2, 0): -0.5, (0, 2): -0.5, (3, 0): 0.05, (4, 0): -0.05}
            p = custom_problem(2, v, {(0, 0): 0.5, (1, 0): 1.0}, np.eye(2), [3.0, 3.0])
        else:
            hessian = np.eye(3) + 0.3 * (np.ones((3, 3)) - np.eye(3))
            v = dict(quadratic_problem(hessian).v)
            v.update({(1, 1, 1): 0.05, (4, 0, 0): -0.05, (0, 2, 2): -0.02, (0, 0, 4): -0.03})
            a = {(0, 0, 0): 1.0, (1, 0, 0): 0.5, (0, 2, 0): -0.2}
            p = custom_problem(3, v, a, hessian, [2.5, 2.5, 2.5])
        p.validate()
        _assert_series_matches_quadrature(p, [2, 4], np.logspace(3, 5, 5))

    def test_oversized_series_refused_before_expanding(self):
        # quartic R at order 6: a·Rⁿ reaches degree 24 (n = 6) in 8
        # variables, C(32, 8) ≈ 1.1e7 monomials
        v = dict(quadratic_problem(np.eye(8)).v)
        v.update({tuple(4 * row): -0.01 for row in np.eye(8, dtype=int)})
        p = custom_problem(8, v, {(0,) * 8: 1.0}, np.eye(8), np.full(8, 3.0))
        start = time.perf_counter()
        with pytest.raises(LatticeSizeError, match="tracks 10518300 monomials"):
            laplace_expand(p, 6)
        assert time.perf_counter() - start < 1.0

    def test_quadratic_series_sized_by_its_terms(self):
        # R = 0 and a = 1: the series tracks one monomial, though degree
        # 6N = 36 in 8 variables would give C(44, 8) ≈ 1.8e8
        c = laplace_expand(quadratic_problem(np.eye(8)), 6).c
        assert c[0] == pytest.approx((2 * math.pi) ** 4, rel=1e-14)
        assert np.all(c[1:] == 0.0)

    @pytest.mark.parametrize("route", ["expand", "quadrature"])
    @pytest.mark.parametrize("term", [(0,), (1,)], ids=["constant", "linear"])
    def test_critical_point_off_zero_refused(self, term, route):
        # a constant of 1e-13 passes an |v(0)| ≤ 1e-12 audit; a polynomial
        # phase is refused on its terms when the problem is built, so
        # neither route takes it
        with pytest.raises(ModelValidityError, match="degree 0 or 1"):
            p = custom_problem(1, {term: 1e-13, (2,): -0.5}, {(0,): 1.0}, [[1.0]], [3.0])
            laplace_expand(p, 2) if route == "expand" else laplace_quadrature(p, 1e3)

    def test_callable_phase_audited_at_zero(self):
        def phase(shift):
            return lambda x: shift - 0.5 * np.sum(x * x, axis=1)

        one = Polynomial({(0,): 1.0})
        laplace.PhaseProblem(1, phase(1e-13), one, np.array([3.0]), [[1.0]])
        with pytest.raises(ModelValidityError, match="v\\(0\\) must vanish"):
            laplace.PhaseProblem(1, phase(1e-3), one, np.array([3.0]), [[1.0]])

    def test_linear_covariance(self):
        # v(L xi), a(L xi) multiplies every c_j by 1/|det L|
        rng = np.random.default_rng(11)
        L = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        H = np.eye(2)
        # a(ξ) = 1 + ξ₀² + ½ξ₁², and a(Lξ) expanded by hand
        base = quadratic_problem(H, a=Polynomial({(0, 0): 1.0, (2, 0): 1.0, (0, 2): 0.5}))
        (l00, l01), (l10, l11) = L
        a_of_l = Polynomial({
            (0, 0): 1.0,
            (2, 0): l00**2 + 0.5 * l10**2,
            (1, 1): 2.0 * l00 * l01 + l10 * l11,
            (0, 2): l01**2 + 0.5 * l11**2,
        })
        transformed = quadratic_problem(L.T @ H @ L, a=a_of_l)
        cb = laplace_expand(base, 2).c
        ct = laplace_expand(transformed, 2).c
        np.testing.assert_allclose(
            ct, cb / abs(np.linalg.det(L)), rtol=1e-12, atol=1e-14
        )
        ib = laplace_quadrature(base, 100.0)
        it = laplace_quadrature(transformed, 100.0)
        assert ib / it == pytest.approx(abs(np.linalg.det(L)), rel=1e-10)


# Relative error of the Morse charts' c₀ … c₄ read off quartic1d and the
# 2-d radial phase (9e-11 at c₁, 6e-9 at c₂, 2e-6 at c₃, 5e-4 at c₄), each
# about doubled: the Richardson-refined stencils lose digits with the order
_CHART_RTOL = np.array([1e-14, 1e-8, 1e-6, 1e-5, 1e-3])


class TestMorseChartOracle:
    """The series against the Morse charts of tests/morse_chart.py, within
    the charts' own stencil error."""

    @pytest.mark.parametrize("hessian, coeff", [
        ([[1.0]], 1.0),
        ([[2.0, 0.3], [0.3, 1.0]], 0.3),
    ], ids=["quartic1d", "gram-2d"])
    def test_radial_chart(self, hessian, coeff):
        d = len(hessian)
        p = custom_problem(d, _radial_phase(hessian, coeff), {(0,) * d: 1.0},
                           hessian, np.full(d, 3.0))
        chart = morse_chart.radial_chart(
            p, lambda q: -q - coeff * q * q, lambda q: -1.0 - 2.0 * coeff * q
        )
        series = laplace_expand(p, 4).c
        chart_c = morse_chart.chart_expand(chart, d, 4)
        assert np.all(np.abs(series - chart_c) <= _CHART_RTOL * np.abs(series))
        if d == 1:
            assert series.tobytes() == laplace_expand(preset_quartic1d(), 4).c.tobytes()

    def test_quadratic_chart(self):
        hessian = np.array([[2.0, 0.3], [0.3, 1.0]])
        a = Polynomial({(0, 0): 1.0, (2, 0): 1.0, (0, 2): 0.5, (1, 1): 0.3, (4, 0): 0.1})
        p = quadratic_problem(hessian, a=a)
        series = laplace_expand(p, 2).c
        chart_c = morse_chart.chart_expand(morse_chart.quadratic_chart(p), 2, 2)
        assert np.all(np.abs(series - chart_c) <= _CHART_RTOL[:3] * np.abs(series))


class TestFitExpansion:
    T = np.logspace(2, 6, 33)

    def test_round_trip(self):
        c = np.array([1.0, 2.0, -3.0])
        vals = c[0] * self.T**-0.5 + c[1] * self.T**-1.5 + c[2] * self.T**-2.5
        fit = fit_expansion(np.column_stack([self.T, vals]), 1, 2)
        np.testing.assert_allclose(fit.c, c, atol=1e-6)
        assert fit.fit_residual < 1e-6

    def test_round_trip_random_coefficients(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            c = rng.uniform(-10, 10, size=3)
            vals = sum(cj * self.T ** (-(j + 0.5)) for j, cj in enumerate(c))
            fit = fit_expansion(np.column_stack([self.T, vals]), 1, 2)
            np.testing.assert_allclose(fit.c, c, atol=1e-6)

    def test_zero_samples(self):
        fit = fit_expansion(np.column_stack([self.T, np.zeros_like(self.T)]), 1, 2)
        assert np.all(fit.c == 0.0)

    def test_gaussian_oracle_pipeline(self):
        p = preset_gauss1d()
        samples = np.column_stack(
            [self.T, [laplace_quadrature(p, t) for t in self.T]]
        )
        fit = fit_expansion(samples, 1, 1)
        assert abs(fit.c[0] - S2PI) < 1e-8
        assert abs(fit.c[1]) < 1e-6

    def test_negative_order_rejected(self):
        # an empty fit has no c[0] for mixing_expansion's verdict
        with pytest.raises(DomainError, match="order_n"):
            fit_expansion(np.column_stack([self.T, self.T**-0.5]), 1, -1)

    def test_narrow_span_rejected(self):
        T = np.logspace(2, 3, 12)
        with pytest.raises(DomainError):
            fit_expansion(np.column_stack([T, T**-0.5]), 1, 1)

    def test_non_geometric_ladder_rejected(self):
        # both decade windows (10^3.11..10^4.11 and 10^2.11..10^3.11) hold
        # at least 4 samples, and neither is geometric
        T = 10.0 ** np.array([2.0, 2.2, 2.5, 2.75, 3.0, 3.3, 3.5, 3.75, 4.0, 4.11])
        vals = T**-0.5
        with pytest.raises((ConditioningError, DomainError)):
            fit_expansion(np.column_stack([T, vals]), 1, 2)


_BAD_SAMPLES = {
    "zero-T": (0, 0.0),
    "negative-T": (0, -1.0),
    "nan-T": (5, np.nan),
    "nan-I": (5, np.nan),
}


@pytest.mark.parametrize("case", sorted(_BAD_SAMPLES))
@pytest.mark.parametrize("fn", ["fit_expansion", "remainder_slope"])
def test_samples_refused_before_arithmetic(fn, case):
    # at T = 0 the fit divided by zero, a NaN made it call the extraction
    # unstable, and the slope dropped NaN samples and returned a number
    T = np.logspace(2, 6, 33)
    samples = np.column_stack([T, T**-0.5])
    row, value = _BAD_SAMPLES[case]
    samples[row, 1 if case == "nan-I" else 0] = value
    with pytest.raises(DomainError, match="T > 0"):
        if fn == "fit_expansion":
            fit_expansion(samples, 1, 1)
        else:
            remainder_slope(samples, ExpansionCoefficients(c=np.array([1.0]), dim=1), 1)


class TestRemainderOrder:
    def test_quartic_slope_after_two_orders(self):
        p = preset_quartic1d()
        T = np.logspace(2, 6, 33)
        samples = np.column_stack([T, [laplace_quadrature(p, t) for t in T]])
        fit = fit_expansion(samples, 1, 2)
        slope = remainder_slope(samples, fit, 3)
        assert slope <= -(2 + 1 + 0.5) + 0.1

    def test_slope_tracks_next_term(self):
        p = preset_quartic1d()
        T = np.logspace(2, 5, 25)
        samples = np.column_stack([T, [laplace_quadrature(p, t) for t in T]])
        fit = fit_expansion(samples, 1, 1)
        slope = remainder_slope(samples, fit, 2)
        assert slope <= -(1 + 1 + 0.5) + 0.1

    def test_noise_floor_returns_minus_inf(self):
        T = np.logspace(2, 4, 17)
        vals = T**-0.5
        fit = fit_expansion(np.column_stack([T, vals]), 1, 1)
        slope = remainder_slope(np.column_stack([T, vals]), fit, 2)
        assert slope == float("-inf")

    def test_reconstruct(self):
        coeffs = ExpansionCoefficients(c=np.array([2.0, -1.0]), dim=2)
        got = coeffs.reconstruct(np.array([100.0]))
        assert got[0] == pytest.approx(2.0 / 100.0 - 1.0 / 100.0**2, rel=1e-14)
