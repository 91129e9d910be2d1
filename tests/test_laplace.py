import math
import time
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
from horomix._stencils import bracketed_roots
from horomix.laplace import (
    ExpansionCoefficients,
    custom_problem,
    fit_expansion,
    gaussian_moment,
    laplace_expand,
    laplace_quadrature,
    oned_problem,
    preset_gauss1d,
    preset_gauss2d,
    preset_quartic1d,
    quadratic_problem,
    radial_problem,
    remainder_slope,
)
from horomix.mixing import MixingProblem, induced_phase_problem
from horomix.spectral_model import Perturbation, SpectralModel
import monotone_bisect
import stencil_fresh
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


class TestQuadrature:
    def test_gauss1d(self):
        val = laplace_quadrature(preset_gauss1d(), 100.0)
        assert val == pytest.approx(math.sqrt(2 * math.pi / 100), rel=1e-10)

    def test_gauss2d(self):
        val = laplace_quadrature(preset_gauss2d(), 50.0)
        assert val == pytest.approx(2 * math.pi / 50, rel=1e-10)

    def test_quartic_self_refinement(self):
        p = preset_quartic1d()
        a = laplace_quadrature(p, 200.0, nodes=24)
        b = laplace_quadrature(p, 200.0, nodes=40)
        assert a == pytest.approx(b, rel=1e-10)

    def test_odd_amplitude_integrates_to_zero(self):
        p = quadratic_problem([[1.0]], a=lambda pts: pts[:, 0] ** 3)
        assert abs(laplace_quadrature(p, 50.0)) < 1e-14

    def test_negative_t_rejected(self):
        with pytest.raises(DomainError):
            laplace_quadrature(preset_gauss1d(), -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, [1e2, np.nan], [1e2, -1.0]])
    def test_non_finite_or_negative_t_rejected(self, bad):
        with pytest.raises(DomainError):
            laplace_quadrature(preset_gauss1d(), bad)

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
        # rank 8 at T = 1e6: 16 faces × 336 radial × 16^7 face points
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
            custom_problem(
                1,
                v=lambda pts: 0.1 - pts[:, 0] ** 2,
                a=lambda pts: np.ones(pts.shape[0]),
                hessian=[[2.0]],
                box=[1.0],
            )

    def test_validation_rejects_wrong_declared_hessian(self):
        # -D^2 v(0) = 2, declared 3: construction passes, validate must not
        p = custom_problem(
            1,
            v=lambda pts: -pts[:, 0] ** 2,
            a=lambda pts: np.ones(pts.shape[0]),
            hessian=[[3.0]],
            box=[1.0],
        )
        with pytest.raises(ModelValidityError, match="declared hessian"):
            p.validate()

    def test_validation_accepts_matching_hessian_2d(self):
        custom_problem(
            2,
            v=lambda pts: -pts[:, 0] ** 2 - 0.5 * pts[:, 1] ** 2 - pts[:, 0] * pts[:, 1] / 4,
            a=lambda pts: np.ones(pts.shape[0]),
            hessian=[[2.0, 0.25], [0.25, 1.0]],
            box=[1.0, 1.0],
        ).validate()

    def test_validation_sweep_fits_budget_in_8d(self):
        # 9^8 = 4.3e7 sweep points would take 2.8 GB; the budgeted sweep
        # audits 5 points per axis instead
        quadratic_problem(np.eye(8)).validate()
        bad = custom_problem(
            8,
            v=lambda pts: -0.5 * np.sum(pts**2, axis=1) + np.sum(pts**4, axis=1),
            a=lambda pts: np.ones(pts.shape[0]),
            hessian=np.eye(8),
            box=np.full(8, 1.0),
        )
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
    v = lambda pts: -0.5 * (pts[:, 0] ** 2 + pts[:, 1] ** 2) + 0.05 * pts[:, 0] ** 3
    return custom_problem(2, v, lambda pts: 1.0 + pts[:, 1] ** 2, np.eye(2), [3.0, 3.0])


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


class TestConeOracle:
    """The cone rule against the plain rule of tests/cone_plain.py."""

    T = log_grid(1.0, 1e3, 2)

    @pytest.mark.parametrize("level", [0, 8])
    @pytest.mark.parametrize("case", sorted(CONE_CASES))
    def test_same_bits_as_plain_rule(self, case, level):
        p = CONE_CASES[case]()
        face_nodes = laplace._FACE_NODES.get(p.dim, laplace._FACE_NODES_HIGH) + level
        value, l1 = laplace._cone_value(p, self.T, 24 + level, face_nodes)
        plain_value, plain_l1 = plain_cone_value(p, self.T, 24 + level, face_nodes)
        assert np.array_equal(value, plain_value)
        assert np.array_equal(l1, plain_l1)
        # which branches the case takes: mirrored faces for an even phase,
        # one sum for a non-negative amplitude
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, (64, p.dim)) * p.box
        assert np.array_equal(p.v(pts), p.v(-pts)) == (case != "odd-phase")
        assert np.array_equal(value, l1) == (case != "signed-amplitude")

    @pytest.mark.parametrize("level", [0, 8])
    @pytest.mark.parametrize("case", sorted(CONE_CASES))
    def test_same_bits_without_underflow_up_to_1e6(self, case, level):
        # up to T = 1e6 most exponents T·v fall below −745, where the plain
        # rule's exp returns zeros, some into (−745, −708), where it returns
        # subnormals; the floored rule makes neither, and its tiny terms
        # vanish in every sum
        p = CONE_CASES[case]()
        T = log_grid(1.0, 1e6, 2)
        face_nodes = laplace._FACE_NODES.get(p.dim, laplace._FACE_NODES_HIGH) + level
        with np.errstate(under="raise"):
            value, l1 = laplace._cone_value(p, T, 24 + level, face_nodes)
        plain_value, plain_l1 = plain_cone_value(p, T, 24 + level, face_nodes)
        assert np.array_equal(value, plain_value)
        assert np.array_equal(l1, plain_l1)

    @pytest.mark.parametrize("case", ["gauss2d", "quartic-d3"])
    def test_grid_cap_refusal_unchanged(self, case, monkeypatch):
        p = CONE_CASES[case]()
        face_nodes = laplace._FACE_NODES.get(p.dim, laplace._FACE_NODES_HIGH)
        seen = []
        v = p.v
        p.v = lambda pts: seen.append(pts.shape[0]) or v(pts)
        laplace._cone_value(p, self.T, 24, face_nodes)
        rule = seen[-1]
        # a cap of exactly `rule` points admits the rule, one point less refuses it
        for cap, refused in ((rule, False), (rule - 1, True)):
            monkeypatch.setattr(laplace, "GRID_CAP", cap)
            for fn in (laplace._cone_value, plain_cone_value):
                if refused:
                    with pytest.raises(LatticeSizeError):
                        fn(p, self.T, 24, face_nodes)
                else:
                    fn(p, self.T, 24, face_nodes)


class TestExpansion:
    def test_quadratic_exact_any_dim(self):
        for problem, c0 in [(preset_gauss1d(), S2PI), (preset_gauss2d(), 2 * math.pi)]:
            coeffs = laplace_expand(problem, 2)
            assert coeffs.c[0] == pytest.approx(c0, rel=1e-12)
            assert coeffs.c[1] == 0.0 and coeffs.c[2] == 0.0

    def test_quadratic_amplitude_xi_squared(self):
        p = quadratic_problem([[1.0]], a=lambda pts: pts[:, 0] ** 2)
        coeffs = laplace_expand(p, 1)
        assert abs(coeffs.c[0]) < 1e-14
        assert coeffs.c[1] == pytest.approx(S2PI, rel=1e-9)

    def test_quartic_morse_coefficients(self):
        # exp(-T(x^2/2 + x^4/4)): c_j = (-1)^j sqrt(2pi) (4j-1)!! / (4^j j!)
        coeffs = laplace_expand(preset_quartic1d(), 2)
        assert coeffs.c[0] == pytest.approx(S2PI, rel=1e-12)
        assert coeffs.c[1] == pytest.approx(-0.75 * S2PI, rel=1e-7)
        assert coeffs.c[2] == pytest.approx(105.0 / 32.0 * S2PI, rel=1e-5)

    def test_quartic_cross_checked_against_fit(self):
        p = preset_quartic1d()
        T = np.logspace(2, 6, 33)
        samples = np.column_stack([T, [laplace_quadrature(p, t) for t in T]])
        fitted = fit_expansion(samples, 1, 2)
        morse = laplace_expand(p, 2)
        np.testing.assert_allclose(fitted.c, morse.c, rtol=1e-4, atol=1e-6)

    def test_oned_class_matches_radial(self):
        # same quartic phase through the generic 1-d normalization
        v = lambda pts: -0.5 * pts[:, 0] ** 2 - 0.25 * pts[:, 0] ** 4
        p = oned_problem(v, [[1.0]], box=[3.0])
        coeffs = laplace_expand(p, 1)
        assert coeffs.c[0] == pytest.approx(S2PI, rel=1e-9)
        assert coeffs.c[1] == pytest.approx(-0.75 * S2PI, rel=1e-6)

    def test_unsupported_class_refers_to_fit(self):
        v = lambda pts: -0.5 * np.sum(pts**2, axis=1) - 0.1 * pts[:, 0] ** 2 * pts[
            :, 1
        ] ** 2
        p = custom_problem(
            2, v, lambda pts: np.ones(pts.shape[0]), np.eye(2), [2.0, 2.0]
        )
        with pytest.raises(UnsupportedMorseClassError):
            laplace_expand(p, 1)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            laplace_expand(preset_gauss1d(), 5)

    def test_linear_covariance(self):
        # v(L xi), a(L xi) multiplies every c_j by 1/|det L|
        rng = np.random.default_rng(11)
        L = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
        H = np.eye(2)
        a_fn = lambda pts: 1.0 + pts[:, 0] ** 2 + 0.5 * pts[:, 1] ** 2
        base = quadratic_problem(H, a=a_fn)
        transformed = quadratic_problem(
            L.T @ H @ L, a=lambda pts: a_fn(pts @ L.T)
        )
        cb = laplace_expand(base, 2).c
        ct = laplace_expand(transformed, 2).c
        np.testing.assert_allclose(
            ct, cb / abs(np.linalg.det(L)), rtol=1e-6, atol=1e-7
        )
        ib = laplace_quadrature(base, 100.0)
        it = laplace_quadrature(transformed, 100.0)
        assert ib / it == pytest.approx(abs(np.linalg.det(L)), rel=1e-10)


def _oned_cases():
    # (v, H₀₀, box): the quartic of test_oned_class_matches_radial, an odd
    # phase, and one with H₀₀ ≠ 1; each has v < 0 off 0
    return {
        "quartic": (lambda pts: -0.5 * pts[:, 0] ** 2 - 0.25 * pts[:, 0] ** 4, 1.0, 3.0),
        "cubic": (lambda pts: -0.5 * pts[:, 0] ** 2 + 0.1 * pts[:, 0] ** 3
                  - 0.25 * pts[:, 0] ** 4, 1.0, 2.0),
        "steep": (lambda pts: -1.5 * pts[:, 0] ** 2 - 0.2 * pts[:, 0] ** 3
                  - 0.3 * pts[:, 0] ** 4, 3.0, 1.5),
    }


def _stencil_points(dim):
    """Every point the order-4 expansion of a dim-d problem evaluates b at."""
    return np.concatenate([
        laplace._tensor_stencil(k, step)[0]
        for j in range(1, 5) for k in laplace._even_multi_indices(j, dim)
        for step in (0.05, 0.025)
    ])


class TestMorseCharts:
    """The Morse charts by certified Newton against their bisection routes
    (tests/monotone_bisect.py), and the once-built derivative stencils
    against fresh ones (tests/stencil_fresh.py)."""

    @pytest.mark.parametrize("case", sorted(_oned_cases()))
    def test_oned_chart_matches_bisection(self, case, monkeypatch):
        v, h, u = _oned_cases()[case]
        p = oned_problem(v, [[h]], box=[u])
        solved = []
        solve = laplace._newton_roots

        def recording(fn, start, lo, hi, xtol, rtol):
            roots = solve(fn, start, lo, hi, xtol, rtol)
            solved.append((fn, roots, lo, hi, xtol, rtol))
            return roots

        monkeypatch.setattr(laplace, "_newton_roots", recording)
        theta = np.concatenate([_stencil_points(1), np.linspace(-1.2, 1.2, 41)[:, None]])
        got = laplace._pushforward_amplitude(p)(theta)
        [(fn, roots, lo, hi, xtol, rtol)] = solved
        # each root within its tolerance of the bisected root and of a sign change
        tol = xtol + rtol * np.abs(roots)
        assert np.all(np.abs(roots - bracketed_roots(fn, lo, hi, xtol, rtol)) <= tol)
        assert np.all(fn(roots - tol) <= 0.0) and np.all(fn(roots + tol) >= 0.0)
        # ρ′ is a central difference of v at step 1e-6, which rounds to about
        # eps·|v|/(1e-6·|v′|) ≈ 2e-10 relative, so roots a few ulp apart
        # move b by about that much
        ref = monotone_bisect.bisected_oned_chart(p)(theta)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("problem", [
        preset_quartic1d,
        lambda: radial_problem([[2.0, 0.3], [0.3, 1.0]], lambda q: -q - 0.3 * q * q,
                               lambda q: -1.0 - 0.6 * q),
    ], ids=["quartic1d", "gram-2d"])
    def test_radial_chart_matches_bisection(self, problem, monkeypatch):
        p = problem()
        theta = _stencil_points(p.dim)
        got = laplace._pushforward_amplitude(p)(theta)
        monkeypatch.setattr(laplace, "monotone_inverse", monotone_bisect.monotone_inverse)
        ref = laplace._pushforward_amplitude(p)(theta)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("k", [(0,), (2,), (8,), (4, 0), (2, 6), (2, 2, 4), (0, 8, 0)])
    def test_stencil_plan_has_the_bits_of_a_fresh_build(self, k):
        laplace._tensor_stencil.cache_clear()
        for step in (0.05, 0.025, 0.05):  # a miss, a miss, a hit
            pts, wts = laplace._tensor_stencil(k, step)
            fresh_pts, fresh_wts = stencil_fresh.tensor_stencil(k, step)
            assert pts.tobytes() == fresh_pts.tobytes() and pts.shape == fresh_pts.shape
            assert wts.tobytes() == fresh_wts.tobytes()

    def test_stencil_plan_is_built_once_per_stencil(self, monkeypatch):
        laplace._tensor_stencil.cache_clear()
        calls = []
        build = laplace.fornberg_weights

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(laplace, "fornberg_weights", counting)
        for problem, per_run in [(preset_quartic1d(), 8), (preset_gauss2d(), 56),
                                 (quadratic_problem(np.eye(3)), 204)]:
            # one table per axis of each (k, step): 4, 14 and 34 multi-indices
            # of d entries at two steps
            before = len(calls)
            first = laplace_expand(problem, 4).c
            assert len(calls) - before == per_run
            again = laplace_expand(problem, 4).c
            assert len(calls) - before == per_run
            assert first.tobytes() == again.tobytes()

    def test_stencil_plan_is_read_only_and_bounded(self):
        pts, wts = laplace._tensor_stencil((2, 4), 0.05)
        for array in (pts, wts):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        # the order-4 stencils of d = 1, 2 and 3 fit together
        assert laplace._tensor_stencil.cache_info().maxsize == laplace._STENCIL_CACHE
        assert laplace._STENCIL_CACHE >= 8 + 28 + 68


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
        coeffs = ExpansionCoefficients(order_n=1, c=np.array([2.0, -1.0]), dim=2)
        got = coeffs.reconstruct(np.array([100.0]))
        assert got[0] == pytest.approx(2.0 / 100.0 - 1.0 / 100.0**2, rel=1e-14)
