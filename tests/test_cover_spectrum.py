import math

import numpy as np
import pytest
from scipy.integrate import quad

from horomix.cover_spectrum import (
    CharacterLattice,
    build_histogram,
    convergence_study,
    enumerate_characters,
    limit_density,
    limit_integral,
    spectral_average,
    make_test_function,
)
from horomix.errors import DomainError, LatticeSizeError
from horomix.spectral_model import Perturbation, SpectralModel

ONE = make_test_function("one", 0.05)


class TestEnumeration:
    def test_order_two_centered(self):
        pts = enumerate_characters(CharacterLattice((2,)))
        np.testing.assert_allclose(pts.ravel(), [-0.5, 0.0])

    def test_product_count(self):
        assert enumerate_characters(CharacterLattice((2, 3))).shape == (6, 2)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_counts(self, n):
        assert enumerate_characters(CharacterLattice((n,))).shape[0] == n

    def test_lexicographic_order(self):
        pts = enumerate_characters(CharacterLattice((4, 2)))
        as_tuples = [tuple(row) for row in pts]
        assert as_tuples == sorted(as_tuples)

    def test_representatives_centered(self):
        pts = enumerate_characters(CharacterLattice((5, 7)))
        assert np.all(pts >= -0.5) and np.all(pts < 0.5)

    def test_size_cap(self):
        with pytest.raises(LatticeSizeError):
            enumerate_characters(CharacterLattice((100000, 100000)))

    def test_size_cap_passed_through(self):
        assert enumerate_characters(CharacterLattice((4, 4)), cap=16).shape == (16, 2)
        with pytest.raises(LatticeSizeError):
            enumerate_characters(CharacterLattice((4, 4)), cap=15)

    def test_bad_orders(self):
        with pytest.raises(DomainError):
            CharacterLattice((0, 3))


class TestSpectralAverage:
    def test_disk_count_d2(self, model_d2):
        # sublevel {pi |w|^2 <= 0.05} has area exactly 0.05
        avg = spectral_average(model_d2, CharacterLattice((64, 64)), ONE, 0.05)
        assert abs(avg - 0.05) <= 2.0 / 64.0
        # frozen exact lattice count: 213 points of 64^2 fall inside
        assert avg == pytest.approx(213.0 / 4096.0, abs=1e-15)

    def test_single_character(self, model_d2):
        avg = spectral_average(model_d2, CharacterLattice((1, 1)), ONE, 0.05)
        assert avg == 1.0

    def test_linear_statistic_vs_quadrature(self, model_d1):
        # f(x) = x against the continuum integral over the sublevel set
        f = lambda x: np.asarray(x, dtype=float)
        avg = spectral_average(model_d1, CharacterLattice((10000,)), f, 0.05)
        r = math.sqrt(0.05 / math.pi)
        exact = quad(lambda w: math.pi * w * w, -r, r)[0]
        assert abs(avg - exact) < 1e-3

    def test_epsilon_above_gap_rejected(self, model_d2):
        with pytest.raises(DomainError):
            spectral_average(model_d2, CharacterLattice((8, 8)), ONE, 0.2)

    def test_mass_in_unit_interval(self, model_d2):
        for n in (7, 23, 40):
            avg = spectral_average(model_d2, CharacterLattice((n, n)), ONE, 0.05)
            assert 0.0 <= avg <= 1.0

    def test_histogram_summary(self, model_d2):
        hist = build_histogram(model_d2, CharacterLattice((32, 32)), 0.05)
        assert hist.count == 49  # frozen exact count at N=32
        assert hist.mass == pytest.approx(49.0 / 1024.0, abs=1e-15)
        assert np.all(np.diff(hist.values) >= 0.0)
        assert 0.0 < hist.moments[0] < 0.05


class TestLimitDensity:
    def test_quadratic_d2_constant_density(self, model_d2):
        xs = np.linspace(0.0, 0.05, 21)
        table = limit_density(model_d2, 0.05, xs)
        np.testing.assert_allclose(table.density, 1.0, atol=1e-6)
        np.testing.assert_allclose(table.zeta_tilde, 1.0, atol=1e-6)
        assert table.exponent == 0.0

    def test_quadratic_d1_inverse_sqrt(self, model_d1):
        # lambda0 = pi w^2: density x^(-1/2)/sqrt(pi), zeta constant
        xs = np.linspace(0.005, 0.05, 10)
        table = limit_density(model_d1, 0.05, xs)
        np.testing.assert_allclose(
            table.density, xs**-0.5 / math.sqrt(math.pi), rtol=1e-10
        )
        np.testing.assert_allclose(
            table.zeta_tilde, 1.0 / math.sqrt(math.pi), rtol=1e-10
        )

    def test_zeta_small_x_limit_matches_hessian(self, model_d1_quartic, model_d1):
        # perturbation vanishes at 4th order, so zeta(0) is the quadratic value
        xs = np.array([0.0, 1e-6, 1e-5])
        t_p = limit_density(model_d1_quartic, 0.05, xs)
        t_q = limit_density(model_d1, 0.05, xs)
        assert t_p.zeta_tilde[0] == pytest.approx(t_q.zeta_tilde[0], rel=1e-12)
        assert t_p.zeta_tilde[1] == pytest.approx(t_p.zeta_tilde[0], rel=1e-4)
        assert np.all(np.isfinite(t_p.zeta_tilde))

    def test_radial_quartic_density_vs_volume_differences(self):
        m = SpectralModel(
            genus=2, rank_d=2, gram=np.eye(2),
            perturbation=Perturbation("radial_quartic", 0.3), gap_delta=0.1,
        )
        m.validate()
        xs = np.array([0.01, 0.02, 0.04])
        table = limit_density(m, 0.05, xs)
        # independent oracle: centered differences of the sublevel area,
        # measured by brute-force indicator counting on a fine grid
        h = 2e-4
        for x, rho in zip(xs, table.density):
            vol_hi = _indicator_volume(m, x + h)
            vol_lo = _indicator_volume(m, x - h)
            assert rho == pytest.approx((vol_hi - vol_lo) / (2 * h), rel=2e-2)

    def test_rank1_quartic_uses_gram(self):
        # λ₀ = qc·g·ω² + ω⁴; the sublevel set {λ₀ ≤ ε} is [−ω*, ω*]
        g, eps = 1.7, 0.05
        m = SpectralModel(
            genus=2, rank_d=1, gram=[[g]], perturbation=Perturbation("quartic", 1.0)
        )
        a = m.quad_coeff * g
        w_star = math.sqrt(2.0 * eps / (a + math.sqrt(a * a + 4.0 * eps)))
        got = limit_integral(m, ONE, eps)
        assert got == pytest.approx(2.0 * w_star, rel=1e-12)

    def test_angular_route_matches_closed_form(self, model_d2):
        from horomix.cover_spectrum import _angular_density_2d

        got = _angular_density_2d(model_d2, np.array([0.01, 0.03]))
        assert got == pytest.approx([1.0, 1.0], rel=1e-9)

    @pytest.mark.parametrize(
        "gram, pert",
        [
            (np.eye(2), Perturbation("radial_quartic", 0.5)),
            ([[1.0, 0.2], [0.2, 0.9]], Perturbation("radial_quartic", 0.3)),
            ([[1.0, 0.2], [0.2, 0.9]], None),
        ],
        ids=["radial-quartic", "gram-radial-quartic", "gram-quadratic"],
    )
    def test_batched_angular_route_matches_radial_closed_form(self, gram, pert):
        # the angular route does not use the radial profile, so on radial
        # models the closed form φ(q*) = x is an independent oracle
        from horomix.cover_spectrum import (
            _angular_density_2d, _radial_density, _unit_ball_volume,
        )

        m = SpectralModel(genus=2, rank_d=2, gram=gram, perturbation=pert, gap_delta=0.1)
        xs = np.geomspace(1e-6, 0.05, 40)
        root_det = math.sqrt(float(np.linalg.det(m.quad_coeff * m.gram)))
        closed = _radial_density(m.radial_profile(), 2, _unit_ball_volume(2), root_det, xs)
        assert _angular_density_2d(m, xs) == pytest.approx(closed, rel=1e-12)

    def test_angular_route_refuses_level_sets_leaving_the_box(self):
        m = SpectralModel(
            genus=2, rank_d=2, gram=np.eye(2),
            perturbation=Perturbation("quartic", 0.2), gap_delta=0.2,
        )
        with pytest.raises(DomainError, match="working box"):
            limit_density(m, 0.2, np.array([0.01, 0.19]))

    def test_consistency_of_density_and_torus_quadrature(self, model_d2):
        # int f(x) x^(d/2-1) zeta(x) dx == int_{lambda0 <= eps} f(lambda0) dw
        f = make_test_function("linear", 0.05)
        via_density = limit_integral(model_d2, f, 0.05)
        r = math.sqrt(0.05 / math.pi)
        direct = quad(
            lambda s: 2 * math.pi * s * (0.05 - math.pi * s * s), 0.0, r
        )[0]
        assert via_density == pytest.approx(direct, abs=1e-6)


def _indicator_volume(model, level, n=2400):
    u = model.domain_u
    xs = np.linspace(-u[0], u[0], n)
    ys = np.linspace(-u[1], u[1], n)
    mesh = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    vals = model.lambda0_batch(mesh)
    cell = (2 * u[0] / (n - 1)) * (2 * u[1] / (n - 1))
    return float(np.count_nonzero(vals <= level) * cell)


class TestConvergence:
    ORDERS = [(16, 16), (32, 32), (64, 64), (128, 128), (256, 256)]

    def test_study_errors_within_bound_and_trending_down(self, model_d2):
        rep = convergence_study(model_d2, ONE, 0.05, self.ORDERS)
        assert rep.limit_value == pytest.approx(0.05, abs=1e-9)
        for row in rep.rows:
            assert row.abs_err <= 2.0 / row.min_n
        errs = [r.abs_err for r in rep.rows]
        assert errs[-1] < errs[0]
        assert rep.fitted_exponent > 0.0

    def test_zero_function(self, model_d2):
        zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
        rep = convergence_study(model_d2, zero, 0.05, self.ORDERS[:3])
        assert all(r.abs_err == 0.0 for r in rep.rows)

    def test_d1_linear_statistic_decays(self, model_d1):
        f = make_test_function("linear", 0.05)
        rep = convergence_study(
            model_d1, f, 0.05, [(100,), (1000,), (10000,)]
        )
        errs = [r.abs_err for r in rep.rows]
        assert errs[2] < errs[0]

    def test_non_increasing_sequence_rejected(self, model_d2):
        with pytest.raises(DomainError):
            convergence_study(model_d2, ONE, 0.05, [(32, 32), (16, 16)])


class TestTestFunctions:
    def test_bump_supported_inside(self):
        bump = make_test_function("bump", 0.05)
        vals = bump(np.array([0.0, 0.025, 0.05, 0.06]))
        assert vals[0] == pytest.approx(1.0, rel=1e-12)  # exp(1 - 1) at x = 0
        assert 0.0 < vals[1] < 1.0
        assert vals[2] == 0.0 and vals[3] == 0.0

    def test_unknown_name(self):
        with pytest.raises(DomainError):
            make_test_function("nope", 0.05)
