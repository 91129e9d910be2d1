import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from horomix import cover_spectrum
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
from horomix.errors import DomainError, LatticeSizeError, ModelValidityError
from horomix.spectral_model import Perturbation, SpectralModel
from angular_bisect import bisected_angular_density
from lattice_full import full_characters, full_sweep_kept

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

    @pytest.mark.parametrize("n", [1, 2, 7, 255, 256, 4097])
    def test_axis_bits_are_the_signed_fractions(self, n):
        # j/n for j = −⌊n/2⌋ … ⌈n/2⌉ − 1, each one correctly rounded division
        indices = range(-(n // 2), (n + 1) // 2)
        ref = np.array([j / n for j in indices])
        pts = enumerate_characters(CharacterLattice((n,))).ravel()
        assert pts.tobytes() == ref.tobytes()
        # for j ≥ 0 they are the fractions a/n; for j < 0 the exact mirror of −j
        zero = n // 2
        assert pts[zero:].tobytes() == (np.arange((n + 1) // 2) / n).tobytes()
        paired = (n - 1) // 2
        assert pts[zero - paired : zero][::-1].tobytes() == (-pts[zero + 1 :]).tobytes()

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

    @pytest.mark.parametrize("f", [
        pytest.param(lambda lam: np.where(lam > 0.01, np.nan, lam), id="nan"),
        pytest.param(lambda lam: np.where(lam > 0.01, np.inf, -np.inf), id="inf-and-minus-inf"),
        pytest.param(lambda lam: np.full_like(lam, 1e308), id="overflowing-total"),
    ])
    def test_non_finite_sum_refused(self, model_d2, f):
        with pytest.raises(DomainError):
            spectral_average(model_d2, CharacterLattice((64, 64)), f, 0.05)

    def test_histogram_summary(self, model_d2):
        hist = build_histogram(model_d2, CharacterLattice((32, 32)), 0.05)
        assert hist.count == 49  # frozen exact count at N=32
        assert hist.mass == pytest.approx(49.0 / 1024.0, abs=1e-15)
        assert np.all(np.diff(hist.values) >= 0.0)
        assert 0.0 < hist.moments[0] < 0.05


def _model(gram, pert=None, validate=False):
    gram = np.atleast_2d(gram)
    model = SpectralModel(genus=2, rank_d=gram.shape[0], gram=gram, perturbation=pert)
    if validate:
        model.validate()
    return model


BOX_MODELS = {
    "identity_d1": _model([[1.0]]),
    "identity_d2": _model(np.eye(2)),
    "correlated_gram": _model([[1.0, 0.4], [0.4, 1.2]]),
    "quartic": _model(np.eye(2), Perturbation("quartic", 0.2)),
    "radial_quartic": _model(np.eye(2), Perturbation("radial_quartic", 0.5)),
    "rank1_quartic_gram": _model([[1.7]], Perturbation("quartic", 1.0)),
    "negative_quartic": _model(np.eye(2), Perturbation("quartic", -0.5), validate=True),
}
BOX_ORDERS = [(1, 1), (2, 3), (255, 256), (64, 64)]


def _box_lattice(model, orders):
    return CharacterLattice((math.prod(orders),) if model.rank_d == 1 else orders)


def _negative_quartic(d):
    return _model(np.eye(d), Perturbation("quartic", -0.5), validate=True)


# (model, orders): ragged orders whose boxes span several blocks of the
# default _BLOCK; a negative coefficient sweeps the whole torus
SWEEP_CASES = {
    "rank1_quartic_gram": (BOX_MODELS["rank1_quartic_gram"], (50_000,)),
    "correlated_gram": (BOX_MODELS["correlated_gram"], (600, 640)),
    "negative_quartic": (BOX_MODELS["negative_quartic"], (255, 256)),
    "correlated_d3": (
        _model([[1.0, 0.15, -0.1], [0.15, 1.1, 0.1], [-0.1, 0.1, 0.9]]), (97, 101, 103)
    ),
    "negative_quartic_d3": (_negative_quartic(3), (31, 32, 33)),
}

# whole-torus boxes, where an even order leaves the index −N/2 without a
# mirror: the edge shell.  At d = 1 and N ≤ 4 even the unperturbed box
# reaches the torus edge.
EDGE_CASES = {
    **{f"identity_d1-{n}": (BOX_MODELS["identity_d1"], (n,)) for n in (1, 2, 3, 4)},
    **{f"negative_quartic_d1-{n}": (_negative_quartic(1), (n,)) for n in (1, 2, 3, 4)},
    "negative_quartic-256x255": (BOX_MODELS["negative_quartic"], (256, 255)),
    "correlated_gram-255x256": (
        _model([[1.0, 0.4], [0.4, 1.2]], Perturbation("quartic", -0.5), validate=True),
        (255, 256),
    ),
    # even on every axis, so every axis has an unpaired index
    "negative_quartic_d3-32x32x32": (_negative_quartic(3), (32, 32, 32)),
}


class TestSweepBox:
    """The half sweep keeps, pair by pair, the values of the full-box
    oracle of ``lattice_full``, and its average is ``math.fsum`` over
    them."""

    @pytest.mark.parametrize("orders", BOX_ORDERS)
    @pytest.mark.parametrize("name", sorted(BOX_MODELS))
    def test_box_keeps_the_full_sweep_bits(self, name, orders):
        model = BOX_MODELS[name]
        lattice = _box_lattice(model, orders)
        reference = np.sort(full_sweep_kept(model, lattice.orders, 0.05))
        kept = build_histogram(model, lattice, 0.05).values
        assert kept.size > 0
        assert kept.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("fn", ["one", "linear", "bump"])
    @pytest.mark.parametrize("orders", BOX_ORDERS)
    @pytest.mark.parametrize("name", sorted(BOX_MODELS))
    def test_average_is_the_exactly_rounded_sum(self, name, orders, fn):
        model = BOX_MODELS[name]
        lattice = _box_lattice(model, orders)
        f = make_test_function(fn, 0.05)
        kept = full_sweep_kept(model, lattice.orders, 0.05)
        reference = math.fsum(f(kept).tolist()) / lattice.size
        assert spectral_average(model, lattice, f, 0.05) == reference

    @pytest.mark.parametrize("model, orders, fn, expected", [
        # np.sum of the same values gives 0.020182631884715918
        pytest.param(_model(np.eye(2)), (512, 512), "bump", 0.02018263188471592,
                     id="identity-512x512-bump"),
        # np.sum of the same values gives 0.008397739602898833
        pytest.param(_model([[1.0]], Perturbation("quartic", 1.0)), (1_000_001,), "linear",
                     0.008397739602898835, id="rank1-quartic-1000001-linear"),
    ])
    def test_average_where_a_pairwise_sum_is_one_ulp_off(self, model, orders, fn, expected):
        lattice = CharacterLattice(orders)
        values = make_test_function(fn, 0.05)(full_sweep_kept(model, orders, 0.05))
        assert math.fsum(values.tolist()) / lattice.size == expected
        assert float(np.sum(values)) / lattice.size == np.nextafter(expected, 0.0)
        assert spectral_average(model, lattice, make_test_function(fn, 0.05), 0.05) == expected

    def test_histogram_moments_are_exactly_rounded(self):
        model, orders = SWEEP_CASES["correlated_gram"]
        kept = full_sweep_kept(model, orders, 0.05)
        hist = build_histogram(model, CharacterLattice(orders), 0.05)
        size = math.prod(orders)
        assert hist.moments == (
            math.fsum(kept.tolist()) / size, math.fsum((kept * kept).tolist()) / size
        )

    def test_lattice_above_cap_with_small_box_is_swept(self, model_d2):
        # 1.21e8 characters, above GRID_CAP; the box holds under 1e6 of them
        avg = spectral_average(
            model_d2, CharacterLattice((11000, 11000)),
            make_test_function("one", 0.005), 0.005,
        )
        assert abs(avg - 0.005) <= 2.0 / 11000.0

    def test_box_above_cap_refused(self, model_d2):
        with pytest.raises(LatticeSizeError):
            spectral_average(model_d2, CharacterLattice((10**6, 10**6)), ONE, 0.05)

    def test_huge_lattice_refused_before_allocation(self, model_d1):
        lattice = CharacterLattice((10**12,))
        start = time.perf_counter()
        with pytest.raises(LatticeSizeError):
            enumerate_characters(lattice)
        with pytest.raises(LatticeSizeError):
            spectral_average(model_d1, lattice, ONE, 0.05)
        assert time.perf_counter() - start < 1.0

    def test_sublevel_set_leaving_u_refused(self):
        # {π|ω|² ≤ 0.05} has radius 0.126, beyond the box U of half-width 0.05
        model = SpectralModel(genus=2, rank_d=2, gram=np.eye(2), domain_u=[0.05, 0.05])
        lattice = CharacterLattice((64, 64))
        with pytest.raises(ModelValidityError, match="leaves the working box U"):
            spectral_average(model, lattice, ONE, 0.05)
        with pytest.raises(ModelValidityError, match="leaves the working box U"):
            build_histogram(model, lattice, 0.05)


class TestBlockedSweep:
    """The sweep builds (B, d) blocks from the per-axis representatives,
    never the box, and visits one member of each ±ω pair; the kept
    multiset and the average are those of one λ₀ call on every character."""

    @pytest.mark.parametrize("block", [7, 100, cover_spectrum._BLOCK])
    @pytest.mark.parametrize("name", sorted(SWEEP_CASES) + sorted(EDGE_CASES))
    def test_kept_values_equal_a_full_box_reference(self, monkeypatch, name, block):
        model, orders = {**SWEEP_CASES, **EDGE_CASES}[name]
        lattice = CharacterLattice(orders)
        reference = full_sweep_kept(model, orders, 0.05)
        monkeypatch.setattr(cover_spectrum, "_BLOCK", block)
        kept = build_histogram(model, lattice, 0.05).values
        assert kept.size > 0
        assert kept.tobytes() == np.sort(reference).tobytes()
        f = make_test_function("linear", 0.05)
        assert spectral_average(model, lattice, f, 0.05) == (
            math.fsum(f(reference).tolist()) / lattice.size
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sublevel_set_leaving_u_refused_in_a_later_block(self, monkeypatch, d):
        # {π|ω|² ≤ 0.05} has radius 0.126; U has half-width 0.05, and the
        # first blocks, at the box's corner, keep no point
        model = SpectralModel(genus=2, rank_d=d, gram=np.eye(d), domain_u=[0.05] * d)
        monkeypatch.setattr(cover_spectrum, "_BLOCK", 7)
        with pytest.raises(ModelValidityError, match="leaves the working box U"):
            spectral_average(model, CharacterLattice((64,) * d), ONE, 0.05)

    @pytest.mark.parametrize("block", [7, cover_spectrum._BLOCK])
    @pytest.mark.parametrize("name", [
        "negative_quartic", "negative_quartic_d3",
        "negative_quartic-256x255", "negative_quartic_d3-32x32x32",
    ])
    def test_lambda0_sees_row_blocks_covering_the_box(self, monkeypatch, name, block):
        # a negative coefficient sweeps the whole torus, so the box is the
        # lattice: λ₀ sees each ±ω pair of its symmetric core once, the
        # origin once, and every point with an index −N/2 (N even) once
        model, orders = {**SWEEP_CASES, **EDGE_CASES}[name]
        lattice = CharacterLattice(orders)
        shapes = []
        evaluate = SpectralModel.lambda0_batch

        def recording(self, pts):
            shapes.append(np.shape(pts))
            return evaluate(self, pts)

        monkeypatch.setattr(cover_spectrum, "_BLOCK", block)
        monkeypatch.setattr(SpectralModel, "lambda0_batch", recording)
        spectral_average(model, lattice, ONE, 0.05)
        d = model.rank_d
        assert all(len(s) == 2 and s[1] == d and 1 <= s[0] <= block for s in shapes)
        core = math.prod(n - 1 + n % 2 for n in orders)
        assert sum(s[0] for s in shapes) == (core + 1) // 2 + lattice.size - core

    @pytest.mark.parametrize("orders, coeff, built", [
        # the box −12616 … 12616: its zero and positive half
        ((100_000,), 1.0, 1 + 12616),
        # the whole torus −50000 … 49999: zero, positive half and edge
        ((100_000,), -0.5, 1 + 49_999 + 1),
        # a later axis with an edge: both cores (255 each), both zeros,
        # both positive halves (127 each) and the edge −128
        ((255, 256), -0.5, 2 * 255 + 2 + 2 * 127 + 1),
    ], ids=["rank1-box", "rank1-torus", "ragged-torus"])
    def test_only_the_swept_representatives_are_built(self, monkeypatch, orders, coeff, built):
        model = _model(np.eye(len(orders)), Perturbation("quartic", coeff))
        sizes = []
        axis = cover_spectrum._axis

        def recording(n, j0, j1):
            sizes.append(j1 - j0)
            return axis(n, j0, j1)

        monkeypatch.setattr(cover_spectrum, "_axis", recording)
        spectral_average(model, CharacterLattice(orders), ONE, 0.05)
        assert sum(sizes) == built

    def test_oracle_characters_are_the_enumerated_ones(self):
        for orders in [(1,), (4,), (5, 6), (2, 3, 4)]:
            pts = enumerate_characters(CharacterLattice(orders))
            assert pts.tobytes() == full_characters(orders).tobytes()


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

        got = _angular_density_2d(model_d2, np.geomspace(1e-12, 0.05, 50))
        assert got == pytest.approx(np.ones(50), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_newton_route_matches_the_bisection_oracle(self, seed, sign):
        from horomix.cover_spectrum import _angular_density_2d

        model = _seeded_quartic(seed, sign)
        xs = np.geomspace(1e-12 * 0.05, 0.05, 60)
        got = _angular_density_2d(model, xs)
        assert got == pytest.approx(bisected_angular_density(model, xs), rel=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_every_root_is_certified(self, monkeypatch, sign):
        # each radius the density uses lies within 1e-15 + 8.9e-16·r of a
        # sign change of λ₀(r·e) − x
        model = _seeded_quartic(7, sign)
        solved = []
        solve = cover_spectrum._newton_roots

        def recording(fn, start, lo, hi, xtol, rtol):
            roots = solve(fn, start, lo, hi, xtol, rtol)
            solved.append((fn, roots, xtol + rtol * np.abs(roots)))
            return roots

        monkeypatch.setattr(cover_spectrum, "_newton_roots", recording)
        s, _ = cover_spectrum.gauss_legendre(0.0, math.sqrt(0.05), 200)
        limit_density(model, 0.05, s * s)
        [(fn, roots, tol)] = solved
        assert roots.shape == (200, 64)
        assert np.all(fn(roots - tol) <= 0.0) and np.all(fn(roots + tol) >= 0.0)

    def test_lambda0_call_budget(self, monkeypatch):
        # bisection took 52 batched λ₀ calls for 200 levels
        model = _seeded_quartic(3, 1.0)
        calls = []
        evaluate = SpectralModel.lambda0_batch

        def counting(self, pts):
            calls.append(np.shape(pts))
            return evaluate(self, pts)

        monkeypatch.setattr(SpectralModel, "lambda0_batch", counting)
        s, _ = cover_spectrum.gauss_legendre(0.0, math.sqrt(0.05), 200)
        limit_density(model, 0.05, s * s)
        assert len(calls) <= 20

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


def _seeded_quartic(seed, sign):
    """A non-radial quartic model with a correlated Gram and a coefficient
    of the given sign, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.8, 1.25, 2)
    c = rng.uniform(-0.25, 0.25) * math.sqrt(a * b)
    pert = Perturbation("quartic", sign * rng.uniform(0.1, 0.5))
    return SpectralModel(genus=2, rank_d=2, gram=[[a, c], [c, b]], perturbation=pert)


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
