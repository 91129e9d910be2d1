import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import brentq

from horomix import _stencils
from horomix._stencils import (
    SWEEP_BUDGET,
    bracketed_roots,
    exact_sum,
    finite_difference_gradient,
    finite_difference_hessian,
    fornberg_weights,
    gauss_legendre,
    legendre_rule,
    monotone_inverse,
    quadratic_form,
    sweep_grid,
    tensor_grid,
)
from horomix.errors import DomainError, LatticeSizeError
from horomix.spectral_model import Perturbation, SpectralModel


class TestGaussLegendre:
    def test_exact_on_polynomials_below_twice_the_node_count(self):
        x, w = gauss_legendre(-0.3, 1.7, 4)
        for k in range(8):
            exact = (1.7 ** (k + 1) - (-0.3) ** (k + 1)) / (k + 1)
            assert np.dot(w, x**k) == pytest.approx(exact, rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize(
        "n, hi",
        [(64, 2.0 * math.pi)] + [(200, math.sqrt(eps)) for eps in (1e-4, 0.01, 0.0625, 0.2)],
    )
    def test_same_bits_as_the_maps_it_replaced(self, n, hi):
        # the cover-density maps on [0, 2π] and [0, √ε]: (hi/2)·(x + 1), (hi/2)·w
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        x, w = gauss_legendre(0.0, hi, n)
        assert np.array_equal(x, 0.5 * hi * (ref_x + 1.0))
        assert np.array_equal(w, 0.5 * hi * ref_w)

    def test_reference_rule_is_cached_and_read_only(self):
        x, w = legendre_rule(24)
        again = legendre_rule(24)
        assert again[0] is x and again[1] is w
        ref_x, ref_w = np.polynomial.legendre.leggauss(24)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        with pytest.raises(ValueError):
            x[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


def _scalar_fornberg(nodes, x0, order):
    """Fornberg's recursion as published, one window and one weight at a time."""
    n = nodes.size
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2, c5, c4 = 1.0, c4, nodes[i] - x0
        for j in range(i):
            c3 = nodes[i] - nodes[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c


class TestFornbergWeights:
    NODES = np.array([-0.7, -0.25, 0.1, 0.55, 1.3, 2.0])  # non-uniform
    X0 = 0.37  # off every node

    @pytest.mark.parametrize("order", range(6))
    @pytest.mark.parametrize("degree", range(6))
    def test_exact_on_polynomials_below_node_count(self, order, degree):
        w = fornberg_weights(self.NODES, self.X0, order)[:, order]
        exact = (
            math.factorial(degree) / math.factorial(degree - order) * self.X0 ** (degree - order)
            if order <= degree
            else 0.0
        )
        assert w @ self.NODES**degree == pytest.approx(exact, rel=1e-10, abs=1e-10)

    def test_batch_has_the_bits_of_single_windows(self):
        # sliding 5-point windows of a graded grid, in t and in log t, with
        # x0 at the window centre and off every node
        t = np.geomspace(1e-2, 1e4, 40)
        win = np.arange(t.size - 4)[:, None] + np.arange(5)
        for nodes in (t[win], np.log(t[win])):
            for x0 in (nodes[:, 2], 0.37 * nodes[:, 1] + 0.63 * nodes[:, 2]):
                table = fornberg_weights(nodes, x0, 4)
                assert table.shape == (win.shape[0], 5, 5)
                for b in range(win.shape[0]):
                    assert np.array_equal(table[b], fornberg_weights(nodes[b], x0[b], 4))

    @pytest.mark.parametrize("order", [0, 1, 4, 9])
    def test_same_bits_as_the_scalar_recursion(self, order):
        rng = np.random.default_rng(order)
        for n in range(1, 13):
            nodes = np.sort(rng.normal(size=(4, n)) * 10.0 ** rng.integers(-3, 4), axis=1)
            x0 = rng.normal(size=4)
            table = fornberg_weights(nodes, x0, order)
            for b in range(4):
                assert np.array_equal(table[b], _scalar_fornberg(nodes[b], x0[b], order))

    def test_x0_broadcasts_over_shared_nodes(self):
        x0 = np.array([[0.0, 0.37], [1.1, -0.7]])
        table = fornberg_weights(self.NODES, x0, 2)
        assert table.shape == (2, 2, self.NODES.size, 3)
        for idx in np.ndindex(x0.shape):
            assert np.array_equal(table[idx], fornberg_weights(self.NODES, x0[idx], 2))


class TestTensorGrid:
    def test_lex_order(self):
        axes = [np.array([0.0, 1.0]), np.array([10.0, 20.0, 30.0]), np.array([-1.0, 5.0])]
        np.testing.assert_array_equal(tensor_grid(axes), list(product(*axes)))

    def test_cap_refuses_before_allocation(self):
        # 1e6^3 points would need 2.4e19 bytes; only the axes are allocated
        axis = np.zeros(1_000_000)
        with pytest.raises(LatticeSizeError):
            tensor_grid([axis, axis, axis])

    def test_cap_is_inclusive(self):
        assert tensor_grid([np.arange(3.0), np.arange(4.0)], cap=12).shape == (12, 2)
        with pytest.raises(LatticeSizeError):
            tensor_grid([np.arange(3.0), np.arange(4.0)], cap=11)


def _spd(rng, d):
    a = rng.normal(size=(d, d))
    return a @ a.T + d * np.eye(d)


class TestQuadraticForm:
    # np.einsum is the oracle here only; the library never calls it
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
    def test_equals_both_einstein_sums_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        matrix = _spd(rng, d)
        pts = rng.uniform(-0.5, 0.5, (20_000, d))
        pts[::7, 0] = 0.0  # zero coordinates, so some terms are ±0.0
        got = quadratic_form(pts, matrix)
        assert got.tobytes() == np.einsum("...i,ij,...j->...", pts, matrix, pts).tobytes()
        assert got.tobytes() == np.einsum("ni,ij,nj->n", pts, matrix, pts).tobytes()

    def test_batch_shapes_and_a_single_point(self):
        rng = np.random.default_rng(3)
        matrix = _spd(rng, 3)
        pts = rng.uniform(-0.5, 0.5, (4, 5, 3))
        got = quadratic_form(pts, matrix)
        assert got.shape == (4, 5)
        assert got.tobytes() == np.einsum("...i,ij,...j->...", pts, matrix, pts).tobytes()
        assert float(quadratic_form(pts[1, 2], matrix)) == got[1, 2]

    def test_even_bit_for_bit(self):
        rng = np.random.default_rng(4)
        matrix = _spd(rng, 3)
        pts = rng.uniform(-0.5, 0.5, (20_000, 3))
        assert quadratic_form(-pts, matrix).tobytes() == quadratic_form(pts, matrix).tobytes()


def _pointwise_gradient(fn, x0):
    """The stencil one point per call, as it was before batching."""
    d = x0.size
    h = 1e-5
    grad = np.empty(d)
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        grad[i] = (float(fn(x0 + e)) - float(fn(x0 - e))) / (2 * h)
    return grad


def _pointwise_hessian(fn, x0):
    def hess_at(step):
        d = x0.size
        out = np.empty((d, d))
        f0 = float(fn(x0))
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = step
            out[i, i] = (float(fn(x0 + ei)) - 2 * f0 + float(fn(x0 - ei))) / step**2
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = step
                mixed = (
                    float(fn(x0 + ei + ej))
                    - float(fn(x0 + ei - ej))
                    - float(fn(x0 - ei + ej))
                    + float(fn(x0 - ei - ej))
                ) / (4 * step**2)
                out[i, j] = out[j, i] = mixed
        return out

    h = 1e-4
    coarse = hess_at(h)
    fine = hess_at(h / 2)
    return (4.0 * fine - coarse) / 3.0


class TestFiniteDifferences:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("at_origin", [True, False], ids=["origin", "off-origin"])
    def test_one_call_same_bits_as_pointwise_calls(self, d, at_origin):
        rng = np.random.default_rng(10 + d)
        model = SpectralModel(genus=2, rank_d=d, gram=_spd(rng, d) / d,
                              perturbation=Perturbation("quartic", 0.3))
        x0 = np.zeros(d) if at_origin else rng.uniform(-0.05, 0.05, d)
        calls = []

        def fn(pts):
            calls.append(np.shape(pts))
            return model.lambda0_batch(pts)

        grad = finite_difference_gradient(fn, x0)
        hess = finite_difference_hessian(fn, x0)
        assert calls == [(2 * d, d), (2 * (1 + 2 * d * d), d)]
        assert grad.tobytes() == _pointwise_gradient(model.lambda0_batch, x0).tobytes()
        assert hess.tobytes() == _pointwise_hessian(model.lambda0_batch, x0).tobytes()


class TestSweepGrid:
    @pytest.mark.parametrize("d", range(1, 6))
    def test_full_resolution_through_rank_5(self, d):
        pts = sweep_grid(np.full(d, 0.3), 11)
        assert pts.shape == (11**d, d)
        np.testing.assert_array_equal(np.unique(pts[:, 0]), np.linspace(-0.3, 0.3, 11))

    @pytest.mark.parametrize("d, per_axis", [(6, 10), (8, 5)])
    def test_shrinks_to_budget(self, d, per_axis):
        pts = sweep_grid(np.full(d, 0.3), 11)
        assert pts.shape == (per_axis**d, d) and pts.shape[0] <= SWEEP_BUDGET

    def test_box_vertices_are_the_floor(self):
        # 3^13 > budget: only the vertices are left
        pts = sweep_grid(np.full(13, 0.5), 9)
        assert pts.shape == (2**13, 13) and set(np.unique(pts)) == {-0.5, 0.5}
        # 2^20 vertices exceed the budget: refused before anything is allocated
        with pytest.raises(LatticeSizeError, match=str(2**20)):
            sweep_grid(np.full(20, 0.5), 9)


# s·(a(x − r) + b(x − r)³) is strictly monotone with its only root at r exactly
_MONOTONE = st.tuples(
    st.floats(-10.0, 10.0),                        # r
    st.floats(1e-3, 1e3),                          # a
    st.floats(0.0, 1e3),                           # b
    st.sampled_from([-1.0, 1.0]),                  # s
    st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),  # bracket offsets below / above r
)


class TestBracketedRoots:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(_MONOTONE, min_size=1, max_size=8),
        st.floats(1e-16, 1e-6),
        st.sampled_from([8.9e-16, 1e-12, 1e-8]),
    )
    def test_agrees_with_brentq(self, cases, xtol, rtol):
        r, a, b, sgn, below, above = (np.array(c) for c in zip(*cases))

        def fn(x):
            return sgn * (a * (x - r) + b * (x - r) ** 3)

        lo, hi = r - below, r + above
        got = bracketed_roots(fn, lo, hi, xtol, rtol)
        for i in range(r.size):
            ref = brentq(lambda x: float(fn(np.full(r.size, x))[i]), lo[i], hi[i],
                         xtol=xtol, rtol=rtol)
            tol = xtol + rtol * abs(r[i]) + 2.0 * np.spacing(r[i])
            assert abs(got[i] - r[i]) <= tol
            assert abs(got[i] - ref) <= 2.0 * tol

    def test_no_sign_change_raises(self):
        fn = lambda x: x * x + 1.0
        with pytest.raises(DomainError):
            bracketed_roots(fn, -1.0, 1.0, 1e-12, 1e-12)
        # one bad bracket in a batch is enough
        with pytest.raises(DomainError):
            bracketed_roots(lambda x: x - 0.5, [0.0, 0.6], [1.0, 1.0], 1e-12, 1e-12)

    def test_root_at_a_bracket_end(self):
        got = bracketed_roots(lambda x: x - 0.25, [0.25, -1.0], [1.0, 0.25], 1e-12, 1e-12)
        np.testing.assert_array_equal(got, [0.25, 0.25])

    @pytest.mark.parametrize("root", [1e3 + 1.0 / 3.0, 1e-3 / 7.0, -2.5e5 / 3.0])
    def test_stops_at_adjacent_floats_below_one_ulp(self, root):
        # xtol far below one ulp of the root: only adjacent floats end it
        calls = []

        def fn(x):
            calls.append(1)
            return np.tanh(x - root)

        got = bracketed_roots(fn, root - 1.0, root + 2.0, xtol=1e-300, rtol=0.0)
        assert abs(got - root) <= np.spacing(abs(root))
        assert len(calls) < 200


class TestNewtonRoots:
    @settings(deadline=None, max_examples=60)
    @given(
        # the start, as a fraction of the bracket
        st.lists(st.tuples(_MONOTONE, st.floats(0.0, 1.0)), min_size=1, max_size=8),
        st.floats(1e-16, 1e-6),
        st.sampled_from([8.9e-16, 1e-12, 1e-8]),
    )
    def test_agrees_with_bracketed_roots(self, cases, xtol, rtol):
        # the contract of test_agrees_with_brentq, on the rising a(x − r) + b(x − r)³
        r, a, b, _, below, above, at = (np.array(c) for c in zip(*(c + (t,) for c, t in cases)))

        def fn(x):
            return a * (x - r) + b * (x - r) ** 3

        lo, hi = r - below, r + above
        got = _stencils._newton_roots(fn, lo + at * (hi - lo), lo, hi, xtol, rtol)
        ref = bracketed_roots(fn, lo, hi, xtol, rtol)
        tol = xtol + rtol * np.abs(r) + 2.0 * np.spacing(r)
        assert np.all(np.abs(got - r) <= tol)
        assert np.all(np.abs(got - ref) <= 2.0 * tol)

    @pytest.mark.parametrize("fn, start, lo, hi", [
        # Newton from 0 cycles 0 → 1 → 0; the step to 1 leaves the bracket
        pytest.param(lambda x: x**3 - 2.0 * x + 2.0, 0.0, -3.0, 2.0, id="cycle"),
        # zero slope at the start: the first step is infinite
        pytest.param(lambda x: x**3 - 0.2, 0.0, -1.0, 1.0, id="flat-start"),
        # an inflection between the start and the root
        pytest.param(lambda x: np.arctan(x - 0.7) + 0.1, 4.0, -10.0, 10.0, id="inflection"),
    ])
    def test_steps_leaving_the_bracket_still_certify(self, fn, start, lo, hi):
        xtol, rtol = 1e-15, 8.9e-16
        x = float(_stencils._newton_roots(fn, start, lo, hi, xtol, rtol))
        tol = xtol + rtol * abs(x)
        assert lo <= x <= hi
        assert fn(x - tol) <= 0.0 <= fn(x + tol)

    def test_uncertified_roots_fall_back_to_bisection(self, monkeypatch):
        # a jump has no slope to follow: twelve midpoint steps cannot reach
        # the tolerance, so that element is bisected; the smooth one keeps
        # its Newton root
        bisected = []
        bisect = _stencils.bracketed_roots

        def recording(fn, lo, hi, xtol, rtol):
            bisected.append(np.shape(lo))
            return bisect(fn, lo, hi, xtol, rtol)

        monkeypatch.setattr(_stencils, "bracketed_roots", recording)
        jump = np.array([False, True])

        def fn(x):
            return np.where(jump, np.where(x < 0.3, -1.0, 1.0), x * x - 0.5)

        got = _stencils._newton_roots(fn, [1.0, 0.9], 0.0, 1.0, 1e-15, 8.9e-16)
        assert bisected == [(2,)]
        assert abs(got[0] - math.sqrt(0.5)) <= 2e-15
        assert abs(got[1] - 0.3) <= 1e-15 + 8.9e-16 * 0.3
        tol = 1e-15 + 8.9e-16 * got
        assert np.all(fn(got - tol) <= 0.0) and np.all(fn(got + tol) >= 0.0)

    def test_bracket_without_a_sign_change_raises(self):
        with pytest.raises(DomainError):
            _stencils._newton_roots(lambda x: x * x + 1.0, 0.5, -1.0, 1.0, 1e-12, 1e-12)


class TestMonotoneInverse:
    def test_inverts_quadratic_profile(self):
        c = 0.5
        x = np.array([0.0, 1e-10, 0.05, 3.0, 1e5])
        q = monotone_inverse(lambda q: q + c * q * q, x, xtol=1e-16, rtol=8.9e-16)
        exact = 2.0 * x / (1.0 + np.sqrt(1.0 + 4.0 * c * x))
        np.testing.assert_allclose(q, exact, rtol=4e-16, atol=0.0)

    def test_unreachable_level_raises(self):
        with pytest.raises(DomainError):
            monotone_inverse(np.tanh, np.array([0.5, 2.0]), xtol=1e-15, rtol=1e-15)


_DBL_MAX = np.finfo(float).max


def _same_sum_as_fsum(x):
    """exact_sum(x) has the bits of math.fsum(x).  Where only fsum's partial
    sums overflow it raises, and the exact Fraction sum, rounded by
    float(), is the reference; where that overflows too, DomainError."""
    try:
        try:
            ref = math.fsum(x.tolist())
        except OverflowError:
            ref = float(sum(map(Fraction, x.tolist()), Fraction(0)))
    except OverflowError:
        with pytest.raises(DomainError, match="overflows"):
            exact_sum(x)
        return
    assert np.float64(exact_sum(x)).tobytes() == np.float64(ref).tobytes()


class TestExactSum:
    @settings(deadline=None, max_examples=300)
    @given(
        # st.floats spans the whole exponent range, subnormals and both signs
        hnp.arrays(np.float64, st.integers(0, 40),
                   elements=st.floats(allow_nan=False, allow_infinity=False)),
        st.sampled_from([1, 2, 3, 7, _stencils._SUM_CHUNK]),
    )
    def test_has_the_bits_of_fsum(self, x, chunk):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_stencils, "_SUM_CHUNK", chunk)
            _same_sum_as_fsum(x)
            cancelled = np.concatenate([x, -x[::-1]])
            assert np.float64(exact_sum(cancelled)).tobytes() == np.float64(0.0).tobytes()
            _same_sum_as_fsum(cancelled)

    @pytest.mark.parametrize("x", [
        pytest.param([], id="empty"),
        pytest.param([-0.0], id="negative-zero"),
        pytest.param([2.5], id="single"),
        pytest.param([5e-324] * 3, id="subnormals"),
        pytest.param([2.0**-1022, -5e-324], id="largest-subnormal"),
        pytest.param([1.0, 2.0**-53], id="tie-to-even-down"),
        pytest.param([1.0 + 2.0**-52, 2.0**-53], id="tie-to-even-up"),
        pytest.param([1.0, 2.0**-53, 2.0**-1074], id="just-above-tie"),
        pytest.param([_DBL_MAX, -_DBL_MAX, 1.0], id="huge-cancellation"),
        pytest.param([1e100, 1.0, -1e100, 1e-100], id="small-after-cancellation"),
    ])
    def test_edge_cases(self, x):
        _same_sum_as_fsum(np.array(x, dtype=float))

    def test_empty_and_negative_zero_give_positive_zero(self):
        for x in ([], [-0.0], [-0.0, -0.0]):
            assert np.float64(exact_sum(np.array(x))).tobytes() == np.float64(0.0).tobytes()

    def test_bump_tails_over_many_chunks(self, monkeypatch):
        # the bump test function's values, from 1 down past 1e-300
        eps = 0.05
        x = np.linspace(0.0, eps, 5001)[:-1]
        vals = np.exp(1.0 - eps / (eps - x))
        assert np.min(vals[vals > 0.0]) < 1e-300
        vals = np.concatenate([vals, -vals[::3] / 3.0])
        monkeypatch.setattr(_stencils, "_SUM_CHUNK", 64)
        _same_sum_as_fsum(vals)

    def test_sum_where_only_fsum_partials_overflow(self):
        assert exact_sum(np.array([1e308, 1e308, -1e308])) == 1e308

    @pytest.mark.parametrize("x", [
        [np.nan], [1.0, np.inf], [-np.inf], [np.inf, -np.inf], [np.nan, np.inf],
    ])
    def test_non_finite_values_refused(self, x):
        with pytest.raises(DomainError, match="non-finite"):
            exact_sum(np.array(x))

    @pytest.mark.parametrize("x", [[_DBL_MAX, _DBL_MAX], [_DBL_MAX, 2.0**970]])
    def test_overflowing_sum_refused(self, x):
        # the second is DBL_MAX + half an ulp, a tie that rounds up to 2**1024
        with pytest.raises(DomainError, match="overflows"):
            exact_sum(np.array(x))
