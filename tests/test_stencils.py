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
    columns,
    exact_sum,
    fornberg_weights,
    gauss_legendre,
    legendre_rule,
    quadratic_form,
    sweep_grid,
    tensor_grid,
)
from horomix.errors import DomainError, LatticeSizeError
from horomix.spectral_model import Perturbation, SpectralModel
from finite_differences import finite_difference_gradient, finite_difference_hessian
from monotone_bisect import bracketed_roots


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
        got = quadratic_form(columns(pts), matrix)
        assert got.tobytes() == np.einsum("...i,ij,...j->...", pts, matrix, pts).tobytes()
        assert got.tobytes() == np.einsum("ni,ij,nj->n", pts, matrix, pts).tobytes()

    def test_batch_shapes_and_a_single_point(self):
        rng = np.random.default_rng(3)
        matrix = _spd(rng, 3)
        pts = rng.uniform(-0.5, 0.5, (4, 5, 3))
        got = quadratic_form(columns(pts), matrix)
        assert got.shape == (4, 5)
        assert got.tobytes() == np.einsum("...i,ij,...j->...", pts, matrix, pts).tobytes()
        assert float(quadratic_form(columns(pts[1, 2]), matrix)) == got[1, 2]

    def test_even_bit_for_bit(self):
        rng = np.random.default_rng(4)
        matrix = _spd(rng, 3)
        pts = rng.uniform(-0.5, 0.5, (20_000, 3))
        assert (quadratic_form(columns(-pts), matrix).tobytes()
                == quadratic_form(columns(pts), matrix).tobytes())


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
    """The batched bisection of tests/monotone_bisect.py, which the density
    and Morse-chart oracles solve their radii with."""

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


def _bump_shuffled(n):
    """n values of the bump test function, from 1 down past 1e-300, a third
    of them negated, in a fixed shuffled order so every chunk spans the
    whole range."""
    eps = 0.05
    vals = np.exp(1.0 - eps / (eps - np.linspace(0.0, eps, n + 1)[:-1]))
    assert np.min(vals[vals > 0.0]) < 1e-300
    vals[::3] *= -1.0
    return np.random.default_rng(5).permutation(vals)


_NP_ADD = np.add


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

    @pytest.mark.parametrize("value", [1.0, 0.1, -3.0, 2.0**-1060, 5e-324, 1e300, 0.0])
    @pytest.mark.parametrize("chunk", [1, 7, _stencils._SUM_CHUNK])
    def test_repeated_value_chunks(self, monkeypatch, value, chunk):
        # one value repeated: 1.0 leaves remainder 0 after the first level
        # and stops there, 0.1 does not; tiny values take the exponent route
        monkeypatch.setattr(_stencils, "_SUM_CHUNK", chunk)
        x = np.full(50, value)
        _same_sum_as_fsum(x)
        _same_sum_as_fsum(np.concatenate([x, [value / 3.0]]))

    def test_a_repeated_value_with_no_remainder_stops_after_one_level(self, monkeypatch):
        sums = []
        monkeypatch.setattr(np, "add", lambda *a, **k: sums.append(1) or _NP_ADD(*a, **k))
        assert exact_sum(np.ones(3 * _stencils._SUM_CHUNK)) == 3.0 * _stencils._SUM_CHUNK
        assert len(sums) == 3
        sums.clear()
        assert exact_sum(np.full(10, 0.1)) == math.fsum([0.1] * 10)
        assert len(sums) == 2

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

    @pytest.mark.parametrize("build", [
        pytest.param(lambda n: np.concatenate([
            np.linspace(-1.0, 3.0, n), np.tile([0.0, -0.0], n // 2), np.linspace(1e-3, 1.0, 7),
        ]), id="signed-zero-chunk-between"),
        pytest.param(lambda n: np.concatenate([
            np.linspace(-1.0, 3.0, n),
            # σ above 2^1023, σ = 2^1024 and σ = 2^1023
            *(np.tile([big, 1.0, -big, 2.0**-60], n // 4)
              for big in (_DBL_MAX / 2, 1.5 * 2.0**1006, 1.5 * 2.0**1005)),
            np.linspace(1e-3, 1.0, n),
        ]), id="near-dbl-max-chunks"),
        pytest.param(lambda n: np.concatenate([
            np.linspace(0.5, 2.0, n),
            # subnormal chunks: the first sets σ = 2^−1004, the second's σ
            # would be subnormal
            np.random.default_rng(7).integers(-(2**52), 2**52, n) * 5e-324,
            np.random.default_rng(8).integers(-(2**20), 2**20, n) * 5e-324,
            np.linspace(-2.0, 0.5, 5),
        ]), id="subnormal-chunks"),
    ])
    def test_default_chunks_have_the_bits_of_fsum(self, build):
        _same_sum_as_fsum(build(_stencils._SUM_CHUNK))

    def test_bump_tails_over_default_chunks(self, monkeypatch):
        tails = []
        exponent_total = _stencils._exponent_total
        monkeypatch.setattr(_stencils, "_exponent_total",
                            lambda x: tails.append(x.size) or exponent_total(x))
        vals = _bump_shuffled(200_001)
        _same_sum_as_fsum(vals)
        # every chunk leaves some tails to the per-exponent route
        assert len(tails) == -(-vals.size // _stencils._SUM_CHUNK)

    def test_cancellation_across_default_chunks(self):
        x = np.random.default_rng(21).standard_normal(_stencils._SUM_CHUNK * 3 // 2)
        x = np.ldexp(x, np.arange(x.size) % 97 - 48)
        cancelled = np.concatenate([x, -x[::-1]])
        assert np.float64(exact_sum(cancelled)).tobytes() == np.float64(0.0).tobytes()
        _same_sum_as_fsum(cancelled)

    def test_read_only_input_is_not_written(self):
        x = _bump_shuffled(3 * _stencils._SUM_CHUNK + 5)
        x.flags.writeable = False
        before = x.tobytes()
        _same_sum_as_fsum(x)
        assert x.tobytes() == before

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
