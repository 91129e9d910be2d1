import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from horomix import _stencils, cover_spectrum, laplace, spectral_model
from horomix.cover_spectrum import (
    CharacterLattice,
    convergence_study,
    enumerate_characters,
    limit_density,
    limit_integral,
    spectral_average,
    make_test_function,
)
from horomix.errors import DomainError, LatticeSizeError, ModelValidityError, QuadratureError
from horomix.spectral_model import Perturbation, SpectralModel
from angular_bisect import angular_density, bisected_angular_density
import monotone_bisect
from lattice_full import full_characters, full_sweep_kept, half_sweep_kept
from lattice_histogram import build_histogram

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

    def test_bad_orders(self):
        with pytest.raises(DomainError):
            CharacterLattice((0, 3))

    @pytest.mark.parametrize("bad", [64.7, 64.0, True, np.True_, math.nan, math.inf, "64",
                                     None, np.float64(64.0)])
    def test_orders_that_are_not_integers_refused(self, bad):
        # int() truncated 64.7 to 64, took True for 1, and raised a raw
        # ValueError or OverflowError on nan and inf
        with pytest.raises(DomainError, match="must be a sequence of integers"):
            CharacterLattice((64, bad))

    @pytest.mark.parametrize("bad", [64, 64.0, None])
    def test_orders_that_are_not_a_sequence_refused(self, bad):
        # a bare 64 raised a raw TypeError
        with pytest.raises(DomainError, match="must be a sequence of integers"):
            CharacterLattice(bad)

    def test_numpy_integer_orders_accepted(self):
        lattice = CharacterLattice((np.int64(64), np.int32(3), np.uint8(5)))
        assert lattice.orders == (64, 3, 5)
        assert CharacterLattice(np.array([7, 9])).orders == (7, 9)
        assert all(type(n) is int for n in lattice.orders)


class TestLatticeRank:
    """A lattice whose rank is not the model's is refused before anything
    is swept: the box radii and the Gram rows were zipped with its orders
    and cut short."""

    # unchecked, these averages came out 0.265625, 8.1e-4 and 4.15e-3
    @pytest.mark.parametrize("model_name, orders", [
        ("model_d2", (64,)), ("model_d2", (64, 64, 64)), ("model_d1", (64, 64)),
    ])
    def test_spectral_average_refuses_another_rank(self, request, monkeypatch, model_name,
                                                   orders):
        model = request.getfixturevalue(model_name)
        monkeypatch.setattr(cover_spectrum, "_box_ranges", _never)
        with pytest.raises(DomainError, match=f"rank-{model.rank_d} model needs"):
            spectral_average(model, CharacterLattice(orders), ONE, 0.05)
        with pytest.raises(DomainError, match=f"rank-{model.rank_d} model needs"):
            build_histogram(model, CharacterLattice(orders), 0.05)

    def test_convergence_study_refuses_another_rank_before_its_limit(self, model_d2,
                                                                     monkeypatch):
        monkeypatch.setattr(cover_spectrum, "limit_integral", _never)
        monkeypatch.setattr(cover_spectrum, "_box_ranges", _never)
        with pytest.raises(DomainError, match="rank-2 model needs 2 lattice orders, got 1"):
            convergence_study(model_d2, ONE, 0.05, [(16, 16), (32,), (64, 64)])

    def test_convergence_study_refuses_non_integer_orders(self, model_d2, monkeypatch):
        monkeypatch.setattr(cover_spectrum, "limit_integral", _never)
        with pytest.raises(DomainError, match="must be a sequence of integers"):
            convergence_study(model_d2, ONE, 0.05, [(16, 16), (32.5, 32)])


def _never(*args, **kwargs):
    raise AssertionError("reached past the lattice checks")


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

    @pytest.mark.parametrize("f", [
        pytest.param(lambda x: 1.0, id="scalar"),
        pytest.param(lambda x: np.ones(1), id="one-element"),
    ])
    def test_f_must_be_elementwise_on_both_routes(self, model_d2, f):
        # a scalar 1 would count once per block in the sweep (7.63e-5 on
        # 256²) but once per node in the limit (0.05)
        lattice = CharacterLattice((256, 256))
        with pytest.raises(DomainError, match="elementwise"):
            spectral_average(model_d2, lattice, f, 0.05)
        with pytest.raises(DomainError, match="elementwise"):
            limit_integral(model_d2, f, 0.05)
        emp = spectral_average(model_d2, lattice, ONE, 0.05)
        assert abs(emp - limit_integral(model_d2, ONE, 0.05)) <= 2.0 / 256

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

    def test_exact_sum_keeps_the_bulk_off_the_exponent_route(self, monkeypatch):
        # the rank-1 case above: at most 5% of its kept values may leave the
        # extraction levels for the per-exponent route
        kept, tails = [], []
        exact_total, exponent_total = cover_spectrum._exact_total, _stencils._exponent_total
        monkeypatch.setattr(cover_spectrum, "_exact_total",
                            lambda x: kept.append(x.size) or exact_total(x))
        monkeypatch.setattr(_stencils, "_exponent_total",
                            lambda x: tails.append(x.size) or exponent_total(x))
        model = _model([[1.0]], Perturbation("quartic", 1.0))
        avg = spectral_average(model, CharacterLattice((1_000_001,)),
                               make_test_function("linear", 0.05), 0.05)
        assert avg == 0.008397739602898835
        assert sum(kept) > 0 and sum(tails) < 0.05 * sum(kept)

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
    """The sweep evaluates λ₀ on open-mesh blocks of the per-axis
    representatives, never on the box or a point array, and visits one
    member of each ±ω pair; the kept multiset and the average are those of
    one λ₀ call on every character."""

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
        meshes = []
        evaluate = SpectralModel.lambda0_mesh

        def recording(self, coords):
            meshes.append([np.shape(c) for c in coords])
            return evaluate(self, coords)

        monkeypatch.setattr(cover_spectrum, "_BLOCK", block)
        monkeypatch.setattr(SpectralModel, "lambda0_mesh", recording)
        spectral_average(model, lattice, ONE, 0.05)
        d = model.rank_d
        sizes = []
        for shapes in meshes:
            # d coordinates, each varying along at most one axis of the
            # block and no two along the same one
            assert len(shapes) == d
            axes = [[a for a, n in enumerate(shape) if n > 1] for shape in shapes]
            assert all(len(a) <= 1 for a in axes)
            assert len(sum(axes, [])) == len(set(sum(axes, [])))
            sizes.append(math.prod(np.broadcast_shapes(*shapes)))
        assert all(1 <= size <= block for size in sizes)
        core = math.prod(n - 1 + n % 2 for n in orders)
        assert sum(sizes) == (core + 1) // 2 + lattice.size - core

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
        if len(orders) == 1:
            # the leading axis is built one slab per block, never whole
            assert max(sizes) <= cover_spectrum._BLOCK

    def test_oracle_characters_are_the_enumerated_ones(self):
        for orders in [(1,), (4,), (5, 6), (2, 3, 4)]:
            pts = enumerate_characters(CharacterLattice(orders))
            assert pts.tobytes() == full_characters(orders).tobytes()


# a rank-1 box and a d = 2 torus with an edge shell, each of which spans
# several chunks at every (_BLOCK, _SUM_CHUNK) of STREAM_SIZES; (7, 5) has
# chunks smaller than a block
STREAM_CASES = {
    "rank1_quartic_gram": SWEEP_CASES["rank1_quartic_gram"],
    "negative_quartic-256x255": EDGE_CASES["negative_quartic-256x255"],
}
STREAM_SIZES = [(7, 5), (100, 64), (64, 300)]


class TestStreamedSweep:
    """The kept values of each block go straight into the exact sum: f
    sees at most _BLOCK of them per call, one per ±ω pair, in arrays it
    may keep, and the results keep the bits of one full-box sweep at every
    block and chunk size."""

    @pytest.fixture(params=STREAM_SIZES, ids=lambda p: f"block{p[0]}-chunk{p[1]}")
    def chunk(self, request, monkeypatch):
        block, chunk = request.param
        monkeypatch.setattr(cover_spectrum, "_BLOCK", block)
        monkeypatch.setattr(_stencils, "_SUM_CHUNK", chunk)
        return chunk

    @pytest.mark.parametrize("fn", ["one", "linear", "bump"])
    @pytest.mark.parametrize("name", sorted(STREAM_CASES))
    def test_average_is_the_exactly_rounded_sum(self, chunk, name, fn):
        model, orders = STREAM_CASES[name]
        lattice = CharacterLattice(orders)
        f = make_test_function(fn, 0.05)
        kept = full_sweep_kept(model, orders, 0.05)
        assert kept.size > 4 * chunk
        assert spectral_average(model, lattice, f, 0.05) == (
            math.fsum(f(kept).tolist()) / lattice.size
        )

    @pytest.mark.parametrize("name", sorted(STREAM_CASES))
    def test_f_sees_chunks_of_the_swept_representatives(self, chunk, name):
        model, orders = STREAM_CASES[name]
        seen = []

        def recording(x):
            seen.append(x)  # kept, not copied: no later call may write it
            return np.ones_like(x)

        spectral_average(model, CharacterLattice(orders), recording, 0.05)
        assert len(seen) > 4 and max(s.size for s in seen) <= cover_spectrum._BLOCK
        swept = np.sort(half_sweep_kept(model, orders, 0.05))
        assert np.sort(np.concatenate(seen)).tobytes() == swept.tobytes()

    def test_traced_peak_does_not_grow_with_the_lattice(self):
        # 1.25e5 and 1.0e6 kept values; the swept half axis of the larger
        # box alone would take 4 MB
        model = _model([[1.0]], Perturbation("quartic", 1.0))
        f = make_test_function("linear", 0.05)
        peaks = []
        for n in (1_000_001, 8_000_000):
            tracemalloc.start()
            try:
                spectral_average(model, CharacterLattice((n,)), f, 0.05)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**16

    @pytest.mark.parametrize("name", sorted(STREAM_CASES))
    def test_histogram_keeps_its_bytes_across_chunk_boundaries(self, monkeypatch, name):
        model, orders = STREAM_CASES[name]
        lattice = CharacterLattice(orders)
        reference = build_histogram(model, lattice, 0.05)
        for block, chunk in STREAM_SIZES:
            monkeypatch.setattr(cover_spectrum, "_BLOCK", block)
            monkeypatch.setattr(_stencils, "_SUM_CHUNK", chunk)
            hist = build_histogram(model, lattice, 0.05)
            assert hist.values.tobytes() == reference.values.tobytes()
            assert (hist.count, hist.mass, hist.moments) == (
                reference.count, reference.mass, reference.moments
            )


CORRELATED_D3 = [[1.0, 0.2, 0.1], [0.2, 0.9, -0.1], [0.1, -0.1, 1.1]]


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

    def test_face_route_matches_closed_form(self):
        # π|ω|² as a perturbed model, C = 0: the density is 1
        model = _model(np.eye(2), Perturbation("radial_quartic", 0.0))
        got = _face_density(model, np.geomspace(1e-12, 0.05, 50))
        assert got == pytest.approx(np.ones(50), rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_face_route_matches_the_angular_oracles(self, seed, sign):
        # the 64-angle closed form, and the same rule with bisected radii
        model = _seeded_quartic(seed, sign)
        xs = np.geomspace(1e-12 * 0.05, 0.05, 60)
        got = limit_density(model, 0.05, xs).density
        closed = angular_density(model, xs)
        assert got == pytest.approx(closed, rel=1e-12)
        assert closed == pytest.approx(bisected_angular_density(model, xs), rel=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_closed_form_radii_lie_on_the_level_sets(self, d, sign):
        # the radii s*² = 2x/(Q + √(Q² + 4Cx)) the density rests on meet
        # λ₀(s*·w) = x within a few ulp at every face node w = u ⊙ p: about
        # 5 roundings reach s*² and 8 more λ₀ (6 to 8 ulp of x over seeds
        # 0–9 of both signs at d = 2)
        model = _seeded_quartic(7, sign) if d == 2 else _quartic_d3(sign, CORRELATED_D3)
        faces, _ = _stencils._cube_faces(d, 24, 1.0)
        w = (faces * model.domain_u).reshape(-1, d)
        s, _ = cover_spectrum.gauss_legendre(0.0, math.sqrt(0.05 if d == 2 else 0.02), 200)
        x = (s * s)[:, None]
        quad = model.quadratic_part(_stencils.columns(w))
        quartic = model.perturbation(_stencils.columns(w), quad)
        r = np.sqrt(2.0 * x / (quad + np.sqrt(quad * quad + 4.0 * quartic * x)))
        assert np.all(r < 1.0)
        lam = model.lambda0_batch(r[..., None] * w)
        assert np.all(np.abs(lam - x) <= 16.0 * np.spacing(x))

    def test_face_density_at_zero_is_the_hessian_limit(self):
        # the closed form is finite at x = 0: (∏u/2)·Σ∫ dp / Q(u ⊙ p) = π/√det M
        model = _seeded_quartic(2, -1.0)
        table = limit_density(model, 0.05, np.array([0.0, 1e-6]))
        root_det = math.sqrt(float(np.linalg.det(model.quad_coeff * model.gram)))
        assert table.density[0] == pytest.approx(math.pi / root_det, rel=1e-14)
        assert table.zeta_tilde[0] == pytest.approx(table.density[0], rel=1e-14)

    @pytest.mark.parametrize("gram, pert", [
        ([[1.0]], Perturbation("radial_quartic", 0.5)),
        ([[1.7]], Perturbation("quartic", 1.0)),
        (np.eye(2), Perturbation("radial_quartic", 0.5)),
        ([[1.0, 0.2], [0.2, 0.9]], Perturbation("radial_quartic", 0.3)),
        (np.eye(3), Perturbation("radial_quartic", 0.5)),
        ([[1.0, 0.2, 0.1], [0.2, 0.9, -0.1], [0.1, -0.1, 1.1]], None),
    ], ids=["d1-radial-quartic", "d1-quartic", "d2-radial-quartic", "d2-gram-radial-quartic",
            "d3-radial-quartic", "d3-gram-quadratic"])
    def test_radial_closed_form_matches_the_bisection_oracle(self, gram, pert):
        gram = np.asarray(gram, float)
        model = SpectralModel(genus=2, rank_d=gram.shape[0], gram=gram,
                              perturbation=pert, gap_delta=0.1)
        s, _ = cover_spectrum.gauss_legendre(0.0, math.sqrt(0.05), 200)
        grid = np.concatenate([[0.0], s * s])
        got = limit_density(model, 0.05, grid)
        ref = monotone_bisect.bisected_radial_density(model, grid)
        np.testing.assert_allclose(got.density, ref, rtol=1e-12, atol=0.0)

    def test_radial_level_above_the_profile_refused(self):
        # φ(q) = q − q²/2 tops out at 1/2
        from horomix.cover_spectrum import _radial_density

        with pytest.raises(DomainError, match="cannot reach"):
            _radial_density(-0.5, 1, 2.0, 1.0, np.array([0.1, 0.6]))

    @pytest.mark.parametrize("model", [
        SpectralModel(genus=2, rank_d=2, gram=np.eye(2), gap_delta=0.1),
        SpectralModel(genus=2, rank_d=2, gram=np.eye(2), gap_delta=0.1,
                      perturbation=Perturbation("quartic", 0.2)),
    ], ids=["radial", "face"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_refused(self, model, bad):
        with pytest.raises(DomainError, match="grid"):
            limit_density(model, 0.05, np.array([0.01, bad]))

    def test_lambda0_call_budget(self, monkeypatch):
        # Q and C are read per face node, and the box check adds them: λ₀
        # itself is never called
        model = _seeded_quartic(3, 1.0)
        calls = []
        evaluate = SpectralModel.lambda0_batch

        def counting(self, pts):
            calls.append(np.shape(pts))
            return evaluate(self, pts)

        monkeypatch.setattr(SpectralModel, "lambda0_batch", counting)
        s, _ = cover_spectrum.gauss_legendre(0.0, math.sqrt(0.05), 200)
        limit_density(model, 0.05, s * s)
        assert calls == []

    @pytest.mark.parametrize("gram", [
        [[1.0]], [[1.7]],
        np.eye(2), [[1.0, 0.2], [0.2, 0.9]],
        np.eye(3), CORRELATED_D3,
        np.eye(4), np.eye(4) + 0.15 * (1.0 - np.eye(4)),
    ], ids=["d1", "d1-gram", "d2", "d2-gram", "d3", "d3-gram", "d4", "d4-gram"])
    @pytest.mark.parametrize("coeff", [0.0, 0.3, -0.5],
                             ids=["quadratic", "radial-quartic", "negative-radial-quartic"])
    def test_face_route_matches_radial_closed_form(self, gram, coeff):
        # the face route does not use the radial profile, so on radial
        # models the closed form φ(q*) = x is an independent oracle
        gram = np.asarray(gram, float)
        d = gram.shape[0]
        m = SpectralModel(genus=2, rank_d=d, gram=gram, gap_delta=0.1,
                          perturbation=Perturbation("radial_quartic", coeff))
        xs = np.geomspace(1e-8, 0.02, 40)
        root_det = math.sqrt(float(np.linalg.det(m.quad_coeff * m.gram)))
        closed = cover_spectrum._radial_density(
            m.radial_profile(), d, cover_spectrum._unit_ball_volume(d), root_det, xs
        )
        assert _face_density(m, xs) == pytest.approx(closed, rel=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_face_route_refuses_level_sets_leaving_the_box(self, d):
        # λ₀ at the face nodes of U falls below 0.19 at d = 2 and below 0.05
        # on a box of half-width 0.05 at d = 3
        m = SpectralModel(
            genus=2, rank_d=d, gram=np.eye(d),
            perturbation=Perturbation("quartic", 0.2), gap_delta=0.2,
            domain_u=None if d == 2 else [0.05] * d,
        )
        level = 0.19 if d == 2 else 0.05
        with pytest.raises(DomainError, match="working box"):
            limit_density(m, 0.2, np.array([0.01, level]))

    def test_levels_go_in_blocks(self, monkeypatch):
        # 400 levels × 6144 face points would take 19.7 MB as one array;
        # each level's sum is the same whatever block it lands in
        model = _quartic_d3(1.0, np.eye(3))
        xs = np.linspace(0.0, 0.02, 400)
        tracemalloc.start()
        try:
            reference = _face_density(model, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**21
        for block in (1, 10**7):
            monkeypatch.setattr(cover_spectrum, "_BLOCK", block)
            assert _face_density(model, xs).tobytes() == reference.tobytes()

    def test_coarse_face_rule_refused_with_its_error(self, monkeypatch, found_gram):
        # the condition-15 rank-3 Gram: 24 face points miss the face
        # identity, the x → 0 limit, by 1.1e-8, the error of the face rule
        # itself; the sized count, 32, passes, and under a cap of 1388 face
        # points, which 24 points per axis fit and 32 do not, it is refused
        model = _quartic_d3(1.0, found_gram)
        xs = np.linspace(0.0, 0.002, 5)
        assert np.all(np.isfinite(limit_density(model, 0.002, xs).zeta_tilde))
        monkeypatch.setattr(cover_spectrum, "GRID_CAP", 50_000)
        with pytest.raises(QuadratureError, match="24-point.*cap of 1388") as info:
            limit_density(model, 0.002, xs)
        assert 1e-9 < info.value.achieved < 1e-7

    def test_density_builds_one_face_rule(self, monkeypatch):
        # the rule the face identity accepts is the one the density sums:
        # one face rule and one pass of the quadratic form per call
        calls = []
        for module, name in ((laplace, "_cube_faces"), (_stencils, "_cube_faces"),
                             (laplace, "quadratic_form"), (spectral_model, "quadratic_form")):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
        model = SpectralModel(genus=2, rank_d=3, gram=np.eye(3),
                              perturbation=Perturbation("quartic", 0.2))
        limit_density(model, 0.05, np.linspace(0.0, 0.05, 5))
        assert sorted(calls) == ["_cube_faces", "quadratic_form"]

    def test_rank6_face_rule_refused_before_allocation(self):
        # genus 3, rank 6: even the smallest face rule, 12·24⁵ ≈ 9.6e7
        # points, is above the cone rule's cap GRID_CAP // 12 ≈ 8.3e6
        model = SpectralModel(genus=3, rank_d=6, gram=np.eye(6),
                              perturbation=Perturbation("quartic", 0.2))
        tracemalloc.start()
        try:
            with pytest.raises(LatticeSizeError, match="face rule"):
                limit_density(model, 0.05, np.linspace(0.0, 0.05, 200))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rank5_correlated_density_meets_its_check(self):
        # genus 3, rank 5, condition 9.5: 24 points per face axis, the most
        # the cap GRID_CAP // 10 admits, meet the x → 0 limit to 7.2e-11,
        # where 16 miss it by 1.8e-7
        gram = [[1.7075, -0.1994, -0.1349, -0.5682, -0.2644],
                [-0.1994, 1.7119, -0.6713, 0.6294, -0.0649],
                [-0.1349, -0.6713, 1.273, 0.1657, 0.4078],
                [-0.5682, 0.6294, 0.1657, 0.9287, 0.2921],
                [-0.2644, -0.0649, 0.4078, 0.2921, 0.5809]]
        model = SpectralModel(genus=3, rank_d=5, gram=gram, gap_delta=0.1,
                              perturbation=Perturbation("quartic", 0.2))
        table = limit_density(model, 0.005, np.linspace(0.0, 0.005, 5))
        assert table.zeta_tilde == pytest.approx(
            [6.25774336338747, 6.25437862663425, 6.25102027084496,
             6.24766827192968, 6.24432260549476], rel=1e-9)

    def test_ill_conditioned_density_refused_before_its_ladder(self):
        # condition 1e4 at rank 2: 24 and 32 face points miss the x → 0
        # limit by 0.76 and 0.69, a rate that puts the count that meets it
        # near 1800 points per axis, past the 464 whose eigenproblem fits
        # GRID_CAP, so the density is refused at once
        model = SpectralModel(genus=2, rank_d=2, gram=[[1.0, 0.0], [0.0, 1e-4]],
                              gap_delta=0.1, perturbation=Perturbation("quartic", 0.2))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(QuadratureError, match="32-point face rule misses") as info:
                limit_density(model, 0.05, np.linspace(0.0, 1e-9, 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 2**20
        assert info.value.achieved > 0.5

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


def _quartic_d3(sign, gram):
    """A non-radial rank-3 quartic model with coefficient 0.3·sign."""
    return SpectralModel(genus=2, rank_d=3, gram=gram, gap_delta=0.1,
                         perturbation=Perturbation("quartic", 0.3 * sign))


def _face_density(model, x):
    """The face route of ``limit_density``, on any perturbed model, radial
    or not."""
    return cover_spectrum._face_density(model, np.asarray(x, float))


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

    def test_rank3_non_radial_average_approaches_the_limit(self):
        # the face route's limit; the misses fall about 100× per doubling of
        # N (4.2e-7, 3.6e-9 and 2.7e-11 at N = 64, 128 and 256)
        model = SpectralModel(genus=2, rank_d=3, gram=np.eye(3),
                              perturbation=Perturbation("quartic", 0.2))
        bump = make_test_function("bump", 0.05)
        start = time.perf_counter()
        rep = convergence_study(model, bump, 0.05, [(64,) * 3, (128,) * 3, (256,) * 3])
        assert time.perf_counter() - start < 1.0
        errs = [r.abs_err for r in rep.rows]
        assert errs[0] > 30.0 * errs[1] > 900.0 * errs[2]
        assert errs[2] < 1e-10

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
