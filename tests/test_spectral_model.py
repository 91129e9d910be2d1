import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horomix._stencils import columns, quadratic_form, tensor_grid
from horomix.errors import ConfigError, DomainError, ModelValidityError
from horomix.spectral_model import (
    Perturbation,
    SpectralModel,
    lambda_of_nu,
    nu_of_lambda,
)
from finite_differences import finite_difference_hessian


class TestCasimirMap:
    def test_trivial_endpoint(self):
        assert nu_of_lambda(0.0) == 1.0

    def test_closed_form_value(self):
        assert nu_of_lambda(3.0 / 16.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("bad", [0.25, 0.3, -1e-9])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            nu_of_lambda(bad)

    @given(st.floats(min_value=0.0, max_value=0.25, exclude_max=True))
    def test_roundtrip(self, lam):
        assert lambda_of_nu(nu_of_lambda(lam)) == pytest.approx(lam, abs=1e-14)

    @given(
        st.floats(min_value=0.0, max_value=0.24),
        st.floats(min_value=1e-6, max_value=0.009),
    )
    def test_strictly_decreasing(self, lam, step):
        assert nu_of_lambda(lam + step) < nu_of_lambda(lam)


class TestBranchEvaluation:
    def test_minimum_at_origin(self, model_d1):
        assert model_d1.lambda0([0.0]) == 0.0

    def test_quadratic_value(self, model_d1):
        # direct evaluation of the quadratic model at w = 0.1
        assert model_d1.lambda0([0.1]) == pytest.approx(
            math.pi * 0.01, rel=1e-14
        )

    def test_quartic_perturbation_adds(self, model_d1_quartic, model_d1):
        got = model_d1_quartic.lambda0([0.1])
        assert got == pytest.approx(model_d1.lambda0([0.1]) + 1e-4, rel=1e-12)

    def test_outside_box_rejected(self, model_d1):
        with pytest.raises(DomainError):
            model_d1.lambda0([model_d1.domain_u[0] * 1.5])

    def test_above_quarter_rejected(self):
        # skip construction-time validation to probe the runtime guard
        m = SpectralModel(
            genus=2, rank_d=1, gram=[[1.0]], domain_u=np.array([0.5])
        )
        with pytest.raises(ModelValidityError):
            m.lambda0([0.49])

    def test_positivity_sweep(self, model_d2):
        pts = np.random.default_rng(3).uniform(-1, 1, size=(200, 2))
        pts *= model_d2.domain_u
        vals = model_d2.lambda0_batch(pts)
        assert np.all(vals[np.any(pts != 0, axis=1)] > 0.0)


def _random_model(d, preset=None, coeff=0.7):
    rng = np.random.default_rng(10 + d)
    a = rng.normal(size=(d, d))
    gram = a @ a.T / d + np.eye(d)
    pert = None if preset is None else Perturbation(preset, coeff)
    return SpectralModel(genus=2, rank_d=d, gram=gram, perturbation=pert)


class TestBranchBits:
    """λ₀ is IEEE products and sums in a fixed order: the same bits on every
    host, and on ω and −ω."""

    # the lattice sweep evaluates one member of each ±ω pair and counts it
    # twice, so every model, and every preset added later, must pass this
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("preset", (None,) + Perturbation.PRESETS)
    def test_even_bit_for_bit(self, preset, d):
        model = _random_model(d, preset)
        rng = np.random.default_rng(d)
        pts = rng.uniform(-0.5, 0.5, (100_000, d))
        # a quarter of the coordinates on the torus edge ±1/2
        edge = rng.random(pts.shape) < 0.25
        pts[edge] = rng.choice([-0.5, 0.5], size=np.count_nonzero(edge))
        assert model.lambda0_batch(-pts).tobytes() == model.lambda0_batch(pts).tobytes()

    # np.einsum is the oracle here only; the library never calls it
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_quadratic_part_is_the_einstein_sum(self, d):
        model = _random_model(d)
        pts = np.random.default_rng(d).uniform(-0.5, 0.5, (50_000, d))
        expected = model.quad_coeff * np.einsum("...i,ij,...j->...", pts, model.gram, pts)
        assert model.quadratic_part(columns(pts)).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("coeff", [0.7, -1.3])
    def test_quartic_term_within_its_rounding_bound(self, d, coeff):
        # d + 3 roundings: ω², ω⁴, d − 1 sums and the coefficient
        pts = np.random.default_rng(d).uniform(-0.5, 0.5, (3000, d))
        got = Perturbation("quartic", coeff)(columns(pts), None)
        bound = (1 + Fraction(2) ** -53) ** (d + 3) - 1
        for row, value in zip(pts.tolist(), got.tolist()):
            exact = Fraction(coeff) * sum(Fraction(x) ** 4 for x in row)
            assert abs(Fraction(value) - exact) <= bound * abs(exact)


@st.composite
def _open_mesh_cases(draw):
    """A model of rank 1–4 (correlated Gram, no perturbation or either preset
    at a coefficient of either sign) and d axes of 1–6 torus coordinates."""
    d = draw(st.integers(1, 4))
    coord = st.floats(-0.5, 0.5, allow_nan=False)
    axes = [np.array(draw(st.lists(coord, min_size=1, max_size=6))) for _ in range(d)]
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=d * d, max_size=d * d))
    a = np.array(entries).reshape(d, d)
    gram = (a @ a.T + a.T @ a) / (2 * d) + np.eye(d)
    preset = draw(st.sampled_from((None,) + Perturbation.PRESETS))
    coeff = draw(st.floats(-2.0, 2.0, allow_nan=False))
    pert = None if preset is None else Perturbation(preset, coeff)
    return SpectralModel(genus=2, rank_d=d, gram=gram, perturbation=pert), axes


class TestOpenMesh:
    """λ₀ on an open mesh, each coordinate on its own axis, has at every
    point the bits of the same point in a (N, d) array: the lattice sweep
    evaluates open meshes, the cone rule and the validation sweep arrays."""

    @settings(deadline=None)
    @given(_open_mesh_cases())
    def test_mesh_has_the_bits_of_the_tensor_grid(self, case):
        model, axes = case
        mesh, grid = np.ix_(*axes), tensor_grid(axes)
        shape = tuple(len(a) for a in axes)
        lam = model.lambda0_mesh(mesh)
        assert lam.shape == shape
        assert lam.tobytes() == model.lambda0_batch(grid).tobytes()
        form = quadratic_form(mesh, model.gram)
        assert form.shape == shape
        assert form.tobytes() == quadratic_form(columns(grid), model.gram).tobytes()

    @pytest.mark.parametrize("preset", (None,) + Perturbation.PRESETS)
    def test_fixed_leading_coordinates_broadcast(self, preset):
        # the sweep's blocks: fixed values on the leading axes, as (1, 1)
        # arrays, times a slab and a whole trailing axis
        model = _random_model(4, preset, -0.4)
        rng = np.random.default_rng(4)
        slab, tail = rng.uniform(-0.5, 0.5, 7), rng.uniform(-0.5, 0.5, 5)
        fixed = [np.full((1, 1), 0.3), np.full((1, 1), -0.1)]
        lam = model.lambda0_mesh(fixed + [slab[:, None], tail[None, :]])
        grid = tensor_grid([[0.3], [-0.1], slab, tail])
        assert lam.shape == (7, 5)
        assert lam.tobytes() == model.lambda0_batch(grid).tobytes()


class TestHomogeneousQuartic:
    """The limit density takes each level set as a quadratic in r²: every
    preset must be a homogeneous quartic, p(r·ω) = r⁴·p(ω)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("preset", Perturbation.PRESETS)
    @pytest.mark.parametrize("coeff", [0.4, -0.3])
    def test_doubling_scales_by_sixteen(self, preset, d, coeff):
        # scaling by 2 is exact, so p(2ω) = 16·p(ω) bit for bit
        model = _random_model(d, preset, coeff)
        p = model.perturbation
        pts = np.random.default_rng(d).uniform(-0.5, 0.5, (10_000, d))
        cols, twice = columns(pts), columns(2.0 * pts)
        doubled = p(twice, model.quadratic_part(twice))
        assert doubled.tobytes() == (16.0 * p(cols, model.quadratic_part(cols))).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("preset", Perturbation.PRESETS)
    @pytest.mark.parametrize("coeff", [0.4, -0.3])
    def test_branch_along_a_ray_is_quadratic_in_r_squared(self, preset, d, coeff):
        # λ₀(r·e) = Q(e)·r² + C(e)·r⁴ on seeded rays of a correlated Gram
        model = _random_model(d, preset, coeff)
        rng = np.random.default_rng(20 + d)
        e = rng.standard_normal((500, d))
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        r = rng.uniform(0.0, float(np.min(model.domain_u)), 500)
        quad = model.quadratic_part(columns(e))
        quartic = model.perturbation(columns(e), quad)
        expected = quad * r**2 + quartic * r**4
        np.testing.assert_allclose(model.lambda0_batch(r[:, None] * e), expected, rtol=1e-14)

    @pytest.mark.parametrize("d", [1, 2])
    def test_sextic_perturbation_refused(self, d):
        # vanishes to second order, so the Hessian identity holds, but a
        # ray of λ₀ is no longer quadratic in r²
        bad = SpectralModel(genus=2, rank_d=d, gram=np.eye(d))
        object.__setattr__(bad, "perturbation", _PowerPerturbation(6))
        with pytest.raises(ModelValidityError, match="homogeneous quartic"):
            bad.validate()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("preset", Perturbation.PRESETS)
    @pytest.mark.parametrize("coeff", [1e-310, -1e-310])
    def test_subnormal_values_validate(self, preset, d, coeff):
        # p(2ω) and 16·p(ω) round differently where p is subnormal
        _random_model(d, preset, coeff).validate()

    def test_tiny_box_validates(self):
        # on this box ω⁴ ≈ 1e-312 is subnormal, and the coefficient 1e10 would
        # scale its rounding past the slack; the unit cube has no such values
        model = SpectralModel(
            genus=2, rank_d=2, gram=np.eye(2), perturbation=Perturbation("quartic", 1e10),
            domain_u=[1e-78, 1e-78],
        )
        model.validate()

    @pytest.mark.parametrize("power", [2, 6])
    def test_other_powers_refused_on_a_small_box(self, power):
        # the doubling check runs on the unit cube, whatever the box
        bad = SpectralModel(genus=2, rank_d=2, gram=np.eye(2), domain_u=[1e-3, 1e-3])
        object.__setattr__(bad, "perturbation", _PowerPerturbation(power))
        with pytest.raises(ModelValidityError, match="homogeneous quartic"):
            bad.validate()


class TestHessians:
    def test_identity_gram_d1(self, model_d1):
        np.testing.assert_allclose(
            model_d1.mixing_hessian(), [[4 * math.pi]], rtol=1e-15
        )

    def test_diag_gram_g3(self):
        m = SpectralModel(genus=3, rank_d=2, gram=np.diag([2.0, 1.0]))
        np.testing.assert_allclose(
            m.mixing_hessian(), np.diag([4 * math.pi, 2 * math.pi]), rtol=1e-15
        )

    def test_identity_gram_d2(self, model_d2):
        np.testing.assert_allclose(
            model_d2.mixing_hessian(), 4 * math.pi * np.eye(2), rtol=1e-15
        )

    def test_fd_hessian_matches(self, model_d2):
        fd = finite_difference_hessian(model_d2.lambda0_batch, np.zeros(2))
        np.testing.assert_allclose(fd, model_d2.hessian_lambda0(), rtol=1e-6)

    def test_fd_hessian_with_perturbation(self, model_d1_quartic):
        fd = finite_difference_hessian(model_d1_quartic.lambda0_batch, np.zeros(1))
        np.testing.assert_allclose(fd, model_d1_quartic.hessian_lambda0(), rtol=1e-6)

    def test_mixing_is_twice_branch_hessian(self, model_d2):
        fd = finite_difference_hessian(model_d2.lambda0_batch, np.zeros(2))
        np.testing.assert_allclose(model_d2.mixing_hessian(), 2 * fd, rtol=1e-6)


class TestSigma:
    def test_identity(self, model_d2):
        assert model_d2.sigma_constant() == 1.0

    def test_gram_four(self):
        m = SpectralModel(genus=2, rank_d=1, gram=[[4.0]])
        assert m.sigma_constant() == pytest.approx(0.5, rel=1e-15)

    def test_identity_rank4(self):
        m = SpectralModel(genus=4, rank_d=4, gram=np.eye(4))
        assert m.sigma_constant() == pytest.approx(1.0, rel=1e-12)


class TestValidation:
    def test_asymmetric_gram(self):
        with pytest.raises(ModelValidityError, match="symmetric"):
            SpectralModel(genus=2, rank_d=2, gram=[[1.0, 0.5], [0.0, 1.0]])

    def test_indefinite_gram(self):
        with pytest.raises(ModelValidityError, match="positive definite"):
            SpectralModel(genus=2, rank_d=2, gram=np.diag([1.0, -0.5]))

    def test_bad_genus(self):
        with pytest.raises(ModelValidityError):
            SpectralModel(genus=1, rank_d=1, gram=[[1.0]])

    def test_rank_bound(self):
        with pytest.raises(ModelValidityError):
            SpectralModel(genus=2, rank_d=5, gram=np.eye(5))

    @pytest.mark.parametrize("field, value", [
        ("gram", [[math.inf, 0.0], [0.0, 1.0]]),
        ("gram", [[1.0, math.nan], [math.nan, 1.0]]),
        ("gap_delta", math.nan),
        ("gap_delta", math.inf),
        ("domain_u", [math.inf, math.inf]),
        ("domain_u", [math.nan, math.nan]),
        ("domain_u", [0.1, math.inf]),
    ])
    def test_non_finite_fields_refused(self, field, value):
        # NaN fails every comparison, so a sign check alone lets it through
        fields = {"genus": 2, "rank_d": 2, "gram": np.eye(2), field: value}
        with pytest.raises(ModelValidityError, match="finite"):
            SpectralModel(**fields)

    def test_non_finite_domain_refused_from_json(self):
        doc = {"genus": 2, "rank_d": 2, "gram": [1.0, 0.0, 0.0, 1.0],
               "domain_u": [math.inf, math.inf]}
        with pytest.raises(ModelValidityError, match="finite"):
            SpectralModel.from_json(json.dumps(doc))

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_perturbation_coeff_refused(self, coeff):
        with pytest.raises(ConfigError, match="finite"):
            Perturbation("quartic", coeff)
        with pytest.raises(ConfigError, match="finite"):
            Perturbation.from_json({"name": "radial_quartic", "params": {"coeff": coeff}})

    def test_perturbation_must_vanish_to_second_order(self):
        # a perturbation with curvature at 0 breaks the Hessian identity
        m = SpectralModel(
            genus=2, rank_d=1, gram=[[1.0]],
            perturbation=Perturbation("radial_quartic", 0.5),
        )
        m.validate()  # fine: q^2 vanishes to 4th order
        bad = SpectralModel(genus=2, rank_d=1, gram=[[1.0]])
        object.__setattr__(bad, "perturbation", _PowerPerturbation(2))
        with pytest.raises(ModelValidityError, match="homogeneous quartic"):
            bad.validate()

    def test_big_perturbation_breaks_quarter_sweep(self):
        m = SpectralModel(
            genus=2, rank_d=1, gram=[[1.0]],
            perturbation=Perturbation("radial_quartic", 40.0),
        )
        with pytest.raises(ModelValidityError, match="1/4"):
            m.validate()

    def test_negative_perturbation_breaks_positivity(self):
        m = SpectralModel(
            genus=2, rank_d=1, gram=[[1.0]],
            perturbation=Perturbation("quartic", -60.0),
        )
        with pytest.raises(ModelValidityError, match="positivity"):
            m.validate()

    def test_default_box_keeps_branch_below_quarter(self, model_d2):
        corners = np.array(
            [[sx * model_d2.domain_u[0], sy * model_d2.domain_u[1]]
             for sx in (-1, 1) for sy in (-1, 1)]
        )
        assert np.all(model_d2.lambda0_batch(corners) < 0.25)


    def test_sweep_size_guard(self):
        # rank_d may reach 2g: instead of 11^16 points the sweep shrinks to
        # its point budget (here the 2^16 box vertices) and still audits
        model = SpectralModel(genus=8, rank_d=16, gram=np.eye(16))
        start = time.perf_counter()
        model.validate()
        assert time.perf_counter() - start < 1.0
        bad = SpectralModel(
            genus=8, rank_d=16, gram=np.eye(16),
            perturbation=Perturbation("quartic", -60.0),
        )
        with pytest.raises(ModelValidityError, match="positivity"):
            bad.validate()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_default_box_matches_vertex_loop(self, d):
        # the box is sized by the largest vertex value of the form
        rng = np.random.default_rng(d)
        for _ in range(20):
            a = rng.standard_normal((d, d))
            gram = a @ a.T + 0.1 * np.eye(d)
            ref = max(
                np.array(s) @ gram @ np.array(s)
                for s in itertools.product((-1.0, 1.0), repeat=d)
            )
            u = 0.9 * math.sqrt(0.25 / (math.pi * ref))
            got = SpectralModel(genus=2, rank_d=d, gram=gram).domain_u
            expected = np.full(d, min(u, 0.5))
            if d <= 2:  # same sums in the same order: same bits
                np.testing.assert_array_equal(got, expected)
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-14)


class TestRadialProfile:
    @pytest.mark.parametrize(
        "gram, pert",
        [
            ([[1.7]], None),
            ([[1.7]], Perturbation("quartic", 1.0)),
            ([[1.0, 0.2], [0.2, 0.8]], Perturbation("radial_quartic", 0.5)),
        ],
    )
    def test_branch_is_function_of_quadratic_part(self, gram, pert):
        m = SpectralModel(genus=2, rank_d=len(gram), gram=gram, perturbation=pert)
        c = m.radial_profile()
        pts = np.random.default_rng(0).uniform(-1, 1, (50, m.rank_d)) * m.domain_u
        q = m.quadratic_part(columns(pts))
        np.testing.assert_allclose(q + c * q * q, m.lambda0_batch(pts), rtol=1e-13)

    def test_quartic_d2_not_radial(self):
        m = SpectralModel(
            genus=2, rank_d=2, gram=np.eye(2), perturbation=Perturbation("quartic", 1.0)
        )
        assert m.radial_profile() is None


class _PowerPerturbation(Perturbation):
    """0.01·Σᵢ ωᵢ^power, injected past the preset check."""

    def __init__(self, power):
        self.name = "quartic"
        self.coeff = 1.0
        self.power = power

    def __call__(self, coords, quad_form):
        return 0.01 * sum(c**self.power for c in coords)


class TestSerialization:
    def test_roundtrip(self, model_d1_quartic):
        text = model_d1_quartic.to_json()
        back = SpectralModel.from_json(text)
        back.validate()
        assert back.genus == 2 and back.rank_d == 1
        assert back.perturbation.name == "quartic"
        np.testing.assert_allclose(back.domain_u, model_d1_quartic.domain_u)

    def test_schema_fields(self, model_d2):
        doc = json.loads(model_d2.to_json())
        assert set(doc) == {
            "genus", "rank_d", "gram", "perturbation", "gap_delta", "domain_u"
        }
        assert doc["gram"] == [1.0, 0.0, 0.0, 1.0]

    def test_bad_json(self):
        with pytest.raises(ConfigError):
            SpectralModel.from_json("{not json")

    def test_bad_document(self):
        with pytest.raises(ConfigError):
            SpectralModel.from_json(json.dumps({"genus": 2}))
