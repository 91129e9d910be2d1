import decimal
import math
import time

import numpy as np
import pytest

from horomix import laplace
from horomix.corr_ode import log_grid
from horomix.errors import DomainError, QuadratureError
from horomix.laplace import fit_expansion, remainder_slope
from horomix.mixing import (
    MixingProblem,
    correlation_integral,
    induced_phase_problem,
    leading_constant,
    mixing_expansion,
    sample_correlation,
)
from horomix.spectral_model import Perturbation, SpectralModel
from finite_differences import finite_difference_hessian
from tensor_panels import tensor_quadrature


class TestCorrelationIntegral:
    def test_t_zero_gives_amplitude_mass(self, model_d1):
        problem = MixingProblem(model=model_d1)
        got = correlation_integral(problem, 0.0)
        assert got == pytest.approx(2.0 * model_d1.domain_u[0], rel=1e-12)

    def test_zero_amplitude(self, model_d1):
        problem = MixingProblem(model=model_d1, vol_product=0.0)
        assert correlation_integral(problem, 100.0) == 0.0

    def test_negative_t_rejected(self, model_d1):
        with pytest.raises(DomainError):
            correlation_integral(MixingProblem(model=model_d1), -1.0)

    @pytest.mark.parametrize("bad", [np.nan, [1e2, np.nan], [1e2, -1.0]])
    def test_nan_or_negative_t_rejected(self, model_d1, bad):
        with pytest.raises(DomainError):
            correlation_integral(MixingProblem(model=model_d1), bad)

    def test_scalar_call_returns_python_float(self, model_d1):
        assert type(correlation_integral(MixingProblem(model=model_d1), 100.0)) is float

    def test_ladder_matches_scalar_calls_d2_quartic(self):
        m = SpectralModel(
            genus=2, rank_d=2, gram=[[1.3, -0.5], [-0.5, 1.8]],
            perturbation=Perturbation("quartic", 0.2), gap_delta=0.1,
        )
        problem = MixingProblem(model=m)
        T = log_grid(1e2, 1e6, 2)
        ladder = sample_correlation(problem, T)
        scalar = np.array([correlation_integral(problem, t) for t in T])
        np.testing.assert_allclose(ladder, scalar, rtol=1e-10, atol=0)

    def test_empty_ladder_returns_empty_array(self, model_d1):
        out = sample_correlation(MixingProblem(model=model_d1), [])
        assert isinstance(out, np.ndarray) and out.shape == (0,)

    @pytest.mark.parametrize(
        "rank, perturbation",
        [
            (1, Perturbation("quartic", 1.0)),
            (2, None),
            (2, Perturbation("quartic", 0.2)),
            (2, Perturbation("radial_quartic", 0.5)),
        ],
    )
    def test_cone_matches_tensor_panels(self, rank, perturbation):
        gram = [[1.3]] if rank == 1 else [[1.3, -0.5], [-0.5, 1.8]]
        m = SpectralModel(genus=2, rank_d=rank, gram=gram, perturbation=perturbation)
        m.validate()
        problem = MixingProblem(model=m)
        T = np.array([1e2, 1e3, 1e4])
        np.testing.assert_allclose(
            correlation_integral(problem, T),
            tensor_quadrature(induced_phase_problem(problem), T),
            rtol=1e-10, atol=0,
        )

    def test_face_rule_steps_once_where_the_ladder_starts_low(self, monkeypatch):
        # the face identity picks 16 points per axis, but at T = 1e2 the box
        # faces still carry e^{T·v}, and 16 and 24 points differ by 6.0e-10;
        # one step to 24 and 32 passes
        m = SpectralModel(genus=2, rank_d=2, gram=[[1.4544, 0.2455], [0.2455, 0.6213]],
                          perturbation=Perturbation("radial_quartic", 0.3069))
        m.validate()
        problem = MixingProblem(model=m)
        T = log_grid(1e2, 1e6, 8)
        cone, counts = laplace._cone_value, []
        monkeypatch.setattr(laplace, "_cone_value",
                            lambda p, t, edges, nodes, n: counts.append(n)
                            or cone(p, t, edges, nodes, n))
        got = correlation_integral(problem, T)
        assert counts == [16, 24, 24, 32]
        induced = induced_phase_problem(problem)
        ref, _ = cone(induced, T, laplace._cone_edges(induced, T), 32, 48)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0)

    def test_face_rule_steps_only_where_the_helper_fits_it(self, monkeypatch):
        # a cap of 40 face points per radial point admits the fine level of
        # 24 points per axis but not the step's 32, whose 2·32 coordinates
        # exceed it; the one pair tried then disagrees at T = 1e2
        m = SpectralModel(genus=2, rank_d=2, gram=[[1.4544, 0.2455], [0.2455, 0.6213]],
                          perturbation=Perturbation("radial_quartic", 0.3069))
        problem = MixingProblem(model=m)
        T = log_grid(1e2, 1e6, 8)
        radial = (len(laplace._cone_edges(induced_phase_problem(problem), T)) - 1) * 32
        monkeypatch.setattr(laplace, "GRID_CAP", 4 * radial * 40)
        cone, counts = laplace._cone_value, []
        monkeypatch.setattr(laplace, "_cone_value",
                            lambda p, t, edges, nodes, n: counts.append(n)
                            or cone(p, t, edges, nodes, n))
        with pytest.raises(QuadratureError, match="T=100.0") as info:
            correlation_integral(problem, T)
        assert counts == [16, 24]
        assert info.value.achieved == pytest.approx(5.96e-10, rel=1e-3)

    def test_induced_problem_audits(self, model_d2):
        induced = induced_phase_problem(MixingProblem(model=model_d2))
        induced.validate()
        np.testing.assert_allclose(
            induced.hessian, model_d2.mixing_hessian(), rtol=1e-14
        )
        # validate reads no Hessian off a phase that is not a Polynomial
        fd = finite_difference_hessian(induced.v, np.zeros(2))
        np.testing.assert_allclose(-fd, induced.hessian, rtol=1e-6, atol=1e-8)

    def test_phase_without_cancellation(self, model_d1):
        # v = √(1 − 4λ₀) − 1 against a 50-digit evaluation at the same float
        # λ₀; the plain subtraction is about 1e-4 relative off at λ₀ = 1e-12
        v = induced_phase_problem(MixingProblem(model=model_d1)).v
        pts = np.sqrt(np.geomspace(1e-16, 0.2, 61) / math.pi)[:, None]
        lam = model_d1.lambda0_batch(pts)
        assert lam.min() < 1.1e-16 and lam.max() > 0.19
        with decimal.localcontext(prec=50):
            ref = [float((1 - 4 * decimal.Decimal(x)).sqrt() - 1) for x in lam.tolist()]
        got = v(pts)
        assert all(abs(g - r) <= 2 * math.ulp(r) for g, r in zip(got.tolist(), ref))

    def test_exponent_positivity(self, model_d2):
        # 1 - nu0 >= 0 with equality only at the trivial character
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(500, 2)) * model_d2.domain_u
        lam = model_d2.lambda0_batch(pts)
        expo = 1.0 - np.sqrt(1.0 - 4.0 * lam)
        assert np.all(expo[np.any(pts != 0.0, axis=1)] > 0.0)
        assert model_d2.lambda0([0.0, 0.0]) == 0.0


class TestLeadingConstant:
    def test_identity_gram_powers_of_half(self, model_d1, model_d2):
        assert leading_constant(model_d1, 1.0) == pytest.approx(
            0.5**0.5, rel=1e-14
        )
        assert leading_constant(model_d2, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_zero_amplitude(self, model_d2):
        assert leading_constant(model_d2, 0.0) == 0.0

    def test_genus_three(self):
        m = SpectralModel(genus=3, rank_d=1, gram=[[1.0]])
        assert leading_constant(m, 2.0) == pytest.approx(2.0, rel=1e-14)

    def test_two_closed_forms_agree(self):
        # ((g-1)/2)^(d/2) sigma == (2 pi)^(d/2) / sqrt(det(4pi/(g-1) G))
        for genus, gram in [(2, np.diag([1.0, 3.0])), (5, np.diag([0.5, 2.0]))]:
            m = SpectralModel(genus=genus, rank_d=2, gram=gram)
            closed = leading_constant(m, 1.0)
            hess = m.mixing_hessian()
            other = (2 * math.pi) / math.sqrt(np.linalg.det(hess))
            assert closed == pytest.approx(other, rel=1e-12)


class TestExpansionVerdict:
    def test_d1_leading_coefficient(self, model_d1):
        problem = MixingProblem(model=model_d1)
        grid = np.logspace(2, 4, 17)
        fit, verdict = mixing_expansion(problem, grid, 2)
        assert verdict["rel_dev"] <= 5e-3
        assert verdict["c0_closed_form"] == pytest.approx(2**-0.5, rel=1e-14)
        assert verdict["c0_hessian_form"] == pytest.approx(2**-0.5, rel=1e-12)

    def test_zero_amplitude_all_coefficients_vanish(self, model_d1):
        problem = MixingProblem(model=model_d1, vol_product=0.0)
        grid = np.logspace(2, 4, 17)
        fit, verdict = mixing_expansion(problem, grid, 1)
        assert np.all(fit.c == 0.0)
        assert verdict["c0_fit"] == 0.0

    def test_decay_order_after_subtraction(self, model_d1):
        problem = MixingProblem(model=model_d1)
        grid = np.logspace(2, 5, 25)
        vals = sample_correlation(problem, grid)
        samples = np.column_stack([grid, vals])
        fit = fit_expansion(samples, 1, 1)
        slope = remainder_slope(samples, fit, 2)
        assert slope <= -(1 + 1 + 0.5) + 0.1

    def test_negative_order_rejected(self, model_d1):
        with pytest.raises(DomainError, match="order_n"):
            mixing_expansion(MixingProblem(model=model_d1), np.logspace(2, 4, 17), -1)

    def test_values_reused(self, model_d1):
        problem = MixingProblem(model=model_d1)
        grid = np.logspace(2, 4, 17)
        vals = sample_correlation(problem, grid)
        fit1, _ = mixing_expansion(problem, grid, 1, values=vals)
        fit2, _ = mixing_expansion(problem, grid, 1)
        np.testing.assert_allclose(fit1.c, fit2.c, rtol=0, atol=0)

    def test_amplitude_scales_leading_term(self, model_d1):
        grid = np.logspace(2, 4, 17)
        _, v1 = mixing_expansion(MixingProblem(model=model_d1), grid, 1)
        _, v3 = mixing_expansion(
            MixingProblem(model=model_d1, vol_product=3.0), grid, 1
        )
        assert v3["c0_fit"] == pytest.approx(3.0 * v1["c0_fit"], rel=1e-10)
        assert v3["c0_closed_form"] == pytest.approx(
            3.0 * v1["c0_closed_form"], rel=1e-14
        )

    def test_nontrivial_gram_verdict(self):
        m = SpectralModel(genus=3, rank_d=1, gram=[[2.0]], gap_delta=0.1)
        m.validate()
        problem = MixingProblem(model=m)
        grid = np.logspace(2, 4, 17)
        _, verdict = mixing_expansion(problem, grid, 1)
        assert verdict["sigma"] == pytest.approx(2**-0.5, rel=1e-14)
        assert verdict["det_gram"] == pytest.approx(2.0, rel=1e-14)
        assert verdict["rel_dev"] <= 5e-3


class TestRankThree:
    """A rank-3 genus-3 quartic model, out of the tensor panels' reach
    above T = 1e2."""

    @pytest.fixture(scope="class")
    def problem(self):
        m = SpectralModel(
            genus=3, rank_d=3, gram=np.eye(3), perturbation=Perturbation("quartic", 0.2)
        )
        m.validate()
        return MixingProblem(model=m)

    def test_cone_matches_tensor_panels_at_t_1e2(self, problem):
        T = np.array([1e2])
        ref = tensor_quadrature(induced_phase_problem(problem), T, nodes=8, ratio=2.0)
        np.testing.assert_allclose(correlation_integral(problem, T), ref, rtol=1e-10, atol=0)

    def test_verdict_within_half_percent(self, problem, monkeypatch):
        points = []
        batch = SpectralModel.lambda0_batch

        def counted(model, pts):
            points.append(len(pts))
            return batch(model, pts)

        monkeypatch.setattr(SpectralModel, "lambda0_batch", counted)
        start = time.process_time()
        _, verdict = mixing_expansion(problem, log_grid(1e2, 1e4, 8), 2)
        # 1.2-1.6 s of process time on a 2-core x86 VM whose speed drifts
        # by tens of per cent; the λ₀ count (2.0e6) pins the cost exactly
        assert time.process_time() - start < 5.0
        assert sum(points) < 2.5e6
        assert verdict["c0_closed_form"] == pytest.approx(1.0, rel=1e-13)
        assert verdict["rel_dev"] <= 5e-3

    def test_condition15_gram_passes_its_ladder(self, found_gram):
        # correlation_integral on this ladder: 24 and 28 face points per
        # axis left refinement gaps of 1.31e-10 at T = 316 and 1.49e-10 at
        # T = 562, and the sized face rule takes 40
        m = SpectralModel(genus=2, rank_d=3, gram=found_gram)
        _, verdict = mixing_expansion(MixingProblem(model=m), np.logspace(2, 4, 17), 2)
        assert verdict["rel_dev"] <= 5e-3
