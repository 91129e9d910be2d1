"""Model correlation integrals and their slow-time expansion.

With T = log t, the surviving part of the correlation of two observables
is the Laplace-type integral

    I(T) = ∫_U A(ω) e^{−T (1 − ν₀(ω))} dω,

whose phase v = ν₀ − 1 vanishes quadratically at the trivial character
with Hessian 2 D²λ₀(0).  Everything here is parameterized by T directly;
t = e^T is never formed, so T up to 10⁶ stays exact in floating point.
The leading coefficient admits two closed forms,

    (2π)^{d/2} A(0) / √det H   =   ((g−1)/2)^{d/2} σ A(0),

identical by the normalization σ = det(G)^{−1/2}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ModelValidityError
from .laplace import (
    ExpansionCoefficients,
    PhaseProblem,
    fit_expansion,
    laplace_quadrature,
)
from .spectral_model import LAMBDA_MAX, SpectralModel


@dataclass
class MixingProblem:
    """Spectral model plus the constant amplitude A ≡ vol_product standing
    in for the observable pairing."""

    model: SpectralModel
    vol_product: float = 1.0


def induced_phase_problem(problem: MixingProblem) -> PhaseProblem:
    """The Laplace problem with v = ν₀ − 1 on the model's working box.

    v = √(1 − 4λ₀) − 1 is evaluated as −4λ₀/(1 + √(1 − 4λ₀)), which does
    not cancel as λ₀ → 0.
    """
    model = problem.model

    def v(pts):
        lam = model.lambda0_batch(pts)
        if np.any(lam >= LAMBDA_MAX):
            raise ModelValidityError("lambda0 reaches 1/4 inside the box")
        return -4.0 * lam / (1.0 + np.sqrt(1.0 - 4.0 * lam))

    return PhaseProblem(
        dim=model.rank_d,
        v=v,
        a=lambda pts: np.full(len(pts), problem.vol_product),
        box=model.domain_u,
        hessian=model.mixing_hessian(),
    )


def correlation_integral(problem: MixingProblem, t_log):
    """∫_U A(ω) e^{−T(1−ν₀(ω))} dω at T = t_log, one T or a ladder.

    The cone rule of :func:`horomix.laplace.laplace_quadrature` on the
    induced phase problem, with its refinement-gap estimate; the whole
    ladder shares one rule per refinement level.
    """
    induced = induced_phase_problem(problem)
    return laplace_quadrature(induced, t_log)


def leading_constant(model: SpectralModel, a0: float) -> float:
    """((g−1)/2)^{d/2} · σ · a0, the closed-form leading coefficient."""
    return (
        ((model.genus - 1) / 2.0) ** (model.rank_d / 2.0)
        * model.sigma_constant()
        * a0
    )


def sample_correlation(problem: MixingProblem, t_log_grid: np.ndarray) -> np.ndarray:
    """Correlation integral over a T grid, on one quadrature grid per level."""
    return correlation_integral(problem, t_log_grid)


def mixing_expansion(
    problem: MixingProblem,
    t_log_grid: np.ndarray,
    order_n: int,
    values: np.ndarray | None = None,
) -> tuple[ExpansionCoefficients, dict]:
    """Fit the (log t)^(−j−d/2) expansion of the correlation integral.

    Samples the integral over the T grid (or reuses ``values``), extracts
    coefficients with :func:`fit_expansion`, and returns a verdict
    comparing the fitted leading coefficient with both closed forms of
    the leading constant.
    """
    t_log_grid = np.asarray(t_log_grid, dtype=float)
    vals = (
        sample_correlation(problem, t_log_grid)
        if values is None
        else np.asarray(values, dtype=float)
    )
    samples = np.column_stack([t_log_grid, vals])
    fit = fit_expansion(samples, problem.model.rank_d, order_n)

    model = problem.model
    a0 = float(problem.vol_product)
    closed = leading_constant(model, a0)
    hess = model.mixing_hessian()
    closed_hessian_form = (
        (2.0 * math.pi) ** (model.rank_d / 2.0)
        * a0
        / math.sqrt(float(np.linalg.det(hess)))
    )
    denom = abs(closed) if closed != 0.0 else 1.0
    verdict = {
        "c0_fit": float(fit.c[0]),
        "c0_closed_form": closed,
        "c0_hessian_form": closed_hessian_form,
        "rel_dev": abs(fit.c[0] - closed) / denom,
        "sigma": model.sigma_constant(),
        "det_gram": float(np.linalg.det(model.gram)),
    }
    return fit, verdict
