"""The Morse-chart route to the Laplace coefficients, as the library had it
before the Taylor series of the phase replaced it, kept as an oracle for
``laplace.laplace_expand``.

A chart ρ with v(ρ(θ)) = −½|θ|² turns the integral into a Gaussian one
with amplitude b(θ) = a(ρ(θ))·det Dρ(θ), and c_j pairs the even Taylor
coefficients of b with :func:`horomix.laplace.gaussian_moment`.  The Taylor
coefficients are Richardson-refined tensor stencils
(``stencil_fresh.tensor_stencil``), so the route carries their error,
which grows with the order: on ``quartic1d`` c₁ … c₄ come out 9e-9, 4e-7,
5e-6 and 4e-5 relative off the exact rationals.  Two charts: the quadratic one (v = −½ξᵀHξ) and the radial
one (v = φ(½ξᵀHξ) with φ(0) = 0 and φ′(0) = −1), whose radius is solved
by ``monotone_bisect.monotone_inverse``.
"""

from __future__ import annotations

import math

import numpy as np

from horomix.laplace import gaussian_moment
from monotone_bisect import monotone_inverse
from stencil_fresh import tensor_stencil


def quadratic_chart(problem):
    """b(θ) = a(L⁻ᵀθ)/√det H for v = −½ξᵀHξ, H = LLᵀ."""
    l_inv = np.linalg.inv(np.linalg.cholesky(problem.hessian))
    det_fac = 1.0 / math.sqrt(float(np.linalg.det(problem.hessian)))
    return lambda theta: problem.a(theta @ l_inv) * det_fac


def radial_chart(problem, phi, phi_prime):
    """b(θ) for v = φ(½ξᵀHξ): ξ = g·L⁻ᵀθ with φ(½|ξ|²_H) = −½|θ|²."""
    d = problem.dim
    l_inv = np.linalg.inv(np.linalg.cholesky(problem.hessian))
    det_fac = 1.0 / math.sqrt(float(np.linalg.det(problem.hessian)))

    def b(theta):
        s = np.linalg.norm(theta, axis=1)
        qhat = monotone_inverse(lambda q: -phi(q), 0.5 * s * s, xtol=1e-15, rtol=1e-15)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(2.0 * qhat)
            g = np.where(s < 1e-300, 1.0, r / s)
            rp = np.where(s < 1e-300, 1.0, -s / (phi_prime(qhat) * r))
        xi = (theta * g[:, None]) @ l_inv
        return problem.a(xi) * det_fac * g ** (d - 1) * rp

    return b


def _tensor_derivative(fn, k: tuple) -> float:
    """D^k fn(0) by central tensor stencils at steps 0.05 and 0.025,
    Richardson-refined; fn(0) is subtracted first so the constant mode
    cancels exactly."""
    f0 = float(fn(np.zeros((1, len(k))))[0])

    def at(step):
        pts, wts = tensor_stencil(k, step)
        return float(np.dot(wts, fn(pts) - f0))

    coarse, fine = at(0.05), at(0.025)
    return (16.0 * fine - coarse) / 15.0


def _even_multi_indices(total: int, dim: int):
    """All multi-indices with even entries summing to 2·total."""
    if dim == 1:
        yield (2 * total,)
        return
    for first in range(total + 1):
        for rest in _even_multi_indices(total - first, dim - 1):
            yield (2 * first,) + rest


def chart_expand(b, dim: int, order_n: int) -> np.ndarray:
    """c₀ … c_N from the even Taylor coefficients of the chart amplitude b."""
    c = np.zeros(order_n + 1)
    c[0] = float(b(np.zeros((1, dim)))[0]) * gaussian_moment((0,) * dim)
    for j in range(1, order_n + 1):
        for k in _even_multi_indices(j, dim):
            fact = math.prod(math.factorial(ki) for ki in k)
            c[j] += _tensor_derivative(b, k) / fact * gaussian_moment(k)
    return c
