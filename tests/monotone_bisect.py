"""The Morse-chart root solves as they were first written, by bisection,
kept as oracles for the certified safeguarded Newton that replaced them.

``monotone_inverse`` is the bisection inverse of an increasing profile (the
radial Morse chart of ``laplace`` and the radial density of
``cover_spectrum``); ``bisected_oned_chart`` is the pushforward amplitude
b(θ) of a one-dimensional phase with ρ(θ) bisected by
``_stencils.bracketed_roots``.  Both stop at the tolerances the library
route certifies.
"""

from __future__ import annotations

import math

import numpy as np

from horomix._stencils import bracketed_roots
from horomix.errors import DomainError


def monotone_inverse(psi, target, xtol: float, rtol: float) -> np.ndarray:
    """q ≥ 0 with ψ(q) = target, elementwise, for ψ increasing on [0, ∞)
    with ψ(0) = 0 and targets ≥ 0.

    The upper bracket starts at max(target, 1) and doubles until ψ passes
    the target; a target ψ does not reach below 1e12 raises DomainError.
    """
    target = np.asarray(target, float)
    hi = np.maximum(target, 1.0)
    short = psi(hi) < target
    while short.any():
        hi = np.where(short, 2.0 * hi, hi)
        if np.any(hi > 1e12):
            raise DomainError("monotone profile cannot reach the requested level")
        short = psi(hi) < target
    return bracketed_roots(lambda q: psi(q) - target, 0.0, hi, xtol, rtol)


def bisected_oned_chart(problem):
    """b(θ) = a(ρ(θ))·ρ′(θ) of a ``morse="oned"`` problem, ρ bisected."""
    vfun = problem.v
    u = float(problem.box[0])
    H = problem.hessian

    def v_at(xi):
        return vfun(xi[:, None])

    def b(theta):
        # ξ = ρ(θ) solves sgn(ξ)·√(−2v(ξ)) = θ on the half-box of θ's sign
        th = theta[:, 0]
        xi = bracketed_roots(
            lambda x: np.copysign(np.sqrt(np.maximum(-2.0 * v_at(x), 0.0)), x) - th,
            np.where(th > 0.0, 0.0, -u), np.where(th > 0.0, u, 0.0),
            xtol=1e-15, rtol=8.9e-16,
        )
        h_fd = 1e-6
        vp = (v_at(xi + h_fd) - v_at(xi - h_fd)) / (2 * h_fd)
        # theta'(xi) = -v' / (sgn(xi)·sqrt(-2v)); rho'(theta) = 1/theta'
        with np.errstate(divide="ignore", invalid="ignore"):
            tp = -vp / np.copysign(np.sqrt(-2.0 * v_at(xi)), xi)
            out = problem.a(xi[:, None]) / tp
        at_zero = float(problem.a(np.zeros((1, 1)))[0]) / math.sqrt(float(H[0, 0]))
        return np.where(np.abs(th) < 1e-300, at_zero, out)

    return b
