"""The level-curve density of 2-d models by 64 Gauss–Legendre angles, kept
as an oracle for ``cover_spectrum._face_density``, which integrates over the
faces of the cone rule's pyramids instead: once in closed form, and once
with every radius found by bisection and ∂λ₀/∂r by a 5-point stencil.

The closed form was the library's route for non-radial rank-2 models.  In
the bisected form all len(x) × 64 radii are bisected in one batch on the
full bracket [0, min U] by ``monotone_bisect.bracketed_roots``, to
1e-15 + 8.9e-16·r, with the angle rule of the closed form; nothing there
assumes that λ₀ is a homogeneous quartic along each ray.  Both refuse a
level set that reaches the disc of radius min U.
"""

from __future__ import annotations

import math

import numpy as np

from horomix._stencils import columns, fornberg_weights, gauss_legendre
from horomix.errors import DomainError
from monotone_bisect import bracketed_roots


def angular_density(model, x) -> np.ndarray:
    """ρ(x) = ∫ r·(∂λ₀/∂r)⁻¹ dφ of a 2-d model, radii in closed form.

    Every perturbation preset is a homogeneous quartic, so along a unit
    direction e, λ₀(r·e) = Q(e)·r² + C(e)·r⁴ with Q the quadratic part and
    C = p(e) (0 without a perturbation).  The level radius has
    r*² = 2x/(Q + √(Q² + 4Cx)) and ∂λ₀/∂r = 2r*·√(Q² + 4Cx) there, so
    r*·(∂λ₀/∂r)⁻¹ = 1/(2√(Q² + 4Cx)) and no radius is solved.
    """
    phis, wts = gauss_legendre(0.0, 2.0 * math.pi, 64)
    directions = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    level = np.asarray(x, float)[:, None]
    rmax = float(np.min(model.domain_u))
    if np.any(model.lambda0_batch(rmax * directions) <= level):
        raise DomainError("level set touches the working box; reduce epsilon")
    cols = columns(directions)
    quad = model.quadratic_part(cols)
    pert = model.perturbation
    quartic = 0.0 if pert is None else pert(cols, quad)
    return (wts / (2.0 * np.sqrt(quad * quad + 4.0 * quartic * level))).sum(axis=1)


def bisected_angular_density(model, x) -> np.ndarray:
    """ρ(x) = ∫ r·(∂λ₀/∂r)⁻¹ dφ of a 2-d model, radii by bisection."""
    phis, wts = gauss_legendre(0.0, 2.0 * math.pi, 64)
    directions = np.stack([np.cos(phis), np.sin(phis)], axis=-1)
    rmax = float(np.min(model.domain_u))
    level = np.asarray(x, float)[:, None]

    def lam_r(r):
        return model.lambda0_batch(r[..., None] * directions)

    if np.any(lam_r(np.full(phis.shape, rmax)) <= level):
        raise DomainError("level set touches the working box; reduce epsilon")
    r_root = bracketed_roots(
        lambda r: lam_r(r) - level, 0.0, np.full((level.size, phis.size), rmax),
        xtol=1e-15, rtol=8.9e-16,
    )
    offsets, step = np.arange(-2.0, 3.0), 1e-3 * r_root
    on_nodes = lam_r(r_root + step * offsets[:, None, None])
    dlam = np.tensordot(fornberg_weights(offsets, 0.0, 1)[:, 1], on_nodes, axes=1) / step
    return (wts * r_root / dlam).sum(axis=1)
