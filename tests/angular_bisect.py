"""The 64-angle level-curve density with every radius found by bisection,
kept as an oracle for ``cover_spectrum._angular_density_2d``, which solves
the radii by certified safeguarded Newton.

All len(x) × 64 radii are bisected in one batch on the full bracket
[0, min U] by ``_stencils.bracketed_roots``, to the tolerance the Newton
route certifies, 1e-15 + 8.9e-16·r; the angle rule and the 5-point
∂λ₀/∂r stencil are those of the library route.
"""

from __future__ import annotations

import math

import numpy as np

from horomix._stencils import bracketed_roots, fornberg_weights, gauss_legendre
from horomix.errors import DomainError


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
