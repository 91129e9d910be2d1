"""The inverse of an increasing profile as it was first written, by
bisection, kept as an oracle for the certified safeguarded Newton of
``_stencils.monotone_inverse`` (the radial density of ``cover_spectrum``)
and as the radius solve of the radial Morse chart in tests/morse_chart.py.
It stops at the tolerance the library route certifies.
"""

from __future__ import annotations

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
