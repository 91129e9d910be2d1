"""Batched bisection, the inverse of an increasing profile built on it,
and the radial limit density built on that, as the library had them
before ``cover_spectrum`` took its level sets in closed form.  They are
kept as oracles: the density for ``cover_spectrum._radial_density``, the
inverse as the radius solve of the radial Morse chart in
tests/morse_chart.py, and the bisection for the level-curve radii of
tests/angular_bisect.py.
"""

from __future__ import annotations

import math

import numpy as np

from horomix.errors import DomainError


def bracketed_roots(fn, lo, hi, xtol: float, rtol: float) -> np.ndarray:
    """Roots of the vectorized ``fn`` in the brackets [lo, hi], elementwise.

    ``fn`` maps an array of abscissae to an array of the same shape; it is
    called once per bisection step on the whole batch.  A bracket is done
    when its width drops below xtol + rtol·|x| (the stopping rule of
    Brent's method) or when it holds two adjacent floats and cannot shrink
    further.  The result is the secant point of the final bracket, which
    lies inside it.  A bracket whose ends have the same strict sign raises
    DomainError.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    lo, hi = lo.copy(), hi.copy()
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi)) and np.all(lo <= hi)):
        raise DomainError("brackets must be finite with lo <= hi")
    f_lo = np.asarray(fn(lo), float)
    f_hi = np.asarray(fn(hi), float)
    if np.any((np.sign(f_lo) * np.sign(f_hi) > 0.0) | np.isnan(f_lo) | np.isnan(f_hi)):
        raise DomainError("a bracket has no sign change")
    # a zero at either end is the root; collapse the bracket onto it
    at_lo, at_hi = f_lo == 0.0, (f_hi == 0.0) & (f_lo != 0.0)
    hi[at_lo], f_hi[at_lo] = lo[at_lo], 0.0
    lo[at_hi], f_lo[at_hi] = hi[at_hi], 0.0
    rising = f_lo < 0.0
    while True:
        mid = 0.5 * lo + 0.5 * hi
        active = (hi - lo >= xtol + rtol * np.abs(mid)) & (lo < mid) & (mid < hi)
        if not active.any():
            break
        f_mid = np.asarray(fn(mid), float)
        below = (f_mid < 0.0) == rising
        zero = f_mid == 0.0
        move_lo = active & (below | zero)
        move_hi = active & (~below | zero)
        lo[move_lo], f_lo[move_lo] = mid[move_lo], f_mid[move_lo]
        hi[move_hi], f_hi[move_hi] = mid[move_hi], f_mid[move_hi]
    span = f_hi - f_lo
    with np.errstate(invalid="ignore", divide="ignore"):
        secant = lo - f_lo * (hi - lo) / span
    inside = (span != 0.0) & (lo <= secant) & (secant <= hi)
    return np.where(inside, secant, 0.5 * lo + 0.5 * hi)


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


def bisected_radial_density(model, x) -> np.ndarray:
    """ρ(x) of a radial model, λ₀ = φ(q) = q + c·q², as the library had it:
    φ(q*) = x by :func:`monotone_inverse`, and ρ = (d/2)·q*^(d/2−1)·V_d/√det M
    divided by φ′(q*) = 1 + 2c·q*."""
    c, d = model.radial_profile(), model.rank_d
    x = np.asarray(x, float)
    qstar = monotone_inverse(lambda q: q + c * q * q, x, xtol=1e-16, rtol=8.9e-16)
    vd = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    root_det = math.sqrt(float(np.linalg.det(model.quad_coeff * model.gram)))
    with np.errstate(divide="ignore"):
        rho = (d / 2.0) * qstar ** (d / 2.0 - 1.0) * vd / root_det / (1.0 + 2.0 * c * qstar)
    at_zero = math.inf if d == 1 else (vd / root_det if d == 2 else 0.0)
    return np.where(x == 0.0, at_zero, rho)
