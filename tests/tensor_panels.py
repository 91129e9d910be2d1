"""The tensor panel rule that computed ∫_U e^{T v} a dξ before the cone rule,
kept as an independent oracle for it.

Every axis gets symmetric Gauss–Legendre panels with edges 0, ±core,
±2·core, ±4·core, ... capped at the box, core = ratio/√(Hᵢᵢ·T_max), so the
grid grows like (panels × nodes)^d: the tests use it at d ≤ 2, and at
d = 3 for T = 1e2 only.
"""

from __future__ import annotations

import math

import numpy as np

from horomix._stencils import legendre_rule, tensor_grid


def _panel_edges(half_width: float, core: float) -> np.ndarray:
    """Symmetric edges 0, ±core, ±2·core, ±4·core, ... capped at ±half_width."""
    edges = [0.0]
    w = min(core, half_width)
    while w < half_width:
        edges.append(w)
        w *= 2.0
    edges.append(half_width)
    pos = np.array(edges)
    return np.concatenate([-pos[::-1][:-1], pos])


def _tensor_value(problem, T: np.ndarray, nodes: int, ratio: float):
    """Panel tensor quadrature values and integrand L¹ masses on the ladder T,
    from one grid graded for its largest T where v and a are evaluated once."""
    diag = np.sqrt(np.diag(problem.hessian))
    core = ratio / (diag * math.sqrt(T.max(initial=1.0)))
    x_ref, w_ref = legendre_rule(nodes)
    axes, weights = [], []
    for i in range(problem.dim):
        edges = _panel_edges(problem.box[i], core[i])
        # not _stencils.gauss_legendre: mid + half·x makes the nodes of
        # mirrored panels exact negatives, and the output bits rely on it
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        axes.append((mid[:, None] + half[:, None] * x_ref).ravel())
        weights.append((half[:, None] * w_ref).ravel())
    pts = tensor_grid(axes)
    wts = np.prod(tensor_grid(weights), axis=-1)
    v, a = problem.v(pts), problem.a(pts)
    value, l1 = np.empty_like(T), np.empty_like(T)
    for k, t in enumerate(T):
        integrand = np.exp(t * v) * a
        value[k], l1[k] = np.dot(wts, integrand), np.dot(np.abs(wts), np.abs(integrand))
    return value, l1


def tensor_quadrature(problem, T, nodes: int = 24, ratio: float = 1.0) -> np.ndarray:
    """Fine-level tensor values on the ladder T, after checking that the
    ``nodes`` and ``nodes + 8`` levels agree to 1e-10 of the value plus
    5e-15 of the L¹ mass, as the library's refinement check does."""
    T = np.atleast_1d(np.asarray(T, dtype=float))
    coarse, _ = _tensor_value(problem, T, nodes, ratio)
    fine, l1 = _tensor_value(problem, T, nodes + 8, ratio)
    assert np.all(np.abs(fine - coarse) <= 1e-10 * np.abs(fine) + 5e-15 * l1)
    return fine
