"""The cone rule as it was first written, kept as a bit-for-bit oracle for
``laplace._cone_value``.

Every face is built with ``tensor_grid``/``np.insert``/``np.tile``, every
point gets its own exp for every T, and the L¹ mass is always a second
``np.sum`` of the absolute terms.  The face cap is read from
``horomix.laplace.GRID_CAP`` at call time, so a test that lowers it lowers
it for both rules.
"""

from __future__ import annotations

import math

import numpy as np

from horomix import laplace
from horomix._stencils import legendre_rule, tensor_grid


def plain_cone_value(problem, T, nodes, face_nodes):
    """(values, L¹ masses) on the ladder T, faces +u₁, −u₁, +u₂, ..."""
    d, u = problem.dim, problem.box
    kappa = float(np.max(np.diag(problem.hessian) * u * u))
    edges = laplace._radial_edges(1.0 / math.sqrt(T.max(initial=1.0) * kappa))
    x_ref, w_ref = legendre_rule(nodes)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * x_ref).ravel()
    radial_w = (half[:, None] * w_ref).ravel() * s ** (d - 1)
    x_face, w_face = legendre_rule(face_nodes)
    cap = laplace.GRID_CAP // (2 * d)
    face = tensor_grid([s] + [x_face] * (d - 1), cap)
    face_w = np.prod(tensor_grid([radial_w] + [w_face] * (d - 1), cap), axis=-1)
    pts = np.concatenate([
        np.insert(face[:, 1:], f // 2, 1.0 - 2.0 * (f % 2), axis=1) for f in range(2 * d)
    ])
    pts *= np.tile(face[:, 0], 2 * d)[:, None] * u
    weighted = np.tile(face_w * math.prod(u), 2 * d) * problem.a(pts)
    v = problem.v(pts)
    value, l1 = np.empty_like(T), np.empty_like(T)
    terms = np.empty_like(v)
    for k, t in enumerate(T):
        np.exp(np.multiply(t, v, out=terms), out=terms)
        terms *= weighted
        value[k] = np.sum(terms)
        l1[k] = np.sum(np.abs(terms, out=terms))
    return value, l1
