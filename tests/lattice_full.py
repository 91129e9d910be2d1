"""The lattice sweep as a full box, kept as an oracle for
``cover_spectrum._kept_chunks``, which sweeps one member of each ±ω pair,
and the members it sweeps, picked from the full box by their indices.

Every character gets its representative j/n, j from −⌊n/2⌋ to ⌈n/2⌉ − 1,
built here from the orders alone, and one ``lambda0_batch`` call on all of
them in lex order.  Nothing is blocked, halved or filtered before that
call, so the kept values are those of a sweep with no structure at all.
"""

from __future__ import annotations

import numpy as np

from horomix._stencils import tensor_grid


def full_characters(orders) -> np.ndarray:
    """Every character of the lattice with cyclic orders ``orders``, as an
    (∏Nᵢ, d) array of representatives j/n in lex order."""
    return tensor_grid([np.arange(-(n // 2), (n + 1) // 2) / n for n in orders])


def full_sweep_kept(model, orders, epsilon: float) -> np.ndarray:
    """λ₀ ≤ ε at every character, in lex order, from one λ₀ call."""
    lam = model.lambda0_batch(full_characters(orders))
    return lam[lam <= epsilon]


def half_sweep_kept(model, orders, epsilon: float) -> np.ndarray:
    """λ₀ ≤ ε, in lex order, at the characters a half sweep visits: the
    origin, every character whose first nonzero index is positive, and
    every character with an index −N/2 (N even), which has no mirror."""
    n = np.asarray(orders)
    pts = full_characters(orders)
    idx = np.rint(pts * n).astype(np.int64)
    edge = np.any((n % 2 == 0) & (idx == -(n // 2)), axis=1)
    nonzero = idx != 0
    first = idx[np.arange(len(idx)), nonzero.argmax(axis=1)]
    lam = model.lambda0_batch(pts[edge | (first >= 0)])
    return lam[lam <= epsilon]
