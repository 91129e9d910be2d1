"""The lattice sweep as a full box, kept as an oracle for
``cover_spectrum._branch_values``, which sweeps one member of each ±ω pair.

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
