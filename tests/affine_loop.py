"""The sequential loop that marched the affine RK4 step maps before the
prefix scan, kept as an oracle for ``corr_ode._march``.

Each step applies its map z₊ = M z + c to the state of the step before on
Python complex scalars, four multiply-adds per step.
"""

from __future__ import annotations

import numpy as np


def affine_loop(maps, y, i):
    """States (y, ∫₀ᵗh) after every step of ``maps``, the six per-step
    arrays of ``corr_ode._step_maps``, from the state (y, i)."""
    y_k, i_k = complex(y), complex(i)
    marched, integrals = [], []
    for m00, m01, c0, m10, m11, c1 in zip(*(m.tolist() for m in maps)):
        y_k, i_k = m00 * y_k + m01 * i_k + c0, m10 * y_k + m11 * i_k + c1
        marched.append(y_k)
        integrals.append(i_k)
    return np.array(marched, dtype=complex), np.array(integrals, dtype=complex)
