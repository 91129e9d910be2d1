"""The kept branch values of a lattice sweep as a sorted histogram, kept as
an oracle for ``cover_spectrum._kept_chunks``: the values the streamed
sweep hands to ``spectral_average``, collected whole, and their first two
moments, exactly rounded as the average is.

Each value of weight 2 stands for a character and its mirror, so it
appears twice in the histogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from horomix._stencils import _round_total
from horomix.cover_spectrum import _kept_chunks, _weighted_total


@dataclass
class SpectralHistogram:
    epsilon: float
    values: np.ndarray         # branch values <= epsilon, sorted
    weight: float              # 1/|lattice|
    count: int
    mass: float
    moments: tuple             # (first, second) weighted moments


def build_histogram(model, lattice, epsilon: float) -> SpectralHistogram:
    """The kept branch values of every character, sorted (each ±ω pair
    twice), with moments that are exactly rounded sums divided by ∏Nᵢ, as
    in ``spectral_average``."""
    chunks = list(_kept_chunks(model, lattice, epsilon))
    pairs, singles = (
        np.concatenate([np.empty(0)] + [v for w, v in chunks if w == weight])
        for weight in (2, 1)
    )
    w = 1.0 / lattice.size
    vals = np.sort(np.concatenate([pairs, pairs, singles]))
    return SpectralHistogram(
        epsilon=epsilon,
        values=vals,
        weight=w,
        count=vals.size,
        mass=vals.size * w,
        moments=tuple(
            _round_total(_weighted_total(chunks, lambda v: v**k)) / lattice.size
            for k in (1, 2)
        ),
    )
