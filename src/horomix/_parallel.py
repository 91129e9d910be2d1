"""Deterministic worker-pool helper.

Results are always assembled in input order, so outputs are
byte-identical for any worker count.  ``HMIX_WORKERS`` is the one worker
setting.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

_ENV_VAR = "HMIX_WORKERS"


def worker_count() -> int:
    raw = os.environ.get(_ENV_VAR, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def parallel_map(fn, items) -> list:
    """Map ``fn`` over ``items``, preserving input order exactly."""
    items = list(items)
    n = worker_count()
    if n <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=min(n, len(items))) as pool:
        return list(pool.map(fn, items))
