"""A fixed reference pass, timed between jobs to follow the host's speed.

The host is a VM on a shared machine.  Its speed drifts by 20-70% between
spells that last from seconds to minutes, so a wall time alone reads the
neighbours' load as much as the program.

The pass does the two kinds of work horomix does: an interpreted float
loop, like the library's per-point Python loops, and a numpy kernel over
arrays split across two threads, like its batched sweeps.  It is benchmark
code only and never changes with the library.  ``run.py`` scales each job
time by (``NOMINAL_S`` / the pass time measured around it) ** ``ELASTICITY``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Median time of one pass on a 2-core x86 VM at its usual speed.
NOMINAL_S = 0.014

# Per cent change of a job's time per per cent change of the pass time as
# the host's speed drifts: the slope of log(median job time) on log(median
# pass time) over 89 runs of 30 s, the three workloads pooled (0.59, 0.73
# and 0.55 each).  The pass feels the host's slow spells more than the jobs
# do, so scaling by the whole ratio over-corrects: it left a run-to-run
# spread of 0.06-0.12, against 0.03-0.06 with this exponent.
ELASTICITY = 0.65

_LOOP_ITERATIONS = 40000


def _loop() -> float:
    acc = 1.0
    for k in range(_LOOP_ITERATIONS):
        acc = math.sqrt(acc * acc + k) * 0.5 + (k & 7)
    return acc


def _kernel(xy) -> int:
    x, y = xy
    q = 0.9 * x * x + 0.3 * x * y + 1.1 * y * y
    return int(np.count_nonzero(np.sqrt(q + 0.01) < 0.5))


class ReferencePass:
    """Owns the kernel's two threads and arrays; use it in a ``with``."""

    def __init__(self):
        self._pool = ThreadPoolExecutor(2, thread_name_prefix="perfbench-reference")
        self._blocks = [np.random.default_rng(i).random((2, 200_000)) for i in range(4)]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._pool.shutdown(wait=True)

    def seconds(self) -> float:
        """Wall time of one pass: the loop, then the kernel on two threads."""
        t0 = time.perf_counter()
        _loop()
        list(self._pool.map(_kernel, self._blocks))
        return time.perf_counter() - t0
