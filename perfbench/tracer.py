"""In-memory span tracer around the library's public functions.

Spans are recorded from the benchmark's own files: ``install`` replaces
the module (or class) attribute that callers look up with a wrapper, so
calls made inside the library (``solve_master`` calling
``master_relation_residual``, ``mixing_expansion`` calling
``sample_correlation``, ...) are seen as well.  ``uninstall`` restores the
originals.  No library code changes.

A span is (name, start, end, parent span, job id, thread, points, kept).
Root solves, and ``lambda0_batch`` calls on a single point, open no span:
the non-radial density makes hundreds of thousands of them per job, and
span bookkeeping on each would land in the self time of the code that
makes them.  They are counted instead, and their own time stays in their
caller's self time (``limit_density`` for the root solves).
Spans opened in a worker thread with no open span of their own take the
innermost open span of the client thread as parent: the benchmark has a
single client thread, which is blocked in ``parallel_map`` meanwhile.
"""

from __future__ import annotations

import itertools
import threading
import time
from array import array

import numpy as np

from horomix import corr_ode, cover_spectrum, laplace, mixing
from horomix.spectral_model import SpectralModel

from jobs import EPSILON

# (owner, attribute, span name).  One span name may cover several
# bindings of the same function (``mixing`` imports two laplace names).
TRACED = (
    (SpectralModel, "validate", "spectral_model.validate"),
    (SpectralModel, "lambda0_batch", "spectral_model.lambda0_batch"),
    (corr_ode, "solve_master", "corr_ode.solve_master"),
    (corr_ode, "master_relation_residual", "corr_ode.master_relation_residual"),
    (corr_ode, "cumulative_quadratic", "corr_ode.cumulative_quadratic"),
    (corr_ode, "assemble_forcing", "corr_ode.assemble_forcing"),
    (corr_ode, "euler_residual_pointwise", "corr_ode.euler_residual_pointwise"),
    (corr_ode, "asymptotic_amplitude", "corr_ode.asymptotic_amplitude"),
    (corr_ode, "tail_remainder_check", "corr_ode.tail_remainder_check"),
    (corr_ode, "particular_trajectory", "corr_ode.particular_trajectory"),
    (corr_ode, "power_weighted_integral", "corr_ode.power_weighted_integral"),
    (laplace, "laplace_quadrature", "laplace.laplace_quadrature"),
    (mixing, "laplace_quadrature", "laplace.laplace_quadrature"),
    (laplace, "fit_expansion", "laplace.fit_expansion"),
    (mixing, "fit_expansion", "laplace.fit_expansion"),
    (laplace, "laplace_expand", "laplace.laplace_expand"),
    (mixing, "mixing_expansion", "mixing.mixing_expansion"),
    (mixing, "sample_correlation", "mixing.sample_correlation"),
    (mixing, "correlation_integral", "mixing.correlation_integral"),
    (cover_spectrum, "spectral_average", "cover_spectrum.spectral_average"),
    (cover_spectrum, "limit_integral", "cover_spectrum.limit_integral"),
    (cover_spectrum, "limit_density", "cover_spectrum.limit_density"),
    (cover_spectrum, "brentq", "cover_spectrum.brentq"),
)

# Only counted, never spanned: every call, and single-point calls.
ROOT_SOLVES = "cover_spectrum.brentq"
LAMBDA0 = "spectral_model.lambda0_batch"

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = sorted({name for _, _, name in TRACED})
        self._name_index = {name: i for i, name in enumerate(self.names)}
        self.job_id = -1
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client_stack = []
        self._client_thread = threading.get_ident()
        self._threads = {}
        self._saved = []
        # itertools.count is advanced atomically under the GIL; ``counts``
        # reads each once, after the traced phase.
        self._counters = {ROOT_SOLVES: itertools.count(), LAMBDA0: itertools.count()}
        self.t0 = time.perf_counter()
        self.cols = {
            "id": array("q"),
            "name": array("H"),
            "start": array("d"),
            "end": array("d"),
            "parent": array("q"),
            "job": array("q"),
            "thread": array("l"),
            "points": array("q"),
            "kept": array("q"),
        }

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        if name == ROOT_SOLVES:
            return self._wrap_counted(fn, self._counters[name])
        span = self._wrap_span(fn, name, count_points=name == LAMBDA0)
        if name != LAMBDA0:
            return span
        single = self._counters[name]

        def lambda0_batch(model, pts):
            if np.size(pts) == model.rank_d:
                next(single)
                return fn(model, pts)
            return span(model, pts)

        lambda0_batch.__wrapped__ = fn
        return lambda0_batch

    @staticmethod
    def _wrap_counted(fn, counter):
        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _wrap_span(self, fn, name: str, count_points: bool):
        name_id = self._name_index[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._client_stack:
                parent = self._client_stack[-1]
            else:
                parent = NO_PARENT
            span = next(self._ids)
            stack.append(span)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                points = kept = 0
                if count_points and result is not None:
                    # lambda0_batch(self, pts): rows evaluated, and rows ≤ ε
                    points = int(np.size(args[1]) // args[0].rank_d)
                    kept = int(np.count_nonzero(result <= EPSILON))
                # recorded even when fn raised, so children keep their parent
                self._record(span, name_id, start, end, parent, points, kept)

        traced.__wrapped__ = fn
        return traced

    def _record(self, span, name_id, start, end, parent, points, kept):
        thread = threading.get_ident()
        with self._lock:
            tid = self._threads.setdefault(thread, len(self._threads))
            c = self.cols
            c["id"].append(span)
            c["name"].append(name_id)
            c["start"].append(start - self.t0)
            c["end"].append(end - self.t0)
            c["parent"].append(parent)
            c["job"].append(self.job_id)
            c["thread"].append(tid)
            c["points"].append(points)
            c["kept"].append(kept)

    def install(self) -> None:
        for owner, attr, name in TRACED:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- analysis --------------------------------------------------------------

    def counts(self) -> dict:
        """Calls that were counted without a span, by name: the root
        solves, and the single-point ``lambda0_batch`` calls.  Read once."""
        return {name: next(counter) for name, counter in self._counters.items()}

    def table(self) -> dict:
        """Spans as numpy columns ordered by span id, with parent rows,
        durations and self times."""
        order = np.argsort(np.array(self.cols["id"]), kind="stable")
        cols = {k: np.array(v)[order] for k, v in self.cols.items()}
        n = cols["id"].size
        parent_row = np.full(n, NO_PARENT, dtype=np.int64)
        has_parent = cols["parent"] != NO_PARENT
        parent_row[has_parent] = np.searchsorted(cols["id"], cols["parent"][has_parent])
        duration = cols["end"] - cols["start"]
        covered = np.bincount(
            parent_row[has_parent], weights=duration[has_parent], minlength=n
        )
        # Children that ran on another thread than their parent may overlap
        # one another: for those parents take the union of the intervals.
        cross = has_parent.copy()
        cross[has_parent] = cols["thread"][has_parent] != cols["thread"][parent_row[has_parent]]
        for p in np.unique(parent_row[cross]):
            kids = np.nonzero(parent_row == p)[0]
            covered[p] = _union_length(
                cols["start"][kids], cols["end"][kids], cols["start"][p], cols["end"][p]
            )
        cols["parent_row"] = parent_row
        cols["duration"] = duration
        cols["self"] = np.maximum(duration - covered, 0.0)
        return cols

    def under(self, cols: dict, ancestor: str) -> np.ndarray:
        """Mask of spans with a span named ``ancestor`` above them."""
        target = self.names.index(ancestor)
        cur = cols["parent_row"].copy()
        found = np.zeros(cur.size, dtype=bool)
        while np.any(cur != NO_PARENT):
            live = cur != NO_PARENT
            found[live] |= cols["name"][cur[live]] == target
            nxt = np.full(cur.size, NO_PARENT, dtype=np.int64)
            nxt[live] = cols["parent_row"][cur[live]]
            cur = nxt
        return found

    def save(self, path, cols: dict) -> None:
        np.savez_compressed(path, names=np.array(self.names), **{
            k: cols[k] for k in ("id", "name", "start", "end", "parent", "job", "thread",
                                 "points", "kept")
        })


def _union_length(starts, ends, lo, hi) -> float:
    """Length of the union of [starts, ends] clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for s, e in sorted(zip(np.maximum(starts, lo), np.minimum(ends, hi))):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total
