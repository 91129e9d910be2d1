"""Seeded job lists for the three benchmark workloads.

Everything here is plain Python data drawn from ``random.Random(seed)``:
the library never sees the seed, only the inputs generated from it.

Each workload is a fixed cycle of *strata* (the discrete choices that set
a job's cost: grid length, lattice size, model class, rank, test
function).  The seed draws everything else (mode pairs, λ, Gram matrices,
coefficients, presets, lattice jitter).  Every job carries the index of
its stratum as ``stratum``, so the metrics can weigh the strata equally
wherever the clock cut a run, which keeps the medians and the tail
comparable across seeds.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("ode-tail", "mix-verdict", "cover-sweep")

# Enough jobs that no run at the default duration exhausts the list.
JOBS_PER_LIST = 600

EPSILON = 0.05  # sublevel ε of every cover-sweep job


def _gram(rng: random.Random, d: int, lo=0.5, hi=2.0, corr=0.5) -> list:
    """Row-major SPD Gram matrix: diagonal in [lo, hi], |correlation| ≤ corr."""
    if d == 1:
        return [rng.uniform(lo, hi)]
    a, b = rng.uniform(lo, hi), rng.uniform(lo, hi)
    c = rng.uniform(-corr, corr) * math.sqrt(a * b)
    return [a, c, c, b]


def _cover_gram(rng: random.Random, d: int) -> list:
    """A Gram whose ε-sublevel ellipse stays inside the default box.

    The default box is sized from the largest corner value of the form, so
    a skewed or strongly correlated Gram leaves the ellipse {λ₀ ≤ 0.05}
    poking out of it along its long axis, which spectral_average refuses.
    """
    return _gram(rng, d, 0.8, 1.25, 0.25)


# ---------------------------------------------------------------------------
# ode-tail
# ---------------------------------------------------------------------------

# Each cycle of three jobs covers every t_max, every |m − n| and every
# third of the λ range once, paired at random.
_ODE_T_MAX = (1e4, 1e5, 1e6)
_ODE_GAPS = (0, 2, 4)
_ODE_LAMBDA = (0.01, 0.2)


def _ode_job(rng: random.Random, t_max: float, gap: int, third: int) -> dict:
    n = rng.choice((-2, 0, 2))
    m = n + rng.choice((-gap, gap))
    lo, hi = _ODE_LAMBDA
    width = (hi - lo) / 3.0
    return {
        "n": n,
        "m": m,
        # m = n carries y0 = 1; a resonant pair starts at 0 with amplitude 1
        "y0": 1.0 if m == n else 0.0,
        "amp": 1.0,
        "lam": rng.uniform(lo + third * width, lo + (third + 1) * width),
        "t_max": t_max,
        "steps_per_decade": 400,
        "points": 50,
        "stratum": _ODE_T_MAX.index(t_max),
    }


def _ode_jobs(rng: random.Random, count: int) -> list:
    jobs = []
    while len(jobs) < count:
        gaps = rng.sample(_ODE_GAPS, 3)
        thirds = rng.sample(range(3), 3)
        for i, t_max in enumerate(rng.sample(_ODE_T_MAX, 3)):
            jobs.append(_ode_job(rng, t_max, gaps[i], thirds[i]))
    # The pair (2, 6) has the smallest accuracy margin of any job (about
    # 0.73 digits, against 0.93 for the next pairs), and only one job in
    # nine draws it or (−2, −6).  The first cycle's gap-4 job always takes
    # it, so a short run cannot miss the job that sets its margin.
    first_gap4 = next(job for job in jobs[:3] if job["m"] - job["n"] in (-4, 4))
    first_gap4["n"], first_gap4["m"] = 2, 6
    return jobs[:count]


# ---------------------------------------------------------------------------
# mix-verdict
# ---------------------------------------------------------------------------

# (rank, genus, perturbation, top of the T ladder): nine rank-2 jobs and
# three rank-1 jobs per cycle, so the load sits in the d = 2 tensor
# quadrature.  Heavy and light jobs alternate, and the costliest classes
# (rank-2 quartic at 1e5, radial_quartic at 1e6) hold the top five places,
# so a run cut anywhere in a cycle keeps its p50 and tail inside a class.
#
# Two rank-2 classes stay out: the unperturbed model, whose expansion
# terminates (I(T) = c₀/T − c₀/T² up to box truncation, so c₂ = 0), and the
# quartic model on a 1e6 ladder, whose c₂ is tiny.  fit_expansion's
# convergence test rejects such ladders on roundoff alone (ConditioningError
# for a few per cent of Grams with BLAS on one thread).  workloads.PROBES
# keeps that defect visible in every traced run.
_MIX_CYCLE = (
    (2, 2, "radial_quartic", 1e4),
    (2, 3, "quartic", 1e5),
    (1, 2, None, 1e6),
    (2, 2, "radial_quartic", 1e6),
    (2, 3, "radial_quartic", 1e5),
    (2, 2, "quartic", 1e4),
    (1, 3, "radial_quartic", 1e5),
    (2, 3, "radial_quartic", 1e6),
    (2, 2, "quartic", 1e5),
    (2, 3, "radial_quartic", 1e4),
    (1, 2, "quartic", 1e4),
    (2, 2, "radial_quartic", 1e6),
)

# Coefficient ranges that pass SpectralModel.validate for every Gram and
# genus drawn here: the quadratic part reaches 0.81/4 at the corners of
# the default box, which is capped at 1/2, so the quartic term must stay
# below 0.0475 there.
_COEFF_RANGE = {"radial_quartic": (0.2, 1.0), "quartic": (0.1, 0.35)}

# 1-d presets only: gauss2d costs ~3 s per ladder and its Richardson
# extraction is unstable on a 1e2..1e4 ladder.
_PRESETS = ("gauss1d", "quartic1d")


def _perturbation(rng: random.Random, name: str | None):
    if name is None:
        return None
    lo, hi = _COEFF_RANGE[name]
    return [name, rng.uniform(lo, hi)]


def _mix_job(rng: random.Random, d: int, genus: int, pert: str | None, top: float) -> dict:
    return {
        "genus": genus,
        "d": d,
        "gram": _gram(rng, d),
        "perturbation": _perturbation(rng, pert),
        "t_min": 1e2,
        "t_top": top,
        "points_per_decade": 8,
        "order": 2,
        "preset": rng.choice(_PRESETS),
    }


def _mix_jobs(rng: random.Random, count: int) -> list:
    return [
        dict(_mix_job(rng, *_MIX_CYCLE[i % len(_MIX_CYCLE)]), stratum=i % len(_MIX_CYCLE))
        for i in range(count)
    ]


# ---------------------------------------------------------------------------
# cover-sweep
# ---------------------------------------------------------------------------

# (model kind, rank, nominal min N, test function).  Radial d = 2 models
# (identity Gram, general Gram, radial_quartic), the non-radial d = 2
# quartic model, and rank-1 models on 1e6..1e7 characters.  The rank-1
# "bump" job is slow by itself: math.fsum over values spanning hundreds of
# binary exponents.
#
# The indicator "one" has a lattice error that jumps with N (a lattice
# point count), so its accuracy margin is erratic.  It runs on the
# identity model at exactly 1024² (the same job for every seed, which pins
# the smallest margin of a run) and on a general d = 2 Gram at 4096²;
# smooth test functions everywhere else.
_COVER_CYCLE = (
    ("identity", 2, 1024, "one"),
    ("general", 2, 2048, "linear"),
    ("radial_quartic", 1, 2_000_000, "bump"),
    ("general", 2, 4096, "one"),
    ("radial_quartic", 2, 2896, "bump"),
    ("quartic", 2, 2048, "linear"),
    ("quartic", 1, 8_000_000, "linear"),
    ("identity", 2, 1448, "linear"),
)
_COVER_EXACT_LEVELS = (1024, 4096)


def _cover_job(rng: random.Random, kind: str, d: int, level: int, test_fn: str) -> dict:
    if kind == "identity" or (kind == "quartic" and d == 1):
        # The rank-1 quartic limit density is only right for a unit Gram
        # (``_radial_phi`` drops the Gram factor); see perfbench/README.md.
        gram = [1.0] if d == 1 else [1.0, 0.0, 0.0, 1.0]
    else:
        gram = _cover_gram(rng, d)
    # Exact sizes: 1024² pins the smallest margin, 4096² the peak memory.
    # Other sizes are drawn at most 1% below nominal: a sweep costs ∝ N^d,
    # and a wider draw made a run's cost depend on its seed.
    if level in _COVER_EXACT_LEVELS:
        orders = [level] * d
    else:
        n = round(level * rng.uniform(0.99, 1.0))
        orders = [n] if d == 1 else [n, n + rng.randrange(0, 9)]
    return {
        "genus": 2,
        "d": d,
        "kind": kind,
        "gram": gram,
        "perturbation": _perturbation(rng, kind if "quartic" in kind else None),
        "orders": orders,
        "test_fn": test_fn,
        "epsilon": EPSILON,
    }


def _cover_jobs(rng: random.Random, count: int) -> list:
    return [
        dict(_cover_job(rng, *_COVER_CYCLE[i % len(_COVER_CYCLE)]),
             stratum=i % len(_COVER_CYCLE))
        for i in range(count)
    ]


_BUILDERS = {
    "ode-tail": _ode_jobs,
    "mix-verdict": _mix_jobs,
    "cover-sweep": _cover_jobs,
}


def make_jobs(workload: str, seed: int, count: int = JOBS_PER_LIST) -> list:
    """The seeded job list of ``workload``; identical for identical seeds."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = _BUILDERS[workload](rng, count)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs
