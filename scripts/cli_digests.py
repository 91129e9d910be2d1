#!/usr/bin/env python3
"""SHA-256 digests of a fixed set of CLI runs, at one and at two workers,
and of the quadrature runs at two BLAS threads.

    python3 scripts/cli_digests.py

Runs every command of RUNS against the ``src/`` of the checkout this script
sits in, in a temporary directory, once with HMIX_WORKERS=1 and once with
HMIX_WORKERS=2 (BLAS pinned to one thread), then the ``laplace`` and ``mix``
commands once more at one worker with two BLAS threads, and prints one
``sha256  <pass>/<file>`` line per output file, manifests included; the
passes are ``w1``, ``w2`` and ``b2``.  Two checkouts whose outputs agree
print the same lines, so comparing the output of this script at two commits
checks that a change keeps the CLI bytes.

Exits 1 if a run fails, if any CSV or verdict differs between the two
worker counts (the manifests record the worker count, so they may differ),
or if any CSV of the two-thread BLAS pass differs from the pinned pass.
Uses the standard library only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# model documents (gram, perturbation), written into the run directory; the
# rank is that of the flattened d × d Gram, and domain_u takes its default
IDENTITY = [1.0, 0.0, 0.0, 1.0]
MODELS = {
    "identity.json": (IDENTITY, None),
    "radial_quartic.json": (IDENTITY, {"name": "radial_quartic", "params": {"coeff": 0.5}}),
    # non-radial, so the cover limit integrates over the cone rule's faces
    "quartic.json": (IDENTITY, {"name": "quartic", "params": {"coeff": 0.2}}),
    # (G⁻¹)ᵢᵢ ≠ 1/Gᵢᵢ: the lattice sweep box is not read off the diagonal
    "correlated.json": ([1.0, 0.4, 0.4, 1.2], None),
    # negative coefficient: the lattice sweep box is the whole torus
    "negative_quartic.json": (IDENTITY, {"name": "quartic", "params": {"coeff": -0.5}}),
    # non-radial on a correlated Gram: the closed-form level radii away from
    # the identity, with a coefficient below 0
    "correlated_quartic.json": ([1.0, 0.2, 0.2, 0.9],
                                {"name": "quartic", "params": {"coeff": -0.3}}),
    "rank1_quartic.json": ([1.0], {"name": "quartic", "params": {"coeff": 1.0}}),
    # rank 1 with φ(q) = q + c·q²: the density takes φ(q*) = x as
    # q* = 2x/(1 + √(1 + 4cx))
    "rank1_radial_quartic.json": ([1.0], {"name": "radial_quartic", "params": {"coeff": 0.5}}),
    "identity3.json": ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], None),
    # non-radial at rank 3: the face route beyond rank 2
    "quartic3.json": ([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                      {"name": "quartic", "params": {"coeff": 0.2}}),
    # a rank-3 Gram of condition 15: its face rule needs 40 points per axis,
    # where the identity's needs 16
    "condition15.json": ([1.361592, 0.401569, 0.53899, 0.401569, 0.55953, -0.438512,
                          0.53899, -0.438512, 1.702497], None),
    # non-radial on a correlated rank-4 Gram: the face route at d = 4
    "quartic4.json": ([1.0, 0.15, 0.0, -0.1, 0.15, 0.9, 0.1, 0.0,
                       0.0, 0.1, 1.1, 0.12, -0.1, 0.0, 0.12, 0.95],
                      {"name": "quartic", "params": {"coeff": 0.2}}),
}

# custom-json phase documents, written into the run directory next to the models
PHASES = {
    # the cubic term makes v(−ξ) ≠ v(ξ), so the cone rule exponentiates every
    # face, and a = 1/2 + ξ₁ changes sign, so its L¹ mass is a second sum
    "odd_phase.json": {
        "dim": 2, "box": [3.0, 3.0], "hessian": [[1.0, 0.0], [0.0, 1.0]],
        "v_poly": {"2,0": -0.5, "0,2": -0.5, "3,0": 0.05, "4,0": -0.05},
        "a_poly": {"0,0": 0.5, "1,0": 1.0},
    },
    # an even phase, so the − faces reuse the + faces' exponentials, with
    # a = 1/2 + ξ₁, which is not even and changes sign: the − faces multiply
    # the reversed exponentials by their own weighted amplitudes, and the
    # L¹ mass is summed apart from the value
    "signed_amplitude.json": {
        "dim": 2, "box": [3.0, 3.0], "hessian": [[1.0, 0.0], [0.0, 1.0]],
        "v_poly": {"2,0": -0.5, "0,2": -0.5, "4,0": -0.05},
        "a_poly": {"0,0": 0.5, "1,0": 1.0},
    },
}

# (output CSV, CLI arguments before --out)
RUNS = [
    ("selftest.csv", ["selftest"]),
    ("ode-0-0.csv", ["ode", "--n", "0", "--m", "0", "--y0-re", "1", "--lambda", "0.04",
                     "--t-max", "1e5"]),
    ("ode-2-6.csv", ["ode", "--n", "2", "--m", "6", "--y0-re", "0", "--lambda", "0.1",
                     "--t-max", "1e5"]),
    ("ode-4-0.csv", ["ode", "--n", "4", "--m", "0", "--y0-re", "1", "--lambda", "0.2",
                     "--t-max", "1e5"]),
    ("ode-m2-2.csv", ["ode", "--n", "-2", "--m", "2", "--y0-re", "0", "--lambda", "0.05",
                      "--t-max", "1e5"]),
    ("laplace-quartic1d.csv", ["laplace", "--preset", "quartic1d"]),
    # orders above 4, which the series reaches and the stencil charts did not
    ("laplace-quartic1d-order6.csv", ["laplace", "--preset", "quartic1d", "--order", "6"]),
    ("laplace-gauss1d.csv", ["laplace", "--preset", "gauss1d"]),
    # the d = 2 cone rule on an even phase: the − faces reuse the + faces'
    # exponentials
    ("laplace-gauss2d.csv", ["laplace", "--preset", "gauss2d"]),
    ("laplace-odd-phase.csv",
     ["laplace", "--preset", "custom-json", "--custom", "odd_phase.json"]),
    ("laplace-signed-amplitude.csv",
     ["laplace", "--preset", "custom-json", "--custom", "signed_amplitude.json"]),
    ("cover-identity.csv", ["cover", "--model", "identity.json", "--orders", "64,64"]),
    ("cover-radial-quartic-study.csv",
     ["cover", "--model", "radial_quartic.json", "--orders", "64,64", "--study"]),
    ("cover-quartic.csv", ["cover", "--model", "quartic.json", "--orders", "64,64"]),
    ("cover-correlated.csv", ["cover", "--model", "correlated.json", "--orders", "256,256",
                              "--test-fn", "linear"]),
    ("cover-correlated-quartic.csv", ["cover", "--model", "correlated_quartic.json",
                                      "--orders", "256,256", "--test-fn", "linear"]),
    ("cover-negative-quartic.csv", ["cover", "--model", "negative_quartic.json",
                                    "--orders", "256,256", "--test-fn", "linear"]),
    # the index −128 of the even order has no mirror: the sweep's edge shell
    ("cover-negative-quartic-ragged.csv", ["cover", "--model", "negative_quartic.json",
                                           "--orders", "255,256", "--test-fn", "linear"]),
    # rank 3: the half sweep splits its pairs over all three axes
    ("cover-identity3.csv", ["cover", "--model", "identity3.json", "--orders", "31,32,33"]),
    # the lattice averages of a non-radial rank-3 model approach its limit
    ("cover-quartic3-study.csv", ["cover", "--model", "quartic3.json", "--orders",
                                  "256,256,256", "--test-fn", "bump", "--study"]),
    # a sum that is not exactly rounded (np.sum) moves the last digit of
    # `empirical` here
    # rank 4; at ε = 0.05 its sublevel set leaves the working box
    ("cover-quartic4.csv", ["cover", "--model", "quartic4.json", "--orders", "64,64,64,64",
                            "--epsilon", "0.03", "--test-fn", "bump"]),
    ("cover-identity-bump.csv", ["cover", "--model", "identity.json", "--orders", "512,512",
                                 "--test-fn", "bump"]),
    # the trailing axis alone holds more than a sweep block, so the sweep
    # fixes the leading index and splits the trailing axis into slabs
    ("cover-identity-long-axis.csv", ["cover", "--model", "identity.json", "--orders",
                                      "16,300000", "--test-fn", "linear"]),
    ("cover-rank1-quartic.csv", ["cover", "--model", "rank1_quartic.json",
                                 "--orders", "1000000", "--test-fn", "linear"]),
    ("cover-rank1-radial-quartic.csv", ["cover", "--model", "rank1_radial_quartic.json",
                                        "--orders", "1000000", "--test-fn", "linear"]),
    ("mix-identity.csv",
     ["mix", "--model", "identity.json", "--log-t-min", "1e2", "--log-t-max", "1e4"]),
    # its c₁ and c₂ come from lower decades, so a BLAS-ordered sum of the
    # quadrature could move its verdict with the thread count
    ("mix-identity-1e6.csv",
     ["mix", "--model", "identity.json", "--log-t-min", "1e2", "--log-t-max", "1e6"]),
    # a perturbed phase up to T = 1e6, where most cone-rule exponents sit
    # below the floor of laplace._cone_value
    ("mix-radial-quartic-1e6.csv",
     ["mix", "--model", "radial_quartic.json", "--log-t-min", "1e2", "--log-t-max", "1e6"]),
    # the one run whose amplitude vol_product is not 1
    ("mix-amplitude.csv",
     ["mix", "--model", "radial_quartic.json", "--amplitude", "const:2.5",
      "--log-t-min", "1e2", "--log-t-max", "1e4"]),
    ("mix-condition15.csv",
     ["mix", "--model", "condition15.json", "--log-t-min", "100", "--log-t-max", "10000",
      "--points-per-decade", "8"]),
]

# the runs whose sums a BLAS library could order by its thread count
BLAS_RUNS = [run for run in RUNS if run[1][0] in ("laplace", "mix")]


def _write_models(workdir: Path) -> None:
    for name, (gram, perturbation) in MODELS.items():
        doc = {"genus": 2, "rank_d": math.isqrt(len(gram)), "gram": gram,
               "perturbation": perturbation}
        (workdir / name).write_text(json.dumps(doc, sort_keys=True))
    for name, doc in PHASES.items():
        (workdir / name).write_text(json.dumps(doc, sort_keys=True))


def _run_all(workdir: Path, runs, workers: int, blas_threads: int) -> dict[str, str]:
    """Run ``runs`` in ``workdir``; return {file name: sha256}."""
    threads = str(blas_threads)
    env = dict(os.environ, PYTHONPATH=str(SRC), HMIX_WORKERS=str(workers),
               OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    for out, args in runs:
        cmd = [sys.executable, "-m", "horomix.cli", *args, "--out", out]
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{' '.join(args)} exited {done.returncode}")
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(workdir.iterdir())
        if p.name not in MODELS and p.name not in PHASES
    }


def _differ(pinned: dict, other: dict) -> list[str]:
    """Output files other than manifests whose digests differ."""
    return [
        name for name in sorted(pinned.keys() | other.keys())
        if not name.endswith(".manifest.json") and pinned.get(name) != other.get(name)
    ]


def main() -> int:
    # (label, runs, workers, BLAS threads); the first pass is the pinned one
    passes = [("w1", RUNS, 1, 1), ("w2", RUNS, 2, 1), ("b2", BLAS_RUNS, 1, 2)]
    digests = {}
    for label, runs, workers, blas_threads in passes:
        with tempfile.TemporaryDirectory(prefix="cli-digests-") as tmp:
            workdir = Path(tmp)
            _write_models(workdir)
            digests[label] = _run_all(workdir, runs, workers, blas_threads)
        for name, digest in digests[label].items():
            print(f"{digest}  {label}/{name}")
    pinned = digests["w1"]
    differ = [f"between 1 and 2 workers: {name}" for name in _differ(pinned, digests["w2"])]
    blas = {name: pinned[name] for name in digests["b2"]}
    differ += [f"between 1 and 2 BLAS threads: {name}" for name in _differ(blas, digests["b2"])]
    for line in differ:
        print(f"differs {line}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
