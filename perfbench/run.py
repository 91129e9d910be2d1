"""Run one horomix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ode-tail --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works: paths are resolved
from this file).  The library is imported from ``src`` as checked out; there
is nothing to build.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics.  Lines
before it summarise the run and name every failed check.

It fails fast (exit 2, no result) where the library sources are
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from gate import MARGIN_CAP_DIGITS
from reference import ELASTICITY, NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload settings.  ``tail_pct`` is the highest percentile that keeps
# about ten jobs beyond it in a 30 s run on a 2-core x86 VM: ode-tail runs
# 16-23 jobs, mix-verdict 29-38, cover-sweep 22-38 as the host's speed
# drifts (about 8 jobs beyond it at the low ends; ode-tail stays at the
# median).  BENCHMARK.json records the same.
WORKLOADS = {
    "ode-tail": {"workers": None, "tail_pct": 50},
    "mix-verdict": {"workers": 2, "tail_pct": 70},
    "cover-sweep": {"workers": 2, "tail_pct": 65},
}

# name -> (unit, better)
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "job_s_p50": ("s", "lower"),
    "job_s_tail": ("s", "lower"),
    "jobs_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_ratio": ("ratio", "higher"),
    "accuracy_margin_digits": ("digits", "higher"),
}

LAYER_METRICS = {
    "setup.import_s": ("s", "lower"),
    "cli.ode.cold_s": ("s", "lower"),
    "cli.laplace.cold_s": ("s", "lower"),
    "cli.cover.cold_s": ("s", "lower"),
    "cli.mix.cold_s": ("s", "lower"),
    "cli.selftest.cold_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "spectral_model.validate.self_s": ("s", "lower"),
    "spectral_model.lambda0_batch.calls": ("count", "lower"),
    "spectral_model.lambda0_batch.points": ("count", "lower"),
    "spectral_model.lambda0_batch.self_s": ("s", "lower"),
    "corr_ode.solve_master.self_s": ("s", "lower"),
    "corr_ode.solve_master.steps_per_s": ("1/s", "higher"),
    "corr_ode.grid_points": ("count", "lower"),
    "corr_ode.master_relation_residual.calls": ("count", "lower"),
    "corr_ode.master_relation_residual.self_s": ("s", "lower"),
    "corr_ode.cumulative_quadratic.self_s": ("s", "lower"),
    "corr_ode.assemble_forcing.self_s": ("s", "lower"),
    "corr_ode.euler_residual_pointwise.self_s": ("s", "lower"),
    "corr_ode.asymptotic_amplitude.self_s": ("s", "lower"),
    "corr_ode.particular_trajectory.self_s": ("s", "lower"),
    "corr_ode.power_weighted_integral.calls": ("count", "lower"),
    "corr_ode.power_weighted_integral.self_s": ("s", "lower"),
    "corr_ode.tail_unbounded": ("count", "lower"),
    "laplace.laplace_quadrature.calls": ("count", "lower"),
    "laplace.laplace_quadrature.self_s": ("s", "lower"),
    "laplace.quadrature_points_per_s": ("1/s", "higher"),
    "laplace.fit_expansion.self_s": ("s", "lower"),
    "laplace.laplace_expand.self_s": ("s", "lower"),
    "mixing.sample_correlation.wall_s": ("s", "lower"),
    "mixing.correlation_integral.busy_s": ("s", "lower"),
    "mixing.parallel_efficiency": ("ratio", "higher"),
    "mixing.t_points_per_s": ("1/s", "higher"),
    "cover_spectrum.spectral_average.self_s": ("s", "lower"),
    "cover_spectrum.lattice_points": ("count", "lower"),
    "cover_spectrum.lattice_points_per_s": ("1/s", "higher"),
    "cover_spectrum.kept_ratio": ("ratio", "higher"),
    "cover_spectrum.peak_traced_mb": ("MB", "lower"),
    "cover_spectrum.parallel_efficiency": ("ratio", "higher"),
    "cover_spectrum.limit_integral.self_s": ("s", "lower"),
    "cover_spectrum.limit_density.self_s": ("s", "lower"),
    "cover_spectrum.root_solves": ("count", "lower"),
    "cover_spectrum.rank1_gram_defect": ("count", "lower"),
    "mixing.fit_conditioning_defects": ("count", "lower"),
}

# Imports timed before the workload process and again after it: the
# median of the two groups is less at the mercy of one slow spell of the host.
SETUP_REPEATS = 4
CHILD_GRACE_S = 120.0
THREAD_PINS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)

# The README's model document and CLI sizes, for the cold-start runs.
README_MODEL = {
    "genus": 2, "rank_d": 2, "gram": [1.0, 0.0, 0.0, 1.0],
    "perturbation": None, "gap_delta": 0.1, "domain_u": [0.179, 0.179],
}


def cli_commands(tmp: Path) -> dict:
    model = str(tmp / "model.json")
    return {
        "ode": ["ode", "--lambda", "0.04", "--n", "0", "--m", "0", "--y0-re", "1",
                "--t-max", "1e4", "--steps-per-decade", "400", "--out", str(tmp / "ode.csv")],
        "laplace": ["laplace", "--preset", "quartic1d", "--order", "2", "--t-min", "1e2",
                    "--t-max", "1e6", "--points-per-decade", "8",
                    "--out", str(tmp / "laplace.csv")],
        "cover": ["cover", "--model", model, "--orders", "64,64", "--epsilon", "0.05",
                  "--test-fn", "one", "--out", str(tmp / "cover.csv")],
        "mix": ["mix", "--model", model, "--amplitude", "const:1.0", "--log-t-min", "1e2",
                "--log-t-max", "1e4", "--points-per-decade", "8", "--order", "1",
                "--out", str(tmp / "mix.csv")],
        "selftest": ["selftest", "--out", str(tmp / "selftest.csv")],
    }


def workload_env(workers: int | None) -> dict:
    """Thread pools pinned to one thread; ``HMIX_WORKERS`` as the workload says."""
    env = dict(os.environ)
    for var in THREAD_PINS:
        env[var] = "1"
    env.pop("HMIX_WORKERS", None)
    if workers is not None:
        env["HMIX_WORKERS"] = str(workers)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_run(cmd: list, env: dict, timeout: float) -> tuple:
    """(wall seconds, return code) of one fresh process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=timeout, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr.decode(errors="replace"))
    return time.perf_counter() - t0, proc.returncode


def measure_setup(env: dict) -> list:
    """Fresh interpreter to ``import horomix`` done, several times."""
    times = []
    for _ in range(SETUP_REPEATS):
        wall, rc = timed_run([sys.executable, "-c", "import horomix"], env, 60)
        if rc != 0:
            raise RuntimeError("`import horomix` failed")
        times.append(wall)
    return times


def measure_cli(env: dict) -> tuple:
    """Each CLI subcommand once in a fresh process at the README's sizes."""
    cold, failures = {}, []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-cli-") as tmp:
        tmp = Path(tmp)
        (tmp / "model.json").write_text(json.dumps(README_MODEL))
        for name, argv in cli_commands(tmp).items():
            wall, rc = timed_run([sys.executable, "-m", "horomix.cli", *argv], env, 60)
            cold[f"cli.{name}.cold_s"] = wall
            if rc != 0:
                failures.append(f"cli {name}: exit code {rc}")
    return cold, failures


def at_reference_speed(records: list) -> list:
    """Wall times scaled to the host speed at which the reference pass takes
    ``NOMINAL_S``.  The speed around a record is the median reference time
    of that record and two neighbours on each side: one reference pass is
    short and noisy, while the host's slow and fast spells last seconds or
    longer."""
    refs = [r["ref_s"] for r in records]
    return [
        r["s"] * (NOMINAL_S / statistics.median(refs[max(0, i - 2): i + 3])) ** ELASTICITY
        for i, r in enumerate(records)
    ]


def stratum_weights(records: list) -> list:
    """Weights that give every stratum the same share, however the clock
    cut the run's last cycle."""
    counts = Counter(r["stratum"] for r in records)
    return [1.0 / counts[r["stratum"]] for r in records]


def weighted_percentile(values: list, weights: list, pct: float) -> float:
    """Percentile of a weighted sample, linear between the midpoints of
    the sorted values' weight intervals."""
    pairs = sorted(zip(values, weights))
    total = sum(weights)
    mids, acc = [], 0.0
    for _, w in pairs:
        mids.append((acc + 0.5 * w) / total)
        acc += w
    q = pct / 100.0
    if q <= mids[0]:
        return pairs[0][0]
    for (v0, _), (v1, _), m0, m1 in zip(pairs, pairs[1:], mids, mids[1:]):
        if q <= m1:
            return v0 + (v1 - v0) * (q - m0) / (m1 - m0)
    return pairs[-1][0]


def e2e_metrics(records: list, peak_rss_mb: float, setup_times: list,
                tail_pct: int) -> dict:
    times = at_reference_speed(records)
    weights = stratum_weights(records)
    by_stratum = {}
    for r, t in zip(records, times):
        by_stratum.setdefault(r["stratum"], []).append(t)
    margins = [r["margin"] for r in records if r["margin"] is not None]
    return {
        # not scaled: import times do not follow the reference pass
        "setup_s": statistics.median(setup_times),
        "job_s_p50": weighted_percentile(times, weights, 50),
        "job_s_tail": weighted_percentile(times, weights, tail_pct),
        # one job of every stratum, each at its median time
        "jobs_per_s": len(by_stratum) / sum(statistics.median(v) for v in by_stratum.values()),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": sum(1 for r in records if r["ok"]) / len(records),
        "accuracy_margin_digits": min(margins) if margins else -MARGIN_CAP_DIGITS,
    }


def run_child(args, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
        timeout=args.seconds + CHILD_GRACE_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "horomix" / "__init__.py").is_file():
        print(f"error: no horomix sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = WORKLOADS[args.workload]
    env = workload_env(spec["workers"])
    try:
        setup_times = measure_setup(env)
        result = run_child(args, env)
        setup_times += measure_setup(env)
        cli_cold, cli_failures = measure_cli(env) if args.trace else ({}, [])
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    failures = [f"job {r['id']}: {r['reason']}" for r in records if not r["ok"]]
    failures += cli_failures
    attempted = len(records) + (len(cli_cold) if args.trace else 0)
    if args.trace:
        metrics = {"setup.import_s": statistics.median(setup_times), **cli_cold,
                   **result["layers"]}
        units = LAYER_METRICS
        print(f"{args.workload} seed={args.seed}: traced {result['spans']} spans "
              f"-> {result['trace_file']}")
    else:
        metrics = e2e_metrics(records, result["peak_rss_mb"], setup_times,
                              spec["tail_pct"])
        units = E2E_METRICS
        ref = statistics.median(r["ref_s"] for r in records)
        print(f"{args.workload} seed={args.seed}: {len(records)} jobs in "
              f"{result['wall_s']:.1f} s; job_s_tail is p{spec['tail_pct']}; "
              f"unscaled median job {statistics.median(r['s'] for r in records):.4f} s "
              f"and import {statistics.median(setup_times):.4f} s; "
              f"reference pass {ref * 1e3:.2f} ms (nominal {NOMINAL_S * 1e3:.2f} ms)")
    for line in failures:
        print(f"FAILED {line}")
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, (unit, _) in units.items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
