"""The workload process: one client running its seeded jobs back to back.

    python3 perfbench/child.py --workload ode-tail --seed 1 --seconds 30 --trace 0

``run.py`` starts this with the thread pins and ``HMIX_WORKERS`` of the
workload and ``src`` on ``PYTHONPATH``.  It prints one JSON object: the
per-job records, the measured wall time and peak RSS, and with
``--trace 1`` the per-layer metrics.

With ``--trace 1`` the run has two phases of ``seconds / 2``: the jobs run
untraced, then the same jobs run again with the span wrappers installed.
The per-layer metrics come from the second phase, and the tracing overhead
is the ratio of the two phases' times on identical jobs.  On
``cover-sweep`` a last, untimed pass takes the tracemalloc peak of the
sweep on the largest lattice those jobs used.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from horomix.errors import HoromixError

import jobs as joblist
from gate import Gate
from reference import ReferencePass
from tracer import Tracer
from workloads import PROBE_METRICS, PROBES, RUNNERS, sweep_peak_mb

TRACE_DIR = Path(__file__).resolve().parent.parent / ".perfbench-out"


def run_loop(workload, jobs, seconds, reference, limit=None, tracer=None):
    """Run ``jobs`` in order until ``seconds`` pass or ``limit`` jobs ran.

    Returns one record per job.  A raised error or a failed check marks
    the job failed; the loop goes on.  Each record carries the mean time of
    the ``reference`` pass timed just before and just after the job.
    """
    runner = RUNNERS[workload]
    records = []
    start = time.perf_counter()
    ref_before = reference.seconds()
    for job in jobs:
        if limit is not None and len(records) >= limit:
            break
        if limit is None and time.perf_counter() - start >= seconds:
            break
        gate, stats, reason = Gate(), {}, None
        if tracer is not None:
            tracer.job_id = job["id"]
        t0 = time.perf_counter()
        try:
            runner(job, gate, stats)
        except HoromixError as exc:
            reason = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # a job must not take the run down with it
            traceback.print_exc(file=sys.stderr)
            reason = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        ref_after = reference.seconds()
        if reason is None and not gate.passed:
            reason = "; ".join(gate.failures())
        records.append({
            "id": job.get("id", -1),
            "stratum": job.get("stratum", 0),
            "s": elapsed,
            "ref_s": 0.5 * (ref_before + ref_after),
            "ok": reason is None,
            "reason": reason,
            "margin": gate.margin if gate.checks else None,
            "stats": stats,
        })
        ref_before = ref_after
    return records, time.perf_counter() - start


def _ratio(num, den):
    return float(num) / float(den) if den else 0.0


def layer_metrics(tracer: Tracer, cols: dict, counts: dict, records: list,
                  workers: int) -> dict:
    """Per-layer metrics of the traced phase, per job unless noted.

    ``counts`` holds the calls the tracer counted without a span."""
    n_jobs = max(len(records), 1)
    name_ids = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return cols["name"] == name_ids[name]

    def calls(name):
        return int(np.count_nonzero(mask(name)))

    def self_s(name):
        return float(cols["self"][mask(name)].sum())

    def total_s(name, where=None):
        m = mask(name) if where is None else mask(name) & where
        return float(cols["duration"][m].sum())

    out = {}
    per_job = {
        "spectral_model.validate.self_s": self_s("spectral_model.validate"),
        # single-point calls are counted, not spanned: one point each
        "spectral_model.lambda0_batch.calls": calls("spectral_model.lambda0_batch")
        + counts["spectral_model.lambda0_batch"],
        "spectral_model.lambda0_batch.points": int(
            cols["points"][mask("spectral_model.lambda0_batch")].sum()
        ) + counts["spectral_model.lambda0_batch"],
        "spectral_model.lambda0_batch.self_s": self_s("spectral_model.lambda0_batch"),
    }
    for name in (
        "solve_master", "master_relation_residual", "cumulative_quadratic",
        "assemble_forcing", "euler_residual_pointwise", "asymptotic_amplitude",
        "particular_trajectory", "power_weighted_integral",
    ):
        per_job[f"corr_ode.{name}.self_s"] = self_s(f"corr_ode.{name}")
    per_job["corr_ode.master_relation_residual.calls"] = calls(
        "corr_ode.master_relation_residual"
    )
    per_job["corr_ode.power_weighted_integral.calls"] = calls(
        "corr_ode.power_weighted_integral"
    )
    grid_points = sum(r["stats"].get("grid_points", 0) for r in records)
    per_job["corr_ode.grid_points"] = grid_points
    out["corr_ode.solve_master.steps_per_s"] = _ratio(
        grid_points, self_s("corr_ode.solve_master")
    )
    out["corr_ode.tail_unbounded"] = sum(
        1 for r in records if r["stats"].get("tail_unbounded")
    )

    per_job["laplace.laplace_quadrature.calls"] = calls("laplace.laplace_quadrature")
    for name in ("laplace_quadrature", "fit_expansion", "laplace_expand"):
        per_job[f"laplace.{name}.self_s"] = self_s(f"laplace.{name}")
    in_mixing = tracer.under(cols, "mixing.correlation_integral")
    quad_points = int(
        cols["points"][mask("spectral_model.lambda0_batch") & in_mixing].sum()
    )
    out["laplace.quadrature_points_per_s"] = _ratio(
        quad_points, total_s("laplace.laplace_quadrature", in_mixing)
    )

    wall = total_s("mixing.sample_correlation")
    busy = total_s("mixing.correlation_integral")
    per_job["mixing.sample_correlation.wall_s"] = wall
    per_job["mixing.correlation_integral.busy_s"] = busy
    out["mixing.parallel_efficiency"] = _ratio(busy, wall * workers)
    out["mixing.t_points_per_s"] = _ratio(calls("mixing.correlation_integral"), wall)

    in_sweep = tracer.under(cols, "cover_spectrum.spectral_average")
    sweep_lam = mask("spectral_model.lambda0_batch") & in_sweep
    lattice_points = int(cols["points"][sweep_lam].sum())
    sweep_s = total_s("cover_spectrum.spectral_average")
    per_job["cover_spectrum.spectral_average.self_s"] = self_s(
        "cover_spectrum.spectral_average"
    )
    per_job["cover_spectrum.lattice_points"] = lattice_points
    out["cover_spectrum.lattice_points_per_s"] = _ratio(lattice_points, sweep_s)
    out["cover_spectrum.kept_ratio"] = _ratio(cols["kept"][sweep_lam].sum(), lattice_points)
    out["cover_spectrum.parallel_efficiency"] = _ratio(
        float(cols["duration"][sweep_lam].sum()), sweep_s * workers
    )
    for name in ("limit_integral", "limit_density"):
        per_job[f"cover_spectrum.{name}.self_s"] = self_s(f"cover_spectrum.{name}")
    per_job["cover_spectrum.root_solves"] = counts["cover_spectrum.brentq"]

    for key, value in per_job.items():
        out[key] = value / n_jobs
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with ReferencePass() as reference:
        result = measure(args, reference)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def measure(args, reference) -> dict:
    """The run's job records and wall time; with ``--trace 1`` also the
    per-layer metrics and the span file."""
    jobs = joblist.make_jobs(args.workload, args.seed)
    workers = int(os.environ.get("HMIX_WORKERS", "1") or 1)
    result = {}
    if not args.trace:
        records, wall = run_loop(args.workload, jobs, args.seconds, reference)
        result.update(records=records, wall_s=wall)
    else:
        plain, plain_wall = run_loop(args.workload, jobs, args.seconds / 2.0, reference)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_loop(
                args.workload, jobs, None, reference, limit=len(plain), tracer=tracer
            )
        finally:
            tracer.uninstall()
        cols = tracer.table()
        layers = layer_metrics(tracer, cols, tracer.counts(), traced, workers)
        layers["trace.overhead_ratio"] = _ratio(
            sum(r["s"] for r in traced), sum(r["s"] for r in plain)
        ) - 1.0
        layers["cover_spectrum.peak_traced_mb"] = (
            sweep_peak_mb(jobs[:len(plain)]) if args.workload == "cover-sweep" else 0.0
        )
        for name in PROBE_METRICS.values():
            layers[name] = 0
        if args.workload in PROBES:
            probes, _ = run_loop(args.workload, PROBES[args.workload], None, reference,
                                 limit=len(PROBES[args.workload]))
            layers[PROBE_METRICS[args.workload]] = sum(1 for r in probes if not r["ok"])
        TRACE_DIR.mkdir(exist_ok=True)
        trace_file = TRACE_DIR / f"spans-{args.workload}.npz"
        tracer.save(trace_file, cols)
        result.update(
            records=plain + traced, wall_s=plain_wall + traced_wall,
            layers=layers, spans=int(cols["id"].size), trace_file=str(trace_file),
        )
    return result


if __name__ == "__main__":
    sys.exit(main())
