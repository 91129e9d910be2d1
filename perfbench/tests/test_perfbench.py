"""Tests of the benchmark itself (not of the library).

    python3 -m pytest perfbench/tests -q

The repository's own ``pytest`` run does not collect these: its
``testpaths`` is ``tests``.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import run  # noqa: E402
from gate import MARGIN_CAP_DIGITS, Gate  # noqa: E402
from reference import ELASTICITY, NOMINAL_S  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert jobs.make_jobs(workload, 11) == jobs.make_jobs(workload, 11)
    assert jobs.make_jobs(workload, 11) != jobs.make_jobs(workload, 12)


def test_workloads_match_benchmark_json():
    names = [w["name"] for w in _spec()["workloads"]]
    assert sorted(names) == sorted(jobs.WORKLOADS) == sorted(run.WORKLOADS)


def test_metric_names_and_units_match_benchmark_json():
    spec = _spec()
    for key, table in (("end_to_end", run.E2E_METRICS), ("per_layer", run.LAYER_METRICS)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table


def test_printed_result_carries_every_metric_with_its_unit():
    # 20 jobs in 8 strata at nominal host speed; strata 0-3 hold 3 jobs each
    records = [
        {"id": i, "stratum": i % 8, "s": 0.1 * (i % 8 + 1), "ref_s": NOMINAL_S,
         "ok": i != 3, "reason": None, "margin": 2.0 - 0.1 * i, "stats": {}}
        for i in range(20)
    ]
    metrics = run.e2e_metrics(records, peak_rss_mb=80.0, setup_times=[0.7, 0.9, 0.8],
                              tail_pct=50)
    assert set(metrics) == set(run.E2E_METRICS)
    assert metrics["setup_s"] == pytest.approx(0.8)
    # one job of each stratum: 0.1 + 0.2 + ... + 0.8 = 3.6 s
    assert metrics["jobs_per_s"] == pytest.approx(8 / 3.6)
    # strata weigh equally: the extra jobs of strata 0-3 would pull a plain
    # median down to 0.4
    assert 0.4 < metrics["job_s_p50"] < 0.5
    assert metrics["pass_ratio"] == pytest.approx(19 / 20)
    assert metrics["accuracy_margin_digits"] == pytest.approx(0.1)
    assert metrics["job_s_tail"] >= metrics["job_s_p50"]


def test_times_are_scaled_to_the_reference_speed():
    """A slow spell that doubles the reference pass stretches a job by
    2 ** ELASTICITY; the scaled time is the same."""
    steady = [{"s": 1.0, "ref_s": NOMINAL_S} for _ in range(5)]
    slow = [{"s": 2.0 ** ELASTICITY, "ref_s": 2 * NOMINAL_S} for _ in range(5)]
    assert run.at_reference_speed(steady) == pytest.approx([1.0] * 5)
    assert run.at_reference_speed(slow) == pytest.approx([1.0] * 5)
    # one noisy reference pass is outvoted by its neighbours
    noisy = [{"s": 1.0, "ref_s": NOMINAL_S * (3.0 if i == 2 else 1.0)} for i in range(5)]
    assert run.at_reference_speed(noisy) == pytest.approx([1.0] * 5)


def test_reference_pass_stops_its_threads():
    import threading

    from reference import ReferencePass

    with ReferencePass() as reference:
        assert reference.seconds() > 0.0
    assert not [t for t in threading.enumerate() if t.name.startswith("perfbench-reference")]


def test_weighted_percentile():
    values = [3.0, 1.0, 2.0, 4.0]
    assert run.weighted_percentile(values, [1.0] * 4, 50) == pytest.approx(2.5)
    assert run.weighted_percentile(values, [1.0] * 4, 0) == 1.0
    assert run.weighted_percentile(values, [1.0] * 4, 100) == 4.0
    # only the weights' shares count
    assert run.weighted_percentile(values, [2.0] * 4, 50) == pytest.approx(2.5)
    # more weight on the top value moves the median up
    assert run.weighted_percentile(values, [1.0, 1.0, 1.0, 3.0], 50) > 2.5


def test_gate_flags_a_perturbed_result():
    exact = Gate()
    assert exact.check("c0_routes", 0.0, 1e-6)
    assert exact.passed and exact.margin == MARGIN_CAP_DIGITS

    near = Gate()
    assert near.check("c0_routes", 1e-8, 1e-6)
    assert near.margin == pytest.approx(2.0)

    perturbed = Gate()
    perturbed.check("verdict_rel_dev", 1e-12, 5e-3)
    assert not perturbed.check("c0_routes", 1e-8 + 2e-6, 1e-6)
    assert not perturbed.passed
    assert perturbed.margin < 0.0
    assert "c0_routes" in perturbed.failures()[0]

    broken = Gate()
    assert not broken.check("euler_residual", math.nan, 1e-6)
    assert not broken.passed


def test_generated_models_pass_validation():
    import workloads

    for seed in range(20):
        for workload in ("mix-verdict", "cover-sweep"):
            for job in jobs.make_jobs(workload, seed, 24):
                workloads._model(job).validate()


def test_tracer_counts_scalar_calls_without_spans():
    """Root solves and single-point lambda0_batch calls are counted, not
    spanned; batched calls get a span with their point count."""
    import numpy as np
    from horomix import cover_spectrum
    from horomix.spectral_model import SpectralModel

    from tracer import Tracer

    model = SpectralModel(genus=2, rank_d=2, gram=np.eye(2), gap_delta=0.1)
    tracer = Tracer()
    tracer.install()
    try:
        model.lambda0_batch(np.array([0.01, 0.02]))
        model.lambda0_batch(np.zeros((5, 2)))
        cover_spectrum.brentq(lambda x: x - 0.5, 0.0, 1.0)
    finally:
        tracer.uninstall()
    cols = tracer.table()
    assert tracer.counts() == {
        "cover_spectrum.brentq": 1, "spectral_model.lambda0_batch": 1,
    }
    assert cols["id"].size == 1
    assert tracer.names[cols["name"][0]] == "spectral_model.lambda0_batch"
    assert cols["points"][0] == 5 and cols["kept"][0] == 5
    assert not hasattr(SpectralModel.lambda0_batch, "__wrapped__")


def test_plain_pytest_collects_no_benchmark():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    collected = [line for line in proc.stdout.splitlines() if "::" in line]
    assert collected, proc.stdout + proc.stderr
    assert not any("perfbench" in line for line in collected)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    """One short run per mode: the last line names every declared metric
    of that mode with its declared unit, and nothing else."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ode-tail", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _spec()[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_fails_without_the_library(tmp_path):
    """With only BENCHMARK.json and perfbench/, the run exits non-zero and
    prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ode-tail", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
