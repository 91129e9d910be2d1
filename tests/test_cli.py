import csv
import math
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from horomix.cli import dispatch, load_model
from horomix.errors import ConfigError
from horomix.spectral_model import SpectralModel


@pytest.fixture()
def model_file(tmp_path, model_d1):
    path = tmp_path / "model_d1.json"
    path.write_text(model_d1.to_json())
    return path


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestDispatch:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        assert dispatch([]) == 1

    def test_invalid_order_named_in_message(self, model_file, tmp_path, capsys):
        rc = dispatch([
            "cover", "--model", str(model_file), "--orders", "0,3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert rc == 1
        assert "0" in capsys.readouterr().err

    def test_ode_run(self, tmp_path):
        out = tmp_path / "ode.csv"
        rc = dispatch([
            "ode", "--lambda", "0.04", "--n", "0", "--m", "0",
            "--t-max", "100", "--steps-per-decade", "200", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == [
            "t", "y_re", "y_im", "yp_re", "yp_im", "f_re", "f_im", "residual"
        ]
        assert float(rows[1][0]) == 0.0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["subcommand"] == "ode"
        assert manifest["outputs"][0]["path"] == "ode.csv"
        assert len(manifest["outputs"][0]["sha256"]) == 64

    def test_laplace_run(self, tmp_path):
        out = tmp_path / "lap.csv"
        rc = dispatch([
            "laplace", "--preset", "gauss1d", "--order", "2",
            "--t-min", "100", "--t-max", "10000", "--points-per-decade", "6",
            "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["T", "I_quadrature", "I_reconstructed", "abs_err"]
        assert all(float(r[3]) < 1e-12 for r in rows[1:])

    @pytest.mark.parametrize(
        "t_min, t_max", [("0", "1e4"), ("-5", "1e4"), ("1e6", "1e2")],
        ids=["zero", "negative", "descending"],
    )
    def test_laplace_bad_t_range_refused(self, tmp_path, capsys, t_min, t_max):
        out = tmp_path / "lap.csv"
        rc = dispatch([
            "laplace", "--preset", "gauss1d", "--t-min", t_min, "--t-max", t_max,
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "t_min, t_max", [("0", "1e4"), ("-5", "1e4"), ("1e6", "1e2")],
        ids=["zero", "negative", "descending"],
    )
    def test_mix_bad_t_range_refused(self, model_file, tmp_path, capsys, t_min, t_max):
        out = tmp_path / "mix.csv"
        rc = dispatch([
            "mix", "--model", str(model_file), "--t-min", t_min, "--t-max", t_max,
            "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--t-min", "100"), ("--log-t-min", "5")])
    def test_mix_half_t_range_refused(self, model_file, tmp_path, capsys, flag, value):
        out = tmp_path / "mix.csv"
        rc = dispatch(["mix", "--model", str(model_file), flag, value, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()

    def test_laplace_custom_json(self, tmp_path):
        doc = {
            "dim": 1,
            "box": [3.0],
            "hessian": [1.0],
            "v_poly": {"2": -0.5, "4": -0.25},
            "a_poly": {"0": 1.0},
        }
        phase = tmp_path / "phase.json"
        phase.write_text(json.dumps(doc))
        out = tmp_path / "lapc.csv"
        rc = dispatch([
            "laplace", "--preset", "custom-json", "--custom", str(phase),
            "--order", "1", "--t-min", "100", "--t-max", "10000",
            "--points-per-decade", "6", "--out", str(out),
        ])
        assert rc == 0

    def test_cover_run(self, model_file, tmp_path):
        out = tmp_path / "cov.csv"
        rc = dispatch([
            "cover", "--model", str(model_file), "--orders", "512",
            "--epsilon", "0.05", "--test-fn", "one", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert rows[0] == ["min_n", "empirical", "limit", "abs_err"]
        assert len(rows) == 2

    def test_cover_study(self, model_file, tmp_path):
        out = tmp_path / "covs.csv"
        rc = dispatch([
            "cover", "--model", str(model_file), "--orders", "256", "--study",
            "--epsilon", "0.05", "--test-fn", "linear", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert len(rows) > 3
        mins = [int(r[0]) for r in rows[1:]]
        assert mins == sorted(mins)

    def test_cover_sublevel_set_leaving_u_refused(self, tmp_path, capsys):
        model = SpectralModel(genus=2, rank_d=2, gram=np.eye(2), domain_u=[0.05, 0.05])
        path = tmp_path / "narrow_u.json"
        path.write_text(model.to_json())
        out = tmp_path / "cov_u.csv"
        rc = dispatch([
            "cover", "--model", str(path), "--orders", "64,64",
            "--epsilon", "0.05", "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "working box U" in err
        assert not out.exists()

    def test_mix_run_and_verdict(self, model_file, tmp_path, capsys):
        out = tmp_path / "mix.csv"
        rc = dispatch([
            "mix", "--model", str(model_file), "--amplitude", "const:1.0",
            "--log-t-min", "100", "--log-t-max", "10000",
            "--points-per-decade", "6", "--order", "1", "--out", str(out),
        ])
        assert rc == 0
        verdict = json.loads(Path(str(out) + ".verdict.json").read_text())
        assert verdict["rel_dev"] < 5e-3
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert printed == verdict
        rows = _read_csv(out)
        assert rows[0] == ["log_t", "integral", "reconstruction", "c0_running"]

    def test_mix_t_flags_convert_to_log(self, model_file, tmp_path):
        # t itself may be astronomically large; only log t is ever formed
        out = tmp_path / "mix2.csv"
        rc = dispatch([
            "mix", "--model", str(model_file), "--amplitude", "const:1.0",
            "--t-min", "100",      # log t ~ 4.6052
            "--t-max", "1e200",    # log t ~ 460.52, exactly two decades up
            "--points-per-decade", "8", "--order", "0", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert abs(float(rows[1][0]) - 4.605170185988092) < 1e-12

    def test_mix_validation_gate(self, model_file, tmp_path):
        out = tmp_path / "mix3.csv"
        rc = dispatch([
            "mix", "--model", str(model_file), "--amplitude", "const:1.0",
            "--log-t-min", "100", "--log-t-max", "10000",
            "--points-per-decade", "6", "--order", "1",
            "--max-c0-dev", "1e-18", "--out", str(out),
        ])
        assert rc == 2

    def test_ode_resonant_mode_negative_flag(self, tmp_path):
        out = tmp_path / "ode_res.csv"
        rc = dispatch([
            "ode", "--lambda", "0.05", "--n", "2", "--m", "-2",
            "--y0-re", "0", "--amp-re", "1", "--t-max", "100",
            "--steps-per-decade", "200", "--out", str(out),
        ])
        assert rc == 0
        rows = _read_csv(out)
        assert all(math.isfinite(float(r[1])) for r in rows[1:])

    def test_json_logs(self, tmp_path, capsys):
        out = tmp_path / "ode_jl.csv"
        rc = dispatch([
            "--json-logs", "ode", "--lambda", "0.0", "--t-max", "10",
            "--steps-per-decade", "100", "--out", str(out),
        ])
        assert rc == 0
        err_lines = [l for l in capsys.readouterr().err.splitlines() if l.strip()]
        assert all("msg" in json.loads(l) for l in err_lines)

    def test_selftest(self, tmp_path, capsys):
        out = tmp_path / "st.csv"
        assert dispatch(["selftest", "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "checks passed" in stdout
        assert "FAIL" not in stdout
        rows = _read_csv(out)
        assert rows[0] == ["check", "status", "value", "reference"]
        assert all(r[1] == "PASS" for r in rows[1:])

    def test_workers_flag_is_rejected(self, model_file, tmp_path, capsys):
        # HMIX_WORKERS is the one worker setting
        rc = dispatch([
            "--workers", "2", "cover", "--model", str(model_file), "--orders", "64",
            "--out", str(tmp_path / "w.csv"),
        ])
        assert rc == 1
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "w.csv").exists()


class TestLoadModel:
    def test_valid(self, model_file):
        model = load_model(str(model_file))
        assert model.genus == 2 and model.rank_d == 1

    def test_indefinite_gram_named(self, tmp_path):
        doc = json.loads(
            SpectralModel(genus=2, rank_d=2, gram=np.eye(2)).to_json()
        )
        doc["gram"] = [1.0, 0.0, 0.0, -1.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="positive definite"):
            load_model(str(path))

    def test_positivity_sweep_named(self, tmp_path):
        doc = json.loads(
            SpectralModel(genus=2, rank_d=1, gram=[[1.0]]).to_json()
        )
        doc["perturbation"] = {"name": "quartic", "params": {"coeff": -60.0}}
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="positivity sweep"):
            load_model(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_model(str(tmp_path / "absent.json"))


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, model_file, tmp_path, monkeypatch):
        digests = []
        for rep, workers in enumerate(("1", "4")):
            monkeypatch.setenv("HMIX_WORKERS", workers)
            out = tmp_path / f"cov_{rep}.csv"
            rc = dispatch([
                "cover", "--model", str(model_file), "--orders", "4096",
                "--epsilon", "0.05", "--test-fn", "linear", "--out", str(out),
            ])
            assert rc == 0
            digests.append(out.read_bytes())
        assert digests[0] == digests[1]

    def test_manifest_records_worker_count(self, model_file, tmp_path, monkeypatch):
        monkeypatch.setenv("HMIX_WORKERS", "3")
        out = tmp_path / "c.csv"
        dispatch([
            "cover", "--model", str(model_file), "--orders", "64",
            "--epsilon", "0.05", "--out", str(out),
        ])
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["worker_count"] == 3
        assert manifest["tool_version"]
        assert manifest["seed"] == 0

    @pytest.mark.parametrize("subcommand", ["mix", "laplace", "cover"])
    def test_threaded_subcommands_byte_identical(
        self, subcommand, model_file, tmp_path, monkeypatch
    ):
        # same bytes at HMIX_WORKERS 1 and 2: no computation uses threads,
        # and the manifests differ only in the recorded worker count.
        runs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("HMIX_WORKERS", workers)
            out = tmp_path / f"{subcommand}_{workers}.csv"
            if subcommand == "mix":
                argv = [
                    "mix", "--model", str(model_file), "--log-t-min", "100",
                    "--log-t-max", "10000", "--points-per-decade", "6",
                    "--order", "1", "--out", str(out),
                ]
                names = [out, Path(str(out) + ".verdict.json")]
            elif subcommand == "cover":
                argv = [
                    "cover", "--model", str(model_file), "--orders", "20000",
                    "--test-fn", "linear", "--out", str(out),
                ]
                names = [out]
            else:
                argv = [
                    "laplace", "--preset", "quartic1d", "--order", "2",
                    "--t-min", "100", "--t-max", "10000",
                    "--points-per-decade", "6", "--out", str(out),
                ]
                names = [out]
            assert dispatch(argv) == 0
            manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
            assert manifest.pop("worker_count") == int(workers)
            for entry in manifest["outputs"]:
                entry["path"] = entry["path"].replace(f"_{workers}", "")
            runs.append(([p.read_bytes() for p in names], manifest))
        assert runs[0] == runs[1]


_SCIPY_FREE = """
import sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
import numpy as np
import horomix, horomix.cli
from horomix.corr_ode import (
    ForcingProfile, asymptotic_amplitude, asymptotic_constant, particular_trajectory,
)
from horomix.cover_spectrum import limit_integral, make_test_function
from horomix.laplace import laplace_expand, preset_quartic1d
from horomix.selftest import run_selftest
from horomix.spectral_model import Perturbation, SpectralModel

model = SpectralModel(
    genus=2, rank_d=2, gram=np.eye(2), perturbation=Perturbation("quartic", 0.2)
)
limit_integral(model, make_test_function("one", 0.05), 0.05)
laplace_expand(preset_quartic1d(), 2)
checks = run_selftest()
failed = [c.name for c in checks if not c.passed]
assert len(checks) == 37 and not failed, failed
anchor = ForcingProfile.from_callable(
    lambda t: (3.0 - 2.0 * t * t) / (4.0 * (1.0 + t * t) ** 2.25) + 0j
)
assert particular_trajectory(0.5, anchor, np.linspace(1.0, 10.0, 50)).y.shape == (50,)
assert abs(asymptotic_amplitude(0.5, anchor, tol=1e-10).value - 1.0) < 1e-9
asymptotic_constant(0.5, anchor)
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert sys.modules["scipy"] is None and loaded == ["scipy"], loaded
"""


def test_cli_paths_run_without_scipy():
    """With scipy made unimportable, the package, the CLI, the angular limit
    density, the radial Morse chart, the whole selftest battery and the
    callable forcing integrals all run."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


class TestCliDeltas:
    """scripts/cli_deltas.py reports the largest change per moved column."""

    @pytest.fixture()
    def column_deltas(self, monkeypatch):
        scripts = Path(__file__).resolve().parent.parent / "scripts"
        monkeypatch.syspath_prepend(str(scripts))
        import cli_deltas

        return cli_deltas.column_deltas

    def test_moved_columns_only(self, column_deltas):
        base = "min_n,empirical,limit,abs_err\n8,0.5,0.25,0.25\n16,0.5,0.25,0.25\n"
        head = "min_n,empirical,limit,abs_err\n8,0.5,0.26,0.24\n16,0.5,0.25,0.25\n"
        assert column_deltas(base, head) == [
            "  limit: 1/2 rows, max abs 0.01, max rel 0.04",
            "  abs_err: 1/2 rows, max abs 0.01, max rel 0.04",
        ]

    def test_text_cells_and_reshaped_tables(self, column_deltas):
        assert column_deltas("a,b\nx,1\n", "a,b\ny,1\n") == ["  a: 1/1 rows, 1 non-numeric"]
        assert column_deltas("a\n1\n", "a\n1\n2\n") == [
            "  header or row count changed: 2 -> 3 lines"
        ]
