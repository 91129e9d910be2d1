"""Experiment driver: subcommand dispatch, CSV/JSON emission, run manifests.

Exit codes: 0 success, 1 usage or configuration error, 2 validation
failure (a requested acceptance-style check did not pass).  Every run
writes exactly one manifest next to its output file; outputs are
byte-identical across worker counts and repeat runs: no computation uses
threads, and the manifest records the HMIX_WORKERS setting as given.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, corr_ode, cover_spectrum, laplace, mixing
from .errors import ConfigError, HoromixError
from .selftest import run_selftest
from .spectral_model import SpectralModel

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_VALIDATION = 2


class _Parser(argparse.ArgumentParser):
    """argparse that raises ConfigError, and reads a token such as -1e-3
    as a negative number, not an option: argparse's own pattern matches
    only -1 and -1.5.  Subparsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise ConfigError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _worker_count() -> int:
    try:
        return max(1, int(os.environ.get("HMIX_WORKERS", "")))
    except ValueError:
        return 1


def _config_digest(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _write_manifest(subcommand: str, config: dict, args, outputs: list[Path]) -> Path:
    manifest = {
        "subcommand": subcommand,
        "config_digest": _config_digest(config),
        "seed": args.seed,
        "worker_count": _worker_count(),
        "tool_version": __version__,
        "outputs": [
            {"path": p.name, "sha256": _sha256(p)} for p in outputs
        ],
    }
    path = Path(str(outputs[0]) + ".manifest.json")
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _fmt(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _log(args, message: str) -> None:
    if getattr(args, "json_logs", False):
        print(json.dumps({"msg": message}, sort_keys=True), file=sys.stderr)
    else:
        print(message, file=sys.stderr)


def load_model(path: str) -> SpectralModel:
    """Parse and fully validate a spectral-model JSON document."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    try:
        model = SpectralModel.from_json(text)
        model.validate()
    except ConfigError:
        raise
    except HoromixError as exc:
        raise ConfigError(f"model invariant failed: {exc}") from exc
    return model


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_ode(args) -> int:
    mode = corr_ode.ModePair(args.n, args.m)
    y0 = complex(args.y0_re, args.y0_im)
    amp = complex(args.amp_re, args.amp_im)
    grid = corr_ode.master_grid(args.t_max, args.steps_per_decade)
    traj = corr_ode.solve_master(mode, args.lam, y0, grid, resonant_amplitude=amp)
    profile = corr_ode.assemble_forcing(mode, traj, args.lam)
    per_point = corr_ode.euler_residual_pointwise(traj, profile, args.lam)
    rows = [
        (
            float(t), float(y.real), float(y.imag), float(yp.real), float(yp.imag),
            float(f.real), float(f.imag), float(r),
        )
        for t, y, yp, f, r in zip(
            traj.grid, traj.y, traj.y_prime, profile.values, per_point
        )
    ]
    out = Path(args.out)
    _write_csv(
        out,
        ["t", "y_re", "y_im", "yp_re", "yp_im", "f_re", "f_im", "residual"],
        rows,
    )
    config = {
        "lambda": args.lam, "n": args.n, "m": args.m,
        "y0": [args.y0_re, args.y0_im], "amp": [args.amp_re, args.amp_im],
        "t_max": args.t_max, "steps_per_decade": args.steps_per_decade,
    }
    _write_manifest("ode", config, args, [out])
    _log(args, f"ode: wrote {out} (decay_c={profile.decay_c!r})")
    return _EXIT_OK


def _laplace_problem(args) -> laplace.PhaseProblem:
    presets = {
        "gauss1d": laplace.preset_gauss1d,
        "gauss2d": laplace.preset_gauss2d,
        "quartic1d": laplace.preset_quartic1d,
    }
    if args.preset in presets:
        return presets[args.preset]()
    if args.custom is None:
        raise ConfigError("--preset custom-json requires --custom <path>")
    try:
        doc = json.loads(Path(args.custom).read_text())
        dim = int(doc["dim"])
        box = np.asarray(doc["box"], dtype=float)
        hessian = np.asarray(doc["hessian"], dtype=float).reshape(dim, dim)
        v_poly = {tuple(map(int, k.split(","))): c for k, c in doc["v_poly"].items()}
        a_poly = {tuple(map(int, k.split(","))): c
                  for k, c in doc.get("a_poly", {",".join("0" * dim): 1.0}).items()}
        return laplace.custom_problem(dim, v_poly, a_poly, hessian, box)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad custom phase document: {exc}") from exc


def _cmd_laplace(args) -> int:
    problem = _laplace_problem(args)
    problem.validate()
    T = corr_ode.log_grid(args.t_min, args.t_max, args.points_per_decade)
    coeffs = laplace.laplace_expand(problem, args.order)
    vals = laplace.laplace_quadrature(problem, T)
    recon = coeffs.reconstruct(T)
    rows = [
        (float(t), float(v), float(r), float(abs(v - r)))
        for t, v, r in zip(T, vals, recon)
    ]
    out = Path(args.out)
    _write_csv(out, ["T", "I_quadrature", "I_reconstructed", "abs_err"], rows)
    config = {
        "preset": args.preset, "order": args.order, "t_min": args.t_min,
        "t_max": args.t_max, "points_per_decade": args.points_per_decade,
    }
    if args.custom is not None:
        config["custom_sha256"] = hashlib.sha256(
            Path(args.custom).read_bytes()
        ).hexdigest()
    _write_manifest("laplace", config, args, [out])
    _log(args, f"laplace: wrote {out} (c={[float(x) for x in coeffs.c]!r})")
    return _EXIT_OK


def _parse_orders(text: str) -> tuple:
    try:
        orders = tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"orders must be comma-separated integers: {text!r}") from exc
    for n in orders:
        if n <= 0:
            raise ConfigError(f"invalid lattice order {n}; orders must be positive")
    return orders


def _cmd_cover(args) -> int:
    model = load_model(args.model)
    orders = _parse_orders(args.orders)
    fn = cover_spectrum.make_test_function(args.test_fn, args.epsilon)
    out = Path(args.out)
    if args.study:
        seq, cur = [], orders
        while min(cur) >= 8:
            seq.append(cur)
            cur = tuple(n // 2 for n in cur)
        seq = list(reversed(seq))
        if len(seq) < 2:
            raise ConfigError("--study needs orders at least 16 to halve from")
        report = cover_spectrum.convergence_study(model, fn, args.epsilon, seq)
        rows = [
            (r.min_n, float(r.empirical), float(report.limit_value), float(r.abs_err))
            for r in report.rows
        ]
    else:
        lattice = cover_spectrum.CharacterLattice(orders)
        emp = cover_spectrum.spectral_average(model, lattice, fn, args.epsilon)
        lim = cover_spectrum.limit_integral(model, fn, args.epsilon)
        rows = [(min(orders), float(emp), float(lim), float(abs(emp - lim)))]
    _write_csv(out, ["min_n", "empirical", "limit", "abs_err"], rows)
    config = {
        "model": Path(args.model).name, "orders": list(orders),
        "epsilon": args.epsilon, "test_fn": args.test_fn, "study": bool(args.study),
    }
    _write_manifest("cover", config, args, [out])
    _log(args, f"cover: wrote {out}")
    return _EXIT_OK


def _parse_amplitude(text: str) -> float:
    """The constant amplitude of ``const:<v>``, v a finite float."""
    kind, _, value = text.partition(":")
    try:
        vol = float(value)
    except ValueError:
        vol = math.nan
    if kind != "const" or not math.isfinite(vol):
        raise ConfigError(f"amplitude must be const:<finite value>, got {text!r}")
    return vol


def _cmd_mix(args) -> int:
    # a NaN threshold would make the gate's `>` always False
    if args.max_c0_dev is not None and not args.max_c0_dev >= 0.0:
        raise ConfigError(f"--max-c0-dev must be a number >= 0, got {args.max_c0_dev}")
    model = load_model(args.model)
    vol = _parse_amplitude(args.amplitude)
    problem = mixing.MixingProblem(model=model, vol_product=vol)
    if args.log_t_min is not None and args.log_t_max is not None:
        lo, hi = args.log_t_min, args.log_t_max
    elif args.t_min is not None and args.t_max is not None:
        if min(args.t_min, args.t_max) <= 0.0:
            raise ConfigError("need 0 < t-min < t-max")
        # convert once through log; e^T is never formed anywhere
        lo, hi = math.log(args.t_min), math.log(args.t_max)
    else:
        raise ConfigError("give either --log-t-min/--log-t-max or --t-min/--t-max")
    if not 0.0 < lo < hi:
        raise ConfigError("need 0 < log-t-min < log-t-max")
    grid = corr_ode.log_grid(lo, hi, args.points_per_decade)
    # refuse what the fit would refuse before sampling the whole ladder
    laplace.fit_windows(grid, args.order)
    vals = mixing.sample_correlation(problem, grid)
    fit, verdict = mixing.mixing_expansion(problem, grid, args.order, values=vals)
    d = model.rank_d
    recon = fit.reconstruct(grid)
    rows = [
        (float(T), float(v), float(rec), float(v * T ** (d / 2.0)))
        for T, v, rec in zip(grid, vals, recon)
    ]
    out = Path(args.out)
    _write_csv(out, ["log_t", "integral", "reconstruction", "c0_running"], rows)
    verdict_path = Path(str(out) + ".verdict.json")
    verdict_doc = {k: float(v) for k, v in verdict.items()}
    verdict_path.write_text(json.dumps(verdict_doc, sort_keys=True, indent=2) + "\n")
    config = {
        "model": Path(args.model).name, "amplitude": args.amplitude,
        "log_t_min": lo, "log_t_max": hi,
        "points_per_decade": args.points_per_decade, "order": args.order,
    }
    _write_manifest("mix", config, args, [out, verdict_path])
    print(json.dumps(verdict_doc, sort_keys=True))
    if args.max_c0_dev is not None and verdict["rel_dev"] > args.max_c0_dev:
        _log(args, f"mix: rel_dev {verdict['rel_dev']:.3e} above {args.max_c0_dev}")
        return _EXIT_VALIDATION
    return _EXIT_OK


def _cmd_selftest(args) -> int:
    results = run_selftest()
    rows = [
        (r.name, "PASS" if r.passed else "FAIL", r.value, r.reference)
        for r in results
    ]
    out = Path(args.out)
    _write_csv(out, ["check", "status", "value", "reference"], rows)
    _write_manifest("selftest", {"suite": "trivial-checks"}, args, [out])
    failed = 0
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}")
        failed += 0 if r.passed else 1
    print(f"selftest: {len(results) - failed}/{len(results)} checks passed")
    return _EXIT_OK if failed == 0 else _EXIT_VALIDATION


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="horomix", description=__doc__)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in the manifest; only Monte Carlo "
                             "cross-checks would consume it")
    parser.add_argument("--json-logs", action="store_true",
                        help="emit diagnostics as JSON lines on stderr")
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("ode", help="solve the correlation master equation")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--y0-re", type=float, default=1.0)
    p.add_argument("--y0-im", type=float, default=0.0)
    p.add_argument("--amp-re", type=float, default=1.0)
    p.add_argument("--amp-im", type=float, default=0.0)
    p.add_argument("--t-max", type=float, default=1e4)
    p.add_argument("--steps-per-decade", type=int, default=400)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ode)

    p = sub.add_parser("laplace", help="Laplace-integral sampling and expansion")
    p.add_argument("--preset", required=True,
                   choices=["gauss1d", "gauss2d", "quartic1d", "custom-json"])
    p.add_argument("--custom", default=None, help="JSON phase for custom-json")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--t-min", type=float, default=1e2)
    p.add_argument("--t-max", type=float, default=1e6)
    p.add_argument("--points-per-decade", type=int, default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_laplace)

    p = sub.add_parser("cover", help="spectral averages over character lattices")
    p.add_argument("--model", required=True)
    p.add_argument("--orders", required=True, help="e.g. 64,64")
    p.add_argument("--epsilon", type=float, default=0.05)
    p.add_argument("--test-fn", default="one", choices=["one", "linear", "bump"])
    p.add_argument("--study", action="store_true",
                   help="emit a convergence table by halving the orders")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("mix", help="correlation-integral expansion and verdict")
    p.add_argument("--model", required=True)
    p.add_argument("--amplitude", default="const:1.0")
    p.add_argument("--log-t-min", type=float, default=None)
    p.add_argument("--log-t-max", type=float, default=None)
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--points-per-decade", type=int, default=8)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--max-c0-dev", type=float, default=None,
                   help="fail (exit 2) if |c0_fit - closed form| exceeds this")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mix)

    p = sub.add_parser("selftest", help="run the built-in sanity battery")
    p.add_argument("--out", default="selftest.csv")
    p.set_defaults(func=_cmd_selftest)

    return parser


def dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "subcommand", None) is None:
            raise ConfigError("missing subcommand (ode, laplace, cover, mix, selftest)")
        return args.func(args)
    except HoromixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE


if __name__ == "__main__":
    sys.exit(dispatch())
