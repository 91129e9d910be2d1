"""One job of each workload: the public calls a user's run makes, then
its correctness checks.  A runner takes (job, gate, stats) and records
counts that are not spans in ``stats``.

Calls go through the module attributes (``corr_ode.solve_master``, ...)
so that a traced run sees them through the wrappers in ``tracer.py``.
Tolerances are the ones pinned by the repository's tests.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from horomix import corr_ode, cover_spectrum, laplace, mixing
from horomix.spectral_model import Perturbation, SpectralModel, nu_of_lambda

# ode-tail (tests/test_acceptance.py criterion 2, tests/test_corr_ode.py)
TOL_EULER = 1e-6
TOL_F0 = 1e-8
TOL_C_PLUS = 1e-5
TOL_C_MINUS = 1e-5
TOL_CLOSURE_RESIDUAL = 1e-6
CLOSURE_WINDOW = (2.0, 50.0)
# mix-verdict (criteria 3 and 4)
TOL_REL_DEV = 5e-3
TOL_C0_ROUTES = 1e-6


def _model(job: dict) -> SpectralModel:
    d = job["d"]
    pert = job["perturbation"]
    return SpectralModel(
        genus=job["genus"],
        rank_d=d,
        gram=np.asarray(job["gram"], dtype=float).reshape(d, d),
        perturbation=None if pert is None else Perturbation(pert[0], pert[1]),
        gap_delta=0.1,
    )


def run_ode(job: dict, gate, stats: dict) -> None:
    mode = corr_ode.ModePair(job["n"], job["m"])
    lam, y0 = job["lam"], job["y0"]
    nu = nu_of_lambda(lam)
    grid = corr_ode.master_grid(job["t_max"], job["steps_per_decade"])
    traj = corr_ode.solve_master(mode, lam, y0, grid, resonant_amplitude=job["amp"])
    profile = corr_ode.assemble_forcing(mode, traj, lam)
    per_point = corr_ode.euler_residual_pointwise(traj, profile, lam)
    amp = corr_ode.asymptotic_amplitude(nu, profile, tol=None)
    report = corr_ode.tail_remainder_check(traj, amp.value, nu)
    # "reported, never raised": an unbounded verdict is a count, not a failure
    stats["tail_unbounded"] = not report.bounded
    stats["grid_points"] = grid.size

    window = np.nonzero((grid >= CLOSURE_WINDOW[0]) & (grid <= CLOSURE_WINDOW[1]))[0]
    pick = np.unique(np.linspace(0, window.size - 1, job["points"]).round().astype(int))
    t = grid[window[pick]]
    formula = corr_ode.particular_trajectory(nu, profile, t)

    finite = per_point[np.isfinite(per_point)]
    gate.check("euler_residual", np.max(finite) if finite.size else math.inf, TOL_EULER)
    gate.check("f0_identity", abs(profile.diagnostics["f0"] - 4.0 * lam * y0), TOL_F0)
    # master − formula projected on the homogeneous pair (t^(ν−1), t^(−ν−1))
    diff = traj.y[window[pick]] - formula.y
    design = np.column_stack([t ** (nu - 1.0), t ** (-nu - 1.0)]).astype(complex)
    coef, *_ = np.linalg.lstsq(design, diff, rcond=None)
    gate.check("closure_c_plus", abs(coef[0] - amp.value), TOL_C_PLUS)
    gate.check("closure_c_minus", abs(coef[1]), TOL_C_MINUS)
    gate.check(
        "closure_residual", np.max(np.abs(diff - design @ coef)), TOL_CLOSURE_RESIDUAL
    )


def t_ladder(t_min: float, t_top: float, per_decade: int) -> np.ndarray:
    """Geometric T ladder with ``per_decade`` steps per decade."""
    decades = math.log10(t_top / t_min)
    return np.logspace(
        math.log10(t_min), math.log10(t_top), round(decades * per_decade) + 1
    )


def run_mix(job: dict, gate, stats: dict) -> None:
    model = _model(job)
    model.validate()  # as cli.load_model does
    problem = mixing.MixingProblem(model=model)
    grid = t_ladder(job["t_min"], job["t_top"], job["points_per_decade"])
    _, verdict = mixing.mixing_expansion(problem, grid, job["order"])

    preset = getattr(laplace, "preset_" + job["preset"])()
    samples = np.column_stack(
        [grid, [laplace.laplace_quadrature(preset, T) for T in grid]]
    )
    fit = laplace.fit_expansion(samples, preset.dim, job["order"])
    exact = laplace.laplace_expand(preset, job["order"])

    gate.check("verdict_rel_dev", verdict["rel_dev"], TOL_REL_DEV)
    gate.check("c0_routes", abs(fit.c[0] - exact.c[0]), TOL_C0_ROUTES)


def run_cover(job: dict, gate, stats: dict) -> None:
    model = _model(job)
    model.validate()  # as cli.load_model does
    fn = cover_spectrum.make_test_function(job["test_fn"], job["epsilon"])
    lattice = cover_spectrum.CharacterLattice(tuple(job["orders"]))
    empirical = cover_spectrum.spectral_average(model, lattice, fn, job["epsilon"])
    limit = cover_spectrum.limit_integral(model, fn, job["epsilon"])
    gate.check("lattice_vs_limit", abs(empirical - limit), 2.0 / min(job["orders"]))


def sweep_peak_mb(jobs: list) -> float:
    """tracemalloc peak, in MB, of ``spectral_average`` on the largest
    lattice among ``jobs``.

    It runs on its own, outside the timed and the traced phases:
    tracemalloc slows every allocation and would distort their times.
    """
    job = max(jobs, key=lambda j: math.prod(j["orders"]))
    model = _model(job)
    fn = cover_spectrum.make_test_function(job["test_fn"], job["epsilon"])
    lattice = cover_spectrum.CharacterLattice(tuple(job["orders"]))
    tracemalloc.start()
    try:
        cover_spectrum.spectral_average(model, lattice, fn, job["epsilon"])
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Jobs the timed lists leave out because they fail at the parent commit.
# A traced run executes its workload's probes once and reports how many
# fail, so each defect stays visible until it is fixed.
#
# mix-verdict: fit_expansion raises ConditioningError on ladders that have
# converged to roundoff: the unperturbed d = 2 model (c₂ = 0 exactly) and a
# weak quartic on a 1e6 ladder (tiny c₂).
# cover-sweep: for a rank-1 quartic model with Gram g ≠ 1 the limit density
# is wrong, because _radial_phi uses coeff/qc² where coeff/(qc·g)² is needed.
PROBES = {
    "mix-verdict": (
        {"genus": 2, "d": 2, "perturbation": None,
         "gram": [1.3501080870211295, -0.5636280693755878,
                  -0.5636280693755878, 1.8731582753523548],
         "t_min": 1e2, "t_top": 1e4, "points_per_decade": 8, "order": 2,
         "preset": "gauss1d"},
        {"genus": 2, "d": 2, "perturbation": ["quartic", 0.19878062649010436],
         "gram": [1.71082840949858, -0.4307725980452993,
                  -0.4307725980452993, 1.9045780485933466],
         "t_min": 1e2, "t_top": 1e6, "points_per_decade": 8, "order": 2,
         "preset": "gauss1d"},
    ),
    "cover-sweep": (
        {"genus": 2, "d": 1, "kind": "quartic", "gram": [1.7],
         "perturbation": ["quartic", 1.0], "orders": [1_000_000],
         "test_fn": "linear", "epsilon": 0.05},
    ),
}

PROBE_METRICS = {
    "mix-verdict": "mixing.fit_conditioning_defects",
    "cover-sweep": "cover_spectrum.rank1_gram_defect",
}


RUNNERS = {"ode-tail": run_ode, "mix-verdict": run_mix, "cover-sweep": run_cover}
