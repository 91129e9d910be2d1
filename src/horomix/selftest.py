"""Built-in sanity battery: closed-form and structural checks only.

Every check here has a hand-computable expected value; the battery backs
the CLI ``selftest`` subcommand and the byte-determinism contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import corr_ode, cover_spectrum, laplace, mixing, spectral_model
from .errors import DomainError


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: str
    reference: str


def _close(a, b, tol=1e-12):
    return abs(a - b) <= tol * (1.0 + abs(b))


def run_selftest() -> list[CheckResult]:
    out = []

    def check(name, passed, value, reference):
        out.append(CheckResult(name, bool(passed), repr(value), repr(reference)))

    # -- casimir parameter map
    check("nu_at_zero", spectral_model.nu_of_lambda(0.0) == 1.0,
          spectral_model.nu_of_lambda(0.0), 1.0)
    check("nu_at_3_16", _close(spectral_model.nu_of_lambda(3.0 / 16.0), 0.5),
          spectral_model.nu_of_lambda(3.0 / 16.0), 0.5)
    try:
        spectral_model.nu_of_lambda(0.25)
        check("nu_domain_edge", False, "no error", "DomainError")
    except DomainError:
        check("nu_domain_edge", True, "DomainError", "DomainError")

    # -- eigenvalue branch
    m1 = spectral_model.SpectralModel(genus=2, rank_d=1, gram=[[1.0]], gap_delta=0.1)
    m2 = spectral_model.SpectralModel(
        genus=2, rank_d=2, gram=np.eye(2), gap_delta=0.1
    )
    m3 = spectral_model.SpectralModel(genus=3, rank_d=2, gram=np.diag([2.0, 1.0]))
    check("lambda0_origin", m1.lambda0([0.0]) == 0.0, m1.lambda0([0.0]), 0.0)
    check(
        "mixing_hessian_identity",
        np.allclose(m2.mixing_hessian(), 4.0 * math.pi * np.eye(2), rtol=1e-14),
        m2.mixing_hessian()[0, 0], 4.0 * math.pi,
    )
    check(
        "mixing_hessian_g3",
        np.allclose(
            m3.mixing_hessian(), np.diag([4.0 * math.pi, 2.0 * math.pi]), rtol=1e-14
        ),
        m3.mixing_hessian()[0, 0], 4.0 * math.pi,
    )
    m4 = spectral_model.SpectralModel(genus=2, rank_d=1, gram=[[4.0]])
    check("sigma_identity", m2.sigma_constant() == 1.0, m2.sigma_constant(), 1.0)
    check("sigma_gram4", _close(m4.sigma_constant(), 0.5), m4.sigma_constant(), 0.5)

    # -- master equation trivia
    grid = corr_ode.master_grid(100.0, steps_per_decade=200)
    traj = corr_ode.solve_master(corr_ode.ModePair(0, 0), 0.0, 1.0, grid)
    dev = float(np.max(np.abs(traj.y - 1.0)))
    check("master_constant_solution", dev <= 1e-12, dev, 0.0)
    prof = corr_ode.assemble_forcing(corr_ode.ModePair(0, 0), traj, 0.0)
    check("forcing_trivial_zero", prof.decay_c == 0.0, prof.decay_c, 0.0)

    lam, nu = 3.0 / 16.0, 0.5
    g = corr_ode.log_grid(1.0, 100.0, steps_per_decade=1000)
    meta = corr_ode.TrajectoryMeta(
        lam=lam, nu=nu, mode=corr_ode.ModePair(0, 0), y0=1.0
    )
    hom = corr_ode.Trajectory(
        grid=g, y=g ** (nu - 1.0) + 0j, y_prime=(nu - 1.0) * g ** (nu - 2.0) + 0j,
        meta=meta,
    )
    zero_f = corr_ode.ForcingProfile.from_callable(lambda t: 0.0j)
    res = corr_ode.euler_residual(hom, zero_f, lam)
    check("euler_homogeneous_power", res <= 1e-10, res, 0.0)

    const = corr_ode.Trajectory(
        grid=g, y=np.full(g.size, 2.0 + 0j), y_prime=np.zeros(g.size, complex),
        meta=meta,
    )
    const_f = corr_ode.ForcingProfile.from_callable(lambda t: 4.0 * lam * 2.0 + 0.0j)
    res = corr_ode.euler_residual(const, const_f, lam)
    check("euler_constant_solution", res <= 1e-13, res, 0.0)

    check(
        "particular_zero_forcing",
        complex(corr_ode.particular_trajectory(0.5, zero_f, [2.0]).y[0]) == 0.0,
        complex(corr_ode.particular_trajectory(0.5, zero_f, [2.0]).y[0]), 0.0,
    )
    pow_f = corr_ode.ForcingProfile.from_callable(lambda r: (r**-2.0 if r >= 1.0 else 0.0) + 0j)
    pow_f2 = corr_ode.ForcingProfile.from_callable(
        lambda r: 2.0 * ((r**-2.0 if r >= 1.0 else 0.0) + 0j)
    )
    v1 = complex(corr_ode.particular_trajectory(0.5, pow_f, [2.0]).y[0])
    v2 = complex(corr_ode.particular_trajectory(0.5, pow_f2, [2.0]).y[0])
    check("particular_linearity", _close(v2, 2.0 * v1), v2, 2.0 * v1)
    check(
        "tail_constant_zero_forcing",
        corr_ode.asymptotic_constant(0.5, zero_f).value == 0.0,
        corr_ode.asymptotic_constant(0.5, zero_f).value, 0.0,
    )

    exact = corr_ode.Trajectory(
        grid=g, y=0.7 * g ** (nu - 1.0) + 0j,
        y_prime=0.7 * (nu - 1.0) * g ** (nu - 2.0) + 0j, meta=meta,
    )
    rep = corr_ode.tail_remainder_check(exact, 0.7, nu)
    check("tail_check_exact_power", rep.sup <= 1e-12, rep.sup, 0.0)
    offset = corr_ode.Trajectory(
        grid=g, y=0.7 * g ** (nu - 1.0) + 1.0 / g + 0j,
        y_prime=0.7 * (nu - 1.0) * g ** (nu - 2.0) - 1.0 / g**2 + 0j, meta=meta,
    )
    rep = corr_ode.tail_remainder_check(offset, 0.7, nu)
    check("tail_check_offset", _close(rep.sup, 1.0, 1e-9), rep.sup, 1.0)

    # -- gaussian moments and the quadrature oracle
    s2pi = math.sqrt(2.0 * math.pi)
    check("moment_0", _close(laplace.gaussian_moment((0,)), s2pi),
          laplace.gaussian_moment((0,)), s2pi)
    check("moment_4", _close(laplace.gaussian_moment((4,)), 3.0 * s2pi),
          laplace.gaussian_moment((4,)), 3.0 * s2pi)
    check("moment_odd", laplace.gaussian_moment((1, 3)) == 0.0,
          laplace.gaussian_moment((1, 3)), 0.0)

    p1 = laplace.preset_gauss1d()
    val = laplace.laplace_quadrature(p1, 100.0)
    check("laplace_gauss1d", _close(val, math.sqrt(2 * math.pi / 100), 1e-10),
          val, math.sqrt(2 * math.pi / 100))
    p2 = laplace.preset_gauss2d()
    val = laplace.laplace_quadrature(p2, 50.0)
    check("laplace_gauss2d", _close(val, 2 * math.pi / 50, 1e-10),
          val, 2 * math.pi / 50)
    co = laplace.laplace_expand(p1, 2).c
    check(
        "laplace_expand_quadratic",
        _close(co[0], s2pi) and co[1] == 0.0 and co[2] == 0.0,
        list(co), [s2pi, 0.0, 0.0],
    )
    T = np.logspace(2.0, 6.0, 17)
    fz = laplace.fit_expansion(np.column_stack([T, np.zeros_like(T)]), 1, 2)
    check("fit_zero_samples", bool(np.all(fz.c == 0.0)), list(fz.c), [0.0] * 3)

    # -- character lattices
    pts = cover_spectrum.enumerate_characters(cover_spectrum.CharacterLattice((2,)))
    check(
        "characters_order2",
        pts.shape == (2, 1) and set(pts.ravel()) == {-0.5, 0.0},
        sorted(pts.ravel()), [-0.5, 0.0],
    )
    n23 = cover_spectrum.enumerate_characters(
        cover_spectrum.CharacterLattice((2, 3))
    ).shape[0]
    check("characters_order23", n23 == 6, n23, 6)
    counts_ok = all(
        cover_spectrum.enumerate_characters(
            cover_spectrum.CharacterLattice((n,))
        ).shape[0] == n
        for n in range(1, 11)
    )
    check("characters_counts", counts_ok, counts_ok, True)

    one = cover_spectrum.make_test_function("one", 0.05)
    avg = cover_spectrum.spectral_average(
        m2, cover_spectrum.CharacterLattice((1, 1)), one, 0.05
    )
    check("single_character_average", avg == 1.0, avg, 1.0)
    avg = cover_spectrum.spectral_average(
        m2, cover_spectrum.CharacterLattice((64, 64)), one, 0.05
    )
    check("lattice_average_bound", abs(avg - 0.05) <= 2.0 / 64.0, avg, 0.05)
    zero_fn = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    rep0 = cover_spectrum.convergence_study(
        m2, zero_fn, 0.05, [(8, 8), (16, 16), (32, 32), (64, 64)]
    )
    errs = [r.abs_err for r in rep0.rows]
    check("study_zero_function", all(e == 0.0 for e in errs), errs, [0.0] * 4)

    # -- mixing constants
    prob = mixing.MixingProblem(model=m1)
    v0 = mixing.correlation_integral(prob, 0.0)
    box = 2.0 * float(m1.domain_u[0])
    check("mixing_t0_box_volume", _close(v0, box, 1e-12), v0, box)
    pz = mixing.MixingProblem(model=m1, vol_product=0.0)
    check("mixing_zero_amplitude",
          mixing.correlation_integral(pz, 100.0) == 0.0,
          mixing.correlation_integral(pz, 100.0), 0.0)
    check("leading_d1", _close(mixing.leading_constant(m1, 1.0), 2**-0.5),
          mixing.leading_constant(m1, 1.0), 2**-0.5)
    check("leading_d2", _close(mixing.leading_constant(m2, 1.0), 0.5),
          mixing.leading_constant(m2, 1.0), 0.5)
    check("leading_zero_a0", mixing.leading_constant(m2, 0.0) == 0.0,
          mixing.leading_constant(m2, 0.0), 0.0)
    mg3 = spectral_model.SpectralModel(genus=3, rank_d=1, gram=[[1.0]])
    check("leading_g3", _close(mixing.leading_constant(mg3, 2.0), 2.0),
          mixing.leading_constant(mg3, 2.0), 2.0)

    # -- one short fitted run over a T ladder
    grid = np.logspace(2.0, 4.0, 9)
    _, verdict = mixing.mixing_expansion(prob, grid, 1)
    check("mixing_c0_d1", verdict["rel_dev"] <= 5e-3,
          verdict["c0_fit"], verdict["c0_closed_form"])

    return out
