"""Built-in sanity battery: closed-form and structural checks only.

Every check here has a hand-computable expected value; the battery backs
the CLI ``selftest`` subcommand and the byte-determinism contract.  Each
check evaluates its quantity once, and the value a row reports is the one
it judged.
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


def run_selftest() -> list[CheckResult]:
    out = []

    def check(name, passed, value, reference):
        out.append(CheckResult(name, bool(passed), repr(value), repr(reference)))

    def same(name, value, reference):
        check(name, value == reference, value, reference)

    def close(name, value, reference, tol=1e-12):
        check(name, abs(value - reference) <= tol * (1.0 + abs(reference)), value, reference)

    # -- casimir parameter map
    same("nu_at_zero", spectral_model.nu_of_lambda(0.0), 1.0)
    close("nu_at_3_16", spectral_model.nu_of_lambda(3.0 / 16.0), 0.5)
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
    same("lambda0_origin", m1.lambda0([0.0]), 0.0)
    h2, h3 = m2.mixing_hessian(), m3.mixing_hessian()
    check("mixing_hessian_identity",
          np.allclose(h2, 4.0 * math.pi * np.eye(2), rtol=1e-14), h2[0, 0], 4.0 * math.pi)
    check("mixing_hessian_g3",
          np.allclose(h3, np.diag([4.0 * math.pi, 2.0 * math.pi]), rtol=1e-14),
          h3[0, 0], 4.0 * math.pi)
    m4 = spectral_model.SpectralModel(genus=2, rank_d=1, gram=[[4.0]])
    same("sigma_identity", m2.sigma_constant(), 1.0)
    close("sigma_gram4", m4.sigma_constant(), 0.5)

    # -- master equation trivia
    grid = corr_ode.master_grid(100.0, steps_per_decade=200)
    traj = corr_ode.solve_master(corr_ode.ModePair(0, 0), 0.0, 1.0, grid)
    close("master_constant_solution", float(np.max(np.abs(traj.y - 1.0))), 0.0)
    prof = corr_ode.assemble_forcing(corr_ode.ModePair(0, 0), traj, 0.0)
    same("forcing_trivial_zero", prof.decay_c, 0.0)

    lam, nu = 3.0 / 16.0, 0.5
    g = corr_ode.log_grid(1.0, 100.0, steps_per_decade=1000)
    meta = corr_ode.TrajectoryMeta(
        lam=lam, nu=nu, mode=corr_ode.ModePair(0, 0), y0=1.0
    )

    def power(a, b):
        """The trajectory a·t^(ν−1) + b/t on g."""
        return corr_ode.Trajectory(
            grid=g, y=a * g ** (nu - 1.0) + b / g + 0j,
            y_prime=a * (nu - 1.0) * g ** (nu - 2.0) - b / g**2 + 0j, meta=meta,
        )

    zero_f = corr_ode.ForcingProfile.from_callable(lambda t: 0.0j)
    close("euler_homogeneous_power",
          corr_ode.euler_residual(power(1.0, 0.0), zero_f, lam), 0.0, 1e-10)

    const = corr_ode.Trajectory(
        grid=g, y=np.full(g.size, 2.0 + 0j), y_prime=np.zeros(g.size, complex),
        meta=meta,
    )
    const_f = corr_ode.ForcingProfile.from_callable(lambda t: 4.0 * lam * 2.0 + 0.0j)
    close("euler_constant_solution",
          corr_ode.euler_residual(const, const_f, lam), 0.0, 1e-13)

    same("particular_zero_forcing",
         complex(corr_ode.particular_trajectory(0.5, zero_f, [2.0]).y[0]), 0.0)
    pow_f = corr_ode.ForcingProfile.from_callable(lambda r: (r**-2.0 if r >= 1.0 else 0.0) + 0j)
    pow_f2 = corr_ode.ForcingProfile.from_callable(
        lambda r: 2.0 * ((r**-2.0 if r >= 1.0 else 0.0) + 0j)
    )
    v1 = complex(corr_ode.particular_trajectory(0.5, pow_f, [2.0]).y[0])
    v2 = complex(corr_ode.particular_trajectory(0.5, pow_f2, [2.0]).y[0])
    close("particular_linearity", v2, 2.0 * v1)
    same("tail_constant_zero_forcing", corr_ode.asymptotic_constant(0.5, zero_f).value, 0.0)

    close("tail_check_exact_power",
          corr_ode.tail_remainder_check(power(0.7, 0.0), 0.7, nu).sup, 0.0)
    close("tail_check_offset",
          corr_ode.tail_remainder_check(power(0.7, 1.0), 0.7, nu).sup, 1.0, 1e-9)

    # -- gaussian moments and the quadrature oracle
    s2pi = math.sqrt(2.0 * math.pi)
    close("moment_0", laplace.gaussian_moment((0,)), s2pi)
    close("moment_4", laplace.gaussian_moment((4,)), 3.0 * s2pi)
    same("moment_odd", laplace.gaussian_moment((1, 3)), 0.0)

    p1 = laplace.preset_gauss1d()
    close("laplace_gauss1d", laplace.laplace_quadrature(p1, 100.0),
          math.sqrt(2 * math.pi / 100), 1e-10)
    close("laplace_gauss2d", laplace.laplace_quadrature(laplace.preset_gauss2d(), 50.0),
          2 * math.pi / 50, 1e-10)
    co = laplace.laplace_expand(p1, 2).c
    check(
        "laplace_expand_quadratic",
        abs(co[0] - s2pi) <= 1e-12 * (1.0 + s2pi) and co[1] == 0.0 and co[2] == 0.0,
        list(co), [s2pi, 0.0, 0.0],
    )
    T = np.logspace(2.0, 6.0, 17)
    fz = laplace.fit_expansion(np.column_stack([T, np.zeros_like(T)]), 1, 2)
    check("fit_zero_samples", bool(np.all(fz.c == 0.0)), list(fz.c), [0.0] * 3)

    # -- character lattices
    def characters(orders):
        return cover_spectrum.enumerate_characters(cover_spectrum.CharacterLattice(orders))

    pts = characters((2,))
    check(
        "characters_order2",
        pts.shape == (2, 1) and set(pts.ravel()) == {-0.5, 0.0},
        sorted(pts.ravel()), [-0.5, 0.0],
    )
    same("characters_order23", characters((2, 3)).shape[0], 6)
    same("characters_counts",
         all(characters((n,)).shape[0] == n for n in range(1, 11)), True)

    one = cover_spectrum.make_test_function("one", 0.05)

    def average(orders):
        return cover_spectrum.spectral_average(
            m2, cover_spectrum.CharacterLattice(orders), one, 0.05
        )

    same("single_character_average", average((1, 1)), 1.0)
    avg = average((64, 64))
    check("lattice_average_bound", abs(avg - 0.05) <= 2.0 / 64.0, avg, 0.05)
    zero_fn = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    rep0 = cover_spectrum.convergence_study(
        m2, zero_fn, 0.05, [(8, 8), (16, 16), (32, 32), (64, 64)]
    )
    same("study_zero_function", [r.abs_err for r in rep0.rows], [0.0] * 4)

    # -- mixing constants
    prob = mixing.MixingProblem(model=m1)
    close("mixing_t0_box_volume", mixing.correlation_integral(prob, 0.0),
          2.0 * float(m1.domain_u[0]))
    pz = mixing.MixingProblem(model=m1, vol_product=0.0)
    same("mixing_zero_amplitude", mixing.correlation_integral(pz, 100.0), 0.0)
    close("leading_d1", mixing.leading_constant(m1, 1.0), 2**-0.5)
    close("leading_d2", mixing.leading_constant(m2, 1.0), 0.5)
    same("leading_zero_a0", mixing.leading_constant(m2, 0.0), 0.0)
    mg3 = spectral_model.SpectralModel(genus=3, rank_d=1, gram=[[1.0]])
    close("leading_g3", mixing.leading_constant(mg3, 2.0), 2.0)

    # -- one short fitted run over a T ladder
    grid = np.logspace(2.0, 4.0, 9)
    _, verdict = mixing.mixing_expansion(prob, grid, 1)
    check("mixing_c0_d1", verdict["rel_dev"] <= 5e-3,
          verdict["c0_fit"], verdict["c0_closed_form"])

    return out
