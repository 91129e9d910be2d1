import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammaincc, hyp2f1

from horomix import corr_ode
from horomix._stencils import fornberg_weights
from horomix.corr_ode import (
    ForcingProfile,
    ModePair,
    Trajectory,
    TrajectoryMeta,
    assemble_forcing,
    asymptotic_amplitude,
    asymptotic_constant,
    cumulative_quadratic,
    euler_residual,
    fit_tail_amplitude,
    log_grid,
    master_grid,
    master_relation_residual,
    particular_trajectory,
    power_weighted_integral,
    second_derivative_from_first,
    solve_master,
    tail_remainder_check,
    taylor_coefficients,
)
from horomix.errors import ConsistencyError, DomainError, TruncationError
from horomix.spectral_model import nu_of_lambda
import stencil_fresh
from master_oracle import oracle_trajectory
from affine_loop import affine_loop
from rk4_scalar import scalar_march

# a callable forcing serves euler_residual; the tail integrals take samples
ZERO_FORCING = ForcingProfile.from_callable(lambda t: 0.0j)


def _power_trajectory(nu, grid, coef=1.0, offset=False):
    lam = (1.0 - nu * nu) / 4.0
    y = coef * grid ** (nu - 1.0) + 0j
    yp = coef * (nu - 1.0) * grid ** (nu - 2.0) + 0j
    if offset:
        y = y + 1.0 / grid
        yp = yp - 1.0 / grid**2
    meta = TrajectoryMeta(lam=lam, nu=nu, mode=ModePair(0, 0), y0=1.0)
    return Trajectory(grid=grid, y=y, y_prime=yp, meta=meta)


# The closed-form anchor used in several tests: y(t) = (1 + t^2)^(-1/4)
# solves the Euler equation with nu = 1/2 and forcing
# f(t) = (3 - 2 t^2) / (4 (1 + t^2)^(9/4)).  For any y solving the Euler
# equation, r^(-nu) f = (r^(2-nu) y' + (1+nu) r^(1-nu) y)', so
# int_a^b r^(-1/2) f dr = G(b) - G(a) with G below: G(0) = 0 and G -> 1, so
# the tail amplitude is exactly 1, and the particular solution of
# particular_trajectory is y - t^(-1/2).
def _anchor_forcing(t):
    return (3.0 - 2.0 * t * t) / (4.0 * (1.0 + t * t) ** 2.25) + 0.0j


def _anchor_primitive(t):
    return -0.5 * t**2.5 * (1.0 + t * t) ** -1.25 + 1.5 * t**0.5 * (1.0 + t * t) ** -0.25


def _slow_forcing(t):
    return 0.3 / (1.0 + t) ** 2 + 0j


# samples from 0 with a nonzero envelope, and zero samples
_SLOW_GRID = np.linspace(0.0, 10.0, 101)
SLOW = ForcingProfile.from_samples(_SLOW_GRID, _slow_forcing(_SLOW_GRID))
SAMPLED_ZERO = ForcingProfile.from_samples(_SLOW_GRID, np.zeros(101, complex))


class TestLogGrid:
    @pytest.mark.parametrize(
        "t_min, t_max",
        [(0.0, 1e2), (-5.0, 1e2), (1e6, 1e2), (1e2, 1e2), (math.nan, 1e2), (1e2, math.inf)],
        ids=["zero", "negative", "descending", "equal", "nan", "inf"],
    )
    def test_refuses_bad_range(self, t_min, t_max):
        with pytest.raises(DomainError):
            log_grid(t_min, t_max, 8)

    @pytest.mark.parametrize("steps", [0, -3, 0.5, math.nan, math.inf])
    def test_refuses_bad_step_count(self, steps):
        for build in (lambda: log_grid(1.0, 1e2, steps), lambda: master_grid(1e2, steps)):
            with pytest.raises(DomainError, match="step count per decade"):
                build()

    def test_one_step_per_decade(self):
        np.testing.assert_allclose(log_grid(1.0, 1e3, 1), [1.0, 1e1, 1e2, 1e3], rtol=1e-15)


class TestSolveMaster:
    def test_constant_solution(self):
        grid = master_grid(100.0, steps_per_decade=200)
        traj = solve_master(ModePair(0, 0), 0.0, 1.0, grid)
        assert np.max(np.abs(traj.y - 1.0)) == 0.0
        assert np.max(np.abs(traj.y_prime)) == 0.0

    def test_against_refined_oracle_nu09(self):
        lam = 0.0475  # nu = 0.9
        grid = master_grid(10.0, steps_per_decade=400)
        traj = solve_master(ModePair(0, 0), lam, 1.0, grid)
        ref, err = oracle_trajectory(ModePair(0, 0), lam, 1.0, grid, tol=1e-12)
        i = int(np.argmin(np.abs(grid - 10.0)))
        assert err < 1e-11
        assert abs(traj.y[i] - ref[i]) / abs(ref[i]) < 1e-8

    def test_resonant_mode_against_oracle(self):
        # |m - n| = 4 with nonzero y0: synthetic data, log-channel startup
        grid = master_grid(100.0, steps_per_decade=400)
        traj = solve_master(ModePair(2, -2), 0.05, 1.0, grid)
        assert traj.meta.startup == "series+log"
        ref, err = oracle_trajectory(ModePair(2, -2), 0.05, 1.0, grid, tol=1e-12)
        assert err < 1e-11
        dev = np.max(np.abs(traj.y - ref) / (1.0 + np.abs(ref)))
        assert dev < 1e-8

    def test_consistent_resonant_mode(self):
        grid = master_grid(100.0, steps_per_decade=400)
        traj = solve_master(ModePair(2, -2), 0.05, 0.0, grid, resonant_amplitude=1.0)
        assert traj.meta.startup == "series"
        assert traj.meta.inconsistency == 0.0
        assert abs(traj.y[0]) == 0.0
        assert traj.meta.master_residual < 1e-8

    def test_taylor_defect_value(self):
        # for (2,-2) the plain-power closure at k0=2 forces 4*lam*y0 = 0
        _, b, defect = taylor_coefficients(ModePair(2, -2), 0.05, 1.0, 1.0)
        assert defect == pytest.approx(4 * 0.05 * 1.0, rel=1e-14)
        assert b[2] == pytest.approx(-0.05 / 4.0, rel=1e-14)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(DomainError):
            solve_master(ModePair(0, 0), 0.1, 1.0, np.array([1.0, 2.0, 3.0]))

    def test_lambda_range(self):
        grid = master_grid(10.0, steps_per_decade=100)
        with pytest.raises(DomainError):
            solve_master(ModePair(0, 0), 0.25, 1.0, grid)

    def test_odd_mode_rejected(self):
        with pytest.raises(DomainError):
            ModePair(1, 0)

    def test_coarse_grid_reports_its_residual(self):
        grid = np.concatenate([[0.0], np.linspace(0.6, 100.0, 40)])
        traj = solve_master(ModePair(0, 0), 0.2, 1.0, grid)
        assert 1e-4 < traj.meta.master_residual < 1e-2

    @pytest.mark.parametrize(
        "bad",
        [
            {"grid": np.array([0.0, 0.3, math.nan, 2.0])},
            {"grid": np.array([0.0, 0.3, 1.0, math.inf])},
            {"y0": complex(math.nan, 0.0)},
            {"y0": complex(0.0, math.inf)},
            {"resonant_amplitude": math.inf},
        ],
        ids=["nan-node", "inf-node", "nan-y0", "inf-y0", "inf-amplitude"],
    )
    def test_non_finite_input_refused(self, bad):
        args = {"y0": 0.0, "grid": master_grid(10.0, steps_per_decade=100), **bad}
        refusal = "^(master grid nodes|y0 and the resonant amplitude) must be finite"
        with pytest.raises(DomainError, match=refusal):
            solve_master(ModePair(2, 6), 0.1, **args)

    # the `ode` runs of scripts/cli_digests.py: mode, y0, lambda
    DIGEST_CASES = [((0, 0), 1.0, 0.04), ((2, 6), 0.0, 0.1), ((4, 0), 1.0, 0.2),
                    ((-2, 2), 0.0, 0.05)]

    @pytest.mark.parametrize("t_max", [1e5, 1e6])
    @pytest.mark.parametrize("pair, y0, lam", DIGEST_CASES)
    def test_march_matches_scalar_rk4(self, pair, y0, lam, t_max):
        grid = master_grid(t_max, 400)
        self._assert_matches_scalar_rk4(ModePair(*pair), lam, y0, grid)

    @pytest.mark.parametrize(
        "pair, y0, lam", [((0, 0), 1.0, 0.2), ((4, 0), 1.0, 0.2), ((2, -2), 1.0, 0.05)]
    )
    def test_series_to_first_node_matches_scalar_rk4(self, pair, y0, lam):
        # grid[1] > 0.5: the series is evaluated at grid[1] and the march
        # starts there
        grid = np.concatenate([[0.0], np.linspace(0.6, 100.0, 40)])
        self._assert_matches_scalar_rk4(ModePair(*pair), lam, y0, grid)

    def test_resonant_mode_kept_past_first_gap(self):
        # y0 = 0 with the free t^2 mode of (2, 6): a march from t = 0 saw
        # y(0) = y'(0) = 0 and returned y = 0 with residual 0
        mode, lam = ModePair(2, 6), 0.1
        coarse = np.concatenate([[0.0], np.linspace(0.6, 100.0, 40)])
        traj = solve_master(mode, lam, 0.0, coarse)
        ref = solve_master(mode, lam, 0.0, master_grid(100.0))
        at = np.searchsorted(ref.grid, [0.6, 100.0])
        assert abs(traj.y[1]) > 0.1
        assert abs(traj.y[1] - ref.y[at[0]]) < 1e-12
        # 2.5-wide steps do not resolve the mode's oscillation, and the
        # residual says so instead of passing a zero trajectory
        assert 1e-2 < traj.meta.master_residual < 1.0
        # the same start on finer steps converges to the master-grid solution
        fine = np.concatenate([[0.0], np.linspace(0.6, 100.0, 4000)])
        assert abs(solve_master(mode, lam, 0.0, fine).y[-1] - ref.y[at[1]]) < 1e-6

    def test_first_node_beyond_series_refused(self):
        mode = ModePair(2, 6)
        solve_master(mode, 0.1, 0.0, np.array([0.0, 1.0, 2.0]))
        with pytest.raises(DomainError, match="startup series reaches 1.0"):
            solve_master(mode, 0.1, 0.0, np.array([0.0, 1.25, 2.0]))

    @staticmethod
    def _assert_matches_scalar_rk4(mode, lam, y0, grid):
        traj = solve_master(mode, lam, y0, grid)
        y, yp = scalar_march(mode, lam, y0, grid)
        assert np.max(np.abs(yp)) > 0.0
        assert np.max(np.abs(traj.y - y)) <= 1e-12 * np.max(np.abs(y))
        assert np.max(np.abs(traj.y_prime - yp)) <= 1e-12 * np.max(np.abs(yp))

    def test_inconsistent_k1_mode_rejected(self):
        grid = master_grid(10.0, steps_per_decade=100)
        with pytest.raises(ConsistencyError):
            solve_master(ModePair(0, 2), 0.05, 1.0, grid)

    def test_fourth_order_convergence(self):
        # error at the endpoint should shrink ~16x per step halving
        lam = 0.2
        ref_grid = master_grid(50.0, steps_per_decade=100)
        ref, _ = oracle_trajectory(ModePair(0, 0), lam, 1.0, ref_grid, tol=1e-13)
        errs = []
        for spd in (100, 200, 400):
            grid = master_grid(50.0, steps_per_decade=spd)
            traj = solve_master(ModePair(0, 0), lam, 1.0, grid)
            i = int(np.argmin(np.abs(grid - 50.0)))
            errs.append(abs(traj.y[i] - ref[-1]))
        assert errs[0] / errs[1] > 10.0
        assert errs[1] / errs[2] > 10.0

    def test_master_grid_structure(self):
        grid = master_grid(1e3, steps_per_decade=200)
        assert grid[0] == 0.0
        assert np.any(grid == 1.0)
        assert grid[-1] == pytest.approx(1e3, rel=1e-12)
        assert np.all(np.diff(grid) > 0.0)


def _local_deviation(y, ref):
    """|y − ref| over the local envelope, the largest |ref| within ten
    nodes either side."""
    mag = np.pad(np.abs(ref), 10, mode="edge")
    envelope = np.max(np.lib.stride_tricks.sliding_window_view(mag, 21), axis=1)
    return np.abs(y - ref) / envelope


class TestMarchScan:
    """The prefix scan of the affine step maps against the sequential loop
    it replaced (``tests/affine_loop.py``) and the scalar RK4 march."""

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 8, 9, 1023, 1024, 1025])
    @pytest.mark.parametrize("pair, lam", [((0, 0), 0.2), ((2, 6), 0.1), ((-12, 12), 1e-6)])
    def test_matches_affine_loop(self, steps, pair, lam):
        mode, grid = ModePair(*pair), master_grid(1e4, 400)
        start = corr_ode._series_start(grid)
        maps = corr_ode._step_maps(
            grid[start : start + steps + 1], lam, float(mode.mu), float(mode.dsq), 0.3 + 0.1j
        )
        y, i = corr_ode._march(maps, 1.0 + 0.5j, 0.2 - 0.1j)
        y_loop, i_loop = affine_loop(maps, 1.0 + 0.5j, 0.2 - 0.1j)
        assert y.shape == i.shape == (steps,)
        assert np.max(np.abs(y - y_loop)) <= 1e-14 * np.max(np.abs(y_loop))
        assert np.max(np.abs(i - i_loop)) <= 1e-14 * np.max(np.abs(i_loop))

    def test_no_steps(self):
        grid = np.linspace(0.0, 0.5, 6)
        maps = corr_ode._step_maps(grid[-1:], 0.1, 8.0, 16.0, 0.0)
        y, i = corr_ode._march(maps, 1.0, 0.5)
        assert y.shape == i.shape == (0,)
        # a grid that ends at the hand-over node is the series alone
        mode, lam = ModePair(2, 6), 0.1
        assert corr_ode._series_start(grid) == grid.size - 1
        traj = solve_master(mode, lam, 0.0, grid)
        a, b, _ = taylor_coefficients(mode, lam, 0.0, 1.0)
        ys, yps, _ = corr_ode._series_eval(a, b, grid)
        assert np.array_equal(traj.y, ys)
        assert np.array_equal(traj.y_prime, yps)

    def test_seeded_sweep_as_close_to_scalar_rk4_as_the_loop(self):
        # Deviations at t_max <= 1e4 are rounding noise (1e-15 to 1e-9 of
        # the local envelope), and the largest of twelve varies several-fold
        # between two equally accurate marches, so the cases are pooled by
        # geometric mean.
        rng = np.random.default_rng(2023)
        scan_devs, loop_devs = [], []
        for _ in range(12):
            mode = ModePair(*(int(k) for k in 2 * rng.integers(-6, 7, size=2)))
            lam = float(np.exp(rng.uniform(math.log(1e-6), math.log(0.2499))))
            grid = master_grid(float(10 ** rng.uniform(1.0, 4.0)), int(rng.integers(50, 400)))
            y0 = 0.0 if mode.resonant_k == 1 else complex(*rng.normal(size=2))
            ref, _ = scalar_march(mode, lam, y0, grid)
            scan = solve_master(mode, lam, y0, grid).y

            start = corr_ode._series_start(grid)
            a, b, _ = taylor_coefficients(mode, lam, y0, 1.0)
            ys, _, integs = corr_ode._series_eval(a, b, grid[: start + 1])
            maps = corr_ode._step_maps(grid[start:], lam, float(mode.mu), float(mode.dsq), y0)
            loop = np.concatenate([ys, affine_loop(maps, ys[-1], integs[-1])[0]])

            assert np.array_equal(scan[: start + 1], ys)
            assert np.max(np.abs(scan - ref)) <= 1e-12 * np.max(np.abs(ref))
            scan_devs.append(np.max(_local_deviation(scan, ref)[start + 1 :]))
            loop_devs.append(np.max(_local_deviation(loop, ref)[start + 1 :]))
        scan_mean = np.exp(np.mean(np.log(scan_devs)))
        loop_mean = np.exp(np.mean(np.log(loop_devs)))
        assert scan_mean <= 2.0 * loop_mean


class TestAssembleForcing:
    def test_trivial_zero(self):
        grid = master_grid(100.0, steps_per_decade=200)
        traj = solve_master(ModePair(0, 0), 0.0, 1.0, grid)
        prof = assemble_forcing(ModePair(0, 0), traj, 0.0)
        assert prof.decay_c == 0.0
        assert np.max(np.abs(prof.values)) == 0.0

    def test_endpoint_identity(self):
        # f(0) = 4 lambda y(0)
        lam = 0.04
        grid = master_grid(1e3, steps_per_decade=400)
        traj = solve_master(ModePair(0, 0), lam, 1.0, grid)
        prof = assemble_forcing(ModePair(0, 0), traj, lam)
        assert abs(prof.diagnostics["f0"] - 0.16) < 1e-10

    def test_derivative_endpoint_identity(self):
        # f'(0) = (4 - nu^2) y'(0), probed on a mode with m + n != 0
        lam = 0.05
        nu = nu_of_lambda(lam)
        grid = master_grid(1e3, steps_per_decade=400)
        traj = solve_master(ModePair(2, 2), lam, 1.0, grid)
        prof = assemble_forcing(ModePair(2, 2), traj, lam)
        expected = (4.0 - nu * nu) * traj.y_prime[0]
        assert traj.y_prime[0] == pytest.approx(1j, rel=1e-12)
        assert abs(prof.diagnostics["fprime0"] - expected) < 1e-6

    def test_envelope_plateau_mode_04(self):
        lam = 0.05
        grid = master_grid(1e4, steps_per_decade=400)
        traj = solve_master(ModePair(0, 4), lam, 0.0, grid, resonant_amplitude=1.0)
        prof = assemble_forcing(ModePair(0, 4), traj, lam)
        assert math.isfinite(prof.decay_c) and prof.decay_c > 0.0
        t = traj.grid
        mask = t >= 1e3
        env = np.abs(prof.values[mask]) * t[mask]
        slope = np.polyfit(np.log(t[mask]), np.log(env), 1)[0]
        assert slope < 0.05

    def test_rejects_non_master_trajectory(self):
        grid = log_grid(1.0, 100.0, steps_per_decade=400)
        traj = _power_trajectory(0.5, grid)
        with pytest.raises(ConsistencyError):
            assemble_forcing(ModePair(0, 0), traj, 3.0 / 16.0)

    def test_rejects_trajectory_of_another_mode(self):
        # the residual check reads the trajectory's own mode, so it passes;
        # f built from the other mode would be wrong (decay_c 2.84, not 0.103)
        traj = solve_master(ModePair(0, 0), 0.04, 1.0, master_grid(1e3, 400))
        with pytest.raises(ConsistencyError, match="mode"):
            assemble_forcing(ModePair(0, 4), traj, 0.04)


class TestCumulativeQuadratic:
    def test_exact_on_a_complex_quartic_over_a_graded_grid(self):
        # roots spread over the grid, so the integrand changes sign along it
        poly = np.polynomial.polynomial
        coef = (1.0 - 2.0j) * poly.polyfromroots([0.3, 2.0 + 1.0j, 50.0, 3e4])
        grid = master_grid(1e6, 400)
        exact = poly.polyval(grid, poly.polyint(coef))
        got = cumulative_quadratic(grid, poly.polyval(grid, coef))
        assert got[0] == 0.0
        assert np.all(np.abs(got[1:] - exact[1:]) <= 1e-11 * np.abs(exact[1:]))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exact_below_the_node_count_on_short_grids(self, n):
        poly = np.polynomial.polynomial
        grid = np.array([0.0, 0.3, 0.45, 1.2, 2.0])[:n]
        for degree in range(n):
            coef = np.arange(1.0, degree + 2.0) * (1.0 + 0.5j)
            exact = poly.polyval(grid, poly.polyint(coef))
            got = cumulative_quadratic(grid, poly.polyval(grid, coef))
            np.testing.assert_allclose(got, exact, rtol=1e-13, atol=1e-14)


class TestEulerResidual:
    @pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_homogeneous_growing_branch(self, nu):
        grid = log_grid(1.0, 100.0, steps_per_decade=1000)
        traj = _power_trajectory(nu, grid)
        assert euler_residual(traj, ZERO_FORCING, (1 - nu * nu) / 4) <= 1e-10

    @pytest.mark.parametrize("nu", [0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    def test_homogeneous_decaying_branch(self, nu):
        lam = (1 - nu * nu) / 4
        grid = log_grid(1.0, 100.0, steps_per_decade=2000)
        y = grid ** (-nu - 1.0) + 0j
        yp = (-nu - 1.0) * grid ** (-nu - 2.0) + 0j
        meta = TrajectoryMeta(lam=lam, nu=nu, mode=ModePair(0, 0), y0=1.0)
        traj = Trajectory(grid=grid, y=y, y_prime=yp, meta=meta)
        assert euler_residual(traj, ZERO_FORCING, lam) <= 1e-10

    def test_constant_solution_zero_residual(self):
        lam = 0.1
        grid = log_grid(1.0, 50.0, steps_per_decade=300)
        meta = TrajectoryMeta(lam=lam, nu=nu_of_lambda(lam), mode=ModePair(0, 0), y0=2.0)
        traj = Trajectory(
            grid=grid,
            y=np.full(grid.size, 2.0 + 0j),
            y_prime=np.zeros(grid.size, complex),
            meta=meta,
        )
        forcing = ForcingProfile.from_callable(lambda t: 4 * lam * 2.0 + 0j)
        assert euler_residual(traj, forcing, lam) == 0.0

    def test_pipeline_closure(self):
        lam = 0.04
        grid = master_grid(1e3, steps_per_decade=400)
        traj = solve_master(ModePair(0, 0), lam, 1.0, grid)
        prof = assemble_forcing(ModePair(0, 0), traj, lam)
        assert euler_residual(traj, prof, lam) <= 1e-6

    def test_stencils_keep_the_bits_of_the_per_node_loop(self):
        # master_grid holds windows through t = 0 (kept in t), linear windows
        # (t wins) and log-uniform windows (log t wins)
        grid = master_grid(1e3, steps_per_decade=400)
        yp = np.exp(-grid) * (np.cos(grid) + 1j * np.sin(3.0 * grid))
        ref = np.full(grid.size, np.nan, dtype=complex)
        for i in range(2, grid.size - 2):
            t = grid[i - 2 : i + 3]
            ref[i] = fornberg_weights(t, t[2], 1)[:, 1] @ yp[i - 2 : i + 3]
            if t[0] > 0.0:
                dt, dtau = np.diff(t), np.diff(np.log(t))
                if dtau.max() / dtau.min() <= dt.max() / dt.min():
                    w = fornberg_weights(np.log(t), np.log(t[2]), 1)[:, 1]
                    ref[i] = (w @ yp[i - 2 : i + 3]) / t[2]
        np.testing.assert_array_equal(second_derivative_from_first(grid, yp), ref)

    def test_short_grid_rejected(self):
        grid = np.array([1.0, 2.0, 3.0])
        traj = _power_trajectory(0.5, grid)
        with pytest.raises(DomainError):
            euler_residual(traj, ZERO_FORCING, 3.0 / 16.0)


def _plan_grids() -> dict:
    rng = np.random.default_rng(19)
    grids = {f"master_grid({t:g})": master_grid(t, 400) for t in (1e4, 1e5, 1e6)}
    grids["master_grid(100, 200)"] = master_grid(100.0, 200)
    grids["log_grid(1, 100, 1000)"] = log_grid(1.0, 100.0, 1000)
    # n = 3..12 covers every window width min(5, n) and both coordinates
    for n in range(3, 13):
        grids[f"random-{n}"] = np.cumsum(rng.uniform(0.05, 2.0, n))
    # windows at and below 0 stay in t
    grids["through-zero"] = np.cumsum(rng.uniform(0.05, 2.0, 40)) - 10.0
    return grids


PLAN_GRIDS = _plan_grids()
PLANS = (corr_ode._cumulative_plan, corr_ode._derivative_plan)


def _samples(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class TestStencilPlans:
    @pytest.mark.parametrize("name", PLAN_GRIDS)
    def test_plans_keep_the_bits_of_fresh_tables(self, name):
        grid, rng = PLAN_GRIDS[name], np.random.default_rng(7)
        for plan in PLANS:
            plan.cache_clear()
        for _ in ("miss", "hit"):
            values = _samples(rng, grid.size)
            assert np.array_equal(
                cumulative_quadratic(grid, values),
                stencil_fresh.cumulative_quadratic(grid, values),
            )
            assert np.array_equal(
                second_derivative_from_first(grid, values),
                stencil_fresh.second_derivative_from_first(grid, values),
                equal_nan=True,
            )
        for plan in PLANS:
            info = plan.cache_info()
            assert (info.misses, info.hits) == (1, 1)

    def test_grid_mutated_in_place_gets_its_own_weights(self):
        grid, rng = log_grid(1.0, 10.0, 50), np.random.default_rng(8)
        values = _samples(rng, grid.size)
        before = cumulative_quadratic(grid, values), second_derivative_from_first(grid, values)
        grid[grid.size // 2 :] *= 1.5
        after = cumulative_quadratic(grid, values), second_derivative_from_first(grid, values)
        fresh = (
            stencil_fresh.cumulative_quadratic(grid, values),
            stencil_fresh.second_derivative_from_first(grid, values),
        )
        for old, new, oracle in zip(before, after, fresh):
            assert np.array_equal(new, oracle, equal_nan=True)
            assert not np.array_equal(new, old, equal_nan=True)

    @pytest.mark.parametrize("plan", PLANS, ids=lambda plan: plan.__name__)
    def test_plan_arrays_are_read_only(self, plan):
        for part in plan(master_grid(100.0, 200)):
            with pytest.raises(ValueError, match="read-only"):
                part[...] = 0

    def test_cache_stays_bounded(self):
        for k in range(corr_ode._PLAN_CACHE + 1):
            grid = log_grid(1.0, 2.0 + k, 20)
            cumulative_quadratic(grid, np.ones(grid.size, complex))
            second_derivative_from_first(grid, np.ones(grid.size, complex))
        for plan in PLANS:
            assert plan.cache_info().currsize <= corr_ode._PLAN_CACHE

    def test_tables_are_built_once_per_grid(self, monkeypatch):
        calls = []

        def counted(nodes, x0, order):
            calls.append(np.shape(nodes))
            return weights(nodes, x0, order)

        weights = corr_ode.fornberg_weights
        monkeypatch.setattr(corr_ode, "fornberg_weights", counted)
        grid = master_grid(777.0, 123)  # no other test uses it
        n = grid.size
        for mode, lam, y0, built in (
            (ModePair(0, 4), 0.04, 0.0, [(n - 1, 5), (5,), (n - 4, 5)]),
            (ModePair(2, 6), 0.1, 0.0, [(5,)]),
        ):
            calls.clear()
            traj = solve_master(mode, lam, y0, grid)
            corr_ode.euler_residual_pointwise(traj, assemble_forcing(mode, traj, lam), lam)
            assert calls == built


# evaluation points particular_trajectory refuses before any integral
_BAD_POINTS = [
    pytest.param([], id="empty"),
    pytest.param(2.0, id="scalar"),
    pytest.param([[2.0, 3.0]], id="two-dimensional"),
    pytest.param([2.0, np.nan], id="nan"),
    pytest.param([2.0, np.inf], id="inf"),
    pytest.param([3.0, 2.0], id="unsorted"),
    pytest.param([2.0, 2.0], id="repeated"),
    pytest.param([0.0, 1.0], id="zero"),
    pytest.param([-1.0, 2.0], id="negative"),
]


def _no_integral(*args, **kwargs):
    raise AssertionError("an integral ran before the points were checked")


class TestParticularSolution:
    def test_zero_forcing(self):
        assert particular_trajectory(0.5, SAMPLED_ZERO, [2.0]).y[0] == 0.0

    def test_inverse_square_forcing_closed_form(self):
        # f(r) = (1 + r)^-2, nu = 1/2: with s = sqrt(r), both integrals are
        # arctangents, and the tail stops at the last sample R; the rule
        # misses y and y' by 2.9e-8
        g = master_grid(1e3, steps_per_decade=400)
        t = g[(g >= 0.5) & (g <= 500.0)][::40]
        traj = particular_trajectory(0.5, ForcingProfile.from_samples(g, (1.0 + g) ** -2.0), t)

        def tail(x):  # int_x^inf r^(-1/2) (1 + r)^-2 dr
            return math.pi / 2 - np.sqrt(x) / (1.0 + x) - np.arctan(np.sqrt(x))

        head = np.arctan(np.sqrt(t)) - np.sqrt(t) / (1.0 + t)  # int_0^t r^(1/2) (1 + r)^-2 dr
        cut = tail(t) - tail(g[-1])
        y = -(t**-0.5) * cut - t**-1.5 * head
        yp = 0.5 * t**-1.5 * cut + 1.5 * t**-2.5 * head
        assert np.max(np.abs(traj.y - y)) <= 1e-7
        assert np.max(np.abs(traj.y_prime - yp)) <= 1e-7

    def test_linearity(self):
        # r^-2 on r >= 1 and 0 below, sampled as in the selftest
        g = master_grid(100.0, steps_per_decade=200)
        f = (g >= 1.0) / np.maximum(g, 1.0) ** 2
        one, two = (
            particular_trajectory(0.5, ForcingProfile.from_samples(g, c * f), [2.0, 7.0])
            for c in (1.0, 2.0)
        )
        assert np.array_equal(two.y, 2.0 * one.y)
        assert np.array_equal(two.y_prime, 2.0 * one.y_prime)

    def test_samples_must_start_at_zero(self):
        # the head integral runs from 0; a grid starting at 1 cannot supply it
        n = 2001
        fp = ForcingProfile.from_samples(np.linspace(1.0, 10.0, n), np.ones(n, complex))
        with pytest.raises(DomainError):
            particular_trajectory(0.5, fp, np.array([2.0]))
        with pytest.raises(DomainError):
            particular_trajectory(0.5, fp, np.array([2.0, 3.0]))

    def test_value_at_the_last_sample(self):
        # the tail integral over the empty range [g[-1], g[-1]] is 0
        g = master_grid(1e3, steps_per_decade=400)
        v = 1.0 / (1.0 + g) + 0j
        nu, t = 0.5, g[-1]
        head = power_weighted_integral(g, v, nu, a=0.0, b=t)
        got = particular_trajectory(nu, ForcingProfile.from_samples(g, v), [t]).y[0]
        assert got == pytest.approx(-(t ** (-nu - 1.0)) / (2 * nu) * head, rel=1e-14)

    @pytest.mark.parametrize("points", _BAD_POINTS)
    def test_refuses_bad_points_before_any_integral(self, monkeypatch, points):
        monkeypatch.setattr(corr_ode, "power_weighted_integral", _no_integral)
        with pytest.raises(DomainError):
            particular_trajectory(0.5, SLOW, points)

    def test_trajectory_equals_single_point_calls(self):
        t = np.linspace(0.5, 9.5, 19)
        traj = particular_trajectory(0.5, SLOW, t)
        single = [particular_trajectory(0.5, SLOW, [x]) for x in t]
        assert traj.y.tobytes() == np.concatenate([s.y for s in single]).tobytes()
        assert traj.y_prime.tobytes() == np.concatenate([s.y_prime for s in single]).tobytes()

    def test_formula_trajectory_solves_the_ode(self):
        # verified as an ODE solution, not asserted equal to the master one;
        # the callable anchor gives euler_residual its f on the points
        grid = master_grid(1e3, steps_per_decade=400)
        fp = ForcingProfile.from_samples(grid, _anchor_forcing(grid))
        traj = particular_trajectory(0.5, fp, grid[(grid >= 1.0) & (grid <= 100.0)])
        exact = ForcingProfile.from_callable(_anchor_forcing)
        assert euler_residual(traj, exact, 3.0 / 16.0) <= 1e-6


# the sampled rule's error on smooth forcing at 400 steps per decade, the h³
# truncation of its quadratics (measured at most 2.5e-7 below)
_RULE_ERROR = 1e-6


class TestTailConstants:
    def test_zero_forcing(self):
        assert asymptotic_constant(0.5, SAMPLED_ZERO).value == 0.0

    @pytest.mark.parametrize("nu", [0.3, 0.5, 0.9])
    def test_power_forcing_closed_form(self, nu):
        # f(r) = r^-2 on [1, R]: the value is -1/(2nu(nu+1)), and
        # -(1 - R^-(nu+1))/(2nu(nu+1)) to the cutoff; the rule misses the
        # latter by 2.4e-7, 1.3e-7 and 5.5e-8
        grid = log_grid(1.0, 1e4, steps_per_decade=400)
        got = asymptotic_constant(nu, ForcingProfile.from_samples(grid, grid**-2.0), tol=None)
        exact = -1.0 / (2 * nu * (nu + 1))
        assert got.cutoff == grid[-1]
        assert abs(got.value - exact * (1.0 - got.cutoff ** -(nu + 1))) <= _RULE_ERROR
        assert abs(got.value - exact) <= got.tail_bound + _RULE_ERROR

    def test_exponential_forcing_incomplete_gamma(self):
        # the rule misses Γ(1/2, 1) by 2.5e-8
        grid = log_grid(1.0, 1e2, steps_per_decade=400)
        got = asymptotic_constant(0.5, ForcingProfile.from_samples(grid, np.exp(-grid)), tol=None)
        expected = -gamma(0.5) * gammaincc(0.5, 1.0)
        assert abs(got.value - expected) <= got.tail_bound + _RULE_ERROR
        assert abs(got.value - expected) <= 1e-7

    @pytest.mark.parametrize("nu", [0.25, 0.5, 0.75])
    def test_envelope_bound(self, nu):
        grid = log_grid(1.0, 1e4, steps_per_decade=400)
        for values in [grid**-2.0, np.exp(-grid), 0.3 / (1.0 + grid)]:
            fp = ForcingProfile.from_samples(grid, values)
            got = asymptotic_constant(nu, fp, tol=None)
            assert abs(got.value) <= fp.decay_c / (2 * nu * nu) + 1e-12

    def test_amplitude_closed_form_anchor(self):
        # the amplitude is exactly 1; the rule on master_grid(1e4, 400)
        # misses it by 1.2e-8; cross-check the closed form by adaptive
        # quadrature as well
        grid = master_grid(1e4, steps_per_decade=400)
        fp = ForcingProfile.from_samples(grid, _anchor_forcing(grid))
        got = asymptotic_amplitude(0.5, fp, tol=None)
        assert abs(got.value - 1.0) <= min(got.tail_bound, 1e-7)
        direct = quad(lambda r: r**-0.5 * _anchor_forcing(r).real, 0, np.inf)[0]
        assert abs(direct - 1.0) < 1e-9

    @pytest.mark.parametrize("tail_fn", [asymptotic_constant, asymptotic_amplitude])
    def test_zero_tol_on_sampled_raises_at_grid_end(self, tail_fn):
        bound = tail_fn(0.5, SLOW, tol=None).tail_bound
        assert bound > 0.0
        with pytest.raises(TruncationError) as info:
            tail_fn(0.5, SLOW, tol=0.0)
        assert info.value.achieved_bound == bound

    @pytest.mark.parametrize("tail_fn", [asymptotic_constant, asymptotic_amplitude])
    def test_zero_tol_without_envelope_is_exact(self, tail_fn):
        got = tail_fn(0.5, SAMPLED_ZERO, tol=0.0)
        assert got.value == 0.0 and got.tail_bound == 0.0

    @pytest.mark.parametrize("tail_fn", [asymptotic_constant, asymptotic_amplitude])
    @pytest.mark.parametrize("tol", [-1e-9, float("nan")])
    def test_negative_or_nan_tol_rejected(self, tail_fn, tol):
        with pytest.raises(DomainError):
            tail_fn(0.5, SLOW, tol=tol)

    @pytest.mark.parametrize("tail_fn", [asymptotic_constant, asymptotic_amplitude])
    def test_infinite_envelope_rejected(self, tail_fn):
        fp = ForcingProfile(grid=SLOW.grid, values=SLOW.values, decay_c=math.inf)
        with pytest.raises(DomainError):
            tail_fn(0.5, fp, tol=None)

    def test_amplitude_requires_nu_below_one(self):
        with pytest.raises(DomainError):
            asymptotic_amplitude(1.0, SAMPLED_ZERO)

    # ν outside (0, 1], (0, 1) for the amplitude, is refused before any integral
    @pytest.mark.parametrize(
        "nu", [0.0, -0.5, 1.5, math.nan], ids=["zero", "negative", "above-one", "nan"]
    )
    @pytest.mark.parametrize(
        "tail_fn",
        [
            lambda nu, fp: asymptotic_constant(nu, fp, tol=None),
            lambda nu, fp: asymptotic_amplitude(nu, fp, tol=None),
            lambda nu, fp: particular_trajectory(nu, fp, [2.0, 3.0]),
        ],
        ids=["constant", "amplitude", "particular"],
    )
    def test_nu_outside_its_range_refused(self, monkeypatch, tail_fn, nu):
        monkeypatch.setattr(corr_ode, "power_weighted_integral", _no_integral)
        with pytest.raises(DomainError, match="nu must lie"):
            tail_fn(nu, SLOW)

    @pytest.mark.parametrize("nu", [0.1, 0.5])
    @pytest.mark.parametrize("tail_fn", [asymptotic_constant, asymptotic_amplitude])
    def test_tol_is_checked_against_the_bound_at_the_last_sample(self, tail_fn, nu):
        # tol=None checks nothing; a tol equal to the bound passes with the
        # same value, and the next float below it raises with the bound
        free = tail_fn(nu, SLOW, tol=None)
        assert free.cutoff == SLOW.grid[-1]
        assert free.tail_bound == SLOW.decay_c * free.cutoff ** (-nu) / (2.0 * nu * nu)
        at = tail_fn(nu, SLOW, tol=free.tail_bound)
        assert (at.value, at.tail_bound) == (free.value, free.tail_bound)
        with pytest.raises(TruncationError) as info:
            tail_fn(nu, SLOW, tol=math.nextafter(free.tail_bound, 0.0))
        assert info.value.achieved_bound == free.tail_bound

    # every tail integral refuses a callable forcing before evaluating it
    @pytest.mark.parametrize(
        "tail_fn",
        [
            lambda fp: asymptotic_constant(0.5, fp),
            lambda fp: asymptotic_amplitude(0.5, fp, tol=1e-3),
            lambda fp: particular_trajectory(0.5, fp, [2.0, 3.0]),
        ],
        ids=["constant", "amplitude", "particular"],
    )
    def test_callable_forcing_refused(self, tail_fn):
        calls = []
        fp = ForcingProfile.from_callable(lambda t: calls.append(t) or _slow_forcing(t))
        with pytest.raises(DomainError, match="from_samples"):
            tail_fn(fp)
        assert calls == []


@pytest.fixture(scope="module")
def anchor():
    grid = master_grid(1e3, steps_per_decade=400)
    return grid, ForcingProfile.from_samples(grid, _anchor_forcing(grid))


class TestAnchorClosedForm:
    """The anchor forcing sampled on a master grid against its closed forms."""

    @pytest.mark.parametrize(
        "tail_fn, start, sign",
        [(asymptotic_amplitude, 0.0, 1.0), (asymptotic_constant, 1.0, -1.0)],
        ids=["amplitude", "constant"],
    )
    def test_tail_functionals_within_the_sampled_bound(self, anchor, tail_fn, start, sign):
        # 1/(2nu) = 1: the value is ±(1 - G(start)) and, to the cutoff R,
        # ±(G(R) - G(start)); the rule misses the latter by 1.5e-8
        grid, sampled = anchor
        got = tail_fn(0.5, sampled, tol=None)
        assert got.cutoff == grid[-1]
        to_cutoff = sign * (_anchor_primitive(got.cutoff) - _anchor_primitive(start))
        assert abs(got.value - to_cutoff) <= 1e-7
        assert abs(got.value - sign * (1.0 - _anchor_primitive(start))) <= got.tail_bound

    def test_formula_trajectory_equals_closed_form(self, anchor):
        # y - t^(-1/2); the missing tail past R = 1e3 dominates the misses,
        # 1.7e-7 in y and 3.8e-8 in y'
        grid, sampled = anchor
        t = grid[(grid >= 2.0) & (grid <= 50.0)][::20]
        traj = particular_trajectory(0.5, sampled, t)
        y = (1.0 + t * t) ** -0.25 - t**-0.5
        yp = -0.5 * t * (1.0 + t * t) ** -1.25 + 0.5 * t**-1.5
        assert np.max(np.abs(traj.y - y)) < 3e-7
        assert np.max(np.abs(traj.y_prime - yp)) < 1e-7

    def test_log_weight_at_nu_one(self, anchor):
        # ν = 1 puts the weight 1/r on the tail integrals, whose ranges start
        # above 0; against adaptive quadrature, which the rule meets to 4e-9
        grid, sampled = anchor

        def integral(weight, lo, hi):
            return quad(lambda r: weight(r) * _anchor_forcing(r).real, lo, hi,
                        epsabs=1e-14, epsrel=1e-13)[0]

        got = asymptotic_constant(1.0, sampled, tol=None)
        assert abs(got.value + 0.5 * integral(lambda r: 1.0 / r, 1.0, np.inf)) < 1e-7
        t = grid[(grid >= 2.0) & (grid <= 50.0)][::20]
        tail = np.array([integral(lambda r: 1.0 / r, x, np.inf) for x in t])
        head = np.array([integral(lambda r: r, 0.0, x) for x in t])
        traj = particular_trajectory(1.0, sampled, t)
        assert np.max(np.abs(traj.y - (-0.5 * tail - 0.5 * t**-2 * head))) < 1e-7
        assert np.max(np.abs(traj.y_prime - t**-3 * head)) < 1e-7

    def test_short_grid_constant_raises_with_its_bound(self, anchor):
        _, sampled = anchor
        bound = asymptotic_constant(0.5, sampled, tol=None).tail_bound
        assert 1e-3 < bound < 1e-2
        with pytest.raises(TruncationError) as info:
            asymptotic_constant(0.5, sampled, tol=1e-3)
        assert info.value.achieved_bound == bound


class TestTailChecks:
    @pytest.mark.parametrize(
        "grid", [[0.1, 0.5, 0.9], [0.5, 1.0, 100.0]], ids=["no-node-at-1", "one-top-node"]
    )
    def test_refuses_grid_without_two_top_decade_nodes(self, grid):
        # no node at t >= 1 has no top decade; one node in it has no slope
        traj = _power_trajectory(0.5, np.array(grid), coef=0.7)
        with pytest.raises(DomainError):
            tail_remainder_check(traj, 0.7, 0.5)

    @pytest.mark.parametrize(
        "grid", [[0.5, 1.0, 1000.0], [0.5, 1.0, 100.0, 1000.0]], ids=["one-node", "two-nodes"]
    )
    def test_amplitude_fit_refuses_fewer_than_three_top_nodes(self, grid):
        # nodes in the top two decades: with one the fit read 0.6993 for the
        # exact 0.7; two leave the two unknowns no residual
        traj = _power_trajectory(0.5, np.array(grid), coef=0.7)
        with pytest.raises(DomainError):
            fit_tail_amplitude(traj, 0.5)

    def test_exact_power_sup_zero(self):
        grid = log_grid(1.0, 1e4, steps_per_decade=100)
        traj = _power_trajectory(0.5, grid, coef=0.7)
        rep = tail_remainder_check(traj, 0.7, 0.5)
        assert rep.sup <= 1e-12 and rep.bounded

    def test_constructed_offset_sup_one(self):
        grid = log_grid(1.0, 1e4, steps_per_decade=100)
        traj = _power_trajectory(0.5, grid, coef=0.7, offset=True)
        rep = tail_remainder_check(traj, 0.7, 0.5)
        assert rep.sup == pytest.approx(1.0, rel=1e-9)
        assert rep.bounded

    def test_pipeline_bounded_and_amplitude_matches_fit(self):
        lam = 0.04
        nu = nu_of_lambda(lam)
        grid = master_grid(1e4, steps_per_decade=400)
        traj = solve_master(ModePair(0, 0), lam, 1.0, grid)
        prof = assemble_forcing(ModePair(0, 0), traj, lam)
        amp = asymptotic_amplitude(nu, prof, tol=None)
        rep = tail_remainder_check(traj, amp.value, nu)
        assert rep.bounded and math.isfinite(rep.sup)
        fitted = fit_tail_amplitude(traj, nu)
        assert abs(amp.value - fitted) / abs(fitted) < 1e-3

    def test_master_equals_formula_plus_homogeneous(self):
        # the bounded solution = formula solution + amplitude * t^(nu-1)
        lam, nu = 3.0 / 16.0, 0.5
        grid = master_grid(1e3, steps_per_decade=400)
        traj = solve_master(ModePair(0, 0), lam, 1.0, grid)
        prof = assemble_forcing(ModePair(0, 0), traj, lam)
        amp = asymptotic_amplitude(nu, prof, tol=None)
        # master − formula projected on the homogeneous pair (t^(ν−1), t^(−ν−1))
        mask = (grid >= 2.0) & (grid <= 100.0)
        t = grid[mask]
        diff = traj.y[mask] - particular_trajectory(nu, prof, t).y
        design = np.column_stack([t ** (nu - 1.0), t ** (-nu - 1.0)]).astype(complex)
        coef, *_ = np.linalg.lstsq(design, diff, rcond=None)
        assert abs(coef[0] - amp.value) < 1e-5
        assert abs(coef[1]) < 1e-5
        assert np.max(np.abs(diff - design @ coef)) < 1e-6


class TestModeZeroClosedForm:
    """Mode (0, 0): z = −t²/4 turns the master relation into the
    hypergeometric equation, so y = y₀·₂F₁((1+ν)/2, (1−ν)/2; 1; −t²/4)
    (DLMF 15.10), and its connection formula at z → −∞ (DLMF 15.8.2) gives
    the amplitude A = y₀·2^(1−ν)Γ(ν)/Γ((1+ν)/2)²."""

    @pytest.mark.parametrize("lam", [0.02, 0.05, 0.1, 0.15, 0.2, 0.24])
    def test_solution_and_amplitude(self, lam):
        # measured: y 1.5e-11, y' 4.1e-13, A 1.2e-8 at most over the six λ
        nu = nu_of_lambda(lam)
        a, b = (1.0 + nu) / 2.0, (1.0 - nu) / 2.0
        grid = master_grid(1e4, steps_per_decade=400)
        traj = solve_master(ModePair(0, 0), lam, 1.0, grid)
        z = -grid * grid / 4.0
        y = hyp2f1(a, b, 1.0, z)
        yp = a * b * hyp2f1(a + 1.0, b + 1.0, 2.0, z) * (-grid / 2.0)
        assert np.max(np.abs(traj.y - y) / np.maximum(1.0, np.abs(y))) <= 1e-10
        assert np.max(np.abs(traj.y_prime - yp) / np.maximum(1.0, np.abs(yp))) <= 1e-11
        amp = asymptotic_amplitude(nu, assemble_forcing(ModePair(0, 0), traj, lam), tol=None)
        exact = 2.0 ** (1.0 - nu) * gamma(nu) / gamma((1.0 + nu) / 2.0) ** 2
        assert abs(amp.value - exact) <= 1e-7 * exact


# sample sets the quadratic rule of power_weighted_integral cannot integrate
_UNINTEGRABLE_SAMPLES = [
    pytest.param([0.0, 1.0], np.ones(2), id="two-samples"),
    pytest.param([0.0, 1.0, 1.0, 2.0], np.ones(4), id="repeated-node"),
    pytest.param([0.0, 2.0, 1.0, 3.0], np.ones(4), id="unsorted"),
    pytest.param([0.0, 1.0, np.nan, 3.0], np.ones(4), id="nan-node"),
    pytest.param([0.0, 1.0, 2.0], [1.0, np.nan, 1.0], id="nan-value"),
    pytest.param([0.0, 1.0, 2.0], np.ones(4), id="length-mismatch"),
    pytest.param(np.zeros((3, 3)), np.ones((3, 3)), id="two-dimensional"),
]


class TestForcingProfile:
    def test_callable_is_evaluated_only_on_request(self):
        # construction calls nothing and claims no envelope; values_on
        # calls fn once per point
        calls = []
        fp = ForcingProfile.from_callable(lambda t: calls.append(t) or 0.3 / t + 0j)
        assert calls == [] and math.isnan(fp.decay_c)
        assert np.array_equal(fp.values_on(np.array([1.0, 2.0])), [0.3 + 0j, 0.15 + 0j])
        assert calls == [1.0, 2.0]

    def test_envelope_audit_of_samples_below_one(self):
        fp = ForcingProfile.from_samples(np.linspace(0.0, 0.9, 10), np.ones(10, complex))
        assert fp.envelope_audit() == 0.0 == fp.decay_c

    @pytest.mark.parametrize("grid, values", _UNINTEGRABLE_SAMPLES)
    def test_from_samples_rejects_grids_the_rule_cannot_integrate(self, grid, values):
        with pytest.raises(DomainError):
            ForcingProfile.from_samples(np.array(grid), np.array(values, complex))

    def test_sampled_profile_alignment(self):
        grid = np.linspace(0.0, 10.0, 101)
        fp = ForcingProfile.from_samples(grid, np.ones(101, complex))
        np.testing.assert_array_equal(fp.values_on(grid), np.ones(101, complex))
        with pytest.raises(ConsistencyError):
            fp.values_on(np.linspace(0.0, 10.0, 50))


_UNIFORM = np.linspace(0.0, 2.0, 401)
_GRADED = master_grid(1e2, steps_per_decade=100)
_QUADRATIC = tuple(c * (1 + 2j) for c in (1.0, 2.0, -0.5))  # (1 + 2r − r²/2)(1 + 2i)
# a sign-changing forcing on _GRADED, so the L¹ mass exceeds |∫|
_WAVE = (1 + 2j) * np.cos(3.0 * _GRADED) / (1.0 + _GRADED)
_MID = 0.5 * (_GRADED[:-1] + _GRADED[1:])  # one point inside each cell
# ranges over _GRADED: (lo, hi, id)
_RANGES = [
    (0.0, 100.0, "0.0-100.0"),  # the whole grid
    (0.0123, 37.7, "0.0123-37.7"),  # ends inside cells
    (1.0005, 1.0006, "1.0005-1.0006"),  # one partial cell
    (_GRADED[37], _GRADED[1100], "on-node"),
    (_GRADED[0], 37.7, "from-first-node"),
    (0.0123, _GRADED[-1], "to-last-node"),
    # on these two the per-cell moments at x ≈ 0.6 (and the closed form's
    # b^q − a^q) cancel past 1e-11, so only the table comparison takes them
    (_GRADED[600], _MID[600], "inside-one-cell"),
    (_MID[600], _MID[601], "adjacent-cells"),
]


def _clipped_cells(grid, values, p, lo, hi):
    """The sampled rule for one range, summed over every cell clipped to
    [lo, hi]: a reference for the cumulative table that shares no table."""
    seg_a, seg_b = np.clip(grid[:-1], lo, hi), np.clip(grid[1:], lo, hi)
    j = np.clip(np.arange(grid.size - 1), 1, grid.size - 2)
    x0, x1, x2 = grid[j - 1], grid[j], grid[j + 1]
    f0, f1, f2 = values[j - 1], values[j], values[j + 1]
    d0 = (x0 - x1) * (x0 - x2)
    d1 = (x1 - x0) * (x1 - x2)
    d2 = (x2 - x0) * (x2 - x1)
    q1 = np.array([p, p + 1.0, p + 2.0])[:, None] + 1.0
    mp, mp1, mp2 = (seg_b**q1 - seg_a**q1) / q1
    w0 = (mp2 - (x1 + x2) * mp1 + x1 * x2 * mp) / d0
    w1 = (mp2 - (x0 + x2) * mp1 + x0 * x2 * mp) / d1
    w2 = (mp2 - (x0 + x1) * mp1 + x0 * x1 * mp) / d2
    return np.sum(w0 * f0 + w1 * f1 + w2 * f2)


class TestSampleQuadrature:
    @pytest.mark.parametrize(
        "grid, coef, p, lo, hi",
        [pytest.param(_UNIFORM, (0.0, 0.0, 1.0), -0.5, 0.0, 2.0, id="uniform")]
        + [
            pytest.param(_GRADED, _QUADRATIC, p, lo, hi, id=f"graded-{p}-{name}")
            for p in (-0.5, 0.7)
            for lo, hi, name in _RANGES[:6]
        ],
    )
    def test_power_weighted_integral_exact_on_powers(self, grid, coef, p, lo, hi):
        vals = sum(c * grid**k for k, c in enumerate(coef)) + 0j
        got = power_weighted_integral(grid, vals, p, a=lo, b=hi)
        exact = sum(
            c * (hi ** (p + k + 1) - lo ** (p + k + 1)) / (p + k + 1)
            for k, c in enumerate(coef)
        )
        assert abs(got - exact) <= 1e-11 * abs(exact)  # interpolation exact; roundoff only

    # p = −1 on a grid from 0: the ranges start above 0 and cell [0, grid[1]]
    # stays out of the table
    @pytest.mark.parametrize("lo, hi", [r[:2] for r in _RANGES[1:6] if r[0] > 0.0],
                             ids=[r[2] for r in _RANGES[1:6] if r[0] > 0.0])
    def test_log_weight_exact_on_quadratics(self, lo, hi):
        vals = sum(c * _GRADED**k for k, c in enumerate(_QUADRATIC)) + 0j
        got = power_weighted_integral(_GRADED, vals, -1.0, a=lo, b=hi)
        c0, c1, c2 = _QUADRATIC
        exact = c0 * math.log(hi / lo) + c1 * (hi - lo) + c2 * (hi * hi - lo * lo) / 2.0
        assert abs(got - exact) <= 1e-11 * abs(exact)

    @pytest.mark.parametrize("p, lo", [(-1.0, 0.0), (-1.0, np.array([0.5, 0.0])), (-1.5, 0.5)])
    def test_log_weight_from_zero_and_steeper_weights_refused(self, p, lo):
        with pytest.raises(DomainError):
            power_weighted_integral(_GRADED, _WAVE, p, a=lo, b=10.0)

    @pytest.mark.parametrize("p", [-0.5, 0.7])
    @pytest.mark.parametrize("lo, hi", [r[:2] for r in _RANGES], ids=[r[2] for r in _RANGES])
    def test_table_matches_clipped_cells(self, p, lo, hi):
        got = power_weighted_integral(_GRADED, _WAVE, p, a=lo, b=hi)
        ref = _clipped_cells(_GRADED, _WAVE, p, lo, hi)
        mass = _clipped_cells(_GRADED, np.abs(_WAVE) + 0j, p, lo, hi).real
        assert abs(got - ref) <= 1e-13 * mass

    @pytest.mark.parametrize(
        "x",
        [0.0, 0.37, 1.0, 1.0005, _GRADED[600], 100.0]
        + [pytest.param(np.concatenate([_GRADED[::50], _MID[::50]]), id="array")],
    )
    def test_empty_range_is_zero(self, x):
        vals = 1.0 / (1.0 + _GRADED) + 0j
        got = power_weighted_integral(_GRADED, vals, -0.5, a=x, b=x)
        assert np.shape(got) == np.shape(x) and np.all(got == 0)

    @pytest.mark.parametrize("p", [0.7, -0.5, -1.0])
    def test_array_ends_equal_scalar_calls_bit_for_bit(self, p):
        # 254 ends: every tenth node and 133 points off the nodes; the weight
        # 1/r (the log moment) starts its ranges at the first node above 0
        rng = np.random.default_rng(11)
        ends = np.concatenate([_GRADED[::10], rng.uniform(0.0, 100.0, 133)])
        start = 0.0 if p > -1.0 else _GRADED[1]
        ends = ends[ends >= start]
        top = _GRADED[-1]

        def one(lo, hi):
            return power_weighted_integral(_GRADED, _WAVE, p, a=lo, b=hi)

        cases = [
            (one(start, ends), [one(start, x) for x in ends]),  # head ranges
            (one(ends, top), [one(x, top) for x in ends]),  # tail ranges
            (one(0.5 * ends, ends), [one(0.5 * x, x) for x in ends]),
        ]
        for got, single in cases:
            assert got.shape == ends.shape
            assert got.tobytes() == np.array(single).tobytes()
        lo = np.array([[start], [_MID[0]], [_GRADED[1]]])  # (3, 1) against (m,)
        hi = ends[ends >= _GRADED[1]]
        outer = one(lo, hi)
        assert outer.shape == (3, hi.size)
        for row, x in zip(outer, lo[:, 0]):
            assert row.tobytes() == np.array([one(x, y) for y in hi]).tobytes()

    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (-1.0, 1.0), (0.0, np.inf), (0.0, np.nan)])
    def test_bad_ranges_refused(self, lo, hi):
        with pytest.raises(DomainError):
            power_weighted_integral(_GRADED, _WAVE, 0.5, a=lo, b=hi)

    def test_range_outside_the_grid_refused(self):
        with pytest.raises(DomainError):
            power_weighted_integral(_GRADED, _WAVE, 0.0, a=np.array([1.0, 2.0]), b=101.0)
        with pytest.raises(DomainError):
            power_weighted_integral(_GRADED, _WAVE, 0.0, a=np.array([3.0, np.nan]), b=4.0)

    def test_trajectory_makes_one_pass_per_running_integral(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2])
            return power_weighted_integral(*args, **kwargs)

        monkeypatch.setattr(corr_ode, "power_weighted_integral", counting)
        fp = ForcingProfile.from_samples(_GRADED, _WAVE)
        traj = particular_trajectory(0.5, fp, np.geomspace(0.01, 99.0, 500))
        assert traj.y.size == 500
        assert sorted(calls) == [-0.5, 0.5]  # the tail and the head integral

    @pytest.mark.parametrize("grid, values", _UNINTEGRABLE_SAMPLES)
    def test_rejects_samples_the_rule_cannot_integrate(self, grid, values):
        # the two-node grid returned -inf+nanj before the rule checked its grid
        with pytest.raises(DomainError):
            power_weighted_integral(np.array(grid), np.array(values, complex), 0.0, a=0.0, b=1.0)

    def test_master_residual_flags_foreign_data(self):
        grid = log_grid(1.0, 100.0, steps_per_decade=200)
        traj = _power_trajectory(0.5, grid)
        assert master_relation_residual(traj, 3.0 / 16.0) > 1e-3
