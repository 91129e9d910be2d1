"""The scalar RK4 march that solved the master relation before the affine
step maps, kept as an independent oracle for them.

Every step makes four right-hand-side calls on Python complex scalars, the
stage nodes t, t + h/2, t + h/2 and t + h of classical RK4; the series
startup and the node it hands over at are the library's own.
"""

from __future__ import annotations

import numpy as np

from horomix.corr_ode import _master_integrand, _series_eval, _series_start
from horomix.corr_ode import taylor_coefficients


def _rhs(t, y, integral, lam, mu, dsq, y0):
    yp = integral / (t * (t * t + 4.0))
    return yp, _master_integrand(t, y, yp, lam, mu, dsq, y0)


def scalar_march(mode, lam, y0, grid, resonant_amplitude=1.0):
    """(y, y′) on ``grid`` from the series startup and the scalar RK4 loop."""
    grid = np.asarray(grid, dtype=float)
    mu, dsq = float(mode.mu), float(mode.dsq)
    y0 = complex(y0)
    amp = complex(resonant_amplitude) if dsq else 0.0
    a_ser, b_ser, _ = taylor_coefficients(mode, lam, y0, amp)

    n = grid.size
    y = np.zeros(n, dtype=complex)
    yp = np.zeros(n, dtype=complex)

    start = _series_start(grid)
    ys, yps, integs = _series_eval(a_ser, b_ser, grid[: start + 1])
    y[: start + 1] = ys
    yp[: start + 1] = yps

    yc, ic = y[start], integs[start]
    for k in range(start, n - 1):
        t, t_next = grid[k], grid[k + 1]
        h = t_next - t
        k1y, k1i = _rhs(t, yc, ic, lam, mu, dsq, y0)
        k2y, k2i = _rhs(t + h / 2, yc + h / 2 * k1y, ic + h / 2 * k1i, lam, mu, dsq, y0)
        k3y, k3i = _rhs(t + h / 2, yc + h / 2 * k2y, ic + h / 2 * k2i, lam, mu, dsq, y0)
        k4y, k4i = _rhs(t_next, yc + h * k3y, ic + h * k3i, lam, mu, dsq, y0)
        yc = yc + h / 6 * (k1y + 2 * k2y + 2 * k3y + k4y)
        ic = ic + h / 6 * (k1i + 2 * k2i + 2 * k3i + k4i)
        y[k + 1] = yc
        yp[k + 1] = ic / (t_next * (t_next**2 + 4.0))
    return y, yp
