"""Finite-difference gradient and Hessian: an oracle for the derivatives at
0 that the library reads exactly from coefficients."""

import numpy as np


def finite_difference_gradient(fn, x0: np.ndarray) -> np.ndarray:
    """Central first differences with step 1e-5.

    ``fn`` maps a (k, d) array of points to their k values; all 2d stencil
    points go to it in one call.
    """
    x0 = np.asarray(x0, dtype=float)
    h = 1e-5
    steps = h * np.eye(x0.size)
    f_plus, f_minus = np.split(np.asarray(fn(np.concatenate([x0 + steps, x0 - steps]))), 2)
    return (f_plus - f_minus) / (2 * h)


def finite_difference_hessian(fn, x0: np.ndarray) -> np.ndarray:
    """Central second differences at steps 1e-4 and 5e-5, Richardson-refined
    once for robustness.

    ``fn`` maps a (k, d) array of points to their k values; the 2(1 + 2d²)
    stencil points of both steps go to it in one call.
    """
    x0 = np.asarray(x0, dtype=float)
    d = x0.size
    iu, ju = np.triu_indices(d, 1)
    h = 1e-4
    points = []
    for step in (h, h / 2):
        steps = step * np.eye(d)
        plus, minus = x0 + steps, x0 - steps
        points += [x0[None], plus, minus, plus[iu] + steps[ju], plus[iu] - steps[ju],
                   minus[iu] + steps[ju], minus[iu] - steps[ju]]
    values = np.asarray(fn(np.concatenate(points))).reshape(2, -1)
    cuts = np.cumsum([1, d, d, iu.size, iu.size, iu.size])
    estimates = []
    for step, row in zip((h, h / 2), values):
        f0, fp, fm, fpp, fpm, fmp, fmm = np.split(row, cuts)
        out = np.diag((fp - 2 * f0 + fm) / step**2)
        out[iu, ju] = out[ju, iu] = (fpp - fpm - fmp + fmm) / (4 * step**2)
        estimates.append(out)
    coarse, fine = estimates
    return (4.0 * fine - coarse) / 3.0
