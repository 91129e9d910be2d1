"""Per-job correctness gate.

A job's checks compare an achieved error against a tolerance pinned in
``tests/test_acceptance.py`` or the unit tests.  Each check yields an
accuracy margin in decimal digits, log10(tolerance / error), so a change
that buys speed with accuracy shows even while every check still passes.
"""

from __future__ import annotations

import math

# Margin reported for an exact (zero-error) check.
MARGIN_CAP_DIGITS = 12.0


class Gate:
    """Collects the checks of one job."""

    def __init__(self):
        self.checks = []  # (name, error, tolerance, margin_digits, passed)

    def check(self, name: str, error: float, tolerance: float) -> bool:
        error = float(error)
        passed = math.isfinite(error) and error <= tolerance
        if not math.isfinite(error):
            margin = -MARGIN_CAP_DIGITS
        elif error == 0.0:
            margin = MARGIN_CAP_DIGITS
        else:
            margin = min(math.log10(tolerance / error), MARGIN_CAP_DIGITS)
        self.checks.append((name, error, tolerance, margin, passed))
        return passed

    @property
    def passed(self) -> bool:
        return all(c[4] for c in self.checks)

    @property
    def margin(self) -> float:
        return min((c[3] for c in self.checks), default=MARGIN_CAP_DIGITS)

    def failures(self) -> list:
        return [
            f"{name}: error {err:.3e} > tolerance {tol:.1e}"
            for name, err, tol, _, ok in self.checks
            if not ok
        ]
