"""Exception types shared across the package."""


class HoromixError(Exception):
    """Base class for all package errors."""


class DomainError(HoromixError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ModelValidityError(HoromixError):
    """A spectral model violates one of its structural invariants."""


class ConsistencyError(HoromixError):
    """Input data fails a required consistency relation."""


class TruncationError(HoromixError):
    """A tail certificate cannot be pushed below tolerance within limits."""

    def __init__(self, message, achieved_bound=None):
        super().__init__(message)
        self.achieved_bound = achieved_bound


class QuadratureError(HoromixError):
    """Adaptive quadrature refinement failed to certify the result."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class ConditioningError(HoromixError):
    """Sequential coefficient extraction became unstable."""

    def __init__(self, message, last_stable_order=None, coefficients=None):
        super().__init__(message)
        self.last_stable_order = last_stable_order
        self.coefficients = coefficients


class UnsupportedMorseClassError(HoromixError):
    """The phase or amplitude is not a polynomial, so it has no Taylor-series
    expansion; sample the quadrature and use fit_expansion."""


class LatticeSizeError(HoromixError):
    """A tensor grid (character lattice, validation sweep or quadrature
    mesh) or a Laplace series has more points or monomials than its cap;
    raised before allocation."""


class ConfigError(HoromixError):
    """A configuration file or CLI argument is invalid."""
