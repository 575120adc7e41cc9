"""Exception types distinguishing input-domain, convergence, and accuracy failures."""

import math


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation.

    Raised for gamma poles, operator parameters violating validity
    conditions, nonconvergent integrals, and malformed specs.
    """


class ConvergenceError(RuntimeError):
    """A series is outside its convergence regime (wrong index, |z| too large)."""


class AccuracyError(RuntimeError):
    """A computation finished but could not certify the requested tolerance.

    Carries the best available estimate, and the integrand evaluations spent
    reaching it, so callers can degrade gracefully.
    """

    def __init__(self, message, value=None, error_estimate=None, evaluations=0):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


def require_finite(owner: str, *values: float) -> None:
    """Raise DomainError unless every value is a finite number."""
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{owner}: parameters must be finite, got {values!r}")
