"""Exception types shared across the package, and the one check of each precondition."""

import math


class KmrotError(Exception):
    """Base class for domain errors raised by this package."""


class NonFiniteError(KmrotError, ValueError):
    """A coordinate or an initial distance is infinite or nan."""


class InvalidAlphaError(KmrotError, ValueError):
    """Step size outside the open interval (0, 1)."""


def check_alpha(alpha: float | None) -> None:
    """Raise InvalidAlphaError unless 0 < alpha < 1; None and nan fail too."""
    if alpha is None or not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1): got {alpha}")


def check_count(name: str, n: int) -> None:
    """Raise ValueError unless the count n is >= 1."""
    if n < 1:
        raise ValueError(f"{name} must be >= 1: got {n}")


def check_finite_nonneg(name: str, x: float) -> None:
    """Raise NonFiniteError unless x is finite, then ValueError unless x >= 0."""
    if not math.isfinite(x):
        raise NonFiniteError(f"{name} must be finite: got {x}")
    if x < 0.0:
        raise ValueError(f"{name} must be >= 0: got {x}")


class OutOfRangeError(KmrotError):
    """An input outside what the operation supports: an angle, the replica count or the search work."""


class UnsupportedAlphaError(KmrotError):
    """The requested bound only holds for step size alpha = 0.5."""


class UnstableError(KmrotError):
    """Noise level violates the stability condition mu + alpha^2 * b < 1."""
