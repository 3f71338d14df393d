"""Exception types shared across the package."""


class KmrotError(Exception):
    """Base class for domain errors raised by this package."""


class ZeroVectorError(KmrotError):
    """The operation is undefined at the zero vector."""


class NonFiniteError(KmrotError, ValueError):
    """A coordinate or an initial distance is infinite or nan."""


class InvalidAlphaError(KmrotError, ValueError):
    """Step size outside the open interval (0, 1)."""


class OutOfRangeError(KmrotError):
    """Angle outside the domain supported by the operation."""


class UnsupportedAlphaError(KmrotError):
    """The requested bound only holds for step size alpha = 0.5."""


class UnstableError(KmrotError):
    """Noise level violates the stability condition mu + alpha^2 * b < 1."""
