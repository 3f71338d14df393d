"""Rational angles, 2D vectors, norms, and the averaged rotation step.

Angles are carried as exact rationals t = p/q in units of pi.  Keeping the
rational around (instead of a raw float) makes two things decidable without
float comparisons: membership in the quarter/half-turn set {pi/2, pi}, and
the pseudo-period ceil(q/p) used by the max-norm analysis.  Trig values are
evaluated once per operator with argument reduction on the rational, so
quarter-turn multiples come out exact (sin(pi) is 0.0, not 1.2e-16).  All
arithmetic is double precision.

T is written once, on plain floats, as turn, with averaged_step built on
it: the scalar reference that the Vec2 functions wrap and km_step repeats.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidAlphaError, NonFiniteError, ZeroVectorError

_SQRT_HALF = math.sqrt(0.5)
_SQRT3_HALF = math.sqrt(3.0) / 2.0

# First-octant values that are exact in binary or worth pinning to the
# correctly rounded constant: r -> (sin(pi r), cos(pi r)).
_EXACT_FIRST_OCTANT = {
    Fraction(0): (0.0, 1.0),
    Fraction(1, 6): (0.5, _SQRT3_HALF),
    Fraction(1, 4): (_SQRT_HALF, _SQRT_HALF),
    Fraction(1, 3): (_SQRT3_HALF, 0.5),
}


def sin_cos_pi(t: Fraction) -> tuple[float, float]:
    """Return (sin(pi*t), cos(pi*t)) for a rational t.

    Reduces t mod 2 into a quadrant plus a remainder in [0, 1/2) before
    touching libm, so results at multiples of 1/6 and 1/4 are the correctly
    rounded constants and quarter turns are exact.
    """
    t %= 2
    quad, r = divmod(t, Fraction(1, 2))
    exact = _EXACT_FIRST_OCTANT.get(r)
    if exact is not None:
        s, c = exact
    elif r < Fraction(1, 4):
        x = math.pi * float(r)
        s, c = math.sin(x), math.cos(x)
    else:
        # sin(pi r) = cos(pi (1/2 - r)); keeps the libm argument small
        x = math.pi * float(Fraction(1, 2) - r)
        s, c = math.cos(x), math.sin(x)
    if quad == 1:
        s, c = c, -s
    elif quad == 2:
        s, c = -s, -c
    elif quad == 3:
        s, c = -c, s
    # normalize -0.0 so exact zeros print and compare cleanly
    return s + 0.0, c + 0.0


def tan_pi(t: Fraction) -> float:
    """tan(pi*t) via sin_cos_pi, exact zero at t = 0."""
    s, c = sin_cos_pi(t)
    return s / c


@dataclass(frozen=True)
class Angle:
    """Rotation angle theta = (p/q)*pi with 0 < p/q < 2, stored in lowest terms."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if self.p <= 0 or self.q <= 0:
            raise ValueError(f"angle numerator and denominator must be positive: {self.p}/{self.q}")
        g = math.gcd(self.p, self.q)
        if g > 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)
        if self.p >= 2 * self.q:
            raise ValueError(f"angle must lie in (0, 2)*pi: got {self.p}/{self.q}*pi")

    @classmethod
    def parse(cls, text: str) -> Angle:
        """Parse 'p/q' (or a bare integer 'p') as a multiple of pi."""
        body = text.strip()
        num, _, den = body.partition("/")
        try:
            p = int(num)
            q = int(den) if den else 1
        except ValueError:
            raise ValueError(f"expected an angle of the form 'p/q' in units of pi: {text!r}") from None
        return cls(p, q)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def mirrored(self) -> Angle:
        """The angle 2*pi - theta (same iteration behavior, opposite turn direction)."""
        return Angle(2 * self.q - self.p, self.q)

    def folded(self) -> Angle:
        """The angle in (0, pi] with the same iteration behavior: theta or its mirror."""
        return self if self.p <= self.q else self.mirrored()

    def __str__(self) -> str:
        return f"{self.p}/{self.q}*pi"


class NormKind(enum.Enum):
    L2 = "l2"
    LINF = "linf"


@dataclass(frozen=True)
class Vec2:
    """A point in the plane.  Coordinates must be finite."""

    x1: float
    x2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x1) and math.isfinite(self.x2)):
            raise NonFiniteError(f"coordinates must be finite: ({self.x1}, {self.x2})")

    def is_zero(self) -> bool:
        return self.x1 == 0.0 and self.x2 == 0.0


@dataclass(frozen=True)
class RotationOp:
    """Counter-clockwise rotation by a rational multiple of pi, trig values cached.

    The induced matrix is [[cos, -sin], [sin, cos]]; it is orthogonal and its
    symmetric part is cos(theta) * I, which is what makes the averaged step's
    squared-norm recursion exact under the Euclidean norm.
    """

    angle: Angle
    cos_theta: float = field(init=False)
    sin_theta: float = field(init=False)

    def __post_init__(self) -> None:
        s, c = sin_cos_pi(self.angle.fraction)
        object.__setattr__(self, "sin_theta", s)
        object.__setattr__(self, "cos_theta", c)


def turn(c: float, s: float, x1: float, x2: float, linf: bool) -> tuple[float, float]:
    """T(x) on floats: the rotation [[c, -s], [s, c]] of (x1, x2), rescaled when `linf` is set.

    The rescaled image is (||x||_inf * Rx) / ||Rx||_inf, undefined at the
    origin; its extremal component can land 1 ulp above ||x||_inf.
    """
    t1 = c * x1 - s * x2
    t2 = s * x1 + c * x2
    if linf:
        m = max(abs(x1), abs(x2))
        mr = max(abs(t1), abs(t2))
        t1, t2 = (m * t1) / mr, (m * t2) / mr
    return t1, t2


def averaged_step(c: float, s: float, alpha: float, x1: float, x2: float, linf: bool) -> tuple[float, float]:
    """(1 - alpha) * x + alpha * T(x) on floats, with T = turn; the origin maps to (0.0, 0.0)."""
    if x1 == 0.0 and x2 == 0.0:
        return 0.0, 0.0
    t1, t2 = turn(c, s, x1, x2, linf)
    return (1.0 - alpha) * x1 + alpha * t1, (1.0 - alpha) * x2 + alpha * t2


def rotate(op: RotationOp, x: Vec2) -> Vec2:
    """Apply the rotation matrix to x.  Preserves the Euclidean norm."""
    return Vec2(*turn(op.cos_theta, op.sin_theta, x.x1, x.x2, False))


def norm(x: Vec2, kind: NormKind) -> float:
    """Euclidean or max norm of x."""
    if kind is NormKind.L2:
        return math.hypot(x.x1, x.x2)
    return max(abs(x.x1), abs(x.x2))


def gamma(op: RotationOp, x: Vec2) -> float:
    """Rescaling factor ||x||_inf / ||Rx||_inf; lies in [sqrt(2)/2, sqrt(2)].

    x is first scaled by the power of two that brings ||x||_inf into
    [0.5, 1).  The ratio is scale-invariant and the scaling is exact, so
    the result has the same bits as the unscaled formula unless a rotated
    product rounds to a subnormal.  Near the subnormal range the scaled
    formula keeps the rotated components that the unscaled one loses.

    Undefined at the origin: callers must treat the zero vector as the fixed
    point and never ask for its rescaling.
    """
    if x.is_zero():
        raise ZeroVectorError("gamma is undefined at the zero vector")
    e = -math.frexp(max(abs(x.x1), abs(x.x2)))[1]
    x1, x2 = math.ldexp(x.x1, e), math.ldexp(x.x2, e)
    t1, t2 = turn(op.cos_theta, op.sin_theta, x1, x2, False)
    return max(abs(x1), abs(x2)) / max(abs(t1), abs(t2))


def normalized_rotate(op: RotationOp, x: Vec2) -> Vec2:
    """Rotate x and rescale the image back onto the max-norm sphere of x: gamma(op, x) * Rx."""
    if x.is_zero():
        raise ZeroVectorError("normalized rotation is undefined at the zero vector")
    return Vec2(*turn(op.cos_theta, op.sin_theta, x.x1, x.x2, True))


def apply_averaged(op: RotationOp, kind: NormKind, alpha: float, x: Vec2) -> Vec2:
    """One averaged step (1 - alpha) * x + alpha * T(x): averaged_step on a checked Vec2.

    T is turn: the plain rotation under the Euclidean norm (the Euclidean
    rescaling factor is identically 1) and the rescaled rotation under the
    max norm.  The origin is an absorbing fixed point in both cases.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1): got {alpha}")
    return Vec2(*averaged_step(op.cos_theta, op.sin_theta, alpha, x.x1, x.x2, kind is NormKind.LINF))


def km_step(
    c: float,
    s: float,
    alpha: float,
    x1: np.ndarray,
    x2: np.ndarray,
    linf: bool,
    w1: np.ndarray | None = None,
    w2: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The averaged step (1 - alpha) * x + alpha * (T(x) + w) on float64 arrays.

    Element-wise over the points (x1[i], x2[i]) of 1-D arrays, with the
    rotation given by c = cos(theta) and s = sin(theta).  T is the rescaled
    rotation when `linf` is set and the plain one otherwise; T fixes the
    origin.  The noise w1, w2 is added to T(x) only when given.  Without it
    every element is bit-identical to averaged_step on that point, down to
    the sign of zero: the origin maps to +0.0, and no zero is added, since
    t + 0.0 would turn t = -0.0 into +0.0.
    """
    t1 = c * x1 - s * x2
    t2 = s * x1 + c * x2
    if linf:
        m = np.maximum(np.abs(x1), np.abs(x2))
        mr = np.maximum(np.abs(t1), np.abs(t2))
        mr[mr == 0.0] = 1.0  # only at the origin, where m is 0
        t1 = (m * t1) / mr
        t2 = (m * t2) / mr
    if w1 is None:
        origin = (x1 == 0.0) & (x2 == 0.0)
        t1[origin] = 0.0
        t2[origin] = 0.0
    else:
        t1 = t1 + w1
        t2 = t2 + w2
    return (1.0 - alpha) * x1 + alpha * t1, (1.0 - alpha) * x2 + alpha * t2
