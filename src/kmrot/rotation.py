"""Rational angles, 2D vectors, norms, and the averaged rotation step.

Angles are carried as exact rationals t = p/q in units of pi.  Keeping the
rational around (instead of a raw float) makes two things decidable without
float comparisons: membership in the quarter/half-turn set {pi/2, pi}, and
the pseudo-period ceil(q/p) used by the max-norm analysis.  sin_cos_pi
evaluates the trig values with argument reduction on the rational, so
quarter-turn multiples come out exact (sin(pi) is 0.0, not 1.2e-16).  All
arithmetic is double precision.

T is written once, as turn, for plain floats and float64 arrays alike, on
c = cos(theta) and s = sin(theta).  averaged_step builds the averaged step
on it for one point and km_step for arrays of points.  km_step imports
numpy itself, since it is the only function here that builds arrays:
simulate and bound step plain floats, so they start without loading
numpy.  RotationOp and apply_averaged at the end are not a second
operator: they adapt averaged_step to the call shape of the benchmark's
kernel probe, their only caller.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import NonFiniteError

if TYPE_CHECKING:
    import numpy as np

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


class Angle(namedtuple("Angle", "p q")):
    """Rotation angle theta = (p/q)*pi with 0 < p/q < 2, stored in lowest terms."""

    __slots__ = ()

    def __new__(cls, p: int, q: int) -> Angle:
        if p <= 0 or q <= 0:
            raise ValueError(f"angle numerator and denominator must be positive: {p}/{q}")
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if p >= 2 * q:
            raise ValueError(f"angle must lie in (0, 2)*pi: got {p}/{q}*pi")
        return super().__new__(cls, p, q)

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


class Vec2(namedtuple("Vec2", "x1 x2")):
    """A point in the plane.  Coordinates must be finite."""

    __slots__ = ()

    def __new__(cls, x1: float, x2: float) -> Vec2:
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise NonFiniteError(f"coordinates must be finite: ({x1}, {x2})")
        return super().__new__(cls, x1, x2)


def turn(c: float, s: float, x1: float | np.ndarray, x2: float | np.ndarray, linf: bool,
         maximum=max) -> tuple:
    """T(x): the rotation [[c, -s], [s, c]] of (x1, x2), rescaled when `linf` is set.

    Written once for floats and, with maximum=np.maximum, for float64
    arrays, element-wise.  The rescaled image is g * Rx, where the factor
    g = ||x||_inf / ||Rx||_inf lies in [sqrt(2)/2, sqrt(2)]: it stays at the
    scale of x, and T(2^e x) = 2^e T(x) bit for bit wherever every value is
    normal.  Undefined at the origin (0/0); its extremal component can
    land 1 ulp above ||x||_inf.  The rotation is orthogonal and its
    symmetric part is c * I, which is what makes the averaged step's
    squared-norm recursion exact under the Euclidean norm.
    """
    t1 = c * x1 - s * x2
    t2 = s * x1 + c * x2
    if linf:
        g = maximum(abs(x1), abs(x2)) / maximum(abs(t1), abs(t2))
        t1, t2 = t1 * g, t2 * g
    return t1, t2


def averaged_step(c: float, s: float, alpha: float, x1: float, x2: float, linf: bool) -> tuple[float, float]:
    """(1 - alpha) * x + alpha * T(x) on floats, with T = turn; the origin maps to (0.0, 0.0)."""
    if x1 == 0.0 and x2 == 0.0:
        return 0.0, 0.0
    t1, t2 = turn(c, s, x1, x2, linf)
    return (1.0 - alpha) * x1 + alpha * t1, (1.0 - alpha) * x2 + alpha * t2


def norm(x: Vec2, kind: NormKind) -> float:
    """Euclidean or max norm of x."""
    if kind is NormKind.L2:
        return math.hypot(x.x1, x.x2)
    return max(abs(x.x1), abs(x.x2))


def km_step(
    c: float,
    s: float,
    alpha: float,
    x1: np.ndarray,
    x2: np.ndarray,
    linf: bool,
    w1: np.ndarray | None = None,
    w2: np.ndarray | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The averaged step (1 - alpha) * x + alpha * (T(x) + w) on float64 arrays.

    Element-wise over the points (x1[i], x2[i]) of 1-D arrays, with the
    rotation given by c = cos(theta) and s = sin(theta) and T = turn.  T is
    set to +0.0 at the origin, where the rescaled rotation is 0/0, and the
    noise w1, w2 is added to T(x) only when given.  Without noise every
    element is bit-identical to averaged_step on that point, down to the
    sign of zero, since no zero is added: t + 0.0 would turn t = -0.0 into
    +0.0.  The step is written into the pair of arrays `out` when given,
    which may be x1 and x2 themselves, and into new arrays otherwise; the
    pair is returned either way.
    """
    import numpy as np

    with np.errstate(invalid="ignore"):
        t1, t2 = turn(c, s, x1, x2, linf, np.maximum)  # new arrays, updated in place below
    origin = (x1 == 0.0) & (x2 == 0.0)
    if np.count_nonzero(origin):  # lighter than origin.any(), which sets up a reduction
        t1[origin] = 0.0
        t2[origin] = 0.0
    if w1 is not None:
        t1 += w1
        t2 += w2
    t1 *= alpha
    t2 *= alpha
    y1, y2 = out or (None, None)
    y1 = np.multiply(1.0 - alpha, x1, out=y1)
    y2 = np.multiply(1.0 - alpha, x2, out=y2)
    y1 += t1
    y2 += t2
    return y1, y2


# Only bench/layers.py's kernel probe calls these two names, to time
# averaged_step; they go when the probe calls averaged_step itself
# (ROADMAP item 11).
def RotationOp(angle: Angle) -> tuple[float, float]:
    return sin_cos_pi(angle.fraction)


def apply_averaged(op: tuple[float, float], kind: NormKind, alpha: float, x: Vec2) -> tuple[float, float]:
    s, c = op
    return averaged_step(c, s, alpha, x.x1, x.x2, kind is NormKind.LINF)
