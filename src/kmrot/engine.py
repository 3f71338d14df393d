"""Iteration engine: step-size schedules and the iterates of a run, produced as they are read."""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Iterator

from .errors import NonFiniteError, check_alpha, check_count, check_finite_nonneg
from .rotation import Angle, NormKind, Vec2, averaged_step, norm, sin_cos_pi


CLIP_MAX = 0.99


class ScheduleKind(enum.Enum):
    CONSTANT = "const"
    INV_LOG = "invlog"
    INV_SQRT = "invsqrt"
    INV_K = "invk"


class Schedule(namedtuple("Schedule", "kind alpha")):
    """Step-size rule alpha_k.

    Decaying rules exceed 1 for small k (1/log at k = 1, 1/sqrt(k) and 1/k
    at k = 1), where the step would be pure rotation and make no progress,
    so emitted values are clipped to CLIP_MAX < 1.
    """

    __slots__ = ()

    def __new__(cls, kind: ScheduleKind, alpha: float | None = None) -> Schedule:
        if kind is ScheduleKind.CONSTANT:
            check_alpha(alpha)
        elif alpha is not None:
            raise ValueError(f"{kind.value} schedule takes no alpha")
        return super().__new__(cls, kind, alpha)


def step_size(s: Schedule, k: int) -> float:
    """alpha_k for 1-indexed step k.  Always in (0, CLIP_MAX]."""
    if k < 1:
        raise ValueError(f"step index is 1-based: got {k}")
    if s.kind is ScheduleKind.CONSTANT:
        return s.alpha
    if s.kind is ScheduleKind.INV_LOG:
        return min(CLIP_MAX, 1.0 / math.log(k + 1))
    if s.kind is ScheduleKind.INV_SQRT:
        return min(CLIP_MAX, 1.0 / math.sqrt(k))
    return min(CLIP_MAX, 1.0 / k)


def run_km(theta: Angle, norm_kind: NormKind, schedule: Schedule, x1: Vec2,
           steps: int) -> Iterator[tuple[float, float, float]]:
    """Iterate x_{k+1} = (1 - alpha_k) x_k + alpha_k T(x_k), k = 1 .. steps-1, on plain floats.

    Returns an iterator over the `steps` iterates, the start first, as
    (x1, x2, norm); each is stepped when it is read.  Max-norm norms do not
    increase beyond rounding (a step can end 1 ulp above the last); under a
    constant schedule the Euclidean squared norm contracts by an exact
    per-step factor.  Raises NonFiniteError when the initial norm overflows,
    before it returns; the iterator raises it at the first iterate with a
    non-finite coordinate (the rotation overflows within a factor sqrt(2)
    of the largest double).
    """
    check_count("steps", steps)
    d = norm(x1, norm_kind)
    check_finite_nonneg("initial norm", d)
    s, c = sin_cos_pi(theta.fraction)
    linf = norm_kind is NormKind.LINF
    isfinite, hypot = math.isfinite, math.hypot  # local names: the loop runs once per CSV row
    alpha = schedule.alpha  # None for a decaying schedule

    def iterates() -> Iterator[tuple[float, float, float]]:
        y1, y2 = x1.x1, x1.x2
        yield y1, y2, d
        for k in range(1, steps):
            a = step_size(schedule, k) if alpha is None else alpha
            y1, y2 = averaged_step(c, s, a, y1, y2, linf)
            if not (isfinite(y1) and isfinite(y2)):
                raise NonFiniteError(f"coordinates must be finite: {(y1, y2)}")
            if linf:
                n1, n2 = abs(y1), abs(y2)
                yield y1, y2, n1 if n1 >= n2 else n2  # max(n1, n2), without the builtin's call cost
            else:
                yield y1, y2, hypot(y1, y2)

    return iterates()
