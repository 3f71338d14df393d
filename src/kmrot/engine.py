"""Iteration engine: step-size schedules and trajectory recording."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NonFiniteError
from .rotation import Angle, NormKind, RotationOp, Vec2, averaged_step, norm


CLIP_MAX = 0.99


class ScheduleKind(enum.Enum):
    CONSTANT = "const"
    INV_LOG = "invlog"
    INV_SQRT = "invsqrt"
    INV_K = "invk"


@dataclass(frozen=True)
class Schedule:
    """Step-size rule alpha_k.

    Decaying rules exceed 1 for small k (1/log at k = 1, 1/sqrt(k) and 1/k
    at k = 1), where the step would be pure rotation and make no progress,
    so emitted values are clipped to CLIP_MAX < 1.
    """

    kind: ScheduleKind
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.kind is ScheduleKind.CONSTANT:
            if self.alpha is None or not 0.0 < self.alpha < 1.0:
                raise ValueError(f"constant schedule needs alpha in (0, 1): got {self.alpha}")
        elif self.alpha is not None:
            raise ValueError(f"{self.kind.value} schedule takes no alpha")

    @classmethod
    def constant(cls, alpha: float) -> Schedule:
        return cls(ScheduleKind.CONSTANT, alpha)

    @classmethod
    def inv_log(cls) -> Schedule:
        return cls(ScheduleKind.INV_LOG)

    @classmethod
    def inv_sqrt(cls) -> Schedule:
        return cls(ScheduleKind.INV_SQRT)

    @classmethod
    def inv_k(cls) -> Schedule:
        return cls(ScheduleKind.INV_K)


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


@dataclass(frozen=True)
class Trajectory:
    """Recorded iterates x_1 .. x_steps as coordinate columns, with their norms.

    (x1[i], x2[i]) is the iterate x_{i+1}, matching the 1-based k of the
    bound formulas, and norms[i] its norm: norms[0] is the initial distance.
    """

    x1: tuple[float, ...]
    x2: tuple[float, ...]
    norms: tuple[float, ...]


def run_km(theta: Angle, norm_kind: NormKind, schedule: Schedule, x1: Vec2, steps: int) -> Trajectory:
    """Iterate x_{k+1} = (1 - alpha_k) x_k + alpha_k T(x_k), k = 1 .. steps-1, on plain floats.

    Returns all `steps` iterates including the start, as columns.  Max-norm
    norms do not increase beyond rounding (a step can end 1 ulp above the
    last); under a constant schedule the Euclidean squared norm contracts by
    an exact per-step factor.  Raises NonFiniteError when the initial norm
    overflows, before any step, or, from one check of the columns after
    the steps, at the first iterate with a non-finite coordinate (the
    max-norm rescaling can overflow).
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1: got {steps}")
    d = norm(x1, norm_kind)
    if not math.isfinite(d):
        raise NonFiniteError(f"initial norm must be finite: got {d}")
    op = RotationOp(theta)
    c, s, linf = op.cos_theta, op.sin_theta, norm_kind is NormKind.LINF
    y1, y2 = x1.x1, x1.x2
    xs1, xs2 = [y1], [y2]
    for k in range(1, steps):
        y1, y2 = averaged_step(c, s, step_size(schedule, k), y1, y2, linf)
        xs1.append(y1)
        xs2.append(y2)
    if not (all(map(math.isfinite, xs1)) and all(map(math.isfinite, xs2))):
        bad = next(p for p in zip(xs1, xs2) if not all(map(math.isfinite, p)))
        raise NonFiniteError(f"coordinates must be finite: {bad}")
    norms = map(max, map(abs, xs1), map(abs, xs2)) if linf else map(math.hypot, xs1, xs2)
    return Trajectory(tuple(xs1), tuple(xs2), tuple(norms))
