"""Iteration engine: step-size schedules and trajectory recording."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .rotation import Angle, NormKind, RotationOp, Vec2, apply_averaged, norm


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
    """Recorded iterates x_1 .. x_steps with their norms.

    Lists are 0-based: points[i] holds the iterate x_{i+1}, matching the
    1-based indexing used by the bound formulas.  norms[0] is the initial
    distance to the fixed point (the origin).
    """

    norm_kind: NormKind
    theta: Angle
    schedule: Schedule
    points: tuple[Vec2, ...]
    norms: tuple[float, ...]

    @property
    def initial_distance(self) -> float:
        return self.norms[0]


def run_km(theta: Angle, norm_kind: NormKind, schedule: Schedule, x1: Vec2, steps: int) -> Trajectory:
    """Iterate x_{k+1} = (1 - alpha_k) x_k + alpha_k T(x_k) for k = 1 .. steps-1.

    Returns all `steps` iterates including the start.  The max-norm variant
    keeps norms non-increasing for every angle up to rounding (one step can
    end 1 ulp above the last norm); the Euclidean variant contracts the
    squared norm by an exact per-step factor when the schedule is constant.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1: got {steps}")
    op = RotationOp(theta)
    points = [x1]
    norms = [norm(x1, norm_kind)]
    x = x1
    for k in range(1, steps):
        x = apply_averaged(op, norm_kind, step_size(schedule, k), x)
        points.append(x)
        norms.append(norm(x, norm_kind))
    return Trajectory(norm_kind, theta, schedule, tuple(points), tuple(norms))
