"""Brute-force search for the per-period max-norm contraction factor beta_u.

The averaged max-norm step with alpha = 0.5 is positively homogeneous
(scaling the start scales the whole trajectory) and commutes with quarter
turns, which map the square's edges onto each other.  Every nonzero start
therefore reduces to a point on the top edge {[t, 1] : t in [-1, 1]}
without changing any norm ratio, and sweeping that single edge bounds the
T-step contraction ratio from anywhere, up to grid resolution.

The sweep steps a chunk of starts at a time through the element-wise
kernel km_step, so memory stays bounded for any grid.  Chunks run in
increasing t and each keeps its first maximum, so ties go to the smaller t
and the result is bit-identical for every chunk size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import OutOfRangeError
from .rotation import Angle, RotationOp, Vec2, km_step, tan_pi

# Four-decimal reference factors for common angles, reproduced by
# search_beta_u at the default grid_step of 1e-4.
REFERENCE_BETA_U: dict[Angle, float] = {
    Angle(1, 12): 0.8974,
    Angle(1, 6): 0.8211,
    Angle(1, 4): 0.7504,
    Angle(1, 3): 0.6830,
    Angle(1, 2): 0.5,
}

_REFINE_FACTOR = 10
# Starts (or trials) stepped together; bounds the memory of one batch.
_CHUNK = 4096
# The grid step range of search_beta_u.  The lower end caps the coarse
# sweep at 2e6 + 1 starts.
MIN_GRID_STEP = 1e-6
MAX_GRID_STEP = 1e-3
# The most averaged steps (period x starts) one search may take.
MAX_SEARCH_STEPS = 2**31


@dataclass(frozen=True)
class BetaSearchResult:
    theta: Angle
    period: int
    beta_u: float
    argmax_start: Vec2
    grid_step: float


@dataclass(frozen=True)
class PeriodCheckReport:
    """Outcome of randomized two-sided per-period checks.

    Violations are counted, not raised: the report carries the extreme
    ratios observed so a caller can judge how close the bounds run.
    """

    theta: Angle
    period: int
    trials: int
    upper_violations: int
    lower_violations: int
    min_ratio: float
    max_ratio: float

    @property
    def passed(self) -> bool:
        return self.upper_violations == 0 and self.lower_violations == 0


def pseudo_period(theta: Angle) -> int:
    """ceil(q/p) for theta = (p/q)*pi in (0, pi/2].

    The number of max-norm steps after which the iterate has provably swept
    past a corner of its square, so the per-period contraction applies.
    """
    if theta.fraction > Fraction(1, 2):
        raise OutOfRangeError(f"pseudo-period is defined for theta in (0, pi/2]: got {theta}")
    return -(-theta.q // theta.p)


def beta_l(theta: Angle) -> float:
    """Closed-form per-period lower bound (1 + tan(pi/4 - theta/2)) / 2.

    Valid for theta in (0, pi/2]; the iterate cannot contract by more than
    this factor over one pseudo-period.
    """
    if theta.fraction > Fraction(1, 2):
        raise OutOfRangeError(f"per-period lower bound needs theta in (0, pi/2]: got {theta}")
    return (1.0 + tan_pi(Fraction(1, 4) - theta.fraction / 2)) / 2.0


def _edge_max(c: float, s: float, period: int, ts: np.ndarray) -> tuple[float, float]:
    # The largest ||x_{1+T}||_inf over the edge starts [t, 1], t in ts
    # (ascending), and the first t attaining it; the start norm is 1.
    x1, x2 = ts, np.ones_like(ts)
    for _ in range(period):
        x1, x2 = km_step(c, s, 0.5, x1, x2, True)
    ratio = np.maximum(np.abs(x1), np.abs(x2))
    i = int(np.argmax(ratio))
    return float(ratio[i]), float(ts[i])


def search_beta_u(theta: Angle, grid_step: float = 1e-4) -> BetaSearchResult:
    """Sweep the top edge of the square and return the worst T-step ratio.

    The coarse sweep uses round(2 / grid_step) + 1 evenly spaced starts on
    [-1, 1]; a second pass at grid_step / 10 around the coarse argmax
    stabilizes the fourth decimal.  Requires theta in (0, pi/2] in lowest
    terms, grid_step in [MIN_GRID_STEP, MAX_GRID_STEP], and at most
    MAX_SEARCH_STEPS averaged steps over both passes.
    """
    if theta.fraction > Fraction(1, 2):
        raise OutOfRangeError(f"contraction search needs theta in (0, pi/2]: got {theta}")
    if not MIN_GRID_STEP <= grid_step <= MAX_GRID_STEP:
        raise ValueError(f"grid_step must lie in [{MIN_GRID_STEP:g}, {MAX_GRID_STEP:g}]: got {grid_step}")

    period = pseudo_period(theta)
    n = round(2.0 / grid_step)
    work = period * (n + 1 + 2 * _REFINE_FACTOR + 1)
    if work > MAX_SEARCH_STEPS:
        raise OutOfRangeError(f"contraction search at theta = {theta} with grid_step {grid_step:g} needs "
                              f"{work} averaged steps, above the limit of {MAX_SEARCH_STEPS}")
    op = RotationOp(theta)
    c, s = op.cos_theta, op.sin_theta

    best, best_t = -1.0, 0.0
    for lo in range(0, n + 1, _CHUNK):
        ts = -1.0 + (2.0 * np.arange(lo, min(lo + _CHUNK, n + 1))) / n
        r, t = _edge_max(c, s, period, ts)
        if r > best:
            best, best_t = r, t

    # The fine starts include best_t itself, so their first maximum is the
    # refined result, ties again going to the smaller t.
    span = 2.0 / n
    fine = [best_t + span * j / _REFINE_FACTOR for j in range(-_REFINE_FACTOR, _REFINE_FACTOR + 1)]
    best, best_t = _edge_max(c, s, period, np.array([t for t in fine if -1.0 <= t <= 1.0]))

    return BetaSearchResult(theta, period, best, Vec2(best_t, 1.0), grid_step)


def verify_period_contraction(
    theta: Angle,
    beta_u: float,
    trials: int = 10_000,
    seed: int = 0,
    tol: float = 1e-6,
) -> PeriodCheckReport:
    """Check beta_l * ||x_i|| <= ||x_{i+T}|| <= beta_u * ||x_i|| on random runs.

    Each trial starts from a random direction scaled to the square, advances
    a random offset i - 1 so x_i sits at an arbitrary point of an actual
    trajectory, then takes one more pseudo-period.  Trials are stepped
    together in chunks; the report does not depend on the chunk size.
    Tolerance is absolute; starts are unit scale and max-norm iterates
    never grow by more than rounding.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1: got {trials}")
    period = pseudo_period(theta)
    lower = beta_l(theta)
    op = RotationOp(theta)
    c, s = op.cos_theta, op.sin_theta
    rng = random.Random(seed)

    upper_violations = 0
    lower_violations = 0
    min_ratio, max_ratio = float("inf"), float("-inf")
    for lo in range(0, trials, _CHUNK):
        # the draws keep the per-trial order (direction, then offset)
        draws = [(rng.uniform(0.0, 2.0 * math.pi), rng.randrange(1, 2 * period + 1))
                 for _ in range(min(_CHUNK, trials - lo))]
        x1, x2 = np.array([_unit_square_point(phi) for phi, _ in draws]).T
        first = np.array([offset - 1 for _, offset in draws])
        n_i = np.empty(len(draws))
        n_f = np.empty(len(draws))
        for k in range(int(first.max()) + period + 1):
            if k:
                x1, x2 = km_step(c, s, 0.5, x1, x2, True)
            norm = np.maximum(np.abs(x1), np.abs(x2))
            np.copyto(n_i, norm, where=first == k)
            np.copyto(n_f, norm, where=first + period == k)
        ratio = n_f / n_i
        min_ratio = min(min_ratio, float(ratio.min()))
        max_ratio = max(max_ratio, float(ratio.max()))
        upper_violations += int(np.count_nonzero(n_f > beta_u * n_i + tol))
        lower_violations += int(np.count_nonzero(n_f < lower * n_i - tol))

    return PeriodCheckReport(theta, period, trials, upper_violations, lower_violations, min_ratio, max_ratio)


def _unit_square_point(phi: float) -> tuple[float, float]:
    x1, x2 = math.cos(phi), math.sin(phi)
    m = max(abs(x1), abs(x2))
    return x1 / m, x2 / m
