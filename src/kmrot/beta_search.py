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

numpy is imported by the functions that build arrays, not by the module:
bounds imports search_beta_u for linf_bound, and a simulate or bound run
whose beta_u comes from the table, or needs none, never builds an array, so
it starts without loading numpy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import OutOfRangeError
from .rotation import Angle, Vec2, km_step, sin_cos_pi, tan_pi

if TYPE_CHECKING:
    import numpy as np

_REFINE_FACTOR = 10
# Starts stepped together; bounds the memory of one batch.
_CHUNK = 4096
# The grid step range of search_beta_u.  The lower end caps the coarse
# sweep at 2e6 + 1 starts.
MIN_GRID_STEP = 1e-6
MAX_GRID_STEP = 1e-3
# The most averaged steps (period x starts) one search may take.
MAX_SEARCH_STEPS = 2**31


class BetaSearchResult(NamedTuple):
    period: int
    beta_u: float
    argmax_start: Vec2


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
    import numpy as np

    # the first step writes new arrays, so ts stays for the result; the others step in place
    x1, x2 = km_step(c, s, 0.5, ts, np.ones_like(ts), True)
    for _ in range(period - 1):
        km_step(c, s, 0.5, x1, x2, True, out=(x1, x2))
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
    import numpy as np

    period = pseudo_period(theta)
    if not MIN_GRID_STEP <= grid_step <= MAX_GRID_STEP:
        raise ValueError(f"grid_step must lie in [{MIN_GRID_STEP:g}, {MAX_GRID_STEP:g}]: got {grid_step}")

    n = round(2.0 / grid_step)
    work = period * (n + 1 + 2 * _REFINE_FACTOR + 1)
    if work > MAX_SEARCH_STEPS:
        raise OutOfRangeError(f"contraction search at theta = {theta} with grid_step {grid_step:g} needs "
                              f"{work} averaged steps, above the limit of {MAX_SEARCH_STEPS}")
    s, c = sin_cos_pi(theta.fraction)

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

    return BetaSearchResult(period, best, Vec2(best_t, 1.0))
