"""Iteration engine: the iterates of a run, produced as they are read; alpha is a number or a rule k -> alpha_k."""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from itertools import repeat

from .errors import NonFiniteError, check_alpha, check_count, check_finite_nonneg
from .rotation import Angle, NormKind, Vec2, averaged_step, norm, sin_cos_pi


CLIP_MAX = 0.99

# Decaying step-size rules k -> alpha_k for 1-indexed step k.  Each reaches
# 1 or more at k = 1, where the step would be pure rotation and make no
# progress, so values are clipped to CLIP_MAX: every one lies in (0, CLIP_MAX].
DECAYING: dict[str, Callable[[int], float]] = {
    "invlog": lambda k: min(CLIP_MAX, 1.0 / math.log(k + 1)),
    "invsqrt": lambda k: min(CLIP_MAX, 1.0 / math.sqrt(k)),
    "invk": lambda k: min(CLIP_MAX, 1.0 / k),
}


def run_km(theta: Angle, norm_kind: NormKind, alpha: float | Callable[[int], float], x1: Vec2,
           steps: int) -> Iterator[tuple[float, float, float]]:
    """Iterate x_{k+1} = (1 - alpha_k) x_k + alpha_k T(x_k), k = 1 .. steps-1, on plain floats.

    alpha is a number in (0, 1), the step size of every step, or a rule
    k -> alpha_k, a DECAYING entry say.  Returns an iterator over the
    `steps` iterates, the start first, as (x1, x2, norm); each is stepped
    when it is read.  Max-norm norms do not increase beyond rounding (a step
    can end 1 ulp above the last); at a constant alpha the Euclidean squared
    norm contracts by an exact per-step factor.  Raises InvalidAlphaError
    for a number outside (0, 1), and NonFiniteError when the initial norm
    overflows, before it returns; the iterator raises NonFiniteError at the
    first iterate with a non-finite coordinate (the rotation overflows
    within a factor sqrt(2) of the largest double).
    """
    if not callable(alpha):
        check_alpha(alpha)
    check_count("steps", steps)
    d = norm(x1, norm_kind)
    check_finite_nonneg("initial norm", d)
    s, c = sin_cos_pi(theta.fraction)
    linf = norm_kind is NormKind.LINF
    isfinite, hypot = math.isfinite, math.hypot  # local names: the loop runs once per CSV row

    def iterates() -> Iterator[tuple[float, float, float]]:
        y1, y2 = x1.x1, x1.x2
        yield y1, y2, d
        for a in map(alpha, range(1, steps)) if callable(alpha) else repeat(alpha, steps - 1):
            y1, y2 = averaged_step(c, s, a, y1, y2, linf)
            if not (isfinite(y1) and isfinite(y2)):
                raise NonFiniteError(f"coordinates must be finite: {(y1, y2)}")
            if linf:
                n1, n2 = abs(y1), abs(y2)
                yield y1, y2, n1 if n1 >= n2 else n2  # max(n1, n2), without the builtin's call cost
            else:
                yield y1, y2, hypot(y1, y2)

    return iterates()
