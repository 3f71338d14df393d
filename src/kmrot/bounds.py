"""Closed-form per-iteration upper bounds for the averaged rotation iteration.

Every evaluator returns a BoundCurve whose values are read in order, in
step with the iterates of run_km: the k-th value bounds the distance to the
fixed point at iterate k, and the first always equals the initial distance
(squared, for the mean-square noise bound).  Every value is computed when
read, and each pass starts again at k = 1.  A curve cannot be indexed; it
keeps a len only for the benchmark's value count (BoundCurve).  Bounds
exist only for constant step sizes.

The max-norm bound searches for its per-period factor beta_u with
kmrot.beta_search unless the caller passes one (the paper's table, say) or
the curve ends within the first pseudo-period.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from .beta_search import pseudo_period, search_beta_u
from .errors import NonFiniteError, UnstableError, UnsupportedAlphaError, check_alpha, check_count, check_finite_nonneg
from .rotation import Angle, sin_cos_pi, tan_pi

_HALF = Fraction(1, 2)


class _Curve:
    """value(k) for k in `ks`, in order, each evaluated when read."""

    def __init__(self, value: Callable[[int], float], ks: range) -> None:
        self._value, self._ks = value, ks

    def __len__(self) -> int:
        return len(self._ks)

    def __iter__(self) -> Iterator[float]:
        return map(self._value, self._ks)


class BoundCurve(NamedTuple):
    """Upper-bound values per iterate, read in order; the first is D = dist(x_1, 0), or D^2 for noise_bound.

    The wrapper and len(values) stay for the benchmark's traced pass, which counts values with them.
    """

    values: Iterable[float]


def mu(alpha: float, theta: Angle) -> float:
    """Exact one-step contraction factor of the squared Euclidean norm.

    mu = 1 - 2*alpha + 2*alpha^2 + 2*alpha*(1 - alpha)*cos(theta), evaluated
    as (1 - 2*alpha)^2 + 2*alpha*(1 - alpha)*(1 + cos(theta)): both terms are
    >= 0, so nothing cancels near theta = pi.  Strictly below 1 for theta in
    (0, 2*pi).
    """
    check_alpha(alpha)
    _, c = sin_cos_pi(theta.fraction)
    u = 1.0 - 2.0 * alpha
    return u * u + 2.0 * alpha * (1.0 - alpha) * (1.0 + c)


def l2_bound(theta: Angle, alpha: float, d: float, k_max: int) -> BoundCurve:
    """Euclidean bound mu^((k-1)/2) * D; tight (the recursion is exact)."""
    g = mu(alpha, theta)
    check_count("k_max", k_max)
    check_finite_nonneg("initial distance", d)
    return BoundCurve(_Curve(lambda k: g ** ((k - 1) / 2) * d, range(1, k_max + 1)))


def optimal_alpha_l2(theta: Angle) -> tuple[float, float]:
    """Minimizer of the per-step factor and its value: (0.5, (1 + cos(theta)) / 2)."""
    return 0.5, mu(0.5, theta)


def linf_bound(theta: Angle, alpha: float, d: float, k_max: int,
               beta_u: float | None = None) -> BoundCurve:
    """Max-norm bound factor^floor((k-1)/period) * D; the angle range picks both.

    theta = pi:          |1 - 2*alpha| per step, any alpha in (0, 1).
    theta = pi/2:        0.5 per two steps.
    theta in (0, pi/2):  beta_u per pseudo-period T.  When beta_u is not
                         given and k_max > T, search_beta_u finds it
                         (kmrot.beta_search); no row up to k = T uses it.
    theta in (pi/2, pi): (1 + tan(3*pi/4 - theta)) / 2 per step.
    theta in (pi, 2*pi): evaluated at the mirror angle 2*pi - theta.
    Every range but theta = pi needs alpha = 0.5, checked before any search.
    A beta_u that is given must lie in (0, 1) at every angle.
    """
    check_alpha(alpha)
    check_count("k_max", k_max)
    check_finite_nonneg("initial distance", d)
    if beta_u is not None and not 0.0 < beta_u < 1.0:
        raise ValueError(f"beta_u must lie in (0, 1): got {beta_u}")
    folded = theta.folded()
    f = folded.fraction

    if f != 1 and alpha != 0.5:
        raise UnsupportedAlphaError(f"the max-norm bound for theta = {theta} is only derived "
                                    f"for alpha = 0.5: got {alpha}")
    if f == 1:
        factor, period = abs(1.0 - 2.0 * alpha), 1
    elif f == _HALF:
        factor, period = 0.5, 2
    elif f < _HALF:
        period = pseudo_period(folded)
        if beta_u is None:
            # rows k <= period take factor^0, so a curve that short needs no search
            beta_u = search_beta_u(folded).beta_u if k_max > period else 0.5
        factor = beta_u
    else:
        factor, period = (1.0 + tan_pi(Fraction(3, 4) - f)) / 2.0, 1
    return BoundCurve(_Curve(lambda k: factor ** ((k - 1) // period) * d, range(1, k_max + 1)))


def noise_bound(theta: Angle, alpha: float, d_sq: float, a: float, b: float, k_max: int) -> BoundCurve:
    """Mean-square bound under zero-mean noise with affine second moment.

    With rho = mu + alpha^2 * b, the value at k is rho^(k-1) * D^2
    + a * alpha^2 * (1 - rho^(k-1)) / (1 - rho).  Requires rho < 1; for
    b > 0 that means b < (1 - mu) / alpha^2.  Values bound the expected
    squared Euclidean norm, not the norm itself.  Raises NonFiniteError
    when a value overflows or turns nan: at the call for k = 1, else when read.
    """
    m = mu(alpha, theta)
    check_count("k_max", k_max)
    check_finite_nonneg("initial squared distance", d_sq)
    check_finite_nonneg("noise parameter a", a)
    check_finite_nonneg("noise parameter b", b)
    rho = m + alpha * alpha * b
    if rho >= 1.0:
        # alpha^2 underflows to 0 below about 1e-162, where mu rounds to 1
        need = f" (need b < {(1.0 - m) / (alpha * alpha)})" if alpha * alpha > 0.0 else ""
        raise UnstableError(f"mu + alpha^2*b = {rho} >= 1; the noise series diverges{need}")
    tail = a * alpha * alpha / (1.0 - rho)

    def value(k: int) -> float:
        rk = rho ** (k - 1)
        v = rk * d_sq + tail * (1.0 - rk)
        if not math.isfinite(v):
            raise NonFiniteError(f"noise bound not finite at k = {k}: got {v} "
                                 f"(a * alpha^2 / (1 - rho) = {tail})")
        return v

    value(1)
    return BoundCurve(_Curve(value, range(1, k_max + 1)))
