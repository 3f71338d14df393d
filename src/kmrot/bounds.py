"""Closed-form per-iteration upper bounds for the averaged rotation iteration.

Every evaluator returns a BoundCurve aligned index-for-index with a
Trajectory: values[i] bounds the distance to the fixed point at iterate
k = i + 1, and values[0] always equals the initial distance (squared, for
the mean-square noise bound).  Bounds exist only for constant step sizes.

The max-norm bound searches for its per-period factor beta_u with
kmrot.beta_search unless the caller passes one (the paper's table, say).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .beta_search import pseudo_period, search_beta_u
from .errors import InvalidAlphaError, NonFiniteError, UnstableError, UnsupportedAlphaError
from .rotation import Angle, sin_cos_pi, tan_pi

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class BoundCurve:
    """Upper-bound values per iterate; values[0] is D = dist(x_1, 0), or D^2 for noise_bound."""

    values: tuple[float, ...]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise InvalidAlphaError(f"alpha must lie in (0, 1): got {alpha}")


def _check_k_max(k_max: int) -> None:
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1: got {k_max}")


def _check_initial(d: float, name: str = "initial distance") -> None:
    if not math.isfinite(d):
        raise NonFiniteError(f"{name} must be finite: got {d}")
    if d < 0.0:
        raise ValueError(f"{name} must be >= 0: got {d}")


def mu(alpha: float, theta: Angle) -> float:
    """Exact one-step contraction factor of the squared Euclidean norm.

    mu = 1 - 2*alpha + 2*alpha^2 + 2*alpha*(1 - alpha)*cos(theta), evaluated
    as (1 - 2*alpha)^2 + 2*alpha*(1 - alpha)*(1 + cos(theta)): both terms are
    >= 0, so nothing cancels near theta = pi.  Strictly below 1 for theta in
    (0, 2*pi).
    """
    _check_alpha(alpha)
    _, c = sin_cos_pi(theta.fraction)
    u = 1.0 - 2.0 * alpha
    return u * u + 2.0 * alpha * (1.0 - alpha) * (1.0 + c)


def l2_bound(theta: Angle, alpha: float, d: float, k_max: int) -> BoundCurve:
    """Euclidean bound mu^((k-1)/2) * D; tight (the recursion is exact)."""
    _check_alpha(alpha)
    _check_k_max(k_max)
    _check_initial(d)
    g = mu(alpha, theta)
    return BoundCurve(tuple(g ** ((k - 1) / 2) * d for k in range(1, k_max + 1)))


def optimal_alpha_l2(theta: Angle) -> tuple[float, float]:
    """Minimizer of the per-step factor and its value: (0.5, (1 + cos(theta)) / 2)."""
    _, c = sin_cos_pi(theta.fraction)
    return 0.5, (1.0 + c) / 2.0


def linf_bound(theta: Angle, alpha: float, d: float, k_max: int,
               beta_u: float | None = None) -> BoundCurve:
    """Max-norm bound factor^floor((k-1)/period) * D; the angle range picks both.

    theta = pi:          |1 - 2*alpha| per step, any alpha in (0, 1).
    theta = pi/2:        0.5 per two steps.
    theta in (0, pi/2):  beta_u per pseudo-period T.  When beta_u is not
                         given, search_beta_u finds it (kmrot.beta_search).
    theta in (pi/2, pi): (1 + tan(3*pi/4 - theta)) / 2 per step.
    theta in (pi, 2*pi): evaluated at the mirror angle 2*pi - theta.
    Every range but theta = pi needs alpha = 0.5, checked before any search.
    """
    _check_alpha(alpha)
    _check_k_max(k_max)
    _check_initial(d)
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
        if beta_u is None:
            beta_u = search_beta_u(folded).beta_u
        if not 0.0 < beta_u < 1.0:
            raise ValueError(f"beta_u must lie in (0, 1): got {beta_u}")
        factor, period = beta_u, pseudo_period(folded)
    else:
        factor, period = (1.0 + tan_pi(Fraction(3, 4) - f)) / 2.0, 1
    return BoundCurve(tuple(factor ** ((k - 1) // period) * d for k in range(1, k_max + 1)))


def noise_bound(theta: Angle, alpha: float, d_sq: float, a: float, b: float, k_max: int) -> BoundCurve:
    """Mean-square bound under zero-mean noise with affine second moment.

    With rho = mu + alpha^2 * b, values[k] = rho^(k-1) * D^2
    + a * alpha^2 * (1 - rho^(k-1)) / (1 - rho).  Requires rho < 1; for
    b > 0 that means b < (1 - mu) / alpha^2.  Values bound the expected
    squared Euclidean norm, not the norm itself.
    """
    _check_k_max(k_max)
    _check_initial(d_sq, "initial squared distance")
    if a < 0.0 or b < 0.0:
        raise ValueError(f"noise parameters must be >= 0: a={a}, b={b}")
    m = mu(alpha, theta)
    rho = m + alpha * alpha * b
    if rho >= 1.0:
        raise UnstableError(
            f"mu + alpha^2*b = {rho} >= 1; the noise series diverges "
            f"(need b < {(1.0 - m) / (alpha * alpha)})"
        )
    tail = a * alpha * alpha / (1.0 - rho)
    values = []
    for k in range(1, k_max + 1):
        rk = rho ** (k - 1)
        values.append(rk * d_sq + tail * (1.0 - rk))
    return BoundCurve(tuple(values))
