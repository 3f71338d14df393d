"""Reference checks for `kmrot` CSV output, computed apart from the program.

Every check takes the CSV text one CLI command printed and returns a list of
problems; an empty list means the output is correct.  Reference values come
from mpmath at 113 bits (quadruple precision) evaluated from the exact
inputs, never from the program's own functions and never from a stored copy
of earlier output.  Long columns are compared in numpy extended precision,
seeded from the same mpmath constants.

Tolerances are stated in units of the double epsilon EPS = 2**-52:

* one rounding: a value that is one correctly rounded operation away from
  its reference may differ by 1 ulp;
* long recursions: iterate k carries up to k rounded steps, so a value at
  k is allowed a relative error of tol(k) = 8 * EPS * (k + 16);
* the max-norm step: one step from the previous printed iterate, recomputed
  in mpmath with the exact cos and sin, may differ by 4 ulp of the previous
  iterate's max norm;
* Monte Carlo means: within Z_MC standard errors of the exact recursion,
  plus tol(k) for rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

EPS = 2.0**-52
Z_MC = 6.0
PUBLISHED_TOL = 5e-4
SIM_HEADER = ["k", "x1", "x2", "norm_value", "bound_value"]
BOUND_HEADER = ["k", "bound_value"]
SEARCH_HEADER = ["theta", "period", "beta_u", "argmax_t", "grid_step"]
MC_HEADER = ["k", "mean_sq_norm", "std_err", "bound_sq", "bound_unstable"]

_mp = mpmath.MPContext()
_mp.prec = 113


class _Bad(Exception):
    """A structural problem that makes further checks on an output pointless."""


def tol(k: np.ndarray | int) -> np.ndarray | float:
    """Relative error allowed at 1-based iterate k of a double recursion."""
    return 8.0 * EPS * (np.asarray(k, dtype=float) + 16.0)


def _rows(text: str, header: list[str], count: int | None) -> list[list[str]]:
    lines = text.split("\n")
    if lines[-1] != "":
        raise _Bad("output does not end with a newline")
    lines = lines[:-1]
    if not lines or lines[0].split(",") != header:
        raise _Bad(f"header is not {','.join(header)}")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise _Bad("a row has the wrong number of cells")
    if count is not None:
        if len(rows) != count:
            raise _Bad(f"expected {count} rows, got {len(rows)}")
        if [r[0] for r in rows] != [str(k) for k in range(1, count + 1)]:
            raise _Bad("k column is not 1..steps")
    return rows


def _floats(rows: list[list[str]], col: int) -> np.ndarray:
    try:
        return np.array([float(r[col]) for r in rows])
    except ValueError as exc:
        raise _Bad(f"column {col} holds a non-number: {exc}") from None


def _first(mask: np.ndarray) -> int:
    """1-based k of the first True entry."""
    return int(np.argmax(mask)) + 1


def _ld(x: mpmath.mpf) -> np.longdouble:
    """An mpmath value as an extended-precision number (hi + lo split)."""
    hi = float(x)
    return np.longdouble(hi) + np.longdouble(float(x - hi))


def _cos_sin(theta: Fraction) -> tuple[mpmath.mpf, mpmath.mpf]:
    arg = _mp.pi * _mp.mpf(theta.numerator) / theta.denominator
    return _mp.cos(arg), _mp.sin(arg)


def _mu(theta: Fraction, alpha: float) -> mpmath.mpf:
    a = _mp.mpf(alpha)
    c, _ = _cos_sin(theta)
    return 1 - 2 * a + 2 * a * a + 2 * a * (1 - a) * c


def beta_l(theta: Fraction) -> mpmath.mpf:
    """Closed-form per-period lower factor (1 + tan(pi/4 - theta/2)) / 2."""
    return (1 + _mp.tan(_mp.pi * (_mp.mpf(1) / 4 - _mp.mpf(theta.numerator) / (2 * theta.denominator)))) / 2


def period(theta: Fraction) -> int:
    return -(-theta.denominator // theta.numerator)


def _linf_step(c, s, alpha, x1, x2):
    m = max(abs(x1), abs(x2))
    r1 = c * x1 - s * x2
    r2 = s * x1 + c * x2
    mr = max(abs(r1), abs(r2))
    return (1 - alpha) * x1 + alpha * (m * r1 / mr), (1 - alpha) * x2 + alpha * (m * r2 / mr)


def one_period_ratio(theta: Fraction, t: float) -> mpmath.mpf:
    """||x_{1+T}||_inf from the edge start [t, 1], stepped in mpmath with alpha = 1/2."""
    c, s = _cos_sin(theta)
    half = _mp.mpf(0.5)
    x1, x2 = _mp.mpf(t), _mp.mpf(1)
    for _ in range(period(theta)):
        x1, x2 = _linf_step(c, s, half, x1, x2)
    return max(abs(x1), abs(x2))


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b), 5e-324))


def _guard(fn):
    # The output comes from outside the benchmark: a malformed cell or a
    # missing upstream output is a problem to report, not a crash.
    def wrapped(*args, **kwargs) -> list[str]:
        try:
            return fn(*args, **kwargs)
        except _Bad as exc:
            return [str(exc)]
        except (ValueError, IndexError) as exc:
            return [f"malformed output: {exc}"]
        except KeyError as exc:
            return [f"output of {exc} is missing"]
    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


@_guard
def simulate(text: str, outputs: dict[str, str], *, theta: Fraction, norm: str,
             x1: tuple[float, float], steps: int, beta_u: float | None = None,
             beta_from: str | None = None) -> list[str]:
    """Check `simulate` output with a constant step alpha = 1/2.

    beta_u is the contraction factor the bound column is expected to use for
    a max-norm run below pi/2; beta_from names the `search-beta` output it
    comes from instead.
    """
    rows = _rows(text, SIM_HEADER, steps)
    x = _floats(rows, 1), _floats(rows, 2)
    n = _floats(rows, 3)
    if any(r[4] == "" for r in rows):
        return ["bound column is empty"]
    b = _floats(rows, 4)
    k = np.arange(1, steps + 1)
    problems = []
    if (x[0][0], x[1][0]) != x1:
        problems.append("first iterate is not the start")
    if not np.all(np.isfinite(b)) or not np.all(n >= np.finfo(float).tiny):
        return problems + ["an iterate left the normal double range"]
    ax = np.maximum(np.abs(x[0]), np.abs(x[1]))

    if norm == "l2":
        # squares and sum are exact enough in extended precision to round to
        # the correctly rounded hypot, or within 1 ulp of it at a near-tie
        xl = x[0].astype(np.longdouble), x[1].astype(np.longdouble)
        exact = np.sqrt(xl[0] * xl[0] + xl[1] * xl[1]).astype(float)
        bad = np.abs(n - exact) > np.spacing(exact)
        if bad.any():
            problems.append(f"norm column is not the l2 norm of (x1, x2) at k={_first(bad)}")
        mu = _mu(theta, 0.5)
        d = _mp.sqrt(_mp.mpf(x1[0]) ** 2 + _mp.mpf(x1[1]) ** 2)
        ref = np.exp(_ld(_mp.log(d)) + (k - 1).astype(np.longdouble) * _ld(_mp.log(mu) / 2))
        bad = np.abs(n / ref - 1) > tol(k)
        if bad.any():
            problems.append(f"norm differs from mu^((k-1)/2)*D at k={_first(bad)}")
    else:
        if not np.array_equal(n, ax):
            problems.append(f"norm column is not the max norm of (x1, x2) at k={_first(n != ax)}")
        c, s = _cos_sin(theta)
        half = _mp.mpf(0.5)
        for i in range(steps - 1):
            y1, y2 = _linf_step(c, s, half, _mp.mpf(x[0][i]), _mp.mpf(x[1][i]))
            limit = 4.0 * math.ulp(ax[i])
            if abs(float(y1) - x[0][i + 1]) > limit or abs(float(y2) - x[1][i + 1]) > limit:
                problems.append(f"iterate k={i + 2} is not one max-norm step from k={i + 1}")
                break
        rise = n[1:] > n[:-1] + 2 * np.spacing(n[:-1])
        if rise.any():
            problems.append(f"max norm increases by more than 2 ulp at k={_first(rise) + 1}")
        if beta_from is not None:
            beta_u = float(_rows(outputs[beta_from], SEARCH_HEADER, None)[0][2])
        t = period(theta)
        d = _mp.mpf(max(abs(x1[0]), abs(x1[1])))
        ref = np.exp(_ld(_mp.log(d)) + ((k - 1) // t).astype(np.longdouble) * _ld(_mp.log(_mp.mpf(beta_u))))
    bad = np.abs(b / ref - 1) > tol(k)
    if bad.any():
        problems.append(f"bound column differs from the closed form at k={_first(bad)}")
    dominated = n <= b * (1 + tol(k))
    if not dominated.all():
        kk = _first(~dominated)
        problems.append(f"norm {rows[kk - 1][3]} exceeds bound {rows[kk - 1][4]} at k={kk}")
    return problems


@_guard
def bound(text: str, outputs: dict[str, str], *, steps: int, sim: str) -> list[str]:
    """`bound` output must equal the bound column of the matching `simulate`."""
    rows = _rows(text, BOUND_HEADER, steps)
    sim_rows = _rows(outputs[sim], SIM_HEADER, steps)
    for r, s in zip(rows, sim_rows):
        if r[1] != s[4]:
            return [f"bound differs from the simulate bound column at k={r[0]}"]
    return []


@_guard
def search_beta(text: str, outputs: dict[str, str], *, theta: Fraction, grid_step: float,
                published: float | None = None) -> list[str]:
    """Check one `search-beta` row against beta_l, the period, and a recomputed ratio."""
    rows = _rows(text, SEARCH_HEADER, None)
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    th, per, beta, t, grid = rows[0]
    problems = []
    if th != f"{theta.numerator}/{theta.denominator}":
        problems.append(f"theta cell {th!r} is not the input angle")
    if per != str(period(theta)):
        problems.append(f"period {per} is not ceil(q/p) = {period(theta)}")
    if float(grid) != grid_step:
        problems.append(f"grid_step {grid} is not the input {grid_step!r}")
    beta, t = float(beta), float(t)
    if not beta_l(theta) <= beta < 1.0:
        problems.append(f"beta_u = {beta!r} lies outside [beta_l, 1) = [{float(beta_l(theta))!r}, 1)")
    if published is not None and abs(beta - published) > PUBLISHED_TOL:
        problems.append(f"beta_u = {beta!r} is farther than {PUBLISHED_TOL} from the published {published}")
    if not -1.0 <= t <= 1.0:
        problems.append(f"argmax_t = {t!r} lies outside [-1, 1]")
    else:
        ratio = float(one_period_ratio(theta, t))
        if _ulps(beta, ratio) > 4 * period(theta):
            problems.append(f"beta_u = {beta!r} differs from the one-period ratio {ratio!r} at argmax_t")
    return problems


@_guard
def mc(text: str, outputs: dict[str, str], *, theta: Fraction, x1: tuple[float, float],
       a: float, b: float, steps: int, norm: str) -> list[str]:
    """Check `mc` output (alpha = 1/2) against the exact mean-square recursion.

    Under this noise model E||x_{k+1}||^2 = rho * E||x_k||^2 + alpha^2 * a
    with rho = mu + alpha^2 * b holds with equality, so the l2 mean must sit
    within Z_MC standard errors of it, and without noise it must equal
    mu^(k-1) * D^2 with a standard error at rounding level.
    """
    rows = _rows(text, MC_HEADER, steps)
    mean = _floats(rows, 1)
    se = _floats(rows, 2)
    k = np.arange(1, steps + 1)
    problems = []
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(se)) and np.all(se >= 0)):
        return ["mean or std_err is not finite and non-negative"]
    alpha = _mp.mpf(0.5)
    if norm == "linf":
        if any(r[3] != "" or r[4] != "" for r in rows):
            problems.append("a max-norm run prints a bound or a stability flag")
        d_sq = _mp.mpf(max(abs(x1[0]), abs(x1[1]))) ** 2
        if _ulps(mean[0], float(d_sq)) > 1.0 or se[0] > 4 * EPS * mean[0]:
            problems.append("k=1 row is not the squared max norm of the start with zero spread")
        return problems

    d_sq = _mp.mpf(x1[0]) ** 2 + _mp.mpf(x1[1]) ** 2
    rho = _mu(theta, 0.5) + alpha * alpha * _mp.mpf(b)
    exact = [d_sq]
    for _ in range(steps - 1):
        exact.append(rho * exact[-1] + alpha * alpha * _mp.mpf(a))
    ref = np.array([float(v) for v in exact])
    if any(r[4] != "0" for r in rows):
        return problems + ["stable l2 run does not flag bound_unstable = 0"]
    bsq = _floats(rows, 3)
    bad = np.abs(bsq / ref - 1) > tol(k)
    if bad.any():
        problems.append(f"bound_sq differs from the closed form at k={_first(bad)}")
    if a == 0.0 and b == 0.0:
        bad = np.abs(mean / ref - 1) > tol(k)
        if bad.any():
            problems.append(f"noiseless mean differs from mu^(k-1)*D^2 at k={_first(bad)}")
        bad = se > 4 * EPS * mean
        if bad.any():
            problems.append(f"noiseless std_err is above rounding level at k={_first(bad)}")
    else:
        bad = np.abs(mean - ref) > Z_MC * se + tol(k) * ref
        if bad.any():
            kk = _first(bad)
            problems.append(f"mean {rows[kk - 1][1]} is more than {Z_MC:g} std_err from "
                            f"the exact {ref[kk - 1]!r} at k={kk}")
    return problems
