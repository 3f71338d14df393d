"""Shared helpers for the test suite."""

from __future__ import annotations

import csv
import io
import math
import os
import random
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

import pytest

from kmrot import Angle, McConfig, beta_l, mu, pseudo_period, run_km, run_stochastic_km
from kmrot.bounds import BoundCurve
from kmrot.cli import main
from kmrot.rotation import averaged_step, sin_cos_pi


# The paper's per-period contraction factors beta_u, to four decimals.
PUBLISHED_BETA_U = {
    (1, 12): 0.8974,
    (1, 6): 0.8211,
    (1, 4): 0.7504,
    (1, 3): 0.6830,
    (1, 2): 0.5,
}


def sample_angle(rng: random.Random, max_q: int = 64, upper: int = 2) -> Angle:
    """Random canonical angle (p/q)*pi with p/q in (0, upper)."""
    q = rng.randint(1, max_q)
    p = rng.randint(1, upper * q - 1)
    return Angle(p, q)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def assert_no_child_left() -> None:
    """No child process of this one is running or waiting to be reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# |mean - E r_k| allowed, in exact standard errors: bench/refcheck.py's Z_MC.
# For a normal mean that fails with probability 2e-9 per step, 2e-6 over
# 1000 steps.
Z_MC = 6.0


def mc_z_scores(cfg: McConfig, mean_sq_norm: Sequence[float]) -> list[float]:
    """(mean_k - E r_k) / sqrt(Var r_k / replicas) per k, for r_k = ||x_k||_2^2 under `cfg`.

    E r_k and Var r_k are exact rationals.  With y = ((1 - alpha) I + alpha R) x,
    ||y||^2 = mu r for the program's double mu, and noise w ~ N(0, sigma^2 I)
    with 2 sigma^2 = a + b r, the step gives r' = mu r + 2 alpha y.w
    + alpha^2 ||w||^2.  Odd moments of w vanish, E (y.w)^2 = sigma^2 mu r,
    E ||w||^2 = 2 sigma^2 and E ||w||^4 = 8 sigma^4, so
        E r' = rho E r + alpha^2 a,  rho = mu + alpha^2 b,
        E r'^2 = kappa E r^2 + 4 alpha^2 a (mu + alpha^2 b) E r + 2 alpha^4 a^2,
    with kappa = mu^2 + 4 alpha^2 mu b + 2 alpha^4 b^2, started from the
    program's double r_1 = x1^2 + x2^2.  Every input is a double, a dyadic
    rational, so the recursion runs on integers p, q with E r_k = p / 2^(s k)
    and E r_k^2 = q / 2^(2 s k): shifts and small multipliers, no gcd.
    Where Var r_k = 0 the score is 0 for an exact mean and infinite otherwise.
    """
    m, alpha, a, b = map(Fraction, (mu(cfg.alpha, cfg.theta), cfg.alpha, cfg.noise.a, cfg.noise.b))
    start = Fraction(cfg.x1.x1 * cfg.x1.x1 + cfg.x1.x2 * cfg.x1.x2)
    al2 = alpha * alpha
    first = (m + al2 * b, al2 * a, start)  # terms that scale by 2^s
    second = (m * m + 4 * al2 * m * b + 2 * al2 * al2 * b * b, 4 * al2 * a * (m + al2 * b), 2 * al2 * al2 * a * a)
    s = max([f.denominator.bit_length() - 1 for f in first] + [f.denominator.bit_length() // 2 for f in second])
    rho, c1, p = (int(f * 2**s) for f in first)
    kappa, lin, c2 = (int(f * 4**s) for f in second)
    q = p * p
    n = cfg.replicas
    zs = []
    for k, mean in enumerate(mean_sq_norm, 1):
        num, den = mean.as_integer_ratio()
        e = s * k
        diff = (num << e) - p * den  # (mean - E r_k) * den * 2^(s k)
        var = q - p * p  # Var r_k * 2^(2 s k)
        z2 = diff * diff * n / (den * den * var) if var else (0.0 if diff == 0 else math.inf)
        zs.append(math.sqrt(z2) if diff >= 0 else -math.sqrt(z2))
        p, q = rho * p + (c1 << e), kappa * q + (lin * p << e) + (c2 << 2 * e)
    return zs


class Columns(NamedTuple):
    """The iterates of a run as columns: (x1[i], x2[i]) is x_{i+1}, norms[i] its norm."""

    x1: tuple[float, ...]
    x2: tuple[float, ...]
    norms: tuple[float, ...]


def trajectory(*args) -> Columns:
    """run_km(*args), read to the end and collected into columns."""
    return Columns(*map(tuple, zip(*run_km(*args))))


def values(curve: BoundCurve) -> tuple[float, ...]:
    """Every value of a bound curve, read into a tuple."""
    return tuple(curve.values)


class McColumns(NamedTuple):
    """The rows of a Monte Carlo run as columns, with its bound's values read into a tuple."""

    mean_sq_norm: tuple[float, ...]
    std_err: tuple[float, ...]
    bound: BoundCurve | None
    unstable: bool


def mc_columns(cfg: McConfig) -> McColumns:
    """run_stochastic_km(cfg), read to the end and collected into columns."""
    res = run_stochastic_km(cfg)
    mean, serr = zip(*res.rows)
    return McColumns(mean, serr, None if res.bound is None else BoundCurve(values(res.bound)), res.unstable)


class PeriodReport(NamedTuple):
    """Outcome of scalar_period_check; violations are counted, not raised."""

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


def scalar_period_check(theta: Angle, beta_u: float, trials: int, seed: int, tol: float = 1e-6) -> PeriodReport:
    """Check beta_l * ||x_i|| <= ||x_{i+T}|| <= beta_u * ||x_i|| on random max-norm runs, one at a time.

    Each trial starts from a random direction scaled to the square, advances
    a random offset i - 1 so x_i sits at an arbitrary point of an actual
    trajectory, then takes one more pseudo-period T.  Tolerance is absolute;
    starts are unit scale and max-norm iterates never grow by more than
    rounding.
    """
    s, c = sin_cos_pi(theta.fraction)
    period = pseudo_period(theta)
    lower_factor = beta_l(theta)
    rng = random.Random(seed)
    upper = lower = 0
    ratios = []
    for _ in range(trials):
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x1, x2 = math.cos(phi), math.sin(phi)
        m = max(abs(x1), abs(x2))
        x1, x2 = x1 / m, x2 / m
        for _ in range(rng.randrange(1, 2 * period + 1) - 1):
            x1, x2 = averaged_step(c, s, 0.5, x1, x2, True)
        n_i = max(abs(x1), abs(x2))
        for _ in range(period):
            x1, x2 = averaged_step(c, s, 0.5, x1, x2, True)
        n_f = max(abs(x1), abs(x2))
        ratios.append(n_f / n_i)
        upper += n_f > beta_u * n_i + tol
        lower += n_f < lower_factor * n_i - tol
    return PeriodReport(theta, period, trials, upper, lower, min(ratios), max(ratios))
