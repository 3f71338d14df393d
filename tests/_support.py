"""Shared helpers for the test suite."""

from __future__ import annotations

import csv
import io
import math
import random
from typing import NamedTuple

from kmrot import Angle, BoundCurve, beta_l, pseudo_period, run_km, sin_cos_pi
from kmrot.cli import main
from kmrot.rotation import averaged_step


def sample_angle(rng: random.Random, max_q: int = 64, upper: int = 2) -> Angle:
    """Random canonical angle (p/q)*pi with p/q in (0, upper)."""
    q = rng.randint(1, max_q)
    p = rng.randint(1, upper * q - 1)
    return Angle(p, q)


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def run_cli(argv: list[str], capsys) -> tuple[int, str, str]:
    """Invoke the CLI in-process, returning (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
