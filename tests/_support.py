"""Shared helpers for the test suite."""

from __future__ import annotations

import csv
import io
import random
from typing import NamedTuple

from kmrot import Angle, BoundCurve, run_km
from kmrot.cli import main


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
