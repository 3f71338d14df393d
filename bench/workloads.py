"""The benchmark's workloads: the `kmrot` commands of one pass, made from a seed.

A workload is a list of CLI commands that one pass runs in order.  Each
command carries the reference check for its output and the number of
averaged steps it computes.  The seed only picks starts, Monte Carlo seeds
and a few grid offsets; the work per pass is the same for every seed.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import refcheck

# Argmax edge starts [t*, 1] of search_beta_u at the default grid 1e-4.
# Regenerate: PYTHONPATH=src python3 -c "from kmrot import *; [print(format(search_beta_u(Angle(1, q)).argmax_start.x1, '.17g')) for q in (12, 6, 4, 3)]"
ARGMAX_T = {
    Fraction(1, 12): -0.79479999999999995,
    Fraction(1, 6): -0.64239000000000013,
    Fraction(1, 4): -0.50089000000000006,
    Fraction(1, 3): 0.26795000000000002,
}
# The paper's four-decimal beta_u, which the program's built-in table repeats.
PUBLISHED_BETA_U = {
    Fraction(1, 12): 0.8974,
    Fraction(1, 6): 0.8211,
    Fraction(1, 4): 0.7504,
    Fraction(1, 3): 0.6830,
}
# At these angles the built-in beta_u lies below the true sup, so the bound
# printed from the argmax start is broken at the k given; see README.md.
TABLE_FAULT_K = {Fraction(1, 6): 7, Fraction(1, 4): 5, Fraction(1, 3): 4}
DEFAULT_GRID_STARTS = 20_001  # round(2 / 1e-4) + 1
REFINE_STARTS = 21  # the refine pass around an interior argmax

SIZES = {
    "full": {
        "traj_steps": 30_000, "fault_steps": 40, "grid_n": 50_000, "search_sim_steps": 2_000,
        "long_replicas": 20_000, "long_steps": 500, "side_replicas": 5_000, "side_steps": 200,
    },
    "tiny": {
        "traj_steps": 300, "fault_steps": 40, "grid_n": 4_000, "search_sim_steps": 100,
        "long_replicas": 2_000, "long_steps": 40, "side_replicas": 300, "side_steps": 20,
    },
}


@dataclass(frozen=True)
class Command:
    """One `kmrot` invocation of a pass.

    check(stdout_text, outputs_so_far) returns the problems found.  A
    known_fault command is expected to fail its check because of a fault in
    the program; it is counted as failed but does not make the run incorrect.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[str, dict[str, str]], list[str]]
    steps: int
    known_fault: str = ""


def _angle(theta: Fraction) -> str:
    return f"{theta.numerator}/{theta.denominator}"


def _vec(x: tuple[float, float]) -> str:
    return f"--x1={x[0]!r},{x[1]!r}"


def _start(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    """A start at a random direction with norm 10**U(lo, hi)."""
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = 10.0 ** rng.uniform(lo, hi)
    return r * math.cos(phi), r * math.sin(phi)


def _search_steps(theta: Fraction, coarse_starts: int) -> int:
    return (coarse_starts + REFINE_STARTS) * refcheck.period(theta)


def trajectory(seed: int, size: dict) -> list[Command]:
    rng = random.Random(f"trajectory:{seed}")
    theta = Fraction(1, 12)
    n = size["traj_steps"]
    cmds = []
    for norm in ("l2", "linf"):
        x1 = _start(rng, 0.0, 2.0)
        common = ("--theta", _angle(theta), "--norm", norm, "--steps", str(n), _vec(x1))
        beta = PUBLISHED_BETA_U[theta] if norm == "linf" else None
        cmds.append(Command(f"simulate-{norm}", ("simulate",) + common,
                            functools.partial(refcheck.simulate, theta=theta, norm=norm, x1=x1,
                                              steps=n, beta_u=beta), n))
        cmds.append(Command(f"bound-{norm}", ("bound",) + common,
                            functools.partial(refcheck.bound, steps=n, sim=f"simulate-{norm}"), 0))
    steps = size["fault_steps"]
    for theta, t in ARGMAX_T.items():
        x1 = (t, 1.0)
        fault = ""
        if theta in TABLE_FAULT_K:
            fault = (f"built-in beta_u {PUBLISHED_BETA_U[theta]} < searched sup at theta={_angle(theta)}: "
                     f"norm exceeds bound at k={TABLE_FAULT_K[theta]}")
        argv = ("simulate", "--theta", _angle(theta), "--norm", "linf", "--steps", str(steps),
                f"--x1={t:.17g},1")
        cmds.append(Command(f"argmax-{theta.denominator}", argv,
                            functools.partial(refcheck.simulate, theta=theta, norm="linf", x1=x1,
                                              steps=steps, beta_u=PUBLISHED_BETA_U[theta]),
                            steps, fault))
    return cmds


def beta_search(seed: int, size: dict) -> list[Command]:
    rng = random.Random(f"beta_search:{seed}")
    n = size["grid_n"] + rng.randrange(-50, 51)
    grid = 2.0 / n
    cmds = []
    for theta, published in PUBLISHED_BETA_U.items():
        cmds.append(Command(f"search-{theta.denominator}",
                            ("search-beta", "--theta", _angle(theta), "--grid-step", repr(grid)),
                            functools.partial(refcheck.search_beta, theta=theta, grid_step=grid,
                                              published=published),
                            _search_steps(theta, n + 1)))
    # An angle outside the built-in table: the bound needs an on-demand search.
    theta = Fraction(1, 8)
    search_steps = _search_steps(theta, DEFAULT_GRID_STARTS)
    cmds.append(Command("search-8", ("search-beta", "--theta", _angle(theta)),
                        functools.partial(refcheck.search_beta, theta=theta, grid_step=1e-4),
                        search_steps))
    steps = size["search_sim_steps"]
    x1 = _start(rng, 0.0, 2.0)
    cmds.append(Command("simulate-search-8",
                        ("simulate", "--theta", _angle(theta), "--norm", "linf", "--beta-table", "search",
                         "--steps", str(steps), _vec(x1)),
                        functools.partial(refcheck.simulate, theta=theta, norm="linf", x1=x1, steps=steps,
                                          beta_from="search-8"),
                        steps + search_steps))
    return cmds


def _mc(name: str, rng: random.Random, theta: Fraction, replicas: int, steps: int,
        a: float, b: float, norm: str) -> Command:
    x1 = _start(rng, 0.5, 1.5)
    seed = rng.randrange(2**32)
    argv = ("mc", "--theta", _angle(theta), "--norm", norm, "--replicas", str(replicas),
            "--steps", str(steps), "--A", repr(a), "--B", repr(b), "--seed", str(seed), _vec(x1))
    return Command(name, argv,
                   functools.partial(refcheck.mc, theta=theta, x1=x1, a=a, b=b, steps=steps, norm=norm),
                   replicas * (steps - 1))


def mc_long(seed: int, size: dict) -> list[Command]:
    rng = random.Random(f"mc_long:{seed}")
    theta = Fraction(1, 6)
    side = size["side_replicas"], size["side_steps"]
    # b = 0.1 keeps rho = mu + b/4 ~ 0.958 below 1 at theta = pi/6.
    return [
        _mc("mc-affine", rng, theta, size["long_replicas"], size["long_steps"], 2.0, 0.1, "l2"),
        _mc("mc-linf", rng, theta, *side, 2.0, 0.1, "linf"),
        _mc("mc-noiseless", rng, theta, *side, 0.0, 0.0, "l2"),
    ]


WORKLOADS = {
    "trajectory": trajectory,
    "beta_search": beta_search,
    "mc_long": mc_long,
}


def build(workload: str, seed: int, size: str = "full") -> list[Command]:
    return WORKLOADS[workload](seed, SIZES[size])
