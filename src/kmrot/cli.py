"""Command line interface: simulate, bound, search-beta, and mc subcommands.

Angles are accepted only as rational multiples of pi ("p/q"), never as raw
radians, so special angles and pseudo-periods stay exact.  Every command
emits a CSV table (UTF-8, comma separated, LF line endings) with reals at
17 significant digits, which round-trip to the exact double, computed as
they are written, ROWS_PER_WRITE rows per write call.  Exit codes: 0
success, 1 the reader closed stdout before the table was written, 2 usage
or config parse error or unwritable output, 3 domain precondition violated
or a non-finite state.  An error within the first block of rows leaves no
output; a later one, in mc too, leaves the header and the whole blocks before it.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterable
from contextlib import closing, nullcontext
from itertools import count, islice

from .beta_search import MAX_GRID_STEP, MIN_GRID_STEP, search_beta_u
from .bounds import l2_bound, linf_bound
from .engine import DECAYING, run_km
from .errors import KmrotError
from .rotation import Angle, NormKind, Vec2, norm
from .stochastic import MAX_MC_REPLICAS, McConfig, NoiseParams, run_stochastic_km

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

ROWS_PER_WRITE = 1024  # CSV rows joined into one write call


def _angle_arg(text: str) -> Angle:
    """Parse 'p/q' (or a bare integer 'p') as a multiple of pi."""
    parts = text.strip().split("/")
    try:
        p, q = map(int, parts) if len(parts) > 1 else (int(parts[0]), 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an angle of the form 'p/q' in units of pi: {text!r}") from None
    try:
        return Angle(p, q)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _vec2_arg(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated reals: {text!r}")
    try:
        return Vec2(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _number_arg(convert: type, lo: float, hi: float, rule: str):
    """An argparse type: text parsed by `convert` (int or float) into [lo, hi].

    The chained comparison is false for nan, and a finite hi excludes inf.
    """
    noun = "an integer" if convert is int else "a number"

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{rule}: got {text}")
        return value

    return parse


_alpha_arg = _number_arg(float, math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0), "alpha must lie in (0, 1)")
_count_arg = _number_arg(int, 1, math.inf, "must be >= 1")
_nonneg_arg = _number_arg(float, 0.0, sys.float_info.max, "must be finite and >= 0")
_seed_arg = _number_arg(int, 0, 2**64 - 1, "seed must fit in an unsigned 64-bit integer")
_grid_step_arg = _number_arg(float, MIN_GRID_STEP, MAX_GRID_STEP,
                             f"grid step must lie in [{MIN_GRID_STEP:g}, {MAX_GRID_STEP:g}]")


# The paper's four-decimal beta_u, reproduced by search_beta_u at its default grid_step.
REFERENCE_BETA_U: dict[Angle, float] = {
    Angle(1, 12): 0.8974,
    Angle(1, 6): 0.8211,
    Angle(1, 4): 0.7504,
    Angle(1, 3): 0.6830,
    Angle(1, 2): 0.5,
}


def _bound_values(args: argparse.Namespace, d: float, steps: int) -> Iterable[float]:
    """Bound curve for a constant-step configuration.

    Under --beta-table builtin the paper's beta_u is passed where the table
    has the folded angle; otherwise linf_bound searches for it.
    """
    if args.norm == NormKind.L2.value:
        return l2_bound(args.theta, args.alpha, d, steps).values
    beta_u = None if args.beta_table == "search" else REFERENCE_BETA_U.get(args.theta.folded())
    return linf_bound(args.theta, args.alpha, d, steps, beta_u).values


def _cmd_simulate(args: argparse.Namespace) -> tuple[str, Iterable[str]]:
    rule = DECAYING.get(args.schedule)
    if rule is None and args.alpha is None:
        args.alpha = 0.5
    elif rule is not None and args.alpha is not None:
        args.usage_error(f"--alpha applies only to --schedule const, not {args.schedule}")
    norm_kind = NormKind(args.norm)
    iterates = run_km(args.theta, norm_kind, rule or args.alpha, args.x1, args.steps)
    header = "k,x1,x2,norm_value,bound_value\n"
    if rule is not None:
        return header, ("%d,%.17g,%.17g,%.17g,\n" % (k, x1, x2, n) for k, (x1, x2, n) in zip(count(1), iterates))
    bound = _bound_values(args, norm(args.x1, norm_kind), args.steps)
    return header, ("%d,%.17g,%.17g,%.17g,%.17g\n" % (k, x1, x2, n, b)
                    for k, (x1, x2, n), b in zip(count(1), iterates, bound))


def _cmd_bound(args: argparse.Namespace) -> tuple[str, Iterable[str]]:
    d = norm(args.x1, NormKind(args.norm))
    return "k,bound_value\n", map("%d,%.17g\n".__mod__, zip(count(1), _bound_values(args, d, args.steps)))


def _cmd_search_beta(args: argparse.Namespace) -> tuple[str, Iterable[str]]:
    res = search_beta_u(args.theta, args.grid_step)
    row = "%d/%d,%d,%.17g,%.17g,%.17g\n" % (
        args.theta.p, args.theta.q, res.period, res.beta_u, res.argmax_start.x1, args.grid_step
    )
    return "theta,period,beta_u,argmax_t,grid_step\n", [row]


def _cmd_mc(args: argparse.Namespace) -> tuple[str, Iterable[str]]:
    cfg = McConfig(
        theta=args.theta,
        alpha=args.alpha,
        x1=args.x1,
        noise=NoiseParams(args.A, args.B),
        replicas=args.replicas,
        steps=args.steps,
        seed=args.seed,
        norm_kind=NormKind(args.norm),
    )
    res = run_stochastic_km(cfg)
    header = "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
    if res.bound is not None:
        return header, ("%d,%.17g,%.17g,%.17g,0\n" % (k, mean, serr, b)
                        for k, (mean, serr), b in zip(count(1), res.rows, res.bound.values))
    fmt = "%d,%.17g,%.17g,,1\n" if res.unstable else "%d,%.17g,%.17g,,\n"
    return header, (fmt % (k, mean, serr) for k, (mean, serr) in zip(count(1), res.rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmrot",
        description="Averaged rotation iterations, their per-iteration bounds, "
        "the max-norm contraction search, and a Monte Carlo noise harness. "
        "The first recorded iterate is x_1 (1-indexed).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, steps_help: str | None = None) -> None:
        p.add_argument("--theta", type=_angle_arg, required=True, metavar="P/Q",
                       help="rotation angle as a rational multiple of pi")
        p.add_argument("--alpha", type=_alpha_arg, default=0.5, help="step size in (0, 1)")
        p.add_argument("--norm", choices=[kind.value for kind in NormKind],
                       default=NormKind.L2.value)
        p.add_argument("--x1", type=_vec2_arg, default=Vec2(10.0, 30.0), metavar="A,B",
                       help="initial iterate")
        p.add_argument("--steps", type=_count_arg, default=100, help=steps_help)
        p.add_argument("--out", default=None, metavar="PATH", help="output CSV path (default stdout)")

    sim = sub.add_parser("simulate", help="run an iteration and emit iterates, norms, and bound values")
    add_common(sim)
    sim.add_argument("--schedule", choices=sorted(["const", *DECAYING]), default="const")
    # alpha None: --alpha not given, so a decaying schedule can refuse it with simulate's usage error
    sim.set_defaults(handler=_cmd_simulate, alpha=None, usage_error=sim.error)

    bnd = sub.add_parser("bound", help="emit a bound curve without running the iteration")
    add_common(bnd)
    bnd.set_defaults(handler=_cmd_bound)

    for p in (sim, bnd):
        p.add_argument("--beta-table", choices=["builtin", "search"], default="builtin",
                       help="per-period factor of the max-norm bound for theta in (0, pi/2): "
                       "the paper's table where it has the angle, else a search; or always a search")

    search = sub.add_parser("search-beta", help="brute-force the per-period contraction factor")
    search.add_argument("--theta", type=_angle_arg, required=True, metavar="P/Q")
    search.add_argument("--grid-step", type=_grid_step_arg, default=1e-4)
    search.add_argument("--out", default=None, metavar="PATH")
    search.set_defaults(handler=_cmd_search_beta)

    mc = sub.add_parser("mc", help="Monte Carlo runs of the noisy iteration, in up to one process per "
                        "available CPU; the output does not depend on how many")
    add_common(mc, "iterates recorded per replica, written as they are computed: memory does not grow with them")
    mc.add_argument("--A", type=_nonneg_arg, default=2.0, help="additive noise second moment")
    mc.add_argument("--B", type=_nonneg_arg, default=0.0,
                    help="state-proportional noise coefficient")
    mc.add_argument("--replicas", type=_count_arg, default=10_000, help=f"independent runs, at most {MAX_MC_REPLICAS}")
    mc.add_argument("--seed", type=_seed_arg, default=0)
    mc.set_defaults(handler=_cmd_mc)

    return parser


def _write_csv(header: str, rows: Iterable[str], out: str | None) -> int:
    """Write the table to `out` (stdout when None), ROWS_PER_WRITE rows per write call; return the exit code.

    The first block, header included, is built before anything is written or `out` is opened.
    The rows are closed on every way out, and with them mc's, whose generator reaps its workers.
    """
    rows = iter(rows)
    with closing(rows) if hasattr(rows, "close") else nullcontext():
        block = header + "".join(islice(rows, ROWS_PER_WRITE))
        try:
            with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8", newline="") as handle:
                while block:
                    handle.write(block)
                    block = "".join(islice(rows, ROWS_PER_WRITE))
                handle.flush()  # a closed pipe raises here, not at exit
        except OSError as exc:
            if out is None:
                # Point stdout at devnull so that the flush at exit raises nothing.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                if isinstance(exc, BrokenPipeError):
                    return EXIT_PIPE  # the reader closed the pipe: exit 1 quietly, as Python does on EPIPE
            print(f"error: cannot write {out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        header, rows = args.handler(args)
        return _write_csv(header, rows, args.out)
    except KmrotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    """Run main, flush stdout and stderr, and leave without interpreter teardown.

    The table is already written and any --out file closed.  argparse's
    SystemExit (--help, usage errors) and any other exception take the
    normal exit path.  The CLI calls no BLAS routine, so before main can
    import numpy it asks OpenBLAS for one thread, unless the caller set a
    count: numpy's import then starts no thread, and mc forks from a
    one-thread process.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when Python started with that descriptor closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
