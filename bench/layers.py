"""Per-layer metrics from an in-process, traced pass over a workload's commands.

The traced pass installs wrappers, defined here, around the public names
that `kmrot.cli` and `kmrot.stochastic` call, without editing the package:

* run_km, l2_bound, linf_bound, search_beta_u, run_stochastic_km as
  `kmrot.cli` sees them;
* replica_rng, noise_bound and math.fsum as `kmrot.stochastic` sees them.

It then calls `kmrot.cli.main` with `--out` for each command.  Each wrapper
records its span's duration and the part covered by child spans, so a
layer's self time is its span minus its children, and the self times add
up to the time spent in `kmrot.cli.main`.  Tracing overhead is the traced
pass minus the same pass run in process without wrappers; the CLI pass
differs from both by process start-up and import, reported as
trace.startup_s.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
import time
import types
from collections import defaultdict
from contextlib import contextmanager

import harness
import workloads

IMPORT_SAMPLES = 5
KERNEL_LOOP = 20_000
KERNEL_REPEATS = 5
MIB = 1024.0 * 1024.0

# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = {
    "import.kmrot_s": "s",
    "import.modules": "count",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.bytes": "bytes",
    "engine.run_km_s": "s",
    "engine.steps": "count",
    "rotation.apply_averaged_l2_ns": "ns",
    "rotation.apply_averaged_linf_ns": "ns",
    "bounds.s": "s",
    "bounds.values": "count",
    "beta_search.search_s": "s",
    "beta_search.starts": "count",
    "beta_search.period_steps": "count",
    "stochastic.rng_setup_s": "s",
    "stochastic.generators": "count",
    "stochastic.fsum_s": "s",
    "stochastic.matrix_mib": "MiB",
    "stochastic.run_s": "s",
    "stochastic.self_s": "s",
    "stochastic.replica_steps": "count",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.startup_s": "s",
}


class Tracer:
    """Summed span and self times per wrapped name, plus work counters."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - t0
                covered = self._children.pop()
                self.total[name] += span
                self.self_time[name] += span - covered
                self.calls[name] += 1
                if self._children:
                    self._children[-1] += span
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced


def _count_steps(counts, args, kwargs, result) -> None:
    counts["engine.steps"] += args[4]


def _count_values(counts, args, kwargs, result) -> None:
    counts["bounds.values"] += len(result.values)


def _count_search(counts, args, kwargs, result) -> None:
    grid = args[1] if len(args) > 1 else kwargs.get("grid_step", 1e-4)
    starts = round(2.0 / grid) + 1 + workloads.REFINE_STARTS
    counts["beta_search.starts"] += starts
    counts["beta_search.period_steps"] += starts * result.period


def _count_mc(counts, args, kwargs, result) -> None:
    cfg = args[0]
    counts["stochastic.replica_steps"] += cfg.replicas * (cfg.steps - 1)
    mib = cfg.replicas * cfg.steps * 8 / MIB
    counts["stochastic.matrix_mib"] = max(counts["stochastic.matrix_mib"], mib)


@contextmanager
def installed(tracer: Tracer, cli, stochastic):
    """Swap the traced names into kmrot.cli and kmrot.stochastic, restoring them after."""
    traced_math = types.ModuleType("math")
    traced_math.__dict__.update(math.__dict__)
    traced_math.fsum = tracer.wrap("fsum", math.fsum)
    swaps = [
        (cli, "run_km", tracer.wrap("run_km", cli.run_km, _count_steps)),
        (cli, "l2_bound", tracer.wrap("l2_bound", cli.l2_bound, _count_values)),
        (cli, "linf_bound", tracer.wrap("linf_bound", cli.linf_bound, _count_values)),
        (cli, "search_beta_u", tracer.wrap("search_beta_u", cli.search_beta_u, _count_search)),
        (cli, "run_stochastic_km", tracer.wrap("run_stochastic_km", cli.run_stochastic_km, _count_mc)),
        (stochastic, "replica_rng", tracer.wrap("replica_rng", stochastic.replica_rng)),
        (stochastic, "noise_bound", tracer.wrap("noise_bound", stochastic.noise_bound, _count_values)),
        (stochastic, "math", traced_math),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _ in swaps]
    try:
        for module, name, value in swaps:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in saved:
            setattr(module, name, value)


def _call(main, cmd: workloads.Command, run_dir: str) -> tuple[float, bytes]:
    """Call main once with --out; return its time and the file it wrote.

    A command that raises or exits non-zero yields empty output, which the
    caller counts as a failed operation.
    """
    path = os.path.join(run_dir, f"{cmd.name}.csv")
    t0 = time.perf_counter()
    try:
        code = main([*cmd.argv, "--out", path])
    except (Exception, SystemExit) as exc:
        code = exc
    elapsed = time.perf_counter() - t0
    if code != 0:
        return elapsed, b""
    with open(path, "rb") as handle:
        return elapsed, handle.read()


def _kernel_ns(rotation) -> dict[str, float]:
    """Per-call time of the public apply_averaged over a long loop, per norm."""
    op = rotation.RotationOp(rotation.Angle(1, 12))
    x = rotation.Vec2(0.6, -0.8)
    step = rotation.apply_averaged
    found = {}
    for kind in (rotation.NormKind.L2, rotation.NormKind.LINF):
        reps = []
        for _ in range(KERNEL_REPEATS):
            t0 = time.perf_counter_ns()
            for _ in range(KERNEL_LOOP):
                step(op, kind, 0.5, x)
            reps.append((time.perf_counter_ns() - t0) / KERNEL_LOOP)
        found[f"rotation.apply_averaged_{kind.value}_ns"] = statistics.median(reps)
    return found


def per_layer(cmds, env, seconds: float, src: str, run_dir: str, tally: harness.Tally) -> dict:
    """Run the untraced CLI passes, then untraced and traced in-process passes."""
    start = time.perf_counter()
    bare, loaded, modules = harness.time_imports(env, IMPORT_SAMPLES)
    passes, found = harness.cli_passes(cmds, env, seconds / 2, 1, tally)
    cli_outputs = [o.stdout for o in passes[0].outputs]

    if src not in sys.path:
        sys.path.insert(0, src)
    import kmrot.cli as cli
    import kmrot.rotation as rotation
    import kmrot.stochastic as stochastic

    for cmd in cmds:
        _call(cli.main, cmd, run_dir)  # warm-up: first-touch allocations, caches
    # Each command runs untraced and traced back to back, in alternating
    # order, so both halves of a pair see the same machine load.
    untraced, traced, tracers = [], [], []
    while not tracers or time.perf_counter() - start < seconds:
        tracer = Tracer()
        traced_main = tracer.wrap("main", cli.main)
        plain_wall = traced_wall = 0.0
        for i, (cmd, ref, problems) in enumerate(zip(cmds, cli_outputs, found)):
            for traced_turn in (False, True) if (i + len(tracers)) % 2 == 0 else (True, False):
                if traced_turn:
                    with installed(tracer, cli, stochastic):
                        wall, out = _call(traced_main, cmd, run_dir)
                    traced_wall += wall
                else:
                    wall, out = _call(cli.main, cmd, run_dir)
                    plain_wall += wall
                extra = [] if out == ref else ["in-process output differs from the CLI stdout"]
                tally.record(cmd, problems + extra)
        untraced.append(plain_wall)
        traced.append(traced_wall)
        tracers.append(tracer)

    # Times come from one round, the median one, so that its self times add
    # up to its cli.main_s exactly.
    mid = sorted(range(len(tracers)), key=lambda i: traced[i])[len(tracers) // 2]
    t = tracers[mid]
    rows = sum(max(out.count(b"\n") - 1, 0) for out in cli_outputs)
    metrics = {
        "import.kmrot_s": statistics.median(loaded) - statistics.median(bare),
        "import.modules": modules,
        "cli.main_s": t.total["main"],
        "cli.self_s": t.self_time["main"],
        "cli.rows": rows,
        "cli.bytes": sum(len(out) for out in cli_outputs),
        "engine.run_km_s": t.total["run_km"],
        "engine.steps": t.counts["engine.steps"],
        **_kernel_ns(rotation),
        "bounds.s": t.total["l2_bound"] + t.total["linf_bound"] + t.total["noise_bound"],
        "bounds.values": t.counts["bounds.values"],
        "beta_search.search_s": t.total["search_beta_u"],
        "beta_search.starts": t.counts["beta_search.starts"],
        "beta_search.period_steps": t.counts["beta_search.period_steps"],
        "stochastic.rng_setup_s": t.total["replica_rng"],
        "stochastic.generators": t.calls["replica_rng"],
        "stochastic.fsum_s": t.total["fsum"],
        "stochastic.matrix_mib": t.counts["stochastic.matrix_mib"],
        "stochastic.run_s": t.total["run_stochastic_km"],
        "stochastic.self_s": t.self_time["run_stochastic_km"],
        "stochastic.replica_steps": t.counts["stochastic.replica_steps"],
        "trace.wall_s": traced[mid],
        "trace.untraced_s": statistics.median(untraced),
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_s"]
    metrics["trace.startup_s"] = statistics.median(p.wall for p in passes) - metrics["trace.untraced_s"]
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()}
