"""End-to-end benchmark of the `kmrot` CLI.

Run from the root of a checkout that holds `src/kmrot`:

    python3 bench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One benchmark process starts the CLI as subprocesses, one at a time, so the
load stays on one core.  A run repeats whole passes over the workload's
commands until --seconds have passed, at least two of them; before each
pass it times fresh interpreters that import `kmrot` (setup_s).  The
first pass's output is checked against references computed apart from the
program (refcheck.py); every later pass must print the same bytes.  With
--trace 1 the end-to-end metrics are not reported; the run instead reports
per-layer metrics from an in-process traced pass (layers.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --workload all the per-workload results are also written to
BENCH_<label>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_PER_PASS = 3
RUN_DIR = ".bench_run"
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s", "peak_rss_mib": "MiB"}


def run_workload(name: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    cmds = workloads.build(name, seed)
    env = harness.child_env(src)
    tally = harness.Tally()
    if not trace:
        # Set-up is sampled before every pass, so it sees the same machine
        # load as the passes do.
        setup: list[float] = []
        harness.import_kmrot(env)  # fills the bytecode cache
        passes, _ = harness.cli_passes(
            cmds, env, seconds, 2, tally,
            before_pass=lambda: setup.extend(harness.import_kmrot(env).seconds for _ in range(SETUP_PER_PASS)))
        steps = sum(c.steps for c in cmds)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall for p in passes),
            "steps_per_s": statistics.median(steps / p.wall for p in passes),
            "peak_rss_mib": statistics.median(p.peak_kib / 1024.0 for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    else:
        run_dir = os.path.join(os.getcwd(), RUN_DIR)
        os.makedirs(run_dir, exist_ok=True)
        try:
            metrics = layers.per_layer(cmds, env, seconds, src, run_dir, tally)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics, "notes": tally.notes}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--label", default="latest", help="names BENCH_<label>.json with --workload all")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through harness.spawn so the running CLI is killed too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "kmrot", "cli.py")):
        print("error: run from the root of a kmrot checkout (src/kmrot/cli.py not found)", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), src)
        results[name] = res
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']}")
        for note in res["notes"]:
            print(f"  failed: {note}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")

    if args.workload == "all":
        import numpy

        record = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                  "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                              "python": platform.python_version(), "numpy": numpy.__version__},
                  "workloads": results}
        with open(f"BENCH_{args.label}.json", "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        summary = {k: v for k, v in results[args.workload].items() if k != "notes"}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
