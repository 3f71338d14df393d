"""Check that a change leaves the `kmrot` CLI's output byte for byte as it was.

Usage (from the root of a checkout):

    git worktree add ../parent HEAD~1
    python3 tools/same_bytes.py --parent ../parent [--extra FILE]

Runs every command of the benchmark's three workloads at seeds 1 and 2
(`bench/workloads.build`), plus one command per non-blank, non-`#` line of
FILE (split like a shell line, without the leading `kmrot`).  Each command
runs once as `python -m kmrot` under PYTHONPATH=DIR/src and once under this
checkout's src.  Prints SAME or DIFF per command, comparing stdout, stderr
and the exit code, and exits 1 on any DIFF.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

SEEDS = (1, 2)


def _commands(extra: str | None) -> list[tuple[str, list[str]]]:
    cmds = [(f"{name}:{seed}:{cmd.name}", list(cmd.argv))
            for name in workloads.WORKLOADS for seed in SEEDS
            for cmd in workloads.build(name, seed)]
    if extra is not None:
        with open(extra, encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        cmds += [(line, shlex.split(line)) for line in lines if line and not line.startswith("#")]
    return cmds


def _run(src: str, argv: list[str]) -> tuple[bytes, bytes, int]:
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "kmrot", *argv], capture_output=True, env=env, cwd=ROOT)
    return proc.stdout, proc.stderr, proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR", help="a checkout of the parent commit")
    parser.add_argument("--extra", metavar="FILE", help="more kmrot command lines, one per line")
    args = parser.parse_args(argv)
    before_src = os.path.join(os.path.abspath(args.parent), "src")
    after_src = os.path.join(ROOT, "src")
    cmds = _commands(args.extra)
    diffs = 0
    for name, cmd in cmds:
        before, after = _run(before_src, cmd), _run(after_src, cmd)
        diffs += before != after
        print(f"{'SAME' if before == after else 'DIFF'} {name}", flush=True)
        for label, old, new in zip(("stdout", "stderr", "exit code"), before, after):
            if old != new:
                print(f"  {label}: parent {old!r:.120} / change {new!r:.120}", flush=True)
    print(f"{diffs} of {len(cmds)} commands differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
