"""Check that a change leaves the `kmrot` CLI's output byte for byte as it was.

Usage (from the root of a checkout):

    git worktree add ../parent HEAD~1
    python3 tools/same_bytes.py --parent ../parent [--extra FILE]

Runs every command of the benchmark's three workloads at seeds 1 and 2
(`bench/workloads.build`), plus one command per non-blank, non-`#` line of
FILE (split like a shell line, without the leading `kmrot`; by default
tools/same_bytes.txt).  Each command runs as `python -m kmrot` under
PYTHONPATH=DIR/src and under this checkout's src, once as given and once
with `--out` naming a temporary file (the same path for both sides, so
messages that name it agree).  Prints SAME or DIFF per run, comparing
stdout, stderr, the exit code and the bytes of the --out file, and exits 1
on any DIFF.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402

SEEDS = (1, 2)


def _commands(extra: str) -> list[tuple[str, list[str]]]:
    cmds = [(f"{name}:{seed}:{cmd.name}", list(cmd.argv))
            for name in workloads.WORKLOADS for seed in SEEDS
            for cmd in workloads.build(name, seed)]
    with open(extra, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    return cmds + [(line, shlex.split(line)) for line in lines if line and not line.startswith("#")]


def _run(src: str, argv: list[str], out: str | None) -> tuple[bytes, bytes, int, bytes | None]:
    """stdout, stderr, exit code and the bytes written to `out` (None when no file was written)."""
    env = dict(os.environ, PYTHONPATH=src)
    if out is not None:
        if os.path.exists(out):
            os.remove(out)
        argv = [*argv, "--out", out]
    proc = subprocess.run([sys.executable, "-m", "kmrot", *argv], capture_output=True, env=env, cwd=ROOT)
    written = None
    if out is not None and os.path.exists(out):
        with open(out, "rb") as handle:
            written = handle.read()
    return proc.stdout, proc.stderr, proc.returncode, written


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="DIR", help="a checkout of the parent commit")
    parser.add_argument("--extra", metavar="FILE", default=os.path.join(ROOT, "tools", "same_bytes.txt"),
                        help="more kmrot command lines, one per line (default: %(default)s)")
    args = parser.parse_args(argv)
    before_src = os.path.join(os.path.abspath(args.parent), "src")
    after_src = os.path.join(ROOT, "src")
    cmds = _commands(args.extra)
    diffs = 0
    with tempfile.TemporaryDirectory() as tmp:
        runs = [(name + suffix, cmd, out) for name, cmd in cmds
                for suffix, out in (("", None), (" --out", os.path.join(tmp, "out.csv")))]
        for name, cmd, out in runs:
            before, after = _run(before_src, cmd, out), _run(after_src, cmd, out)
            diffs += before != after
            print(f"{'SAME' if before == after else 'DIFF'} {name}", flush=True)
            for label, old, new in zip(("stdout", "stderr", "exit code", "--out file"), before, after):
                if old != new:
                    print(f"  {label}: parent {old!r:.120} / change {new!r:.120}", flush=True)
    print(f"{diffs} of {len(runs)} runs differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
