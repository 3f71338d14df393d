"""Running `kmrot` CLI commands as subprocesses and tallying checked operations."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import workloads

COMMAND_TIMEOUT_S = 150.0
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")


@dataclass
class Outcome:
    seconds: float
    maxrss_kib: int
    stdout: bytes
    stderr: bytes
    returncode: int


def spawn(argv: list[str], env: dict[str, str]) -> Outcome:
    """Run argv to completion through child.py; see there for what is measured."""
    helper = subprocess.Popen([sys.executable, "-I", "-S", CHILD, *argv], stdout=subprocess.PIPE,
                              env=env, start_new_session=True)
    # the session holds the helper and the command; a hung command is killed with it
    timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (helper.pid, signal.SIGKILL))
    timer.start()
    try:
        data, _ = helper.communicate()
    finally:
        timer.cancel()
        if helper.poll() is None:
            os.killpg(helper.pid, signal.SIGKILL)
            helper.wait()
    head, _, rest = data.partition(b"\n")
    if helper.returncode != 0 or not head:
        raise RuntimeError(f"could not run {argv!r}: helper exited with {helper.returncode}")
    info = json.loads(head)
    n = info["stdout_len"]
    return Outcome(info["seconds"], info["maxrss_kib"], rest[:n], rest[n:], info["returncode"])


def child_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def import_kmrot(env: dict[str, str]) -> Outcome:
    """A fresh interpreter that imports kmrot and kmrot.cli, prints len(sys.modules) and exits."""
    out = spawn([sys.executable, "-c", "import sys, kmrot, kmrot.cli; print(len(sys.modules))"], env)
    if out.returncode != 0:
        raise RuntimeError(f"importing kmrot failed: {out.stderr.decode(errors='replace')}")
    return out


def time_imports(env: dict[str, str], samples: int) -> tuple[list[float], list[float], int]:
    """Fresh-interpreter times of `pass` and of importing kmrot, alternated; and the module count."""
    import_kmrot(env)  # fills the bytecode cache
    bare, loaded = [], []
    for _ in range(samples):
        bare.append(spawn([sys.executable, "-c", "pass"], env).seconds)
        out = import_kmrot(env)
        loaded.append(out.seconds)
    return bare, loaded, int(out.stdout)


@dataclass
class Tally:
    """Operations attempted and failed, and why."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list[str] = field(default_factory=list)

    def record(self, cmd: workloads.Command, problems: list[str]) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if not cmd.known_fault:
            self.correct = False
        note = f"{cmd.name}: {'; '.join(problems)}"
        if cmd.known_fault:
            note += f" (known fault: {cmd.known_fault})"
        if note not in self.notes:
            self.notes.append(note)


@dataclass
class Pass:
    wall: float
    peak_kib: int
    outputs: list[Outcome]


def run_pass(cmds: list[workloads.Command], env: dict[str, str]) -> Pass:
    outs = [spawn([sys.executable, "-m", "kmrot", *c.argv], env) for c in cmds]
    return Pass(sum(o.seconds for o in outs), max(o.maxrss_kib for o in outs), outs)


def verdicts(cmds: list[workloads.Command], first: Pass) -> list[list[str]]:
    """Reference-check the outputs of one pass."""
    texts: dict[str, str] = {}
    found = []
    for cmd, out in zip(cmds, first.outputs):
        if out.returncode != 0:
            tail = out.stderr.decode(errors="replace").strip().splitlines()[-1:]
            found.append([f"exit code {out.returncode}: {' '.join(tail)}"])
            continue
        text = out.stdout.decode()
        texts[cmd.name] = text
        found.append(cmd.check(text, texts))
    return found


def cli_passes(cmds, env, seconds: float, min_passes: int, tally: Tally,
               before_pass=None) -> tuple[list[Pass], list[list[str]]]:
    """Whole passes until `seconds` have gone by; outputs checked and compared to the first.

    before_pass, if given, is called before each pass.  Returns the passes
    and the problems found in each command's first output.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if before_pass is not None:
            before_pass()
        passes.append(run_pass(cmds, env))
    first = passes[0]
    found = verdicts(cmds, first)
    for p in passes:
        for cmd, ref, out, problems in zip(cmds, first.outputs, p.outputs, found):
            if out.stdout != ref.stdout or out.returncode != ref.returncode:
                problems = problems + ["stdout differs between passes of the same command"]
            tally.record(cmd, problems)
    return passes, found
