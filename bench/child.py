"""Run one command, timing it from spawn to EOF on its stdout, and read its peak RSS.

Usage: python3 -I -S bench/child.py PROGRAM [ARGS...]

Prints one JSON line {"seconds", "maxrss_kib", "returncode", "stdout_len"},
then the command's stdout bytes, then its stderr bytes.

The benchmark starts every CLI process through this small interpreter rather
than directly.  On Linux a child's ru_maxrss starts from the resident size
of the process that spawned it, so a child of `bench/run.py`, which holds
numpy, mpmath and earlier outputs, would report that process's memory
instead of its own.  This process stays near 11 MiB, below any kmrot run
(29 MiB or more).
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out = proc.stdout.read()
    seconds = time.perf_counter() - t0
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    head = {"seconds": seconds, "maxrss_kib": usage.ru_maxrss, "returncode": proc.returncode,
            "stdout_len": len(out)}
    sink = sys.stdout.buffer
    sink.write(json.dumps(head).encode() + b"\n" + out + err)
    sink.flush()


if __name__ == "__main__":
    main()
