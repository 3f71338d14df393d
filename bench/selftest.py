"""Self-test of the reference checks: clean output passes, corrupted output fails.

Run from the root of a kmrot checkout:

    python3 bench/selftest.py

Each workload runs once at a tiny size.  Every clean output must pass its
check, except the known-fault commands, which must fail it.  Then each
output is corrupted in a few ways (one significant digit of one cell
changed, or the norm and bound cells of a row swapped) and its check must
report a problem every time.  Exits 1 if any expectation does not hold.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import workloads  # noqa: E402

SEED = 0


def corrupt_digit(cell: str, position: int) -> str:
    """Change the position-th significant digit of a number by 5 (mod 10)."""
    chars = list(cell)
    end = next((i for i, ch in enumerate(cell) if ch in "eE"), len(cell))
    seen = 0
    for i in range(end):
        if not chars[i].isdigit() or (seen == 0 and chars[i] == "0"):
            continue
        seen += 1
        if seen == position:
            chars[i] = str((int(chars[i]) + 5) % 10)
            return "".join(chars)
    raise ValueError(f"{cell!r} has fewer than {position} significant digits")


def edit(text: str, row: int, edit_row) -> str:
    """Apply edit_row to the cells of data row `row` (0-based, header excluded)."""
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    edit_row(cells)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


def set_cell(col: int, fn):
    def edit_row(cells: list[str]) -> None:
        cells[col] = fn(cells[col])
    return edit_row


def swap(a: int, b: int):
    def edit_row(cells: list[str]) -> None:
        cells[a], cells[b] = cells[b], cells[a]
    return edit_row


def corruptions(cmd: workloads.Command, text: str) -> list[tuple[str, str]]:
    """Named corrupted copies of one command's clean output."""
    rows = text.count("\n") - 1
    mid = rows // 2
    kind = cmd.argv[0]
    if kind == "simulate":
        return [
            ("x1 digit 8", edit(text, mid, set_cell(1, lambda c: corrupt_digit(c, 8)))),
            ("x2 digit 12", edit(text, mid, set_cell(2, lambda c: corrupt_digit(c, 12)))),
            ("norm digit 8", edit(text, mid, set_cell(3, lambda c: corrupt_digit(c, 8)))),
            ("bound digit 8", edit(text, rows - 1, set_cell(4, lambda c: corrupt_digit(c, 8)))),
            ("norm and bound swapped", edit(text, rows - 1, swap(3, 4))),
        ]
    if kind == "bound":
        return [("bound digit 10", edit(text, mid, set_cell(1, lambda c: corrupt_digit(c, 10))))]
    if kind == "search-beta":
        return [
            ("beta_u digit 4", edit(text, 0, set_cell(2, lambda c: corrupt_digit(c, 4)))),
            ("beta_u digit 12", edit(text, 0, set_cell(2, lambda c: corrupt_digit(c, 12)))),
            ("argmax_t digit 6", edit(text, 0, set_cell(3, lambda c: corrupt_digit(c, 6)))),
            ("period + 1", edit(text, 0, set_cell(1, lambda c: str(int(c) + 1)))),
        ]
    found = [("k=1 mean digit 8", edit(text, 0, set_cell(1, lambda c: corrupt_digit(c, 8))))]
    if "--norm" in cmd.argv and cmd.argv[cmd.argv.index("--norm") + 1] == "l2":
        found.append(("mean leading digit", edit(text, mid, set_cell(1, lambda c: corrupt_digit(c, 1)))))
        found.append(("bound_sq digit 8", edit(text, mid, set_cell(3, lambda c: corrupt_digit(c, 8)))))
    if "--A" in cmd.argv and float(cmd.argv[cmd.argv.index("--A") + 1]) == 0.0:
        found.append(("std_err above rounding", edit(text, mid, set_cell(2, lambda c: "1e-3"))))
    return found


def main() -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "kmrot", "cli.py")):
        print("error: run from the root of a kmrot checkout", file=sys.stderr)
        return 2
    env = harness.child_env(src)
    failures = []
    checked = 0
    for name in workloads.WORKLOADS:
        cmds = workloads.build(name, SEED, size="tiny")
        first = harness.run_pass(cmds, env)
        texts: dict[str, str] = {}
        for cmd, out, problems in zip(cmds, first.outputs, harness.verdicts(cmds, first)):
            text = texts[cmd.name] = out.stdout.decode()
            if cmd.known_fault:
                if not problems:
                    failures.append(f"{name}/{cmd.name}: known fault did not show")
                continue
            if problems:
                failures.append(f"{name}/{cmd.name}: clean output rejected: {problems}")
                continue
            for label, bad in corruptions(cmd, text):
                checked += 1
                texts[cmd.name] = bad
                if not cmd.check(bad, texts):
                    failures.append(f"{name}/{cmd.name}: {label} not detected")
                texts[cmd.name] = text
    for line in failures:
        print(f"FAIL {line}")
    print(f"{checked} corrupted outputs, {len(failures)} expectations not met")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
