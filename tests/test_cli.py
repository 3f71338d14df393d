"""CLI behavior: CSV output, exit codes, determinism, round-trips."""

import argparse
import ast
import collections
import copy
import errno
import inspect
import io
import itertools
import math
import os
import pickle
import shlex
import subprocess
import sys
import tracemalloc
import typing

import pytest

import kmrot
import kmrot.beta_search as beta_search
import kmrot.bounds as bounds
import kmrot.cli as cli
import kmrot.rotation as rotation
import kmrot.stochastic as stochastic
from kmrot import (
    Angle,
    InvalidAlphaError,
    McConfig,
    NoiseParams,
    NonFiniteError,
    NormKind,
    OutOfRangeError,
    Vec2,
    l2_bound,
    linf_bound,
    mu,
    noise_bound,
    run_km,
    run_stochastic_km,
    search_beta_u,
)
from kmrot.beta_search import MIN_GRID_STEP, BetaSearchResult
from kmrot.bounds import BoundCurve

from _support import PUBLISHED_BETA_U, assert_no_child_left, parse_csv, run_cli, trajectory


class TestSimulate:
    def test_half_turn_collapse(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--theta", "1/1", "--alpha", "0.5", "--norm", "l2",
             "--x1", "10,30", "--steps", "3"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["k", "x1", "x2", "norm_value", "bound_value"]
        assert [r[0] for r in rows] == ["1", "2", "3"]
        assert [float(r[3]) for r in rows] == [31.622776601683793, 0.0, 0.0]
        assert [float(r[4]) for r in rows] == [31.622776601683793, 0.0, 0.0]

    def test_quarter_turn_max_norm_bound_column(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--theta", "1/2", "--alpha", "0.5", "--norm", "linf",
             "--x1", "10,30", "--steps", "5"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[4]) for r in rows] == [30.0, 30.0, 15.0, 15.0, 7.5]

    def test_alpha_precondition_exits_3(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--theta", "1/4", "--alpha", "0.3", "--norm", "linf",
             "--x1", "10,30", "--steps", "5"],
            capsys,
        )
        assert code == 3
        assert "0.5" in err

    def test_angle_outside_the_builtin_table_is_searched(self, capsys):
        argv = ["simulate", "--theta", "1/5", "--norm", "linf", "--steps", "30"]
        builtin = run_cli(argv, capsys)
        assert builtin[0] == 0
        assert builtin == run_cli(argv + ["--beta-table", "search"], capsys)

    def test_beta_table_search_covers_any_small_angle(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--theta", "1/5", "--alpha", "0.5", "--norm", "linf",
             "--steps", "30", "--beta-table", "search"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        for row in rows:
            assert float(row[4]) >= float(row[3]) - 1e-9

    def test_mirror_angle_uses_builtin_factor(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--theta", "7/4", "--alpha", "0.5", "--norm", "linf", "--steps", "10"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[8][4]) == pytest.approx(30.0 * 0.7504**2, rel=1e-12)

    def test_decaying_schedule_has_empty_bound(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--theta", "1/4", "--schedule", "invsqrt", "--steps", "4"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[4] == "" for r in rows)

    def test_round_trip_is_bit_exact(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--theta", "1/12", "--alpha", "0.5", "--norm", "linf",
             "--x1", "3,-7", "--steps", "40"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        traj = trajectory(Angle(1, 12), NormKind.LINF, 0.5, Vec2(3.0, -7.0), 40)
        curve = linf_bound(Angle(1, 12), 0.5, traj.norms[0], 40, beta_u=0.8974)
        for row, a, b, value, cap in zip(rows, traj.x1, traj.x2, traj.norms, curve.values):
            assert float(row[1]) == a
            assert float(row[2]) == b
            assert float(row[3]) == value
            assert float(row[4]) == cap


    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_long_run_holds_columns_not_rows(self, norm, tmp_path):
        # a Vec2 per iterate and a list of all row strings peaked at 10.9 MiB,
        # and the columns of every iterate at 3.9 MiB; one block of rows
        # takes about 0.4 MiB
        argv = ["simulate", "--theta", "1/12", "--norm", norm, "--steps", "30000", "--out", str(tmp_path / "o.csv")]
        code, peak = traced_peak(argv)
        assert code == 0
        assert peak < 2**20


def traced_peak(argv: list[str]) -> tuple[int, int]:
    """The exit code of cli.main(argv) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, peak


class TestStreaming:
    """Rows are computed as they are written, one write call per block of rows."""

    BLOCK = cli.ROWS_PER_WRITE

    def test_rows_reach_stdout_in_blocks(self, monkeypatch):
        class CountingStdout(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main("simulate --theta 1/12 --steps 30000".split()) == 0
        assert stdout.getvalue().count("\n") == 30001
        assert stdout.writes <= -(-30000 // self.BLOCK) + 1

    @pytest.mark.parametrize("command", ["simulate --theta 1/12", "bound --theta 1/12 --norm linf"])
    def test_memory_is_flat_in_steps(self, command, tmp_path):
        argv = command.split() + ["--out", str(tmp_path / "o.csv"), "--steps"]
        code, short = traced_peak(argv + ["2000"])
        assert code == 0
        assert traced_peak(argv + ["200000"]) == (0, pytest.approx(short, abs=2**20))

    def test_mc_memory_is_flat_in_steps(self, tmp_path):
        # one replica runs 1024-step blocks; totals for every step would
        # take about 0.6 KiB each, 4.7 MiB more at 10 000 steps
        argv = f"mc --theta 1/6 --norm linf --replicas 1 --out {tmp_path / 'o.csv'} --steps".split()
        code, short = traced_peak(argv + ["2000"])
        assert code == 0
        assert traced_peak(argv + ["10000"]) == (0, pytest.approx(short, abs=2**20))

    def stub_iterates(self, monkeypatch, good: int) -> None:
        """Make run_km's iterates raise NonFiniteError after `good` real ones."""
        real = cli.run_km

        def run_km(*args):
            def iterates():
                yield from itertools.islice(real(*args), good)
                raise NonFiniteError("coordinates must be finite: (7.5e+307, nan)")

            return iterates()

        monkeypatch.setattr(cli, "run_km", run_km)

    @pytest.mark.parametrize("out", [False, True])
    def test_late_non_finite_state_leaves_the_whole_blocks_before_it(self, out, capsys, monkeypatch, tmp_path):
        argv = "simulate --theta 1/12 --norm linf --x1 3,-7 --steps".split()
        _, whole, _ = run_cli(argv + [str(2 * self.BLOCK)], capsys)
        self.stub_iterates(monkeypatch, 2 * self.BLOCK + 5)
        path = tmp_path / "o.csv"
        code, stdout, err = run_cli(argv + [str(3 * self.BLOCK)] + ["--out", str(path)] * out, capsys)
        assert (code, err) == (3, "error: coordinates must be finite: (7.5e+307, nan)\n")
        assert (path.read_text() if out else stdout) == whole
        assert whole.count("\n") == 2 * self.BLOCK + 1

    def test_bound_is_built_before_the_first_step(self, capsys):
        # the max-norm bound at pi/6 takes only alpha = 0.5, and the first
        # step overflows: the run reports the bound's check, which runs first
        argv = "simulate --theta 1/6 --norm linf --x1 1.5e308,1.5e308 --alpha 0.3 --steps 3000".split()
        assert run_cli(argv, capsys) == (3, "", "error: the max-norm bound for theta = 1/6*pi is only derived "
                                                "for alpha = 0.5: got 0.3\n")

    @pytest.mark.parametrize("good", [1, cli.ROWS_PER_WRITE - 1])
    @pytest.mark.parametrize("schedule", ["const", "invk"])  # invk: no bound, so no iterate is read before _write_csv
    def test_failure_in_the_first_block_writes_nothing(self, good, schedule, capsys, monkeypatch, tmp_path):
        self.stub_iterates(monkeypatch, good)
        path = tmp_path / "o.csv"
        for extra in ([], ["--out", str(path)]):
            code, stdout, err = run_cli(f"simulate --theta 1/12 --schedule {schedule} --steps 5000".split() + extra, capsys)
            assert (code, stdout, err.count("\n")) == (3, "", 1)
        assert not path.exists()


class TestBound:
    def test_half_turn_low_alpha(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--theta", "1/1", "--alpha", "0.3", "--norm", "l2",
             "--x1", "10,30", "--steps", "6"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["k", "bound_value"]
        d = math.hypot(10.0, 30.0)
        for i, row in enumerate(rows):
            assert float(row[1]) == pytest.approx(0.4**i * d, rel=1e-12)
        assert float(rows[0][1]) == d

    def test_three_quarter_turn(self, capsys):
        code, out, _ = run_cli(
            ["bound", "--theta", "3/4", "--alpha", "0.5", "--norm", "linf",
             "--x1", "1,0", "--steps", "4"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert [float(r[1]) for r in rows] == [1.0, 0.5, 0.25, 0.125]

    def test_curve_within_one_pseudo_period_needs_no_search(self, capsys):
        # T = 10^7, and a search for beta_u would take 2.0e11 averaged steps
        code, out, err = run_cli(["bound", "--theta", "1/10000000", "--norm", "linf", "--steps", "3"], capsys)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert rows == [["1", "30"], ["2", "30"], ["3", "30"]]


class TestSearchBeta:
    def test_row_contents(self, capsys):
        code, out, _ = run_cli(
            ["search-beta", "--theta", "1/3", "--grid-step", "1e-3"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["theta", "period", "beta_u", "argmax_t", "grid_step"]
        assert len(rows) == 1
        theta, period, beta_u, argmax_t, grid_step = rows[0]
        assert theta == "1/3"
        assert period == "3"
        assert float(beta_u) == pytest.approx(0.6830, abs=1e-3)
        assert -1.0 <= float(argmax_t) <= 1.0
        assert float(grid_step) == 1e-3

    def test_matches_library_result(self, capsys):
        code, out, _ = run_cli(
            ["search-beta", "--theta", "1/6", "--grid-step", "1e-3"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        res = search_beta_u(Angle(1, 6), grid_step=1e-3)
        assert float(rows[0][2]) == res.beta_u
        assert float(rows[0][3]) == res.argmax_start.x1

    def test_work_above_the_budget_exits_3_before_stepping(self, capsys, monkeypatch):
        # period 10^6 times 20 022 starts is 2e10 averaged steps
        def no_stepping(*args):
            raise AssertionError("km_step ran")

        monkeypatch.setattr(beta_search, "km_step", no_stepping)
        code, out, err = run_cli(["search-beta", "--theta", "1/1000000"], capsys)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "20022000000" in err

    def test_out_of_range_angle_exits_3(self, capsys):
        code, _, err = run_cli(["search-beta", "--theta", "2/3"], capsys)
        assert code == 3
        assert "pi/2" in err

    def test_bad_grid_step_exits_2(self, capsys):
        code, _, _ = run_cli(["search-beta", "--theta", "1/3", "--grid-step", "0.01"], capsys)
        assert code == 2

    def test_grid_step_below_lower_bound_exits_2(self, capsys):
        assert run_cli(["search-beta", "--theta", "1/2", "--grid-step", repr(MIN_GRID_STEP)], capsys)[0] == 0
        for tiny in (repr(MIN_GRID_STEP / 2), "5e-324"):
            code, _, err = run_cli(["search-beta", "--theta", "1/4", "--grid-step", tiny], capsys)
            assert code == 2
            assert "grid step" in err


class TestMc:
    def test_noiseless_single_replica(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--theta", "1/4", "--alpha", "0.5", "--x1", "1,3",
             "--A", "0", "--B", "0", "--replicas", "1", "--steps", "5", "--seed", "1"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["k", "mean_sq_norm", "std_err", "bound_sq", "bound_unstable"]
        g = mu(0.5, Angle(1, 4))
        for i, row in enumerate(rows):
            assert float(row[1]) == pytest.approx(g**i * 10.0, rel=1e-12)
            assert float(row[2]) == 0.0
            assert row[4] == "0"

    def test_unstable_flag_column(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--theta", "1/4", "--x1", "1,3", "--A", "0.1", "--B", "0.6",
             "--replicas", "20", "--steps", "10", "--seed", "3"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[3] == "" and r[4] == "1" for r in rows)

    def test_alpha_whose_square_underflows_is_flagged_unstable(self, capsys):
        code, out, err = run_cli("mc --theta 1/6 --alpha 1e-200 --replicas 5 --steps 3".split(), capsys)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r[3:] for r in rows] == [["", "1"]] * 3

    @pytest.mark.parametrize("replicas", [stochastic.MAX_MC_REPLICAS + 1, 2**64 + 1])
    def test_replicas_above_the_limit_exit_3_before_any_work(self, replicas, capsys):
        argv = f"mc --theta 1/6 --norm linf --replicas {replicas} --steps 5".split()
        limit = stochastic.MAX_MC_REPLICAS
        assert run_cli(argv, capsys) == (3, "", f"error: replicas must be <= {limit}: got {replicas}\n")

    # 4097 replicas are three noise blocks over two processes, and 3000 steps
    # outlast the first write; each way out must reap both workers
    MC_FORKED = "mc --theta 1/6 --B 0.1 --replicas 4097 --steps 3000".split()

    @staticmethod
    def fork_two_and_check_write_csv_reaps(monkeypatch):
        """Two workers; no child may be left when _write_csv returns, while main still holds the rows."""
        real = cli._write_csv

        def write_csv(*args):
            code = real(*args)
            assert_no_child_left()
            return code

        monkeypatch.setattr(cli, "_write_csv", write_csv)
        monkeypatch.setattr(stochastic, "_workers", lambda blocks: 2)

    def test_reader_gone_at_the_first_write_reaps_the_workers(self, monkeypatch, tmp_path):
        class BrokenPipeStdout:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

            def fileno(self):
                return self.fd

        self.fork_two_and_check_write_csv_reaps(monkeypatch)
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", BrokenPipeStdout(fd))
            assert cli.main(self.MC_FORKED) == cli.EXIT_PIPE
        finally:
            os.close(fd)
        assert_no_child_left()

    def test_unwritable_out_reaps_the_workers(self, monkeypatch, tmp_path, capsys):
        self.fork_two_and_check_write_csv_reaps(monkeypatch)
        argv = self.MC_FORKED + ["--out", str(tmp_path / "missing" / "o.csv")]
        assert run_cli(argv, capsys)[0] == cli.EXIT_USAGE
        assert_no_child_left()

    def test_non_finite_state_after_the_first_write_leaves_the_whole_blocks(self, capsys):
        # the square of one of 5 replicas first overflows at k = 7670
        code, out, err = run_cli("mc --theta 1/6 --B 3 --replicas 5 --steps 8000 --seed 1".split(), capsys)
        assert (code, err) == (3, "error: squared norm not finite at k = 7670: 1 of 5 replicas\n")
        assert out.count("\n") == 1 + 7 * cli.ROWS_PER_WRITE

    def test_max_norm_mode_has_no_bound(self, capsys):
        code, out, _ = run_cli(
            ["mc", "--theta", "1/4", "--norm", "linf", "--x1", "1,3",
             "--A", "0.5", "--replicas", "20", "--steps", "10", "--seed", "3"],
            capsys,
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert all(r[3] == "" and r[4] == "" for r in rows)

    @pytest.mark.filterwarnings("error")
    def test_mean_prints_where_only_the_rounded_sum_overflows(self, capsys):
        # each squared norm is about 2e306; their sum is not a finite double
        code, out, err = run_cli(
            "mc --theta 1/6 --x1 1e153,1e153 --replicas 100 --steps 2".split(), capsys)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert rows[0][:3] == ["1", "%.17g" % (2 * 1e153 * 1e153), "0"]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:3])

    @pytest.mark.filterwarnings("error")
    def test_constant_noise_scale_where_the_euclidean_square_overflows(self, capsys):
        # ||x||_2^2 is about 2e308, past the largest double; ||x||_inf^2 is 1e308
        code, out, err = run_cli(("mc --theta 1/6 --norm linf --A 2 --B 0 --x1 1e154,1e154 "
                                  "--replicas 10 --steps 3").split(), capsys)
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert len(rows) == 3
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:3])

    def test_same_seed_same_bytes(self, capsys, tmp_path, monkeypatch):
        argv = ["mc", "--theta", "1/4", "--x1", "1,3", "--A", "2", "--B", "0",
                "--replicas", "300", "--steps", "30", "--seed", "77"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(argv + ["--out", str(first)], capsys)[0] == 0
        monkeypatch.setattr(stochastic, "_BLOCK", 7)  # step blocks of one step
        assert run_cli(argv + ["--out", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--theta", "abc"],
            ["simulate", "--theta", "5/2"],
            ["bound", "--theta", "1/", "--steps", "2"],
            ["simulate", "--theta", "1/4", "--alpha", "1.5"],
            ["simulate", "--theta", "1/4", "--x1", "1;2"],
            ["simulate", "--theta", "1/4", "--steps", "0"],
            ["simulate"],
            ["mc", "--theta", "1/4", "--seed", "-1"],
            ["mc", "--theta", "1/4", "--A", "-2"],
            ["unknown-command"],
            ["mc", "--theta", "1/4", "--A", "inf"],
            ["mc", "--theta", "1/4", "--A", "nan"],
            ["mc", "--theta", "1/4", "--B", "inf"],
            ["mc", "--theta", "1/4", "--B", "nan"],
            ["simulate", "--theta", "1/4", "--alpha", "nan"],
            ["search-beta", "--theta", "1/4", "--grid-step", "inf"],
            ["mc", "--theta", "1/4", "--workers", "2"],
            ["simulate", "--theta", "1/4", "--x1", "1,inf"],
            ["bound", "--theta", "1/4", "--x1", "nan,0"],
            ["bound", "--theta", "1/4", "--schedule", "invsqrt"],
        ],
    )
    def test_exit_code_2(self, argv, capsys):
        code, _, _ = run_cli(argv, capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--theta", "1/4", "--steps", "abc"], "argument --steps: not an integer: 'abc'"),
        (["mc", "--theta", "1/4", "--A", "x"], "argument --A: not a number: 'x'"),
    ])
    def test_unparsable_number_exits_2(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"error: {message}\n")

    @pytest.mark.parametrize("schedule", ["invk", "invsqrt", "invlog"])
    @pytest.mark.parametrize("alpha", ["0.3", "0.5"])
    def test_alpha_with_a_decaying_schedule_exits_2(self, schedule, alpha, capsys):
        # a decaying schedule sets its own step sizes; 0.5, the default, too.  It is simulate's usage error.
        argv = ["simulate", "--theta", "1/4", "--schedule", schedule, "--alpha", alpha, "--steps", "5"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: kmrot simulate [-h] --theta P/Q")
        assert err.endswith(f"\nkmrot simulate: error: --alpha applies only to --schedule const, not {schedule}\n")


def test_builtin_beta_table_is_the_published_figures():
    assert cli.REFERENCE_BETA_U == {Angle(p, q): v for (p, q), v in PUBLISHED_BETA_U.items()}


class TestAngleArg:
    GRAMMAR = "expected an angle of the form 'p/q' in units of pi"

    def test_parse(self):
        assert cli._angle_arg("3/4") == Angle(3, 4)
        assert cli._angle_arg(" 1/2 ") == Angle(1, 2)
        assert cli._angle_arg("1") == Angle(1, 1)
        for bad, message in [
            ("abc", f"{self.GRAMMAR}: 'abc'"),
            ("0.5", f"{self.GRAMMAR}: '0.5'"),
            ("1/0", "angle numerator and denominator must be positive: 1/0"),
            ("", f"{self.GRAMMAR}: ''"),
            ("1/2/3", f"{self.GRAMMAR}: '1/2/3'"),
            # only text without a '/' means a denominator of 1
            ("1/", f"{self.GRAMMAR}: '1/'"),
            ("2/", f"{self.GRAMMAR}: '2/'"),
        ]:
            with pytest.raises(argparse.ArgumentTypeError) as info:
                cli._angle_arg(bad)
            assert str(info.value) == message


class TestOutputErrors:
    @pytest.mark.parametrize("where", ["missing/x.csv", "."])
    def test_unwritable_out_path_exits_2_with_one_line(self, where, capsys, tmp_path):
        path = tmp_path / where
        code, out, err = run_cli(["simulate", "--theta", "1/6", "--steps", "2", "--out", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    def test_closed_stdout_exits_1_quietly(self):
        # about 1.4 MB of rows, far more than a pipe buffers
        argv = [sys.executable, "-m", "kmrot", "simulate", "--theta", "1/6", "--steps", "20000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"k,x1,x2,norm_value,bound_value\n"
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (1, b"")

    def test_closed_stdout_in_process(self, capsys, monkeypatch):
        # the test above in this process, where a line trace sees the branch
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w", encoding="utf-8") as pipe:
            monkeypatch.setattr(sys, "stdout", pipe)
            code = cli.main(["simulate", "--theta", "1/6", "--steps", "2000"])
        assert (code, capsys.readouterr().err) == (1, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_2_with_one_line(self):
        argv = [sys.executable, "-m", "kmrot", "simulate", "--theta", "1/6", "--steps", "2"]
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: cannot write stdout: ") and proc.stderr.count(b"\n") == 1


class TestNonFiniteState:
    @pytest.mark.parametrize(
        "argv",
        [
            "simulate --theta 1/6 --norm linf --x1 1.5e308,1.5e308 --steps 3",
            "simulate --theta 1/6 --norm l2 --x1 1.5e308,-1.5e308 --steps 3",
            "bound --theta 1/6 --norm l2 --x1 1.5e308,1.5e308 --steps 3",
            "simulate --theta 1/1 --schedule invk --x1 1.5e308,1.5e308 --steps 2",
            "mc --theta 1/6 --norm linf --x1 1e200,1e200 --replicas 10 --steps 2",
            "mc --theta 1/6 --x1 1e200,1e200 --replicas 10 --steps 2",
            "mc --theta 1/6 --A 1e308 --replicas 2 --steps 3",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_exits_3_with_one_line(self, argv, capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err


def _options() -> list[tuple[str, str]]:
    """(subcommand, option) for every option of every subcommand but --help."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [(command, action.option_strings[0]) for command, p in sub.choices.items()
            for action in p._actions if action.option_strings and action.dest != "help"]


class TestOptionSweep:
    """Every option of every subcommand, given bad or extreme text, ends cleanly.

    Clean: exit 0, 2 or 3, no traceback, and after a failure nothing on
    stdout and an error line last on stderr.  No value starts a valid run
    that does not end: none is a huge --steps for simulate or bound, or a
    huge --replicas.
    """

    VALUES = ["", "text", "nan", "inf", "-inf", "-1", "0", "-0", "5e-324", "1e-400", "1e400",
              "1.7976931348623157e308"]
    FORMS = {"--x1": ["{}", "{},{}", "1,{}"], "--theta": ["{}", "{}/1", "1/{}"]}
    BASES = {
        "simulate": ["simulate --theta 1/6 --steps 3 --norm l2", "simulate --theta 1/6 --steps 3 --norm linf"],
        "bound": ["bound --theta 1/6 --steps 3 --norm l2", "bound --theta 1/6 --steps 3 --norm linf"],
        "search-beta": ["search-beta --theta 1/6"],
        "mc": ["mc --theta 1/6 --replicas 5 --steps 3 --norm l2", "mc --theta 1/6 --replicas 5 --steps 3 --norm linf"],
    }
    # an alpha whose square underflows; replica counts past the mc limit
    MC_CASES = ["mc --theta 1/6 --alpha 1e-200 --replicas 5 --steps 3",
                f"mc --theta 1/6 --norm linf --replicas {stochastic.MAX_MC_REPLICAS + 1} --steps 3",
                f"mc --theta 1/6 --norm linf --replicas {2**64 + 1} --steps 3"]

    @staticmethod
    def problem(argv: list[str], capsys) -> str | None:
        try:
            code, out, err = run_cli(argv, capsys)
        except Exception as exc:
            capsys.readouterr()
            return f"raised {type(exc).__name__}: {exc}"
        last = err.splitlines()[-1] if err else ""
        if code not in (0, 2, 3) or "Traceback" in err:
            return f"exit {code}, stderr {err[-200:]!r}"
        if code and (out or "error: " not in last):
            return f"exit {code}, stdout {out[:80]!r}, last stderr line {last!r}"
        return None

    @pytest.mark.parametrize("command, option", _options())
    def test_option_fails_cleanly(self, command, option, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # --out writes here
        argvs = [base.split() + [f"{option}={form.format(value, value)}"]
                 for base in self.BASES[command] for form in self.FORMS.get(option, ["{}"]) for value in self.VALUES]
        problems = [(argv, self.problem(argv, capsys)) for argv in argvs]
        assert [p for p in problems if p[1]] == []

    @pytest.mark.parametrize("line", MC_CASES)
    def test_mc_case_fails_cleanly(self, line, capsys):
        assert self.problem(line.split(), capsys) is None


class TestCsvBytes:
    """The CSV contract byte by byte: cell spelling, empty cells, flags, signed zeros."""

    CASES = {
        "simulate --theta 1/6 --norm linf --x1 3,-7 --steps 4": (
            "k,x1,x2,norm_value,bound_value\n"
            "1,3,-7,7,7\n"
            "2,5,-6.1184688152946407,6.1184688152946407,7\n"
            "3,5.5592344076473204,-4.2179313570966634,5.5592344076473204,7\n"
            "4,5.5592344076473204,-2.4595465789037427,5.5592344076473204,7\n"
        ),
        "simulate --theta 1/4 --schedule invsqrt --steps 3": (
            "k,x1,x2,norm_value,bound_value\n"
            "1,10,30,31.622776601683793,\n"
            "2,-13.900714267493642,28.301428534987284,31.530948515188911,\n"
            "3,-25.17249634685276,15.48965363437814,29.556453475431038,\n"
        ),
        "simulate --theta 1/6 --schedule invlog --norm linf --steps 3": (
            "k,x1,x2,norm_value,bound_value\n"
            "1,10,30,30,\n"
            "2,-5.9776573018444843,30,30,\n"
            "3,-24.500247528809396,30,30,\n"
        ),
        "simulate --theta 1/6 --schedule invk --norm linf --steps 3": (
            "k,x1,x2,norm_value,bound_value\n"
            "1,10,30,30,\n"
            "2,-5.9776573018444843,30,30,\n"
            "3,-16.152229922498229,30,30,\n"
        ),
        "simulate --theta 1/6 --x1=-0,-0 --steps 3": (
            "k,x1,x2,norm_value,bound_value\n"
            "1,-0,-0,0,0\n"
            "2,0,0,0,0\n"
            "3,0,0,0,0\n"
        ),
        "bound --theta 1/3 --steps 3": (
            "k,bound_value\n"
            "1,31.622776601683793\n"
            "2,27.386127875258303\n"
            "3,23.717082451262844\n"
        ),
        "search-beta --theta 1/3 --grid-step 1e-3": (
            "theta,period,beta_u,argmax_t,grid_step\n"
            "1/3,3,0.68300145915827803,0.87599999999999989,0.001\n"
        ),
        # theta and grid_step come from the parsed arguments, the angle in lowest terms
        "search-beta --theta 2/24 --grid-step 1e-3": (
            "theta,period,beta_u,argmax_t,grid_step\n"
            "1/12,12,0.89739721431716524,-0.79480000000000006,0.001\n"
        ),
        "mc --theta 1/4 --x1 1,3 --replicas 20 --steps 3 --seed 5": (
            "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
            "1,10,0,10,0\n"
            "2,8.1642471021206848,0.6215579534423441,9.0355339059327378,0\n"
            "3,6.286329983217219,0.6746478520439344,8.2123106012293743,0\n"
        ),
        "mc --theta 1/4 --x1 1,3 --A 0.1 --B 0.6 --replicas 20 --steps 3 --seed 3": (
            "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
            "1,10,0,,1\n"
            "2,10.764872364272344,1.6380188547115242,,1\n"
            "3,10.250582351739283,2.4735442657533633,,1\n"
        ),
        "mc --theta 1/4 --norm linf --x1 1,3 --A 0.5 --replicas 20 --steps 3 --seed 3": (
            "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
            "1,9,0,,\n"
            "2,9.1255862180378458,0.41758958421827969,,\n"
            "3,7.3225512031544095,0.51892096527048792,,\n"
        ),
        "mc --theta 1/6 --x1=-0,-0 --replicas 4 --steps 2": (
            "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
            "1,0,0,0,0\n"
            "2,0.21684225741749691,0.14595225086687791,0.5,0\n"
        ),
    }

    @pytest.mark.parametrize("argv", sorted(CASES))
    def test_stdout(self, argv, capsys):
        assert run_cli(argv.split(), capsys) == (0, self.CASES[argv], "")

    @pytest.mark.parametrize("argv", sorted(CASES))
    def test_out_file_has_the_stdout_bytes(self, argv, capsys, tmp_path):
        path = tmp_path / "out.csv"
        assert run_cli(argv.split() + ["--out", str(path)], capsys) == (0, "", "")
        assert path.read_bytes() == self.CASES[argv].encode()


def _same_bytes_lines() -> list[str]:
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "same_bytes.txt")
    with open(path, encoding="utf-8") as handle:
        return [line.strip() for line in handle if line.strip() and not line.startswith("#")]


class TestSameBytesPins:
    """Each command line of tools/same_bytes.txt gets past argparse, or ends in it as pinned here.

    A mistyped line exits 2 the same way under both checkouts, so it would
    read SAME and test nothing.  The lines that test argparse's own exits
    are the --help lines (exit 0) and those of ARGPARSE_EXITS.
    """

    ARGPARSE_EXITS = {
        "simulate --theta 1/4 --steps 0": 2,
        **{f"bound --theta {text} --steps 3": 2 for text in ["1/2/3", "abc", "1/0", "0/1", "4/2", "/2", "0.5"]},
    }

    @pytest.mark.parametrize("line", _same_bytes_lines())
    def test_line_parses(self, line):
        argv = shlex.split(line)
        if "--help" not in argv and line not in self.ARGPARSE_EXITS:
            assert cli.build_parser().parse_args(argv).command == argv[0]
            return
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(argv)
        assert info.value.code == self.ARGPARSE_EXITS.get(line, 0)


class TestTracedNames:
    """bench/layers.py times the library by swapping these names in kmrot.cli.

    Each must stay a module global that the CLI looks up at call time, or
    the per-layer metrics it feeds read zero.
    """

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("run_km", "simulate --theta 1/4 --steps 3"),
            ("l2_bound", "bound --theta 1/4 --steps 3"),
            ("linf_bound", "bound --theta 1/2 --norm linf --steps 3"),
            ("search_beta_u", "search-beta --theta 1/3 --grid-step 1e-3"),
            ("run_stochastic_km", "mc --theta 1/4 --replicas 5 --steps 3"),
        ],
    )
    def test_cli_calls_the_module_global(self, name, argv, capsys, monkeypatch):
        calls = []
        real = getattr(cli, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counting)
        assert run_cli(argv.split(), capsys)[0] == 0
        assert calls
        if name == "run_km":
            assert calls[0][4] == 3  # the tracer counts steps from the 5th positional argument

    def test_kernel_probe_runs(self, monkeypatch):
        # the probe builds a RotationOp and times apply_averaged under both norms
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
        import layers

        monkeypatch.setattr(layers, "KERNEL_LOOP", 1)
        monkeypatch.setattr(layers, "KERNEL_REPEATS", 1)
        found = layers._kernel_ns(rotation)
        assert set(found) == {"rotation.apply_averaged_l2_ns", "rotation.apply_averaged_linf_ns"}

    def test_counters_read_library_results(self, monkeypatch):
        # the tracer's counters take the wrapped call's arguments and result; bounds.values reads len(curve.values)
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
        import layers

        counts = collections.defaultdict(float)
        args = (Angle(1, 4), NormKind.L2, 0.5, Vec2(1.0, 3.0), 7)
        layers._count_steps(counts, args, {}, run_km(*args))
        for bound, args in [(l2_bound, (Angle(1, 4), 0.5, 2.0, 5)), (linf_bound, (Angle(1, 3), 0.5, 2.0, 6)),
                            (noise_bound, (Angle(1, 4), 0.5, 4.0, 2.0, 0.1, 7))]:
            layers._count_values(counts, args, {}, bound(*args))
        layers._count_search(counts, (Angle(1, 3), 1e-3), {}, search_beta_u(Angle(1, 3), 1e-3))
        cfg = _config(replicas=5, steps=3)
        res = run_stochastic_km(cfg)
        layers._count_mc(counts, (cfg,), {}, res)
        res.rows.close()
        starts = 2001 + 21  # round(2 / 1e-3) + 1 grid starts and the refine pass
        assert counts == {"engine.steps": 7, "bounds.values": 5 + 6 + 7, "beta_search.starts": starts,
                          "beta_search.period_steps": starts * 3, "stochastic.replica_steps": 5 * 2,
                          "stochastic.matrix_mib": 5 * 3 * 8 / 2**20}


class TestModuleEntry:
    def test_python_dash_m_runs_and_is_deterministic(self):
        argv = [sys.executable, "-m", "kmrot", "simulate", "--theta", "1/2",
                "--alpha", "0.5", "--norm", "linf", "--x1", "10,30", "--steps", "5"]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.decode().splitlines()[0] == "k,x1,x2,norm_value,bound_value"
        assert b"\r" not in first.stdout

    # One case per way the process ends: main returns 0 (a table of three
    # write blocks, to stdout or to --out), 2 (parser.error) or 3, each
    # followed by os._exit; or argparse raises SystemExit (--help).
    @pytest.mark.parametrize("line, to_file, code", [
        ("simulate --theta 1/12 --norm linf --steps 2500", False, 0),
        ("simulate --theta 1/12 --norm linf --steps 2500", True, 0),
        ("simulate --theta 1/4 --schedule invk --alpha 0.3 --steps 5", False, 2),
        ("simulate --theta 1/6 --norm linf --x1 1.5e308,1.5e308 --steps 3", False, 3),
        ("search-beta --help", False, 0),
    ])
    def test_process_ends_with_every_byte_main_wrote(self, line, to_file, code, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width
        path = tmp_path / "out.csv"
        argv = line.split() + (["--out", str(path)] if to_file else [])
        expected = run_cli(argv, capsys)
        written = path.read_bytes() if to_file else None
        if to_file:
            path.unlink()
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kmrot.__file__)))
        proc = subprocess.run([sys.executable, "-m", "kmrot", *argv], capture_output=True, env=env)
        assert expected[0] == code
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected
        assert (path.read_bytes() if to_file else None) == written

    def test_entrypoint_leaves_through_os_exit(self, monkeypatch, tmp_path):
        # stdout None is a process started with descriptor 1 closed; --out still works
        exits = []
        path = tmp_path / "out.csv"
        monkeypatch.setattr(sys, "argv", ["kmrot", "bound", "--theta", "1/3", "--steps", "3", "--out", str(path)])
        monkeypatch.setattr(sys, "stdout", None)
        monkeypatch.setattr(os, "_exit", exits.append)
        cli.entrypoint()
        assert exits == [0]
        assert path.read_bytes().startswith(b"k,bound_value\n1,31.622776601683793\n")


# Imports kmrot, runs main on each argument line with stdout discarded, and
# prints whether numpy was loaded after the import and after each command.
_STARTUP = """
import contextlib, io, sys
import kmrot, kmrot.cli
seen = ["numpy" in sys.modules]
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = kmrot.cli.main(line.split())
    seen.append((code, "numpy" in sys.modules))
print(seen)
"""


# entrypoint with a main that imports numpy: the thread count it asked
# OpenBLAS for, and the process's threads once numpy is loaded
_BLAS_THREADS = """
import os
import kmrot.cli

def main():
    import numpy
    with open("/proc/self/status") if os.path.exists("/proc/self/status") else open(os.devnull) as status:
        threads = [line.split()[1] for line in status if line.startswith("Threads:")]
    print((os.environ.get("OPENBLAS_NUM_THREADS"), threads))
    return 0

kmrot.cli.main = main
kmrot.cli.entrypoint()
"""


def _type_checking_namespace(module) -> dict:
    """The module's globals plus what its `if TYPE_CHECKING:` block imports."""
    namespace = dict(vars(module))
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, type_ignores=[]), module.__file__, "exec"), namespace)
    return namespace


class TestStartup:
    """simulate, bound and a noiseless mc build no array, so they run without numpy; import loads no dataclasses."""

    NO_ARRAYS = [
        "simulate --theta 1/12 --steps 30",
        "simulate --theta 1/12 --norm linf --steps 30",
        "bound --theta 1/12 --steps 30",
        "bound --theta 1/12 --norm linf --steps 30",
        "simulate --theta 1/6 --schedule invk --steps 30",
        # pi/1000 is not in the table, but no row reaches past T = 1000
        "bound --theta 1/1000 --norm linf --steps 3",
        # a noiseless run steps its one path; 5000 replicas would fork
        "mc --theta 1/4 --A 0 --replicas 5000 --steps 30",
        "mc --theta 1/4 --A 0 --replicas 5000 --steps 30 --norm linf",
    ]

    @pytest.mark.parametrize("given, seen", [(None, "1"), ("2", "2")])
    def test_entrypoint_asks_openblas_for_one_thread_unless_told(self, given, seen):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kmrot.__file__)))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if given is not None:
            env["OPENBLAS_NUM_THREADS"] = given
        proc = subprocess.run([sys.executable, "-c", _BLAS_THREADS], capture_output=True, text=True, env=env, check=True)
        value, threads = ast.literal_eval(proc.stdout)
        assert value == seen
        if given is None and sys.platform == "linux":
            assert threads == ["1"]

    def test_import_loads_neither_dataclasses_nor_numpy(self):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kmrot.__file__)))
        probe = "import sys, kmrot, kmrot.cli; print(sorted({'dataclasses', 'numpy'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("argv", [
        "search-beta --theta 1/3 --grid-step 1e-3",
        "mc --theta 1/4 --replicas 5 --steps 3",
        # pi/8 is not in the table, so linf_bound searches for beta_u
        "simulate --theta 1/8 --norm linf --steps 30",
    ])
    def test_numpy_loads_only_where_an_array_is_built(self, argv):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(kmrot.__file__)))
        proc = subprocess.run([sys.executable, "-c", _STARTUP, *self.NO_ARRAYS, argv],
                              capture_output=True, text=True, env=env, check=True)
        assert ast.literal_eval(proc.stdout) == [False, *[(0, False)] * len(self.NO_ARRAYS), (0, True)]

    @pytest.mark.parametrize("module, name", [
        (rotation, "turn"),
        (rotation, "km_step"),
        (beta_search, "_edge_max"),
        (stochastic, "replica_rng"),
        (stochastic, "ExactSums.add"),
    ])
    def test_array_annotations_resolve(self, module, name):
        obj = module
        for part in name.split("."):
            obj = getattr(obj, part)
        hints = typing.get_type_hints(obj, _type_checking_namespace(module))
        assert any("numpy" in str(hint) for hint in hints.values())


class TestPublicApi:
    # the paper's objects, its error types and the records that configure them
    NAMES = [
        "Angle", "InvalidAlphaError", "KmrotError", "McConfig", "NoiseParams", "NonFiniteError", "NormKind",
        "OutOfRangeError", "UnstableError", "UnsupportedAlphaError", "Vec2", "beta_l", "l2_bound", "linf_bound",
        "mu", "noise_bound", "norm", "optimal_alpha_l2", "pseudo_period", "run_km", "run_stochastic_km",
        "search_beta_u",
    ]
    # result records and helpers, importable from their modules only
    MODULE_ONLY = {
        "BetaSearchResult": beta_search, "BoundCurve": bounds, "McResult": stochastic,
        "replica_rng": stochastic, "sin_cos_pi": rotation, "tan_pi": rotation,
    }

    def test_all_names_resolve_once(self):
        assert kmrot.__all__ == self.NAMES
        assert [name for name in kmrot.__all__ if not hasattr(kmrot, name)] == []
        # the benchmark kernel probe's adapter stays in kmrot.rotation only
        assert {"RotationOp", "apply_averaged"}.isdisjoint(dir(kmrot))
        # a step size is a number or a rule k -> alpha_k, with no record around it
        assert {"Schedule", "ScheduleKind", "step_size"}.isdisjoint(dir(kmrot))

    def test_module_only_names(self):
        for name, module in self.MODULE_ONLY.items():
            assert hasattr(module, name) and not hasattr(kmrot, name)

    def test_benchmark_regenerate_line_resolves(self):
        # bench/README.md's line that regenerates workloads.ARGMAX_T
        namespace = {}
        exec("from kmrot import *", namespace)
        search, angle = namespace["search_beta_u"], namespace["Angle"]
        found = [format(search(angle(1, q)).argmax_start.x1, ".17g") for q in (12, 6, 4, 3)]
        assert found == ["-0.79479999999999995", "-0.64239000000000013", "-0.50089000000000006",
                         "0.26795000000000002"]


def _config(alpha=0.5, replicas=5, steps=3, seed=7) -> McConfig:
    return McConfig(Angle(1, 4), alpha, Vec2(1.0, 3.0), NoiseParams(2.0), replicas, steps, seed)


class TestRecords:
    """The records are tuples with the fields, defaults, repr, immutability and checks of their first form."""

    # built in their own cases, so a record whose fields change fails only those
    RECORDS = {
        "Angle": (lambda: Angle(1, 12), "Angle(p=1, q=12)"),
        "Vec2": (lambda: Vec2(1.0, 2.0), "Vec2(x1=1.0, x2=2.0)"),
        "NoiseParams": (lambda: NoiseParams(2.0), "NoiseParams(a=2.0, b=0.0)"),
        "McConfig": (_config, "McConfig(theta=Angle(p=1, q=4), alpha=0.5, x1=Vec2(x1=1.0, x2=3.0), "
                              "noise=NoiseParams(a=2.0, b=0.0), replicas=5, steps=3, seed=7, "
                              "norm_kind=<NormKind.L2: 'l2'>)"),
        "BetaSearchResult": (lambda: BetaSearchResult(2, 0.5, Vec2(0.0, 1.0)),
                             "BetaSearchResult(period=2, beta_u=0.5, argmax_start=Vec2(x1=0.0, x2=1.0))"),
        "BoundCurve": (lambda: BoundCurve((1.0, 0.5)), "BoundCurve(values=(1.0, 0.5))"),
    }

    def test_angle_is_stored_in_lowest_terms_and_hashes_so(self):
        assert Angle(2, 24) == Angle(1, 12)
        assert hash(Angle(2, 24)) == hash(Angle(1, 12))
        assert cli.REFERENCE_BETA_U[Angle(2, 24)] == 0.8974

    @pytest.mark.parametrize("name", RECORDS)
    def test_repr(self, name):
        build, text = self.RECORDS[name]
        assert repr(build()) == text

    @pytest.mark.parametrize("name", RECORDS)
    def test_fields_cannot_be_assigned_or_added(self, name):
        record = self.RECORDS[name][0]()
        for field in type(record).__match_args__:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    @pytest.mark.parametrize("name", RECORDS)
    def test_pickle_and_copy_round_trip(self, name):
        record = self.RECORDS[name][0]()
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert type(twin) is type(record) and twin == record

    def test_records_are_tuples(self):
        p, q = Angle(2, 24)
        assert (p, q, Angle(1, 12)[1]) == (1, 12, 12)
        assert Vec2(1.0, 2.0) == (1.0, 2.0)

    # Checks that run first win: the sign check before the gcd, the range
    # check on the reduced angle, finiteness before sign, alpha before counts.
    @pytest.mark.parametrize("build, error, message", [
        (lambda: Angle(0, 1), ValueError, "angle numerator and denominator must be positive: 0/1"),
        (lambda: Angle(-2, 4), ValueError, "angle numerator and denominator must be positive: -2/4"),
        (lambda: Angle(4, 2), ValueError, "angle must lie in (0, 2)*pi: got 2/1*pi"),
        (lambda: Vec2(math.inf, 1.0), NonFiniteError, "coordinates must be finite: (inf, 1.0)"),
        (lambda: NoiseParams(math.nan, -1.0), NonFiniteError, "noise parameter a must be finite: got nan"),
        (lambda: NoiseParams(1.0, -0.5), ValueError, "noise parameter b must be >= 0: got -0.5"),
        (lambda: _config(alpha=1.0, replicas=0, seed=-1), InvalidAlphaError, "alpha must lie in (0, 1): got 1.0"),
        (lambda: _config(replicas=0, seed=-1), ValueError, "replicas must be >= 1: got 0"),
        (lambda: _config(replicas=stochastic.MAX_MC_REPLICAS + 1), OutOfRangeError,
         f"replicas must be <= {stochastic.MAX_MC_REPLICAS}: got {stochastic.MAX_MC_REPLICAS + 1}"),
        (lambda: _config(seed=2**64), ValueError,
         "seed must fit in an unsigned 64-bit integer: got 18446744073709551616"),
        (lambda: _config(replicas=2**64 + 1), OutOfRangeError,
         f"replicas must be <= {stochastic.MAX_MC_REPLICAS}: got 18446744073709551617"),
    ])
    def test_check_messages(self, build, error, message):
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message
