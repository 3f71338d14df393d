"""CLI behavior: CSV output, exit codes, determinism, round-trips."""

import math
import os
import subprocess
import sys
import tracemalloc

import pytest

import kmrot.beta_search as beta_search
import kmrot.cli as cli
import kmrot.stochastic as stochastic
from kmrot import (
    Angle,
    NormKind,
    Schedule,
    Vec2,
    linf_bound,
    mu,
    run_km,
    search_beta_u,
)
from kmrot.beta_search import MIN_GRID_STEP

from _support import parse_csv, run_cli


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
        traj = run_km(Angle(1, 12), NormKind.LINF, Schedule.constant(0.5), Vec2(3.0, -7.0), 40)
        curve = linf_bound(Angle(1, 12), 0.5, traj.norms[0], 40, beta_u=0.8974)
        for row, a, b, value, cap in zip(rows, traj.x1, traj.x2, traj.norms, curve.values):
            assert float(row[1]) == a
            assert float(row[2]) == b
            assert float(row[3]) == value
            assert float(row[4]) == cap


    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_long_run_holds_columns_not_rows(self, norm, tmp_path):
        # a Vec2 per iterate and a list of all row strings peaked at 10.9 MiB
        argv = ["simulate", "--theta", "1/12", "--norm", norm, "--steps", "30000", "--out", str(tmp_path / "o.csv")]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 6 * 2**20


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

    def test_same_seed_same_bytes(self, capsys, tmp_path, monkeypatch):
        argv = ["mc", "--theta", "1/4", "--x1", "1,3", "--A", "2", "--B", "0",
                "--replicas", "300", "--steps", "30", "--seed", "77"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(argv + ["--out", str(first)], capsys)[0] == 0
        monkeypatch.setattr(stochastic, "_CHUNK", 7)
        assert run_cli(argv + ["--out", str(second)], capsys)[0] == 0
        assert first.read_bytes() == second.read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--theta", "abc"],
            ["simulate", "--theta", "5/2"],
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
            "simulate --theta 1/6 --norm linf --x1 1e155,1e155 --steps 3",
            "simulate --theta 1/6 --norm l2 --x1 1.5e308,-1.5e308 --steps 3",
            "bound --theta 1/6 --norm l2 --x1 1.5e308,1.5e308 --steps 3",
            "simulate --theta 1/1 --schedule invk --x1 1.5e308,1.5e308 --steps 2",
            "mc --theta 1/6 --norm linf --x1 1e200,1e200 --replicas 10 --steps 2",
            "mc --theta 1/6 --x1 1e200,1e200 --replicas 10 --steps 2",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_exits_3_with_one_line(self, argv, capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err


class TestCsvBytes:
    """The CSV contract byte by byte: cell spelling, empty cells, flags, signed zeros."""

    CASES = {
        "simulate --theta 1/6 --norm linf --x1 3,-7 --steps 4": (
            "k,x1,x2,norm_value,bound_value\n"
            "1,3,-7,7,7\n"
            "2,5,-6.1184688152946407,6.1184688152946407,7\n"
            "3,5.5592344076473204,-4.2179313570966643,5.5592344076473204,7\n"
            "4,5.5592344076473204,-2.4595465789037436,5.5592344076473204,7\n"
        ),
        "simulate --theta 1/4 --schedule invsqrt --steps 3": (
            "k,x1,x2,norm_value,bound_value\n"
            "1,10,30,31.622776601683793,\n"
            "2,-13.900714267493642,28.301428534987284,31.530948515188911,\n"
            "3,-25.17249634685276,15.48965363437814,29.556453475431038,\n"
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
        "mc --theta 1/4 --x1 1,3 --replicas 20 --steps 3 --seed 5": (
            "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
            "1,10,0,10,0\n"
            "2,7.8929727907921237,0.56221116377396363,9.0355339059327378,0\n"
            "3,8.0542217676345675,0.76748711330732167,8.2123106012293743,0\n"
        ),
        "mc --theta 1/4 --x1 1,3 --A 0.1 --B 0.6 --replicas 20 --steps 3 --seed 3": (
            "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
            "1,10,0,,1\n"
            "2,8.3326559288995519,0.9501280658088791,,1\n"
            "3,8.3833392515514209,1.5200914175698323,,1\n"
        ),
        "mc --theta 1/4 --norm linf --x1 1,3 --A 0.5 --replicas 20 --steps 3 --seed 3": (
            "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
            "1,9,0,,\n"
            "2,8.4991511820667913,0.30329063015466168,,\n"
            "3,6.8026861508216623,0.53252120384805357,,\n"
        ),
        "mc --theta 1/6 --x1=-0,-0 --replicas 4 --steps 2": (
            "k,mean_sq_norm,std_err,bound_sq,bound_unstable\n"
            "1,0,0,0,0\n"
            "2,0.11457443229922204,0.048838975879158662,0.5,0\n"
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
