"""Tests for the command-line interface.

main() is called in process so exit codes, stdout, and stderr can be
asserted directly; one test goes through a real subprocess to cover the
module entry point.
"""

import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from pdflow import cli
from pdflow.cli import _footer_value, main, write_plot_script, write_trace_csv
from pdflow.diagnostics import CSV_FIELDS, Trace, trace_flow
from pdflow.flow import FlowParams, RK4, integrate
from pdflow.metric import TauSchedule
from pdflow.problems import CATALOG_NAMES

_HEADER = ",".join(CSV_FIELDS)


def _flow_args(tmp_path, *extra):
    return ["flow", "--problem", "example1", "--tau", "0.25",
            "--gamma", "0.5", "--horizon", "5", "--out", str(tmp_path),
            *extra]


class TestFlowCommand:
    def test_successful_run(self, tmp_path, capsys):
        assert main(_flow_args(tmp_path)) == 0
        csv = tmp_path / "example1-flow.csv"
        assert csv.exists()
        assert (tmp_path / "example1-flow.gp").exists()
        assert (tmp_path / "example1-flow-report.txt").exists()
        lines = csv.read_text().splitlines()
        assert lines[0] == _HEADER
        out = capsys.readouterr().out
        assert "gap_bound_ok = true" in out
        assert "lyapunov_monotone = true" in out

    def test_initial_row_has_empty_ergodic_cells(self, tmp_path):
        main(_flow_args(tmp_path))
        lines = (tmp_path / "example1-flow.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[0] == "0.0"
        assert first[5] == "" and first[6] == ""
        second = lines[2].split(",")
        assert second[5] != ""

    def test_footer_is_machine_readable(self, tmp_path):
        main(_flow_args(tmp_path))
        text = (tmp_path / "example1-flow.csv").read_text()
        footer = dict(
            line[2:].split(" = ", 1)
            for line in text.splitlines() if line.startswith("# "))
        assert footer["problem"] == "example1"
        assert footer["mode"] == "flow"
        assert float(footer["gamma"]) == 0.5
        assert float(footer["tau0"]) == 0.25
        assert footer["stop_reason"] == "horizon"
        assert int(footer["rhs_evals"]) == 4 * 500  # RK4, h = 0.01, T = 5
        assert float(footer["w0_norm_sq"]) > 0
        assert footer["gap_bound_ok"] == "true"
        report = (tmp_path / "example1-flow-report.txt").read_text()
        assert "  rhs_evals = 2000\n" in report

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(_flow_args(a))
        main(_flow_args(b))
        assert (a / "example1-flow.csv").read_bytes() == \
            (b / "example1-flow.csv").read_bytes()

    def test_dump_state_columns(self, tmp_path):
        main(_flow_args(tmp_path, "--dump-state"))
        lines = (tmp_path / "example1-flow.csv").read_text().splitlines()
        assert lines[0] == _HEADER + ",x_0,x_1,z_0,z_1,y_0,y_1"
        first = lines[1].split(",")
        assert float(first[7]) == -10.0
        assert float(first[9]) == -20.0

    def test_record_every_thins_rows(self, tmp_path):
        main(_flow_args(tmp_path, "--record-every", "10"))
        lines = [ln for ln in
                 (tmp_path / "example1-flow.csv").read_text().splitlines()
                 if ln and not ln.startswith("#")]
        assert len(lines) == 1 + 51  # header + 500 steps / 10 + endpoints

    def test_plot_script_contents(self, tmp_path):
        main(_flow_args(tmp_path))
        gp = (tmp_path / "example1-flow.gp").read_text()
        assert 'set datafile separator ","' in gp
        assert 'set datafile missing ""' in gp
        assert "set logscale y" in gp
        assert 'using 1:2' in gp and 'using 1:5' in gp


class TestAdaptiveFlowCommand:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_certified_and_deterministic(self, name, tmp_path):
        args = ["flow", "--problem", name, "--integrator", "adaptive",
                "--tau", "auto"]
        csv = f"{name}-flow.csv"
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        text = (tmp_path / "a" / csv).read_text()
        assert "# gap_bound_ok = true" in text
        assert "# lyapunov_monotone = true" in text
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "b" / csv).read_bytes() == \
            (tmp_path / "a" / csv).read_bytes()


class TestDiscreteCommand:
    def test_admm_run(self, tmp_path, capsys):
        code = main(["discrete", "--problem", "example1", "--tau", "0.25",
                     "--max-iters", "300", "--out", str(tmp_path)])
        assert code == 0
        csv = tmp_path / "example1-admm.csv"
        assert csv.exists()
        out = capsys.readouterr().out
        assert "algorithm = admm" in out
        assert "stop_reason = tolerance" in out

    def test_cp_run(self, tmp_path):
        code = main(["discrete", "--problem", "example1", "--algorithm", "cp",
                     "--tau", "0.25", "--max-iters", "500",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "example1-cp.csv").exists()

    def test_divergence_exits_2(self, tmp_path, capsys):
        code = main(["discrete", "--problem", "box-qp", "--tau", "0.2",
                     "--max-iters", "400", "--out", str(tmp_path)])
        assert code == 2
        assert "diverged" in capsys.readouterr().err

    def test_cp_with_smooth_term_is_config_error(self, tmp_path, capsys):
        code = main(["discrete", "--problem", "box-qp", "--algorithm", "cp",
                     "--tau", "0.1", "--out", str(tmp_path)])
        assert code == 1
        assert "pdflow:" in capsys.readouterr().err


class TestErrorPaths:
    def test_gamma_out_of_range(self, tmp_path, capsys):
        code = main(_flow_args(tmp_path)[:-2] + ["--gamma", "1.5"])
        assert code == 1
        assert "gamma must lie in [0,1]" in capsys.readouterr().err

    def test_unknown_problem(self, capsys):
        code = main(["flow", "--problem", "mystery"])
        assert code == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["polish"]) == 1
        assert "pdflow:" in capsys.readouterr().err

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "run.cfg"
        bad.write_text("c = fast\n")
        code = main(["flow", "--config", str(bad)])
        assert code == 1
        assert "line 1" in capsys.readouterr().err

    def test_zero_adaptive_tolerances_are_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("integrator = adaptive\nabs_tol = 0\nrel_tol = 0\n")
        code = main(["flow", "--config", str(cfg), "--problem", "example1",
                     "--tau", "0.25", "--horizon", "1",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "abs_tol" in capsys.readouterr().err

    def test_infinite_horizon_is_config_error(self, tmp_path, capsys):
        code = main(["flow", "--problem", "example1", "--tau", "0.25",
                     "--horizon", "inf", "--out", str(tmp_path)])
        assert code == 1
        assert "horizon must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("stop_tol = nan", "stop_tol must not be NaN"),
        ("hit_threshold = nan", "hit_threshold must be nonnegative"),
        ("hit_threshold = -1", "hit_threshold must be nonnegative"),
    ])
    def test_nan_thresholds_are_config_error(self, tmp_path, capsys, line,
                                             message):
        """A NaN stop_tol once ran the whole budget and exited 0, and a NaN
        or negative hit threshold gave first_hit_time = inf."""
        cfg = tmp_path / "a.cfg"
        cfg.write_text(f"problem = example1\n{line}\n")
        code = main(["discrete", "--config", str(cfg), "--tau", "auto",
                     "--out", str(tmp_path)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    def test_negative_hit_threshold_flag_is_config_error(self, tmp_path,
                                                         capsys):
        code = main(["flow", "--problem", "example1", "--tau", "0.25",
                     "--horizon", "1", "--hit-threshold", "-0.5",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "hit_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["flow", "--horizon", "5"], ["check", "--integrator", "rk4"]])
    def test_infinite_step_is_config_error(self, tmp_path, capsys, command):
        """An infinite step used to run no step and report success."""
        code = main([*command, "--problem", "example1", "--tau", "0.25",
                     "--step", "inf", "--out", str(tmp_path)])
        assert code == 1
        assert "step must be positive and finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["flow", "--horizon", "2"], ["discrete"]])
    def test_subnormal_tau_is_config_error(self, tmp_path, capsys, command):
        """A subnormal tau made 1 / tau overflow in the metric I / tau: the
        run exited 0 with a blank Lyapunov column and every certificate
        vacuously true."""
        code = main([*command, "--problem", "example1", "--tau", "1e-320",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "< tau0 < inf" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", [
        ["flow", "--horizon", "1"], ["discrete", "--max-iters", "3"]])
    def test_overflowing_weight_fails_certificates(self, tmp_path, capsys,
                                                   command):
        """At tau = 6e-309, 1 / tau is finite but the Lyapunov weight
        overflows: w0_norm_sq and every Lyapunov cell are inf.  Both rate
        certificates then fail instead of holding vacuously, and the gap
        margin, undefined with the bound, reads nan."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main([*command, "--problem", "example1", "--tau", "6e-309",
                         "--out", str(tmp_path)])
        assert code == 2
        out = capsys.readouterr().out
        for line in ("w0_norm_sq = inf", "gap_bound_ok = false",
                     "gap_bound_margin = nan", "lyapunov_monotone = false"):
            assert f"  {line}\n" in out

    def test_oversized_step_is_config_error(self, tmp_path, capsys):
        code = main(["flow", "--problem", "example1", "--tau", "0.9",
                     "--horizon", "1", "--out", str(tmp_path)])
        assert code == 1
        assert "tau" in capsys.readouterr().err


class TestCheckCommand:
    def test_clean_problem_passes(self, tmp_path, capsys):
        code = main(["check", "--problem", "example1", "--tau", "0.25",
                     "--out", str(tmp_path)])
        assert code == 0
        report = (tmp_path / "example1-check-report.txt").read_text()
        assert "ok" in report
        assert "FAIL" not in report
        assert capsys.readouterr().out.strip() != ""

    @pytest.mark.parametrize("command", ["flow", "check"])
    def test_check_accepts_what_flow_accepts(self, tmp_path, capsys,
                                             command):
        """c tau(t) ||A||^2 <= 1 holds up to t = 0.5 for this schedule.
        `check` once compared 25 unit steps whatever the horizon, so its
        step test read tau(25) and refused a run that `flow` accepts; a
        horizon under one step now skips that comparison."""
        code = main([command, "--problem", "example1", "--tau",
                     "saturating:0.2,0.6", "--horizon", "0.5",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        if command == "check":
            assert ("skip unit-step-equivalence: horizon holds no unit step"
                    in out)
            assert "11 of 11 checks passed" in out

    @pytest.mark.parametrize("command", ["flow", "check"])
    def test_both_refuse_a_step_that_fails_over_the_horizon(
            self, tmp_path, capsys, command):
        code = main([command, "--problem", "example1", "--tau",
                     "saturating:0.2,0.6", "--horizon", "3",
                     "--out", str(tmp_path)])
        assert code == 1
        assert "c tau(t) ||A||^2 <= 1" in capsys.readouterr().err


class TestSweepCommands:
    def test_sweep_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("problem = example1\nhorizon = 2\nstep = 0.05\n"
                       "x0 = example1-default\nz0 = example1-default\n"
                       "y0 = example1-default\n"
                       "[sweep]\ntaucs = 0.25\ngammas = 0.99, 0.5\n")
        code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "example1-flow-g0.99-tc0.25.csv").exists()
        assert (tmp_path / "example1-flow-g0.5-tc0.25.csv").exists()
        for gamma in ("0.99", "0.5"):
            lines = (tmp_path / f"example1-flow-g{gamma}-tc0.25.csv"
                     ).read_text().splitlines()
            assert "# rhs_evals = 160" in lines  # RK4, h = 0.05, T = 2
        report = (tmp_path / "example1-sweep-report.txt").read_text()
        assert "tau*c" in report
        out = capsys.readouterr().out
        assert "sweep summary" in out

    def test_reproduce_shortened(self, tmp_path):
        """The reproduction command with a shortened horizon still runs all
        nine configurations and emits the summary."""
        code = main(["reproduce-example1", "--horizon", "2",
                     "--step", "0.05", "--jobs", "2", "--out", str(tmp_path)])
        assert code == 0
        csvs = list(tmp_path.glob("example1-flow-g*-tc*.csv"))
        assert len(csvs) == 9
        assert (tmp_path / "example1-sweep-report.txt").exists()

    def test_sweep_jobs_do_not_change_results(self, tmp_path):
        a = tmp_path / "serial"
        b = tmp_path / "parallel"
        for out, jobs in ((a, "1"), (b, "4")):
            main(["reproduce-example1", "--horizon", "1", "--step", "0.05",
                  "--jobs", jobs, "--out", str(out)])
        name = "example1-flow-g0.5-tc0.25.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()


class TestWriters:
    def _trace(self):
        return Trace(t=[0.0, 1.0], dist_primal=[1.5, 0.5],
                     dist_dual=[math.nan, 0.25], feas=[0.0, 0.1],
                     lyapunov=[12.0, 6.0], ergodic_feas=[math.nan, 0.2],
                     ergodic_gap=[math.nan, 0.01])

    def test_csv_cells(self, tmp_path):
        """NaN cells are written blank."""
        path = tmp_path / "t.csv"
        write_trace_csv(path, self._trace(), footer=[("k", 1.5), ("ok", True)])
        lines = path.read_text().splitlines()
        assert lines[0] == _HEADER
        assert lines[1] == "0.0,1.5,,0.0,12.0,,"
        assert lines[2] == "1.0,0.5,0.25,0.1,6.0,0.2,0.01"
        assert lines[3] == "# k = 1.5"
        assert lines[4] == "# ok = true"

    def test_footer_values_from_numpy_scalars(self):
        """numpy scalars print like the Python values they stand for."""
        assert _footer_value(np.float64(0.5)) == "0.5"
        assert _footer_value(np.float64(1.0) / 3.0) == repr(1.0 / 3.0)
        assert _footer_value(np.bool_(True)) == "true"
        assert _footer_value(np.bool_(False)) == "false"
        assert _footer_value(np.int64(7)) == "7"

    def test_csv_state_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        U = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
        write_trace_csv(path, self._trace(), U=U, n=2)
        lines = path.read_text().splitlines()
        assert lines[0].endswith("x_0,x_1,z_0,y_0")
        assert lines[1].endswith("1.0,2.0,3.0,4.0")
        assert lines[2].endswith("5.0,6.0,7.0,8.0")

    def test_state_columns_match_state_list(self, tmp_path, example1):
        """The state columns written from U are the bytes the per-state
        writer produced: each row is repr of x, then z, then y."""
        params = FlowParams(c=1.0, gamma=0.5, tau=TauSchedule.constant(0.25),
                            horizon=1.0, integrator=RK4(h=0.1))
        traj = integrate(example1, params)
        trace = trace_flow(example1, params, traj)
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace, U=traj.U, n=example1.n,
                        footer=[("k", 1.5)])
        plain = tmp_path / "plain.csv"
        write_trace_csv(plain, trace, footer=[("k", 1.5)])
        want = plain.read_text().splitlines()
        want[0] += ",x_0,x_1,z_0,z_1,y_0,y_1"
        for i, s in enumerate(traj.states, start=1):
            want[i] += "," + ",".join(
                repr(float(v)) for v in (*s.x, *s.z, *s.y))
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()

    def test_float_cells_round_trip(self, tmp_path):
        """repr-formatted cells parse back to the identical float."""
        value = 1.0 / 3.0
        trace = Trace(**{name: [value] for name in CSV_FIELDS})
        path = tmp_path / "t.csv"
        write_trace_csv(path, trace)
        cells = path.read_text().splitlines()[1].split(",")
        assert all(float(cell) == value for cell in cells)

    def test_plot_script_standalone(self, tmp_path):
        path = tmp_path / "p.gp"
        write_plot_script(path, "data.csv", "title text")
        text = path.read_text()
        assert text.startswith("# plot script for data.csv")
        assert '"data.csv" using 1:2' in text


class TestParserReuse:
    def test_calls_parse_only_their_own_argv(self, tmp_path, monkeypatch):
        """`main` builds its parser once per process; a second call with
        another subcommand and other flags sees none of the first's."""
        seen = []
        monkeypatch.setitem(cli._DISPATCH, "discrete",
                            lambda args, cfg: seen.append((args, cfg)) or 0)
        monkeypatch.setitem(cli._DISPATCH, "check",
                            lambda args, cfg: seen.append((args, cfg)) or 0)
        assert main(["discrete", "--problem", "lasso-small", "--algorithm",
                     "cp", "--seed", "9", "--max-iters", "7",
                     "--out", str(tmp_path)]) == 0
        assert main(["check", "--problem", "box-qp"]) == 0
        first, second = seen
        assert (first[0].command, first[0].algorithm, first[0].seed,
                first[1].problem, first[1].max_iters) == (
                    "discrete", "cp", 9, "lasso-small", 7)
        assert second[0].command == "check"
        assert not hasattr(second[0], "algorithm")
        assert second[0].seed == 0 and second[0].out is None
        assert second[1].problem == "box-qp"
        assert second[1].max_iters != 7
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli._parser()


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "pdflow.cli", "flow", "--problem",
             "example1", "--tau", "0.25", "--horizon", "1",
             "--out", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "example1-flow.csv").exists()
