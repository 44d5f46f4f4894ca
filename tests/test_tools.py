"""Tests for the tools that every claim about CLI outputs and per-layer
cost rests on, and for the names they and the benchmark read.

`tools/*.py` and `perfbench/run.py` are scripts, not modules of the
package, so they are imported from their paths.
"""

import importlib
import importlib.util
import os
import pkgutil
import re
import sys
import warnings

import pytest

import pdflow

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _load_tool(name, folder="tools"):
    path = os.path.join(ROOT, folder, name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


output_diff = _load_tool("output_diff")
output_digest = _load_tool("output_digest")


class TestCellDelta:
    def test_equal_text_is_no_move(self):
        assert output_diff._cell_delta("1.5", "1.5") == 0.0
        assert output_diff._cell_delta("nan", "nan") == 0.0

    @pytest.mark.parametrize("a,b", [("-0.0", "0.0"), ("0.0", "-0.0")])
    def test_sign_of_zero_flip_is_flagged(self, a, b):
        assert output_diff._cell_delta(a, b) == float("inf")
        flags = []
        output_diff._compare_cells([a], [b], "cell", flags)
        assert flags == [f"cell: {a!r} vs {b!r}"]

    def test_roundoff_is_a_relative_move(self):
        d = output_diff._cell_delta("1.0", "1.0000000000000002")
        assert d == pytest.approx(2.220446049250313e-16, rel=1e-12)


def _warns_here(argv):
    print("report")
    print("note", file=sys.stderr)
    warnings.warn("overflow in the weight", RuntimeWarning)
    return 0


def _warns_two_lines_down(argv):
    print("report")
    print("note", file=sys.stderr)

    warnings.warn("overflow in the weight", RuntimeWarning)
    return 0


def _warns_otherwise(argv):
    print("report")
    print("note", file=sys.stderr)
    warnings.warn("overflow in the step", RuntimeWarning)
    return 0


class TestDigestWarnings:
    """The digest hashes a warning as its category and message, so a
    warning whose source line moves keeps its stderr hash."""

    @staticmethod
    def _digest(monkeypatch, main):
        monkeypatch.setattr(output_digest.cli, "main", main)
        return output_digest.run(["flow"])

    def test_moved_warning_keeps_the_digest(self, monkeypatch):
        here = self._digest(monkeypatch, _warns_here)
        moved = self._digest(monkeypatch, _warns_two_lines_down)
        assert here == moved
        want = output_digest._sha(
            b"note\nRuntimeWarning: overflow in the weight\n")
        assert here[2] == f"  {want}  <stderr>"

    def test_another_message_changes_the_digest(self, monkeypatch):
        here = self._digest(monkeypatch, _warns_here)
        other = self._digest(monkeypatch, _warns_otherwise)
        assert here[:2] == other[:2]
        assert here[2] != other[2]


class TestDigestCommands:
    """A renamed flag makes a digest run exit 1 on both trees alike, which
    the byte-identity comparison cannot tell from a run that works."""

    def test_every_run_parses_and_finds_its_problem(self, tmp_path):
        parser = output_digest.cli._parser()
        for argv in output_digest.commands():
            args = parser.parse_args(argv + ["--out", str(tmp_path)])
            problem = getattr(args, "problem", None)
            if problem not in (None, *output_digest.CATALOG_NAMES):
                assert os.path.isfile(os.path.join(ROOT, problem)), argv


class TestApiRuns:
    """The general-metric API grid that the digest prints after the CLI
    runs: its size, and one run of each metric kind."""

    def test_grid_has_every_case(self):
        cases = list(output_digest.api_runs())
        assert len(cases) == len(set(cases)) == 384

    @pytest.mark.parametrize("metric", output_digest.API_METRICS)
    def test_one_run_per_metric(self, metric):
        """An RK4 run of h 0.05 to T = 5 takes 100 steps of 4 stages."""
        case = ("lasso-small", metric, 0.5, 0, "rk4")
        line = output_digest.run_api(case)
        assert re.fullmatch(
            rf"lasso-small {metric} 0\.5 0 rk4: horizon rhs_evals 400 "
            r"map_steps \d+ prox_evals [1-9]\d* [0-9a-f]{64}", line)
        assert output_digest.run_api(case) == line


class TestPublicNames:
    """A name that a module exports, or that the benchmark traces, must
    exist, so that removing one fails here and not in a later run."""

    @pytest.mark.parametrize("name", sorted(
        info.name for info in pkgutil.iter_modules(pdflow.__path__)))
    def test_every_exported_name_resolves(self, name):
        module = importlib.import_module(f"pdflow.{name}")
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing

    def test_every_traced_target_exists(self):
        targets = _load_tool("run", "perfbench")._trace_targets()
        assert targets
        for owner, attr, _, _, method in targets:
            assert callable(getattr(owner, attr, None)), (owner, attr)
            if method is not None:
                cls, name, _ = method
                assert callable(getattr(cls, name, None)), (cls, name)


class TestPerLayerTools:
    """`tools/step_bench.py` and `tools/metric_prox_probe.py` reach into
    private names of `stepmaps`, `proxlib` and `flow`; each runs once on
    this tree."""

    def test_step_bench_cases_run(self):
        step_bench = _load_tool("step_bench")
        name = "pdflow_step_bench_smoke"
        try:
            cases = step_bench.cases(step_bench.load_tree(ROOT, name))
            assert cases
            for label, unit, per, thunk in cases:
                assert unit in ("us", "s") and per > 0, label
                thunk()
        finally:
            for module in [m for m in sys.modules if m == name
                           or m.startswith(name + ".")]:
                del sys.modules[module]

    def test_metric_prox_probe_runs(self, capsys):
        assert _load_tool("metric_prox_probe").main() == 0
        out = capsys.readouterr().out
        assert "fresh Q == kept inverses, bit for bit: True" in out
