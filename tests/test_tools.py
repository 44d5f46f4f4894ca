"""Tests for the output tools that every claim about CLI outputs rests on.

`tools/output_diff.py` and `tools/output_digest.py` are scripts, not
modules of the package, so they are imported from their paths.
"""

import importlib.util
import os
import sys
import warnings

import pytest


def _load_tool(name):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                        name + ".py")
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
