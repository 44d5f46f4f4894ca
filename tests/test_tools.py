"""Tests for the output tools that every claim about CLI outputs rests on.

`tools/output_diff.py` is a script, not a module of the package, so it is
imported from its path.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                     "output_diff.py")
_SPEC = importlib.util.spec_from_file_location("output_diff", _PATH)
output_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_diff)


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
