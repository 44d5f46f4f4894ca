"""Shared fixtures for the test suite."""

import sys

import numpy as np
import pytest

from pdflow import linops
from pdflow.problems import catalog


@pytest.fixture
def example1():
    return catalog("example1")


@pytest.fixture
def start_state():
    """The documented start for the 2-d problem: x0, z0 = A x0, y0."""
    return (np.array([-10.0, 10.0]), np.array([-20.0, 0.0]),
            np.array([-10.0, 10.0]))


@pytest.fixture
def operator_norm_calls(monkeypatch):
    """A list that grows by one on every `operator_norm` call, through
    whichever pdflow module the caller resolves the name in."""
    calls = []
    real = linops.operator_norm

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("pdflow") and getattr(mod, "operator_norm", None) is real:
            monkeypatch.setattr(mod, "operator_norm", counting)
    return calls
