"""Replay lasso-small x-subproblems through `metric_prox` and print its cost.

Usage, from the root of the tree under test:

    PYTHONPATH=src python tools/metric_prox_probe.py

The subproblems are every x-update of four general-metric RK4 flows on
lasso-small (c = 1, gamma = 0.5, M1 = M2 = 0.5 I, step 0.05, horizon 5),
from seeded starts at radius sqrt(dim): the flow runs of the `metric-lasso`
benchmark workload.  Each is solved as recorded, from the start the flow
gave it (Newton, then FISTA if needed), once in the run's own Q, which
already keeps the inverse Newton matrix of every prox-Jacobian pattern
the run met (kept inverses), and once in a copy of Q per call, which keeps
none (fresh Q); and with f wrapped without its prox Jacobian (FISTA
alone).  The script prints the Newton steps and distinct Jacobian patterns
of each flow run; then, per path, microseconds per call (min of 5 passes)
and prox evaluations per call; then the number of calls that went on to
FISTA after a full Newton phase, whether the solutions in a fresh Q and
with kept inverses are bit-equal, and the largest difference between the
Newton and FISTA solutions.
"""

from __future__ import annotations

import sys
import time
from unittest import mock

import numpy as np

from pdflow import flow, proxlib
from pdflow.linops import SelfAdjointPSD
from pdflow.metric import MetricSchedule
from pdflow.problems import catalog
from pdflow.proxlib import NEWTON_STEPS, metric_prox, separable

SEED = 11
STARTS = 4
REPEATS = 5


def _start(rng, dim):
    u = rng.standard_normal(dim)
    return np.sqrt(dim) * u / np.linalg.norm(u)


def subproblems():
    """The (f, Q, linear, x0, tol) of every x-update of the flow runs, and
    each run's Newton steps and distinct Jacobian patterns."""
    p = catalog("lasso-small")
    params = flow.FlowParams(
        c=1.0, gamma=0.5, horizon=5.0, integrator=flow.RK4(h=0.05),
        m1=MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5)),
        m2=MetricSchedule.constant(SelfAdjointPSD.identity(p.m, 0.5)))
    calls, runs, steps = [], [], [0]
    newton_step = proxlib._newton_step

    def record(f, Q, linear, x0, tol):
        if f is p.f:
            calls.append((f, Q, np.copy(linear), np.copy(x0), tol))
        return metric_prox(f, Q, linear, x0, tol=tol)

    def count(f, Q, *args):
        steps[0] += f is p.f
        return newton_step(f, Q, *args)

    rng = np.random.default_rng(SEED)
    with mock.patch.object(flow, "metric_prox", record), \
            mock.patch.object(proxlib, "_newton_step", count):
        for _ in range(STARTS):
            x0, y0 = _start(rng, p.n), _start(rng, p.m)
            steps[0] = 0
            flow.integrate(p, params, flow.SystemState(x0, p.A.apply(x0), y0))
            runs.append((steps[0], len(calls[-1][1]._newton)))
    return calls, runs


def _counted(f, with_jac):
    """f with a counter on its prox evaluations."""
    count = {"prox": 0}

    def prox_fn(t, u):
        count["prox"] += 1
        return f._prox(t, u)

    return separable(f.dim, f, prox_fn, jac_fn=f._jac if with_jac else None), count


def _fresh(q):
    """A copy of q that keeps no Newton inverses (its norm is copied, so
    the copy costs no eigensolve)."""
    return SelfAdjointPSD(q.base, q.alpha_floor, q.norm())


def measure(calls, with_jac, fresh=False):
    """Solutions, us per call, prox evaluations per call, and fallbacks;
    with `fresh`, each call solves in a fresh copy of its Q."""
    if not with_jac:
        calls = [(separable(f.dim, f, f._prox), *rest) for f, *rest in calls]
    best = np.inf
    for _ in range(REPEATS):
        batch = [(f, _fresh(q) if fresh else q, *rest)
                 for f, q, *rest in calls]
        t0 = time.perf_counter()
        for f, q, lin, x0, tol in batch:
            metric_prox(f, q, lin, x0, tol=tol)
        best = min(best, time.perf_counter() - t0)
    sols, evals, fallbacks = [], [], 0
    for f, q, lin, x0, tol in calls:
        q = _fresh(q) if fresh else q
        g, count = _counted(f, with_jac)
        sols.append(metric_prox(g, q, lin, x0, tol=tol))
        evals.append(count["prox"])
        # the Newton phase makes at most NEWTON_STEPS evaluations, and one
        # more accepts its last point
        fallbacks += with_jac and count["prox"] > NEWTON_STEPS + 1
    return np.array(sols), 1e6 * best / len(calls), np.array(evals), fallbacks


def main() -> int:
    calls, runs = subproblems()
    print(f"{len(calls)} lasso-small x-subproblems from {STARTS} flow starts "
          f"(seed {SEED})")
    for i, (steps, patterns) in enumerate(runs):
        print(f"flow run {i}: {steps} newton steps, {patterns} distinct "
              "jacobian patterns")
    newton = measure(calls, with_jac=True)
    fresh = measure(calls, with_jac=True, fresh=True)
    fista = measure(calls, with_jac=False)
    for name, (_, us, evals, _) in (("kept inverses", newton),
                                    ("fresh Q", fresh),
                                    ("fista only", fista)):
        print(f"{name:>13}: {us:7.1f} us/call (min of {REPEATS}), prox evals "
              f"per call median {np.median(evals):g}, mean {evals.mean():.1f}, "
              f"max {evals.max()}")
    print(f"fista after a full newton phase: {newton[3]} of {len(calls)}")
    print(f"fresh Q == kept inverses, bit for bit: "
          f"{np.array_equal(fresh[0], newton[0])}")
    print(f"max |newton - fista only|: {np.abs(newton[0] - fista[0]).max():.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
