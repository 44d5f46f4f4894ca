"""Replay lasso-small x-subproblems through `metric_prox` and print its cost.

Usage, from the root of the tree under test:

    PYTHONPATH=src python tools/metric_prox_probe.py

The update evaluations are those of the `metric-lasso` benchmark setup
on lasso-small (c = 1, gamma = 0.5, M1 = M2 = 0.5 I), from seeded starts
at radius sqrt(dim): four general-metric RK4 flows (step 0.05, horizon
5), and twelve proximal ADMM runs (`discrete.run`, stop_tol 1e-10); a
flow evaluates the update only in the steps that no step map takes
(`stepmaps._StepMaps`).  For each setup the script first prints how many
evaluations the update's piece map certified and how many fell back to a
`metric_prox` solve of the x block (`flow._make_update`), the piece keys
(`stepmaps._piece_key` calls, one per block) that the evaluations computed,
and how many fallback solves began with a piece start
(`proxlib._piece_start`), which the update skips once the piece map has
shown the start's piece wrong for the x block.  The subproblems are those
fallback solves.  Each is solved as recorded, from the start the run gave
it and with or without the piece start as the run took it, on four
paths: in the run's own Q, whose inverse Newton matrices of the
prox-Jacobian patterns the run met are already kept
(`proxlib._kept_inverse`; kept inverses); in a copy of Q per call, with
nothing kept (fresh Q); without the piece start, so that Newton starts at
x0 and never tries x0's piece (newton from x0); and with f copied without
its affine pieces, which Newton reads its Jacobian from (FISTA alone).
The script prints the Newton steps of each flow run and the Jacobian
patterns with a kept inverse in its Q, for the piece maps and for Newton;
then, for each setup and path, microseconds per call (min of 5 passes),
prox evaluations per call, the calls that return at their first prox
evaluation, and the calls that went on to FISTA after a full Newton
phase; then whether the solutions in a fresh Q and with kept inverses
are bit-equal, and the largest difference between the Newton and FISTA
solutions.

Before all that, it runs the same flows and ADMM runs twice in this one
process, a cold pass (nothing kept yet) and a warm pass (what the first
left kept), and prints per run and per pass on average: the evaluations
whose start's piece map failed and that tried the piece its product
names (guesses tried: the x-prox calls an evaluation makes outside
`metric_prox`), the evaluations that piece's map certified (guesses
certified: a returned key other than that of the start's piece), the
`metric_prox` solves left (fallbacks), the piece maps built, the builds
whose piece certified no evaluation of the run, and the inverse Newton
matrices computed (`proxlib._newton_inverse` calls).
"""

from __future__ import annotations

import contextlib
import copy
import sys
import time
from unittest import mock

import numpy as np

from pdflow import discrete, flow, proxlib, stepmaps
from pdflow.linops import SelfAdjointPSD
from pdflow.metric import MetricSchedule
from pdflow.problems import catalog
from pdflow.proxlib import NEWTON_STEPS, metric_prox

SEED = 11
FLOW_STARTS = 4
ADMM_STARTS = 12
REPEATS = 5


def _start(rng, dim):
    u = rng.standard_normal(dim)
    return np.sqrt(dim) * u / np.linalg.norm(u)


def subproblems():
    """The (f, Q, linear, x0, tol, piece_start) of every `metric_prox`
    x-update of the flow runs and of the ADMM runs; per setup the update
    evaluations, the piece keys they computed and the piece starts of the
    solves; and each flow run's Newton steps and kept-inverse
    patterns."""
    p, params, admm = _setup()
    calls, runs, steps = [], [], [0]
    # update evaluations, piece keys (all, and those inside evaluations)
    # and piece starts
    evals, keys, starts = [0], [0, 0], [0]
    newton_step = proxlib._newton_step
    piece_start = proxlib._piece_start
    make_update = flow._make_update
    piece_key = stepmaps._piece_key

    def counted_key(fn, step):
        key = piece_key(fn, step)

        def counted(x):
            keys[0] += 1
            return key(x)
        return counted

    def counted_update(*args):
        update = make_update(*args)

        def counted(*call):
            evals[0] += 1
            # the step maps' own keys, taken between evaluations, are not
            # counted
            before = keys[0]
            try:
                return update(*call)
            finally:
                keys[1] += keys[0] - before
        # the flows keep their step maps, so the evaluations counted are
        # those of the steps no map took
        counted.pieces = update.pieces
        return counted

    def record(f, Q, linear, x0, tol, piece_start=True):
        if f is p.f:
            calls.append((f, Q, np.copy(linear), np.copy(x0), tol,
                          piece_start))
        return metric_prox(f, Q, linear, x0, tol, piece_start=piece_start)

    def count(f, Q, *args):
        steps[0] += f is p.f
        return newton_step(f, Q, *args)

    def count_start(f, *args):
        starts[0] += f is p.f
        return piece_start(f, *args)

    rng = np.random.default_rng(SEED)
    with mock.patch.object(flow, "metric_prox", record), \
            mock.patch.object(proxlib, "_newton_step", count), \
            mock.patch.object(proxlib, "_piece_start", count_start), \
            mock.patch.object(stepmaps, "_piece_key", counted_key), \
            mock.patch.object(flow, "_make_update", counted_update), \
            mock.patch.object(discrete, "_make_update", counted_update):
        for _ in range(FLOW_STARTS):
            x0, y0 = _start(rng, p.n), _start(rng, p.m)
            steps[0], before = 0, len(calls)
            flow.integrate(p, params, flow.SystemState(x0, p.A.apply(x0), y0))
            kept = _kept_patterns(calls[-1][1]) if len(calls) > before \
                else ()
            runs.append((steps[0], len(kept)))
        counts = {"flow": (len(calls), evals[0], keys[1], starts[0])}
        evals[0], keys[1], starts[0] = 0, 0, 0
        flow_calls, calls[:] = list(calls), []
        for _ in range(ADMM_STARTS):
            x0, y0 = _start(rng, p.n), _start(rng, p.m)
            discrete.run(p, admm, flow.SystemState(x0, p.A.apply(x0), y0))
        counts["admm"] = (len(calls), evals[0], keys[1], starts[0])
    return {"flow": flow_calls, "admm": calls}, counts, runs


def _setup():
    """lasso-small and the `metric-lasso` flow and ADMM parameters."""
    p = catalog("lasso-small")
    m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5))
    m2 = MetricSchedule.constant(SelfAdjointPSD.identity(p.m, 0.5))
    params = flow.FlowParams(c=1.0, gamma=0.5, horizon=5.0,
                             integrator=flow.RK4(h=0.05), m1=m1, m2=m2)
    admm = discrete.DiscreteParams(c=1.0, gamma=0.5, m1=m1, m2=m2,
                                   max_iters=20000, stop_tol=1e-10)
    return p, params, admm


def _kept_patterns(q):
    """The prox-Jacobian patterns whose inverse Newton matrices in q are
    kept in the one store by content (`proxlib._INVERSES`)."""
    return [jac for mat, _, jac in proxlib._INVERSES if mat == q._mat_bytes]


@contextlib.contextmanager
def _nothing_kept():
    """A context in which no inverse Newton matrix is found kept or kept:
    an empty store under a budget of 0."""
    with mock.patch.object(proxlib, "KEPT_FLOATS", 0), \
            mock.patch.object(proxlib, "_INVERSES", proxlib._Kept(1)):
        yield


COUNTS = ("guesses tried", "guesses certified", "fallbacks", "builds",
          "builds never certified", "inverses computed")


def run_counts():
    """{setup: [per pass: [per run: COUNTS]]} for the flows and ADMM runs
    of `subproblems`, a cold pass and then a warm one."""
    p, params, admm = _setup()
    n, iy = p.n, p.n + p.m
    run = {}  # the counts of the run going on
    built, certified = [], set()  # per run: piece maps built, keys returned
    inside = {"update": 0, "solve": 0}
    real_prox, real_solve = p.f._prox, flow.metric_prox
    real_keep, real_inverse = proxlib._Kept.keep, proxlib._newton_inverse
    make_update = flow._make_update

    def prox(t, u):
        run["guesses tried"] += inside["update"] and not inside["solve"]
        return real_prox(t, u)

    def solve(f, *args, **kwargs):
        run["fallbacks"] += f is p.f
        inside["solve"] += 1
        try:
            return real_solve(f, *args, **kwargs)
        finally:
            inside["solve"] -= 1

    def keep(self, key, value):
        # a piece map is kept with its piece: (matrix, offsets, finite,
        # piece)
        if isinstance(value, tuple) and len(value) == 4:
            built.append(key)
        return real_keep(self, key, value)

    def inverse(*args):
        run["inverses computed"] += 1
        return real_inverse(*args)

    def counted_update(*args):
        update = make_update(*args)
        key_of = update.pieces[0]

        def counted(t, s, out, start=None):
            inside["update"] += 1
            try:
                returned = update(t, s, out, start)
            finally:
                inside["update"] -= 1
            if returned is not None and len(returned) == 3:
                certified.add(returned[2])
                x0, z0 = (s[:n], s[n:iy]) if start is None else start[:2]
                run["guesses certified"] += returned[2] != key_of(x0, z0)
            return returned
        counted.pieces = update.pieces
        return counted

    rng = np.random.default_rng(SEED)
    starts = {"flow": [], "admm": []}
    for name, count in (("flow", FLOW_STARTS), ("admm", ADMM_STARTS)):
        for _ in range(count):
            x0, y0 = _start(rng, p.n), _start(rng, p.m)
            starts[name].append(flow.SystemState(x0, p.A.apply(x0), y0))
    got = {"flow": [], "admm": []}
    proxlib._INVERSES.clear()
    with mock.patch.object(p.f, "_prox", prox), \
            mock.patch.object(flow, "metric_prox", solve), \
            mock.patch.object(proxlib._Kept, "keep", keep), \
            mock.patch.object(proxlib, "_newton_inverse", inverse), \
            mock.patch.object(flow, "_make_update", counted_update), \
            mock.patch.object(discrete, "_make_update", counted_update):
        for _ in ("cold", "warm"):
            for name, each in (("flow", lambda s0: flow.integrate(
                    p, params, s0)), ("admm", lambda s0: discrete.run(
                    p, admm, s0))):
                runs = []
                for s0 in starts[name]:
                    run.update(dict.fromkeys(COUNTS, 0))
                    built.clear()
                    certified.clear()
                    each(s0)
                    run["builds"] = len(built)
                    run["builds never certified"] = sum(
                        key not in certified for key in built)
                    runs.append([run[c] for c in COUNTS])
                got[name].append(runs)
    return got


def _pieces(path):
    """Whether the path tries the piece start where the run took it."""
    return path in ("kept inverses", "fresh Q")


def _wrapped(f, path, count=None):
    """A copy of f as the path sees it: with its pieces, or without them
    on the "fista only" path; with `count`, each prox evaluation adds one
    to count["prox"]."""
    def prox_fn(t, u):
        if count is not None:
            count["prox"] += 1
        return f._prox(t, u)

    g = copy.copy(f)
    g._prox = prox_fn
    if path == "fista only":
        g._piece = None
    return g


def _fresh(q):
    """A copy of q (its norm is copied, so the copy costs no eigensolve)
    that finds no Newton inverse kept inside `_nothing_kept`."""
    return SelfAdjointPSD(q.base, q.alpha_floor, q.norm())


def measure(calls, path):
    """Solutions, us per call, prox evaluations per call, and fallbacks.
    On the "fresh Q" path each call solves in a fresh copy of its Q; every
    other path solves in the run's own Q."""
    fresh = path == "fresh Q"

    def kept():
        return _nothing_kept() if fresh else contextlib.nullcontext()
    timed = [(_wrapped(f, path), *rest) for f, *rest in calls]
    best = np.inf
    for _ in range(REPEATS):
        batch = [(f, _fresh(q) if fresh else q, *rest)
                 for f, q, *rest in timed]
        t0 = time.perf_counter()
        with kept():
            for f, q, lin, x0, tol, start in batch:
                metric_prox(f, q, lin, x0, tol,
                            piece_start=start and _pieces(path))
        best = min(best, time.perf_counter() - t0)
    sols, evals, fallbacks = [], [], 0
    for f, q, lin, x0, tol, start in calls:
        count = {"prox": 0}
        g = _wrapped(f, path, count)
        with kept():
            sols.append(metric_prox(g, _fresh(q) if fresh else q, lin, x0,
                                    tol, piece_start=start and _pieces(path)))
        evals.append(count["prox"])
        # the Newton phase makes at most NEWTON_STEPS evaluations, one more
        # accepts its last point, and a piece start that fails makes one
        # before them
        fallbacks += (path != "fista only" and count["prox"]
                      > NEWTON_STEPS + 1 + (_pieces(path) and start))
    return np.array(sols), 1e6 * best / len(calls), np.array(evals), fallbacks


PATHS = ("kept inverses", "fresh Q", "newton from x0", "fista only")


def main() -> int:
    for name, passes in run_counts().items():
        for label, runs in zip(("cold", "warm"), passes):
            for i, counts in enumerate(runs):
                print(f"{label} {name} run {i}: " + ", ".join(
                    f"{c} {v}" for c, v in zip(COUNTS, counts)))
            mean = np.mean(runs, axis=0)
            print(f"{label} {name} per run: " + ", ".join(
                f"{c} {v:.2f}" for c, v in zip(COUNTS, mean)))
    setups, counts, runs = subproblems()
    for name, (solves, evals, keys, starts) in counts.items():
        print(f"{name} update evaluations: {evals}, certified by their "
              f"piece map {evals - solves}, fallback metric_prox solves "
              f"{solves}; piece keys computed {keys} "
              f"({keys / evals:.2f} per evaluation); fallbacks that began "
              f"with a piece start {starts}")
    print(f"lasso-small x-subproblems (seed {SEED}): "
          f"{len(setups['flow'])} from {FLOW_STARTS} flow starts, "
          f"{len(setups['admm'])} from {ADMM_STARTS} ADMM starts")
    for i, (steps, patterns) in enumerate(runs):
        print(f"flow run {i}: {steps} newton steps, {patterns} jacobian "
              "patterns with a kept inverse (piece maps' included)")
    for name, calls in setups.items():
        print(f"-- {name}: {len(calls)} calls")
        got = {path: measure(calls, path) for path in PATHS}
        for path, (_, us, evals, fallbacks) in got.items():
            print(f"{path:>14}: {us:7.1f} us/call (min of {REPEATS}), prox "
                  f"evals per call median {np.median(evals):g}, mean "
                  f"{evals.mean():.2f}, max {evals.max()}; at the first "
                  f"evaluation {int((evals == 1).sum())}, fista after a "
                  f"full newton phase {fallbacks}")
        print("fresh Q == kept inverses, bit for bit: "
              f"{np.array_equal(got['fresh Q'][0], got['kept inverses'][0])}")
        print("max |newton - fista only|: "
              f"{np.abs(got['kept inverses'][0] - got['fista only'][0]).max():.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
