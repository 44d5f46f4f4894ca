"""Time the per-step layers of two pdflow trees side by side.

Usage:

    python tools/step_bench.py TREE_A TREE_B [--repeats N]

Each tree's `src/pdflow` is loaded in this one process under its own
package name (`pdflow_a`, `pdflow_b`), so both run on the same interpreter
and numpy.  Each repeat runs every case once on each tree, so the repeats
of a case spread over the whole run and a slow spell of the machine hits
few of them; within a case the trees alternate which runs first.  Each
line reports the minimum over the repeats (at least 5) for both trees and
their ratio B / A:

* update: microseconds per call of the proximal ADMM update on a fixed
  state, in closed-form mode (`auto` tau) on every catalog problem, again
  with the affine forms of f and g hidden (`unfolded`: both proxes are
  called), and in general-metric mode with M1 = M2 = 0.5 I on
  lasso-small; gamma 0.5
* build: microseconds per `flow._make_update` call that builds the
  closed-form update (`auto` tau, gamma 0.5) on every catalog problem,
  and (`build+eval`) per general-metric build on lasso-small with
  M1 = M2 = 0.5 I together with its first evaluation at the canonical
  start, where the update's piece map certifies: that evaluation builds
  the map and its certificate, as an ADMM transient does on each new
  piece
* integrate: seconds per `integrate` run from the canonical start, for the
  catalog x {Euler, RK4, Adaptive} with `auto` tau, gamma 0.5, step 0.01
  (Adaptive: its defaults) and horizon `HORIZON`, for Adaptive again at
  horizon `ADAPTIVE_HORIZON`, long enough for its trials at h_max to take
  step maps (`stepmaps.ADAPTIVE_MAP_MIN_STEPS`), and for the
  `metric-lasso` flow setup (lasso-small, M1 = M2 = 0.5 I, c 1, gamma
  0.5, RK4 h 0.05, horizon 5), and for the `reproduce-example1` sweep's
  RK4 step 0.01 and horizon 200 on example1 (`auto` tau, gamma 0.5); each
  of these lines also gives the microseconds per rhs evaluation, the
  run's time over its `rhs_evals` (a step map's product counts as the
  evaluations of the stagewise step it stands for), and the share of its
  steps that a step map took (`FlowTrajectory.map_steps`, 0 for a tree
  without step maps)
* admm: microseconds per iteration of a 500-iteration `discrete.run` on
  every catalog problem with `auto` tau and gamma 1, and in
  general-metric mode with M1 = M2 = 0.5 I on lasso-small, where each
  iteration solves its x-update with `metric_prox` or takes its piece
  map, mostly past convergence (stop_tol 0); and (`to 1e-10`) per
  iteration kept of the `metric-lasso` ADMM runs, the 12 seeded starts
  of seed `METRIC_LASSO_SEED` (c 1, gamma 0.5, stop_tol 1e-10), each run
  to its stop: transients, stop tests and the iterates computed past the
  stop row included
* cp: the same with algorithm "cp", on every catalog problem with h = 0

A tree whose update writes into a row it is given (update(t, s, out))
and one whose update returns its blocks (update(t, s)) can be compared:
the update lines call each tree's own form.  The header gives Python,
numpy and the CPU.
"""

from __future__ import annotations

import argparse
import importlib.util
import inspect
import os
import platform
import sys
import time

import numpy as np

UPDATE_CALLS = 2000
BUILD_CALLS = 200
ADMM_ITERS = 500
HORIZON = 20.0
ADAPTIVE_HORIZON = 100.0
# the `reproduce-example1` sweep's step and horizon
SWEEP_STEP, SWEEP_HORIZON = 0.01, 200.0
# the seed of the `metric-lasso` inputs whose ADMM starts the `to 1e-10`
# line runs, and how many flow and ADMM starts the workload draws
METRIC_LASSO_SEED, METRIC_LASSO_STARTS = 7, (4, 12)


def load_tree(tree, name):
    """Import TREE/src/pdflow as the package `name`; its relative imports
    resolve inside it."""
    pkg = os.path.join(os.path.abspath(tree), "src", "pdflow")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    if spec is None:
        sys.exit(f"step_bench: no src/pdflow under {tree}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("config", "discrete", "flow", "linops", "metric", "problems"):
        importlib.import_module(f"{name}.{sub}")
    return module


def cpu_name():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def cases(pkg):
    """(label, unit, per, thunk) per measured case for one loaded tree:
    thunk() runs the case once and the time is divided by `per`."""
    flow, discrete, problems = pkg.flow, pkg.discrete, pkg.problems
    resolve_tau, metric = pkg.config.resolve_tau, pkg.metric
    out = []
    for suffix in ("", " unfolded"):
        for name in problems.CATALOG_NAMES:
            p = problems.catalog(name)
            if suffix:
                p.f.affine = p.g.affine = None
            tau = resolve_tau("auto", p, 1.0, 0.5)
            update = flow._make_update(p, 1.0, 0.5, tau, None, None, 1e-10)
            out.append((f"update closed-form {name}{suffix}", "us",
                        UPDATE_CALLS / 1e6,
                        _repeat(update, flow._start_row(p, None))))
    p = problems.catalog("lasso-small")
    half = pkg.linops.SelfAdjointPSD.identity
    m1 = metric.MetricSchedule.constant(half(p.n, 0.5))
    m2 = metric.MetricSchedule.constant(half(p.m, 0.5))
    update = flow._make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
    out.append(("update general-metric lasso-small", "us", UPDATE_CALLS / 1e6,
                _repeat(update, flow._start_row(p, None))))
    out.append(("build+eval general-metric lasso-small", "us",
                BUILD_CALLS / 1e6, _repeat_first(flow, p, m1, m2)))
    for name in problems.CATALOG_NAMES:
        p = problems.catalog(name)
        tau = resolve_tau("auto", p, 1.0, 0.5)
        out.append((f"build {name}", "us", BUILD_CALLS / 1e6,
                    _repeat_build(flow, p, tau)))
    integrators = {"euler": flow.Euler(0.01), "rk4": flow.RK4(0.01),
                   "adaptive": flow.Adaptive()}
    for name in problems.CATALOG_NAMES:
        p = problems.catalog(name)
        tau = resolve_tau("auto", p, 1.0, 0.5)
        for label, integ in integrators.items():
            params = flow.FlowParams(c=1.0, gamma=0.5, tau=tau,
                                     horizon=HORIZON, integrator=integ)
            out.append((f"integrate {label} {name}", "s", 1.0,
                        lambda p=p, params=params: flow.integrate(p, params)))
        params = flow.FlowParams(c=1.0, gamma=0.5, tau=tau,
                                 horizon=ADAPTIVE_HORIZON,
                                 integrator=flow.Adaptive())
        out.append((f"integrate adaptive {name} T={ADAPTIVE_HORIZON:g}", "s",
                    1.0, lambda p=p, params=params: flow.integrate(p, params)))
    p = problems.catalog("lasso-small")
    params = flow.FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2, horizon=5.0,
                             integrator=flow.RK4(0.05))
    out.append(("integrate rk4 general-metric lasso-small", "s", 1.0,
                lambda p=p, params=params: flow.integrate(p, params)))
    p = problems.catalog("example1")
    params = flow.FlowParams(c=1.0, gamma=0.5,
                             tau=resolve_tau("auto", p, 1.0, 0.5),
                             horizon=SWEEP_HORIZON,
                             integrator=flow.RK4(SWEEP_STEP))
    out.append(("integrate rk4 closed-form example1", "s", 1.0,
                lambda p=p, params=params: flow.integrate(p, params)))
    for algorithm in ("admm", "cp"):
        for name in problems.CATALOG_NAMES:
            p = problems.catalog(name)
            if algorithm == "cp" and not p.h.is_zero:
                continue  # the primal-dual step needs h = 0
            d = discrete.DiscreteParams(c=1.0, gamma=1.0,
                                        tau=resolve_tau("auto", p, 1.0, 1.0),
                                        max_iters=ADMM_ITERS, stop_tol=0.0)
            out.append((f"{algorithm} {name}", "us", ADMM_ITERS / 1e6,
                        lambda p=p, d=d, a=algorithm: discrete.run(
                            p, d, algorithm=a)))
        if algorithm == "admm":
            p = problems.catalog("lasso-small")
            d = discrete.DiscreteParams(c=1.0, gamma=1.0, m1=m1, m2=m2,
                                        max_iters=ADMM_ITERS, stop_tol=0.0)
            out.append(("admm general-metric lasso-small", "us",
                        ADMM_ITERS / 1e6,
                        lambda p=p, d=d: discrete.run(p, d)))
            out.append(_metric_lasso_admm(pkg, p, m1, m2))
    return out


def _metric_lasso_admm(pkg, p, m1, m2):
    """The `to 1e-10` case: the `metric-lasso` workload's ADMM starts, drawn
    as its inputs draw them (x0 and y0 at radius sqrt(dim), the flows'
    first), with z0 = A x0, each run to stop_tol 1e-10."""
    rng = np.random.default_rng(METRIC_LASSO_SEED)

    def draw(dim):
        u = rng.standard_normal(dim)
        return np.sqrt(dim) * u / np.linalg.norm(u)

    flows, admms = METRIC_LASSO_STARTS
    starts = [(draw(p.n), draw(p.m)) for _ in range(flows + admms)][flows:]
    starts = [pkg.flow.SystemState(x0, p.A.apply(x0), y0)
              for x0, y0 in starts]
    d = pkg.discrete.DiscreteParams(c=1.0, gamma=0.5, m1=m1, m2=m2,
                                    max_iters=20000, stop_tol=1e-10)

    def thunk():
        for s0 in starts:
            pkg.discrete.run(p, d, s0)
    kept = sum(pkg.discrete.run(p, d, s0).iterations for s0 in starts)
    return ("admm general-metric lasso-small to 1e-10", "us", kept / 1e6,
            thunk)


def _repeat(update, s):
    args = (0.0, s)
    if "out" in inspect.signature(update).parameters:
        args += (np.empty_like(s),)

    def thunk():
        for _ in range(UPDATE_CALLS):
            update(*args)
    return thunk


def _repeat_build(flow, p, tau):
    def thunk():
        for _ in range(BUILD_CALLS):
            flow._make_update(p, 1.0, 0.5, tau, None, None, 1e-10)
    return thunk


def _repeat_first(flow, p, m1, m2):
    def make():
        return flow._make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
    s = flow._start_row(p, None)
    args = (0.0, s)
    if "out" in inspect.signature(make()).parameters:
        args += (np.empty_like(s),)

    def thunk():
        for _ in range(BUILD_CALLS):
            make()(*args)
    return thunk


def _map_share(traj):
    """The share of a run's steps that a step map took; 0 for a tree
    without step maps.  Every case records every step."""
    return getattr(traj, "map_steps", 0) / (len(traj.t) - 1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("tree_a")
    ap.add_argument("tree_b")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 5:
        ap.error("--repeats must be at least 5")
    trees = [load_tree(args.tree_a, "pdflow_a"),
             load_tree(args.tree_b, "pdflow_b")]
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"cpu {cpu_name()}")
    print(f"A = {os.path.abspath(args.tree_a)}")
    print(f"B = {os.path.abspath(args.tree_b)}")
    print(f"min of {args.repeats} repeats, trees alternating; horizon "
          f"{HORIZON:g}")
    both = list(zip(*(cases(pkg) for pkg in trees)))
    best = [[float("inf"), float("inf")] for _ in both]
    runs = [[None, None] for _ in both]  # an integrate case's trajectory
    for r in range(args.repeats):
        for i, pair in enumerate(both):
            for side in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                result = pair[side][3]()
                best[i][side] = min(best[i][side],
                                    time.perf_counter() - start)
                if hasattr(result, "rhs_evals"):
                    runs[i][side] = result
    for ((label, unit, per, _), _), (a, b), (ra, rb) in zip(both, best,
                                                           runs):
        per_eval = ""
        if ra is not None and rb is not None:
            per_eval = (f"  us/eval A {1e6 * a / ra.rhs_evals:6.3g}  "
                        f"B {1e6 * b / rb.rhs_evals:6.3g}  map steps "
                        f"A {_map_share(ra):.3f}  B {_map_share(rb):.3f}")
        a, b = a / per, b / per
        print(f"{label:40s} {unit:2s}  A {a:10.4g}  B {b:10.4g}  "
              f"B/A {b / a:.3f}{per_eval}", flush=True)


if __name__ == "__main__":
    main()
