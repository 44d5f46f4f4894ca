"""Print a digest of the CLI's outputs over a fixed list of runs.

Usage, from the root of the tree under test:

    PYTHONPATH=src python tools/output_digest.py > digest.txt

Each run goes through `pdflow.cli.main` in its own temporary directory.
The script prints the run's arguments and exit code, then the sha256 of its
stdout, its stderr and every file it wrote, in name order.  The stderr
hash covers what the run printed there, then each warning it raised as
its category and message, as `tools/output_diff.py` keeps them: not the
file and line it came from, which move with the source and differ between
checkouts.  Two trees whose digests diff clean wrote byte-identical
outputs for every run.

The runs: `flow --tau auto --horizon 20 --dump-state` and `check --tau
auto` with each integrator, an adaptive `flow --horizon 100`, long
enough for its trials at h_max to take step maps, `discrete --tau auto
--dump-state` with each algorithm, and a saturating-tau `flow` and
`discrete` run, each on every catalog problem, and `check --seed 7`,
which draws the sampled checks from another stream; then the divergent
`discrete` run on box-qp, a lasso-small `discrete` run whose budget of
37 iterations ends inside a chunk of the stop test, the example1 sweep
`reproduce-example1 --horizon 5` (nine flow runs and the sweep report),
and `sweep --horizon 2 --step 0.05 --record-every 5 --dump-state`, the
config's default grid from the default start, the one run of the `sweep`
subcommand and of `--record-every`.  Last come the same three runs, an RK4
`flow`, an ADMM `discrete` run and `check`, on two problem files:
`problems/ridge-identity.txt`, whose update is one affine map, and
`problems/l1-box.txt`, whose update makes both proxes and adds a nonzero
constant.  Then the closed-form step test on example1 at `--tau
saturating:0.2,0.6`: `flow --horizon 5`, refused with exit 1 because
c tau(5) ||A||^2 = 1.19461 > 1, and `flow --horizon 0.5`, which passes it,
then `check --horizon 0.5`, which must accept what that `flow` run
accepts: its unit-step comparison takes no step past the horizon, so here
it is skipped instead of certifying tau(25).  `check --tau
saturating:0.2,0.500213 --horizon 7.5` must refuse what `flow` refuses,
with exit 1 and flow's message: the step test first fails at t = 7.25,
after the last unit step it compares.  `check --problem box-qp --tau
saturating:0.05,0.25` certifies a moving schedule that passes the step
test and fails the rate and descent tests, exit 2.
Then a step of 6e-309, whose Lyapunov weight overflows: `discrete
--max-iters 3` and `flow --horizon 1`, whose rate certificates fail.
Every run above is at c = 1 on a problem whose H has at most 32 columns,
so none would show a change to the c-scaled blocks of the constant-step
kernel or to a map 144 columns wide.  Last come `flow --c 1.5 --horizon
20` and `discrete --c 1.5` on lasso-small and `problems/l1-box.txt`, then
`flow --horizon 5` on `problems/wide-lasso.txt` and `discrete` on
`problems/wide-identity.txt`, whose kernels apply H and B of 144 columns;
all of them at `--tau auto --dump-state`.  Last of all, `check --tau auto`
on `problems/wide-lasso.txt`, whose report pins the flags that `certify`
decides from the norm of the largest shipped A, 40 x 64, and on
`problems/wide-identity.txt`, whose invariant suite pins the kernel on a
scaled-identity A, the 1e-12 unit-Euler/ADMM equality included.

After the CLI runs come the general-metric API runs (`api_runs`), which
no CLI run reaches: every `metric_prox` Newton step and piece start is
taken here.  The grid is {example1, lasso-small, box-qp,
`problems/l1-box.txt`} x {M1 = M2 = s I (s = 5 on box-qp, else 0.5), a
seeded dense M1, a seeded dense M2, a tau-family M2 coupled on A*} x
gamma in {0.5, 1} x 3 seeded starts x {RK4 h 0.05 and Euler h 0.05 to
T = 5, Adaptive to T = 20, ADMM to 1e-10 within 3 000 iterations}, all at
c = 1: 384 runs.  Each prints one line: the case, the stop reason,
`rhs_evals` and `map_steps` of a flow or the iterations of ADMM, the
prox evaluations of f and g (calls of their prox closures, rows or
points), and the sha256 of (t, U, erg) of a flow or (U, residuals) of
ADMM.

Last come the closed-form API runs (`closed_form_runs`), which reach the
same update from seeded starts, where the CLI takes the problem's own
start: the same problems, gammas, starts and solvers, each with the step
tau = `resolve_tau("auto", ...)` as a constant or as the end of the
saturating schedule from tau / 2, both passed as `TauSchedule` objects:
192 runs, printed as above, in about 1 s of the tool's 8 s on a 2-core
Xeon.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
import warnings

import numpy as np

from pdflow import cli, discrete, flow
from pdflow.config import load_problem, resolve_tau
from pdflow.linops import SelfAdjointPSD
from pdflow.metric import MetricSchedule, TauSchedule
from pdflow.problems import CATALOG_NAMES

SATURATING = "saturating:0.05,0.2"
RIDGE = os.path.join("problems", "ridge-identity.txt")
L1_BOX = os.path.join("problems", "l1-box.txt")
WIDE_LASSO = os.path.join("problems", "wide-lasso.txt")
WIDE_IDENTITY = os.path.join("problems", "wide-identity.txt")


def commands():
    for problem in CATALOG_NAMES:
        base = ["--problem", problem]
        for integrator in ("euler", "rk4", "adaptive"):
            yield ["flow", *base, "--tau", "auto", "--horizon", "20",
                   "--integrator", integrator, "--dump-state"]
            yield ["check", *base, "--tau", "auto", "--integrator", integrator]
        yield ["flow", *base, "--tau", "auto", "--horizon", "100",
               "--integrator", "adaptive", "--dump-state"]
        for algorithm in ("admm", "cp"):
            yield ["discrete", *base, "--algorithm", algorithm, "--tau", "auto",
                   "--dump-state"]
        yield ["flow", *base, "--tau", SATURATING, "--horizon", "20",
               "--dump-state"]
        yield ["discrete", *base, "--tau", SATURATING, "--dump-state"]
        yield ["check", *base, "--seed", "7"]
    yield ["discrete", "--problem", "box-qp", "--tau", "0.2", "--dump-state"]
    yield ["discrete", "--problem", "lasso-small", "--tau", "auto",
           "--max-iters", "37", "--dump-state"]
    yield ["reproduce-example1", "--horizon", "5"]
    yield ["sweep", "--horizon", "2", "--step", "0.05", "--record-every", "5",
           "--dump-state"]
    for path in (RIDGE, L1_BOX):
        base = ["--problem", path, "--tau", "auto"]
        yield ["flow", *base, "--horizon", "20", "--integrator", "rk4",
               "--dump-state"]
        yield ["discrete", *base, "--algorithm", "admm", "--dump-state"]
        yield ["check", *base]
    for horizon in ("5", "0.5"):
        yield ["flow", "--problem", "example1", "--tau", "saturating:0.2,0.6",
               "--horizon", horizon]
    yield ["check", "--problem", "example1", "--tau", "saturating:0.2,0.6",
           "--horizon", "0.5"]
    yield ["check", "--problem", "example1", "--tau",
           "saturating:0.2,0.500213", "--horizon", "7.5"]
    yield ["check", "--problem", "box-qp", "--tau", "saturating:0.05,0.25"]
    yield ["discrete", "--tau", "6e-309", "--max-iters", "3"]
    yield ["flow", "--tau", "6e-309", "--horizon", "1"]
    for problem in ("lasso-small", L1_BOX):
        base = ["--problem", problem, "--c", "1.5", "--tau", "auto"]
        yield ["flow", *base, "--horizon", "20", "--dump-state"]
        yield ["discrete", *base, "--dump-state"]
    auto = ["--tau", "auto", "--dump-state"]
    yield ["flow", "--problem", WIDE_LASSO, *auto, "--horizon", "5"]
    yield ["discrete", "--problem", WIDE_IDENTITY, *auto]
    for path in (WIDE_LASSO, WIDE_IDENTITY):
        yield ["check", "--problem", path, "--tau", "auto"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> list:
    """The digest lines of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(argv + ["--out", tmp])
        err.writelines(f"{w.category.__name__}: {w.message}\n" for w in caught)
        lines = [f"{' '.join(argv)}: exit {code}",
                 f"  {_sha(out.getvalue().encode())}  <stdout>",
                 f"  {_sha(err.getvalue().encode())}  <stderr>"]
        for name in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, name), "rb") as fh:
                lines.append(f"  {_sha(fh.read())}  {name}")
    return lines


API_PROBLEMS = ("example1", "lasso-small", "box-qp", L1_BOX)
API_METRICS = ("sI", "dense-m1", "dense-m2", "tau-m2")
API_STEPS = ("tau-auto", "tau-saturating")
API_SOLVERS = ("rk4", "euler", "adaptive", "admm")


def api_runs():
    """The general-metric API cases: (problem, metric, gamma, start,
    solver)."""
    return itertools.product(API_PROBLEMS, API_METRICS, (0.5, 1.0), range(3),
                             API_SOLVERS)


def closed_form_runs():
    """The closed-form API cases: (problem, step, gamma, start, solver)."""
    return itertools.product(API_PROBLEMS, API_STEPS, (0.5, 1.0), range(3),
                             API_SOLVERS)


def _dense(rng, dim, s):
    base = rng.standard_normal((dim, dim))
    mat = base @ base.T / dim + s * np.eye(dim)
    return SelfAdjointPSD.from_dense(mat, float(np.linalg.eigvalsh(mat)[0]))


def _dynamics(problem, p, metric, gamma):
    """The tau, or the m1 and m2, of a case on p, at c = 1: a step case is
    the `auto` step tau as a constant or as the end of the saturating
    schedule from tau / 2, a metric case (M1, M2)."""
    if metric in API_STEPS:
        tau = resolve_tau("auto", p, 1.0, gamma)
        if metric == "tau-saturating":
            tau = TauSchedule.saturating(tau.tau0 / 2, tau.tau0)
        return {"tau": tau}
    s = 5.0 if problem == "box-qp" else 0.5
    rng = np.random.default_rng(API_METRICS.index(metric))
    m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, s))
    m2 = MetricSchedule.constant(SelfAdjointPSD.identity(p.m, s))
    if metric == "dense-m1":
        m1 = MetricSchedule.constant(_dense(rng, p.n, s))
    elif metric == "dense-m2":
        m2 = MetricSchedule.constant(_dense(rng, p.m, s))
    elif metric == "tau-m2":
        tau_max = 0.9 / p.A.norm() ** 2
        m2 = MetricSchedule.tau_family(
            TauSchedule.saturating(0.5 * tau_max, tau_max), 1.0, p.A.T)
    return {"m1": m1, "m2": m2}


def run_api(case) -> str:
    """The digest line of one API run, of either grid."""
    problem, metric, gamma, start, solver = case
    p = load_problem(problem)
    evals = [0]
    for fn in (p.f, p.g):
        def counted(t, u, real=fn._prox):
            evals[0] += 1
            return real(t, u)
        fn._prox = counted
    dynamics = _dynamics(problem, p, metric, gamma)
    rng = np.random.default_rng(start)
    x0, y0 = rng.standard_normal(p.n), rng.standard_normal(p.m)
    s0 = flow.SystemState(x0, p.A.apply(x0), y0)
    if solver == "admm":
        d = discrete.DiscreteParams(c=1.0, gamma=gamma, **dynamics,
                                    max_iters=3000, stop_tol=1e-10)
        out = discrete.run(p, d, s0)
        counts = f"iterations {out.iterations}"
        arrays = (out.U, out.residuals)
    else:
        integrator = {"rk4": flow.RK4(h=0.05), "euler": flow.Euler(h=0.05),
                      "adaptive": flow.Adaptive()}[solver]
        params = flow.FlowParams(
            c=1.0, gamma=gamma, **dynamics, integrator=integrator,
            horizon=20.0 if solver == "adaptive" else 5.0)
        out = flow.integrate(p, params, s0)
        counts = f"rhs_evals {out.rhs_evals} map_steps {out.map_steps}"
        arrays = (out.t, out.U, out.erg)
    digest = _sha(b"".join(np.ascontiguousarray(a).tobytes()
                           for a in arrays))
    return (f"{' '.join(map(str, case))}: {out.stop_reason} {counts} "
            f"prox_evals {evals[0]} {digest}")


def main() -> int:
    for argv in commands():
        print("\n".join(run(argv)), flush=True)
    for case in itertools.chain(api_runs(), closed_form_runs()):
        print(run_api(case), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
