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
37 iterations ends inside a chunk of the stop test, and the example1
sweep `reproduce-example1 --horizon 5` (nine flow runs and the sweep
report).  Last come the same three runs, an RK4
`flow`, an ADMM `discrete` run and `check`, on two problem files:
`problems/ridge-identity.txt`, whose update is one affine map, and
`problems/l1-box.txt`, whose update makes both proxes and adds a nonzero
constant.  Then the closed-form step test on example1 at `--tau
saturating:0.2,0.6`: `flow --horizon 5`, refused with exit 1 because
c tau(5) ||A||^2 = 1.19461 > 1, and `flow --horizon 0.5`, which passes it,
then `check --horizon 0.5`, which must accept what that `flow` run
accepts: its unit-step comparison takes no step past the horizon, so here
it is skipped instead of certifying tau(25).
Then a step of 6e-309, whose Lyapunov weight overflows: `discrete
--max-iters 3` and `flow --horizon 1`, whose rate certificates fail.
Every run above is at c = 1 on a problem inside the dense limit, so none
would show a change to the c-scaled blocks of the constant-step kernel or
to the lazy maps of a wide problem.  Last come `flow --c 1.5 --horizon 20`
and `discrete --c 1.5` on lasso-small and `problems/l1-box.txt`, then
`flow --horizon 5` on `problems/wide-lasso.txt` and `discrete` on
`problems/wide-identity.txt`, whose H and B apply A lazily; all of them at
`--tau auto --dump-state`.  Last of all, `check --tau auto` on
`problems/wide-lasso.txt`, whose report pins the floors `certify` reads and
the norm of the largest shipped A, 40 x 64.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
import warnings

from pdflow import cli
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
    yield ["discrete", "--tau", "6e-309", "--max-iters", "3"]
    yield ["flow", "--tau", "6e-309", "--horizon", "1"]
    for problem in ("lasso-small", L1_BOX):
        base = ["--problem", problem, "--c", "1.5", "--tau", "auto"]
        yield ["flow", *base, "--horizon", "20", "--dump-state"]
        yield ["discrete", *base, "--dump-state"]
    auto = ["--tau", "auto", "--dump-state"]
    yield ["flow", "--problem", WIDE_LASSO, *auto, "--horizon", "5"]
    yield ["discrete", "--problem", WIDE_IDENTITY, *auto]
    yield ["check", "--problem", WIDE_LASSO, "--tau", "auto"]


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


def main() -> int:
    for argv in commands():
        print("\n".join(run(argv)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
