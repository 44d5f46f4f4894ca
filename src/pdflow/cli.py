"""Command-line entry point.

Subcommands:

  flow                integrate the continuous system, write a trace CSV,
                      a certificate report, and a gnuplot script
  discrete            run the discrete iteration (admm or cp) the same way
  sweep               run the (gamma, tau*c) grid from the config, one trace
                      per run, plus a sweep report
  check               run the runtime invariant suite on the configured
                      problem and parameters
  reproduce-example1  the documented 3x3 sweep of the 2-d catalog problem
                      from its standard start

Every run writes its outputs under --out (default: the working directory).
--jobs is accepted and ignored: sweeps run sequentially.  The config's
`mode` key is validated and otherwise ignored: the subcommand decides what
runs.
Exit codes: 0 success, 1 configuration error, 2 certification failure (a
rate-certificate flag is false, the invariant suite fails, or the run
aborts before a certificate can be produced).

Output is deterministic: the same config and seed produce byte-identical
CSV files.  Floats are serialized with repr, so traces round-trip exactly.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields, replace

from .checks import render_report, run_checks
from .config import (RunConfig, _as_tau, _fmt, build_discrete_params,
                     build_flow_params, initial_state, load_problem,
                     parse_file)
from .diagnostics import (CSV_FIELDS, certify_rates, initial_weighted_distance,
                          sweep_summary, trace_discrete, trace_flow)
from .discrete import run as discrete_run
from .errors import (CertificationError, ConfigError, IntegrationError,
                     ToleranceNotMet)
from .flow import integrate, schedules

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run config file")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="accepted and ignored; sweeps run "
                             "sequentially")
    common.add_argument("--seed", type=int, default=0, metavar="S",
                        help="seed for randomized checks (default 0)")
    common.add_argument("--problem", help="catalog name or problem file")
    common.add_argument("--c", type=float, dest="c", help="penalty parameter")
    common.add_argument("--gamma", type=float, help="relaxation in [0,1]")
    common.add_argument("--tau", help="step: decimal, auto, or saturating:a,b")
    common.add_argument("--horizon", type=float, help="integration horizon")
    common.add_argument("--step", type=float, help="integrator step size")
    common.add_argument("--integrator", choices=("euler", "rk4", "adaptive"))
    common.add_argument("--max-iters", type=int, dest="max_iters",
                        help="discrete iteration budget")
    common.add_argument("--hit-threshold", type=float, dest="hit_threshold",
                        help="first-hit distance threshold")
    common.add_argument("--record-every", type=int, dest="record_every",
                        help="record every n-th integrator step")
    common.add_argument("--dump-state", action="store_true", default=None,
                        help="append raw state columns to the CSV")

    parser = _Parser(prog="pdflow", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("flow", parents=[common],
                   help="integrate the continuous system")
    disc = sub.add_parser("discrete", parents=[common],
                          help="run the discrete iteration")
    disc.add_argument("--algorithm", choices=("admm", "cp"), default="admm")
    sub.add_parser("sweep", parents=[common], help="run the parameter sweep")
    sub.add_parser("check", parents=[common], help="run the invariant suite")
    sub.add_parser("reproduce-example1", parents=[common],
                   help="the documented 3x3 sweep on the 2-d problem")
    return parser


_OVERRIDES = ("problem", "c", "gamma", "horizon", "step", "integrator",
              "max_iters", "hit_threshold", "record_every", "dump_state")


def _load_config(args) -> RunConfig:
    cfg = parse_file(args.config) if args.config else RunConfig()
    updates = {}
    for name in _OVERRIDES:
        value = getattr(args, name, None)
        if value is not None:
            updates[name] = value
    if args.tau is not None:
        updates["tau"] = _as_tau(args.tau, "--tau")
    if updates:
        cfg = replace(cfg, **updates)
    return cfg.validate()


# -- output writers -----------------------------------------------------------


def _write_text(path, text):
    """Write `text` and a final newline, UTF-8 with \\n line ends: every file
    a run writes goes through here."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _cells(col) -> list:
    return ["" if c == "nan" else c for c in map(repr, col.tolist())]


def write_trace_csv(path, trace, U=None, n=None, footer=()):
    """CSV with the fixed column header, then `# key = value` footer lines.

    Cells are `repr` of each float, so they parse back to the same value;
    NaN cells are written blank.  `U`, the states as an (R, n + 2m) array
    with one row x | z | y per trace row, appends x_/z_/y_ columns
    (--dump-state); `n` is the length of x.
    """
    header = list(CSV_FIELDS)
    columns = [_cells(getattr(trace, name)) for name in CSV_FIELDS]
    if U is not None:
        m = (U.shape[1] - n) // 2
        header += [f"x_{i}" for i in range(n)]
        header += [f"z_{i}" for i in range(m)]
        header += [f"y_{i}" for i in range(m)]
        columns += [list(map(repr, col)) for col in U.T.tolist()]
    lines = [",".join(header)]
    lines += map(",".join, zip(*columns))
    lines += [f"# {key} = {_fmt(value)}" for key, value in footer]
    _write_text(path, "\n".join(lines))


def write_plot_script(path, csv_name, title):
    """Standalone gnuplot script over the named CSV (comments are skipped
    by gnuplot, so the footer block is harmless)."""
    _write_text(path, "\n".join([
        f"# plot script for {csv_name}",
        'set datafile separator ","',
        'set datafile missing ""',
        "set key outside",
        "set logscale y",
        'set xlabel "t"',
        f'set title "{title}"',
        f'plot "{csv_name}" using 1:2 with lines title "dist primal", \\',
        f'     "{csv_name}" using 1:4 with lines title "feasibility", \\',
        f'     "{csv_name}" using 1:5 with lines title "lyapunov", \\',
        f'     "{csv_name}" using 1:6 with lines title "ergodic feasibility"',
    ]))


def _emit_run(out, stem, title, n, run) -> str:
    """Write a finished run's CSV, plot script and report; the report's
    `  key = value` lines are the CSV's footer lines."""
    trace, U, footer, _ = run
    write_trace_csv(os.path.join(out, f"{stem}.csv"), trace, U=U, n=n,
                    footer=footer)
    write_plot_script(os.path.join(out, f"{stem}.gp"), f"{stem}.csv", title)
    report = "\n".join([f"run: {title}"] + [f"  {key} = {_fmt(value)}"
                                            for key, value in footer])
    _write_text(os.path.join(out, f"{stem}-report.txt"), report)
    return report


# -- subcommand runners -------------------------------------------------------


def _finished(p, cfg, params, s0, trace, U, footer):
    """Certify a flow or discrete run (`params` is its FlowParams or
    DiscreteParams) and return it as (trace, U, footer, certificate).

    W0, the squared distance of the start to the known saddle in W(0) of
    the run's schedules, is None without a known primal.  The footer gains
    the rows hit_threshold and w0_norm_sq, then the certificate's fields
    in order.  U is kept only for --dump-state.
    """
    w0 = None
    if p.known_primal is not None:
        m1, m2 = schedules(p, params.c, params.tau, params.m1, params.m2)
        w0 = initial_weighted_distance(p, m1, m2, params.c, params.gamma, s0)
    cert = certify_rates(trace, p, w0, grid=cfg.grid,
                         hit_threshold=cfg.hit_threshold)
    footer = [*footer, ("hit_threshold", cfg.hit_threshold),
              ("w0_norm_sq", "none" if w0 is None else w0),
              *((f.name, getattr(cert, f.name)) for f in fields(cert))]
    return trace, U if cfg.dump_state else None, footer, cert


def _flow_run(p, cfg, s0, seed, mode, params, tau_rows):
    """Integrate one flow configuration and certify it; the footer's
    `mode` and tau rows are the caller's."""
    traj = integrate(p, params, s0, record_every=cfg.record_every)
    footer = [("problem", p.name), ("mode", mode),
              ("integrator", cfg.integrator), ("step", cfg.step),
              ("c", params.c), ("gamma", params.gamma), *tau_rows,
              ("horizon", params.horizon), ("seed", seed),
              ("stop_reason", traj.stop_reason),
              ("rhs_evals", traj.rhs_evals), ("map_steps", traj.map_steps)]
    return _finished(p, cfg, params, s0, trace_flow(p, params, traj),
                     traj.U, footer)


def _out_dir(args, cfg) -> str:
    out = args.out or cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_flow(args, cfg) -> int:
    p = load_problem(cfg.problem)
    s0 = initial_state(cfg, p)
    params = build_flow_params(cfg, p)
    run = _flow_run(p, cfg, s0, args.seed, "flow", params,
                    [("tau", cfg.tau), ("tau0", params.tau.value(0.0))])
    print(_emit_run(_out_dir(args, cfg), f"{p.name}-flow", f"{p.name} flow",
                    p.n, run))
    return 0 if run[-1].all_ok() else 2


def cmd_discrete(args, cfg) -> int:
    p = load_problem(cfg.problem)
    s0 = initial_state(cfg, p)
    d = build_discrete_params(cfg, p)
    result = discrete_run(p, d, s0, algorithm=args.algorithm)
    footer = [("problem", p.name), ("mode", "discrete"),
              ("algorithm", args.algorithm), ("c", d.c), ("gamma", d.gamma),
              ("tau", cfg.tau), ("tau0", d.tau.value(0.0)),
              ("max_iters", d.max_iters), ("stop_tol", d.stop_tol),
              ("seed", args.seed), ("stop_reason", result.stop_reason),
              ("iterations", result.iterations),
              ("final_kkt", result.residuals[-1].max())]
    run = _finished(p, cfg, d, s0, trace_discrete(p, d, result), result.U,
                    footer)
    print(_emit_run(_out_dir(args, cfg), f"{p.name}-{args.algorithm}",
                    f"{p.name} {args.algorithm}", p.n, run))
    if result.stop_reason == "divergence":
        print("pdflow: iteration diverged", file=sys.stderr)
        return 2
    return 0 if run[-1].all_ok() else 2


def _run_sweep(args, cfg) -> int:
    p = load_problem(cfg.problem)
    s0 = initial_state(cfg, p)
    out = _out_dir(args, cfg)
    # every run finishes before any file is written; a finished run keeps
    # only what gets written, so one trajectory is alive at a time
    runs = {}
    for tauc in cfg.sweep_taucs:
        for gamma in cfg.sweep_gammas:
            params = build_flow_params(cfg, p, gamma=gamma, tau=tauc / cfg.c)
            runs[gamma, tauc] = _flow_run(p, cfg, s0, args.seed, "sweep",
                                          params, [("tau", tauc / cfg.c)])
    for (gamma, tauc), run in runs.items():
        _emit_run(out, f"{p.name}-flow-g{gamma:g}-tc{tauc:g}",
                  f"{p.name} gamma={gamma:g} tau*c={tauc:g}", p.n, run)
    summary = sweep_summary({key: run[-1] for key, run in runs.items()},
                            hit_threshold=cfg.hit_threshold)
    text = summary.render()
    _write_text(os.path.join(out, f"{p.name}-sweep-report.txt"), text)
    print(text)
    return 0 if summary.all_ok() else 2


def cmd_reproduce_example1(args, cfg) -> int:
    """The documented 3x3 sweep: tau*c in {0.49, 0.25, 0.1} against
    gamma in {0.99, 0.5, 0.01}, started from the standard point."""
    overrides = dict(problem="example1", c=1.0,
                     x0="example1-default", z0="example1-default",
                     y0="example1-default",
                     sweep_taucs=(0.49, 0.25, 0.1),
                     sweep_gammas=(0.99, 0.5, 0.01))
    if args.horizon is None:
        overrides["horizon"] = 200.0
    if args.step is None:
        overrides["step"] = 0.01
    if args.integrator is None:
        overrides["integrator"] = "rk4"
    cfg = replace(cfg, **overrides).validate()
    return _run_sweep(args, cfg)


def cmd_check(args, cfg) -> int:
    p = load_problem(cfg.problem)
    params = build_flow_params(cfg, p)
    s0 = initial_state(cfg, p)
    results = run_checks(p, params, s0, seed=args.seed)
    text = render_report(results)
    out = _out_dir(args, cfg)
    _write_text(os.path.join(out, f"{p.name}-check-report.txt"), text)
    print(text)
    return 0 if all(r.ok for r in results) else 2


_DISPATCH = {
    "flow": cmd_flow,
    "discrete": cmd_discrete,
    "sweep": _run_sweep,
    "check": cmd_check,
    "reproduce-example1": cmd_reproduce_example1,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on its first call in a process; it
    keeps no state between `parse_args` calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        cfg = _load_config(args)
        return _DISPATCH[args.command](args, cfg)
    except (ValueError, CertificationError) as exc:
        print(f"pdflow: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, ToleranceNotMet) as exc:
        print(f"pdflow: run aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
