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
from dataclasses import replace

import numpy as np

from .checks import render_report, run_checks
from .config import (RunConfig, _as_tau, _fmt, build_discrete_params,
                     build_flow_params, initial_state, load_problem,
                     parse_file)
from .diagnostics import (CSV_FIELDS, certify_rates, initial_weighted_distance,
                          sweep_summary, trace_discrete, trace_flow)
from .discrete import run as discrete_run
from .errors import (CertificationError, ConfigError, IntegrationError,
                     MissingSolutionError, ToleranceNotMet)
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
                        help="accepted for compatibility; sweeps run "
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


def _footer_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    return str(value)


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
    for key, value in footer:
        lines.append(f"# {key} = {_footer_value(value)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_plot_script(path, csv_name, title):
    """Standalone gnuplot script over the named CSV (comments are skipped
    by gnuplot, so the footer block is harmless)."""
    text = "\n".join([
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
        "",
    ])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _certificate_footer(cert, w0):
    rows = [("w0_norm_sq", "none" if w0 is None else w0)]
    if cert is not None:
        rows += [("feas_constant", cert.feas_constant),
                 ("gap_bound_ok", cert.gap_bound_ok),
                 ("gap_bound_margin", cert.gap_bound_margin),
                 ("lyapunov_monotone", cert.lyapunov_monotone),
                 ("first_hit_time", cert.first_hit_time)]
    return rows


def _report_text(name, footer) -> str:
    lines = [f"run: {name}"]
    for key, value in footer:
        lines.append(f"  {key} = {_footer_value(value)}")
    return "\n".join(lines)


def _w0_or_none(p, m1, m2, c, gamma, s0):
    try:
        return initial_weighted_distance(p, m1, m2, c, gamma, s0)
    except MissingSolutionError:
        return None


# -- subcommand runners -------------------------------------------------------


def _flow_single(p, cfg, s0, gamma=None, tau=None):
    """Integrate one flow configuration and certify its trace."""
    params = build_flow_params(cfg, p, gamma=gamma, tau=tau)
    traj = integrate(p, params, s0, record_every=cfg.record_every)
    trace = trace_flow(p, params, traj)
    m1, m2 = schedules(p, params.c, params.tau, params.m1, params.m2)
    w0 = _w0_or_none(p, m1, m2, params.c, params.gamma, s0)
    cert = certify_rates(trace, p, w0, grid=cfg.grid,
                         hit_threshold=cfg.hit_threshold)
    return params, traj, trace, w0, cert


def _out_dir(args, cfg) -> str:
    out = args.out or cfg.out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _emit_run(out, stem, title, trace, U, n, footer):
    csv_name = f"{stem}.csv"
    write_trace_csv(os.path.join(out, csv_name), trace, U=U, n=n,
                    footer=footer)
    write_plot_script(os.path.join(out, f"{stem}.gp"), csv_name, title)
    report = _report_text(title, footer)
    with open(os.path.join(out, f"{stem}-report.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(report + "\n")
    return report


def cmd_flow(args, cfg) -> int:
    p = load_problem(cfg.problem)
    s0 = initial_state(cfg, p)
    params, traj, trace, w0, cert = _flow_single(p, cfg, s0)
    out = _out_dir(args, cfg)
    footer = [("problem", p.name), ("mode", "flow"),
              ("integrator", cfg.integrator), ("step", cfg.step),
              ("c", params.c), ("gamma", params.gamma),
              ("tau", _fmt(cfg.tau)), ("tau0", params.tau.value(0.0)),
              ("horizon", params.horizon), ("seed", args.seed),
              ("stop_reason", traj.stop_reason),
              ("rhs_evals", traj.rhs_evals),
              ("hit_threshold", cfg.hit_threshold)]
    footer += _certificate_footer(cert, w0)
    report = _emit_run(out, f"{p.name}-flow", f"{p.name} flow", trace,
                       traj.U if cfg.dump_state else None, p.n, footer)
    print(report)
    return 0 if cert.all_ok() else 2


def cmd_discrete(args, cfg) -> int:
    p = load_problem(cfg.problem)
    s0 = initial_state(cfg, p)
    d = build_discrete_params(cfg, p)
    result = discrete_run(p, d, s0, algorithm=args.algorithm)
    trace = trace_discrete(p, d, result)
    m1, m2 = schedules(p, d.c, d.tau, d.m1, d.m2)
    w0 = _w0_or_none(p, m1, m2, d.c, d.gamma, s0)
    cert = certify_rates(trace, p, w0, grid=cfg.grid,
                         hit_threshold=cfg.hit_threshold)
    out = _out_dir(args, cfg)
    footer = [("problem", p.name), ("mode", "discrete"),
              ("algorithm", args.algorithm), ("c", d.c), ("gamma", d.gamma),
              ("tau", _fmt(cfg.tau)), ("tau0", d.tau.value(0.0)),
              ("max_iters", d.max_iters), ("stop_tol", d.stop_tol),
              ("seed", args.seed), ("stop_reason", result.stop_reason),
              ("iterations", result.iterations),
              ("final_kkt", result.residuals[-1].max()),
              ("hit_threshold", cfg.hit_threshold)]
    footer += _certificate_footer(cert, w0)
    report = _emit_run(out, f"{p.name}-{args.algorithm}",
                       f"{p.name} {args.algorithm}", trace,
                       result.U if cfg.dump_state else None, p.n, footer)
    print(report)
    if result.stop_reason == "divergence":
        print("pdflow: iteration diverged", file=sys.stderr)
        return 2
    return 0 if cert.all_ok() else 2


def _run_sweep(args, cfg) -> int:
    p = load_problem(cfg.problem)
    s0 = initial_state(cfg, p)
    out = _out_dir(args, cfg)
    # every run finishes before any file is written; a run keeps only what
    # gets written, so one trajectory is alive at a time
    traces, certs, outputs = {}, {}, {}
    for tauc in cfg.sweep_taucs:
        for gamma in cfg.sweep_gammas:
            _, traj, trace, w0, cert = _flow_single(p, cfg, s0, gamma=gamma,
                                                    tau=tauc / cfg.c)
            footer = [("problem", p.name), ("mode", "sweep"),
                      ("integrator", cfg.integrator), ("step", cfg.step),
                      ("c", cfg.c), ("gamma", gamma), ("tau", tauc / cfg.c),
                      ("horizon", cfg.horizon), ("seed", args.seed),
                      ("stop_reason", traj.stop_reason),
                      ("rhs_evals", traj.rhs_evals),
                      ("hit_threshold", cfg.hit_threshold)]
            traces[gamma, tauc] = trace
            certs[gamma, tauc] = cert
            outputs[gamma, tauc] = (traj.U if cfg.dump_state else None,
                                    footer + _certificate_footer(cert, w0))
            del traj

    for (gamma, tauc), (U, footer) in outputs.items():
        _emit_run(out, f"{p.name}-flow-g{gamma:g}-tc{tauc:g}",
                  f"{p.name} gamma={gamma:g} tau*c={tauc:g}",
                  traces[gamma, tauc], U, p.n, footer)
    summary = sweep_summary(certs, hit_threshold=cfg.hit_threshold)
    text = summary.render()
    with open(os.path.join(out, f"{p.name}-sweep-report.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if summary.all_ok() else 2


def cmd_reproduce_example1(args, cfg) -> int:
    """The documented 3x3 sweep: tau*c in {0.49, 0.25, 0.1} against
    gamma in {0.99, 0.5, 0.01}, started from the standard point."""
    overrides = dict(problem="example1", mode="sweep", c=1.0,
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
    with open(os.path.join(out, f"{p.name}-check-report.txt"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
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
    except ConfigError as exc:
        print(f"pdflow: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"pdflow: {exc}", file=sys.stderr)
        return 1
    except CertificationError as exc:
        print(f"pdflow: {exc}", file=sys.stderr)
        return 1
    except (IntegrationError, ToleranceNotMet) as exc:
        print(f"pdflow: run aborted: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
