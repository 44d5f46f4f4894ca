"""The benchmark's workloads: seeded inputs, operations and output gates.

Every input is a pdflow run-config file written before timing starts, so
the program receives only the generated start vectors, never the seed.  An
operation is one call a user makes: a `pdflow` command through
`pdflow.cli.main` in-process, or one solve through the Python API.  Its gate
runs after the pass and records each failed condition together with whether
the program reported that failure itself (a non-zero exit code, a FAIL row,
a false certificate flag, a stop reason) or only the benchmark's own check
caught it.
"""

from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import os
import re
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from pdflow import cli, config, diagnostics, discrete, flow, linops, metric, problems

# Acceptance radii of the reproduction sweep at T = 200 (the saddle is 0).
RADIUS_X = 1e-3
RADIUS_Y = 1e-2
ERGODIC_TOL = 1e-8
SWEEP_RUNS = 9


@dataclass
class Verdict:
    failures: list = field(default_factory=list)  # (reason, reported by pdflow)
    counts: dict = field(default_factory=dict)    # deterministic counts
    digests: dict = field(default_factory=dict)   # CSV file name -> sha256

    def expect(self, ok, reason, reported=True):
        if not ok:
            self.failures.append((reason, reported))

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + int(value)


@dataclass
class Op:
    label: str
    call: Callable            # out_dir -> raw output
    gate: Callable            # (raw output, out_dir, Verdict) -> None
    runs: int = 1             # runs the operation performs
    solve: bool = False       # ends in a point gated at a stated accuracy


# -- input files --------------------------------------------------------------


def _vec(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _write_config(path, **keys):
    lines = ["[run]"] + [f"{k} = {v}" for k, v in keys.items()]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _start(rng, dim):
    """A seeded start of norm sqrt(dim): a random direction at a fixed radius,
    so that the distance to the solution, and with it the work, varies little
    from seed to seed."""
    u = rng.standard_normal(dim)
    return _vec(np.sqrt(dim) * u / np.linalg.norm(u))


def _configs(indir, prefix):
    return sorted(glob.glob(os.path.join(indir, f"{prefix}*.cfg")))


# -- output readers and gates ------------------------------------------------


def _read_csv(path, verdict, reported):
    """Header, data rows and footer of a trace CSV; records size and digest."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        verdict.expect(False, f"missing {os.path.basename(path)}", reported)
        return None
    verdict.digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
    verdict.add("csv_bytes", len(data))
    lines = data.decode("utf-8").splitlines()
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    verdict.add("trace_records", len(rows))
    footer = dict(ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# "))
    last = dict(zip(lines[0].split(","), rows[-1].split(","))) if rows else {}
    return footer, last


def _cli(argv):
    def call(out):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv + ["--out", out])
        return rc, buf.getvalue()
    return call


def _gate_exit(raw, verdict):
    rc, _ = raw
    verdict.expect(rc == 0, f"exit code {rc}")
    return rc


def _gate_check(raw, out, verdict):
    rc = _gate_exit(raw, verdict)
    rows = re.findall(r"^(ok|FAIL|skip)\s+(\S+):", raw[1], re.M)
    verdict.expect(bool(rows) or rc != 0, "check printed no result rows", False)
    for status, name in rows:
        verdict.expect(status != "FAIL", f"check {name} FAIL")
    verdict.add("check_failed", sum(status == "FAIL" for status, _ in rows))


def _gate_discrete(csv_name, stop_tol):
    def gate(raw, out, verdict):
        rc = _gate_exit(raw, verdict)
        got = _read_csv(os.path.join(out, csv_name), verdict, rc != 0)
        if got is None:
            return
        footer, _ = got
        verdict.add("iterations", footer.get("iterations", 0))
        verdict.expect(footer.get("stop_reason") == "tolerance",
                       f"stop_reason {footer.get('stop_reason')}")
        kkt = float(footer.get("final_kkt", "inf"))
        verdict.expect(kkt <= stop_tol, f"final_kkt {kkt:.3g} > {stop_tol:g}",
                       footer.get("stop_reason") != "tolerance")
    return gate


def _gate_flow_csv(csv_name):
    def gate(raw, out, verdict):
        rc = _gate_exit(raw, verdict)
        _read_csv(os.path.join(out, csv_name), verdict, rc != 0)
    return gate


# -- workloads ----------------------------------------------------------------


class Example1Sweep:
    name = "example1-sweep"

    def write_inputs(self, seed, indir):
        # The seed is not used: the sweep keeps its documented start.  The
        # sweep file restates reproduce-example1's settings for the set-up
        # probe; check.cfg runs the invariant suite at the grid's centre.
        start = dict(problem="example1", x0="example1-default",
                     z0="example1-default", y0="example1-default")
        _write_config(os.path.join(indir, "check.cfg"), **start,
                      tau="0.25", gamma="0.5")
        _write_config(os.path.join(indir, "sweep.cfg"), **start, mode="sweep",
                      c="1.0", horizon="200.0", step="0.01", integrator="rk4")

    def resolve(self, indir):
        cfg = config.parse_file(os.path.join(indir, "sweep.cfg"))
        p = config.load_problem(cfg.problem)
        out = [config.initial_state(cfg, p)]
        out += [config.build_flow_params(cfg, p, gamma=g, tau=tc / cfg.c)
                for tc in (0.49, 0.25, 0.1) for g in (0.99, 0.5, 0.01)]
        cfg = config.parse_file(os.path.join(indir, "check.cfg"))
        p = config.load_problem(cfg.problem)
        return out + [config.build_flow_params(cfg, p), config.initial_state(cfg, p)]

    def ops(self, indir):
        return [Op("reproduce-example1",
                   _cli(["reproduce-example1", "--jobs", "1"]),
                   self._gate_sweep, runs=SWEEP_RUNS, solve=True),
                Op("check example1",
                   _cli(["check", "--config", os.path.join(indir, "check.cfg")]),
                   _gate_check)]

    @staticmethod
    def _gate_sweep(raw, out, verdict):
        rc = _gate_exit(raw, verdict)
        paths = sorted(glob.glob(os.path.join(out, "example1-flow-g*-tc*.csv")))
        verdict.expect(len(paths) == SWEEP_RUNS,
                       f"{len(paths)} sweep CSVs, expected {SWEEP_RUNS}", rc != 0)
        for path in paths:
            got = _read_csv(path, verdict, rc != 0)
            if got is None:
                continue
            footer, last = got
            run = os.path.basename(path)
            for flag in ("gap_bound_ok", "lyapunov_monotone"):
                verdict.expect(footer.get(flag) == "true", f"{run}: {flag} false")
            x_t = float(last.get("dist_primal") or "inf")
            y_t = float(last.get("dist_dual") or "inf")
            verdict.expect(x_t <= RADIUS_X, f"{run}: |x(T)| = {x_t:.3g}", False)
            verdict.expect(y_t <= RADIUS_Y, f"{run}: |y(T)| = {y_t:.3g}", False)


class MetricLasso:
    name = "metric-lasso"

    FLOW = dict(c="1.0", gamma="0.5", horizon="5.0", step="0.05")
    # The flow's work varies by some 15 % from start to start, and an ADMM
    # solve's by some 30 %; several starts of each average that out.  With
    # more ADMM starts than the rest, the per-run median falls inside them.
    FLOW_STARTS = 4
    ADMM_STARTS = 12
    METRIC_SCALE = 0.5

    def write_inputs(self, seed, indir):
        rng = np.random.default_rng(seed)
        p = problems.catalog("lasso-small")
        for kind, count in (("flow", self.FLOW_STARTS), ("admm", self.ADMM_STARTS)):
            for i in range(count):
                _write_config(os.path.join(indir, f"{kind}{i}.cfg"),
                              problem=p.name, x0=_start(rng, p.n),
                              y0=_start(rng, p.m), stop_tol="1e-10",
                              max_iters="20000", **self.FLOW)

    def _setup(self, path):
        cfg = config.parse_file(path)
        p = config.load_problem(cfg.problem)
        m1 = metric.MetricSchedule.constant(
            linops.SelfAdjointPSD.identity(p.n, self.METRIC_SCALE))
        m2 = metric.MetricSchedule.constant(
            linops.SelfAdjointPSD.identity(p.m, self.METRIC_SCALE))
        return cfg, p, config.initial_state(cfg, p), m1, m2

    @staticmethod
    def _flow_params(cfg, m1, m2):
        return flow.FlowParams(c=cfg.c, gamma=cfg.gamma, m1=m1, m2=m2,
                               horizon=cfg.horizon,
                               integrator=flow.RK4(h=cfg.step))

    @staticmethod
    def _admm_params(cfg, m1, m2):
        return discrete.DiscreteParams(c=cfg.c, gamma=cfg.gamma, m1=m1, m2=m2,
                                       max_iters=cfg.max_iters,
                                       stop_tol=cfg.stop_tol)

    def resolve(self, indir):
        out = []
        for path in _configs(indir, "flow"):
            cfg, p, s0, m1, m2 = self._setup(path)
            out += [self._flow_params(cfg, m1, m2), s0]
        for path in _configs(indir, "admm"):
            cfg, p, s0, m1, m2 = self._setup(path)
            out += [self._admm_params(cfg, m1, m2), s0]
        cfg = config.parse_file(_configs(indir, "flow")[0])
        p = config.load_problem(cfg.problem)
        return out + [config.build_flow_params(cfg, p), config.initial_state(cfg, p)]

    def ops(self, indir):
        flows = _configs(indir, "flow")
        ops = [Op(f"flow general-metric {os.path.basename(path)}",
                  self._flow_call(path), self._gate_flow)
               for path in flows]
        ops += [Op(f"admm general-metric {os.path.basename(path)}",
                   self._admm_call(path), self._gate_admm, solve=True)
                for path in _configs(indir, "admm")]
        # The closed-form invariant suite on the same problem and first
        # start: a control that metric_prox work should leave unchanged.
        ops.append(Op("check lasso-small closed-form",
                      _cli(["check", "--config", flows[0], "--tau", "auto"]),
                      _gate_check))
        return ops

    def _flow_call(self, path):
        def call(out):
            cfg, p, s0, m1, m2 = self._setup(path)
            params = self._flow_params(cfg, m1, m2)
            traj = flow.integrate(p, params, s0)
            trace = diagnostics.trace_flow(p, params, traj)
            w0 = diagnostics.initial_weighted_distance(
                p, m1, m2, params.c, params.gamma, traj.states[0])
            cert = diagnostics.certify_rates(trace, p, w0)
            cli.write_trace_csv(
                os.path.join(out, "lasso-small-metric-flow.csv"), trace,
                footer=[("stop_reason", traj.stop_reason),
                        ("gap_bound_ok", cert.gap_bound_ok),
                        ("lyapunov_monotone", cert.lyapunov_monotone)])
            return p, params, s0, traj, cert
        return call

    def _admm_call(self, path):
        def call(out):
            cfg, p, s0, m1, m2 = self._setup(path)
            d = self._admm_params(cfg, m1, m2)
            return discrete.run(p, d, s0), d.stop_tol
        return call

    @staticmethod
    def _gate_flow(raw, out, verdict):
        p, params, s0, traj, cert = raw
        verdict.add("rhs_evals", traj.rhs_evals)
        verdict.expect(traj.stop_reason == "horizon",
                       f"stop_reason {traj.stop_reason}")
        verdict.expect(cert.lyapunov_monotone, "Lyapunov descent violated")
        worst = 0.0
        for s, xt, zt in zip(traj.states, traj.ergodic_x, traj.ergodic_z):
            if xt is not None:
                gap = p.A.apply(xt) - zt - (s.y - s0.y) / (params.c * s.t)
                worst = max(worst, float(np.linalg.norm(gap)))
        verdict.expect(worst <= ERGODIC_TOL,
                       f"ergodic identity defect {worst:.3g}", False)
        _read_csv(os.path.join(out, "lasso-small-metric-flow.csv"), verdict, False)

    @staticmethod
    def _gate_admm(raw, out, verdict):
        result, stop_tol = raw
        verdict.add("iterations", result.iterations)
        verdict.expect(result.stop_reason == "tolerance",
                       f"stop_reason {result.stop_reason}")
        kkt = result.residuals[-1].max()
        verdict.expect(kkt <= stop_tol, f"final KKT {kkt:.3g} > {stop_tol:g}",
                       result.stop_reason != "tolerance")


class CatalogMix:
    name = "catalog-mix"

    # Discrete runs (6-30 ms) get twice the starts of the adaptive flow and
    # check runs (60-200 ms), so that the per-run median falls inside the
    # discrete runs' latencies rather than on the gap between the two groups.
    # The adaptive runs' cost varies up to 2x from start to start; eight
    # starts a problem keep the tail, which falls among them, steady.
    STARTS = 16
    ADAPTIVE_STARTS = 8
    STOP_TOL = 1e-10

    def write_inputs(self, seed, indir):
        rng = np.random.default_rng(seed)
        for name in problems.CATALOG_NAMES:
            p = problems.catalog(name)
            for i in range(self.STARTS):
                _write_config(os.path.join(indir, f"{name}-{i}.cfg"),
                              problem=name, x0=_start(rng, p.n),
                              y0=_start(rng, p.m),
                              stop_tol=repr(self.STOP_TOL), max_iters="20000")

    def _runs(self, indir):
        """(problem, config path, with adaptive runs) for every start."""
        for name in problems.CATALOG_NAMES:
            for i in range(self.STARTS):
                yield (name, os.path.join(indir, f"{name}-{i}.cfg"),
                       i < self.ADAPTIVE_STARTS)

    def resolve(self, indir):
        out = []
        for _, path, adaptive in self._runs(indir):
            cfg = config.parse_file(path)
            p = config.load_problem(cfg.problem)
            out += [config.build_discrete_params(cfg, p), config.initial_state(cfg, p)]
            if adaptive:
                out.append(config.build_flow_params(
                    replace(cfg, integrator="adaptive"), p))
        return out

    def ops(self, indir):
        ops = []
        for name, path, adaptive in self._runs(indir):
            base = ["--config", path, "--tau", "auto"]
            algorithms = ["admm"]
            if problems.catalog(name).h.is_zero:
                algorithms.append("cp")  # the primal-dual step needs h = 0
            for alg in algorithms:
                ops.append(Op(f"discrete {alg} {os.path.basename(path)}",
                              _cli(["discrete", "--algorithm", alg] + base),
                              _gate_discrete(f"{name}-{alg}.csv", self.STOP_TOL),
                              solve=True))
            if adaptive:
                base = ["--integrator", "adaptive"] + base
                ops.append(Op(f"flow adaptive {os.path.basename(path)}",
                              _cli(["flow"] + base),
                              _gate_flow_csv(f"{name}-flow.csv")))
                ops.append(Op(f"check adaptive {os.path.basename(path)}",
                              _cli(["check"] + base), _gate_check))
        return ops


WORKLOADS = {w.name: w for w in (Example1Sweep(), MetricLasso(), CatalogMix())}
