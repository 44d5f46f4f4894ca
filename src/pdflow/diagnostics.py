"""Trace records, Lyapunov values, and convergence-rate certificates.

A trace is a list of per-sample records (continuous time t for flow runs,
iteration index k for discrete runs) with distances to the known saddle,
feasibility gaps, the weighted Lyapunov value, and the ergodic-average
diagnostics.  Fields that need a known solution are None when the problem
does not carry one.

`certify_rates` turns a trace into the pass/fail flags the CLI reports:
Lyapunov descent along consecutive samples, the O(1/t) bound on the
averaged optimality gap, boundedness of t times the averaged feasibility
gap, and the first time the primal distance crosses a threshold.  The rate
fields are sampled on a sparse grid (default 1, 2, 5, ..., 200, clipped to
the trace); the descent check and the hit time scan every record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingSolutionError
from .flow import FlowParams, FlowTrajectory, SystemState
from .metric import MetricSchedule, TauSchedule, weight_W
from .problems import ProblemSpec

__all__ = [
    "TraceRecord",
    "RateCertificate",
    "DEFAULT_GRID",
    "lyapunov",
    "initial_weighted_distance",
    "trace_flow",
    "trace_discrete",
    "certify_rates",
    "SweepRow",
    "SweepSummary",
    "sweep_summary",
    "first_hit_time",
]

DEFAULT_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)

CSV_FIELDS = ("t", "dist_primal", "dist_dual", "feas", "lyapunov",
              "ergodic_feas", "ergodic_gap")


@dataclass
class TraceRecord:
    """One diagnostics row; `t` is the iteration index k for discrete runs.

    gamma, c, tau echo the run parameters (tau is None in general-metric
    mode with a non-step-derived schedule).
    """

    t: float
    dist_primal: float | None
    dist_dual: float | None
    feas: float
    lyapunov: float | None
    ergodic_feas: float | None
    ergodic_gap: float | None
    gamma: float | None = None
    c: float | None = None
    tau: float | None = None


def _stack(s: SystemState, x_ref, z_ref, y_ref) -> np.ndarray:
    return np.concatenate([s.x - x_ref, s.z - z_ref, s.y - y_ref])


def lyapunov(p: ProblemSpec, m1: MetricSchedule, m2: MetricSchedule,
             c, gamma, t, s: SystemState) -> float:
    """Weighted squared distance to the known saddle at time t.

    Blocks: ||x - x*||^2 in M1(t) + c(1-gamma) A*A, ||z - A x*||^2 in
    M2(t) + c I, and ||y - y*||^2 / c.  Needs both known solutions.
    """
    x_star, y_star = p.require_saddle()
    w = weight_W(m1, m2, c, gamma, p.A, t)
    return w.seminorm_sq(_stack(s, x_star, p.A.apply(x_star), y_star))


def initial_weighted_distance(p: ProblemSpec, m1: MetricSchedule,
                              m2: MetricSchedule, c, gamma,
                              s0: SystemState) -> float:
    """||U0 - (x*, A x*, 0)||^2 in W(0); the numerator of the gap bound."""
    if p.known_primal is None:
        raise MissingSolutionError(
            f"problem {p.name!r} has no known primal solution")
    x_star = p.known_primal
    w = weight_W(m1, m2, c, gamma, p.A, 0.0)
    return w.seminorm_sq(_stack(s0, x_star, p.A.apply(x_star), np.zeros(p.m)))


def _flow_schedules(p: ProblemSpec, params: FlowParams):
    if params.mode == "closed-form":
        m1 = MetricSchedule.tau_family(params.tau, params.c, p.A)
        m2 = MetricSchedule.zero(p.m)
    else:
        m1 = params.m1
        m2 = params.m2 if params.m2 is not None else MetricSchedule.zero(p.m)
    return m1, m2


def _build_trace(p, m1, m2, c, gamma, states, erg_x, erg_z, tau_of=None) -> list:
    x_star = p.known_primal
    y_star = p.known_dual
    have_saddle = x_star is not None and y_star is not None
    have_opt = x_star is not None
    z_star = p.A.apply(x_star) if have_opt else None
    opt = p.objective(x_star) if have_opt else None
    a_apply = p.A._raw_apply

    w_fixed = None
    if m1.is_time_invariant() and m2.is_time_invariant():
        w_fixed = weight_W(m1, m2, c, gamma, p.A, 0.0)

    records = []
    for s, xt, zt in zip(states, erg_x, erg_z):
        feas = float(np.linalg.norm(a_apply(s.x) - s.z))
        dist_p = float(np.linalg.norm(s.x - x_star)) if have_opt else None
        dist_d = float(np.linalg.norm(s.y - y_star)) if y_star is not None else None
        lyap = None
        if have_saddle:
            w = w_fixed if w_fixed is not None else weight_W(m1, m2, c, gamma, p.A, s.t)
            lyap = w.seminorm_sq(_stack(s, x_star, z_star, y_star))
        e_feas = e_gap = None
        if xt is not None:
            e_feas = float(np.linalg.norm(a_apply(xt) - zt))
            if have_opt:
                e_gap = float(p.f(xt) + p.h(xt) + p.g(zt) - opt)
        records.append(TraceRecord(
            t=s.t, dist_primal=dist_p, dist_dual=dist_d, feas=feas,
            lyapunov=lyap, ergodic_feas=e_feas, ergodic_gap=e_gap,
            gamma=gamma, c=c, tau=None if tau_of is None else tau_of(s.t)))
    return records


def trace_flow(p: ProblemSpec, params: FlowParams,
               traj: FlowTrajectory) -> list:
    m1, m2 = _flow_schedules(p, params)
    tau_of = None
    if params.mode == "closed-form":
        tau_of = params.tau.value
    elif params.m1 is not None and params.m1.kind == "tau-family":
        tau_of = params.m1.tau.value
    return _build_trace(p, m1, m2, params.c, params.gamma,
                        traj.states, traj.ergodic_x, traj.ergodic_z, tau_of)


def trace_discrete(p: ProblemSpec, d, run_result) -> list:
    """Per-iteration trace; the time column is the iteration index k.

    Ergodic fields stay blank (averaging is a property of the continuous
    flow).  The Lyapunov weight uses the per-iteration metric at t = k.
    """
    if d.m1 is not None:
        m1 = d.m1
    elif isinstance(d.tau, TauSchedule):
        m1 = MetricSchedule.tau_family(d.tau, d.c, p.A)
    else:
        m1 = None  # scalar or per-k sequence, rebuilt below
    m2 = d.m2 if d.m2 is not None else MetricSchedule.zero(p.m)

    states = run_result.states
    none_col = [None] * len(states)
    if m1 is not None:
        return _build_trace(p, m1, m2, d.c, d.gamma, states, none_col,
                            none_col, tau_of=lambda t: d.tau_at(int(t)))

    records = []
    cache = {}
    for s in states:
        tau_k = d.tau_at(int(s.t))
        sched = cache.get(tau_k)
        if sched is None:
            sched = MetricSchedule.tau_family(TauSchedule.constant(tau_k),
                                              d.c, p.A)
            cache[tau_k] = sched
        records.extend(_build_trace(p, sched, m2, d.c, d.gamma, [s], [None],
                                    [None], tau_of=lambda t, v=tau_k: v))
    return records


def first_hit_time(trace, threshold) -> float:
    """First record time with dist_primal at or below the threshold."""
    for rec in trace:
        if rec.dist_primal is not None and rec.dist_primal <= threshold:
            return rec.t
    return math.inf


@dataclass
class RateCertificate:
    """Pass/fail summary of the convergence-rate checks on one trace.

    feas_constant     -- sup over grid samples of t * ergodic_feas
    gap_bound_ok      -- averaged gap <= W0 / (2 t) + slack at every grid
                         sample whose ergodic point is feasible
    gap_bound_margin  -- min over those samples of bound - gap
    lyapunov_monotone -- descent along all consecutive trace records
    first_hit_time    -- first record time with dist_primal <= threshold
    """

    feas_constant: float
    gap_bound_ok: bool
    gap_bound_margin: float
    lyapunov_monotone: bool
    first_hit_time: float

    def flags(self) -> dict:
        return {"gap_bound_ok": self.gap_bound_ok,
                "lyapunov_monotone": self.lyapunov_monotone}

    def all_ok(self) -> bool:
        return all(self.flags().values())


def _nearest_record(trace, t):
    best = None
    best_d = math.inf
    for rec in trace:
        d = abs(rec.t - t)
        if d < best_d:
            best, best_d = rec, d
    return best


def certify_rates(trace, p: ProblemSpec, w0_norm_sq, grid=DEFAULT_GRID,
                  hit_threshold=1e-2) -> RateCertificate:
    """Evaluate the rate certificates on a finished trace.

    Grid points beyond the trace range are dropped; samples whose averaged
    point falls outside dom f x dom g (infinite gap) are skipped, not
    failed.  Lyapunov descent uses the relative slack 1e-6 (1 + V) on every
    consecutive pair of records that carry a value.
    """
    if not trace:
        raise ValueError("certify_rates needs a nonempty trace")
    t_max = trace[-1].t
    samples = [_nearest_record(trace, g) for g in grid if g <= t_max + 1e-9]

    feas_constant = 0.0
    gap_ok = True
    margin = math.inf
    for rec in samples:
        if rec.t <= 0 or rec.ergodic_feas is None:
            continue
        feas_constant = max(feas_constant, rec.t * rec.ergodic_feas)
        if rec.ergodic_gap is None or not math.isfinite(rec.ergodic_gap) \
                or w0_norm_sq is None:
            continue
        bound = w0_norm_sq / (2.0 * rec.t)
        m = bound - rec.ergodic_gap
        margin = min(margin, m)
        if m < -1e-8 * (1.0 + bound):
            gap_ok = False

    lyap_ok = True
    prev = None
    for rec in trace:
        if rec.lyapunov is None:
            continue
        if prev is not None and rec.lyapunov > prev + 1e-6 * (1.0 + prev):
            lyap_ok = False
            break
        prev = rec.lyapunov

    return RateCertificate(feas_constant=feas_constant, gap_bound_ok=gap_ok,
                           gap_bound_margin=margin, lyapunov_monotone=lyap_ok,
                           first_hit_time=first_hit_time(trace, hit_threshold))


@dataclass
class SweepRow:
    gamma: float
    tauc: float
    first_hit_time: float | None
    feas_constant: float | None = None
    gap_bound_ok: bool | None = None
    lyapunov_monotone: bool | None = None

    def missing(self) -> bool:
        return self.first_hit_time is None


@dataclass
class SweepSummary:
    """Ordered sweep report: hit-time table plus the qualitative flags."""

    rows: list
    hit_monotone_in_gamma: dict
    spread_shrinks_with_tauc: bool
    hit_threshold: float

    def all_ok(self) -> bool:
        return all(r.gap_bound_ok and r.lyapunov_monotone
                   for r in self.rows
                   if r.gap_bound_ok is not None and r.lyapunov_monotone is not None)

    def render(self) -> str:
        def fmt(v, width):
            if v is None:
                return f"{'-':>{width}}"
            if isinstance(v, bool):
                return f"{str(v):>{width}}"
            return f"{v:>{width}.6g}"

        lines = [f"sweep summary (hit threshold {self.hit_threshold:g})",
                 f"{'tau*c':>8} {'gamma':>7} {'first_hit':>12} "
                 f"{'t*erg_feas':>12} {'gap_ok':>7} {'lyap_ok':>8}"]
        for r in sorted(self.rows, key=lambda r: (-r.tauc, r.gamma)):
            lines.append(
                f"{r.tauc:>8.3g} {r.gamma:>7.3g} {fmt(r.first_hit_time, 12)} "
                f"{fmt(r.feas_constant, 12)} {fmt(r.gap_bound_ok, 7)} "
                f"{fmt(r.lyapunov_monotone, 8)}")
        for tauc in sorted(self.hit_monotone_in_gamma, reverse=True):
            lines.append(f"first-hit nonincreasing in gamma at tau*c = "
                         f"{tauc:g}: {self.hit_monotone_in_gamma[tauc]}")
        lines.append("gamma influence attenuates as tau*c shrinks: "
                     f"{self.spread_shrinks_with_tauc}")
        return "\n".join(lines)


def sweep_summary(traces, hit_threshold=1e-2, certificates=None) -> SweepSummary:
    """Aggregate a (gamma, tau*c) -> trace map into an ordered report.

    Hit times come from the traces; per-run certificate flags are attached
    when a matching (gamma, tau*c) -> RateCertificate map is supplied.
    Missing traces (None values) produce gap rows.  Reports whether the
    first-hit time is nonincreasing in gamma at each tau*c and whether the
    hit-time spread across gamma shrinks as tau*c does.
    """
    certificates = certificates or {}
    rows = []
    for (gamma, tauc), trace in traces.items():
        cert = certificates.get((gamma, tauc))
        if trace is None:
            rows.append(SweepRow(gamma=gamma, tauc=tauc, first_hit_time=None))
            continue
        hit = first_hit_time(trace, hit_threshold)
        rows.append(SweepRow(
            gamma=gamma, tauc=tauc, first_hit_time=hit,
            feas_constant=None if cert is None else cert.feas_constant,
            gap_bound_ok=None if cert is None else cert.gap_bound_ok,
            lyapunov_monotone=None if cert is None else cert.lyapunov_monotone))

    by_tauc = {}
    for r in rows:
        if not r.missing():
            by_tauc.setdefault(r.tauc, []).append(r)

    hit_monotone = {}
    spreads = {}
    for tauc, group in by_tauc.items():
        group = sorted(group, key=lambda r: r.gamma)
        hits = [r.first_hit_time for r in group]
        hit_monotone[tauc] = all(hits[i] >= hits[i + 1] - 1e-12
                                 for i in range(len(hits) - 1))
        finite = [h for h in hits if math.isfinite(h)]
        spreads[tauc] = (max(finite) - min(finite)) if len(finite) > 1 else 0.0

    taucs = sorted(spreads, reverse=True)
    shrinks = all(spreads[taucs[i]] >= spreads[taucs[i + 1]] - 1e-12
                  for i in range(len(taucs) - 1))
    return SweepSummary(rows=rows, hit_monotone_in_gamma=hit_monotone,
                        spread_shrinks_with_tauc=shrinks,
                        hit_threshold=hit_threshold)
