"""Trace tables, Lyapunov values, and convergence-rate certificates.

A trace is the CSV table of one run: one float64 array per `CSV_FIELDS`
column, one row per sample (continuous time t for flow runs, iteration
index k for discrete runs), holding distances to the known saddle,
feasibility gaps, the weighted Lyapunov value, and the ergodic-average
diagnostics.  NaN marks a blank cell: a field that needs a known solution
the problem lacks, or an ergodic field at t = 0 or on a discrete run.

`certify_rates` turns a trace into the pass/fail flags the CLI reports:
Lyapunov descent along consecutive samples, the O(1/t) bound on the
averaged optimality gap, boundedness of t times the averaged feasibility
gap, and the first time the primal distance crosses a threshold.  The rate
fields are sampled on a sparse grid (default 1, 2, 5, ..., 200, clipped to
the trace); the descent check and the hit time read every record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingSolutionError
from .flow import FlowParams, FlowTrajectory, SystemState, schedules
from .linops import _apply_rows, _row_dots, _row_norms
from .metric import MetricSchedule, weight_W
from .problems import ProblemSpec

__all__ = [
    "Trace",
    "RateCertificate",
    "DEFAULT_GRID",
    "lyapunov_excess",
    "initial_weighted_distance",
    "trace_flow",
    "trace_discrete",
    "certify_rates",
    "SweepSummary",
    "sweep_summary",
    "first_hit_time",
]

DEFAULT_GRID = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)

CSV_FIELDS = ("t", "dist_primal", "dist_dual", "feas", "lyapunov",
              "ergodic_feas", "ergodic_gap")


@dataclass
class Trace:
    """The diagnostics table: each `CSV_FIELDS` column is a float64 array of
    one length R, with NaN for a blank cell; `t` is the iteration index k
    for discrete runs.  Columns left out of the constructor are blank.
    """

    t: np.ndarray
    dist_primal: np.ndarray | None = None
    dist_dual: np.ndarray | None = None
    feas: np.ndarray | None = None
    lyapunov: np.ndarray | None = None
    ergodic_feas: np.ndarray | None = None
    ergodic_gap: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        for name in CSV_FIELDS[1:]:
            col = getattr(self, name)
            col = np.full(self.t.shape, np.nan) if col is None \
                else np.asarray(col, dtype=float)
            if col.shape != self.t.shape:
                raise ValueError(f"trace column {name!r} has shape "
                                 f"{col.shape}, expected {self.t.shape}")
            setattr(self, name, col)

    def __len__(self) -> int:
        return len(self.t)


def _cuts(n, m):
    """The x, z and y slices of a state row x | z | y."""
    return slice(0, n), slice(n, n + m), slice(n + m, n + 2 * m)


def initial_weighted_distance(p: ProblemSpec, m1: MetricSchedule,
                              m2: MetricSchedule, c, gamma,
                              s0: SystemState) -> float:
    """||U0 - (x*, A x*, 0)||^2 in W(0); the numerator of the gap bound.
    Tiny negatives from roundoff are clamped to zero."""
    if p.known_primal is None:
        raise MissingSolutionError(
            f"problem {p.name!r} has no known primal solution")
    x_star = p.known_primal
    d = np.concatenate([s0.x - x_star, s0.z - p.A.apply(x_star), s0.y])
    blocks = weight_W(m1, m2, c, gamma, p.A, 0.0)
    v = float(d @ np.concatenate([block._raw_apply(d[cut]) for block, cut
                                  in zip(blocks, _cuts(p.n, p.m))]))
    if v < 0.0 and v >= -1e-12 * float(d @ d):
        return 0.0
    return v


def _moving_tau(sched: MetricSchedule, t):
    """tau(t_i) per row for a tau-family schedule that moves, else None."""
    return None if sched.is_time_invariant() else [sched.tau.value(ti)
                                                   for ti in t]


def _build_trace(p, m1, m2, c, gamma, t, U, erg=None) -> Trace:
    """The trace of states U (rows x | z | y) at times t, computed one
    column at a time.

    W(t) moves with t only through the I / tau(t) term of a tau family, so
    the Lyapunov column is one quadratic form against W(t_0) plus
    (1/tau(t_i) - 1/tau(t_0)) times the squared distance of that block.
    `erg` holds the rows x_tilde | z_tilde, NaN where t = 0.
    """
    n, m = p.n, p.m
    X, Z, Y = U[:, :n], U[:, n:n + m], U[:, n + m:]
    A = p.A.to_dense()
    x_star, y_star = p.known_primal, p.known_dual
    cols = {"t": t, "feas": _row_norms(_apply_rows(A, X) - Z)}
    if x_star is not None:
        cols["dist_primal"] = _row_norms(X - x_star)
    if y_star is not None:
        cols["dist_dual"] = _row_norms(Y - y_star)
    if x_star is not None and y_star is not None:
        D = U - np.concatenate((x_star, p.A.apply(x_star), y_star))
        W = np.zeros((n + 2 * m, n + 2 * m))
        for block, cut in zip(weight_W(m1, m2, c, gamma, p.A, t[0]),
                              _cuts(n, m)):
            W[cut, cut] = block.to_dense()
        v = _row_dots(D, _apply_rows(W, D))
        moving = ((_moving_tau(m1, t), D[:, :n]),
                  (_moving_tau(m2, t), D[:, n:n + m]))
        for tau_i, block in moving:
            if tau_i is not None:
                inv = 1.0 / np.asarray(tau_i, dtype=float)
                v += (inv - inv[0]) * _row_dots(block, block)
        # tiny negatives from roundoff are clamped, as in W0
        v[(v < 0.0) & (v >= -1e-12 * _row_dots(D, D))] = 0.0
        cols["lyapunov"] = v
    if erg is not None:
        XT, ZT = erg[:, :n], erg[:, n:]
        cols["ergodic_feas"] = _row_norms(_apply_rows(A, XT) - ZT)
        if x_star is not None:
            live = t > 0
            gap = np.full(len(t), np.nan)
            XL = XT[live]
            gap[live] = p.f(XL) + p.h(XL) + p.g(ZT[live]) - p.objective(x_star)
            cols["ergodic_gap"] = gap
    return Trace(**cols)


def trace_flow(p: ProblemSpec, params: FlowParams,
               traj: FlowTrajectory) -> Trace:
    m1, m2 = schedules(p, params.c, params.tau, params.m1, params.m2)
    return _build_trace(p, m1, m2, params.c, params.gamma,
                        traj.t, traj.U, traj.erg)


def trace_discrete(p: ProblemSpec, d, run_result) -> Trace:
    """Per-iteration trace; the time column is the iteration index k.

    Ergodic fields stay blank (averaging is a property of the continuous
    flow).  The Lyapunov weight uses the per-iteration metric at t = k.
    """
    U = run_result.U
    return _build_trace(p, *schedules(p, d.c, d.tau, d.m1, d.m2), d.c,
                        d.gamma, np.arange(len(U), dtype=float), U)


def first_hit_time(trace, threshold) -> float:
    """First record time with dist_primal at or below the threshold."""
    hits = np.flatnonzero(trace.dist_primal <= threshold)
    return float(trace.t[hits[0]]) if hits.size else math.inf


def lyapunov_excess(trace) -> np.ndarray:
    """V_{i+1} - (V_i + 1e-6 (1 + V_i)) over consecutive records that carry
    a Lyapunov value; a positive entry breaks descent."""
    v = trace.lyapunov[~np.isnan(trace.lyapunov)]
    return v[1:] - (v[:-1] + 1e-6 * (1.0 + v[:-1]))


@dataclass
class RateCertificate:
    """Pass/fail summary of the convergence-rate checks on one trace.

    feas_constant     -- sup over grid samples of t * ergodic_feas
    gap_bound_ok      -- averaged gap <= W0 / (2 t) + slack at every grid
                         sample whose ergodic point is feasible
    gap_bound_margin  -- min over those samples of bound - gap; NaN when
                         W0 is not finite, where the bound is undefined
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


def certify_rates(trace, p: ProblemSpec, w0_norm_sq, grid=DEFAULT_GRID,
                  hit_threshold=1e-2) -> RateCertificate:
    """Evaluate the rate certificates on a finished trace.

    Each grid point takes its nearest record, the earliest on a tie; grid
    points beyond the trace range are dropped.  Samples whose averaged
    point falls outside dom f x dom g (infinite gap) are skipped, not
    failed.  Lyapunov descent uses the relative slack 1e-6 (1 + V) on every
    consecutive pair of records that carry a value.  A non-finite
    w0_norm_sq fails the gap bound, with a NaN margin, and an inf Lyapunov
    value fails descent.
    """
    if not len(trace):
        raise ValueError("certify_rates needs a nonempty trace")
    grid = np.array([g for g in grid if g <= trace.t[-1] + 1e-9], dtype=float)
    rows = np.abs(trace.t - grid[:, None]).argmin(axis=1)
    t, feas, gap = (trace.t[rows], trace.ergodic_feas[rows],
                    trace.ergodic_gap[rows])
    keep = (t > 0) & ~np.isnan(feas)
    feas_constant = float(np.max(t[keep] * feas[keep], initial=0.0))
    gap_ok = w0_norm_sq is None or math.isfinite(w0_norm_sq)
    margin = math.inf
    if w0_norm_sq is not None:
        keep &= np.isfinite(gap)
        bound = w0_norm_sq / (2.0 * t[keep])
        m = bound - gap[keep]
        margin = float(np.min(m, initial=math.inf)) if gap_ok else math.nan
        gap_ok &= not np.any(m < -1e-8 * (1.0 + bound))
    descent = not (np.isinf(trace.lyapunov).any()
                   or np.any(lyapunov_excess(trace) > 0.0))

    return RateCertificate(
        feas_constant=feas_constant, gap_bound_ok=gap_ok,
        gap_bound_margin=margin, lyapunov_monotone=descent,
        first_hit_time=first_hit_time(trace, hit_threshold))


@dataclass
class SweepSummary:
    """Ordered sweep report: the (gamma, tau*c) -> RateCertificate map,
    its hit-time table and the qualitative flags."""

    certificates: dict
    hit_monotone_in_gamma: dict
    spread_shrinks_with_tauc: bool
    hit_threshold: float

    def all_ok(self) -> bool:
        return all(cert.all_ok() for cert in self.certificates.values())

    def render(self) -> str:
        def fmt(v, width):
            if isinstance(v, bool):
                return f"{str(v):>{width}}"
            return f"{v:>{width}.6g}"

        lines = [f"sweep summary (hit threshold {self.hit_threshold:g})",
                 f"{'tau*c':>8} {'gamma':>7} {'first_hit':>12} "
                 f"{'t*erg_feas':>12} {'gap_ok':>7} {'lyap_ok':>8}"]
        # largest tau*c first, gamma ascending within a block
        for gamma, tauc in sorted(self.certificates,
                                  key=lambda key: (-key[1], key[0])):
            cert = self.certificates[gamma, tauc]
            lines.append(
                f"{tauc:>8.3g} {gamma:>7.3g} {fmt(cert.first_hit_time, 12)} "
                f"{fmt(cert.feas_constant, 12)} {fmt(cert.gap_bound_ok, 7)} "
                f"{fmt(cert.lyapunov_monotone, 8)}")
        for tauc in sorted(self.hit_monotone_in_gamma, reverse=True):
            lines.append(f"first-hit nonincreasing in gamma at tau*c = "
                         f"{tauc:g}: {self.hit_monotone_in_gamma[tauc]}")
        lines.append("gamma influence attenuates as tau*c shrinks: "
                     f"{self.spread_shrinks_with_tauc}")
        return "\n".join(lines)


def sweep_summary(certificates, hit_threshold=1e-2) -> SweepSummary:
    """Aggregate a (gamma, tau*c) -> RateCertificate map into an ordered
    report.

    Hit times are the certificates' `first_hit_time`, taken by
    `certify_rates` at `hit_threshold`.  Reports whether the first-hit time
    is nonincreasing in gamma at each tau*c and whether the hit-time spread
    across gamma shrinks as tau*c does.
    """
    by_tauc = {}
    for (gamma, tauc), cert in certificates.items():
        by_tauc.setdefault(tauc, []).append((gamma, cert.first_hit_time))

    hit_monotone = {}
    spreads = {}
    for tauc, group in by_tauc.items():
        hits = [hit for _, hit in sorted(group)]
        hit_monotone[tauc] = all(hits[i] >= hits[i + 1] - 1e-12
                                 for i in range(len(hits) - 1))
        finite = [h for h in hits if math.isfinite(h)]
        spreads[tauc] = (max(finite) - min(finite)) if len(finite) > 1 else 0.0

    taucs = sorted(spreads, reverse=True)
    shrinks = all(spreads[taucs[i]] >= spreads[taucs[i + 1]] - 1e-12
                  for i in range(len(taucs) - 1))
    return SweepSummary(certificates=certificates,
                        hit_monotone_in_gamma=hit_monotone,
                        spread_shrinks_with_tauc=shrinks,
                        hit_threshold=hit_threshold)
