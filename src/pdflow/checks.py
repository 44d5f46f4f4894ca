"""Runtime invariant suite behind the `check` CLI subcommand.

Each check exercises one contract of the library on the configured problem
and parameters: operator adjoint consistency, prox regularity, the
definiteness and step-size certificates, stationarity of the dynamics at a
known saddle point, the subproblem solution map's Lipschitz bound, the
unit-step equivalence with the discrete iteration, the ergodic identity,
Lyapunov descent, and the frozen catalog solutions.  Checks that need a
known solution are skipped (reported, not failed) when the problem lacks
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import lyapunov_excess, trace_flow
from .discrete import DiscreteParams, run as discrete_run
from .errors import MissingSolutionError
from .flow import (Euler, FlowParams, SystemState, _blocks, _check_rhs_time,
                   _make_update, integrate, schedules)
from .linops import _apply_rows, _row_dots, _row_norms, psd_floor
from .metric import certify, x_update_metric
from .problems import ProblemSpec, kkt_residual
from .proxlib import metric_prox

__all__ = ["CheckResult", "run_checks", "render_report"]


@dataclass
class CheckResult:
    name: str
    status: str  # "ok" | "FAIL" | "skip"
    detail: str

    @property
    def ok(self) -> bool:
        return self.status != "FAIL"


def _result(name, passed, detail) -> CheckResult:
    return CheckResult(name, "ok" if passed else "FAIL", detail)


# The sampled checks draw each block of samples in one call, laid out so
# that they take the same numbers from the shared rng, in the same order,
# as drawing one sample (or pair) at a time.


def _check_adjoint(p: ProblemSpec, rng) -> CheckResult:
    xy = rng.standard_normal((200, p.n + p.m))
    x, y = xy[:, :p.n], xy[:, p.n:]
    lhs = _row_dots(p.A.apply(x), y)
    rhs_ = _row_dots(x, p.A.adjoint_apply(y))
    worst = float(np.max(np.abs(lhs - rhs_) / np.maximum(1.0, np.abs(lhs)),
                         initial=0.0))
    return _result("adjoint-consistency", worst <= 1e-10,
                   f"max relative defect {worst:.2e} over 200 pairs")


def _check_firm_nonexpansive(p: ProblemSpec, rng) -> CheckResult:
    worst = -np.inf
    for fn, dim in ((p.f, p.n), (p.g, p.m)):
        for tau in (0.1, 1.0, 10.0):
            # rows u_1, v_1, u_2, v_2, ...
            uv = 5.0 * rng.standard_normal((200, dim))
            puv = fn.prox(tau, uv)
            d = puv[0::2] - puv[1::2]
            viol = _row_dots(d, d) - _row_dots(d, uv[0::2] - uv[1::2])
            worst = max(worst, float(np.max(viol)))
    return _result("prox-firm-nonexpansive", worst <= 1e-10,
                   f"max violation {worst:.2e} over 600 pairs")


def _check_resolvent_identity(p: ProblemSpec, rng) -> CheckResult:
    """prox_{tau f}(u) = prox_{s f}((s/tau) u + (1 - s/tau) prox_{tau f}(u))."""
    worst = 0.0
    for fn, dim in ((p.f, p.n), (p.g, p.m)):
        tau, s = 1.0, 0.5
        u = 5.0 * rng.standard_normal((200, dim))
        v = fn.prox(tau, u)
        w = fn.prox(s, (s / tau) * u + (1.0 - s / tau) * v)
        worst = max(worst, float(np.max(_row_norms(w - v))))
    return _result("prox-resolvent-identity", worst <= 1e-10,
                   f"max defect {worst:.2e} over 400 pairs")


def _check_conditions(p: ProblemSpec, params: FlowParams) -> CheckResult:
    m1, m2 = schedules(p, params.c, params.tau, params.m1, params.m2)
    report = certify(m1, m2, params.c, params.gamma, p.A,
                     lipschitz_h=p.h.lipschitz_grad, horizon=params.horizon)
    passed = report.cweak and report.rate_condition
    return _result(
        "certified-conditions", passed,
        f"cweak={report.cweak} cstrong={report.cstrong.holds} "
        f"descent={report.thm4_psd} rate={report.rate_condition} "
        f"step_ok={report.step_size_ok}")


def _check_saddle_stationarity(p: ProblemSpec, update) -> CheckResult:
    try:
        x_star, y_star = p.require_saddle()
    except MissingSolutionError:
        return CheckResult("saddle-stationarity", "skip", "no known saddle")
    z_star = p.A.apply(x_star)
    x_new, z_new, w = _blocks(p, update, 0.0,
                              np.concatenate((x_star, z_star, y_star)))
    norm = max(np.linalg.norm(x_new - x_star), np.linalg.norm(z_new - z_star),
               np.linalg.norm(w))
    return _result("saddle-stationarity", norm <= 1e-8,
                   f"|rhs| = {norm:.2e} at the known saddle")


def _check_third_line(p: ProblemSpec, params: FlowParams, update,
                      rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        x, z, y = (rng.standard_normal(p.n), rng.standard_normal(p.m),
                   rng.standard_normal(p.m))
        x_new, z_new, w = _blocks(p, update, 0.0, np.concatenate((x, z, y)))
        u, v = x_new - x, z_new - z
        recon = params.c * (p.A.apply(u + x) - (v + z))
        worst = max(worst, float(np.linalg.norm(recon - w)))
    return _result("dual-line-consistency", worst <= 1e-12,
                   f"max defect {worst:.2e} over 20 random states")


def _check_lipschitz(p: ProblemSpec, params: FlowParams, rng) -> CheckResult:
    m1, _ = schedules(p, params.c, params.tau, params.m1, params.m2)
    metric = x_update_metric(m1, params.c, p.A, 0.0)
    alpha = psd_floor(metric, strict=False)
    if alpha <= 0:
        return _result("subproblem-lipschitz", False,
                       "x-subproblem metric has no positive floor")
    bound = params.c / alpha
    # rows a_1, b_1, a_2, b_2, ...
    ab = 3.0 * rng.standard_normal((600, p.n))
    sab = metric_prox(p.f, metric, -params.c * ab, ab, tol=1e-12)
    gap = _row_norms(ab[0::2] - ab[1::2])
    apart = gap > 1e-12
    worst = float(np.max(_row_norms(sab[0::2] - sab[1::2])[apart]
                         / gap[apart], initial=0.0))
    return _result("subproblem-lipschitz", worst <= bound + 1e-8,
                   f"max ratio {worst:.6f} vs bound c/alpha = {bound:.6f}")


def _check_euler_equivalence(p: ProblemSpec, params: FlowParams,
                             s0: SystemState) -> CheckResult:
    """Unit Euler steps against as many ADMM iterations: at most 25, and
    none past the horizon, the span over which the run's step test holds."""
    steps = min(25, math.floor(params.horizon))
    if steps == 0:
        return CheckResult("unit-step-equivalence", "skip",
                           "horizon holds no unit step")
    traj = integrate(p, replace(params, horizon=float(steps),
                                integrator=Euler(h=1.0)), s0)
    d = DiscreteParams(c=params.c, gamma=params.gamma, tau=params.tau,
                       m1=params.m1, m2=params.m2,
                       inner_tol=params.inner_tol, max_iters=steps,
                       stop_tol=-np.inf)  # all steps, even from a saddle
    out = discrete_run(p, d, s0)
    if out.U.shape != traj.U.shape:
        return _result("unit-step-equivalence", False,
                       f"{len(out.U)} discrete iterates vs {len(traj.U)} "
                       f"Euler records")
    n, m = p.n, p.m
    diff = traj.U - out.U
    scale = np.maximum(1.0, _row_norms(out.U[:, :n]))
    worst = max(float(np.max(_row_norms(diff[:, b]) / scale))
                for b in (slice(0, n), slice(n, n + m), slice(n + m, None)))
    return _result("unit-step-equivalence", worst <= 1e-12,
                   f"max relative gap {worst:.2e} over {steps} steps")


def _check_ergodic_identity(p: ProblemSpec, params: FlowParams,
                            s0: SystemState, traj) -> CheckResult:
    """A x_tilde - z_tilde = (y - y0) / (c t) as vectors at every t > 0."""
    n, m = p.n, p.m
    rows = traj.t > 0
    erg, y, t = traj.erg[rows], traj.U[rows, n + m:], traj.t[rows]
    lhs = _apply_rows(p.A.to_dense(), erg[:, :n]) - erg[:, n:]
    rhs_ = (y - s0.y) / (params.c * t[:, None])
    worst = float(np.max(_row_norms(lhs - rhs_), initial=0.0))
    return _result("ergodic-identity", worst <= 1e-8,
                   f"max defect {worst:.2e} along the trajectory")


def _check_lyapunov(p: ProblemSpec, params: FlowParams, traj) -> CheckResult:
    if p.known_primal is None or p.known_dual is None:
        return CheckResult("lyapunov-descent", "skip", "no known saddle")
    worst = lyapunov_excess(trace_flow(p, params, traj)).max(initial=-np.inf)
    return _result("lyapunov-descent", worst <= 0.0,
                   f"max slack-adjusted increase {worst:.2e}")


def _check_frozen_solution(p: ProblemSpec) -> CheckResult:
    if p.known_primal is None or p.known_dual is None:
        return CheckResult("frozen-solution-kkt", "skip", "no known solution")
    r = kkt_residual(p, p.known_primal, p.A.apply(p.known_primal), p.known_dual)
    return _result("frozen-solution-kkt", r.max() <= 1e-9,
                   f"KKT residual {r.max():.2e}")


def run_checks(p: ProblemSpec, params: FlowParams, s0: SystemState,
               seed: int = 0) -> list:
    """Run the invariant suite; returns CheckResult rows in a fixed order."""
    rng = np.random.default_rng(seed)
    results = [
        _check_adjoint(p, rng),
        _check_firm_nonexpansive(p, rng),
        _check_resolvent_identity(p, rng),
        _check_conditions(p, params),
    ]
    # the update at t = 0, certified as `flow.rhs` certifies it, built once
    _check_rhs_time(p, params, 0.0)
    update = _make_update(p, params.c, params.gamma, params.tau, params.m1,
                          params.m2, params.inner_tol)
    results += [
        _check_saddle_stationarity(p, update),
        _check_third_line(p, params, update, rng),
        _check_frozen_solution(p),
    ]
    if params.mode == "closed-form":
        results.append(_check_lipschitz(p, params, rng))
    short = replace(params, horizon=min(5.0, params.horizon))
    traj = integrate(p, short, s0)
    results.append(_check_ergodic_identity(p, short, s0, traj))
    results.append(_check_lyapunov(p, short, traj))
    results.append(_check_euler_equivalence(p, params, s0))
    return results


def render_report(results) -> str:
    lines = []
    for r in results:
        lines.append(f"{r.status:<4} {r.name}: {r.detail}")
    bad = sum(1 for r in results if not r.ok)
    lines.append(f"{len(results) - bad} of {len(results)} checks passed"
                 + (f", {bad} failed" if bad else ""))
    return "\n".join(lines)
