"""Acceptance gate: one test per acceptance criterion, each criterion
checked at its stated tolerance and reported as a single PASS/FAIL line.

Criterion 1 is split in two: the terminal radii and runtime budget pass,
while the first-hit ordering across the relaxation parameter is a known
deviation at the largest step product (the least-relaxed trajectory dips
below the hit threshold transiently and re-crosses it, which reorders the
first hits; verified against refined step sizes).  That assertion is kept
exactly as stated rather than weakened, so it fails honestly.
"""

import math
import time

import numpy as np
import pytest

from pdflow.diagnostics import (DEFAULT_GRID, certify_rates, first_hit_time,
                                initial_weighted_distance, trace_flow)
from pdflow.discrete import DiscreteParams, run
from pdflow.flow import Euler, FlowParams, RK4, SystemState, integrate
from pdflow.linops import SelfAdjointPSD, psd_floor
from pdflow.metric import (MetricSchedule, TauSchedule, certify,
                           x_update_metric)
from pdflow.problems import catalog
from pdflow.proxlib import (box, l1_norm, metric_prox, sq_distance, sq_norm,
                            zero)
from oracles import cp_step

TAUCS = (0.49, 0.25, 0.1)
GAMMAS = (0.99, 0.5, 0.01)
HORIZON = 200.0
STEP = 0.01
HIT = 1e-2
# the x, z and y blocks of a row x | z | y on example1 (n = m = 2)
X, Z, Y = slice(0, 2), slice(2, 4), slice(4, 6)


def _report(num, label, ok, detail=""):
    line = f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _start():
    return SystemState(np.array([-10.0, 10.0]), np.array([-20.0, 0.0]),
                       np.array([-10.0, 10.0]), 0.0)


@pytest.fixture(scope="module")
def sweep_runs():
    """The documented 3x3 sweep at full horizon, integrated once."""
    p = catalog("example1")
    out = {}
    for tauc in TAUCS:
        for gamma in GAMMAS:
            params = FlowParams(c=1.0, gamma=gamma,
                                tau=TauSchedule.constant(tauc),
                                horizon=HORIZON, integrator=RK4(h=STEP))
            begin = time.perf_counter()
            traj = integrate(p, params, _start())
            seconds = time.perf_counter() - begin
            trace = trace_flow(p, params, traj)
            m1 = MetricSchedule.tau_family(params.tau, 1.0, p.A)
            m2 = MetricSchedule.zero(2)
            w0 = initial_weighted_distance(p, m1, m2, 1.0, gamma, _start())
            cert = certify_rates(trace, p, w0, hit_threshold=HIT)
            out[(gamma, tauc)] = {
                "params": params, "traj": traj, "trace": trace,
                "w0": w0, "cert": cert, "seconds": seconds,
            }
    return out


class TestCriterion1:
    def test_terminal_radii_and_budget(self, sweep_runs):
        """Every run of the sweep ends inside the stated radii of the
        saddle and completes within the per-run time budget."""
        worst_x = worst_y = worst_s = 0.0
        for (gamma, tauc), data in sweep_runs.items():
            final = data["traj"].U[-1]
            nx = float(np.linalg.norm(final[X]))
            ny = float(np.linalg.norm(final[Y]))
            worst_x = max(worst_x, nx)
            worst_y = max(worst_y, ny)
            worst_s = max(worst_s, data["seconds"])
            assert nx <= 1e-3, f"|x(T)| = {nx:g} at gamma={gamma} tauc={tauc}"
            assert ny <= 1e-2, f"|y(T)| = {ny:g} at gamma={gamma} tauc={tauc}"
        _report(1, "terminal radii and runtime", worst_s <= 10.0,
                f"max |x|={worst_x:.2e} max |y|={worst_y:.2e} "
                f"max {worst_s:.1f}s/run")

    def test_first_hit_ordering(self, sweep_runs):
        """First-hit times nonincreasing in the relaxation parameter at
        each fixed step product.  Known deviation at tau*c = 0.49: the
        gamma = 0.01 run crosses the threshold early during a transient
        dip, so its first hit lands before the gamma = 0.99 one."""
        hits = {}
        ok = True
        for tauc in TAUCS:
            ordered = sorted(GAMMAS)
            times = [first_hit_time(sweep_runs[(g, tauc)]["trace"], HIT)
                     for g in ordered]
            hits[tauc] = dict(zip(ordered, times))
            ok &= all(times[i] >= times[i + 1] - 1e-12
                      for i in range(len(times) - 1))
        _report(1, "first hit nonincreasing in gamma", ok,
                "; ".join(f"tau*c={tc}: " +
                          ", ".join(f"g={g}:{t:.2f}" for g, t in hs.items())
                          for tc, hs in hits.items()))


class TestCriterion2:
    def test_lyapunov_descent(self, sweep_runs):
        """V(t_{k+1}) <= V(t_k) + 1e-6 (1 + V(t_k)) on every consecutive
        record pair of every run."""
        worst = -math.inf
        for data in sweep_runs.values():
            v = data["trace"].lyapunov
            worst = max(worst, np.max(v[1:] - v[:-1] - 1e-6 * (1.0 + v[:-1])))
        _report(2, "lyapunov descent", worst <= 0.0,
                f"worst slack excess {worst:.2e}")


class TestCriterion3:
    def test_feasibility_decay_constant(self, sweep_runs):
        """t * ergodic feasibility over [1, 200] never exceeds twice its
        value at t = 1."""
        ok = True
        detail = []
        for (gamma, tauc), data in sweep_runs.items():
            tr = data["trace"]
            keep = (tr.t >= 1.0 - 1e-9) & ~np.isnan(tr.ergodic_feas)
            scaled = tr.t[keep] * tr.ergodic_feas[keep]
            at_one = scaled[0]
            peak = scaled.max()
            if peak > 2.0 * at_one:
                ok = False
                detail.append(f"g={gamma} tc={tauc}: peak {peak:.3g} vs "
                              f"2x t=1 value {2 * at_one:.3g}")
        _report(3, "t * ergodic feasibility bounded", ok,
                "; ".join(detail) or "all runs within 2x the t=1 value")

    def test_gap_bound(self, sweep_runs):
        """Averaged objective gap <= W0 / (2t) + 1e-8 at the grid samples."""
        worst = math.inf
        ok = True
        for data in sweep_runs.items():
            (gamma, tauc), d = data
            w0 = d["w0"]
            tr = d["trace"]
            for g in DEFAULT_GRID:
                near = np.flatnonzero(np.abs(tr.t - g) < STEP / 2)
                if not near.size or np.isnan(tr.ergodic_gap[near[0]]):
                    continue
                t, gap = tr.t[near[0]], tr.ergodic_gap[near[0]]
                bound = w0 / (2.0 * t)
                worst = min(worst, bound - gap)
                ok &= gap <= bound + 1e-8
            ok &= d["cert"].gap_bound_ok
        _report(3, "ergodic gap within distance bound", ok,
                f"min margin {worst:.3g}")

    def test_feasibility_identity(self, sweep_runs):
        """||A x_avg - z_avg|| equals ||y(t) - y0|| / (c t) to 1e-8 at every
        recorded time."""
        worst = 0.0
        for d in sweep_runs.values():
            states = d["traj"].states
            y0 = states[0].y
            for e_feas, s in zip(d["trace"].ergodic_feas[1:], states[1:]):
                rhs_val = float(np.linalg.norm(s.y - y0)) / s.t
                worst = max(worst, abs(e_feas - rhs_val))
        _report(3, "dual-increment feasibility identity", worst <= 1e-8,
                f"worst deviation {worst:.2e}")


class TestCriterion4:
    def _compare(self, p, params, d, steps):
        traj = integrate(p, params, _start())
        it = run(p, d, _start())
        assert len(traj.U) == len(it.U) == steps + 1
        worst = 0.0
        for u_flow, u_disc in zip(traj.U, it.U):
            scale = max(1.0, float(np.linalg.norm(u_disc[X])),
                        float(np.linalg.norm(u_disc[Z])),
                        float(np.linalg.norm(u_disc[Y])))
            diff = max(float(np.linalg.norm(u_flow[X] - u_disc[X])),
                       float(np.linalg.norm(u_flow[Z] - u_disc[Z])),
                       float(np.linalg.norm(u_flow[Y] - u_disc[Y])))
            worst = max(worst, diff / scale)
        return worst

    def test_unit_euler_is_admm(self):
        """100 unit Euler steps coincide with 100 iterations to relative
        1e-12 in closed-form and general-metric modes."""
        p = catalog("example1")
        worst_closed = self._compare(
            p,
            FlowParams(c=1.0, gamma=0.5, tau=TauSchedule.constant(0.25),
                       horizon=100.0, integrator=Euler(h=1.0)),
            DiscreteParams(c=1.0, gamma=0.5, tau=0.25, max_iters=100,
                           stop_tol=0.0),
            100)
        m1 = MetricSchedule.constant(SelfAdjointPSD.from_dense(
            np.array([[1.2, 0.3], [0.3, 0.9]])))
        m2 = MetricSchedule.constant(SelfAdjointPSD.identity(2, 0.5))
        worst_metric = self._compare(
            p,
            FlowParams(c=1.0, gamma=1.0, m1=m1, m2=m2, inner_tol=1e-12,
                       horizon=100.0, integrator=Euler(h=1.0)),
            DiscreteParams(c=1.0, gamma=1.0, m1=m1, m2=m2, inner_tol=1e-12,
                           max_iters=100, stop_tol=0.0),
            100)
        worst = max(worst_closed, worst_metric)
        _report(4, "unit Euler equals the iteration", worst <= 1e-12,
                f"worst relative gap {worst:.2e}")


class TestCriterion5:
    def test_two_forms_and_convergence(self):
        """The two primal-dual forms agree to 1e-14 over 100 iterations:
        the dual-extrapolated step (`oracles.cp_step`) and the explicit
        three-variable form that `run(..., "cp")` iterates.  At tau = 0.25,
        c = 1 the iteration reaches KKT residual 1e-6 within 500
        iterations, converging to the origin."""
        p = catalog("example1")
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.25, max_iters=100,
                           stop_tol=0.0)
        x0, _, y0 = p.default_start()
        x, y, y_prev = x0.copy(), y0.copy(), y0.copy()
        explicit = run(p, d, algorithm="cp").U
        assert len(explicit) == 101
        worst = 0.0
        for k in range(100):
            x, y, y_prev = (*cp_step(p, d, k, x, y, y_prev), y)
            worst = max(worst, float(np.abs(explicit[k + 1, X] - x).max()),
                        float(np.abs(explicit[k + 1, Y] - y).max()))
        forms_ok = worst <= 1e-14

        d2 = DiscreteParams(c=1.0, gamma=1.0, tau=0.25, max_iters=500,
                            stop_tol=1e-6)
        out = run(p, d2, _start(), algorithm="cp")
        conv_ok = (out.stop_reason == "tolerance"
                   and out.residuals[-1].max() <= 1e-6
                   and float(np.linalg.norm(out.U[-1, X])) <= 1e-4)
        _report(5, "primal-dual forms and convergence",
                forms_ok and conv_ok,
                f"form gap {worst:.2e}, {out.iterations} iterations")


class TestCriterion6:
    _KINDS = (
        lambda: zero(3),
        lambda: sq_norm(3, coef=1.7),
        lambda: l1_norm(3, weight=0.6),
        lambda: box(3, lo=-0.5, hi=1.5),
        lambda: sq_distance(3, center=np.array([1.0, -2.0, 0.5]), coef=2.2),
    )

    def test_moreau_identity(self):
        """prox_{tau f}(u) + tau prox_{f*/tau}(u/tau) = u to 1e-12, with the
        conjugate prox evaluated independently for the l1 norm (a clip) and
        the squared norm (a rescale)."""
        rng = np.random.default_rng(1009)
        worst = 0.0
        w = 0.6
        f1 = l1_norm(4, weight=w)
        f2 = sq_norm(4, coef=1.7)
        for _ in range(1000):
            u = rng.uniform(-6.0, 6.0, 4)
            tau = float(rng.uniform(0.05, 8.0))
            lhs1 = f1.prox(tau, u) + tau * np.clip(u / tau, -w, w)
            worst = max(worst, float(np.abs(lhs1 - u).max()))
            conj2 = (u / tau) / (1.0 + 1.0 / (tau * 1.7))
            lhs2 = f2.prox(tau, u) + tau * conj2
            worst = max(worst, float(np.abs(lhs2 - u).max()))
        _report(6, "Moreau identity", worst <= 1e-12,
                f"worst residual {worst:.2e}")

    def test_firm_nonexpansiveness(self):
        """||P u - P v||^2 <= <P u - P v, u - v> over 1000 pairs per kind."""
        worst = -math.inf
        for make in self._KINDS:
            f = make()
            rng = np.random.default_rng(1013)
            for _ in range(1000):
                u = rng.uniform(-5.0, 5.0, 3)
                v = rng.uniform(-5.0, 5.0, 3)
                tau = float(rng.uniform(0.05, 5.0))
                du = f.prox(tau, u) - f.prox(tau, v)
                worst = max(worst, float(du @ du) - float(du @ (u - v)))
        _report(6, "firm nonexpansiveness", worst <= 1e-10,
                f"worst violation {worst:.2e}")

    def test_metric_prox_matches_closed_form(self):
        """With Q = I/tau the inner solver must agree with the direct prox
        to the inner tolerance plus 1e-10."""
        rng = np.random.default_rng(1019)
        tol = 1e-12
        worst = 0.0
        for f in (l1_norm(4, weight=0.8), sq_norm(4, coef=1.3),
                  box(4, lo=-1.0, hi=1.0)):
            for _ in range(100):
                lin = rng.standard_normal(4)
                tau = float(rng.uniform(0.2, 2.0))
                q = SelfAdjointPSD.identity(4, scale=1.0 / tau)
                got = metric_prox(f, q, lin, np.zeros(4), tol=tol)
                want = f.prox(tau, -tau * lin)
                worst = max(worst, float(np.abs(got - want).max()))
        _report(6, "inner solver vs closed form", worst <= tol + 1e-10,
                f"worst gap {worst:.2e}")


class TestCriterion7:
    def test_subproblem_lipschitz(self):
        """The x-subproblem solution map is c/alpha Lipschitz: 1000 random
        pairs, ratio ||S u - S u'|| / ||u - u'|| <= c/alpha + 1e-8, with
        alpha the certified floor of c A*A + M1."""
        p = catalog("example1")
        c = 1.0
        worst_excess = -math.inf
        for m1 in (MetricSchedule.tau_family(TauSchedule.constant(0.25), c,
                                             p.A),
                   MetricSchedule.constant(SelfAdjointPSD.from_dense(
                       np.array([[1.2, 0.3], [0.3, 0.9]])))):
            q = x_update_metric(m1, c, p.A, 0.0)
            alpha = q.alpha_floor
            if alpha <= 0.0:
                alpha = psd_floor(q, strict=False)
            bound = c / alpha
            rng = np.random.default_rng(1021)
            for _ in range(500):
                u = rng.uniform(-8.0, 8.0, 2)
                v = rng.uniform(-8.0, 8.0, 2)
                su = metric_prox(p.f, q, -c * u, u, tol=1e-12)
                sv = metric_prox(p.f, q, -c * v, v, tol=1e-12)
                ratio = (float(np.linalg.norm(su - sv))
                         / float(np.linalg.norm(u - v)))
                worst_excess = max(worst_excess, ratio - bound)
        _report(7, "subproblem solution map Lipschitz",
                worst_excess <= 1e-8, f"worst ratio excess {worst_excess:.2e}")


class TestCriterion8:
    def test_scalar_operator_equivalence(self):
        """On a map with A*A = 2I the scalar step inequality and the PSD
        descent certificate are equivalent; 20 random parameter tuples
        must produce identical verdicts from both routes."""
        p = catalog("example1")
        rng = np.random.default_rng(1031)
        outcomes = set()
        agree = True
        for _ in range(20):
            tau = float(rng.uniform(0.05, 1.0))
            c = float(rng.uniform(0.2, 3.0))
            gamma = float(rng.uniform(0.0, 1.0))
            lip = float(rng.uniform(0.0, 8.0))
            scalar_ok = tau * (lip / 4.0 + c * (3.0 + gamma) / 4.0 * 2.0) <= 1.0
            m1 = MetricSchedule.tau_family(TauSchedule.constant(tau), c, p.A)
            from pdflow.linops import LinearMap
            op = SelfAdjointPSD(
                m1.at(0.0).base + (c * (1.0 - gamma) / 4.0) * p.A.gram()
                - LinearMap.identity(2, lip / 4.0), 0.0)
            psd_ok = psd_floor(op, strict=False) >= -1e-10
            rep = certify(m1, MetricSchedule.zero(2), c, gamma, p.A,
                          lipschitz_h=lip)
            agree &= (scalar_ok == psd_ok == rep.thm4_psd)
            outcomes.add(psd_ok)
        both = outcomes == {True, False}
        _report(8, "scalar and operator certificates agree",
                agree and both,
                "20 tuples, both verdicts seen" if both else
                "draws did not split")
