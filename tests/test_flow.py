"""Tests for the continuous-time dynamics and integrators.

The right-hand side is checked against values worked out by hand for the
2-d catalog problem, the integrators against each other at different step
sizes, and the ergodic averaging against its closed form for a linear
trajectory.
"""

import math
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pdflow import discrete, flow, linops, proxlib, stepmaps
from pdflow.config import load_problem, resolve_tau
from pdflow.discrete import DiscreteParams, admm_step, run as discrete_run
from pdflow.errors import (CertificationError, IntegrationError,
                           ToleranceNotMet)
from pdflow.flow import (Adaptive, Euler, FlowParams, RK4, SystemState,
                         _make_update, ergodic, integrate, rhs)
from pdflow.linops import SelfAdjointPSD
from pdflow.metric import (MetricSchedule, TauSchedule, x_update_metric,
                           z_update_metric)
from pdflow.problems import CATALOG_NAMES, ProblemSpec, catalog
from pdflow.proxlib import (SmoothFunction, box, l1_norm, metric_prox,
                            quadratic_smooth, separable, sq_distance,
                            sq_norm, zero, zero_smooth)

_PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def _closed_params(tau=0.25, gamma=0.5, c=1.0, horizon=100.0,
                   integrator=None):
    return FlowParams(c=c, gamma=gamma, tau=TauSchedule.constant(tau),
                      horizon=horizon,
                      integrator=RK4(h=0.01) if integrator is None else integrator)


def _start():
    return SystemState(np.array([-10.0, 10.0]), np.array([-20.0, 0.0]),
                       np.array([-10.0, 10.0]), 0.0)


class TestRhs:
    def test_hand_derived_value(self, example1):
        """tau = 0.25, gamma = 0.5, c = 1 at the documented start.

        By hand: A x = (-20, 0) = z so the penalty term drops, A'y = (0, 20),
        x - tau A'y = (-10, 5), and the x prox divides by 1 + tau, giving
        u = (-8, 4) - x = (2, -6).  Then x + gamma u = (-9, 7),
        A(.) + y/c = (-26, 8), soft threshold at 1 gives (-25, 7), so
        v = (-5, 7) and w = c A(u + x) - c(v + z) = (13, -11)."""
        u, v, w = rhs(example1, _closed_params(), 0.0, _start())
        np.testing.assert_allclose(u, [2.0, -6.0], atol=1e-12)
        np.testing.assert_allclose(v, [-5.0, 7.0], atol=1e-12)
        np.testing.assert_allclose(w, [13.0, -11.0], atol=1e-12)

    def test_gamma_one_matches_direct_formula(self, example1):
        """At gamma = 1 the x update reads the raw multiplier estimate
        y + c(Ax - z); evaluate that formula directly and compare."""
        params = _closed_params(tau=0.3, gamma=1.0)
        s = SystemState(np.array([1.5, -2.0]), np.array([0.5, 1.0]),
                        np.array([-1.0, 2.0]), 0.0)
        u, v, w = rhs(example1, params, 0.0, s)
        a = example1.A
        resid = s.y + params.c * (a.apply(s.x) - s.z)
        arg = s.x - 0.3 * a.adjoint_apply(resid)
        u_direct = arg / (1.0 + 0.3) - s.x
        np.testing.assert_allclose(u, u_direct, atol=1e-13)

    def test_zero_at_saddle(self, example1):
        s = SystemState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
        u, v, w = rhs(example1, _closed_params(), 0.0, s)
        assert max(np.abs(u).max(), np.abs(v).max(), np.abs(w).max()) <= 1e-10

    def test_third_line_consistency(self, example1):
        """w must equal c A(u + x) - c(v + z) exactly as evaluated."""
        rng = np.random.default_rng(131)
        params = _closed_params(tau=0.4, gamma=0.7)
        for _ in range(20):
            s = SystemState(rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2),
                            rng.uniform(-5, 5, 2), 0.0)
            u, v, w = rhs(example1, params, 0.0, s)
            rebuilt = params.c * (example1.A.apply(u + s.x) - (v + s.z))
            np.testing.assert_allclose(w, rebuilt, rtol=0, atol=1e-14)

    def test_general_metric_matches_closed_form(self, example1):
        """Passing M1(t) = I/tau - c A*A through the general-metric solver
        must reproduce the closed-form right-hand side."""
        tau = TauSchedule.constant(0.25)
        closed = _closed_params()
        general = FlowParams(c=1.0, gamma=0.5,
                             m1=MetricSchedule.tau_family(tau, 1.0, example1.A),
                             inner_tol=1e-13, horizon=100.0)
        rng = np.random.default_rng(137)
        for _ in range(10):
            s = SystemState(rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2),
                            rng.uniform(-3, 3, 2), 0.0)
            uc, vc, wc = rhs(example1, closed, 0.0, s)
            ug, vg, wg = rhs(example1, general, 0.0, s)
            np.testing.assert_allclose(ug, uc, atol=1e-9)
            np.testing.assert_allclose(vg, vc, atol=1e-9)
            np.testing.assert_allclose(wg, wc, atol=1e-9)

    def test_oversized_step_rejected(self, example1):
        params = _closed_params(tau=0.6)
        with pytest.raises(CertificationError):
            rhs(example1, params, 0.0, _start())

    @pytest.mark.parametrize("mode", ["closed-form", "general-metric"])
    def test_nonpositive_step_rejected(self, example1, mode):
        """Before t = 0 a saturating step falls below zero: tau(-5) =
        0.2 - 0.15 e^5 < 0, which the update's raw prox must never see."""
        tau = TauSchedule.saturating(0.05, 0.2)
        if mode == "closed-form":
            params = FlowParams(c=1.0, gamma=0.5, tau=tau)
        else:
            params = FlowParams(c=1.0, gamma=0.5, m1=MetricSchedule.tau_family(
                tau, 1.0, example1.A))
        with pytest.raises(ValueError, match="tau must be positive"):
            rhs(example1, params, -5.0, _start())


class TestFlowParams:
    def test_gamma_range(self):
        with pytest.raises(ValueError, match="gamma must lie"):
            FlowParams(gamma=1.5, tau=TauSchedule.constant(0.2))

    def test_mode_exclusivity(self):
        with pytest.raises(ValueError):
            FlowParams()
        with pytest.raises(ValueError):
            FlowParams(tau=TauSchedule.constant(0.2),
                       m1=MetricSchedule.zero(2))

    def test_positive_c_and_horizon(self):
        with pytest.raises(ValueError):
            FlowParams(c=0.0, tau=TauSchedule.constant(0.2))
        with pytest.raises(ValueError):
            FlowParams(tau=TauSchedule.constant(0.2), horizon=0.0)
        with pytest.raises(ValueError, match="horizon must be finite"):
            FlowParams(tau=TauSchedule.constant(0.2), horizon=np.inf)

    def test_mode_names(self):
        assert _closed_params().mode == "closed-form"
        m = FlowParams(m1=MetricSchedule.zero(2))
        assert m.mode == "general-metric"


class TestAdaptiveParams:
    # Integrating these would hang (h0 = 0) or pass NaN-error trials (zero
    # tolerances), so the tests only construct them.
    @pytest.mark.parametrize("kwargs", [
        dict(h0=0.0), dict(h0=-0.01), dict(h_min=0.0), dict(h_min=2.0),
        dict(h_max=1e-9), dict(abs_tol=0.0), dict(abs_tol=0.0, rel_tol=0.0),
        dict(rel_tol=-1e-6), dict(rel_tol=float("nan"))],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            Adaptive(**kwargs)

    def test_boundary_values_accepted(self):
        Adaptive(rel_tol=0.0, h_min=0.5, h_max=0.5, h0=2.0)


class TestErgodicAverage:
    def test_constant_trajectory(self):
        s0 = SystemState(np.array([2.0, -1.0]), np.array([1.0, 1.0]),
                         np.zeros(2), 0.0)
        v0 = np.concatenate((s0.x, s0.z))
        avg = ergodic(5.0, v0, v0, v0 * 5.0)
        np.testing.assert_allclose(avg[:2], s0.x, atol=1e-14)
        np.testing.assert_allclose(avg[2:], s0.z, atol=1e-14)

    def test_linear_trajectory_closed_form(self):
        """For x(s) = s d the average of (xdot + x) over [0, t] is
        d + t d / 2; feed the exact integrals and check the formula."""
        d = np.array([3.0, -2.0])
        t = 4.0
        x_tilde = ergodic(t, t * d, np.zeros(2), 0.5 * t ** 2 * d)
        np.testing.assert_allclose(x_tilde, d + 0.5 * t * d, atol=1e-14)

    def test_requires_positive_time(self):
        s0 = _start()
        v0 = np.concatenate((s0.x, s0.z))
        with pytest.raises(ValueError):
            ergodic(s0.t, v0, v0, np.zeros(4))


def _dense_m2_case(p):
    """lasso-small at c = 1: M1 = 0.5 I and a dense diagonal M2."""
    m2_mat = np.diag(np.linspace(0.2, 1.0, p.m))
    return 1.0, MetricSchedule.constant(
        SelfAdjointPSD.identity(p.n, 0.5)), MetricSchedule.constant(
        SelfAdjointPSD.from_dense(m2_mat, alpha_floor=0.2))


def _tau_family_m2_case(p):
    """example1 at c = 2: tau-family M1, and a tau-family M2(t) coupled at
    c = 2 on A*, whose z-metric moves with t."""
    return 2.0, MetricSchedule.tau_family(
        TauSchedule.saturating(0.05, 0.2), 2.0, p.A), \
        MetricSchedule.tau_family(TauSchedule.saturating(0.1, 0.45), 2.0,
                                  p.A.T)


class TestIntegrate:
    def test_saddle_is_stationary(self, example1):
        s0 = SystemState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
        traj = integrate(example1, _closed_params(horizon=5.0), s0)
        n, m = example1.n, example1.m
        final = traj.U[-1]
        assert np.abs(final[:n]).max() <= 1e-10
        assert np.abs(final[n + m:]).max() <= 1e-10

    def test_default_start_is_problem_start(self, example1):
        traj = integrate(example1, _closed_params(horizon=0.5,
                                                  integrator=RK4(h=0.05)))
        first = traj.states[0]
        np.testing.assert_array_equal(first.x, [-10.0, 10.0])
        np.testing.assert_array_equal(first.z, [-20.0, 0.0])

    def test_converges_to_saddle(self, example1):
        """The long-horizon run must land within the documented radii of
        the origin saddle."""
        traj = integrate(example1, _closed_params(horizon=100.0), _start())
        n, m = example1.n, example1.m
        final = traj.U[-1]
        assert float(np.linalg.norm(final[:n])) <= 1e-3
        assert float(np.linalg.norm(final[n + m:])) <= 1e-2
        assert traj.stop_reason == "horizon"

    def test_rk4_step_size_refinement(self, example1):
        """Halving the step several times must not move the endpoint by
        more than the fourth-order error estimate allows."""
        params_a = _closed_params(horizon=10.0, integrator=RK4(h=0.02))
        params_b = _closed_params(horizon=10.0, integrator=RK4(h=0.004))
        n, m = example1.n, example1.m
        fa = integrate(example1, params_a, _start()).U[-1]
        fb = integrate(example1, params_b, _start()).U[-1]
        assert float(np.linalg.norm(fa[:n] - fb[:n])) <= 1e-7
        assert float(np.linalg.norm(fa[n + m:] - fb[n + m:])) <= 1e-7

    def test_euler_first_order_convergence(self, example1):
        """Euler endpoint error must shrink roughly linearly in h."""
        n, m = example1.n, example1.m
        ref = integrate(example1, _closed_params(
            horizon=5.0, integrator=RK4(h=0.002)), _start()).U[-1]
        errs = []
        for h in (0.04, 0.02, 0.01):
            fin = integrate(example1, _closed_params(
                horizon=5.0, integrator=Euler(h=h)), _start()).U[-1]
            errs.append(float(np.linalg.norm(fin[:n] - ref[:n])
                              + np.linalg.norm(fin[n + m:] - ref[n + m:])))
        assert errs[0] > errs[1] > errs[2]
        ratio = errs[0] / errs[2]
        assert 2.0 <= ratio <= 8.0, f"expected first-order decay, got {ratio}"

    def test_adaptive_matches_fixed_step(self, example1):
        params_ref = _closed_params(horizon=20.0, integrator=RK4(h=0.005))
        params_ad = _closed_params(horizon=20.0,
                                   integrator=Adaptive(rel_tol=1e-8,
                                                       abs_tol=1e-10))
        n, m = example1.n, example1.m
        ref = integrate(example1, params_ref, _start()).U[-1]
        ada = integrate(example1, params_ad, _start())
        assert ada.stop_reason == "horizon"
        assert ada.t[-1] == pytest.approx(20.0, abs=1e-9)
        assert float(np.linalg.norm(ada.U[-1, :n] - ref[:n])) <= 1e-6
        assert float(np.linalg.norm(ada.U[-1, n + m:] - ref[n + m:])) <= 1e-5

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("mode", ["closed-form", "general-metric"])
    def test_adaptive_rejections_keep_ergodic_identity(self, name, mode):
        """A too-large first step forces rejected trials; a rejection must
        leave the running integrals untouched, so the identity
        A x~ - z~ = (y - y0) / (c t) still holds at every record."""
        p = catalog(name)
        c = 1.0
        if mode == "closed-form":
            params = FlowParams(c=c, gamma=0.5, tau=TauSchedule.constant(
                0.9 / linops.operator_norm(p.A) ** 2), horizon=5.0,
                integrator=Adaptive(rel_tol=1e-8, h0=1.0))
        else:
            params = FlowParams(
                c=c, gamma=0.5, horizon=5.0,
                m1=MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5)),
                m2=MetricSchedule.constant(SelfAdjointPSD.identity(p.m, 0.5)),
                integrator=Adaptive(rel_tol=1e-8, h0=1.0))
        x0, z0, y0 = p.default_start()
        traj = integrate(p, params, SystemState(x0, z0, y0, 0.0))
        # one k1, then 6 rhs evals per trial (FSAL), so rejections add more
        assert traj.rhs_evals > 1 + 6 * (len(traj.states) - 1), "no rejection"
        for s, xt, zt in zip(traj.states[1:], traj.ergodic_x[1:],
                             traj.ergodic_z[1:]):
            defect = p.A.apply(xt) - zt - (s.y - y0) / (c * s.t)
            assert float(np.abs(defect).max()) <= 1e-8

    @pytest.mark.parametrize("name,case", [
        ("lasso-small", _dense_m2_case), ("example1", _tau_family_m2_case)],
        ids=["dense-m2", "tau-family-m2"])
    def test_general_metric_operator_norms_do_not_grow_with_evals(
            self, operator_norm_calls, name, case):
        """Subproblem metrics carry the norm of the eigensolve that builds
        them, once per run or, for a moving M2(t), once per z-update, so the
        number of `operator_norm` calls does not scale with rhs
        evaluations."""
        calls = operator_norm_calls
        counts = []
        for horizon in (0.5, 2.0):
            p = catalog(name)  # fresh: ||A|| is cached on the map
            c, m1, m2 = case(p)
            params = FlowParams(c=c, gamma=0.5, horizon=horizon, m1=m1, m2=m2,
                                integrator=RK4(h=0.1))
            calls.clear()
            traj = integrate(p, params)
            counts.append((len(calls), traj.rhs_evals))
        assert counts[1][1] == 4 * counts[0][1]
        assert counts[0][0] == counts[1][0]

    @pytest.mark.parametrize("integrator,evals", [(Euler(h=0.01), 100),
                                                   (RK4(h=0.01), 400)],
                             ids=["euler", "rk4"])
    def test_rhs_eval_count(self, example1, integrator, evals):
        traj = integrate(example1, _closed_params(
            horizon=1.0, integrator=integrator), _start())
        assert traj.rhs_evals == evals

    @pytest.mark.parametrize("integrator,stages", [(Euler(h=0.3), 1),
                                                    (RK4(h=0.3), 4)],
                             ids=["euler", "rk4"])
    def test_step_not_dividing_horizon(self, example1, integrator, stages):
        """h = 0.3 leaves a remainder of 0.1 on T = 1: three full steps at
        k h, then one clipped step that ends on the horizon."""
        traj = integrate(example1, _closed_params(
            horizon=1.0, integrator=integrator), _start())
        assert [s.t for s in traj.states] == [k * 0.3 for k in range(4)] + [1.0]
        assert traj.rhs_evals == stages * 4
        y0 = _start().y
        for s, xt, zt in zip(traj.states[1:], traj.ergodic_x[1:],
                             traj.ergodic_z[1:]):
            defect = example1.A.apply(xt) - zt - (s.y - y0) / s.t
            assert float(np.abs(defect).max()) <= 1e-8
        # the clipped step equals that step taken alone from the t = 0.9
        # state (tau is constant, so the system is autonomous)
        last = 1.0 - 3 * 0.3
        alone = integrate(example1, _closed_params(
            horizon=last, integrator=type(integrator)(h=last)), traj.states[3])
        np.testing.assert_allclose(alone.U[-1], traj.U[-1], rtol=0.0,
                                   atol=1e-14)

    @pytest.mark.parametrize("integrator", [Euler(h=5.0), RK4(h=5.0)],
                             ids=["euler", "rk4"])
    def test_unstable_step_raises(self, example1, integrator):
        """A step far past the stability region overflows the state, and
        the run stops with IntegrationError instead of recording inf/nan."""
        params = _closed_params(horizon=5000.0, integrator=integrator)
        with np.errstate(all="ignore"), \
                pytest.raises(IntegrationError, match="non-finite state"):
            integrate(example1, params, _start())

    @pytest.mark.parametrize("integrator", [Euler, RK4])
    @pytest.mark.parametrize("h", [float("inf"), float("nan"), 0.0])
    def test_step_must_be_positive_and_finite(self, example1, integrator, h):
        """An infinite step makes the step count NaN and used to return the
        start alone, with no rhs evaluation."""
        params = _closed_params(horizon=5.0, integrator=integrator(h=h))
        with pytest.raises(ValueError, match="positive and finite"):
            integrate(example1, params, _start())

    def test_adaptive_fsal_cost(self, example1):
        """With every trial accepted, a step costs 6 rhs evals: its first
        stage is the previous step's last (FSAL)."""
        traj = integrate(example1, _closed_params(
            horizon=1.0, integrator=Adaptive(h0=0.01, h_max=0.01)), _start())
        accepted = len(traj.states) - 1
        assert accepted == 100
        assert traj.rhs_evals == 1 + 6 * accepted

    def test_record_every_subsamples(self, example1):
        full = integrate(example1, _closed_params(
            horizon=1.0, integrator=RK4(h=0.01)), _start())
        thin = integrate(example1, _closed_params(
            horizon=1.0, integrator=RK4(h=0.01)), _start(), record_every=10)
        assert len(full.states) == 101
        assert len(thin.states) == 11
        n, m = example1.n, example1.m
        np.testing.assert_array_equal(thin.U[-1, :n], full.U[-1, :n])
        np.testing.assert_array_equal(thin.U[-1, n + m:], full.U[-1, n + m:])
        assert thin.states[1].t == pytest.approx(0.1)

    def test_initial_record_has_no_average(self, example1):
        traj = integrate(example1, _closed_params(
            horizon=0.1, integrator=RK4(h=0.05)), _start())
        assert traj.ergodic_x[0] is None
        assert traj.ergodic_z[0] is None
        assert traj.ergodic_x[-1] is not None

    def test_wrong_dimensions_rejected(self, example1):
        s0 = SystemState(np.zeros(3), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(ValueError):
            integrate(example1, _closed_params(horizon=1.0), s0)

    @pytest.mark.parametrize("record_every", [0, -1])
    def test_record_every_must_be_positive(self, example1, record_every):
        with pytest.raises(ValueError, match="record_every"):
            integrate(example1, _closed_params(horizon=1.0), _start(),
                      record_every=record_every)

    def test_certificate_gate_runs_before_stepping(self, example1):
        params = _closed_params(tau=0.8, horizon=1.0)
        with pytest.raises(CertificationError):
            integrate(example1, params, _start())

    def test_general_metric_trajectory_matches_closed_form(self, example1):
        """Full integration agreement between the two modes on a short
        horizon, step-family metric on one side."""
        tau = TauSchedule.constant(0.25)
        closed = _closed_params(horizon=5.0, integrator=RK4(h=0.02))
        general = FlowParams(c=1.0, gamma=0.5,
                             m1=MetricSchedule.tau_family(tau, 1.0, example1.A),
                             inner_tol=1e-12, horizon=5.0,
                             integrator=RK4(h=0.02))
        n, m = example1.n, example1.m
        fc = integrate(example1, closed, _start()).U[-1]
        fg = integrate(example1, general, _start()).U[-1]
        assert float(np.linalg.norm(fc[:n] - fg[:n])) <= 1e-7
        assert float(np.linalg.norm(fc[n + m:] - fg[n + m:])) <= 1e-7

    def test_general_metric_requires_positive_floor(self):
        """With a rank-deficient A and no metric, c A*A + M1 is singular and
        the certificate gate must refuse to integrate."""
        from pdflow import proxlib
        from pdflow.linops import LinearMap
        from pdflow.problems import ProblemSpec

        p = ProblemSpec(name="degenerate", f=proxlib.zero(2),
                        h=proxlib.zero_smooth(2), g=proxlib.zero(1),
                        A=LinearMap.from_dense([[1.0, 0.0]]))
        bad = FlowParams(c=1.0, gamma=1.0, m1=MetricSchedule.zero(2),
                         horizon=1.0)
        s0 = SystemState(np.zeros(2), np.zeros(1), np.zeros(1), 0.0)
        with pytest.raises(CertificationError):
            integrate(p, bad, s0)

    def test_constant_metric_mode_runs(self, example1):
        """A plain constant metric (not from the step family) integrates
        and still drives the state toward the saddle."""
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(2, 2.0))
        params = FlowParams(c=1.0, gamma=1.0, m1=m1, horizon=30.0,
                            integrator=RK4(h=0.02), inner_tol=1e-11)
        traj = integrate(example1, params, _start())
        assert float(np.linalg.norm(traj.U[-1, :example1.n])) <= 1e-2


class TestColumnarTrajectory:
    """A trajectory is t (R,), U (R, n + 2m) with rows x | z | y, and erg
    (R, n + m) with rows x_tilde | z_tilde; the per-record views agree with
    the rows."""

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize("mode", ["closed-form", "general-metric"])
    @pytest.mark.parametrize("integrator", [Euler(h=0.1), RK4(h=0.1),
                                            Adaptive(h0=0.1)],
                             ids=["euler", "rk4", "adaptive"])
    def test_rows_and_views(self, integrator, mode, record_every):
        p = catalog("lasso-small")
        n, m = p.n, p.m
        if mode == "closed-form":
            params = FlowParams(c=1.0, gamma=0.5, tau=TauSchedule.constant(
                0.9 / linops.operator_norm(p.A) ** 2), horizon=2.0,
                integrator=integrator)
        else:
            params = FlowParams(
                c=1.0, gamma=0.5, horizon=2.0,
                m1=MetricSchedule.constant(SelfAdjointPSD.identity(n, 0.5)),
                integrator=integrator)
        traj = integrate(p, params, record_every=record_every)
        R = len(traj.t)
        if not isinstance(integrator, Adaptive):
            # 20 steps: all of them, or steps 3, 6, ..., 18 and the last
            assert R == (21 if record_every == 1 else 8)
        assert traj.U.shape == (R, n + 2 * m)
        assert traj.erg.shape == (R, n + m)
        assert traj.t[0] == 0.0 and traj.t[-1] == pytest.approx(2.0)
        assert np.isnan(traj.erg[0]).all()
        assert np.isfinite(traj.erg[1:]).all()
        states = traj.states
        assert len(states) == len(traj.ergodic_x) == len(traj.ergodic_z) == R
        for i, s in enumerate(states):
            assert s.t == traj.t[i]
            np.testing.assert_array_equal(np.concatenate((s.x, s.z, s.y)),
                                          traj.U[i])
            xt, zt = traj.ergodic_x[i], traj.ergodic_z[i]
            if i == 0:
                assert xt is None and zt is None
            else:
                np.testing.assert_array_equal(np.concatenate((xt, zt)),
                                              traj.erg[i])
        np.testing.assert_array_equal(states[-1].x, traj.U[-1, :n])
        assert states[-1].t == traj.t[-1]



def _reference_update(p, c, gamma, tau, m1, m2, tol):
    """The proximal ADMM update as separate per-block formulas, each affine
    term its own map application: (t, x, z, y) -> (x_new, z_new, w)."""
    a_apply, a_adjoint = p.A._raw_apply, p.A._raw_adjoint
    h_grad = None if p.h.is_zero else p.h.grad

    def update(t, x, z, y):
        if m1 is None:
            tau_t = tau.value(t)
            arg = x - tau_t * a_adjoint(y + c * (a_apply(x) - z))
            if h_grad is not None:
                arg = arg - tau_t * h_grad(x)
            x_new = p.f.prox(tau_t, arg)
        else:
            lin = -(m1.at(t).base._raw_apply(x) + a_adjoint(c * z - y))
            if h_grad is not None:
                lin = lin + h_grad(x)
            x_new = metric_prox(p.f, x_update_metric(m1, c, p.A, t), lin, x,
                                tol=tol)
        ax_bar = a_apply(x + gamma * (x_new - x))
        if m2 is None:
            z_new = p.g.prox(1.0 / c, ax_bar + y / c)
        else:
            lin = -(m2.at(t).base._raw_apply(z) + c * ax_bar + y)
            z_new = metric_prox(p.g, z_update_metric(m2, c, t), lin, z,
                                tol=tol)
        return x_new, z_new, c * (a_apply(x_new) - z_new)

    return update


def _three_blocks(p, *args):
    """`_make_update(p, *args)` as (t, s) -> (x_new, z_new, w)."""
    update = _make_update(p, *args)
    return lambda t, s: flow._blocks(p, update, t, s)


def _dense_pd(dim, seed):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((dim, dim)) / np.sqrt(dim)
    return SelfAdjointPSD.from_dense(b @ b.T + 0.3 * np.eye(dim),
                                     alpha_floor=0.3)


def _update_cases(p, gamma):
    """(tau, m1, m2) per metric case; tau is None when m1 is given."""
    const = MetricSchedule.constant
    return {
        "auto": (resolve_tau("auto", p, 1.0, gamma), None, None),
        "saturating": (TauSchedule.saturating(0.05, 0.2), None, None),
        "const-0.5I": (None, const(SelfAdjointPSD.identity(p.n, 0.5)),
                       const(SelfAdjointPSD.identity(p.m, 0.5))),
        "dense-m1": (None, const(_dense_pd(p.n, 5)), None),
        "dense-m2": (TauSchedule.saturating(0.05, 0.2), None,
                     const(_dense_pd(p.m, 6))),
    }


def _closure_problem(n, m):
    """A closure-built A (no stored matrix) and a softplus h, whose gradient
    the update adds on its own."""
    rng = np.random.default_rng(17)
    mat = rng.standard_normal((m, n)) / np.sqrt(m)
    A = linops.LinearMap(n, m, lambda x: mat @ x, lambda y: mat.T @ y)
    h = SmoothFunction(n, lambda x: float(np.logaddexp(0.0, x).sum()),
                       lambda x: 0.5 * (1.0 + np.tanh(0.5 * x)), 0.25)
    return ProblemSpec(f"closure-{n}x{m}", l1_norm(n, 0.1), h,
                       sq_distance(m, rng.standard_normal(m)), A)


class TestAffineUpdate:
    """The update built from H s and B x_new matches the per-block
    formulas to 1e-13 relative, block by block."""

    @staticmethod
    def _assert_matches(p, c, gamma, tau, m1, m2, seed):
        new = _three_blocks(p, c, gamma, tau, m1, m2, 1e-12)
        ref = _reference_update(p, c, gamma, tau, m1, m2, 1e-12)
        rng = np.random.default_rng(seed)
        for t in (0.0, 0.7, 3.0):
            for _ in range(4):
                s = 3.0 * rng.standard_normal(p.n + 2 * p.m)
                got = new(t, s)
                want = ref(t, s[:p.n], s[p.n:p.n + p.m], s[p.n + p.m:])
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    gap = np.linalg.norm(g - w) / max(1.0, np.linalg.norm(w))
                    assert gap <= 1e-13

    @pytest.mark.parametrize("case", ["auto", "auto-unfolded", "saturating",
                                      "const-0.5I", "dense-m1", "dense-m2"])
    @pytest.mark.parametrize("gamma", [1.0, 0.5, 0.01])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog(self, name, gamma, case, monkeypatch):
        """The case "auto-unfolded" hides the affine forms of f and g, so
        the constant-step kernel makes both proxes."""
        p = catalog(name)
        if case == "auto-unfolded":
            case = "auto"
            for fn in (p.f, p.g):
                monkeypatch.setattr(fn, "affine", None)
        tau, m1, m2 = _update_cases(p, gamma)[case]
        self._assert_matches(p, 1.0, gamma, tau, m1, m2, seed=3)

    def test_tau_family_m1_and_m2(self, example1):
        """Tau-family schedules on both blocks, at c = 2: M1(t) is one prox,
        M2(t) moves with t."""
        tau = TauSchedule.saturating(0.05, 0.2)
        m1 = MetricSchedule.tau_family(tau, 2.0, example1.A)
        m2 = MetricSchedule.tau_family(TauSchedule.saturating(0.1, 0.45), 2.0,
                                       example1.A)
        self._assert_matches(example1, 2.0, 0.5, None, m1, m2, seed=4)

    @pytest.mark.parametrize("n,m,case", [
        (n, m, case)
        for n, m in [(3, 4), (10, 60), (130, 5)]
        for case in ["auto", "saturating", "const-0.5I", "dense-m1",
                     "foreign-tau-family"]])
    def test_closure_map_and_custom_h(self, n, m, case):
        p = _closure_problem(n, m)
        assert p.A.mat is None and p.h.P is None
        if case == "foreign-tau-family":
            # M1 coupled at the run's c = 1.5 and A, M2 a tau family coupled
            # at c = 2 on A*, which `metric_prox` solves at each t; steps
            # scaled by ||A||^2 keep both metrics positive
            a2 = p.A.norm() ** 2
            tau, m1, m2 = None, MetricSchedule.tau_family(
                TauSchedule.saturating(0.05 / a2, 0.2 / a2), 1.5, p.A), \
                MetricSchedule.tau_family(TauSchedule.constant(0.1 / a2), 2.0,
                                          p.A.T)
        else:
            tau, m1, m2 = _update_cases(p, 0.5)[case]
        self._assert_matches(p, 1.5, 0.5, tau, m1, m2, seed=5)

    @pytest.mark.parametrize("case", ["auto", "saturating", "const-0.5I",
                                      "dense-m1", "dense-m2"])
    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    @pytest.mark.parametrize("name", ["wide-lasso", "wide-identity",
                                      "wide-quadratic"])
    def test_wide_problems(self, name, gamma, case):
        """Problems past the dense limit, whose H and B apply A lazily: the
        two problem files (a dense and a scaled-identity A) and a quadratic
        h, whose P the lazy x rows apply and whose q the update adds."""
        if name == "wide-quadratic":
            rng = np.random.default_rng(23)
            n, m = 40, 50
            b = rng.standard_normal((n, n)) / np.sqrt(n)
            p = ProblemSpec(name, l1_norm(n, 0.1),
                            quadratic_smooth(b @ b.T, rng.standard_normal(n)),
                            sq_distance(m, rng.standard_normal(m)),
                            linops.LinearMap.from_dense(
                                rng.standard_normal((m, n)) / np.sqrt(m)))
        else:
            p = load_problem(os.path.join(_PROBLEMS, name + ".txt"))
        assert p.n + 2 * p.m > linops._DENSE_LIMIT
        tau, m1, m2 = _update_cases(p, gamma)[case]
        self._assert_matches(p, 1.0, gamma, tau, m1, m2, seed=6)


class TestTauFamilyXStep:
    """A tau-family M1(t) = I / tau(t) - c A* A is coupled at the run's c
    and A, where it cancels the c A* A of the augmented term and leaves the
    x-subproblem one prox; any other coupling is refused.  Given as tau or
    as m1, the x-step takes the step test c tau(t) ||A||^2 <= 1."""

    @pytest.mark.parametrize("case", ["auto", "saturating"])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_x_step_solves_the_exact_subproblem(self, name, case):
        """x_new is `metric_prox` in the dense Q = c A* A + M1(t), with
        M1(t) built as a matrix: unlike `_reference_update`, the oracle
        takes no I / tau(t) shortcut from `x_update_metric`."""
        p = catalog(name)
        c, gamma = 1.5, 0.5
        tau = resolve_tau("auto", p, c, gamma) if case == "auto" \
            else TauSchedule.saturating(0.05, 0.2)
        update = _three_blocks(p, c, gamma, tau, None, None, 1e-12)
        mat = p.A.to_dense()
        ata = c * (mat.T @ mat)
        rng = np.random.default_rng(19)
        for t in (0.0, 0.7, 3.0):
            m1_t = np.eye(p.n) / tau.value(t) - ata
            q_mat = ata + m1_t
            q = SelfAdjointPSD.from_dense(q_mat, np.linalg.eigvalsh(q_mat)[0])
            for _ in range(4):
                s = 3.0 * rng.standard_normal(p.n + 2 * p.m)
                x, z, y = s[:p.n], s[p.n:p.n + p.m], s[p.n + p.m:]
                lin = mat.T @ (y - c * z) - m1_t @ x
                if not p.h.is_zero:
                    lin = lin + p.h.grad(x)
                want = metric_prox(p.f, q, lin, x, tol=1e-14)
                assert _rel_gap(update(t, s)[0], want) <= 1e-12

    @pytest.mark.parametrize("entry", ["integrate", "rhs", "run", "admm_step"])
    @pytest.mark.parametrize("coupling", ["c", "A"])
    def test_foreign_coupling_is_refused(self, example1, coupling, entry):
        """Coupled at c = 2 for a run at c = 1, or at an equal copy of A,
        the tau family no longer cancels the augmented term."""
        tau = TauSchedule.constant(0.2)
        if coupling == "c":
            m1 = MetricSchedule.tau_family(tau, 2.0, example1.A)
        else:
            m1 = MetricSchedule.tau_family(tau, 1.0, linops.LinearMap.from_dense(
                example1.A.to_dense()))
        flow_params = FlowParams(c=1.0, gamma=0.5, m1=m1, horizon=1.0)
        steps = DiscreteParams(c=1.0, gamma=0.5, m1=m1, max_iters=3)
        calls = {
            "integrate": lambda: integrate(example1, flow_params, _start()),
            "rhs": lambda: rhs(example1, flow_params, 0.0, _start()),
            "run": lambda: discrete_run(example1, steps, _start()),
            "admm_step": lambda: admm_step(example1, steps, 0, _start()),
        }
        with pytest.raises(ValueError, match="coupled at the run's c and A"):
            calls[entry]()

    def test_tau_family_m1_takes_the_step_test(self, example1):
        """c tau ||A||^2 = 3 is refused with one message whether the step
        is given as tau or as a tau-family m1."""
        tau = TauSchedule.constant(3.0 / example1.A.norm() ** 2)
        forms = [FlowParams(c=1.0, tau=tau),
                 FlowParams(c=1.0, m1=MetricSchedule.tau_family(
                     tau, 1.0, example1.A))]
        for call in (lambda params: integrate(example1, params, _start()),
                     lambda params: rhs(example1, params, 0.0, _start())):
            messages = []
            for params in forms:
                with pytest.raises(CertificationError) as info:
                    call(params)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
        assert messages[0] == "closed-form mode needs c tau(t) ||A||^2 <= 1"
        with pytest.raises(CertificationError,
                           match=r"\(worst sampled value 3\)$"):
            integrate(example1, forms[1], _start())

    def test_step_test_peaks_at_the_horizon(self):
        """tau(t) is nondecreasing in floating point too: the largest of
        c tau(t) ||A||^2 over 65 points of [0, T] is its value at T, bit
        for bit, so `_check_certificates` evaluates it there once."""
        rng = np.random.default_rng(29)
        for _ in range(2000):
            tau0 = float(rng.uniform(1e-3, 1.0))
            sched = TauSchedule.saturating(tau0, tau0 * rng.uniform(1.0, 5.0))
            horizon = float(rng.uniform(1e-3, 200.0))
            c, a_sq = rng.uniform(0.1, 3.0, 2)
            scan = max(c * sched.value(t) * a_sq
                       for t in np.linspace(0.0, horizon, 65))
            assert scan == c * sched.value(horizon) * a_sq


def _named_problem(name):
    """A catalog problem, a problem file (such as "ridge-identity" or
    "l1-box"), or a closure-built A with a softplus h: "closure" past the
    dense limit, "softplus-h" below it."""
    if name in CATALOG_NAMES:
        return catalog(name)
    if name == "closure":
        return _closure_problem(130, 5)
    if name == "softplus-h":
        return _closure_problem(3, 4)
    return load_problem(os.path.join(_PROBLEMS, name + ".txt"))


def _rel_gap(got, want):
    return np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want))


class TestFoldedStep:
    """A constant step tau0 makes each update one prox of f, with step
    tau0 exactly at every t, at the point
    x - tau0 (A*(y + c (A x - z)) + grad h(x)).  The kernel folds tau0 into
    H's x rows on a dense H (l1-box: with a nonzero q); a lazy H and a
    non-quadratic h step at tau(t) = tau0 outside it.  An affine prox of f
    (example1's sq_norm, box-qp's zero) is folded in too, so the update
    makes no call and x_new is the prox at that point."""

    @pytest.mark.parametrize("name", list(CATALOG_NAMES)
                             + ["l1-box", "wide-lasso", "wide-identity",
                                "closure"])
    def test_one_prox_at_the_folded_point(self, name, monkeypatch):
        p = _named_problem(name)
        tau = resolve_tau("auto", p, 1.0, 0.5)
        tau0 = tau.tau0
        calls = []
        real = p.f._prox

        def recording(step, u):
            calls.append((step, u.copy()))
            return real(step, u)

        monkeypatch.setattr(p.f, "_prox", recording)
        update = _three_blocks(p, 1.0, 0.5, tau, None, None, 1e-12)
        a_apply, a_adjoint = p.A._raw_apply, p.A._raw_adjoint
        rng = np.random.default_rng(8)
        for t in (0.0, 0.7, 3.0):
            s = 3.0 * rng.standard_normal(p.n + 2 * p.m)
            x, z, y = s[:p.n], s[p.n:p.n + p.m], s[p.n + p.m:]
            calls.clear()
            x_new = update(t, s)[0]
            grad = np.zeros(p.n) if p.h.is_zero else p.h.grad(x)
            want = x - tau0 * (a_adjoint(y + a_apply(x) - z) + grad)
            if p.f.affine is not None:
                assert not calls
                assert _rel_gap(x_new, real(tau0, want)) <= 1e-13
                continue
            assert len(calls) == 1
            step, arg = calls[0]
            assert step == tau0
            assert _rel_gap(arg, want) <= 1e-13
            assert np.array_equal(x_new, real(tau0, arg))
        assert (p.f.affine is None) == (name not in ("example1", "box-qp"))

    @pytest.mark.parametrize("name", ["wide-lasso", "wide-identity", "closure",
                                      "softplus-h", "dense-m2"])
    def test_outside_the_kernel_a_constant_step_is_a_moving_step(self, name):
        """At t = 800, exp(-t) underflows to 0, so the saturating schedule
        from tau / 2 to tau gives tau exactly: off the kernel (a lazy H, a
        non-quadratic h, a dense M2) both schedules give the same update,
        bit for bit."""
        p = _named_problem("lasso-small" if name == "dense-m2" else name)
        m2 = MetricSchedule.constant(_dense_pd(p.m, 6)) \
            if name == "dense-m2" else None
        tau = resolve_tau("auto", p, 1.5, 0.5).tau0
        assert TauSchedule.saturating(0.5 * tau, tau).value(800.0) == tau
        const, moving = (
            _three_blocks(p, 1.5, 0.5, sched, None, m2, 1e-12)
            for sched in (TauSchedule.constant(tau),
                          TauSchedule.saturating(0.5 * tau, tau)))
        assert "_constant_step_update" not in _make_update(
            p, 1.5, 0.5, TauSchedule.constant(tau), None, m2,
            1e-12).__qualname__
        rng = np.random.default_rng(13)
        for _ in range(3):
            s = 3.0 * rng.standard_normal(p.n + 2 * p.m)
            for g, w in zip(const(800.0, s), moving(800.0, s)):
                assert np.array_equal(g, w)


class TestAffineFold:
    """The affine form (a, b) of a quadratic prox, and the constant-step
    kernel that folds it into M, m0 and G (`flow._constant_step_update`)."""

    @pytest.mark.parametrize("t", [1e-3, 0.25, 1.0, 40.0])
    @pytest.mark.parametrize("build", [
        lambda: zero(7), lambda: sq_norm(7, 0.6),
        lambda: sq_distance(7, np.linspace(-3.0, 4.0, 7), 1.7)],
        ids=["zero", "sq_norm", "sq_distance"])
    def test_affine_form_is_the_prox(self, build, t):
        f = build()
        a, b = f.affine(t)
        U = 5.0 * np.random.default_rng(9).standard_normal((6, f.dim))
        got = a * U if b is None else a * U + b
        for g, w in zip(got, f._prox(t, U)):
            assert _rel_gap(g, w) <= 1e-15

    def test_nonlinear_proxes_have_no_affine_form(self):
        assert l1_norm(3).affine is None
        assert box(3).affine is None
        f = sq_norm(3)
        assert separable(3, f._eval, f._prox).affine is None

    @pytest.mark.parametrize("m2", ["none", "0I", "0.5I"])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("name", list(CATALOG_NAMES)
                             + ["ridge-identity", "l1-box"])
    @pytest.mark.parametrize("c", [1.0, 1.5])
    def test_matches_reference(self, name, gamma, m2, c, monkeypatch):
        """Folded on every problem with an affine f or g (both on
        ridge-identity, neither on l1-box): the update calls no affine
        prox and each other prox once, and matches the per-block formulas
        to 1e-13 relative."""
        p = _named_problem(name)
        tau = resolve_tau("auto", p, c, gamma)
        m2 = None if m2 == "none" else MetricSchedule.constant(
            SelfAdjointPSD.identity(p.m, 0.0 if m2 == "0I" else 0.5))
        calls = []
        for fn in (p.f, p.g):
            real = fn._prox

            def recording(step, u, fn=fn, real=real):
                calls.append(fn)
                return real(step, u)

            monkeypatch.setattr(fn, "_prox", recording)
        new = _three_blocks(p, c, gamma, tau, None, m2, 1e-12)
        ref = _reference_update(p, c, gamma, tau, None, m2, 1e-12)
        affine = [fn for fn in (p.f, p.g) if fn.affine is not None]
        assert bool(affine) == (name != "l1-box")
        rng = np.random.default_rng(11)
        for t in (0.0, 0.7, 3.0):
            for _ in range(4):
                s = 3.0 * rng.standard_normal(p.n + 2 * p.m)
                calls.clear()
                got = new(t, s)
                assert not any(fn in affine for fn in calls)
                assert len(calls) == 2 - len(affine)
                want = ref(t, s[:p.n], s[p.n:p.n + p.m], s[p.n + p.m:])
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    assert _rel_gap(g, w) <= 1e-13

    @pytest.mark.parametrize("name,case", [
        ("wide-lasso", "auto"), ("wide-identity", "auto"),
        ("softplus-h", "auto"), ("ridge-identity", "saturating"),
        ("example1", "saturating"), ("lasso-small", "const-0.5I"),
        ("ridge-identity", "dense-m1"), ("box-qp", "dense-m2")])
    def test_unfolded_cases_keep_their_bits(self, name, case, monkeypatch):
        """A lazy H, a non-quadratic h, a moving step and a general metric
        are not folded: the update is bit for bit the one built with the
        affine forms hidden."""
        p = _named_problem(name)
        assert p.f.affine is not None or p.g.affine is not None
        tau, m1, m2 = _update_cases(p, 0.5)[case]
        update = _three_blocks(p, 1.0, 0.5, tau, m1, m2, 1e-12)
        for fn in (p.f, p.g):
            monkeypatch.setattr(fn, "affine", None)
        plain = _three_blocks(p, 1.0, 0.5, tau, m1, m2, 1e-12)
        rng = np.random.default_rng(12)
        for t in (0.0, 0.7, 3.0):
            s = 3.0 * rng.standard_normal(p.n + 2 * p.m)
            for g, w in zip(update(t, s), plain(t, s)):
                assert np.array_equal(g, w)


class TestUpdateContract:
    """update(t, s, out, start=None) writes every entry of `out`, which
    less (x, z, 0) is the `rhs` velocity bit for bit, and returns the start
    of the next solve: the general path's own (x_new, z_new), not views of
    `out`, and None from the constant-step kernel."""

    @staticmethod
    def _params(p, mode):
        tau = resolve_tau("auto", p, 1.0, 0.5)
        m1, m2 = _half_metrics(p)
        return {
            "folded": dict(tau=tau),
            "unfolded": dict(tau=tau),
            "general-0.5I": dict(m1=m1, m2=m2),
            "general-dense-m2": dict(
                m1=m1, m2=MetricSchedule.constant(_dense_pd(p.m, 6))),
            "moving-tau": dict(tau=TauSchedule.saturating(0.5 * tau.tau0,
                                                          tau.tau0)),
        }[mode]

    @pytest.mark.parametrize("mode", ["folded", "unfolded", "general-0.5I",
                                      "general-dense-m2", "moving-tau"])
    @pytest.mark.parametrize("name", list(CATALOG_NAMES) + ["wide-lasso"])
    def test_writes_the_rhs_row(self, name, mode, monkeypatch):
        p = _named_problem(name)
        if mode == "unfolded":
            for fn in (p.f, p.g):
                monkeypatch.setattr(fn, "affine", None)
        params = FlowParams(c=1.0, gamma=0.5, horizon=5.0,
                            **self._params(p, mode))
        update = _make_update(p, params.c, params.gamma, params.tau,
                              params.m1, params.m2, params.inner_tol)
        kernel = mode in ("folded", "unfolded") and name in CATALOG_NAMES
        assert ("_constant_step_update" in update.__qualname__) == kernel
        n, iy = p.n, p.n + p.m
        rng = np.random.default_rng(21)
        start = None
        for t in (0.0, 0.7, 3.0):
            s = 3.0 * rng.standard_normal(iy + p.m)
            for given in (None, start):
                out = np.full(iy + p.m, np.nan)
                returned = update(t, s, out, given)
                assert not np.isnan(out).any()
                if given is None:
                    u, v, w = rhs(p, params, t, SystemState(
                        s[:n], s[n:iy], s[iy:], t))
                    assert (out[:n] - s[:n]).tobytes() == u.tobytes()
                    assert (out[n:iy] - s[n:iy]).tobytes() == v.tobytes()
                    assert out[iy:].tobytes() == w.tobytes()
                if kernel:
                    assert returned is None
                    continue
                # a certified piece map adds its piece's key, which is
                # that of the outputs
                x_new, z_new, *key = returned
                assert x_new.tobytes() == out[:n].tobytes()
                assert z_new.tobytes() == out[n:iy].tobytes()
                assert not np.shares_memory(x_new, out)
                assert not np.shares_memory(z_new, out)
                if key:
                    assert key == [update.pieces[0](x_new, z_new)]
                start = returned


def _reference_integrate(p, params, s0=None, record_every=1, warm=True,
                         maps=True, log=None):
    """`integrate` as a loop that slices its stage views, scales the
    tableau and appends a (t, U, integrals) tuple per step, stacking the
    records at the end.  It caps only the steps after an accepted one at
    h_max, so the cases below keep h0 <= h_max.  Each evaluation starts its
    subproblem solves at the previous evaluation's (x_new, z_new), as
    `integrate` does; with warm=False every one starts at its stage
    point.  An RK4 or adaptive run of a piecewise-affine update takes the
    step maps of `stepmaps._StepMaps`, as `integrate` does, unless
    maps=False; each map step appends (U_n, the start it was given, the
    map's product) to `log`."""
    u0 = flow._start_row(p, s0)
    flow._check_certificates(p, params)
    update = _make_update(p, params.c, params.gamma, params.tau, params.m1,
                          params.m2, params.inner_tol)
    integ = params.integrator
    c_nodes, a_mat, b_w, e_w = flow._TABLEAUS[type(integ)]
    adaptive = e_w is not None
    horizon = params.horizon
    if adaptive:
        h = min(float(integ.h0), horizon)
        h_map, n_full = integ.h_max, int(horizon / integ.h_max + 1e-9)
    else:
        h_fix = float(integ.h)
        n_full = int(np.floor(horizon / h_fix + 1e-9))
        h_last = horizon - n_full * h_fix
        n_steps = n_full + (h_last > 1e-12)
        h_map = h_fix
    iz, iy = p.n, p.n + p.m
    pts = np.empty((len(c_nodes), iy + p.m))
    ks = np.empty_like(pts)
    pts[0] = u0
    ints = np.zeros(iy)
    recs = [(0.0, u0, ints.copy())]

    start = None
    steps = None
    map_steps = 0
    if maps:
        steps = stepmaps._step_maps(update.pieces, a_mat, b_w, e_w, h_map,
                                    p.n, p.m, n_full)

    def error(u_next, est):
        scale = integ.abs_tol + integ.rel_tol * np.maximum(np.abs(pts[0]),
                                                           np.abs(u_next))
        r = est / scale
        err = math.sqrt(r @ r / r.size)
        return err, min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))

    def slope(i, t_i):
        nonlocal start
        s_i, k_i = pts[i], ks[i]
        row = np.empty_like(s_i)
        returned = update(t_i, s_i, row, start)
        if steps is not None:
            steps.observe(row)
        x_new, z_new, w = row[:iz], row[iz:iy], row[iy:]
        if warm:
            start = returned
        np.subtract(x_new, s_i[:iz], out=k_i[:iz])
        np.subtract(z_new, s_i[iz:iy], out=k_i[iz:iy])
        k_i[iy:] = w

    t = 0.0
    evals = accepted = 0
    stop_reason = "horizon"
    while t < horizon - 1e-12 if adaptive else accepted < n_steps:
        if adaptive:
            h = min(h, horizon - t)
            t_next = t + h
        else:
            h = h_fix if accepted < n_full else h_last
            t_next = (accepted + 1) * h_fix if accepted + 1 < n_steps else horizon
        r = None
        if steps is not None and h == h_map and (adaptive
                                                 or accepted < n_full):
            r = steps.step(pts[0])
            width = iy + p.m
            if r is not None and adaptive:
                err, factor = error(r[:width], r[steps.err])
                if not err <= stepmaps.MAP_STEP_ERR:
                    r = None
        if r is not None:
            if log is not None:
                log.append((pts[0].copy(), start, r.copy()))
            ints += r[width:width + iy]
            pts[0] = r[:width]
            if adaptive:
                ks[0] = r[steps.slope]
            if steps.warm:
                start = r[steps.x_new], r[steps.z_new]
            evals += len(c_nodes) - (adaptive and evals > 0)
            map_steps += 1
            t = t_next
            if not np.isfinite(pts[0]).all():
                raise IntegrationError(f"non-finite state at t = {t:.6g}")
            accepted += 1
            if accepted % record_every == 0 or t >= horizon - 1e-12:
                recs.append((t, pts[0].copy(), ints.copy()))
            if adaptive:
                h = min(h * factor, integ.h_max)
            continue
        if evals == 0 or not adaptive:
            slope(0, t)
            evals += 1
        ha = h * a_mat
        for i in range(1, len(c_nodes)):
            pts[i] = pts[0] + ha[i, :i] @ ks[:i]
            slope(i, t + c_nodes[i] * h)
        evals += len(c_nodes) - 1
        if adaptive:
            err, factor = error(pts[-1], (h * e_w) @ ks)
            if err > 1.0:
                if h * factor < integ.h_min:
                    stop_reason = "step-underflow"
                    break
                h *= factor
                continue
        hb = h * b_w
        ints += hb @ pts[:, :iy]
        if adaptive:
            pts[0] = pts[-1]
            ks[0] = ks[-1]
        else:
            pts[0] += hb @ ks
        if steps is not None and ((factor >= 1.0 and h == h_map) if adaptive
                                  else accepted + 1 < n_full):
            steps.settle()
        t = t_next
        if not np.isfinite(pts[0]).all():
            raise IntegrationError(f"non-finite state at t = {t:.6g}")
        accepted += 1
        if accepted % record_every == 0 or t >= horizon - 1e-12:
            recs.append((t, pts[0].copy(), ints.copy()))
        if adaptive:
            h = min(h * factor, integ.h_max)
    if t > 0 and recs[-1][0] < t - 1e-12:
        recs.append((t, pts[0].copy(), ints.copy()))
    ts, U, integrals = (np.array(col) for col in zip(*recs))
    erg = np.full(integrals.shape, np.nan)
    erg[1:] = ergodic(ts[1:], U[1:, :iy], u0[:iy], integrals[1:])
    return flow.FlowTrajectory(t=ts, U=U, erg=erg, stop_reason=stop_reason,
                               rhs_evals=evals, n=p.n, map_steps=map_steps)


class TestStepLoop:
    """`integrate` builds its views, scaled tableau and record arrays once
    per run; its trajectory is the per-step loop's, bit for bit."""

    @staticmethod
    def _assert_same(p, params, record_every):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = integrate(p, params, record_every=record_every)
        want = _reference_integrate(p, params, record_every=record_every)
        for name in ("t", "U", "erg"):
            g, w = getattr(got, name), getattr(want, name)
            assert g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)
            assert g.tobytes() == w.tobytes()
        assert got.rhs_evals == want.rhs_evals
        assert got.map_steps == want.map_steps
        assert got.stop_reason == want.stop_reason
        # the record buffers are trimmed copies, not views of the capacity
        assert got.t.base is None and got.U.base is None
        return got

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("integrator", [Euler(h=0.05), RK4(h=0.05),
                                            Adaptive()],
                             ids=["euler", "rk4", "adaptive"])
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_catalog(self, name, integrator, record_every):
        """T = 2.02 is 40 steps of 0.05 and a clipped step of 0.02; an RK4
        run takes step maps, and so does the reference, and an Euler run
        takes none."""
        p = catalog(name)
        params = FlowParams(c=1.0, gamma=0.5,
                            tau=resolve_tau("auto", p, 1.0, 0.5),
                            horizon=2.02, integrator=integrator)
        traj = self._assert_same(p, params, record_every)
        assert traj.t[-1] == 2.02
        if not isinstance(integrator, Adaptive):
            # the start, every record_every-th step and the last step
            assert len(traj.t) == 1 + math.ceil(41 / record_every)
            assert (traj.map_steps > 0) == isinstance(integrator, RK4)

    @pytest.mark.parametrize("integrator", [Euler(h=0.05), RK4(h=0.05),
                                            Adaptive()],
                             ids=["euler", "rk4", "adaptive"])
    def test_one_by_one_problem(self, integrator):
        """n = m = 1: the integrals' stage sum reads the x | z columns of
        the stage points, a strided block of two columns, where `@` and
        `ndarray.dot` round differently."""
        p = ProblemSpec("one-by-one", l1_norm(1, 0.1), zero_smooth(1),
                        sq_distance(1, np.array([0.5])),
                        linops.LinearMap.from_dense(np.array([[2.0]])))
        params = FlowParams(c=1.0, gamma=0.5,
                            tau=resolve_tau("auto", p, 1.0, 0.5),
                            horizon=2.02, integrator=integrator)
        self._assert_same(p, params, 1)

    def test_general_metric(self, monkeypatch):
        """Its 20 steps take maps once runs of any length may."""
        monkeypatch.setattr(stepmaps, "STEP_MAP_MIN_STEPS", 0)
        p = catalog("lasso-small")
        half = SelfAdjointPSD.identity
        params = FlowParams(c=1.0, gamma=0.5,
                            m1=MetricSchedule.constant(half(p.n, 0.5)),
                            m2=MetricSchedule.constant(half(p.m, 0.5)),
                            horizon=1.02, integrator=RK4(h=0.05))
        assert self._assert_same(p, params, 1).map_steps > 0

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("name", ["lasso-small", "l1-box", "general"])
    def test_adaptive_step_maps(self, name, record_every):
        """Adaptive runs to T = 70 take step maps at h_max, and so does
        the reference."""
        p, params = _step_map_case(name, Adaptive(), horizon=70.0)
        assert self._assert_same(p, params, record_every).map_steps > 0

    @pytest.mark.parametrize("record_every", [1, 7])
    def test_step_underflow(self, example1, record_every):
        """Tight tolerances with h_min = 0.03 underflow at t ~ 2.14 after
        34 accepted steps; at record_every = 7 the last one is recorded
        after the loop."""
        params = FlowParams(c=1.0, gamma=0.5,
                            tau=resolve_tau("auto", example1, 1.0, 0.5),
                            horizon=20.0,
                            integrator=Adaptive(h0=0.03, rel_tol=1e-8,
                                                abs_tol=1e-8, h_min=0.03))
        traj = self._assert_same(example1, params, record_every)
        assert traj.stop_reason == "step-underflow"
        assert 2.0 < traj.t[-1] < 3.0
        with pytest.warns(RuntimeWarning, match="underflowed"):
            integrate(example1, params)

    def test_long_adaptive_run_grows_its_records(self, example1):
        """More than the first 256 record rows."""
        params = FlowParams(c=1.0, gamma=0.5,
                            tau=resolve_tau("auto", example1, 1.0, 0.5),
                            horizon=3.0,
                            integrator=Adaptive(rel_tol=1e-12, abs_tol=1e-12))
        assert len(self._assert_same(example1, params, 1).t) > 256


def _half_metrics(p, m2=None):
    """M1 = 0.5 I and M2 = 0.5 I (or m2), the `metric-lasso` metrics."""
    half = SelfAdjointPSD.identity
    return (MetricSchedule.constant(half(p.n, 0.5)),
            MetricSchedule.constant(half(p.m, 0.5)) if m2 is None else m2)


def _radius_starts(p, count, seed=11):
    """Seeded starts x0, z0 = A x0, y0 with x0 and y0 at radius sqrt(dim)."""
    rng = np.random.default_rng(seed)

    def draw(dim):
        u = rng.standard_normal(dim)
        return math.sqrt(dim) * u / np.linalg.norm(u)

    for _ in range(count):
        x0, y0 = draw(p.n), draw(p.m)
        yield SystemState(x0, p.A.apply(x0), y0, 0.0)


class TestWarmStart:
    """`integrate` starts the `metric_prox` solves of each rhs evaluation
    at the previous evaluation's (x_new, z_new)."""

    def test_prox_evaluations_per_call(self, monkeypatch):
        """The `metric-lasso` flow setup (lasso-small, M1 = M2 = 0.5 I, RK4
        h = 0.05, T = 5) from four seeded starts: an x-update spends 0.052
        prox evaluations on average (83 in 1 600), since the piece map of
        the previous solution's piece certifies almost every evaluation
        with no prox call, and a step map most steps, where a solve from
        the stage point, in a loop that evaluates every stage, spends more
        (1.92 on these starts)."""
        p = catalog("lasso-small")
        m1, m2 = _half_metrics(p)
        params = FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2, horizon=5.0,
                            integrator=RK4(h=0.05))
        proxes = []
        real = p.f._prox

        def counting(t, u):
            proxes.append(1)
            return real(t, u)

        monkeypatch.setattr(p.f, "_prox", counting)
        per_call = {}
        for warm in (True, False):
            proxes.clear()
            evals = 0
            for s0 in _radius_starts(p, 4):
                if warm:
                    evals += integrate(p, params, s0).rhs_evals
                else:
                    evals += _reference_integrate(p, params, s0, warm=False,
                                                  maps=False).rhs_evals
            per_call[warm] = len(proxes) / evals
        assert per_call[True] <= 0.052
        assert 1.04 < per_call[False]

    def test_each_evaluation_starts_at_the_last_solution(self, monkeypatch):
        """Adaptive trials with rejections and a dense M2, so both blocks
        are `metric_prox` solves: the first evaluation gets no start and is
        `rhs` bit for bit; every later one gets the (x_new, z_new) the one
        before it returned, across stages, steps and rejected trials."""
        p = catalog("lasso-small")
        m1, m2 = _half_metrics(p, MetricSchedule.constant(_dense_pd(p.m, 6)))
        params = FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2, horizon=2.0,
                            integrator=Adaptive(rel_tol=1e-8, h0=1.0))
        s0 = next(_radius_starts(p, 1))
        calls = []
        real = flow._make_update

        def recording(*args):
            update = real(*args)

            def recorded(t, s, out, start=None):
                returned = update(t, s, out, start)
                calls.append((t, s.copy(), start, out.copy(), returned))
                return returned
            return recorded

        monkeypatch.setattr(flow, "_make_update", recording)
        traj = integrate(p, params, s0)
        monkeypatch.undo()
        assert traj.rhs_evals == len(calls)
        assert traj.rhs_evals > 1 + 6 * (len(traj.t) - 1), "no rejection"
        t0, u0, start, row, _ = calls[0]
        assert t0 == 0.0 and start is None
        u, v, want_w = rhs(p, params, 0.0, s0)
        n, m = p.n, p.m
        assert (row[:n] - u0[:n]).tobytes() == u.tobytes()
        assert (row[n:n + m] - u0[n:n + m]).tobytes() == v.tobytes()
        assert row[n + m:].tobytes() == want_w.tobytes()
        for before, after in zip(calls, calls[1:]):
            assert after[2][0] is before[4][0]
            assert after[2][1] is before[4][1]

    @pytest.mark.parametrize("dense_m2", [False, True])
    def test_matches_cold_starts(self, dense_m2):
        """An RK4 general-metric flow agrees with the loop whose solves all
        start at their stage points to 1e-12 relative, row by row."""
        p = catalog("lasso-small")
        m1, m2 = _half_metrics(p, MetricSchedule.constant(_dense_pd(p.m, 6))
                               if dense_m2 else None)
        params = FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2, horizon=5.0,
                            integrator=RK4(h=0.05))
        for s0 in _radius_starts(p, 2):
            got = integrate(p, params, s0)
            want = _reference_integrate(p, params, s0, warm=False)
            assert got.t.tobytes() == want.t.tobytes()
            gap = np.linalg.norm(got.U - want.U, axis=1) / np.maximum(
                1.0, np.linalg.norm(want.U, axis=1))
            assert gap.max() <= 1e-12


def _count_metric_prox(monkeypatch):
    """A list that grows by one at each `metric_prox` call of the update."""
    calls = []
    real = flow.metric_prox

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(flow, "metric_prox", counting)
    return calls


def _count_piece_starts(monkeypatch):
    """A list that grows by one at each piece start of a `metric_prox`
    solve (`proxlib._piece_start`)."""
    calls = []
    real = proxlib._piece_start

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(proxlib, "_piece_start", counting)
    return calls


class TestPieceMaps:
    """With a constant M1, a single-prox z block and f and g that name
    their pieces, the general path's update tries the affine map of the
    joint piece that its start lies on, and writes the row when one
    product certifies it; otherwise it solves with `metric_prox`."""

    @staticmethod
    def _warm_calls(p, params, monkeypatch):
        """(t, s, start) of every update call of an `integrate` run."""
        calls = []
        real = flow._make_update

        def recording(*args):
            update = real(*args)

            def recorded(t, s, out, start=None):
                calls.append((t, s.copy(), start))
                return update(t, s, out, start)
            return recorded

        with monkeypatch.context() as patch:
            patch.setattr(flow, "_make_update", recording)
            integrate(p, params, next(_radius_starts(p, 1)))
        return calls

    @pytest.mark.parametrize("case", ["const-0.5I", "dense-m1"])
    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    @pytest.mark.parametrize("name", list(CATALOG_NAMES) + ["l1-box"])
    def test_certified_rows_match_reference(self, name, gamma, case,
                                            monkeypatch):
        """Every evaluation of a warm RK4 run, replayed with its start:
        a certified row (no `metric_prox` call) matches the per-block
        formulas to 1e-13 relative, and most rows certify.  A certified
        row is exact to roundoff, so the formulas solve their subproblems
        to tol 1e-14: at 1e-12 their solves on l1-box stop up to 1.5e-12
        from the solution."""
        p = _named_problem(name)
        _, m1, m2 = _update_cases(p, gamma)[case]
        params = FlowParams(c=1.0, gamma=gamma, m1=m1, m2=m2, horizon=3.0,
                            integrator=RK4(h=0.05))
        calls = self._warm_calls(p, params, monkeypatch)
        update = _make_update(p, 1.0, gamma, None, m1, m2, 1e-12)
        ref = _reference_update(p, 1.0, gamma, None, m1, m2, 1e-14)
        solves = _count_metric_prox(monkeypatch)
        n, iy = p.n, p.n + p.m
        certified = 0
        for t, s, start in calls:
            before = len(solves)
            out = np.empty_like(s)
            update(t, s, out, start)
            if len(solves) > before:
                continue
            certified += 1
            want = ref(t, s[:n], s[n:iy], s[iy:])
            for got, w in zip((out[:n], out[n:iy], out[iy:]), want):
                assert _rel_gap(got, w) <= 1e-13
        assert certified >= 0.8 * len(calls)

    @pytest.mark.parametrize("name,gamma,algorithm", [
        ("lasso-small", 0.5, "rk4"), ("l1-box", 0.5, "rk4"),
        ("l1-box", 0.5, "admm"), ("l1-box", 1.0, "admm")],
        ids=["lasso-small", "l1-box", "l1-box-admm-0.5", "l1-box-admm-1"])
    def test_rows_do_not_depend_on_what_was_kept(self, name, gamma,
                                                 algorithm, monkeypatch):
        """With room for one map and no Newton inverse, every change of
        piece drops the last map and every inverse is rebuilt, and a warm
        RK4 run, or an ADMM run, gives the same iterates bit for bit.  The
        ADMM runs come back to pieces they left, so they build more maps
        (27 against 8 or 9); the RK4 runs, whose step maps take most steps,
        build as many."""
        p = _named_problem(name)
        m1, m2 = _half_metrics(p)
        s0 = next(_radius_starts(p, 1))
        if algorithm == "rk4":
            params = FlowParams(c=1.0, gamma=gamma, m1=m1, m2=m2,
                                horizon=3.0, integrator=RK4(h=0.05))

            def run():
                return integrate(p, params, s0)
        else:
            params = DiscreteParams(c=1.0, gamma=gamma, m1=m1, m2=m2)

            def run():
                return discrete_run(p, params, s0)
        builds = []
        real = flow._certified

        def counting(*args):
            builds.append(1)
            return real(*args)

        monkeypatch.setattr(flow, "_certified", counting)
        kept = run()
        kept_builds = len(builds)
        width = p.n + 2 * p.m
        monkeypatch.setattr(flow, "PIECE_MAPS", 1)
        monkeypatch.setattr(flow, "NEWTON_INVERSE_FLOATS",
                            (width + 2 * (p.n + p.m) + 2) * (width + 1))
        monkeypatch.setattr(proxlib, "NEWTON_INVERSE_FLOATS", 0)
        builds.clear()
        rebuilt = run()
        assert len(builds) >= kept_builds + (algorithm == "admm")
        assert kept.U.tobytes() == rebuilt.U.tobytes()
        if algorithm == "rk4":
            assert kept.erg.tobytes() == rebuilt.erg.tobytes()
        else:
            assert kept.residuals.tobytes() == rebuilt.residuals.tobytes()

    @staticmethod
    def _lasso_state(gap):
        """lasso-small with M1 = M2 = 0.5 I and c = 1, and a state s whose
        x-update solution is its own x, the known primal point, with the
        x-prox input of the inactive entry 2 at distance `gap` inside the
        bound |u| <= t w of its zero piece (t = 1 / ||Q1||, w the weight);
        the other inactive entries lie well inside theirs."""
        p = catalog("lasso-small")
        m1, m2 = _half_metrics(p)
        x = np.array(p.known_primal)
        tw = 0.05 / x_update_metric(m1, 1.0, p.A, 0.0).norm()
        # Q1 x + lin = -w xi at the solution, with xi = sign(x) on the
        # support; lin = -0.5 x - A* z + A* y with z = A x is A* y - Q1 x,
        # so A* y = -w xi, and the prox input of an inactive entry j is
        # u_j = t w xi_j
        xi = np.sign(x)
        xi[[0, 2, 3, 7]] = [0.3, 1.0 - gap / tw, -0.2, 0.1]
        y = np.linalg.lstsq(p.A.mat.T, -0.05 * xi, rcond=None)[0]
        return p, m1, m2, np.concatenate((x, p.A.apply(x), y))

    @pytest.mark.parametrize("gap", [0.0, 0.5 * stepmaps.PIECE_MARGIN])
    def test_boundary_falls_back(self, gap, monkeypatch):
        """A prox input on its piece's boundary, or inside it by less
        than the margin, fails the certificate: the update solves with
        one `metric_prox` call, which does not try that piece again (no
        piece start), and its row matches the per-block formulas to 1e-13
        relative."""
        p, m1, m2, s = self._lasso_state(gap)
        update = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
        solves = _count_metric_prox(monkeypatch)
        starts = _count_piece_starts(monkeypatch)
        got = np.empty_like(s)
        update(0.0, s, got)
        assert len(solves) == 1
        assert not starts
        n, iy = p.n, p.n + p.m
        want = _reference_update(p, 1.0, 0.5, None, m1, m2, 1e-14)(
            0.0, s[:n], s[n:iy], s[iy:])
        for block, w in zip((got[:n], got[n:iy], got[iy:]), want):
            assert _rel_gap(block, w) <= 1e-13

    @pytest.mark.parametrize("algorithm", ["rk4", "admm"])
    def test_certified_start_carries_its_key(self, algorithm, monkeypatch):
        """The `metric-lasso` setup (lasso-small, M1 = M2 = 0.5 I, gamma
        0.5; RK4 h 0.05 to T 5, ADMM to 1e-10) from two seeded starts: an
        evaluation whose start a certified evaluation returned, with its
        key, calls no `_piece_key` closure, and every other evaluation
        calls one per block.  Each run is bit for bit the run whose update
        drops the key it returns, as before keys were carried, and an ADMM
        run also the run whose update is given no start."""
        p = catalog("lasso-small")
        m1, m2 = _half_metrics(p)
        if algorithm == "rk4":
            params = FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2, horizon=5.0,
                                integrator=RK4(h=0.05))
            module, drops = flow, (None, "key")

            def run(s0):
                traj = integrate(p, params, s0)
                return traj.U, traj.erg
        else:
            params = DiscreteParams(c=1.0, gamma=0.5, m1=m1, m2=m2,
                                    max_iters=20000, stop_tol=1e-10)
            module, drops = discrete, (None, "key", "start")

            def run(s0):
                out = discrete_run(p, params, s0)
                return out.U, out.residuals
        keys, evals = [], []  # per evaluation: (given a key, keys taken)
        real_key, real = flow._piece_key, flow._make_update

        def counting_key(fn, step):
            key = real_key(fn, step)

            def counted(x):
                keys.append(1)
                return key(x)
            return counted

        def dropping(drop):
            def make(*args):
                update = real(*args)

                def recorded(t, s, out, start=None):
                    if drop == "start":
                        start = None
                    before = len(keys)
                    returned = update(t, s, out, start)
                    evals.append((start is not None and len(start) == 3,
                                  len(keys) - before))
                    if drop == "key" and returned is not None:
                        returned = returned[:2]
                    return returned
                recorded.pieces = update.pieces
                return recorded
            return make

        monkeypatch.setattr(flow, "_piece_key", counting_key)
        for s0 in _radius_starts(p, 2):
            got = {}
            for drop in drops:
                evals.clear()
                monkeypatch.setattr(module, "_make_update", dropping(drop))
                got[drop] = run(s0)
                if drop is None:
                    carried = [taken for given, taken in evals if given]
                    others = [taken for given, taken in evals if not given]
                    assert len(carried) > len(others) > 0
                    assert set(carried) == {0} and set(others) == {2}
            for drop in drops[1:]:
                for a, b in zip(got[None], got[drop]):
                    assert a.tobytes() == b.tobytes()

    def test_dead_zone_row_keeps_its_key(self, monkeypatch):
        """The state of `_lasso_state` certifies with x_new exactly zero in
        its four dead-zone entries, and the key the update returns with it
        is that of its outputs, with those zeros as +0.0 or as -0.0.  A
        start whose zeros are -0.0, as l1's prox writes them for a negative
        input, certifies with the same key and row."""
        p, m1, m2, s = self._lasso_state(0.005)
        update = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
        key_of = update.pieces[0]
        solves = _count_metric_prox(monkeypatch)
        n, iy = p.n, p.n + p.m
        dead = [0, 2, 3, 7]
        x0 = s[:n].copy()
        x0[dead] = -0.0
        got = []
        for start in (None, (x0, s[n:iy])):
            out = np.empty_like(s)
            x_new, z_new, key = update(0.0, s, out, start)
            assert not x_new[dead].any()
            for zero in (0.0, -0.0):
                x = x_new.copy()
                x[dead] = zero
                assert key_of(x, z_new) == key
            got.append((out.tobytes(), key))
        assert not solves
        assert got[0] == got[1]

    @pytest.mark.parametrize("name", ["example1", "lasso-small"])
    def test_fallback_retries_the_piece_only_for_z(self, name, monkeypatch):
        """The evaluations of general-metric ADMM runs (M1 = M2 = 0.5 I,
        gamma 0.5, four seeded starts), replayed with their starts: a
        fallback tries its start's piece again only when the certificate
        held for the x block.  example1's f is affine, with no x rows, so
        each fallback failed on a z row and keeps the piece start, which
        ends its solve at one prox evaluation with the bits of an update
        built without piece maps; lasso-small's g is affine, with no z
        rows, so each fallback failed on an x row and skips it."""
        p = catalog(name)
        m1, m2 = _half_metrics(p)
        params = DiscreteParams(c=1.0, gamma=0.5, m1=m1, m2=m2)
        calls = []
        real = flow._make_update

        def recording(*args):
            update = real(*args)

            def recorded(t, s, out, start=None):
                calls.append((t, s.copy(), start))
                return update(t, s, out, start)
            return recorded

        with monkeypatch.context() as patch:
            patch.setattr(discrete, "_make_update", recording)
            for s0 in _radius_starts(p, 4):
                discrete_run(p, params, s0)
        update = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
        with monkeypatch.context() as patch:
            patch.setattr(p.f, "_region", None)
            plain = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
        solves = _count_metric_prox(monkeypatch)
        starts = _count_piece_starts(monkeypatch)
        proxes = []
        real_prox = p.f._prox

        def counting_prox(*args):
            proxes.append(1)
            return real_prox(*args)

        monkeypatch.setattr(p.f, "_prox", counting_prox)
        fallbacks = 0
        for t, s, start in calls:
            solves.clear()
            starts.clear()
            proxes.clear()
            got = np.empty_like(s)
            update(t, s, got, start)
            if not solves:
                continue
            fallbacks += 1
            if name == "lasso-small":
                assert not starts
                continue
            assert len(starts) == len(proxes) == 1
            want = np.empty_like(s)
            plain(t, s, want, start)
            assert got.tobytes() == want.tobytes()
        assert fallbacks >= 4

    def test_one_row_per_piece(self, monkeypatch):
        """Inside its region by 0.005, of t w = 0.018, the state
        certifies, from its own x and from another start on the same
        piece (x and z scaled by 3, which keeps the signs of the l1 piece;
        g = `sq_distance` has one piece), with the same bits; the row
        matches the per-block formulas to 1e-13 relative."""
        p, m1, m2, s = self._lasso_state(0.005)
        update = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
        solves = _count_metric_prox(monkeypatch)
        n, iy = p.n, p.n + p.m
        rows = []
        for start in (None, (3.0 * s[:n], 3.0 * s[n:iy])):
            out = np.empty_like(s)
            update(0.0, s, out, start)
            rows.append(out.tobytes())
        assert not solves
        assert rows[0] == rows[1]
        want = _reference_update(p, 1.0, 0.5, None, m1, m2, 1e-12)(
            0.0, s[:n], s[n:iy], s[iy:])
        for got, w in zip((out[:n], out[n:iy], out[iy:]), want):
            assert _rel_gap(got, w) <= 1e-13

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("index,value", [
        (0, math.nan), (3, math.inf), (10, -math.inf), (25, math.nan),
        (25, math.inf)])
    @pytest.mark.parametrize("warm", [False, True])
    def test_non_finite_state_raises_as_without_maps(self, index, value,
                                                     warm, monkeypatch):
        """A NaN or inf in x, z or y, from its own x or from a start on a
        certified piece, raises the `ToleranceNotMet` of an update built
        without piece maps, with the same message."""
        p, m1, m2, s = self._lasso_state(0.005)
        start = (s[:p.n].copy(), s[p.n:p.n + p.m].copy()) if warm else None
        s[index] = value
        messages = []
        for maps in (True, False):
            with monkeypatch.context() as patch:
                if not maps:
                    patch.setattr(p.f, "_region", None)
                update = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
            with pytest.raises(ToleranceNotMet) as info:
                update(0.0, s, np.empty_like(s), start)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_guard_alone_fails_non_finite_states(self, value, monkeypatch):
        """Both proxes of ridge-identity are affine, so its one piece has
        an unbounded region and its certificate is the guard alone: the
        known saddle point certifies with no `metric_prox` solve, and with
        one entry NaN or inf it fails and raises the `ToleranceNotMet` of
        an update built without piece maps, with the same message."""
        p = _named_problem("ridge-identity")
        m1, m2 = _half_metrics(p)
        x = np.array(p.known_primal)
        s = np.concatenate((x, p.A.apply(x), p.known_dual))
        update = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
        with monkeypatch.context() as patch:
            patch.setattr(p.f, "_region", None)
            plain = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-10)
        solves = _count_metric_prox(monkeypatch)
        update(0.0, s, np.empty_like(s))
        assert not solves
        s[3] = value
        messages = []
        for each in (update, plain):
            with pytest.raises(ToleranceNotMet) as info:
                each(0.0, s, np.empty_like(s))
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("caller", ["rhs", "admm"])
    def test_indefinite_m1_raises(self, caller):
        """M1 = -0.1 I leaves Q1 = A* A + M1 with no positive floor on
        lasso-small.  From x0 = 0, on l1's zero piece, whose map would
        exist, the update takes no map and its solve refuses Q1."""
        p = catalog("lasso-small")
        m1 = MetricSchedule.constant(
            SelfAdjointPSD.from_dense(-0.1 * np.eye(p.n)))
        m2 = MetricSchedule.constant(SelfAdjointPSD.identity(p.m, 0.5))
        s = SystemState(np.zeros(p.n), np.zeros(p.m), np.zeros(p.m))
        with pytest.raises(CertificationError, match="positive definite Q"):
            if caller == "rhs":
                rhs(p, FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2), 0.0, s)
            else:
                discrete_run(p, DiscreteParams(c=1.0, m1=m1, m2=m2), s)

    def test_maps_past_the_size_limit_are_not_built(self, monkeypatch):
        """A 20 x 30 lasso's map has 14 742 floats, past the 4096 of
        `PIECE_MAPS` maps in the budget: every evaluation of a warm run
        solves with `metric_prox` and writes the bits of an update built
        without piece maps."""
        rng = np.random.default_rng(5)
        n, m = 20, 30
        A = linops.LinearMap.from_dense(rng.standard_normal((m, n)))
        p = ProblemSpec(name="lasso-20x30", f=l1_norm(n, 0.05),
                        h=zero_smooth(n), A=A,
                        g=sq_distance(m, rng.standard_normal(m)))
        m1, m2 = _half_metrics(p)
        params = FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2, horizon=1.0,
                            integrator=RK4(h=0.05))
        calls = self._warm_calls(p, params, monkeypatch)
        update = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-12)
        with monkeypatch.context() as patch:
            patch.setattr(p.f, "_region", None)
            plain = _make_update(p, 1.0, 0.5, None, m1, m2, 1e-12)
        solves = _count_metric_prox(monkeypatch)
        for t, s, start in calls:
            got, want = np.empty_like(s), np.empty_like(s)
            update(t, s, got, start)
            plain(t, s, want, start)
            assert got.tobytes() == want.tobytes()
        assert len(solves) == 2 * len(calls)


def _step_map_case(name, integrator, horizon=5.0, gamma=0.5, tol=1e-10):
    """(p, params) for a step-map case: `auto` tau on a catalog problem or
    problem file, or "general", lasso-small with M1 = M2 = 0.5 I."""
    if name == "general":
        p = catalog("lasso-small")
        m1, m2 = _half_metrics(p)
        return p, FlowParams(c=1.0, gamma=gamma, m1=m1, m2=m2,
                             horizon=horizon, integrator=integrator,
                             inner_tol=tol)
    p = _named_problem(name)
    return p, FlowParams(c=1.0, gamma=gamma,
                         tau=resolve_tau("auto", p, 1.0, gamma),
                         horizon=horizon, integrator=integrator,
                         inner_tol=tol)


def _update_of(p, params):
    return _make_update(p, params.c, params.gamma, params.tau, params.m1,
                        params.m2, params.inner_tol)


def _primed(monkeypatch, p, params, s, seen=None):
    """Make every `_StepMaps` of the next runs start with the map of the
    piece that the update's outputs at s lie on, as if two steps had ended
    on that piece, runs of a single step included; each new instance is
    appended to `seen` with that map."""
    x, z, _ = flow._blocks(p, _update_of(p, params), 0.0, s)
    real = stepmaps._StepMaps.__init__
    monkeypatch.setattr(stepmaps, "STEP_MAP_MIN_STEPS", 0)  # one-step runs
    monkeypatch.setattr(stepmaps, "ADAPTIVE_MAP_MIN_STEPS", 0)

    def init(self, *args):
        real(self, *args)
        self.key = self.key_of(x, z)
        self.last[...] = np.concatenate((x, z))
        self.settle()
        if seen is not None:
            seen.append((self, self.current))

    monkeypatch.setattr(stepmaps._StepMaps, "__init__", init)


class TestStepMaps:
    """A fixed-step RK4 run of a piecewise-affine update, and an adaptive
    run at h_max, take a step by one product of its piece's step map
    (`stepmaps._StepMaps`) when the product certifies that every stage lies
    on that piece."""

    CASES = list(CATALOG_NAMES) + ["l1-box", "ridge-identity", "general"]

    @staticmethod
    def _one_step(p, params, u, start=None):
        """U_n+1 of one stagewise step from u, at h or at an adaptive run's
        h_max, the slope at its last stage, and the piece key of the
        outputs of each of its stage evaluations."""
        update = _update_of(p, params)
        integ = params.integrator
        h = integ.h_max if isinstance(integ, Adaptive) else integ.h
        c_nodes, a_mat, b_w, _ = flow._TABLEAUS[type(integ)]
        n, iy = p.n, p.n + p.m
        slopes, keys = [], []
        for i in range(len(c_nodes)):
            point = u + h * (a_mat[i, :i] @ np.array(slopes)) \
                if i else u.copy()
            row = np.empty_like(u)
            start = update(0.0, point, row, start)
            keys.append(update.pieces[0](row[:n], row[n:iy]))
            row[:iy] -= point[:iy]
            slopes.append(row)
        return u + h * (b_w @ np.array(slopes)), slopes[-1], keys

    @pytest.mark.parametrize("name", CASES)
    def test_map_steps_match_stagewise_steps(self, name):
        """From a seeded start, RK4 to T = 5: each map step is within 1e-13
        relative of the stagewise step from the same state and start,
        whose subproblems are solved to 1e-14, and at least 3 in 4 steps
        are map steps (77 of 100 on l1-box, 89 to 98 on the rest)."""
        p, params = _step_map_case(name, RK4(h=0.05))
        s0 = next(_radius_starts(p, 1))
        log = []
        traj = _reference_integrate(p, params, s0, log=log)
        assert traj.map_steps == len(log) >= 0.75 * (len(traj.t) - 1)
        exact = _step_map_case(name, RK4(h=0.05), tol=1e-14)[1]
        for u, start, want in log:
            got, _, keys = self._one_step(p, exact, u, start)
            assert _rel_gap(got, want[:len(u)]) <= 1e-13
            assert len(set(keys)) == 1

    @pytest.mark.parametrize("name", CASES)
    def test_adaptive_map_steps_keep_the_step_count(self, name):
        """From a seeded start, adaptive to T = 100: rhs_evals and the
        records' count are those of the run without maps, and so are the
        times up to the first step below h_max that follows a map step.
        That step's size comes from the error estimate of a state a map
        made, which carries some 1e-10 relative roundoff into the
        controller, so the later times and states move, within the run's
        tolerance.  Each map step is within 1e-13 relative of the
        stagewise trial from the same state and start, the last slope
        included, with every stage on one piece; most steps at h_max
        (58 to 86 of 63 to 86 here) are map steps."""
        integ = Adaptive()
        p, params = _step_map_case(name, integ, horizon=100.0)
        s0 = next(_radius_starts(p, 1))
        got = integrate(p, params, s0)
        plain = _reference_integrate(p, params, s0, maps=False)
        assert (got.rhs_evals, len(got.t), got.stop_reason) == \
            (plain.rhs_evals, len(plain.t), plain.stop_reason)
        log = []
        assert _reference_integrate(p, params, s0, log=log).map_steps == \
            got.map_steps == len(log)
        # the first map step starts at record `first`
        first = next(i for i, u in enumerate(plain.U)
                     if u.tobytes() == log[0][0].tobytes())
        full = np.diff(plain.t) == integ.h_max
        assert got.map_steps >= 0.875 * full.sum()
        moved = first + 1 + np.argmin(full[first:])
        assert got.t[:moved].tobytes() == plain.t[:moved].tobytes()
        assert np.abs(got.t - plain.t).max() <= integ.rel_tol
        assert max(_rel_gap(a, b) for a, b in zip(got.U, plain.U)) <= \
            integ.rel_tol
        exact = _step_map_case(name, integ, tol=1e-14)[1]
        width = len(s0.x) + 2 * len(s0.y)
        for u, start, want in log:
            state, slope, keys = self._one_step(p, exact, u, start)
            assert _rel_gap(state, want[:width]) <= 1e-13
            assert _rel_gap(slope, want[2 * width + p.n + p.m:3 * width
                                         + p.n + p.m]) <= 1e-13
            assert len(set(keys)) == 1

    @pytest.mark.parametrize("name", ["lasso-small", "example1"])
    def test_steps_that_cross_a_boundary_fall_back(self, name, monkeypatch):
        """RK4 steps of a stagewise run whose stages lie on more than one
        piece: with the map of the first stage's piece current, each step
        fails the certificate and keeps the bits of the stagewise step."""
        p, params = _step_map_case(name, RK4(h=0.05))
        traj = _reference_integrate(p, params, maps=False)
        crossing = [u for u in traj.U[:-1]
                    if len(set(self._one_step(p, params, u)[2])) > 1]
        assert crossing
        one = replace(params, horizon=0.05)
        for u in crossing:
            s = SystemState(u[:p.n], u[p.n:p.n + p.m], u[p.n + p.m:])
            plain = integrate(p, one, s)
            with monkeypatch.context() as patch:
                _primed(patch, p, one, u)
                got = integrate(p, one, s)
            assert got.map_steps == 0
            assert got.U.tobytes() == plain.U.tobytes()

    # one step of 0.05: RK4, or an adaptive first trial at its h_max, with
    # tolerances that a map step's error estimate passes near the solution
    ONE_STEP = {"rk4": RK4(h=0.05),
                "adaptive": Adaptive(h0=0.05, h_max=0.05, rel_tol=1e-3,
                                     abs_tol=1e-3)}

    @staticmethod
    def _bound_state(mode, gap, integrator="rk4"):
        """lasso-small and a state whose x-update solution is its own x,
        the known primal point, with the x-prox input of the inactive entry
        2 at distance `gap` inside the bound |u| <= t w of its zero piece,
        for the closed-form `auto` step or for M1 = M2 = 0.5 I
        (`TestPieceMaps._lasso_state`), and one step of `ONE_STEP`."""
        integrator = TestStepMaps.ONE_STEP[integrator]
        if mode == "general":
            p, m1, m2, s = TestPieceMaps._lasso_state(gap)
            return p, FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2,
                                 horizon=0.05, integrator=integrator), s
        p = catalog("lasso-small")
        tau = resolve_tau("auto", p, 1.0, 0.5)
        x = np.array(p.known_primal)
        tw = 0.05 * tau.tau0
        # the prox input is x - tau0 A* y at z = A x, so A* y = -w xi puts
        # entry j at x_j + tau0 w xi_j
        xi = np.sign(x)
        xi[[0, 2, 3, 7]] = [0.3, 1.0 - gap / tw, -0.2, 0.1]
        y = np.linalg.lstsq(p.A.mat.T, -0.05 * xi, rcond=None)[0]
        return p, FlowParams(c=1.0, gamma=0.5, tau=tau, horizon=0.05,
                             integrator=integrator), \
            np.concatenate((x, p.A.apply(x), y))

    @pytest.mark.parametrize("integrator", ["rk4", "adaptive"])
    @pytest.mark.parametrize("gap", [0.0, 0.5 * stepmaps.PIECE_MARGIN, 0.005])
    @pytest.mark.parametrize("mode", ["closed-form", "general"])
    def test_state_at_a_bound_takes_the_stagewise_step(self, mode, gap,
                                                       integrator,
                                                       monkeypatch):
        """With the map of its own piece current, a state whose prox input
        lies on its region's bound, or inside it by less than the margin,
        takes the stagewise step, with the bits of a run that has no map
        yet; one inside by 0.005 takes the map step, within 1e-13."""
        p, params, s = self._bound_state(mode, gap, integrator)
        state = SystemState(s[:p.n], s[p.n:p.n + p.m], s[p.n + p.m:])
        plain = integrate(p, params, state)
        _primed(monkeypatch, p, params, s)
        got = integrate(p, params, state)
        assert got.map_steps == (gap > stepmaps.PIECE_MARGIN)
        if got.map_steps:
            assert _rel_gap(got.U[-1], plain.U[-1]) <= 1e-13
        else:
            assert got.U.tobytes() == plain.U.tobytes()

    @pytest.mark.parametrize("integrator", ["rk4", "adaptive"])
    @pytest.mark.parametrize("index,value", [
        (0, math.nan), (3, math.inf), (10, -math.inf), (25, math.nan)])
    def test_non_finite_state_raises_as_without_maps(self, index, value,
                                                     integrator, monkeypatch):
        """A NaN or inf in x, z or y fails the certificate of the map of
        the clean state's piece, and the run raises the IntegrationError
        of a run that has no map yet, with the same message."""
        p, params, s = self._bound_state("closed-form", 0.005, integrator)
        bad = s.copy()
        bad[index] = value
        state = SystemState(bad[:p.n], bad[p.n:p.n + p.m], bad[p.n + p.m:])
        messages, seen = [], []
        for primed in (False, True):
            with monkeypatch.context() as patch:
                if primed:
                    _primed(patch, p, params, s, seen)
                with np.errstate(all="ignore"), \
                        pytest.raises(IntegrationError) as info:
                    integrate(p, params, state)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        maps, current = seen[0]
        maps.current = current
        with np.errstate(all="ignore"):
            assert maps.step(bad) is None
        assert maps.step(s) is not None

    @pytest.mark.parametrize("integrator,gamma,seed", [
        (RK4(h=0.5), 0.5, 1), (RK4(h=0.5), 1.0, 2)])
    def test_trajectory_does_not_depend_on_what_was_kept(
            self, integrator, gamma, seed, monkeypatch):
        """l1-box runs to T = 40 that come back to a piece they left: with
        room for one step map, every change of piece drops the last map,
        more maps are built, and the trajectory is the same bit for bit."""
        p, params = _step_map_case("l1-box", integrator, horizon=40.0,
                                   gamma=gamma)
        s0 = next(_radius_starts(p, 1, seed=seed))
        builds = []
        real = stepmaps._StepMaps._build

        def counting(self, piece):
            builds.append(1)
            return real(self, piece)

        monkeypatch.setattr(stepmaps._StepMaps, "_build", counting)
        kept = integrate(p, params, s0)
        kept_builds = len(builds)
        monkeypatch.setattr(stepmaps, "STEP_MAPS", 0)
        monkeypatch.setattr(stepmaps, "STEP_MAP_FLOATS", 0)
        builds.clear()
        rebuilt = integrate(p, params, s0)
        assert len(builds) > kept_builds
        assert kept.map_steps == rebuilt.map_steps > 0
        assert kept.U.tobytes() == rebuilt.U.tobytes()
        assert kept.erg.tobytes() == rebuilt.erg.tobytes()

    @pytest.mark.parametrize("name", CASES)
    def test_euler_runs_take_no_maps(self, name):
        """An Euler run, unit steps to T = 100 or steps of 0.05 to T = 5,
        builds no map and keeps the stagewise bits."""
        for h, horizon in ((1.0, 100.0), (0.05, 5.0)):
            p, params = _step_map_case(name, Euler(h=h), horizon=horizon)
            s0 = next(_radius_starts(p, 1))
            got = integrate(p, params, s0)
            assert got.map_steps == 0
            plain = _reference_integrate(p, params, s0, maps=False)
            assert got.U.tobytes() == plain.U.tobytes()

    @pytest.mark.parametrize("mode", ["closed-form", "general"])
    def test_adaptive_map_step_needs_a_small_error(self, mode, monkeypatch):
        """With the map of its own piece current and its certificate
        holding, a state takes the map step when the map's error estimate
        passes `MAP_STEP_ERR`, and at tolerances of 1e-12, where it does
        not, takes the stagewise trials, with the bits of a run that has
        no map yet."""
        certified = []
        real = stepmaps._StepMaps.step

        def step(self, u):
            r = real(self, u)
            certified.append(r is not None)
            return r

        monkeypatch.setattr(stepmaps._StepMaps, "step", step)
        for tol, map_steps in ((1e-3, 1), (1e-12, 0)):
            p, params, s = self._bound_state(mode, 0.005, "adaptive")
            params = replace(params, integrator=replace(
                params.integrator, rel_tol=tol, abs_tol=tol))
            state = SystemState(s[:p.n], s[p.n:p.n + p.m], s[p.n + p.m:])
            plain = integrate(p, params, state)
            certified.clear()
            with monkeypatch.context() as patch:
                _primed(patch, p, params, s)
                got = integrate(p, params, state)
            assert certified[0]
            assert got.map_steps == map_steps
            if map_steps:
                assert _rel_gap(got.U[-1], plain.U[-1]) <= 1e-13
            else:
                assert got.U.tobytes() == plain.U.tobytes()
                assert got.rhs_evals == plain.rhs_evals

    @pytest.mark.parametrize("name", ["lasso-small", "box-qp"])
    def test_adaptive_runs_under_the_length_rule_take_no_maps(self, name):
        """An adaptive run shorter than `ADAPTIVE_MAP_MIN_STEPS` steps of
        h_max builds no map and keeps the stagewise bits; one that long
        takes maps."""
        steps = stepmaps.ADAPTIVE_MAP_MIN_STEPS
        p, params = _step_map_case(name, Adaptive(), horizon=steps - 0.5)
        s0 = next(_radius_starts(p, 1))
        short = integrate(p, params, s0)
        assert short.map_steps == 0
        plain = _reference_integrate(p, params, s0, maps=False)
        assert short.t.tobytes() == plain.t.tobytes()
        assert short.U.tobytes() == plain.U.tobytes()
        longer = replace(params, horizon=float(steps))
        assert integrate(p, longer, s0).map_steps > 0

    @pytest.mark.parametrize("name", ["lasso-small", "box-qp"])
    def test_short_runs_take_no_maps(self, name):
        """An RK4 run of fewer than `STEP_MAP_MIN_STEPS` full steps builds
        no map and keeps the stagewise bits; one of that many takes maps."""
        steps = stepmaps.STEP_MAP_MIN_STEPS
        p, params = _step_map_case(name, RK4(h=0.05),
                                   horizon=0.05 * (steps - 0.5))
        s0 = next(_radius_starts(p, 1))
        short = integrate(p, params, s0)
        assert len(short.t) == steps + 1 and short.map_steps == 0
        plain = _reference_integrate(p, params, s0, maps=False)
        assert short.U.tobytes() == plain.U.tobytes()
        longer = replace(params, horizon=0.05 * steps)
        assert integrate(p, longer, s0).map_steps > 0

    def test_maps_past_the_size_limit_are_not_built(self, monkeypatch):
        """A 16 x 24 lasso's RK4 map may have 23 408 floats, so fewer than
        `STEP_MAPS` fit in the budget: the run builds no map and keeps the
        stagewise bits.  A budget with room for them takes maps."""
        rng = np.random.default_rng(5)
        n, m = 24, 16
        A = linops.LinearMap.from_dense(rng.standard_normal((m, n)))
        p = ProblemSpec(name="lasso-16x24", f=l1_norm(n, 0.05),
                        h=zero_smooth(n), A=A,
                        g=sq_distance(m, rng.standard_normal(m)))
        params = FlowParams(c=1.0, gamma=0.5,
                            tau=resolve_tau("auto", p, 1.0, 0.5),
                            horizon=5.0, integrator=RK4(h=0.05))
        s0 = next(_radius_starts(p, 1))
        got = integrate(p, params, s0)
        assert got.map_steps == 0
        plain = _reference_integrate(p, params, s0, maps=False)
        assert got.U.tobytes() == plain.U.tobytes()
        monkeypatch.setattr(stepmaps, "STEP_MAP_FLOATS", 16 * 23_408)
        assert integrate(p, params, s0).map_steps > 0

    @pytest.mark.parametrize("name", ["example1", "lasso-small", "box-qp",
                                      "l1-box", "ridge-identity", "general"])
    def test_kernel_piece_map_is_the_update(self, name, monkeypatch):
        """At the states of an RK4 run, the piece map of the update's own
        outputs gives its row to 1e-13 relative, and its prox inputs lie
        inside their region: at every state for the constant-step kernel,
        and for the general path at each state whose evaluation its piece
        map certified, with no `metric_prox` solve (48 of 101 here, from
        the state's own x and z)."""
        p, params = _step_map_case(name, RK4(h=0.05))
        update = _update_of(p, params)
        key_of, piece_at, warm = update.pieces
        assert warm == (name == "general")
        n, iy, width = p.n, p.n + p.m, p.n + 2 * p.m
        states = integrate(p, params, next(_radius_starts(p, 1))).U
        solves = _count_metric_prox(monkeypatch)
        checked = 0
        for s in states:
            row = np.empty_like(s)
            before = len(solves)
            update(0.0, s, row)
            if len(solves) > before:
                continue
            checked += 1
            mat, lo, hi = piece_at(row[:n], row[n:iy])
            got = mat.dot(np.append(s, 1.0))
            assert _rel_gap(got[:width], row) <= 1e-13
            assert np.all((lo <= got[width:]) & (got[width:] <= hi))
        assert checked >= 0.4 * len(states)


class TestAdaptiveStepCap:
    @pytest.mark.parametrize("name", ["example1", "lasso-small"])
    def test_no_step_exceeds_h_max(self, name):
        """A first trial of h0 = 3 above h_max = 1, and the retries of its
        rejections, are capped too."""
        p = catalog(name)
        integ = Adaptive(h0=3.0, rel_tol=0.1, abs_tol=1e-3)
        params = FlowParams(c=1.0, gamma=0.5,
                            tau=resolve_tau("auto", p, 1.0, 0.5),
                            horizon=20.0, integrator=integ)
        traj = integrate(p, params)
        assert traj.stop_reason == "horizon"
        assert np.diff(traj.t).max() <= integ.h_max * (1 + 1e-12)
