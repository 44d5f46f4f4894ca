"""Tests for the trace, Lyapunov, and rate-certificate layer."""

import math
from dataclasses import replace

import numpy as np
import pytest

from pdflow import proxlib
from pdflow.diagnostics import (CSV_FIELDS, DEFAULT_GRID, RateCertificate,
                                Trace, certify_rates, first_hit_time,
                                initial_weighted_distance, sweep_summary,
                                trace_discrete, trace_flow)
from pdflow.discrete import DiscreteParams, run
from pdflow.errors import MissingSolutionError
from pdflow.flow import FlowParams, RK4, SystemState, integrate
from pdflow.linops import LinearMap, SelfAdjointPSD
from pdflow.metric import MetricSchedule, TauSchedule
from pdflow.problems import ProblemSpec, catalog

from oracles import lyapunov

_ZERO2 = MetricSchedule.zero(2)


def _params(tau=0.25, gamma=0.5, horizon=2.0, h=0.01):
    return FlowParams(c=1.0, gamma=gamma, tau=TauSchedule.constant(tau),
                      horizon=horizon, integrator=RK4(h=h))


def _start():
    return SystemState(np.array([-10.0, 10.0]), np.array([-20.0, 0.0]),
                       np.array([-10.0, 10.0]), 0.0)


def _assert_lyapunov_matches(p, trace, t, U, m1_at, gamma, m2=_ZERO2):
    """The Lyapunov column equals the dense textbook form (`oracles.lyapunov`)
    under the metric of each record's own time (or iteration) t, at its row
    x | z | y of U, to 1e-12 relative."""
    n, m = p.n, p.m
    ref = [lyapunov(p, m1_at(ti), m2, 1.0, gamma, ti,
                    SystemState(u[:n], u[n:n + m], u[n + m:], ti))
           for ti, u in zip(t, U)]
    np.testing.assert_allclose(trace.lyapunov, ref, rtol=1e-12, atol=0.0)


def _step_metric(p, d):
    """k -> the per-iteration metric I / tau_k - c A*A of a discrete run."""
    return lambda k: MetricSchedule.tau_family(
        TauSchedule.constant(d.tau.value(k)), d.c, p.A)


def _dense_psd(dim, seed, shift):
    """B B^T / dim + shift I for a standard normal B."""
    b = np.random.default_rng(seed).standard_normal((dim, dim))
    return SelfAdjointPSD.from_dense(b @ b.T / dim + shift * np.eye(dim))


def _general_metrics(name):
    """(M1, M2) constants on lasso-small (n = 8, m = 12): 0.5 I for both,
    as the benchmark runs it, a dense M1, and a dense M2."""
    half = (MetricSchedule.constant(SelfAdjointPSD.identity(8, 0.5)),
            MetricSchedule.constant(SelfAdjointPSD.identity(12, 0.5)))
    if name == "half":
        return half
    if name == "dense-m1":
        return MetricSchedule.constant(_dense_psd(8, 41, 0.2)), half[1]
    return half[0], MetricSchedule.constant(_dense_psd(12, 43, 0.1))


def _lasso_start():
    rng = np.random.default_rng(47)
    return SystemState(3.0 * rng.standard_normal(8),
                       3.0 * rng.standard_normal(12),
                       3.0 * rng.standard_normal(12), 0.0)


class TestLyapunov:
    """The gap-bound numerator W0 = ||U0 - (x*, A x*, 0)||^2 in W(0), on
    example1, whose known dual is 0, so W0 is the Lyapunov value at t = 0."""

    def test_unweighted_block_values(self, example1, start_state):
        """M1 = M2 = 0, gamma = 1, c = 1: the x block vanishes, leaving
        c ||z||^2 + ||y||^2 / c = 400 + 200 = 600 at the documented start."""
        s = SystemState(*start_state, 0.0)
        assert lyapunov(example1, _ZERO2, _ZERO2, 1.0, 1.0, 0.0, s) == 600.0

    def test_step_family_block_values(self, example1, start_state):
        s = SystemState(*start_state, 0.0)
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.49), 1.0,
                                       example1.A)
        v1 = initial_weighted_distance(example1, m1, _ZERO2, 1.0, 1.0, s)
        assert v1 == pytest.approx((1.0 / 0.49 - 2.0) * 200.0 + 600.0)
        v2 = initial_weighted_distance(example1, m1, _ZERO2, 1.0, 0.5, s)
        assert v2 == pytest.approx((1.0 / 0.49 - 1.0) * 200.0 + 600.0)
        for gamma, v in ((1.0, v1), (0.5, v2)):
            assert lyapunov(example1, m1, _ZERO2, 1.0, gamma, 0.0, s) \
                == pytest.approx(v, rel=1e-14)

    def test_quadratic_scaling(self, example1, start_state):
        x, z, y = start_state
        v1 = initial_weighted_distance(example1, _ZERO2, _ZERO2, 1.0, 1.0,
                                       SystemState(x, z, y, 0.0))
        v2 = initial_weighted_distance(example1, _ZERO2, _ZERO2, 1.0, 1.0,
                                       SystemState(2 * x, 2 * z, 2 * y, 0.0))
        assert v2 == pytest.approx(4.0 * v1)

    def test_zero_at_saddle(self, example1):
        s = SystemState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
        assert initial_weighted_distance(example1, _ZERO2, _ZERO2, 1.0, 1.0,
                                         s) == 0.0
        assert lyapunov(example1, _ZERO2, _ZERO2, 1.0, 1.0, 0.0, s) == 0.0

    def test_requires_known_saddle(self):
        p = ProblemSpec(name="bare", f=proxlib.zero(2),
                        h=proxlib.zero_smooth(2), g=proxlib.zero(2),
                        A=LinearMap.identity(2))
        s = SystemState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
        with pytest.raises(MissingSolutionError):
            lyapunov(p, _ZERO2, _ZERO2, 1.0, 1.0, 0.0, s)
        with pytest.raises(MissingSolutionError):
            initial_weighted_distance(p, _ZERO2, _ZERO2, 1.0, 1.0, s)

    def test_initial_distance_references_zero_dual(self, example1,
                                                   start_state):
        """The gap-bound numerator measures the start against (x*, Ax*, 0);
        for this problem the known dual is 0 so it agrees with the
        Lyapunov value."""
        s = SystemState(*start_state, 0.0)
        w0 = initial_weighted_distance(example1, _ZERO2, _ZERO2, 1.0, 1.0, s)
        assert w0 == pytest.approx(600.0)
        assert w0 == pytest.approx(
            lyapunov(example1, _ZERO2, _ZERO2, 1.0, 1.0, 0.0, s), rel=1e-14)

    def test_null_space_difference_reads_zero(self, example1):
        """A start that differs from the saddle only along W's null space
        reads exactly 0.0: M1 = [[1, 1], [1, 1]] at gamma = 1 sends
        x - x* = (3, -3) to 0, and z = A x*, y = 0."""
        m1 = MetricSchedule.constant(
            SelfAdjointPSD.from_dense([[1.0, 1.0], [1.0, 1.0]]))
        s = SystemState(np.array([3.0, -3.0]), np.zeros(2), np.zeros(2), 0.0)
        assert initial_weighted_distance(example1, m1, _ZERO2, 1.0, 1.0,
                                         s) == 0.0

    def test_clearly_negative_passes_through(self, example1):
        """An indefinite weight is not silently repaired: the caller sees
        the negative value and decides what to do."""
        m1 = MetricSchedule.constant(
            SelfAdjointPSD(LinearMap.from_dense(-np.eye(2))))
        s = SystemState(np.array([2.0, 0.0]), np.zeros(2), np.zeros(2), 0.0)
        assert initial_weighted_distance(example1, m1, _ZERO2, 1.0, 1.0,
                                         s) == pytest.approx(-4.0)

    @pytest.mark.parametrize("metrics", ["half", "dense-m1", "dense-m2"])
    @pytest.mark.parametrize("gamma", [0.5, 1.0])
    def test_general_metrics_match_oracle(self, metrics, gamma):
        """W0 under constant general metrics on lasso-small equals the dense
        textbook form at t = 0, measured against the saddle with its dual
        set to 0."""
        p = catalog("lasso-small")
        m1, m2 = _general_metrics(metrics)
        s = _lasso_start()
        w0 = initial_weighted_distance(p, m1, m2, 1.0, gamma, s)
        ref = lyapunov(replace(p, known_dual=np.zeros(p.m)), m1, m2, 1.0,
                       gamma, 0.0, s)
        assert w0 == pytest.approx(ref, rel=1e-12)


class TestTraceFlow:
    def test_fields_and_initial_row(self, example1):
        traj = integrate(example1, _params(), _start())
        trace = trace_flow(example1, _params(), traj)
        assert len(trace) == len(traj.states) == 201
        assert trace.t[0] == 0.0
        assert trace.dist_primal[0] == pytest.approx(math.sqrt(200.0))
        assert trace.feas[0] == pytest.approx(0.0)
        # x block is (1/tau - 2 + c(1-gamma) 2) I = 3 I at tau=0.25, gamma=0.5
        assert trace.lyapunov[0] == pytest.approx(3.0 * 200.0 + 600.0)
        assert math.isnan(trace.ergodic_feas[0])
        assert math.isnan(trace.ergodic_gap[0])

    def test_times_match_states(self, example1):
        traj = integrate(example1, _params(horizon=1.0), _start())
        trace = trace_flow(example1, _params(horizon=1.0), traj)
        assert trace.t.tolist() == [s.t for s in traj.states]

    def test_lyapunov_descends(self, example1):
        traj = integrate(example1, _params(horizon=5.0), _start())
        trace = trace_flow(example1, _params(horizon=5.0), traj)
        values = trace.lyapunov.tolist()
        assert all(b <= a + 1e-6 * (1 + a) for a, b in zip(values, values[1:]))

    def test_lyapunov_column_saturating_tau(self, example1):
        tau = TauSchedule.saturating(0.1, 0.45)
        params = FlowParams(c=1.0, gamma=0.5, tau=tau, horizon=2.0,
                            integrator=RK4(h=0.01))
        traj = integrate(example1, params, _start())
        m1 = MetricSchedule.tau_family(tau, 1.0, example1.A)
        _assert_lyapunov_matches(example1, trace_flow(example1, params, traj),
                                 traj.t, traj.U, lambda t: m1, 0.5)

    def test_lyapunov_column_moving_m2(self, example1):
        """A tau-family M2 moves the z block of W instead."""
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(2, 0.5))
        m2 = MetricSchedule.tau_family(TauSchedule.saturating(0.1, 0.45),
                                       1.0, example1.A)
        params = FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2, horizon=2.0,
                            integrator=RK4(h=0.01))
        traj = integrate(example1, params, _start())
        _assert_lyapunov_matches(example1, trace_flow(example1, params, traj),
                                 traj.t, traj.U, lambda t: m1, 0.5, m2)

    @pytest.mark.parametrize("metrics", ["half", "dense-m1", "dense-m2"])
    def test_lyapunov_column_general_metrics(self, metrics):
        """Constant general metrics on lasso-small: 0.5 I for both, a dense
        M1 and a dense M2."""
        p = catalog("lasso-small")
        m1, m2 = _general_metrics(metrics)
        params = FlowParams(c=1.0, gamma=0.5, m1=m1, m2=m2, horizon=1.0,
                            integrator=RK4(h=0.05))
        traj = integrate(p, params, _lasso_start())
        _assert_lyapunov_matches(p, trace_flow(p, params, traj), traj.t,
                                 traj.U, lambda t: m1, 0.5, m2)

    def test_ergodic_feasibility_identity(self, example1):
        """||A x_avg - z_avg|| must equal ||y(t) - y0|| / (c t): the dual
        update integrates the constraint violation exactly."""
        traj = integrate(example1, _params(horizon=5.0), _start())
        trace = trace_flow(example1, _params(horizon=5.0), traj)
        y0 = traj.states[0].y
        for e_feas, s in zip(trace.ergodic_feas[1:], traj.states[1:]):
            rhs_val = float(np.linalg.norm(s.y - y0)) / (1.0 * s.t)
            assert abs(e_feas - rhs_val) <= 1e-8

    @pytest.mark.parametrize("name", ["example1", "lasso-small", "box-qp"])
    def test_ergodic_gap_matches_per_row_loop(self, name):
        """The gap column is one row evaluation of f, h and g; each cell
        equals f(x~) + h(x~) + g(z~) - f* of its own row, blank at t = 0.
        Row 2's z~ is moved out of box-qp's box, so its gap is +inf."""
        from dataclasses import replace

        from pdflow.problems import catalog

        p = catalog(name)
        params = _params(tau=0.1, gamma=1.0, h=0.05)
        traj = integrate(p, params, None)
        erg = traj.erg.copy()
        erg[2, p.n:] = 3.0
        gap = trace_flow(p, params, replace(traj, erg=erg)).ergodic_gap
        opt = p.objective(p.known_primal)
        want = [np.nan] + [p.f(e[:p.n]) + p.h(e[:p.n]) + p.g(e[p.n:]) - opt
                           for e in erg[1:]]
        assert gap.tobytes() == np.array(want).tobytes()
        assert np.isinf(gap[2]) == (name == "box-qp")

    def test_csv_field_list_is_stable(self):
        assert CSV_FIELDS == ("t", "dist_primal", "dist_dual", "feas",
                              "lyapunov", "ergodic_feas", "ergodic_gap")


class TestTraceDiscrete:
    def test_iteration_index_column(self, example1):
        d = DiscreteParams(tau=0.25, max_iters=20, stop_tol=0.0)
        out = run(example1, d, _start())
        trace = trace_discrete(example1, d, out)
        assert trace.t.tolist() == list(range(21))
        assert np.isnan(trace.ergodic_feas).all()
        assert np.isnan(trace.ergodic_gap).all()

    def test_per_iteration_tau_schedule(self, example1):
        d = DiscreteParams(tau=TauSchedule.saturating(0.1, 0.3), gamma=0.5,
                           max_iters=5, stop_tol=0.0)
        out = run(example1, d, _start())
        _assert_lyapunov_matches(example1, trace_discrete(example1, d, out),
                                 np.arange(len(out.U), dtype=float), out.U,
                                 _step_metric(example1, d), 0.5)

    @pytest.mark.parametrize("metrics", ["half", "dense-m1", "dense-m2"])
    def test_lyapunov_column_general_metrics(self, metrics):
        p = catalog("lasso-small")
        m1, m2 = _general_metrics(metrics)
        d = DiscreteParams(c=1.0, gamma=1.0, m1=m1, m2=m2, max_iters=20,
                           stop_tol=0.0)
        out = run(p, d, _lasso_start())
        _assert_lyapunov_matches(p, trace_discrete(p, d, out),
                                 np.arange(len(out.U), dtype=float), out.U,
                                 lambda k: m1, 1.0, m2)

    def test_lyapunov_descends_for_admm(self, example1):
        d = DiscreteParams(tau=0.25, gamma=1.0, max_iters=60, stop_tol=0.0)
        out = run(example1, d, _start())
        trace = trace_discrete(example1, d, out)
        values = trace.lyapunov.tolist()
        assert all(b <= a + 1e-6 * (1 + a) for a, b in zip(values, values[1:]))


class TestFirstHit:
    def _trace(self, pairs):
        t, dist = zip(*pairs)
        return Trace(t=t, dist_primal=dist, feas=[0.0] * len(t))

    def test_first_crossing(self):
        trace = self._trace([(0.0, 5.0), (1.0, 0.3), (2.0, 0.009),
                             (3.0, 0.2), (4.0, 0.001)])
        assert first_hit_time(trace, 1e-2) == 2.0

    def test_never_hits(self):
        trace = self._trace([(0.0, 5.0), (1.0, 0.3)])
        assert first_hit_time(trace, 1e-2) == math.inf

    def test_zero_threshold_on_real_run(self, example1):
        traj = integrate(example1, _params(horizon=2.0), _start())
        trace = trace_flow(example1, _params(horizon=2.0), traj)
        assert first_hit_time(trace, 0.0) == math.inf


class TestCertifyRates:
    def test_empty_trace_rejected(self, example1):
        with pytest.raises(ValueError):
            certify_rates([], example1, 600.0)

    def test_clean_run_passes(self, example1):
        params = _params(horizon=5.0)
        traj = integrate(example1, params, _start())
        trace = trace_flow(example1, params, traj)
        w0 = initial_weighted_distance(example1,
                                       MetricSchedule.tau_family(
                                           params.tau, 1.0, example1.A),
                                       _ZERO2, 1.0, 0.5, _start())
        cert = certify_rates(trace, example1, w0)
        assert cert.gap_bound_ok and cert.lyapunov_monotone
        assert cert.all_ok()
        assert cert.gap_bound_margin > 0.0
        assert cert.feas_constant > 0.0
        assert cert.first_hit_time == math.inf, \
            "threshold is not reached on this short horizon"

    def test_saddle_start_is_trivially_certified(self, example1):
        params = _params(horizon=2.0)
        s0 = SystemState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
        traj = integrate(example1, params, s0)
        trace = trace_flow(example1, params, traj)
        cert = certify_rates(trace, example1, 0.0)
        assert cert.all_ok()
        assert cert.feas_constant <= 1e-10
        assert cert.first_hit_time == 0.0

    def test_grid_capped_to_trace_range(self, example1):
        params = _params(horizon=2.0)
        traj = integrate(example1, params, _start())
        trace = trace_flow(example1, params, traj)
        cert = certify_rates(trace, example1, 1200.0, grid=DEFAULT_GRID)
        assert math.isfinite(cert.feas_constant)

    def _trace(self, *rows):
        """Rows of (t, lyapunov, ergodic_gap); ergodic_feas is 0.0."""
        t, lyap, gap = zip(*rows)
        return Trace(t=t, dist_primal=[1.0] * len(t), feas=[0.0] * len(t),
                     lyapunov=lyap, ergodic_feas=[0.0] * len(t),
                     ergodic_gap=gap)

    def test_detects_lyapunov_increase(self, example1):
        trace = self._trace((0.0, 10.0, math.nan), (1.0, 10.5, math.nan))
        cert = certify_rates(trace, example1, 100.0, grid=(1.0,))
        assert not cert.lyapunov_monotone
        assert not cert.all_ok()

    def test_detects_gap_violation(self, example1):
        trace = self._trace((0.0, 10.0, math.nan), (1.0, 9.0, 60.0))
        cert = certify_rates(trace, example1, 100.0, grid=(1.0,))
        assert not cert.gap_bound_ok
        assert cert.gap_bound_margin < 0.0

    def test_infeasible_average_is_skipped(self, example1):
        trace = self._trace((0.0, 10.0, math.nan), (1.0, 9.0, math.inf))
        cert = certify_rates(trace, example1, 100.0, grid=(1.0,))
        assert cert.gap_bound_ok
        assert cert.gap_bound_margin == math.inf

    @pytest.mark.parametrize("w0", [math.inf, math.nan])
    def test_non_finite_w0_fails_gap_bound(self, example1, w0):
        """A W0 that overflowed bounds nothing, so the gap check fails and
        its margin is NaN, also where every gap cell is blank (a discrete
        run)."""
        for gap in (2.0, math.nan):
            trace = self._trace((0.0, 10.0, math.nan), (1.0, 9.0, gap))
            cert = certify_rates(trace, example1, w0, grid=(1.0,))
            assert not cert.gap_bound_ok
            assert math.isnan(cert.gap_bound_margin)
            assert cert.lyapunov_monotone

    @pytest.mark.parametrize("values", [(math.inf, math.inf), (math.inf, 9.0),
                                        (10.0, math.inf)])
    def test_infinite_lyapunov_fails_descent(self, example1, values):
        """inf - inf is NaN and inf then finite is a decrease, so neither
        excess alone is positive; an inf value itself fails descent."""
        trace = self._trace((0.0, values[0], math.nan),
                            (1.0, values[1], math.nan))
        cert = certify_rates(trace, example1, 100.0, grid=(1.0,))
        assert not cert.lyapunov_monotone
        assert cert.gap_bound_ok

    def test_blank_lyapunov_cells_are_skipped(self, example1):
        trace = self._trace((0.0, 10.0, math.nan), (1.0, math.nan, math.nan),
                            (2.0, 9.0, math.nan))
        cert = certify_rates(trace, example1, 100.0, grid=(1.0,))
        assert cert.all_ok()

    def test_unknown_distance_skips_gap_check(self, example1):
        trace = self._trace((0.0, 10.0, math.nan), (1.0, 9.0, 2.0))
        cert = certify_rates(trace, example1, None, grid=(1.0,))
        assert cert.gap_bound_ok

    def test_grid_tie_takes_earlier_record(self, example1):
        """A grid point midway between two records samples the earlier."""
        trace = Trace(t=[0.0, 1.0, 2.0], feas=[0.0] * 3,
                      ergodic_feas=[math.nan, 1.0, 1.0])
        cert = certify_rates(trace, example1, None, grid=(1.5,))
        assert cert.feas_constant == 1.0

    def test_flags_exclude_report_only_fields(self):
        cert = RateCertificate(feas_constant=3.0, gap_bound_ok=True,
                               gap_bound_margin=1.0, lyapunov_monotone=True,
                               first_hit_time=math.inf)
        assert set(cert.flags()) == {"gap_bound_ok", "lyapunov_monotone"}
        assert cert.all_ok()


def _certs_hitting_at(hits):
    """(gamma, tau*c) -> a passing RateCertificate with the given hit time."""
    return {k: RateCertificate(feas_constant=1.0, gap_bound_ok=True,
                               gap_bound_margin=1.0, lyapunov_monotone=True,
                               first_hit_time=hit)
            for k, hit in hits.items()}


class TestSweepSummary:
    def test_hit_table_and_flags(self):
        hits = {(0.01, 0.49): 12.0, (0.5, 0.49): 9.0, (0.99, 0.49): 8.0,
                (0.01, 0.10): 31.0, (0.5, 0.10): 29.0, (0.99, 0.10): 28.0}
        summary = sweep_summary(_certs_hitting_at(hits), hit_threshold=1e-2)
        assert len(summary.certificates) == 6
        assert summary.hit_monotone_in_gamma == {0.49: True, 0.10: True}
        # spreads: 4.0 at tau*c = 0.49, 3.0 at 0.10
        assert summary.spread_shrinks_with_tauc

    def test_detects_non_monotone_hits(self):
        hits = {(0.01, 0.49): 8.0, (0.5, 0.49): 9.0, (0.99, 0.49): 12.0}
        summary = sweep_summary(_certs_hitting_at(hits))
        assert summary.hit_monotone_in_gamma == {0.49: False}

    def test_certificates_attach_to_rows(self):
        cert = RateCertificate(feas_constant=3.5, gap_bound_ok=True,
                               gap_bound_margin=0.4, lyapunov_monotone=True,
                               first_hit_time=10.0)
        summary = sweep_summary({(0.5, 0.25): cert})
        assert summary.certificates == {(0.5, 0.25): cert}
        assert summary.certificates[0.5, 0.25] is cert
        assert summary.all_ok()
        cert.gap_bound_ok = False
        assert not summary.all_ok()

    def test_render_is_ordered_table(self):
        hits = {(0.01, 0.49): 12.0, (0.99, 0.49): 8.0,
                (0.01, 0.10): 31.0, (0.99, 0.10): 28.0}
        text = sweep_summary(_certs_hitting_at(hits)).render()
        lines = text.splitlines()
        assert "tau*c" in lines[1] and "first_hit" in lines[1]
        # rows come largest tau*c first, gamma ascending within a block
        first_row = lines[2].split()
        assert float(first_row[0]) == 0.49
        assert float(first_row[1]) == 0.01
        assert "attenuates" in text
