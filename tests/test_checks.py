"""Tests for the invariant check suite."""

from dataclasses import replace

import numpy as np
import pytest

from pdflow import checks, proxlib
from pdflow.checks import CheckResult, render_report, run_checks
from pdflow.config import INTEGRATORS, RunConfig, build_flow_params
from pdflow.flow import FlowParams, RK4, SystemState, integrate
from pdflow.linops import LinearMap, SelfAdjointPSD
from pdflow.linops import psd_floor
from pdflow.metric import MetricSchedule, TauSchedule, x_update_metric
from pdflow.problems import CATALOG_NAMES, ProblemSpec, catalog
from pdflow.proxlib import metric_prox


def _params(tau=0.25, gamma=0.5):
    return FlowParams(c=1.0, gamma=gamma, tau=TauSchedule.constant(tau),
                      horizon=100.0, integrator=RK4(h=0.01))


def _start(p):
    x0, z0, y0 = p.default_start()
    return SystemState(x0, z0, y0, 0.0)


class TestRunChecks:
    def test_example1_all_pass(self, example1):
        results = run_checks(example1, _params(), _start(example1))
        assert len(results) == 11
        assert all(r.ok for r in results), render_report(results)
        assert all(r.status == "ok" for r in results)

    def test_expected_check_names(self, example1):
        results = run_checks(example1, _params(), _start(example1))
        names = [r.name for r in results]
        assert names == [
            "adjoint-consistency", "prox-firm-nonexpansive",
            "prox-resolvent-identity", "certified-conditions",
            "saddle-stationarity", "dual-line-consistency",
            "frozen-solution-kkt", "subproblem-lipschitz",
            "ergodic-identity", "lyapunov-descent",
            "unit-step-equivalence"]

    @pytest.mark.parametrize("name,tau", [("lasso-small", 0.2),
                                          ("box-qp", 0.12)])
    def test_other_catalog_problems_pass(self, name, tau):
        p = catalog(name)
        results = run_checks(p, _params(tau=tau, gamma=1.0), _start(p))
        assert all(r.ok for r in results), render_report(results)

    def test_general_metric_mode_skips_lipschitz(self, example1):
        m1 = MetricSchedule.tau_family(TauSchedule.constant(0.25), 1.0,
                                       example1.A)
        params = FlowParams(c=1.0, gamma=0.5, m1=m1, horizon=100.0,
                            integrator=RK4(h=0.01))
        results = run_checks(example1, params, _start(example1))
        names = [r.name for r in results]
        assert "subproblem-lipschitz" not in names
        assert all(r.ok for r in results), render_report(results)

    def test_unsolved_problem_skips_solution_checks(self):
        p = ProblemSpec(name="anon", f=proxlib.sq_norm(2),
                        h=proxlib.zero_smooth(2), g=proxlib.l1_norm(2),
                        A=LinearMap.from_dense([[1.0, -1.0], [1.0, 1.0]]))
        s0 = SystemState(np.ones(2), p.A.apply(np.ones(2)), np.zeros(2), 0.0)
        results = run_checks(p, _params(), s0)
        by_name = {r.name: r for r in results}
        assert by_name["saddle-stationarity"].status == "skip"
        assert by_name["frozen-solution-kkt"].status == "skip"
        assert by_name["lyapunov-descent"].status == "skip"
        assert all(r.ok for r in results)

    def test_broken_adjoint_is_caught(self):
        """A map whose adjoint is wrong must fail the adjoint consistency
        check; other algebraic checks keep running."""
        mat = np.array([[1.0, -1.0], [1.0, 1.0]])
        bad_a = LinearMap(2, 2,
                          apply=lambda x: mat @ x,
                          adjoint=lambda y: mat @ y)  # not the transpose
        p = ProblemSpec(name="broken", f=proxlib.sq_norm(2),
                        h=proxlib.zero_smooth(2), g=proxlib.l1_norm(2),
                        A=bad_a)
        s0 = SystemState(np.ones(2), bad_a.apply(np.ones(2)), np.zeros(2),
                         0.0)
        results = run_checks(p, _params(), s0)
        by_name = {r.name: r for r in results}
        assert by_name["adjoint-consistency"].status == "FAIL"

    def test_ergodic_identity_compares_vectors(self, example1):
        """Negating x_tilde and z_tilde keeps ||A x_tilde - z_tilde|| but
        breaks the vector identity A x_tilde - z_tilde = (y - y0) / (c t)."""
        params = replace(_params(), horizon=5.0)
        s0 = _start(example1)
        traj = integrate(example1, params, s0)
        good = checks._check_ergodic_identity(example1, params, s0, traj)
        assert good.status == "ok", good.detail
        flipped = replace(traj, erg=-traj.erg)
        bad = checks._check_ergodic_identity(example1, params, s0, flipped)
        assert bad.status == "FAIL", bad.detail

    def test_unit_step_equivalence_fails_on_short_run(self, example1,
                                                      monkeypatch):
        """A discrete run that stops early is a failure, not a comparison
        over its prefix."""
        real = checks.discrete_run

        def short(*args, **kwargs):
            out = real(*args, **kwargs)
            return replace(out, U=out.U[:-5], residuals=out.residuals[:-5],
                           stop_reason="divergence")

        monkeypatch.setattr(checks, "discrete_run", short)
        result = checks._check_euler_equivalence(example1, _params(),
                                                 _start(example1))
        assert result.status == "FAIL"
        assert "21 discrete iterates vs 26 Euler records" in result.detail

    @pytest.mark.parametrize("horizon,steps", [(100.0, 25), (3.7, 3),
                                               (1.0, 1)])
    def test_unit_step_equivalence_stays_inside_the_horizon(
            self, example1, horizon, steps):
        result = checks._check_euler_equivalence(
            example1, replace(_params(), horizon=horizon), _start(example1))
        assert result.status == "ok", result.detail
        assert result.detail.endswith(f"over {steps} steps")

    def test_unit_step_equivalence_skips_a_horizon_under_one_step(
            self, example1):
        result = checks._check_euler_equivalence(
            example1, replace(_params(), horizon=0.5), _start(example1))
        assert (result.status, result.detail) == (
            "skip", "horizon holds no unit step")

    def test_saddle_start_passes(self, example1):
        """From the exact saddle the KKT residual is 0 at k = 0; the
        unit-step comparison still runs every step."""
        s0 = SystemState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
        results = run_checks(example1, _params(), s0)
        assert all(r.ok for r in results), render_report(results)

    def test_seed_changes_draws_not_verdicts(self, example1):
        r0 = run_checks(example1, _params(), _start(example1), seed=0)
        r1 = run_checks(example1, _params(), _start(example1), seed=12345)
        assert [r.status for r in r0] == [r.status for r in r1]

    def test_closed_form_operator_norms_do_not_grow_with_rhs_calls(
            self, monkeypatch, operator_norm_calls):
        """||A|| is computed once per map, so a closed-form check computes
        as many norms when its certificate test, which reads ||A||, and
        each call of its update are repeated."""
        real_make, real_check = checks._make_update, checks._check_rhs_time
        counts = []
        for repeats in (1, 3):
            rhs_calls = []

            def make_repeated(*make_args, repeats=repeats, rhs_calls=rhs_calls):
                update = real_make(*make_args)

                def repeated(*args):
                    for _ in range(repeats):
                        rhs_calls.append(1)
                        out = update(*args)
                    return out
                return repeated

            def check_repeated(*args, repeats=repeats):
                for _ in range(repeats):
                    real_check(*args)

            monkeypatch.setattr(checks, "_make_update", make_repeated)
            monkeypatch.setattr(checks, "_check_rhs_time", check_repeated)
            operator_norm_calls.clear()
            p = catalog("example1")
            results = run_checks(p, _params(), _start(p))
            assert all(r.ok for r in results), render_report(results)
            counts.append((len(operator_norm_calls), len(rhs_calls)))
        assert counts[1][1] == 3 * counts[0][1]
        assert counts[0][0] == counts[1][0]


def _suite_params(p, integrator, mode):
    """h = 0.05, T = 5, gamma 0.5 and the config's `auto` tau; in
    general-metric mode M1 = M2 = s I instead of the tau family."""
    cfg = RunConfig(problem=p.name, gamma=0.5, tau="auto",
                    integrator=integrator, step=0.05, horizon=5.0)
    params = build_flow_params(cfg, p)
    if mode == "closed-form":
        return params
    # with s = 0.5 box-qp fails Theorem 4's PSD test; s = 5 certifies
    s = 5.0 if p.name == "box-qp" else 0.5
    return replace(params, tau=None,
                   m1=MetricSchedule.constant(SelfAdjointPSD.identity(p.n, s)),
                   m2=MetricSchedule.constant(SelfAdjointPSD.identity(p.m, s)))


class TestInvariantSuite:
    """The whole check suite holds for every integrator, mode and catalog
    problem, not only the defaults."""

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    @pytest.mark.parametrize("mode", ["closed-form", "general-metric"])
    @pytest.mark.parametrize("integrator", INTEGRATORS)
    def test_every_row_ok(self, integrator, mode, name):
        p = catalog(name)
        results = run_checks(p, _suite_params(p, integrator, mode), _start(p))
        assert all(r.status == "ok" for r in results), render_report(results)


# The sampled checks as one-sample-at-a-time loops, the reference for the
# batched checks: same draws from the shared rng, same verdicts and details.


def _loop_adjoint(p, rng):
    worst = 0.0
    for _ in range(200):
        x = rng.standard_normal(p.n)
        y = rng.standard_normal(p.m)
        lhs = float(p.A.apply(x) @ y)
        rhs_ = float(x @ p.A.adjoint_apply(y))
        worst = max(worst, abs(lhs - rhs_) / max(1.0, abs(lhs)))
    return checks._result("adjoint-consistency", worst <= 1e-10,
                          f"max relative defect {worst:.2e} over 200 pairs")


def _loop_firm_nonexpansive(p, rng):
    worst = -np.inf
    for fn, dim in ((p.f, p.n), (p.g, p.m)):
        for tau in (0.1, 1.0, 10.0):
            for _ in range(100):
                u = 5.0 * rng.standard_normal(dim)
                v = 5.0 * rng.standard_normal(dim)
                d = fn.prox(tau, u) - fn.prox(tau, v)
                worst = max(worst, float(d @ d) - float(d @ (u - v)))
    return checks._result("prox-firm-nonexpansive", worst <= 1e-10,
                          f"max violation {worst:.2e} over 600 pairs")


def _loop_resolvent_identity(p, rng):
    worst = 0.0
    for fn, dim in ((p.f, p.n), (p.g, p.m)):
        for _ in range(200):
            u = 5.0 * rng.standard_normal(dim)
            v = fn.prox(1.0, u)
            w = fn.prox(0.5, 0.5 * u + 0.5 * v)
            worst = max(worst, float(np.linalg.norm(w - v)))
    return checks._result("prox-resolvent-identity", worst <= 1e-10,
                          f"max defect {worst:.2e} over 400 pairs")


def _loop_lipschitz(p, params, rng):
    m1, _ = checks.schedules(p, params.c, params.tau, params.m1, params.m2)
    metric = x_update_metric(m1, params.c, p.A, 0.0)
    bound = params.c / psd_floor(metric, strict=False)
    worst = 0.0
    for _ in range(300):
        a = 3.0 * rng.standard_normal(p.n)
        b = 3.0 * rng.standard_normal(p.n)
        sa = metric_prox(p.f, metric, -params.c * a, a, tol=1e-12)
        sb = metric_prox(p.f, metric, -params.c * b, b, tol=1e-12)
        gap = float(np.linalg.norm(a - b))
        if gap > 1e-12:
            worst = max(worst, float(np.linalg.norm(sa - sb)) / gap)
    return checks._result("subproblem-lipschitz", worst <= bound + 1e-8,
                          f"max ratio {worst:.6f} vs bound c/alpha = "
                          f"{bound:.6f}")


class TestSampledChecks:
    """Each sampled check draws its samples as one block and evaluates
    them in one call; it must read the same numbers from the rng as the
    loop, and leave the rng where the loop leaves it."""

    @staticmethod
    def _same(batched, loop, *args):
        rngs = np.random.default_rng(5), np.random.default_rng(5)
        assert batched(*args, rngs[0]) == loop(*args, rngs[1])
        assert rngs[0].standard_normal() == rngs[1].standard_normal()

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_match_one_sample_loops(self, name):
        p = catalog(name)
        self._same(checks._check_adjoint, _loop_adjoint, p)
        self._same(checks._check_firm_nonexpansive, _loop_firm_nonexpansive,
                   p)
        self._same(checks._check_resolvent_identity, _loop_resolvent_identity,
                   p)
        self._same(checks._check_lipschitz, _loop_lipschitz, p,
                   _params(tau=0.12, gamma=1.0))

    def test_lipschitz_with_a_dense_metric(self):
        """A general M1 makes a dense x-subproblem metric, solved row by
        row."""
        p = catalog("lasso-small")
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5))
        params = FlowParams(c=1.0, gamma=0.5, m1=m1, horizon=5.0,
                            integrator=RK4(h=0.05))
        self._same(checks._check_lipschitz, _loop_lipschitz, p, params)

    def test_adjoint_of_a_closure_map(self):
        """Closures that take one point go through the per-row fallback."""
        mat = np.array([[1.0, -1.0], [1.0, 1.0], [0.5, 2.0]])
        a = LinearMap(2, 3, apply=lambda x: mat @ x,
                      adjoint=lambda y: mat.T @ y)
        p = ProblemSpec(name="closure", f=proxlib.sq_norm(2),
                        h=proxlib.zero_smooth(2), g=proxlib.l1_norm(3), A=a)
        self._same(checks._check_adjoint, _loop_adjoint, p)


class TestRenderReport:
    def test_all_pass_summary_line(self):
        rows = [CheckResult("a", "ok", "fine"),
                CheckResult("b", "skip", "nothing to do")]
        text = render_report(rows)
        assert "2 of 2 checks passed" in text
        assert "failed" not in text

    def test_failure_is_visible(self):
        rows = [CheckResult("a", "ok", "fine"),
                CheckResult("b", "FAIL", "worst 0.5")]
        text = render_report(rows)
        assert "1 of 2 checks passed, 1 failed" in text
        assert "FAIL b: worst 0.5" in text
