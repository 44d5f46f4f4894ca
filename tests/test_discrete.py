"""Tests for the discrete iterations and their match with the dynamics.

The headline property: one unit Euler step of the continuous system is one
proximal ADMM iteration, state for state, in both subproblem modes.  The
two forms of the primal-dual iteration must agree to near machine
precision because they are algebraic rearrangements of each other.
"""

import itertools

import numpy as np
import pytest

from pdflow import discrete, proxlib
from pdflow.diagnostics import trace_discrete
from pdflow.discrete import DIVERGENCE_LIMIT, DiscreteParams, run
from pdflow.errors import ConfigError, ToleranceNotMet
from pdflow.flow import Euler, FlowParams, SystemState, _start_row, integrate
from pdflow.linops import SelfAdjointPSD
from pdflow.metric import MetricSchedule, TauSchedule
from pdflow.problems import ProblemSpec, catalog, kkt_residual, kkt_residuals
from oracles import cp_step


def _start():
    return SystemState(np.array([-10.0, 10.0]), np.array([-20.0, 0.0]),
                       np.array([-10.0, 10.0]), 0.0)


def _assert_rows_agree(p, U_flow, U_disc):
    """Each block of each flow row is within 1e-12 of the discrete row's,
    relative to max(1, ||x^k||)."""
    n, m = p.n, p.m
    for u_flow, u_disc in zip(U_flow, U_disc):
        scale = max(1.0, float(np.linalg.norm(u_disc[:n])))
        for block in (slice(0, n), slice(n, n + m), slice(n + m, None)):
            gap = float(np.linalg.norm(u_flow[block] - u_disc[block]))
            assert gap <= 1e-12 * scale


class TestAdmmStep:
    def test_hand_derived_iteration(self, example1):
        """tau = 0.25, gamma = 0.5, c = 1 from the documented start.

        The x update shrinks (-10, 5) by 1.25 to (-8, 4); the relaxed point
        is (-9, 7) so soft thresholding A(.) + y at 1 gives z = (-25, 7);
        the dual ascent adds A x - z = (13, -11) to y."""
        d = DiscreteParams(c=1.0, gamma=0.5, tau=0.25)
        u1 = next(_steps(example1, d, _start_row(example1, _start()), "admm"))
        np.testing.assert_allclose(u1[0:2], [-8.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(u1[2:4], [-25.0, 7.0], atol=1e-12)
        np.testing.assert_allclose(u1[4:6], [3.0, -1.0], atol=1e-12)

    def test_fixed_point_at_saddle(self, example1):
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.25)
        u1 = next(_steps(example1, d, np.zeros(6), "admm"))
        assert np.abs(u1).max() <= 1e-12

    @pytest.mark.parametrize("metric", ["tau", "tau-family-m1"])
    def test_saturating_step_from_zero(self, example1, metric):
        """A saturating step is negative before k = 0, tau(-1) =
        0.2 - 0.15 e < 0, but every iterate steps from k = 0 on, where it
        is positive."""
        tau = TauSchedule.saturating(0.05, 0.2)
        if metric == "tau":
            d = DiscreteParams(c=1.0, gamma=0.5, tau=tau)
        else:
            d = DiscreteParams(c=1.0, gamma=0.5, m1=MetricSchedule.tau_family(
                tau, 1.0, example1.A))
        assert not tau.value(-1) > 0
        u1 = next(_steps(example1, d, _start_row(example1, _start()), "admm"))
        assert np.isfinite(u1[:2]).all()


class TestEulerEquivalence:
    def test_closed_form_mode(self, example1):
        """100 unit Euler steps reproduce 100 ADMM iterations exactly."""
        params = FlowParams(c=1.0, gamma=0.5, tau=TauSchedule.constant(0.25),
                            horizon=100.0, integrator=Euler(h=1.0))
        traj = integrate(example1, params, _start())
        d = DiscreteParams(c=1.0, gamma=0.5, tau=0.25, max_iters=100,
                           stop_tol=0.0)
        it = run(example1, d, _start())
        assert len(traj.U) == len(it.U) == 101
        _assert_rows_agree(example1, traj.U, it.U)

    def test_general_metric_mode(self, example1):
        """Same equivalence with explicit dense metrics on both updates."""
        m1 = MetricSchedule.constant(SelfAdjointPSD.from_dense(
            np.array([[1.2, 0.3], [0.3, 0.9]])))
        m2 = MetricSchedule.constant(SelfAdjointPSD.identity(2, 0.5))
        params = FlowParams(c=1.0, gamma=1.0, m1=m1, m2=m2,
                            inner_tol=1e-12, horizon=50.0,
                            integrator=Euler(h=1.0))
        traj = integrate(example1, params, _start())
        d = DiscreteParams(c=1.0, gamma=1.0, m1=m1, m2=m2,
                           inner_tol=1e-12, max_iters=50, stop_tol=0.0)
        it = run(example1, d, _start())
        _assert_rows_agree(example1, traj.U, it.U)


class TestPrimalDualForms:
    def test_two_forms_identical(self, example1):
        """The compact two-variable form (`oracles.cp_step`) and the
        explicit three-variable form, the gamma = 1 ADMM step from
        z0 = A x0, are rearrangements; iterate both for 100 steps and
        compare."""
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.25)
        x0, z0, y0 = example1.default_start()
        x, y, y_prev = x0.copy(), y0.copy(), y0.copy()
        explicit = _steps(example1, d, np.concatenate((x0, z0, y0)), "cp")
        worst = 0.0
        for k, u in zip(range(100), explicit):
            x_new, y_new = cp_step(example1, d, k, x, y, y_prev)
            y_prev, x, y = y, x_new, y_new
            worst = max(worst,
                        float(np.abs(u[:2] - x).max()),
                        float(np.abs(u[4:] - y).max()))
        assert worst <= 1e-14

    def test_requires_zero_smooth_part(self):
        p = catalog("box-qp")
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.1)
        with pytest.raises(ConfigError):
            cp_step(p, d, 0, np.zeros(6), np.zeros(6), np.zeros(6))
        with pytest.raises(ConfigError):
            run(p, d, algorithm="cp")

    def test_requires_full_relaxation(self, example1):
        d = DiscreteParams(c=1.0, gamma=0.5, tau=0.25)
        with pytest.raises(ConfigError):
            cp_step(example1, d, 0, np.zeros(2), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("metric", ["m1", "m2"])
    def test_requires_no_metric_schedules(self, example1, metric):
        """CP steps with tau; a set m1 would turn its x-step into a
        `metric_prox` solve, and m2 would change its z-step."""
        op = MetricSchedule.constant(SelfAdjointPSD.identity(2, 0.5))
        step = {} if metric == "m1" else {"tau": 0.25}
        d = DiscreteParams(c=1.0, gamma=1.0, **step, **{metric: op})
        with pytest.raises(ConfigError, match="m1 or m2"):
            run(example1, d, algorithm="cp")
        with pytest.raises(ConfigError, match="m1 or m2"):
            cp_step(example1, d, 0, np.zeros(2), np.zeros(2), np.zeros(2))
        assert run(example1, d, _start()).iterations > 0  # ADMM takes them

    def test_converges_on_example1(self, example1):
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.25, max_iters=500,
                           stop_tol=1e-6)
        out = run(example1, d, _start(), algorithm="cp")
        assert out.stop_reason == "tolerance"
        assert out.iterations <= 500
        assert out.residuals[-1].max() <= 1e-6
        assert float(np.linalg.norm(out.U[-1, :example1.n])) <= 1e-4


class TestRun:
    def test_unknown_algorithm(self, example1):
        with pytest.raises(ConfigError):
            run(example1, DiscreteParams(), algorithm="ista")

    def test_immediate_tolerance_stop(self, example1):
        s0 = SystemState(np.zeros(2), np.zeros(2), np.zeros(2), 0.0)
        out = run(example1, DiscreteParams(stop_tol=1e-8), s0)
        assert out.stop_reason == "tolerance"
        assert out.iterations == 0
        assert len(out.U) == len(out.residuals) == 1

    def test_budget_stop(self, example1):
        d = DiscreteParams(tau=0.25, max_iters=3, stop_tol=0.0)
        out = run(example1, d, _start())
        assert out.stop_reason == "budget"
        assert out.iterations == 3

    def test_divergence_detected(self):
        """The box QP diverges under a unit-step iteration with a step
        chosen above the discrete stability threshold."""
        p = catalog("box-qp")
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.2, max_iters=500,
                           stop_tol=1e-12)
        out = run(p, d)
        assert out.stop_reason == "divergence"
        assert np.isinf(out.residuals[-1].max())

    def test_admm_reaches_lasso_solution(self):
        p = catalog("lasso-small")
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.2, max_iters=2000,
                           stop_tol=1e-10)
        out = run(p, d)
        assert out.stop_reason == "tolerance"
        np.testing.assert_allclose(out.U[-1, :p.n], p.known_primal, atol=1e-8)
        np.testing.assert_allclose(out.U[-1, p.n + p.m:], p.known_dual,
                                   atol=1e-8)

    def test_admm_reaches_boxqp_solution(self):
        p = catalog("box-qp")
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.12, max_iters=5000,
                           stop_tol=1e-10)
        out = run(p, d)
        assert out.stop_reason == "tolerance"
        np.testing.assert_allclose(out.U[-1, :p.n], p.known_primal, atol=1e-8)

    def test_wrong_start_dimensions_rejected(self, example1):
        """A z0 of shape (1,) would broadcast against the 2-d problem."""
        s0 = SystemState(np.zeros(2), np.zeros(1), np.zeros(2), 0.0)
        with pytest.raises(ValueError, match="wrong dimensions"):
            run(example1, DiscreteParams(), s0)

    @pytest.mark.parametrize("algorithm", ["admm", "cp"])
    def test_rows_match_state_views(self, algorithm):
        """Row k is x^k | z^k | y^k of the step-by-step form: row 0 the
        start, then one update evaluation per iterate, passing no start,
        from x0 | z0 | y0 (ADMM) or x0 | A x0 | y0 (CP)."""
        p = catalog("lasso-small")
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.2, max_iters=12,
                           stop_tol=0.0)
        out = run(p, d, algorithm=algorithm)
        assert out.U.shape == (13, p.n + 2 * p.m)
        assert out.iterations == 12
        assert len(out.U) == len(out.residuals) == 13
        x0, z0, y0 = p.default_start()
        np.testing.assert_array_equal(np.concatenate((x0, z0, y0)), out.U[0])
        steps = _steps(p, d, out.U[0], algorithm)
        for k, u in zip(range(1, 13), steps):
            np.testing.assert_array_equal(u, out.U[k])
        np.testing.assert_array_equal(u[p.n + p.m:], out.U[-1, p.n + p.m:])

    def test_residual_history_aligned(self, example1):
        d = DiscreteParams(tau=0.25, max_iters=50, stop_tol=0.0)
        out = run(example1, d, _start())
        assert len(out.residuals) == len(out.U)
        assert out.residuals[-1].max() < out.residuals[0].max()


def _steps(p, d, u0, algorithm):
    """Yield the iterates x^k | z^k | y^k for k = 1, 2, ... of `run`, each
    a new row, from the update `discrete._make_update` builds (so a patched
    one reaches both): ADMM from u0, CP from x0 | A x0 | y0."""
    update = discrete._make_update(p, d.c, d.gamma, d.tau, d.m1, d.m2,
                                   d.inner_tol)
    n, iy = p.n, p.n + p.m
    s = u0
    if algorithm == "cp":
        s = np.concatenate((u0[:n], p.A.apply(u0[:n]), u0[iy:]))
    for k in itertools.count():
        row = np.empty_like(s)
        update(k, s, row)
        x_new, z_new, w = row[:n], row[n:iy], row[iy:]
        s = np.concatenate((x_new, z_new, s[iy:] + w))
        yield s


def _reference_run(p, d, s0=None, algorithm="admm"):
    """`run` as an iterate-by-iterate loop: each iterate's divergence test,
    then its residual and the stop test, before the next iterate."""
    u0 = _start_row(p, s0)
    n, m = p.n, p.m

    def residual(row):
        r = kkt_residual(p, row[:n], row[n:n + m], row[n + m:])
        return [r.stat_x, r.stat_z, r.feas]

    rows, res = [u0], [residual(u0)]
    if max(res[0]) <= d.stop_tol:
        return rows, res, "tolerance"
    steps = _steps(p, d, u0, algorithm)
    for _, row in zip(range(d.max_iters), steps):
        x, z, y = row[:n], row[n:n + m], row[n + m:]
        rows.append(row)
        norm = max(np.linalg.norm(x), np.linalg.norm(z), np.linalg.norm(y))
        if not np.isfinite(row).all() or norm > DIVERGENCE_LIMIT:
            res.append([np.inf] * 3)
            return rows, res, "divergence"
        res.append(residual(row))
        if max(res[-1]) <= d.stop_tol:
            return rows, res, "tolerance"
    return rows, res, "budget"


def _assert_matches_reference(p, d, s0=None, algorithm="admm"):
    out = run(p, d, s0, algorithm=algorithm)
    rows, res, reason = _reference_run(p, d, s0, algorithm)
    assert out.stop_reason == reason
    assert out.U.shape == (len(rows), p.n + 2 * p.m)
    assert out.U.tobytes() == np.array(rows).tobytes()
    assert out.residuals.shape == (len(rows), 3)
    assert out.residuals.tobytes() == np.array(res).tobytes()
    return out


def _seeded_start(p, seed):
    rng = np.random.default_rng(seed)
    x0 = 2.0 * rng.standard_normal(p.n)
    return SystemState(x0, p.A.apply(x0), rng.standard_normal(p.m), 0.0)


def _residual_maxima(p, d, s0):
    full = DiscreteParams(c=d.c, gamma=d.gamma, tau=d.tau, max_iters=40,
                          stop_tol=-np.inf)
    return run(p, full, s0).residuals.max(axis=1)


def _fail_from(monkeypatch, k_bad, failure):
    """Make ADMM iterate k_bad + 1 and later fail: the update raises, or
    writes a NaN x, the old z and w = 0."""
    real = discrete._make_update

    def patched(p, *args):
        update = real(p, *args)

        def failing(k, s, out, start=None):
            if k < k_bad:
                return update(k, s, out)
            if failure == "raise":
                raise ToleranceNotMet("inner solve failed", best=s[:p.n],
                                      residual=1.0)
            out[:p.n] = np.nan
            out[p.n:p.n + p.m] = s[p.n:p.n + p.m]
            out[p.n + p.m:] = 0.0
            return None
        return failing

    monkeypatch.setattr(discrete, "_make_update", patched)


class TestChunkedStop:
    """`run` evaluates the residuals of a chunk of iterates at a time, at
    most STOP_CHUNK, and must return exactly what the iterate-by-iterate
    loop returns."""

    @pytest.mark.parametrize("name,tau,algorithm", [
        ("example1", 0.25, "admm"), ("example1", 0.25, "cp"),
        ("lasso-small", 0.2, "admm"), ("lasso-small", 0.2, "cp"),
        ("box-qp", 0.12, "admm")])
    def test_seeded_starts_match_reference(self, name, tau, algorithm):
        p = catalog(name)
        d = DiscreteParams(c=1.0, gamma=1.0, tau=tau, max_iters=300,
                           stop_tol=1e-8)
        reasons = {_assert_matches_reference(p, d, _seeded_start(p, seed),
                                             algorithm).stop_reason
                   for seed in range(4)}
        assert reasons <= {"tolerance", "budget"}

    @pytest.mark.parametrize("dense_m2", [False, True])
    def test_general_metric_matches_reference(self, dense_m2):
        """`metric_prox` solves in both blocks (a dense M2) or in x alone:
        `run` passes each update the start the one before returned, whose
        x and z are the iterate's own bits and, after a certified piece
        map, that piece's key, so every iterate is the start-less loop's,
        bit for bit."""
        p = catalog("lasso-small")
        rng = np.random.default_rng(6)
        b = rng.standard_normal((p.m, p.m)) / np.sqrt(p.m)
        m2 = (SelfAdjointPSD.from_dense(b @ b.T + 0.3 * np.eye(p.m), 0.3)
              if dense_m2 else SelfAdjointPSD.identity(p.m, 0.5))
        d = DiscreteParams(c=1.0, gamma=0.5, max_iters=300, stop_tol=1e-10,
                           m1=MetricSchedule.constant(
                               SelfAdjointPSD.identity(p.n, 0.5)),
                           m2=MetricSchedule.constant(m2))
        for seed in range(2):
            out = _assert_matches_reference(p, d, _seeded_start(p, seed))
            assert out.stop_reason == "tolerance"

    def test_general_metric_run_computes_no_update_past_its_stop(
            self, monkeypatch):
        """The `metric-lasso` ADMM setup (lasso-small, M1 = M2 = 0.5 I,
        gamma = 0.5, stop_tol 1e-10) from six seeded starts: each chunk is
        sized from the residual decay, so every update `run` computes, a
        `metric_prox` solve each, is an iterate it keeps."""
        p = catalog("lasso-small")
        half = SelfAdjointPSD.identity
        d = DiscreteParams(c=1.0, gamma=0.5, max_iters=20000, stop_tol=1e-10,
                           m1=MetricSchedule.constant(half(p.n, 0.5)),
                           m2=MetricSchedule.constant(half(p.m, 0.5)))
        updates = []
        real = discrete._make_update

        def counting(*args):
            update = real(*args)

            def counted(t, s, out, start=None):
                updates.append(t)
                return update(t, s, out, start)
            return counted

        monkeypatch.setattr(discrete, "_make_update", counting)
        for seed in range(6):
            updates.clear()
            out = run(p, d, _seeded_start(p, seed))
            assert out.stop_reason == "tolerance"
            assert len(updates) == out.iterations

    @pytest.mark.parametrize("start,end,span,stop_tol,chunk", [
        (1e-2, 1e-4, 4, 3e-8, 8),        # 7.05 rows at 10^-0.5 a row
        (1e-2, 1e-4, 4, 3e-5, 2),        # 1.05 rows
        (1e-2, 1e-2, 4, 1e-8, discrete.STOP_CHUNK),      # no decay
        (1e-4, 1e-2, 4, 1e-8, discrete.STOP_CHUNK),      # growth
        (1e300, 1e-300, 1, 1e-320, 1),   # end / start underflows to 0
        (np.nan, 1e-4, 4, 1e-8, discrete.STOP_CHUNK),
        # a stop_tol no row can meet
        (1e-2, 1e-4, 4, 0.0, discrete.STOP_CHUNK),
        (np.nextafter(1e300, np.inf), 1e300, 4, 1.0,
         discrete.STOP_CHUNK),                            # equal logs
        (1e-2, 1e-3, 4, 3e-10, 27),      # 26.1 rows at 10^-0.25 a row
        (1e-2, 1e-3, 4, 1e-300, discrete.STOP_CHUNK),    # 1188 rows, capped
    ])
    def test_next_chunk(self, start, end, span, stop_tol, chunk):
        assert discrete._next_chunk(start, end, span, stop_tol) == chunk

    def test_chunk_follows_the_late_rate(self, example1, monkeypatch):
        """Residual maxima that stay at 1 up to row 63 and then fall by
        10^0.5 a row: the first chunk (16 rows) sees no decay and the next
        is the cap, rows 16 to 79.  The decay over the last 16 of them, 7.5
        decades over 15 rows, puts the stop (3.2e-10, 9.49 decades) 4 rows
        on, where the rate over the whole chunk would put it 18 rows on.
        The run stops at row 83 and computes no iterate past it."""
        def maximum(k):
            return 1.0 if k < 64 else 10.0 ** (-0.5 * (k - 64))

        sizes = []

        def residuals(p, x, z, y):
            first = sum(sizes)
            sizes.append(len(x))
            return np.repeat([[maximum(k)] for k in range(first, first
                                                          + len(x))], 3, 1)

        monkeypatch.setattr(discrete, "kkt_residuals", residuals)
        d = DiscreteParams(tau=0.25, max_iters=200, stop_tol=3.2e-10)
        out = run(example1, d, _start())
        assert sizes == [discrete.STOP_WINDOW, discrete.STOP_CHUNK, 4]
        assert out.stop_reason == "tolerance"
        assert out.iterations == 83 == sum(sizes) - 1

    def test_divergent_run_matches_reference(self):
        p = catalog("box-qp")
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.2, max_iters=500,
                           stop_tol=1e-12)
        assert _assert_matches_reference(p, d).stop_reason == "divergence"

    @pytest.mark.parametrize("k", [0, 1, 15, 16, 17])
    def test_stop_at_chosen_iterate(self, example1, k):
        d = DiscreteParams(tau=0.25, max_iters=40)
        r = _residual_maxima(example1, d, _start())
        assert r[k] < np.min(r[:k], initial=np.inf)  # first row at r[k]
        d.stop_tol = float(r[k])
        out = _assert_matches_reference(example1, d, _start())
        assert out.stop_reason == "tolerance"
        assert len(out.U) == k + 1

    @pytest.mark.parametrize("max_iters", [0, 15, 16, 37])
    def test_budget_inside_and_at_chunks(self, max_iters):
        p = catalog("lasso-small")
        d = DiscreteParams(tau=0.2, max_iters=max_iters, stop_tol=0.0)
        out = _assert_matches_reference(p, d)
        assert out.stop_reason == "budget"
        assert len(out.U) == max_iters + 1

    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_failure_after_the_stop_row_is_dropped(self, example1,
                                                   monkeypatch, failure):
        """Row 3 stops the run; iterate 6, in the same chunk, raises or is
        not finite.  The iterate-by-iterate loop never computes it."""
        d = DiscreteParams(tau=0.25, max_iters=40)
        d.stop_tol = float(_residual_maxima(example1, d, _start())[3])
        _fail_from(monkeypatch, 5, failure)
        out = _assert_matches_reference(example1, d, _start())
        assert out.stop_reason == "tolerance"
        assert len(out.U) == 4

    def test_failure_before_any_stop_row(self, example1, monkeypatch):
        d = DiscreteParams(tau=0.25, max_iters=40, stop_tol=1e-8)
        _fail_from(monkeypatch, 5, "raise")
        with pytest.raises(ToleranceNotMet, match="inner solve failed"):
            run(example1, d, _start())
        _fail_from(monkeypatch, 5, "nan")
        out = _assert_matches_reference(example1, d, _start())
        assert out.stop_reason == "divergence"
        assert len(out.U) == 7

    def test_nan_in_z_or_y_is_divergence(self):
        """A g whose prox returns NaN for |u| > 15 puts a NaN in z^1 and
        y^1 while x^1 stays finite: iterate 1 diverged."""
        l1 = proxlib.l1_norm(2)

        def prox_fn(t, u):
            return np.where(np.abs(u) > 15.0, np.nan, l1.prox(t, u))

        base = catalog("example1")
        p = ProblemSpec("nan-g", base.f, base.h,
                        proxlib.ProxFunction(2, l1, prox_fn), base.A)
        d = DiscreteParams(tau=0.49, max_iters=50)
        out = _assert_matches_reference(p, d, _start())
        assert np.isfinite(out.U[1, :2]).all()
        assert not np.isfinite(out.U[1, 2:]).all()
        assert out.stop_reason == "divergence"
        assert len(out.U) == 2
        assert np.isinf(out.residuals[-1]).all()


def _list_run(p, d, s0=None, algorithm="admm"):
    """`run` as a loop that keeps its iterates in a Python list, stacks the
    rows of each stop-test chunk and of the result, and tests divergence
    by the block norms alone."""
    u0 = _start_row(p, s0)
    n, m = p.n, p.m
    starts, limit_sq = np.array([0, n, n + m]), DIVERGENCE_LIMIT ** 2
    rows, blocks = [u0], []
    checked = 0

    def stop_row():
        nonlocal checked
        first, checked = checked, len(rows)
        if first == checked:
            return None
        block = np.array(rows[first:])
        blocks.append(kkt_residuals(p, block[:, :n], block[:, n:n + m],
                                    block[:, n + m:]))
        hits = np.flatnonzero(blocks[-1].max(axis=1) <= d.stop_tol)
        return first + int(hits[0]) if hits.size else None

    def result(reason, end=None):
        return discrete.DiscreteRun(np.array(rows[:end]),
                                    np.concatenate(blocks)[:end], reason)

    iterates = _steps(p, d, u0, algorithm)
    error, last = None, None
    for _ in range(d.max_iters):
        if len(rows) - checked == discrete.STOP_CHUNK:
            k = stop_row()
            if k is not None:
                return result("tolerance", k + 1)
        try:
            row = next(iterates)
        except Exception as exc:
            error = exc
            break
        if not np.add.reduceat(row * row, starts).max() <= limit_sq:
            last = row
            break
        rows.append(row)
    k = stop_row()
    if k is not None:
        return result("tolerance", k + 1)
    if error is not None:
        raise error
    if last is None:
        return result("budget")
    rows.append(last)
    blocks.append(np.full((1, 3), np.inf))
    return result("divergence")


class TestIterateBuffer:
    """`run` keeps its iterates in one growing array and pre-tests
    divergence on the row norm; its result is the list loop's, bit for
    bit."""

    @staticmethod
    def _assert_same(p, d, s0=None, algorithm="admm"):
        got = run(p, d, s0, algorithm=algorithm)
        want = _list_run(p, d, s0, algorithm)
        assert got.stop_reason == want.stop_reason
        for g, w in ((got.U, want.U), (got.residuals, want.residuals)):
            assert g.shape == w.shape
            assert np.array_equal(g, w, equal_nan=True)
            assert g.tobytes() == w.tobytes()
        assert got.U.base is None  # a trimmed copy, not a view
        return got

    def test_stop_inside_a_chunk(self, example1):
        d = DiscreteParams(tau=0.25, max_iters=40)
        d.stop_tol = float(_residual_maxima(example1, d, _start())[21])
        out = self._assert_same(example1, d, _start())
        assert out.stop_reason == "tolerance" and len(out.U) == 22

    @pytest.mark.parametrize("algorithm", ["admm", "cp"])
    @pytest.mark.parametrize("max_iters", [37, 64, 200])
    def test_budget(self, algorithm, max_iters):
        """Budgets inside a chunk, at the first capacity of 64 rows, and
        past two doublings."""
        p = catalog("lasso-small")
        d = DiscreteParams(tau=0.2, max_iters=max_iters, stop_tol=0.0)
        out = self._assert_same(p, d, _seeded_start(p, 1), algorithm)
        assert out.stop_reason == "budget" and len(out.U) == max_iters + 1

    def test_divergence(self):
        p = catalog("box-qp")
        d = DiscreteParams(c=1.0, gamma=1.0, tau=0.2, max_iters=500,
                           stop_tol=1e-12)
        assert self._assert_same(p, d).stop_reason == "divergence"

    def test_raise_after_the_stop_row(self, example1, monkeypatch):
        d = DiscreteParams(tau=0.25, max_iters=40)
        d.stop_tol = float(_residual_maxima(example1, d, _start())[3])
        _fail_from(monkeypatch, 5, "raise")
        out = self._assert_same(example1, d, _start())
        assert out.stop_reason == "tolerance" and len(out.U) == 4

    @pytest.mark.parametrize("blocks,diverges", [
        ([0.9e12, 0.0, 0.0], False),   # norm^2 above limit^2 / 4
        ([0.6e12, 0.6e12, 0.6e12], False),  # norm^2 above limit^2 itself
        ([0.0, 1e12, 0.0], False),     # a block exactly at the limit
        ([0.0, 0.0, 1.0000001e12], True),
        ([0.0, np.inf, 0.0], True),
        ([np.nan, 0.0, 0.0], True),
        ([1e200, 0.0, 0.0], True),     # its square overflows
    ])
    def test_divergence_pretest_decides_nothing(self, example1, monkeypatch,
                                                blocks, diverges):
        """The per-block test decides every row the row-norm check does not
        pass: rows near and past the limit, as iterate 2."""
        row = np.zeros(6)
        row[::2] = blocks  # the first entry of x, z and y

        def crafted(p, *args):
            rows = iter([np.ones(6), row, np.ones(6)])

            def update(k, s, out, start=None):
                out[:] = next(rows)
                out[4:] -= s[4:]  # y + w is the row's y
                return None
            return update

        monkeypatch.setattr(discrete, "_make_update", crafted)
        d = DiscreteParams(tau=0.25, max_iters=3, stop_tol=-1.0)
        with np.errstate(all="ignore"):
            out = self._assert_same(example1, d, _start())
            rows, _, reason = _reference_run(example1, d, _start())
        assert reason == out.stop_reason
        assert out.stop_reason == ("divergence" if diverges else "budget")
        assert len(out.U) == len(rows) == (3 if diverges else 4)


def _cp_dual_extrapolated(p, d, u0, iterations):
    """The rows of the dual-extrapolated loop `run(..., "cp")` iterated
    before it ran the ADMM kernel: `oracles.cp_step`, with the splitting
    variable z^{k+1} = A x^{k+1} - (y^{k+1} - y^k) / c, from y^{-1} = y^0;
    row 0 is u0."""
    n, iy = p.n, p.n + p.m
    x, y = u0[:n], u0[iy:]
    y_prev = y
    rows = [u0]
    for k in range(iterations):
        x, y_new = cp_step(p, d, k, x, y, y_prev)
        z = p.A._raw_apply(x) - (y_new - y) / d.c
        y_prev, y = y, y_new
        rows.append(np.concatenate((x, z, y)))
    return np.array(rows)


def _off_start(p, seed):
    """A seeded start whose z0 is not A x0."""
    rng = np.random.default_rng(seed)
    return SystemState(2.0 * rng.standard_normal(p.n),
                       rng.standard_normal(p.m), rng.standard_normal(p.m),
                       0.0)


class TestCpOnAdmmKernel:
    """`run(..., "cp")` is the gamma = 1 ADMM loop started from
    x0 | A x0 | y0, with row 0 kept as given; the dual-extrapolated loop it
    replaced agrees to 1e-14."""

    CASES = [("example1", 0.25), ("lasso-small", 0.2)]

    @staticmethod
    def _stop_inside_a_chunk(p, d, s0):
        """A stop_tol at which the run stops at a row inside the second
        chunk, midway (geometrically) between that row's residual and the
        least before it, so a 1e-14 move of either cannot shift the stop."""
        full = DiscreteParams(c=d.c, gamma=d.gamma, tau=d.tau, max_iters=60,
                              stop_tol=-np.inf)
        r = run(p, full, s0, algorithm="cp").residuals.max(axis=1)
        k = next(k for k in range(18, 60)
                 if k % 16 and r[k] < np.min(r[:k]))
        return float(np.sqrt(r[k] * np.min(r[:k]))), k

    @pytest.mark.parametrize("budget", ["chunk", 37, 64, 200])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("name,tau", CASES)
    def test_matches_admm_and_the_dual_extrapolated_loop(self, name, tau,
                                                         seed, budget):
        p = catalog(name)
        s0 = _off_start(p, seed)
        u0 = _start_row(p, s0)
        x0, y0 = s0.x, s0.y
        assert not np.allclose(s0.z, p.A.apply(x0))
        if budget == "chunk":
            d = DiscreteParams(c=1.0, gamma=1.0, tau=tau, max_iters=200)
            d.stop_tol, k = self._stop_inside_a_chunk(p, d, s0)
        else:
            d = DiscreteParams(c=1.0, gamma=1.0, tau=tau, max_iters=budget,
                               stop_tol=0.0)
        out = run(p, d, s0, algorithm="cp")
        if budget == "chunk":
            assert out.stop_reason == "tolerance" and len(out.U) == k + 1
        else:
            assert out.stop_reason == "budget"
            assert len(out.U) == budget + 1
        # row 0 is the given start, its z0 included
        assert out.U[0].tobytes() == u0.tobytes()
        # the later rows are ADMM's from x0 | A x0 | y0, bit for bit
        admm = run(p, d, SystemState(x0, p.A.apply(x0), y0, 0.0))
        assert admm.stop_reason == out.stop_reason
        assert out.U[1:].tobytes() == admm.U[1:].tobytes()
        assert out.residuals[1:].tobytes() == admm.residuals[1:].tobytes()
        # and the dual-extrapolated loop's to 1e-14 relative
        ref = _cp_dual_extrapolated(p, d, u0, len(out.U) - 1)
        scale = max(1.0, float(np.abs(ref).max()))
        assert float(np.abs(out.U - ref).max()) <= 1e-14 * scale


class TestDiscreteParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteParams(c=0.0)
        with pytest.raises(ValueError):
            DiscreteParams(gamma=-0.1)
        with pytest.raises(ValueError):
            DiscreteParams(max_iters=-1)

    def test_tau_and_m1_refused_together(self):
        """m1 decides the x-update, so a tau given beside it would be
        dropped; with neither, tau is 0.25."""
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(2, 0.5))
        with pytest.raises(ValueError, match="tau or m1"):
            DiscreteParams(tau=0.1, m1=m1)
        assert DiscreteParams(m1=m1).tau is None
        assert DiscreteParams().tau.tau0 == 0.25

    def test_nan_stop_tol_rejected(self):
        """A NaN stop_tol never compares true, so the run would spend its
        whole budget; -inf, which the checks use to run every iteration,
        stays legal."""
        with pytest.raises(ValueError, match="stop_tol"):
            DiscreteParams(stop_tol=float("nan"))
        assert DiscreteParams(stop_tol=-np.inf).stop_tol == -np.inf

    @pytest.mark.parametrize("tau", [[], (), 0.0, -0.25, [0.2, 0.0],
                                     np.array([0.2, -0.1]), [0.3]])
    def test_tau_rejected_at_construction(self, tau):
        with pytest.raises(ValueError, match="tau"):
            DiscreteParams(tau=tau)

    def test_float_tau_is_a_constant_schedule(self):
        """A float tau and its constant TauSchedule give the same iterates
        and the same trace, bit for bit."""
        p = catalog("example1")
        d = DiscreteParams(tau=0.3, gamma=0.5, max_iters=30, stop_tol=0.0)
        assert isinstance(d.tau, TauSchedule)
        assert d.tau.tau0 == d.tau.tau_max == 0.3
        sched = DiscreteParams(tau=TauSchedule.constant(0.3), gamma=0.5,
                               max_iters=30, stop_tol=0.0)
        a, b = run(p, d), run(p, sched)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(trace_discrete(p, d, a).lyapunov,
                                      trace_discrete(p, sched, b).lyapunov)
