"""Tests for the proximal-function library.

The prox maps are checked against an independent scalar minimizer
(golden-section search on each coordinate), against hand-derived closed
forms, and against the identities that any correct prox must satisfy
(Moreau decomposition, firm nonexpansiveness).
"""

import copy
import os
import warnings

import numpy as np
import pytest

from pdflow import proxlib
from pdflow.config import load_problem
from pdflow.errors import CertificationError, ToleranceNotMet
from pdflow.linops import LinearMap, SelfAdjointPSD
from pdflow.metric import MetricSchedule, x_update_metric, z_update_metric
from pdflow.problems import catalog
from pdflow.proxlib import (NEWTON_STEPS, ProxFunction, box, l1_norm,
                            metric_prox, quadratic_smooth, sq_distance,
                            sq_norm, zero, zero_smooth)
from oracles import conjugate_prox, prox_jacobian

_PROBLEMS = os.path.join(os.path.dirname(__file__), os.pardir, "problems")


def _golden_min(fn, lo, hi, iters=200):
    """Golden-section search for the minimizer of a unimodal scalar fn."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    for _ in range(iters):
        if fn(c) < fn(d):
            b = d
        else:
            a = c
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
    return 0.5 * (a + b)


def _numeric_prox(f, tau, u, spread=12.0):
    """Coordinatewise numeric prox for a separable f, used as the oracle.

    Other coordinates are anchored at zero (feasible for every kind under
    test), which only shifts the objective by a constant.  A coarse grid
    locates the minimizer, then golden-section search refines it.
    """
    out = np.empty_like(u)
    for i, ui in enumerate(u):
        def scalar_obj(v, i=i, ui=ui):
            x = np.zeros_like(u)
            x[i] = v
            val = f(x)
            if not np.isfinite(val):
                return 1e8 + (v - ui) ** 2
            return val + (v - ui) ** 2 / (2.0 * tau)
        grid = np.linspace(ui - spread, ui + spread, 4001)
        j = int(np.argmin([scalar_obj(v) for v in grid]))
        out[i] = _golden_min(scalar_obj, grid[max(j - 2, 0)],
                             grid[min(j + 2, len(grid) - 1)])
    return out


_KINDS = [
    ("zero", lambda: zero(3)),
    ("sq_norm", lambda: sq_norm(3, coef=1.7)),
    ("l1", lambda: l1_norm(3, weight=0.6)),
    ("box", lambda: box(3, lo=-0.5, hi=1.5)),
    ("sq_distance", lambda: sq_distance(3, center=np.array([1.0, -2.0, 0.5]),
                                        coef=2.2)),
]


class TestProxAgainstNumericOracle:
    @pytest.mark.parametrize("name,make", _KINDS, ids=[k for k, _ in _KINDS])
    def test_prox_matches_scalar_search(self, name, make):
        f = make()
        rng = np.random.default_rng(101)
        for _ in range(8):
            u = rng.uniform(-4.0, 4.0, 3)
            tau = float(rng.uniform(0.05, 3.0))
            got = f.prox(tau, u)
            want = _numeric_prox(f, tau, u)
            np.testing.assert_allclose(got, want, atol=2e-7)

    def test_box_prox_is_projection(self):
        f = box(4, lo=-1.0, hi=2.0)
        u = np.array([-3.0, 0.5, 2.0, 7.0])
        for tau in (0.1, 1.0, 25.0):
            np.testing.assert_array_equal(f.prox(tau, u),
                                          np.array([-1.0, 0.5, 2.0, 2.0]))

    def test_l1_prox_closed_form(self):
        f = l1_norm(3, weight=2.0)
        u = np.array([5.0, -1.0, 0.3])
        got = f.prox(0.5, u)
        np.testing.assert_allclose(got, np.array([4.0, 0.0, 0.0]), atol=1e-15)


class TestProxFunctionBasics:
    def test_eval_values(self):
        assert sq_norm(2, coef=2.0)(np.array([3.0, 4.0])) == pytest.approx(25.0)
        assert l1_norm(2, weight=0.5)(np.array([-2.0, 3.0])) == pytest.approx(2.5)
        assert zero(2)(np.array([9.0, -9.0])) == 0.0

    def test_box_eval_indicator(self):
        f = box(2, lo=0.0, hi=1.0)
        assert f(np.array([0.5, 1.0])) == 0.0
        assert f(np.array([0.5, 1.0 + 1e-13])) == 0.0
        assert f(np.array([0.5, 1.1])) == np.inf

    def test_sq_distance_eval(self):
        f = sq_distance(2, center=np.array([1.0, 1.0]), coef=4.0)
        assert f(np.array([2.0, 1.0])) == pytest.approx(2.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            sq_norm(2, coef=-1.0)
        with pytest.raises(ValueError):
            l1_norm(2, weight=-0.1)
        with pytest.raises(ValueError):
            box(2, lo=1.0, hi=0.0)

    def test_prox_rejects_bad_step_and_shape(self):
        f = l1_norm(2)
        with pytest.raises(ValueError):
            f.prox(0.0, np.zeros(2))
        with pytest.raises(ValueError):
            f.prox(1.0, np.zeros(3))


class TestMoreauAndConjugate:
    def test_moreau_identity_l1(self):
        """prox_{tau f}(u) + tau prox_{f*/tau}(u/tau) = u, with the conjugate
        prox written out independently: the conjugate of a weighted l1 norm
        is the indicator of the matching box, whose prox is a clip."""
        w = 0.7
        f = l1_norm(5, weight=w)
        rng = np.random.default_rng(211)
        for _ in range(200):
            u = rng.uniform(-6.0, 6.0, 5)
            tau = float(rng.uniform(0.05, 10.0))
            clip = np.clip(u / tau, -w, w)
            np.testing.assert_allclose(f.prox(tau, u) + tau * clip, u,
                                       rtol=0, atol=1e-12)

    def test_conjugate_prox_l1_is_clip(self):
        w = 1.3
        g = l1_norm(4, weight=w)
        rng = np.random.default_rng(223)
        for _ in range(200):
            y = rng.uniform(-8.0, 8.0, 4)
            c = float(rng.uniform(0.1, 5.0))
            np.testing.assert_allclose(conjugate_prox(g, c, y),
                                       np.clip(y, -w, w), atol=1e-12)

    def test_conjugate_prox_sq_norm_closed_form(self):
        """For g = coef/2 ||.||^2 the conjugate is 1/(2 coef) ||.||^2 and
        prox_{c g*}(y) = y / (1 + c / coef)."""
        coef = 2.5
        g = sq_norm(3, coef=coef)
        rng = np.random.default_rng(227)
        for _ in range(100):
            y = rng.standard_normal(3)
            c = float(rng.uniform(0.1, 4.0))
            np.testing.assert_allclose(conjugate_prox(g, c, y),
                                       y / (1.0 + c / coef), atol=1e-12)

    def test_conjugate_prox_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            conjugate_prox(l1_norm(2), 0.0, np.zeros(2))


class TestFirmNonexpansiveness:
    @pytest.mark.parametrize("name,make", _KINDS, ids=[k for k, _ in _KINDS])
    def test_firm_nonexpansive(self, name, make):
        """||P u - P v||^2 <= <P u - P v, u - v> over 1000 random pairs;
        plain nonexpansiveness follows by Cauchy-Schwarz but is asserted
        separately as well."""
        f = make()
        rng = np.random.default_rng(307)
        for _ in range(1000):
            u = rng.uniform(-5.0, 5.0, 3)
            v = rng.uniform(-5.0, 5.0, 3)
            tau = float(rng.uniform(0.05, 5.0))
            du = f.prox(tau, u) - f.prox(tau, v)
            inner = float(du @ (u - v))
            assert float(du @ du) <= inner + 1e-10
            assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-10


class TestMetricProx:
    def test_scaled_identity_reduces_to_prox(self):
        """With Q = I/tau the subproblem is an ordinary prox: the minimizer
        of f(v) + <v, lin> + ||v||^2/(2 tau) is prox_{tau f}(-tau lin)."""
        rng = np.random.default_rng(401)
        for f in (l1_norm(4, weight=0.8), sq_norm(4, coef=1.3)):
            for _ in range(20):
                lin = rng.standard_normal(4)
                tau = float(rng.uniform(0.2, 2.0))
                q = SelfAdjointPSD.identity(4, scale=1.0 / tau)
                got = metric_prox(f, q, lin, np.zeros(4), tol=1e-12)
                want = f.prox(tau, -tau * lin)
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_quadratic_with_dense_metric(self):
        """f = zero, Q = 2 I, linear = (-4, 0): the minimizer of
        <v, lin> + <v, Q v>/2 solves Q v = -lin, so v = (2, 0)."""
        q = SelfAdjointPSD.identity(2, scale=2.0)
        got = metric_prox(zero(2), q, np.array([-4.0, 0.0]), np.zeros(2),
                          tol=1e-12)
        np.testing.assert_allclose(got, np.array([2.0, 0.0]), atol=1e-10)

    def test_scaled_identity_takes_one_prox(self):
        """Q = s I is solved by one prox evaluation, prox_{f/s}(-lin/s)."""
        calls = []
        inner = l1_norm(3, weight=0.5)

        def counted(t, u):
            calls.append(t)
            return inner.prox(t, u)

        f = ProxFunction(3, inner, counted)
        q = SelfAdjointPSD.identity(3, scale=4.0)
        got = metric_prox(f, q, np.array([3.0, -0.2, -5.0]), np.ones(3),
                          tol=1e-12)
        assert len(calls) == 1
        np.testing.assert_allclose(got, inner.prox(0.25, -0.25 * np.array(
            [3.0, -0.2, -5.0])), atol=1e-15)

    def test_zero_f_dense_metric_solves_linear_system(self):
        """With f = 0 the minimizer solves Q v = -lin; a dense, non-diagonal
        Q makes the accelerated iteration actually iterate."""
        rng = np.random.default_rng(431)
        base = rng.standard_normal((5, 5))
        mat = base.T @ base + 0.5 * np.eye(5)
        floor = float(np.linalg.eigvalsh(mat)[0])
        q = SelfAdjointPSD.from_dense(mat, alpha_floor=floor)
        for _ in range(10):
            lin = rng.standard_normal(5)
            got = metric_prox(zero(5), q, lin, rng.standard_normal(5),
                              tol=1e-13)
            np.testing.assert_allclose(got, np.linalg.solve(mat, -lin),
                                       atol=1e-10)

    def test_l1_lasso_metric_matches_plain_proximal_gradient(self):
        """On the lasso-small x-subproblem (Q = c A*A + I/2, f = l1) the
        accelerated solver agrees with a long run of plain proximal
        gradient at the same step."""
        p = catalog("lasso-small")
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5))
        q = x_update_metric(m1, 1.0, p.A, 0.0)
        mat = q.base.to_dense()
        step = 1.0 / float(np.linalg.eigvalsh(mat)[-1])
        rng = np.random.default_rng(433)
        for _ in range(5):
            lin = 3.0 * rng.standard_normal(p.n)
            want = np.zeros(p.n)
            for _ in range(2_000):
                want = p.f.prox(step, want - step * (mat @ want + lin))
            got = metric_prox(p.f, q, lin, np.zeros(p.n), tol=1e-12)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_rejects_mismatched_dimensions(self):
        q = SelfAdjointPSD.identity(2, scale=1.0)
        with pytest.raises(ValueError):
            metric_prox(zero(2), q, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            metric_prox(zero(3), q, np.zeros(2), np.zeros(2))

    def test_l1_with_diagonal_metric_closed_form(self):
        """For separable f = w||.||_1 and diagonal Q the solution is exact:
        v_i = soft(-lin_i, w) / Q_ii."""
        w = 0.9
        diag = np.array([2.0, 0.7, 1.4])
        q = SelfAdjointPSD.from_dense(np.diag(diag), alpha_floor=0.7)
        rng = np.random.default_rng(419)
        f = l1_norm(3, weight=w)
        for _ in range(25):
            lin = rng.uniform(-4.0, 4.0, 3)
            want = np.sign(-lin) * np.maximum(np.abs(lin) - w, 0.0) / diag
            got = metric_prox(f, q, lin, np.zeros(3), tol=1e-12)
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_requires_positive_floor(self):
        with pytest.raises(CertificationError):
            metric_prox(zero(2), SelfAdjointPSD.zero(2), np.zeros(2),
                        np.zeros(2))

    @pytest.mark.parametrize("floor", [0.0, np.nan])
    def test_nan_floor_is_not_positive(self, floor):
        """An indefinite Q with a NaN floor is refused like one with floor
        0, not solved as if it were positive definite."""
        q = SelfAdjointPSD.from_dense([[1.0, 0.0], [0.0, -1.0]],
                                      alpha_floor=floor)
        with pytest.raises(CertificationError):
            metric_prox(zero(2), q, np.ones(2), np.zeros(2))

    @pytest.mark.parametrize("where", ["linear", "x0"])
    def test_nan_input_ends_at_the_first_residual(self, where):
        """A NaN in `linear` or `x0` makes the first residual NaN, which
        raises at once instead of spending the whole budget; the piece
        start before it warns of nothing."""
        p = catalog("lasso-small")
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5))
        q = x_update_metric(m1, 1.0, p.A, 0.0)
        f, calls = _counted(p.f)
        args = {"linear": np.linspace(-1.0, 1.0, p.n), "x0": np.zeros(p.n)}
        args[where][2] = np.nan
        with pytest.raises(ToleranceNotMet, match="residual nan") as info, \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            metric_prox(f, q, args["linear"], args["x0"])
        assert len(calls) == 1
        assert np.isnan(info.value.residual)
        np.testing.assert_array_equal(info.value.best, args["x0"])

    def test_infinite_linear_term_is_not_a_solution(self):
        """An inf in `linear` sends the prox argument to -inf; the residual
        is inf, which raises instead of passing inf <= inf as converged."""
        p = catalog("lasso-small")
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5))
        q = x_update_metric(m1, 1.0, p.A, 0.0)
        lin = np.linspace(-1.0, 1.0, p.n)
        lin[0] = np.inf
        f, calls = _counted(p.f)
        with pytest.raises(ToleranceNotMet, match="residual inf") as info, \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            metric_prox(f, q, lin, np.zeros(p.n))
        assert len(calls) == 1
        assert info.value.residual == np.inf
        np.testing.assert_array_equal(info.value.best, np.zeros(p.n))

    def test_budget_exhaustion_carries_best_iterate(self):
        """FISTA path: f = 0 wrapped without its piece, since the Newton
        path would solve this dense Q exactly in one step."""
        q = SelfAdjointPSD.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                      alpha_floor=1.0)
        f = zero(2)
        with pytest.raises(ToleranceNotMet) as info:
            metric_prox(ProxFunction(2, f, f.prox), q, np.array([5.0, 0.0]),
                        np.zeros(2), tol=1e-14, max_iters=2)
        err = info.value
        assert err.best.shape == (2,)
        assert err.residual > 0.0

    def test_budget_counts_newton_evaluations(self):
        """Newton path from x0 (f = 0 without the piece start): the first
        evaluation fails the test and the Newton step then lands on
        Q^{-1}(-lin), which the second evaluation accepts.  A budget of one
        raises with a finite best iterate.  With the piece start, f = 0
        starts at that solution of its single piece, which costs no
        evaluation, so a budget of one suffices."""
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        q = SelfAdjointPSD.from_dense(mat, alpha_floor=1.0)
        lin = np.array([5.0, 0.0])
        f = zero(2)
        with pytest.raises(ToleranceNotMet) as info:
            metric_prox(f, q, lin, np.zeros(2), tol=1e-14, max_iters=1,
                        piece_start=False)
        err = info.value
        assert err.best.shape == (2,)
        assert np.isfinite(err.best).all()
        assert err.residual > 0.0
        want = np.linalg.solve(mat, -lin)
        got = metric_prox(f, q, lin, np.zeros(2), tol=1e-14, max_iters=2,
                          piece_start=False)
        np.testing.assert_allclose(got, want, atol=1e-14)
        got = metric_prox(f, q, lin, np.zeros(2), tol=1e-14, max_iters=1)
        np.testing.assert_allclose(got, want, atol=1e-14)

    @pytest.mark.parametrize("q", [
        SelfAdjointPSD.identity(2, 2.0),
        SelfAdjointPSD.from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]),
                                  alpha_floor=1.0)])
    def test_budget_below_one_rejected(self, q):
        for max_iters in (0, -3):
            with pytest.raises(ValueError, match="max_iters"):
                metric_prox(zero(2), q, np.ones(2), np.zeros(2),
                            max_iters=max_iters)


def _counted(f, pieces=True):
    """A copy of f and a list that gets one entry per evaluation of the
    copy's prox.  The copy drops f's affine pieces unless `pieces`, so
    that `metric_prox` runs FISTA alone."""
    calls = []
    real = f._prox

    def prox_fn(t, u):
        calls.append(t)
        return real(t, u)

    g = copy.copy(f)
    g._prox = prox_fn
    g._piece = f._piece if pieces else None
    return g, calls


def _random_pd(rng, dim):
    base = rng.standard_normal((dim, dim))
    mat = base.T @ base + 0.5 * np.eye(dim)
    return SelfAdjointPSD.from_dense(mat, float(np.linalg.eigvalsh(mat)[0]))


class TestMetricProxNewton:
    """The semismooth Newton phase for dense Q, checked against FISTA alone
    (the same f wrapped without its pieces)."""

    def test_lasso_subproblems_agree_with_fista(self):
        """500 lasso-small x-subproblems at the default tolerance, with the
        metric-lasso metric c A*A + I/2 and the flow's linear term at
        random states."""
        p = catalog("lasso-small")
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5))
        q = x_update_metric(m1, 1.0, p.A, 0.0)
        assert q.base.mat is not None
        newton, newton_calls = _counted(p.f)
        fista, fista_calls = _counted(p.f, pieces=False)
        rng = np.random.default_rng(607)
        worst = 0.0
        for _ in range(500):
            x = rng.standard_normal(p.n)
            z, y = rng.standard_normal(p.m), rng.standard_normal(p.m)
            lin = -(0.5 * x + p.A.adjoint_apply(z - y))
            got = metric_prox(newton, q, lin, x)
            want = metric_prox(fista, q, lin, x)
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 1e-9
        assert len(newton_calls) < len(fista_calls) / 5

    @pytest.mark.parametrize("name,make", [k for k in _KINDS if k[0] != "l1"],
                             ids=[k for k, _ in _KINDS if k != "l1"])
    def test_other_kinds_agree_with_fista(self, name, make):
        """At a tight tolerance, so that FISTA's own error stays far
        below the 1e-9 compared."""
        rng = np.random.default_rng(613)
        f = make()
        q = _random_pd(rng, f.dim)
        newton, newton_calls = _counted(f)
        fista, fista_calls = _counted(f, pieces=False)
        for _ in range(50):
            lin = 3.0 * rng.standard_normal(f.dim)
            x0 = rng.standard_normal(f.dim)
            got = metric_prox(newton, q, lin, x0, tol=1e-12)
            want = metric_prox(fista, q, lin, x0, tol=1e-12)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert len(newton_calls) < len(fista_calls) / 2

    def test_kink_at_the_solution_reaches_tolerance(self):
        """A degenerate lasso subproblem: at the minimizer v* = (0, 1, -2)
        the prox argument's first entry sits exactly on the threshold,
        |u_0| = step w, so the Jacobian choice there is ambiguous.  The
        data are small dyadic numbers, so that equality is exact.  Newton
        reaches the tolerance from every start without falling back."""
        mat = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
        q = SelfAdjointPSD.from_dense(mat, float(np.linalg.eigvalsh(mat)[0]))
        w = 0.5
        v_star = np.array([0.0, 1.0, -2.0])
        lin = -mat @ v_star - w * np.array([1.0, 1.0, -1.0])
        step = 1.0 / q.norm()
        u = v_star - step * (q.base._raw_apply(v_star) + lin)
        assert abs(u[0]) == step * w
        f, calls = _counted(l1_norm(3, weight=w))
        rng = np.random.default_rng(617)
        starts = [v_star, np.zeros(3)] + [3.0 * rng.standard_normal(3)
                                          for _ in range(20)]
        for x0 in starts:
            calls.clear()
            got = metric_prox(f, q, lin, x0, tol=1e-13)
            np.testing.assert_allclose(got, v_star, rtol=0, atol=1e-12)
            assert len(calls) <= NEWTON_STEPS + 1

    @pytest.mark.parametrize("piece", [True, False],
                             ids=["piece start", "newton from x0"])
    @pytest.mark.parametrize("mat,lin,x0,weight,v_star", [
        ([[2.0, -1.5], [-1.5, 2.0]], [1.0, -1.0], [0.25, 1.75], 0.5,
         [-1.0 / 7.0, 1.0 / 7.0]),
        ([[0.5, -0.75], [-0.75, 1.75]], [-1.0, 1.5], [-1.0, -0.5], 0.75,
         [0.0, -3.0 / 7.0]),
        ([[1.5, 1.0], [1.0, 1.25]], [-1.5, -2.0], [2.0, 1.25], 0.25,
         [0.0, 1.4]),
    ])
    def test_halved_steps_break_active_set_cycles(self, mat, lin, x0, weight,
                                                  v_star, piece):
        """Two-dimensional l1 subproblems on which full Newton steps from
        x0 cycle between two active sets and never reach the tolerance.
        Halving a step that does not decrease ||F|| enough breaks the
        cycle inside the Newton phase, with no FISTA fallback.  The real
        l1 first tries x0's piece, which is not the solution's in the
        second case, and then runs Newton from x0; without the piece start,
        Newton starts at x0 at once."""
        mat = np.array(mat)
        q = SelfAdjointPSD.from_dense(mat, float(np.linalg.eigvalsh(mat)[0]))
        f, calls = _counted(l1_norm(2, weight=weight))
        got = metric_prox(f, q, np.array(lin), np.array(x0),
                          piece_start=piece)
        np.testing.assert_allclose(got, v_star, rtol=0, atol=1e-12)
        assert len(calls) <= NEWTON_STEPS + 1

    def test_pieceless_function_keeps_fista_count(self):
        """A custom `ProxFunction` without pieces takes FISTA's path
        unchanged: this lasso-small subproblem costs the same 42 prox calls
        as before the Newton phase existed, against a few with it."""
        p = catalog("lasso-small")
        m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5))
        q = x_update_metric(m1, 1.0, p.A, 0.0)
        lin = np.linspace(-1.0, 1.0, p.n)
        fista, fista_calls = _counted(ProxFunction(p.n, p.f, p.f.prox))
        newton, newton_calls = _counted(p.f)
        want = metric_prox(fista, q, lin, np.zeros(p.n))
        got = metric_prox(newton, q, lin, np.zeros(p.n))
        assert len(fista_calls) == 42
        assert len(newton_calls) <= NEWTON_STEPS + 1
        np.testing.assert_allclose(got, want, atol=1e-9)


def _subproblems(name):
    """(f, make_q) for the x-update (M1 = I/2) and the z-update (a dense
    positive definite M2) of a general-metric run at c = 1 on a catalog
    problem or problem file; each make_q() call builds a new, equal Q."""
    if name.endswith(".txt"):
        p = load_problem(os.path.join(_PROBLEMS, name))
    else:
        p = catalog(name)
    m1 = MetricSchedule.constant(SelfAdjointPSD.identity(p.n, 0.5))
    base = np.random.default_rng(701).standard_normal((p.m, p.m))
    mat = base @ base.T / p.m + 0.5 * np.eye(p.m)
    m2 = MetricSchedule.constant(
        SelfAdjointPSD.from_dense(mat, float(np.linalg.eigvalsh(mat)[0])))
    return [(p.f, lambda: x_update_metric(m1, 1.0, p.A, 0.0)),
            (p.g, lambda: z_update_metric(m2, 1.0, 0.0))]


def _random_subproblem(rng, dim):
    return 3.0 * rng.standard_normal(dim), rng.standard_normal(dim)


def _pattern_recorder(f):
    """A copy of f that records each prox-Jacobian pattern its pieces give,
    as the bytes `metric_prox` keys its inverses on; `metric_prox` takes
    the same path with it as with f."""
    seen = set()

    def piece_fn(t, x):
        jac, e = f._piece(t, x)
        seen.add(np.asarray(jac, dtype=float).tobytes())
        return jac, e

    g = copy.copy(f)
    g._piece = piece_fn
    return g, seen


_INVERSE_CASES = ["lasso-small", "box-qp", "l1-box.txt"]


class TestKept:
    """The one store of kept values: least recently used first, as many
    values as fit in `KEPT_FLOATS` floats."""

    def test_drops_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(proxlib, "KEPT_FLOATS", 35)
        kept = proxlib._Kept(10)
        assert kept.capacity == 3
        for key in "abc":
            assert kept.keep(key, key.upper()) == key.upper()
        # a used value is kept again as the most recently used
        kept.keep("a", kept.pop("a"))
        assert kept.keep("d", None) is None
        assert list(kept.items()) == [("c", "C"), ("a", "A"), ("d", None)]
        # a lookup does not move its key
        assert kept.get("c") == "C" and kept.get("b") is None
        kept.keep("e", "E")
        assert list(kept) == ["a", "d", "e"]

    @pytest.mark.parametrize("floats,capacity", [
        (1, 2 ** 18), (4096, 64), (4097, 63), (2 ** 18, 1), (2 ** 18 + 1, 0)])
    def test_capacity_is_what_fits_in_the_budget(self, floats, capacity):
        assert proxlib.KEPT_FLOATS == 2 ** 18
        assert proxlib._Kept(floats).capacity == capacity

    def test_capacity_zero_keeps_nothing(self, monkeypatch):
        monkeypatch.setattr(proxlib, "KEPT_FLOATS", 0)
        kept = proxlib._Kept(1)
        assert kept.capacity == 0
        for key in "ab":
            assert kept.keep(key, key.upper()) == key.upper()
            assert not kept


def _kept_patterns(q):
    """The prox-Jacobian patterns, as bytes, whose inverse Newton matrices
    in q's matrix the store keeps, least recently used first."""
    mat = q.base.mat.tobytes()
    return [jac for (kept, _, jac) in proxlib._INVERSES if kept == mat]


class TestNewtonInverses:
    """One store keeps one inverse Newton matrix per Q matrix, step and
    prox-Jacobian pattern; a result never depends on what was kept.  Each
    test starts from an empty store."""

    @pytest.fixture(autouse=True)
    def _empty_store(self, monkeypatch):
        monkeypatch.setattr(proxlib, "_INVERSES", proxlib._Kept(1))

    @pytest.mark.parametrize("name", _INVERSE_CASES)
    def test_warm_and_fresh_q_agree_bit_for_bit(self, name, monkeypatch):
        """A warm store gives the bits of an empty one, for the Q that
        warmed it and for a new, equal Q."""
        rng = np.random.default_rng(709)
        for f, make_q in _subproblems(name):
            warm = make_q()
            assert warm.base.mat is not None and warm.base.scale is None
            for _ in range(200):
                metric_prox(f, warm, *_random_subproblem(rng, f.dim))
            assert _kept_patterns(warm)
            for _ in range(50):
                lin, x0 = _random_subproblem(rng, f.dim)
                got = metric_prox(f, warm, lin, x0)
                shared = metric_prox(f, make_q(), lin, x0)
                with monkeypatch.context() as patch:
                    patch.setattr(proxlib, "_INVERSES", proxlib._Kept(1))
                    want = metric_prox(f, make_q(), lin, x0)
                assert np.array_equal(got, want)
                assert np.array_equal(shared, want)

    @pytest.mark.parametrize("name", _INVERSE_CASES)
    def test_one_inverse_per_distinct_pattern(self, name):
        rng = np.random.default_rng(719)
        for f, make_q in _subproblems(name):
            q = make_q()
            g, seen = _pattern_recorder(f)
            for _ in range(200):
                metric_prox(g, q, *_random_subproblem(rng, f.dim))
            assert len(_kept_patterns(q)) == len(seen)
            mat = q.base.mat.tobytes()
            assert all(v.shape == (f.dim, f.dim)
                       for key, v in proxlib._INVERSES.items()
                       if key[0] == mat)

    def test_kept_inverses_stay_within_the_bound(self, monkeypatch):
        """With room for three inverses, the store keeps three of the many
        lasso-small patterns, the three used last, and every solve still
        matches a solve from an empty store."""
        (f, make_q), _ = _subproblems("lasso-small")
        q = make_q()
        monkeypatch.setattr(proxlib, "KEPT_FLOATS", 3 * f.dim * f.dim)
        g, seen = _pattern_recorder(f)
        used, real = [], proxlib._kept_inverse

        def recorded(Q, step, jac):
            if Q is q:
                used.append(jac.tobytes())
            return real(Q, step, jac)

        monkeypatch.setattr(proxlib, "_kept_inverse", recorded)
        rng = np.random.default_rng(727)
        for _ in range(200):
            lin, x0 = _random_subproblem(rng, f.dim)
            got = metric_prox(g, q, lin, x0)
            assert len(proxlib._INVERSES) <= 3
            last = list(dict.fromkeys(reversed(used)))[:3]
            assert _kept_patterns(q) == last[::-1]
            with monkeypatch.context() as patch:
                patch.setattr(proxlib, "_INVERSES", proxlib._Kept(1))
                want = metric_prox(f, make_q(), lin, x0)
            assert np.array_equal(got, want)
        assert len(seen) > 3
        assert len(proxlib._INVERSES) == 3

    def test_the_bound_holds_across_sizes(self, monkeypatch):
        """A budget of 64 floats holds 16 inverses of n = 2.  Once the
        store has held one of n = 4 it holds at most 64 // 4^2 = 4
        inverses, so at most 64 floats whatever their sizes, and it holds
        16 of n = 2 again only after it has been emptied."""
        monkeypatch.setattr(proxlib, "KEPT_FLOATS", 64)
        small = SelfAdjointPSD.from_dense(np.diag([1.0, 2.0]), 1.0)
        large = SelfAdjointPSD.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]), 1.0)
        for i in range(20):
            proxlib._kept_inverse(small, 0.5, np.array([1.0, i]))
        assert len(proxlib._INVERSES) == 16
        for i in range(3):
            proxlib._kept_inverse(large, 0.25, np.full(4, float(i)))
            proxlib._kept_inverse(small, 0.5, np.array([1.0, i]))
            floats = sum(len(key[2]) ** 2 // 64
                         for key in proxlib._INVERSES)
            assert floats <= 64 and len(proxlib._INVERSES) <= 4
        proxlib._INVERSES.clear()
        for i in range(20):
            proxlib._kept_inverse(small, 0.5, np.array([1.0, i]))
        assert len(proxlib._INVERSES) == 16

    def test_another_matrix_or_step_gets_another_inverse(self):
        """One pattern under two matrices, or under two steps, gives two
        kept inverses, each that of its own matrix and step."""
        rng = np.random.default_rng(733)
        q = _random_pd(rng, 5)
        other = _random_pd(rng, 5)
        jac = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
        step = 1.0 / q.norm()
        cases = [(q, step), (other, step), (q, 0.5 * step)]
        got = [proxlib._kept_inverse(each, h, jac) for each, h in cases]
        assert len(proxlib._INVERSES) == 3
        for (each, h), inv in zip(cases, got):
            want = proxlib._newton_inverse(each.base.mat, h, jac)
            assert np.array_equal(inv, want)
        for i in range(3):
            for j in range(i):
                assert not np.array_equal(got[i], got[j])

    def test_equal_matrices_share_one_entry(self, monkeypatch):
        """Two Q built apart from equal matrices share one kept inverse
        per pattern and step: the second Q finds the first one's, and no
        inverse is computed for it."""
        rng = np.random.default_rng(739)
        base = rng.standard_normal((5, 5))
        mat = base.T @ base + np.eye(5)
        a = SelfAdjointPSD.from_dense(mat, 1.0)
        b = SelfAdjointPSD.from_dense(mat.copy(), 1.0)
        assert a.base.mat is not b.base.mat
        computed, real = [], proxlib._newton_inverse

        def counting(*args):
            computed.append(1)
            return real(*args)

        monkeypatch.setattr(proxlib, "_newton_inverse", counting)
        jac = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        first = proxlib._kept_inverse(a, 0.1, jac)
        assert proxlib._kept_inverse(b, 0.1, jac) is first
        assert len(computed) == len(proxlib._INVERSES) == 1

    def test_singular_pattern_takes_the_fista_path(self):
        """Q = diag(1, 2) with step 1/2 and a piece of D = 2 make the Newton
        matrix I - D + step D Q = diag(0, 1) singular.  The store keeps
        the pattern as no step, and every solve, the first and the ones
        that find it kept, is FISTA's from x0: the same result and the
        same prox count as f without pieces."""
        q = SelfAdjointPSD(LinearMap.from_dense(np.diag([1.0, 2.0])),
                           alpha_floor=1.0, norm_hint=2.0)
        inner = zero(2)
        singular, singular_calls = _counted(ProxFunction(
            2, inner, inner.prox, piece_fn=lambda t, x: (2.0, 0.0)))
        fista, fista_calls = _counted(inner, pieces=False)
        lin = np.array([3.0, -1.0])
        for x0 in (np.zeros(2), np.array([1.0, 5.0])):
            singular_calls.clear()
            fista_calls.clear()
            got = metric_prox(singular, q, lin, x0)
            want = metric_prox(fista, q, lin, x0)
            assert np.array_equal(got, want)
            assert len(singular_calls) == len(fista_calls) > 1
            assert proxlib._INVERSES == {
                (q.base.mat.tobytes(), 0.5, np.full(1, 2.0).tobytes()): None}


# each kind of `_KINDS`, l1 at weight 0 and a box with vector bounds (one
# of them a point), with the oracle Jacobian at the same parameters
_JACOBIAN_CASES = [
    ("zero", zero(3), prox_jacobian("zero")),
    ("sq_norm", sq_norm(3, coef=1.7), prox_jacobian("sq_norm", coef=1.7)),
    ("l1", l1_norm(3, weight=0.6), prox_jacobian("l1", weight=0.6)),
    ("l1-weight-0", l1_norm(3, weight=0.0), prox_jacobian("l1", weight=0.0)),
    ("box", box(3, lo=-0.5, hi=1.5), prox_jacobian("box", lo=-0.5, hi=1.5)),
    ("box-vector", box(3, lo=[-0.5, 0.0, -2.0], hi=[1.5, 0.0, 2.0]),
     prox_jacobian("box", lo=np.array([-0.5, 0.0, -2.0]),
                   hi=np.array([1.5, 0.0, 2.0]))),
    ("sq_distance", sq_distance(3, center=np.array([1.0, -2.0, 0.5]),
                                coef=2.2),
     prox_jacobian("sq_distance", coef=2.2)),
]

# the x-block of lasso-small and the dense-M2 z-blocks (g a box) of box-qp
# and l1-box, as (name, index into `_subproblems`)
_PIECE_CASES = [("lasso-small", 0), ("box-qp", 1), ("l1-box.txt", 1)]


class TestPieceStart:
    """`metric_prox` starts at the exact minimizer on the affine piece of
    the prox that its start point lies on, at no prox evaluation."""

    @pytest.mark.parametrize("name,f,jac", _JACOBIAN_CASES,
                             ids=[k for k, _, _ in _JACOBIAN_CASES])
    def test_piece_agrees_with_prox_and_jacobian(self, name, f, jac):
        """The piece (D, e) of x = prox_{t f}(u) has, bit for bit, the
        Jacobian diagonal that the oracle reads from u, and prox_{t f}(u)
        = D u + e, at every finite u: on the breakpoints (|u| = t w for
        l1, the bounds for box), at signed zeros, subnormals and 1e300 as
        well as at random points."""
        rng = np.random.default_rng(739)
        for t in (0.3, 1.0, 2.5):
            specials = np.array([0.0, -0.0, t * 0.6, -t * 0.6, -0.5, 1.5,
                                 -2.0, 2.0, 5e-324, -5e-324, 1e300, -1e300])
            U = 3.0 * rng.standard_normal((200, f.dim))
            U.flat[rng.choice(U.size, 4 * specials.size, replace=False)] = \
                np.tile(specials, 4)
            for u in U:
                x = f.prox(t, u)
                d, e = f._piece(t, x)
                want = np.asarray(jac(t, u), dtype=float)
                assert np.asarray(d, dtype=float).tobytes() == want.tobytes()
                np.testing.assert_allclose(x, d * u + e, rtol=1e-13,
                                           atol=1e-13)

    @pytest.mark.parametrize("name,make", _KINDS, ids=[k for k, _ in _KINDS])
    def test_region_holds_its_piece(self, name, make):
        """The region (lo, hi) of the piece of x = prox_{t f}(u) holds u
        in its closure, and prox_{t f} = D v + e at points v drawn in it;
        a NaN, and a point outside the box, lie on no piece of l1 or box,
        so their bounds fail lo < hi."""
        f = make()
        rng = np.random.default_rng(751)
        for t in (0.3, 1.0, 2.5):
            for _ in range(40):
                u = 3.0 * rng.standard_normal(f.dim)
                x = f.prox(t, u)
                d, e = f._piece(t, x)
                lo, hi = (np.broadcast_to(b, (f.dim,))
                          for b in f._region(t, x))
                assert np.all((lo <= u) & (u <= hi))
                v = rng.uniform(np.maximum(lo, u - 2.0),
                                np.minimum(hi, u + 2.0))
                np.testing.assert_allclose(f.prox(t, v), d * v + e,
                                           rtol=1e-13, atol=1e-13)
        if name in ("l1", "box"):
            for x in (np.full(3, np.nan), np.array([2.0, 0.0, -1.0])):
                lo, hi = f._region(1.0, x)
                assert not (lo < hi).all()
                if name == "l1":
                    break  # every finite point lies on a piece of l1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_l1_region_bits(self):
        """l1's region is, bit for bit, the bounds of the sign formula
        where(sign < 0, -inf, 2 t w sign - t w) and where(sign > 0, inf,
        2 t w sign + t w): at signed zeros, NaN (NaN bounds), infinities,
        subnormals, and at t w = 0, where the zeros' signs count."""
        x = np.array([0.0, -0.0, 1.5, -2.0, np.nan, np.inf, -np.inf,
                      5e-324, -5e-324, 1e300])
        for weight in (0.0, 0.05, 2.0):
            f = l1_norm(x.size, weight)
            for t in (0.0, 0.3, 1e308):
                sign, tw = np.sign(x), t * weight
                want = (np.where(sign < 0.0, -np.inf, (2.0 * tw) * sign - tw),
                        np.where(sign > 0.0, np.inf, (2.0 * tw) * sign + tw))
                for got, w in zip(f._region(t, x), want):
                    assert got.tobytes() == w.tobytes()

    @pytest.mark.parametrize("name,block", _PIECE_CASES)
    def test_start_on_the_solution_piece_takes_one_evaluation(self, name,
                                                              block):
        """Started at its solution, or at another point of the solution's
        piece, a solve makes exactly one prox evaluation."""
        f, make_q = _subproblems(name)[block]
        q = make_q()
        rng = np.random.default_rng(743)
        f, calls = _counted(f)
        step = 1.0 / q.norm()

        def piece(x):
            return np.asarray(f._piece(step, x)[0], dtype=float)

        moved = 0
        for _ in range(40):
            lin, x0 = _random_subproblem(rng, f.dim)
            want = metric_prox(f, q, lin, x0)
            near = want + 1e-3 * piece(want) * rng.standard_normal(f.dim)
            starts = [want]
            if np.array_equal(piece(near), piece(want)):
                starts.append(near)
                moved += 1
            for start in starts:
                calls.clear()
                got = metric_prox(f, q, lin, start)
                assert len(calls) == 1
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert moved >= 35

    @pytest.mark.parametrize("name,block", _PIECE_CASES)
    def test_start_on_a_wrong_piece_meets_the_tolerance(self, name, block):
        """Started at another subproblem's solution, a solve takes more
        evaluations, agrees with FISTA alone, and is the solve in a fresh
        Q bit for bit."""
        f, make_q = _subproblems(name)[block]
        q = make_q()
        rng = np.random.default_rng(751)
        others = [metric_prox(f, q, *_random_subproblem(rng, f.dim))
                  for _ in range(30)]
        fista, _ = _counted(f, pieces=False)
        f, calls = _counted(f)
        wrong = 0
        for start in others:
            lin, _ = _random_subproblem(rng, f.dim)
            calls.clear()
            got = metric_prox(f, q, lin, start)
            wrong += len(calls) > 1
            assert np.array_equal(got, metric_prox(f, make_q(), lin, start))
            want = metric_prox(fista, make_q(), lin, start, tol=1e-12)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        assert wrong >= 25


class TestSmoothFunctions:
    def test_quadratic_matches_finite_differences(self):
        rng = np.random.default_rng(501)
        base = rng.standard_normal((3, 3))
        p_mat = base.T @ base + 0.5 * np.eye(3)
        q_vec = rng.standard_normal(3)
        h = quadratic_smooth(p_mat, q_vec)
        x = rng.standard_normal(3)
        assert h(x) == pytest.approx(0.5 * x @ p_mat @ x + q_vec @ x)
        eps = 1e-6
        fd = np.array([
            (h(x + eps * e) - h(x - eps * e)) / (2.0 * eps)
            for e in np.eye(3)])
        np.testing.assert_allclose(h.grad(x), fd, atol=1e-6)
        assert h.lipschitz_grad == pytest.approx(
            float(np.linalg.eigvalsh(p_mat)[-1]))

    def test_quadratic_exposes_its_terms(self):
        p_mat = np.array([[2.0, 0.5], [0.5, 1.0]])
        h = quadratic_smooth(p_mat, [1.0, -3.0])
        np.testing.assert_array_equal(h.P, p_mat)
        np.testing.assert_array_equal(h.q, [1.0, -3.0])
        np.testing.assert_array_equal(quadratic_smooth(p_mat).q, np.zeros(2))
        assert zero_smooth(2).P is None and zero_smooth(2).q is None

    def test_quadratic_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            quadratic_smooth(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_smooth(self):
        h = zero_smooth(2)
        assert h(np.ones(2)) == 0.0
        np.testing.assert_array_equal(h.grad(np.ones(2)), np.zeros(2))
        assert h.lipschitz_grad == 0.0
        assert h.is_zero


def _same_bits(got, want):
    """Equal shapes and equal bytes, so -0.0 and 0.0 differ too."""
    want = np.asarray(want, dtype=float)
    assert np.shape(got) == want.shape
    assert np.asarray(got, dtype=float).tobytes() == want.tobytes()


def _one_point(fn):
    """Wrap a closure so that it rejects anything but a single point."""
    def wrapped(*args):
        assert args[-1].ndim == 1
        return fn(*args)
    return wrapped


_ROW_KINDS = _KINDS + [
    ("box-vector", lambda: box(3, lo=[-1.0, 0.0, -2.0], hi=[1.0, 0.5, 2.0])),
]


class TestRows:
    """(B, dim) rows in, one result per row out, each bit-equal to the call
    on that row alone, at one scalar step."""

    @pytest.mark.parametrize("name,make", _ROW_KINDS,
                             ids=[k for k, _ in _ROW_KINDS])
    def test_prox_and_value_rows_match_points(self, name, make):
        f = make()
        rng = np.random.default_rng(31)
        # the first half inside every box, the second half mostly outside
        U = np.concatenate((0.2 * rng.uniform(-1.0, 1.0, (20, 3)),
                            3.0 * rng.standard_normal((20, 3))))
        for tau in (0.3, 1.0, 7.0):
            _same_bits(f.prox(tau, U), [f.prox(tau, u) for u in U])
        _same_bits(f(U), [f(u) for u in U])

    def test_box_rows_outside_are_infinite(self):
        f = box(2, lo=0.0, hi=1.0)
        X = np.array([[0.5, 1.0], [0.5, 1.0 + 1e-13], [0.5, 1.1], [-3.0, 0.0]])
        _same_bits(f(X), [0.0, 0.0, np.inf, np.inf])

    def test_smooth_rows_match_points(self):
        rng = np.random.default_rng(37)
        base = rng.standard_normal((4, 4))
        X = 5.0 * rng.standard_normal((25, 4))
        for h in (quadratic_smooth(base.T @ base, rng.standard_normal(4)),
                  quadratic_smooth(base.T @ base), zero_smooth(4)):
            _same_bits(h(X), [h(x) for x in X])
            _same_bits(h.grad(X), [h.grad(x) for x in X])
            _same_bits(h.grad(X[:, ::-1]), [h.grad(x) for x in X[:, ::-1]])

    def test_zero_smooth_gradient_is_zeros_like(self):
        h = zero_smooth(3)
        _same_bits(h.grad(np.ones(3)), np.zeros(3))
        _same_bits(h.grad(np.ones((5, 3))), np.zeros((5, 3)))

    def test_one_point_closures_fall_back_per_row(self):
        inner = l1_norm(3, weight=0.4)
        f = ProxFunction(3, _one_point(inner), _one_point(inner.prox))
        U = np.random.default_rng(41).standard_normal((9, 3))
        _same_bits(f.prox(0.7, U), inner.prox(0.7, U))
        _same_bits(f(U), inner(U))
        assert f.prox(0.7, np.empty((0, 3))).shape == (0, 3)
        assert f(np.empty((0, 3))).shape == (0,)

    def test_closure_smooth_function_falls_back_per_row(self):
        from pdflow.proxlib import SmoothFunction

        inner = quadratic_smooth(np.diag([1.0, 2.0]), np.array([0.5, -1.0]))
        h = SmoothFunction(2, _one_point(inner), _one_point(inner.grad), 2.0)
        X = np.random.default_rng(43).standard_normal((6, 2))
        _same_bits(h(X), inner(X))
        _same_bits(h.grad(X), inner.grad(X))

    def test_rows_shape_checks(self):
        f, h = l1_norm(2), zero_smooth(2)
        for bad in (np.ones((4, 3)), np.ones((2, 2, 2))):
            with pytest.raises(ValueError, match="must have shape"):
                f.prox(1.0, bad)
            with pytest.raises(ValueError, match="must have shape"):
                f(bad)
            with pytest.raises(ValueError, match="must have shape"):
                h.grad(bad)

    def test_metric_prox_rows(self):
        """A scaled-identity Q solves rows in one prox; a dense Q solves
        each row as its own subproblem."""
        rng = np.random.default_rng(47)
        lin = rng.standard_normal((8, 3))
        x0 = rng.standard_normal((8, 3))
        inner = l1_norm(3, weight=0.3)
        scaled = SelfAdjointPSD.identity(3, 2.0)
        got = metric_prox(inner, scaled, lin, x0)
        _same_bits(got, [metric_prox(inner, scaled, a, b)
                         for a, b in zip(lin, x0)])
        base = rng.standard_normal((3, 3))
        dense = SelfAdjointPSD.from_dense(base.T @ base + np.eye(3),
                                          alpha_floor=1.0)
        got = metric_prox(inner, dense, lin, x0)
        _same_bits(got, [metric_prox(inner, dense, a, b)
                         for a, b in zip(lin, x0)])
        with pytest.raises(ValueError, match="share dimension"):
            metric_prox(inner, dense, lin, x0[:4])


def _special_rows(rng):
    """Random rows with +-0.0, +-inf, NaN and values at +-1 (the box
    bounds and, at tau = 1, the l1 threshold) put in."""
    U = 2.0 * rng.standard_normal((40, 6))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0,
                         -1.0, 0.5, -0.5, 5e-324, -5e-324])
    U.flat[rng.choice(U.size, 3 * specials.size, replace=False)] = \
        np.tile(specials, 3)
    return U


class TestUfuncForms:
    """The l1 and box proxes against sign(u) max(|u| - t w, 0) and
    np.clip, bit for bit, on rows and on single points."""

    @pytest.mark.parametrize("weight,tau", [(1.0, 1.0), (0.3, 2.0),
                                            (0.0, 1.0), (2.0, 1e-300)])
    def test_l1_matches_sign_times_max(self, weight, tau):
        """Equal bits except at u = -0.0, which the product maps to
        +0.0 and this one to -0.0; a zero threshold returns u itself."""
        U = _special_rows(np.random.default_rng(41))
        f = l1_norm(6, weight)
        thr = tau * weight
        with np.errstate(invalid="ignore"):
            old = np.sign(U) * np.maximum(np.abs(U) - thr, 0.0)
        neg_zero = (U == 0.0) & np.signbit(U)
        assert neg_zero.any()
        for got in (f.prox(tau, U), np.array([f.prox(tau, u) for u in U])):
            assert np.all(np.signbit(got[neg_zero]) & (got[neg_zero] == 0.0))
            assert not np.signbit(old[neg_zero]).any()
            want = np.where(neg_zero, -0.0, old)
            _same_bits(got, want)
            if thr == 0.0:
                _same_bits(got, U)

    @pytest.mark.parametrize("lo,hi", [
        (-1.0, 1.0), (0.0, 0.5), (-0.0, 0.0), (-np.inf, 2.0),
        ([-1.0, 0.0, -2.0, -0.0, 0.0, -np.inf],
         [1.0, 0.5, 2.0, 0.0, 3.0, 0.0])])
    def test_box_matches_clip(self, lo, hi):
        U = _special_rows(np.random.default_rng(43))
        f = box(6, lo, hi)
        want = np.clip(U, np.full(6, lo, dtype=float),
                       np.full(6, hi, dtype=float))
        _same_bits(f.prox(1.0, U), want)
        _same_bits(np.array([f.prox(0.5, u) for u in U]), want)
        assert np.isnan(f.prox(1.0, U)[np.isnan(U)]).all()
