"""Tests for the problem catalog.

The frozen catalog solutions are re-verified from scratch here: the KKT
conditions are written out coordinate by coordinate with plain numpy, with
no help from the package's own residual code.
"""

import numpy as np
import pytest

from pdflow import proxlib
from pdflow.errors import MissingSolutionError
from pdflow.linops import LinearMap
from pdflow.problems import (CATALOG_NAMES, ProblemSpec, _lasso_data,
                             catalog, kkt_residual, kkt_residuals)
from oracles import lagrangian, optimal_value


class TestCatalog:
    def test_names(self):
        assert set(CATALOG_NAMES) == {"example1", "lasso-small", "box-qp"}

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            catalog("no-such-problem")

    def test_catalog_returns_fresh_specs(self):
        assert catalog("example1") is not catalog("example1")

    def test_dimensions(self):
        p = catalog("lasso-small")
        assert (p.n, p.m) == (8, 12)
        q = catalog("box-qp")
        assert (q.n, q.m) == (6, 6)

    def test_data_is_deterministic(self):
        a1 = catalog("lasso-small").A.to_dense()
        a2 = catalog("lasso-small").A.to_dense()
        np.testing.assert_array_equal(a1, a2)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            ProblemSpec(name="bad", f=proxlib.zero(3),
                        h=proxlib.zero_smooth(2), g=proxlib.zero(2),
                        A=LinearMap.identity(2))


class TestExample1:
    def test_saddle_is_origin(self, example1):
        x, y = example1.require_saddle()
        np.testing.assert_array_equal(x, np.zeros(2))
        np.testing.assert_array_equal(y, np.zeros(2))
        assert optimal_value(example1) == 0.0

    def test_objective(self, example1):
        x = np.array([1.0, -2.0])
        # 0.5 ||x||^2 + ||A x||_1 with A x = (3, -1)
        assert example1.objective(x) == pytest.approx(2.5 + 4.0)

    def test_default_start(self, example1):
        x0, z0, y0 = example1.default_start()
        np.testing.assert_array_equal(x0, [-10.0, 10.0])
        np.testing.assert_array_equal(z0, [-20.0, 0.0])
        np.testing.assert_array_equal(y0, [-10.0, 10.0])

    def test_kkt_zero_at_saddle(self, example1):
        res = kkt_residual(example1, np.zeros(2), np.zeros(2), np.zeros(2))
        assert res.max() == 0.0

    def test_kkt_positive_off_saddle(self, example1):
        res = kkt_residual(example1, np.ones(2), np.ones(2), np.ones(2))
        assert res.max() > 0.1


def _point_residual(p, x, z, y):
    """The residual of one point, one 1-D numpy call at a time."""
    rx = x - p.f.prox(1.0, x - (p.h.grad(x) + p.A.adjoint_apply(y)))
    rz = z - p.g.prox(1.0, z + y)
    rf = p.A.apply(x) - z
    return [np.linalg.norm(rx), np.linalg.norm(rz), np.linalg.norm(rf)]


class TestKktResiduals:
    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_rows_match_points_bitwise(self, name):
        p = catalog(name)
        rng = np.random.default_rng(61)
        U = 3.0 * rng.standard_normal((40, p.n + 2 * p.m))
        X, Z, Y = U[:, :p.n], U[:, p.n:p.n + p.m], U[:, p.n + p.m:]
        got = kkt_residuals(p, X, Z, Y)
        want = np.array([_point_residual(p, *r) for r in zip(X, Z, Y)])
        assert got.shape == (40, 3)
        assert got.tobytes() == want.tobytes()
        one = kkt_residual(p, X[7], Z[7], Y[7])
        assert [one.stat_x, one.stat_z, one.feas] == list(want[7])

    def test_mismatched_rows_rejected(self, example1):
        with pytest.raises(ValueError, match="one row per point"):
            kkt_residuals(example1, np.zeros((3, 2)), np.zeros((2, 2)),
                          np.zeros((3, 2)))


class TestLagrangian:
    def test_value(self, example1):
        x = np.array([1.0, 0.0])
        z = np.array([0.5, 0.0])
        y = np.array([2.0, -1.0])
        # f = 0.5, g = 0.5, A x - z = (0.5, 1.0), <y, .> = 0
        assert lagrangian(example1, x, z, y) == pytest.approx(1.0)

    def test_infinite_outside_domain(self):
        p = catalog("box-qp")
        z = np.full(6, 3.0)
        assert lagrangian(p, np.zeros(6), z, np.zeros(6)) == np.inf

    def test_saddle_inequalities(self, example1):
        """L(x*, z*, y) <= L(x*, z*, y*) <= L(x, z, y*) spot-checked on
        random perturbations around the known saddle."""
        xs, ys = example1.require_saddle()
        zs = example1.A.apply(xs)
        l_star = lagrangian(example1, xs, zs, ys)
        rng = np.random.default_rng(83)
        for _ in range(50):
            dx = rng.standard_normal(2)
            dz = rng.standard_normal(2)
            dy = rng.standard_normal(2)
            assert lagrangian(example1, xs, zs, ys + dy) <= l_star + 1e-12
            assert lagrangian(example1, xs + dx, zs + dz, ys) >= l_star - 1e-12


class TestLassoSolution:
    """Scratch re-verification of the frozen lasso solution.

    The program is min_x lam ||x||_1 + 0.5 ||A x - b||^2.  Optimality says
    the correlation r = A'(A x* - b) satisfies r_i = -lam sign(x*_i) on the
    support and |r_i| <= lam elsewhere, and the dual is y* = A x* - b.
    """

    def test_stationarity_from_scratch(self):
        p = catalog("lasso-small")
        _, b, lam = _lasso_data()
        a = p.A.to_dense()
        x = np.asarray(p.known_primal)
        r = a.T @ (a @ x - b)
        support = np.abs(x) > 0
        np.testing.assert_allclose(r[support], -lam * np.sign(x[support]),
                                   rtol=0, atol=1e-12)
        slack = lam - np.abs(r[~support])
        assert slack.min() > 1e-4, "inactive coordinates must be strictly slack"

    def test_dual_is_residual(self):
        p = catalog("lasso-small")
        a = p.A.to_dense()
        _, b, _ = _lasso_data()
        x = np.asarray(p.known_primal)
        np.testing.assert_allclose(np.asarray(p.known_dual), a @ x - b,
                                   rtol=0, atol=1e-12)

    def test_kkt_residual_tiny(self):
        p = catalog("lasso-small")
        res = kkt_residual(p, p.known_primal, p.A.apply(p.known_primal),
                           p.known_dual)
        assert res.max() <= 1e-9

    def test_objective_not_improvable(self):
        p = catalog("lasso-small")
        best = optimal_value(p)
        rng = np.random.default_rng(89)
        for _ in range(100):
            step = rng.standard_normal(8) * rng.choice([1e-3, 1e-2, 0.1])
            assert p.objective(np.asarray(p.known_primal) + step) >= best


class TestBoxQpSolution:
    """Scratch re-verification of the frozen box QP solution.

    The program is min 0.5 x'Px + q'x over the box [-1, 1]^6.  At the
    solution the gradient vanishes on interior coordinates and points
    against the active bound; the dual is minus the gradient.  P and q are
    rebuilt here from the catalog's documented seed so the check shares no
    code with the package."""

    @staticmethod
    def _data():
        rng = np.random.default_rng(911)
        m = rng.standard_normal((6, 6))
        return m @ m.T + 0.5 * np.eye(6), rng.standard_normal(6) * 2.0

    def test_regenerated_data_matches_catalog(self):
        p = catalog("box-qp")
        p_mat, q_vec = self._data()
        x = np.array([0.3, -1.2, 0.7, 0.0, 2.0, -0.4])
        assert p.h(x) == pytest.approx(0.5 * x @ p_mat @ x + q_vec @ x)

    def test_stationarity_from_scratch(self):
        p = catalog("box-qp")
        p_mat, q_vec = self._data()
        x = np.asarray(p.known_primal)
        grad = p_mat @ x + q_vec
        at_upper = x >= 1.0 - 1e-12
        at_lower = x <= -1.0 + 1e-12
        interior = ~(at_upper | at_lower)
        assert at_upper.tolist() == [True] + [False] * 5
        assert not at_lower.any()
        np.testing.assert_allclose(grad[interior], 0.0, atol=1e-12)
        assert grad[at_upper].max() < 0.0, \
            "gradient must push outward at the active upper bound"
        assert np.abs(x[interior]).max() < 1.0 - 1e-3

    def test_dual_is_negative_gradient(self):
        p = catalog("box-qp")
        p_mat, q_vec = self._data()
        x = np.asarray(p.known_primal)
        np.testing.assert_allclose(np.asarray(p.known_dual),
                                   -(p_mat @ x + q_vec), rtol=0, atol=1e-12)
        assert np.asarray(p.known_dual)[0] > 0.0

    def test_kkt_residual_tiny(self):
        p = catalog("box-qp")
        res = kkt_residual(p, p.known_primal, p.A.apply(p.known_primal),
                           p.known_dual)
        assert res.max() <= 1e-9

    def test_objective_not_improvable_inside_box(self):
        p = catalog("box-qp")
        best = optimal_value(p)
        x_star = np.asarray(p.known_primal)
        rng = np.random.default_rng(97)
        for _ in range(100):
            step = rng.standard_normal(6) * rng.choice([1e-3, 1e-2, 0.1])
            trial = np.clip(x_star + step, -1.0, 1.0)
            assert p.objective(trial) >= best


class TestDefaultStarts:
    def test_non_example_problems_start_at_ones(self):
        for name in ("lasso-small", "box-qp"):
            p = catalog(name)
            x0, z0, y0 = p.default_start()
            np.testing.assert_array_equal(x0, np.ones(p.n))
            np.testing.assert_allclose(z0, p.A.apply(x0), atol=0)
            np.testing.assert_array_equal(y0, np.zeros(p.m))


class TestMissingSolutions:
    def test_bare_problem_raises(self):
        p = ProblemSpec(name="bare", f=proxlib.zero(2),
                        h=proxlib.zero_smooth(2), g=proxlib.zero(2),
                        A=LinearMap.identity(2))
        with pytest.raises(MissingSolutionError):
            optimal_value(p)
        with pytest.raises(MissingSolutionError):
            p.require_saddle()


class TestKnownSolutionShapes:
    """A known primal must have A's column count and a known dual its row
    count, or the diagnostics would fail later on a broadcast."""

    @pytest.mark.parametrize("field,value", [
        ("known_primal", np.zeros(2)), ("known_primal", np.zeros((3, 1))),
        ("known_dual", np.zeros(3)), ("known_dual", 0.0)])
    def test_wrong_shape_is_refused(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} has shape "):
            ProblemSpec(name="x", f=proxlib.zero(3), h=proxlib.zero_smooth(3),
                        g=proxlib.zero(2), A=LinearMap.from_dense(np.ones((2, 3))),
                        **{field: value})

    def test_no_columns_is_refused(self):
        with pytest.raises(ValueError, match="A has no columns"):
            ProblemSpec(name="x", f=proxlib.zero(0), h=proxlib.zero_smooth(0),
                        g=proxlib.zero(2), A=LinearMap.from_dense(np.ones((2, 0))))

    def test_right_shapes_are_kept(self):
        p = ProblemSpec(name="x", f=proxlib.zero(3), h=proxlib.zero_smooth(3),
                        g=proxlib.zero(2), A=LinearMap.from_dense(np.ones((2, 3))),
                        known_primal=np.zeros(3), known_dual=np.zeros(2))
        assert p.known_primal.shape == (3,) and p.known_dual.shape == (2,)
