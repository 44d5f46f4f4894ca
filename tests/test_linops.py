"""Tests for the linear-operator layer.

Dense matrices built with numpy serve as the oracle throughout: every
matrix-free result is compared against the same computation done with
explicit arrays.
"""

import warnings

import numpy as np
import pytest

from pdflow import linops
from pdflow.errors import CertificationError
from pdflow.linops import (LinearMap, PowerIterationWarning, SelfAdjointPSD,
                           block_diag, load_dense, operator_norm, psd_floor,
                           save_dense)


def _random_dense(rng, rows, cols):
    return rng.standard_normal((rows, cols))


class TestLinearMap:
    def test_apply_matches_matmul(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            mat = _random_dense(rng, 5, 3)
            op = LinearMap.from_dense(mat)
            x = rng.standard_normal(3)
            y = rng.standard_normal(5)
            np.testing.assert_allclose(op.apply(x), mat @ x, rtol=0, atol=1e-14)
            np.testing.assert_allclose(op.adjoint_apply(y), mat.T @ y,
                                       rtol=0, atol=1e-14)

    def test_call_is_apply(self):
        mat = np.array([[1.0, 2.0], [3.0, 4.0]])
        op = LinearMap.from_dense(mat)
        x = np.array([1.0, -1.0])
        np.testing.assert_array_equal(op(x), op.apply(x))

    def test_shape_checks(self):
        op = LinearMap.from_dense(np.ones((3, 2)))
        with pytest.raises(ValueError):
            op.apply(np.ones(3))
        with pytest.raises(ValueError):
            op.adjoint_apply(np.ones(2))

    def test_identity_and_zero(self):
        ident = LinearMap.identity(4, scale=2.5)
        x = np.arange(4.0)
        np.testing.assert_allclose(ident.apply(x), 2.5 * x)
        np.testing.assert_allclose(ident.adjoint_apply(x), 2.5 * x)
        z = LinearMap.zero(3, 5)
        np.testing.assert_array_equal(z.apply(np.ones(3)), np.zeros(5))
        np.testing.assert_array_equal(z.adjoint_apply(np.ones(5)), np.zeros(3))

    def test_algebra_matches_dense(self):
        """Composition, sum, difference, scaling, and transpose all agree
        with the corresponding dense-matrix operations."""
        rng = np.random.default_rng(11)
        a = _random_dense(rng, 4, 3)
        b = _random_dense(rng, 3, 5)
        c = _random_dense(rng, 4, 3)
        oa, ob, oc = (LinearMap.from_dense(m) for m in (a, b, c))
        np.testing.assert_allclose((oa @ ob).to_dense(), a @ b, atol=1e-13)
        np.testing.assert_allclose((oa + oc).to_dense(), a + c, atol=1e-13)
        np.testing.assert_allclose((oa - oc).to_dense(), a - c, atol=1e-13)
        np.testing.assert_allclose((2.0 * oa).to_dense(), 2.0 * a, atol=1e-13)
        np.testing.assert_allclose((oa * -0.5).to_dense(), -0.5 * a, atol=1e-13)
        np.testing.assert_allclose(oa.T.to_dense(), a.T, atol=1e-13)

    def test_mismatched_shapes_raise(self):
        oa = LinearMap.from_dense(np.ones((4, 3)))
        ob = LinearMap.from_dense(np.ones((4, 5)))
        with pytest.raises(ValueError):
            oa @ ob
        with pytest.raises(ValueError):
            oa + ob

    def test_gram(self):
        rng = np.random.default_rng(3)
        mat = _random_dense(rng, 6, 4)
        g = LinearMap.from_dense(mat).gram()
        np.testing.assert_allclose(g.to_dense(), mat.T @ mat, atol=1e-12)

    def test_to_dense_round_trip(self):
        mat = np.array([[0.0, 1.0, -2.0], [3.5, 0.0, 0.25]])
        np.testing.assert_array_equal(LinearMap.from_dense(mat).to_dense(), mat)


def _same_bits(got, want):
    """Equal shapes and equal bytes, so -0.0 and 0.0 differ too."""
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _one_point_map(mat):
    """A map from raw closures that reject anything but a single point."""
    def one(fn):
        def apply(x):
            assert x.ndim == 1
            return fn(x)
        return apply
    return LinearMap(mat.shape[1], mat.shape[0], one(mat.dot), one(mat.T.dot))


class TestRows:
    """(B, dim) rows in, (B, dim) rows out, each row bit-equal to the map
    applied to that row alone."""

    @pytest.mark.parametrize("rows,cols", [(2, 2), (12, 8), (6, 6), (1, 5),
                                           (5, 1), (13, 40)])
    def test_dense_rows_match_points(self, rows, cols):
        rng = np.random.default_rng(rows * 100 + cols)
        op = LinearMap.from_dense(_random_dense(rng, rows, cols))
        X = 10.0 * rng.standard_normal((33, cols))
        Y = 10.0 * rng.standard_normal((33, rows))
        _same_bits(op.apply(X), [op.apply(x) for x in X])
        _same_bits(op.adjoint_apply(Y), [op.adjoint_apply(y) for y in Y])

    def test_views_of_wider_rows(self):
        """Column slices of a state array, as the callers pass them."""
        rng = np.random.default_rng(3)
        op = LinearMap.from_dense(_random_dense(rng, 12, 8))
        U = rng.standard_normal((20, 32))
        _same_bits(op.apply(U[:, :8]), [op.apply(u[:8]) for u in U])
        _same_bits(op.adjoint_apply(U[:, 20:]),
                   [op.adjoint_apply(u[20:]) for u in U])

    @pytest.mark.parametrize("op", [LinearMap.identity(3),
                                    LinearMap.identity(3, scale=2.5),
                                    LinearMap.zero(3)],
                             ids=["identity", "scaled", "zero"])
    def test_identity_and_zero_rows(self, op):
        X = np.random.default_rng(5).standard_normal((7, 3))
        _same_bits(op.apply(X), [op.apply(x) for x in X])
        _same_bits(op.adjoint_apply(X), [op.adjoint_apply(x) for x in X])

    def test_rectangular_zero_rows(self):
        op = LinearMap.zero(3, 5)
        _same_bits(op.apply(np.ones((4, 3))), np.zeros((4, 5)))
        _same_bits(op.adjoint_apply(np.ones((4, 5))), np.zeros((4, 3)))

    def test_closure_map_falls_back_per_row(self):
        rng = np.random.default_rng(9)
        mat = _random_dense(rng, 4, 3)
        op = _one_point_map(mat)
        X = rng.standard_normal((6, 3))
        Y = rng.standard_normal((6, 4))
        _same_bits(op.apply(X), [mat.dot(x) for x in X])
        _same_bits(op.adjoint_apply(Y), [mat.T.dot(y) for y in Y])
        assert op.apply(np.empty((0, 3))).shape == (0, 4)

    def test_compositions_with_a_closure_map(self):
        """Every composition keeps the per-row fallback of its closure
        part and the row path of its dense part."""
        rng = np.random.default_rng(13)
        dense = LinearMap.from_dense(_random_dense(rng, 3, 3))
        closure = _one_point_map(_random_dense(rng, 3, 3))
        X = rng.standard_normal((5, 3))
        for op in (dense @ closure, closure @ dense, dense + closure,
                   closure - dense, 2.0 * closure, closure.T,
                   closure.gram()):
            _same_bits(op.apply(X), [op.apply(x) for x in X])
            _same_bits(op.adjoint_apply(X), [op.adjoint_apply(x) for x in X])

    def test_row_shape_checks(self):
        op = LinearMap.from_dense(np.ones((3, 2)))
        for bad in (np.ones((4, 3)), np.ones((2, 2, 2)), np.float64(1.0)):
            with pytest.raises(ValueError, match="must have shape"):
                op.apply(bad)
        with pytest.raises(ValueError, match="must have shape"):
            op.adjoint_apply(np.ones((4, 2)))


class TestBlockMap:
    """`_block_map` is one dense matrix, equal to the assembled blocks, up
    to _DENSE_LIMIT columns, and the caller's forward-only map above."""

    def test_dense_matches_assembled_matrix(self):
        rng = np.random.default_rng(31)
        n, m = 3, 4
        mats = [[rng.standard_normal((n, n)), None, rng.standard_normal((n, m))],
                [rng.standard_normal((m, n)), np.eye(m), None]]
        blocks = [[None if a is None else _one_point_map(a) for a in row]
                  for row in mats]
        blocks[1][1] = LinearMap.identity(m)
        op = linops._block_map(blocks, [n, m, m], lazy=None)
        full = np.block([[np.zeros((r, c)) if a is None else a
                          for a, c in zip(row, (n, m, m))]
                         for row, r in zip(mats, (n, m))])
        np.testing.assert_array_equal(op.mat, full)

    def test_wide_domain_is_the_lazy_map(self):
        n = linops._DENSE_LIMIT
        lazy = lambda x: 2.0 * x[:n]
        op = linops._block_map([[LinearMap.identity(n, 2.0),
                                 LinearMap.zero(1, n)]], [n, 1], lazy)
        assert op.mat is None and op._raw_apply is lazy
        assert (op.in_dim, op.out_dim) == (n + 1, n)
        with pytest.raises(NotImplementedError):
            op._raw_adjoint(np.ones(n))


class TestOperatorNorm:
    def test_matches_spectral_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            mat = _random_dense(rng, 5, 4)
            op = LinearMap.from_dense(mat)
            expected = np.linalg.norm(mat, 2)
            assert abs(operator_norm(op) - expected) <= 1e-8 * (1 + expected)

    def test_zero_map(self):
        assert operator_norm(LinearMap.zero(3, 3)) == 0.0

    def test_budget_warning(self):
        mat = np.diag([1.0, 1.0 - 1e-12, 0.5])
        op = LinearMap.from_dense(mat)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            value = operator_norm(op, tol=1e-16, max_iters=2)
        assert any(issubclass(w.category, PowerIterationWarning)
                   for w in caught)
        assert 0.4 < value <= 1.0 + 1e-9


class TestSelfAdjointPSD:
    def test_seminorm_matches_quadratic_form(self):
        rng = np.random.default_rng(23)
        base = _random_dense(rng, 4, 4)
        mat = base.T @ base
        op = SelfAdjointPSD.from_dense(mat)
        for _ in range(30):
            x = rng.standard_normal(4)
            np.testing.assert_allclose(op.seminorm_sq(x), x @ mat @ x,
                                       rtol=1e-12, atol=1e-12)

    def test_seminorm_clamps_roundoff(self):
        """Tiny negative quadratic-form values from roundoff come back as
        exactly zero instead of poisoning downstream square roots."""
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        op = SelfAdjointPSD.from_dense(mat)
        x = np.array([1.0, -1.0])
        assert op.seminorm_sq(x) == 0.0

    def test_seminorm_passes_through_clearly_negative(self):
        """A genuinely indefinite base is not silently repaired; the caller
        sees the negative value and decides what to do."""
        bad = LinearMap.from_dense(np.array([[-1.0]]))
        op = SelfAdjointPSD(bad)
        assert op.seminorm_sq(np.array([2.0])) == pytest.approx(-4.0)

    def test_identity_and_zero(self):
        ident = SelfAdjointPSD.identity(3, scale=0.5)
        assert ident.alpha_floor == 0.5
        np.testing.assert_allclose(ident.apply(np.ones(3)), 0.5 * np.ones(3))
        z = SelfAdjointPSD.zero(2)
        assert z.alpha_floor == 0.0
        assert z.seminorm_sq(np.array([3.0, -4.0])) == 0.0

    def test_add_and_scale_track_floors(self):
        a = SelfAdjointPSD.identity(2, scale=1.0)
        b = SelfAdjointPSD.identity(2, scale=2.0)
        s = a + b
        assert s.alpha_floor == pytest.approx(3.0)
        np.testing.assert_allclose(s.apply(np.ones(2)), 3.0 * np.ones(2))
        scaled = 2.0 * a
        assert scaled.alpha_floor == pytest.approx(2.0)
        with pytest.raises(ValueError):
            a * -1.0

    def test_norm(self):
        mat = np.diag([3.0, 1.0, 0.25])
        op = SelfAdjointPSD.from_dense(mat)
        assert op.norm() == pytest.approx(3.0, rel=1e-9)

    def test_norm_hint_short_circuits(self):
        op = SelfAdjointPSD(LinearMap.identity(2, 4.0), norm_hint=4.0)
        assert op.norm() == 4.0


class TestBlockDiag:
    def test_matches_dense_blocks(self):
        rng = np.random.default_rng(31)
        b1 = rng.standard_normal((2, 2))
        b2 = rng.standard_normal((3, 3))
        m1, m2 = b1.T @ b1 + np.eye(2), b2.T @ b2
        op = block_diag([SelfAdjointPSD.from_dense(m1, alpha_floor=1.0),
                         SelfAdjointPSD.from_dense(m2)])
        x = rng.standard_normal(5)
        expected = np.concatenate([m1 @ x[:2], m2 @ x[2:]])
        np.testing.assert_allclose(op.apply(x), expected, atol=1e-12)
        assert op.alpha_floor == 0.0
        total = x[:2] @ m1 @ x[:2] + x[2:] @ m2 @ x[2:]
        np.testing.assert_allclose(op.seminorm_sq(x), total, rtol=1e-12)


class TestPsdFloor:
    def test_dense_floor_is_smallest_eigenvalue(self):
        rng = np.random.default_rng(41)
        base = rng.standard_normal((5, 5))
        mat = base.T @ base + 0.3 * np.eye(5)
        expected = float(np.linalg.eigvalsh(mat)[0])
        got = psd_floor(SelfAdjointPSD.from_dense(mat))
        assert got == pytest.approx(expected, rel=1e-9)

    def test_strict_raises_on_indefinite(self):
        mat = np.diag([1.0, -0.5])
        with pytest.raises(CertificationError):
            psd_floor(SelfAdjointPSD.from_dense(mat))

    def test_non_strict_reports_negative(self):
        mat = np.diag([1.0, -0.5])
        got = psd_floor(SelfAdjointPSD.from_dense(mat), strict=False)
        assert got == pytest.approx(-0.5, rel=1e-6)

    @pytest.mark.parametrize("dim", [96, 128])
    def test_dense_up_to_the_limit(self, dim):
        """Up to `_DENSE_LIMIT` the floor is a dense eigensolve.  Shifted
        power iteration on these matrices warns and reads about 0.2 %
        above the true floor, the unsafe side of a PSD certificate."""
        rng = np.random.default_rng(dim)
        base = rng.standard_normal((dim, dim))
        mat = base.T @ base / dim + 0.5 * np.eye(dim)
        mat = 0.5 * (mat + mat.T)
        with warnings.catch_warnings():
            warnings.simplefilter("error", PowerIterationWarning)
            got = psd_floor(SelfAdjointPSD.from_dense(mat))
        assert got == pytest.approx(float(np.linalg.eigvalsh(mat)[0]),
                                    rel=1e-12, abs=0.0)

    def test_large_dimension_uses_shifted_power_iteration(self):
        """Above the dense cutoff the floor comes from a spectral shift;
        it must still agree with eigvalsh on the same matrix."""
        rng = np.random.default_rng(43)
        dim = linops._DENSE_LIMIT + 32
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = np.concatenate([[0.3], rng.uniform(1.0, 3.0, dim - 1)])
        mat = (q * eigs) @ q.T
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PowerIterationWarning)
            got = psd_floor(SelfAdjointPSD.from_dense(mat), tol=1e-10)
        assert got == pytest.approx(0.3, abs=1e-6)


class TestDenseIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(53)
        mat = rng.standard_normal((4, 6))
        path = tmp_path / "op.txt"
        save_dense(path, LinearMap.from_dense(mat))
        loaded = load_dense(path)
        assert (loaded.out_dim, loaded.in_dim) == (4, 6)
        np.testing.assert_allclose(loaded.to_dense(), mat, rtol=0, atol=0)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 2.0\n3.0\n")
        with pytest.raises(ValueError):
            load_dense(path)
