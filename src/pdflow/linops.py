"""Finite-dimensional linear operators with explicit adjoints.

Everything downstream (prox subproblems, metric schedules, certificates)
manipulates operators only through `apply`/`adjoint_apply`, so maps can be
dense matrices, scaled identities, or lazy compositions/sums without the
callers caring.  Norms and spectral floors are exact: each is one
eigensolve of a dense form, and a form past `_EIGENSOLVE_FLOATS` is
refused with a CertificationError rather than estimated.

Rows in, rows out: `apply` and `adjoint_apply` take one (in_dim,) point or
(B, in_dim) rows and return a point or (B, out_dim) rows; the shape is
checked once per call.  Row i of the result is bit-equal to applying the
map to row i alone.  Dense, identity and zero maps apply rows in one
call: a dense map as the stacked matrix-vector product `_apply_rows`
(`X @ mat.T` rounds differently), while a single point keeps `mat.dot`,
the cheaper call on the flow's per-stage path.  A map built from raw
closures gets a per-row fallback that calls its closures on one row at a
time, and so does any composition, sum or multiple that contains one.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import CertificationError

__all__ = [
    "LinearMap",
    "SelfAdjointPSD",
    "operator_norm",
    "psd_floor",
    "load_dense",
]

# Widest operator stored as one dense matrix (`_block_map`,
# `_metric_spectrum`).  Measured on a 2-vCPU VM: against the lazy form, the
# flow's dense H (n + 2m columns) takes 0.64-0.70 of the time per evaluation
# up to 128 columns and repays its longer build within 33 evaluations; at
# 256 columns it takes 0.90 and needs about 500.
_DENSE_LIMIT = 128

# Largest dense form, in floats, that a norm or a spectral floor
# materializes: A itself (out x in) for `operator_norm`, a metric (dim x dim)
# for `psd_floor`.  2**22 floats is 32 MiB; `eigvalsh` at 2048 x 2048 takes
# 0.71 s on a 2-vCPU VM.  Past it a certificate is refused, not estimated.
_EIGENSOLVE_FLOATS = 2 ** 22


def _as_point_or_rows(x, dim, name="x"):
    """x as a float (dim,) point or (B, dim) rows; ValueError otherwise."""
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,) and (v.ndim != 2 or v.shape[1] != dim):
        raise ValueError(
            f"{name} must have shape ({dim},) or (B, {dim}), got {v.shape}")
    return v


def _row_dots(a, b) -> np.ndarray:
    """<a_i, b_i> per row, each one BLAS dot like a 1-D `a_i @ b_i`, so
    `sqrt(_row_dots(d, d))` is bit-equal to np.linalg.norm of each row
    (norm(axis=1) and einsum sum in another order).  `b` may be a
    broadcast view, such as one vector against every row of `a`."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _apply_rows(mat, rows) -> np.ndarray:
    """mat @ r per row r, each one matrix-vector product like `mat.dot(r)`."""
    return (mat @ rows[:, :, None])[:, :, 0]


def _row_norms(a) -> np.ndarray:
    return np.sqrt(_row_dots(a, a))


def _per_row(fn, width):
    """A rows closure that calls the one-point closure `fn` on each row."""
    def rows(x):
        out = np.empty((len(x), width))
        for i, r in enumerate(x):
            out[i] = fn(r)
        return out
    return rows


class LinearMap:
    """A linear operator R^in_dim -> R^out_dim with a known adjoint.

    Parameters
    ----------
    in_dim, out_dim : int
        Domain and codomain dimensions.
    apply, adjoint : callable
        Raw ndarray -> ndarray closures on one point. `adjoint` must satisfy
        <A x, y> = <x, A* y> for all x, y; tests probe this on random pairs.
    rows_apply, rows_adjoint : callable, optional
        The same maps on (B, dim) rows; by default they call `apply` and
        `adjoint` on each row.
    """

    __slots__ = ("in_dim", "out_dim", "_raw_apply", "_raw_adjoint",
                 "_rows_apply", "_rows_adjoint", "mat", "scale", "_norm")

    def __init__(self, in_dim, out_dim, apply, adjoint, rows_apply=None,
                 rows_adjoint=None):
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self._raw_apply = apply
        self._raw_adjoint = adjoint
        self._rows_apply = rows_apply or _per_row(apply, self.out_dim)
        self._rows_adjoint = rows_adjoint or _per_row(adjoint, self.in_dim)
        self.mat = None
        self.scale = None
        self._norm = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_dense(cls, mat) -> "LinearMap":
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError("dense map needs a 2-d array")
        matT = mat.T.copy()
        op = cls(mat.shape[1], mat.shape[0], mat.dot, matT.dot,
                 lambda x: _apply_rows(mat, x), lambda y: _apply_rows(matT, y))
        op.mat = mat
        return op

    @classmethod
    def identity(cls, dim, scale=1.0) -> "LinearMap":
        s = float(scale)
        if s == 1.0:
            fwd = lambda x: x.copy()
        else:
            fwd = lambda x: s * x
        op = cls(dim, dim, fwd, fwd, fwd, fwd)
        op.scale = s
        return op

    @classmethod
    def zero(cls, in_dim, out_dim=None) -> "LinearMap":
        out_dim = in_dim if out_dim is None else out_dim
        op = cls(in_dim, out_dim,
                 lambda x: np.zeros(out_dim),
                 lambda y: np.zeros(in_dim),
                 lambda x: np.zeros((len(x), out_dim)),
                 lambda y: np.zeros((len(y), in_dim)))
        if in_dim == out_dim:
            op.scale = 0.0
        return op

    # -- evaluation --------------------------------------------------------

    def apply(self, x) -> np.ndarray:
        x = _as_point_or_rows(x, self.in_dim)
        return self._raw_apply(x) if x.ndim == 1 else self._rows_apply(x)

    def adjoint_apply(self, y) -> np.ndarray:
        y = _as_point_or_rows(y, self.out_dim, "y")
        return self._raw_adjoint(y) if y.ndim == 1 else self._rows_adjoint(y)

    def __call__(self, x) -> np.ndarray:
        return self.apply(x)

    def norm(self) -> float:
        """||A|| by `operator_norm`, computed once per map."""
        if self._norm is None:
            self._norm = operator_norm(self)
        return self._norm

    # -- algebra -----------------------------------------------------------

    def __matmul__(self, other) -> "LinearMap":
        if not isinstance(other, LinearMap):
            return NotImplemented
        if other.out_dim != self.in_dim:
            raise ValueError(
                f"composition dimension mismatch: {self.in_dim} vs {other.out_dim}")
        f, g = self._raw_apply, other._raw_apply
        fa, ga = self._raw_adjoint, other._raw_adjoint
        F, G = self._rows_apply, other._rows_apply
        FA, GA = self._rows_adjoint, other._rows_adjoint
        return LinearMap(other.in_dim, self.out_dim,
                         lambda x: f(g(x)), lambda y: ga(fa(y)),
                         lambda x: F(G(x)), lambda y: GA(FA(y)))

    def __add__(self, other) -> "LinearMap":
        if not isinstance(other, LinearMap):
            return NotImplemented
        if (other.in_dim, other.out_dim) != (self.in_dim, self.out_dim):
            raise ValueError("sum of maps with different shapes")
        f, g = self._raw_apply, other._raw_apply
        fa, ga = self._raw_adjoint, other._raw_adjoint
        F, G = self._rows_apply, other._rows_apply
        FA, GA = self._rows_adjoint, other._rows_adjoint
        return LinearMap(self.in_dim, self.out_dim,
                         lambda x: f(x) + g(x), lambda y: fa(y) + ga(y),
                         lambda x: F(x) + G(x), lambda y: FA(y) + GA(y))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, alpha) -> "LinearMap":
        a = float(alpha)
        f, fa = self._raw_apply, self._raw_adjoint
        F, FA = self._rows_apply, self._rows_adjoint
        return LinearMap(self.in_dim, self.out_dim,
                         lambda x: a * f(x), lambda y: a * fa(y),
                         lambda x: a * F(x), lambda y: a * FA(y))

    __rmul__ = __mul__

    @property
    def T(self) -> "LinearMap":
        return LinearMap(self.out_dim, self.in_dim,
                         self._raw_adjoint, self._raw_apply,
                         self._rows_adjoint, self._rows_apply)

    def gram(self) -> "LinearMap":
        """A* A as a lazy composition (always square, self-adjoint, PSD)."""
        return self.T @ self

    def to_dense(self) -> np.ndarray:
        """The matrix of the map: its rows applied to the unit vectors, so
        column j is bit-equal to applying the map to e_j."""
        if self.mat is not None:
            return self.mat.copy()
        return self._rows_apply(np.eye(self.in_dim)).T.copy()


class SelfAdjointPSD:
    """A self-adjoint operator claimed positive semidefinite.

    `alpha_floor` is a certified lower bound on the spectrum (0 when only
    semidefiniteness is claimed).  The claim is checked by `psd_floor`, not
    at construction.

    `_mat_bytes` is None until `proxlib._kept_inverse` first keeps an
    inverse Newton matrix of this operator; it then holds the bytes of the
    dense matrix, part of the key under which that one store keeps them.
    Like the norm hint, they are derived from the operator once, so an
    operator must not be mutated once it is in use.
    """

    __slots__ = ("dim", "base", "alpha_floor", "_norm_hint", "_mat_bytes")

    def __init__(self, base: LinearMap, alpha_floor=0.0, norm_hint=None):
        if base.in_dim != base.out_dim:
            raise ValueError("self-adjoint operator must be square")
        self.dim = base.in_dim
        self.base = base
        self.alpha_floor = float(alpha_floor)
        self._norm_hint = norm_hint
        self._mat_bytes = None

    @classmethod
    def identity(cls, dim, scale=1.0) -> "SelfAdjointPSD":
        s = float(scale)
        if s < 0:
            raise ValueError("identity scale must be nonnegative")
        return cls(LinearMap.identity(dim, s), alpha_floor=s, norm_hint=s)

    @classmethod
    def zero(cls, dim) -> "SelfAdjointPSD":
        return cls(LinearMap.zero(dim), alpha_floor=0.0, norm_hint=0.0)

    @classmethod
    def from_dense(cls, mat, alpha_floor=0.0) -> "SelfAdjointPSD":
        mat = np.asarray(mat, dtype=float)
        if mat.shape[0] != mat.shape[1] or not np.allclose(mat, mat.T, atol=1e-12):
            raise ValueError("expected a symmetric square matrix")
        return cls(LinearMap.from_dense(0.5 * (mat + mat.T)), alpha_floor)

    def apply(self, x) -> np.ndarray:
        return self.base.apply(x)

    def norm(self) -> float:
        if self._norm_hint is None:
            self._norm_hint = operator_norm(self.base)
        return self._norm_hint


def _refuse_past_cap(what, rows, cols):
    """CertificationError when a rows x cols dense form is past the cap."""
    if rows * cols > _EIGENSOLVE_FLOATS:
        raise CertificationError(
            f"{what}: the {rows} x {cols} dense form holds {rows * cols} "
            f"floats, past the {_EIGENSOLVE_FLOATS} an exact eigensolve may "
            f"materialize, and an estimate would not certify it")


def _symmetric_spectrum(base: LinearMap, what):
    """The symmetrized dense matrix of self-adjoint `base` and its
    eigenvalues in ascending order, refused past the cap."""
    _refuse_past_cap(what, base.in_dim, base.in_dim)
    mat = base.to_dense()
    mat = 0.5 * (mat + mat.T)
    return mat, np.linalg.eigvalsh(mat)


def _metric_spectrum(base: LinearMap):
    """Self-adjoint `base`, its smallest eigenvalue and its norm
    max(|lambda_min|, |lambda_max|), both from one eigensolve.  The map
    returned is the symmetrized matrix when `base` is at most `_DENSE_LIMIT`
    wide, so each application is a single product instead of a chain of
    lazy closures; a wider `base` as it is."""
    mat, eigs = _symmetric_spectrum(base, "metric")
    if base.in_dim <= _DENSE_LIMIT:
        base = LinearMap.from_dense(mat)
    return base, float(eigs[0]), float(max(-eigs[0], eigs[-1]))


def _forward_only(y):
    raise NotImplementedError("this block map applies forward only")


def _block_map(blocks, in_dims, lazy) -> LinearMap:
    """The block operator whose block row i is `blocks[i]`, one LinearMap
    or None (a zero block) per block column, the columns `in_dims` wide;
    every block row holds at least one map.  A domain at most
    `_DENSE_LIMIT` wide gives one dense matrix, so an application is
    a single product.  A wider one is the forward-only map whose application
    is `lazy`, which the caller writes to share products between blocks
    (one A x for every block that applies A, say)."""
    out_dims = [next(op.out_dim for op in row if op is not None)
                for row in blocks]
    rows = list(itertools.accumulate(out_dims, initial=0))
    cols = list(itertools.accumulate(in_dims, initial=0))
    if cols[-1] > _DENSE_LIMIT:
        return LinearMap(cols[-1], rows[-1], lazy, _forward_only)
    mat = np.zeros((rows[-1], cols[-1]))
    for i, row in enumerate(blocks):
        for j, op in enumerate(row):
            if op is not None:
                mat[rows[i]:rows[i + 1], cols[j]:cols[j + 1]] = op.to_dense()
    return LinearMap.from_dense(mat)


def operator_norm(op: LinearMap) -> float:
    """||A||_2 exactly: |s| for a scaled identity s I.  For any other map,
    the square root of the largest eigenvalue of the Gram matrix of A's
    narrow side (A* A or A A*, whichever is smaller), built from `to_dense`.
    A map whose dense form is past `_EIGENSOLVE_FLOATS` raises
    CertificationError before anything is materialized."""
    if op.scale is not None:
        return abs(op.scale)
    _refuse_past_cap("operator_norm", op.out_dim, op.in_dim)
    if op.in_dim == 0 or op.out_dim == 0:
        return 0.0
    mat = op.to_dense()
    gram = mat.T @ mat if op.in_dim <= op.out_dim else mat @ mat.T
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


def psd_floor(u: SelfAdjointPSD, tol=1e-8, strict=True) -> float:
    """Smallest eigenvalue of `u`; certifies the PSD claim.

    The value is exact: one eigensolve of the symmetrized dense matrix,
    which is refused with CertificationError past `_EIGENSOLVE_FLOATS`.
    With `strict` (default), a value below -tol raises CertificationError.
    Pass strict=False to obtain the raw value for operators whose
    definiteness is the question being decided.
    """
    lam = float(_symmetric_spectrum(u.base, "psd_floor")[1][0])
    if strict and lam < -tol:
        raise CertificationError(
            f"operator is not positive semidefinite: smallest eigenvalue {lam:.3e}")
    return lam


def load_dense(path) -> LinearMap:
    """Read a dense map from text: first line "rows cols", then row-major rows."""
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'rows cols' header")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise ValueError(f"{path}: malformed 'rows cols' header") from exc
    data = tokens[2:]
    if len(data) != rows * cols:
        raise ValueError(
            f"{path}: expected {rows * cols} entries for a {rows}x{cols} map, "
            f"got {len(data)}")
    mat = np.array([float(t) for t in data]).reshape(rows, cols)
    return LinearMap.from_dense(mat)

