"""Proximable and smooth convex functions.

The solver touches nonsmooth terms only through proximal maps and smooth
terms only through gradients, so each function object carries exactly those
evaluations; a catalog function also names the affine piece of its prox
that a prox output lies on.  `metric_prox` solves the metric-weighted
prox subproblem

    argmin_v  f(v) + <v, linear> + 1/2 <v, Q v>

A scaled identity Q = s I (the tau-family x-update, or a scaled-identity
M2 in the z-update) is solved exactly by one prox evaluation,
prox_{f/s}(-linear/s).  Otherwise `metric_prox` works on the fixed-point
map F(v) = v - prox_{s f}(v - s (Q v + linear)) with s = 1/||Q||.  When Q
is stored as a dense matrix (every metric but a scaled identity that
`metric.x_update_metric` and `z_update_metric` build, or
`SelfAdjointPSD.from_dense`) and f names the affine pieces of its prox
(`piece_fn`: l1, box and the quadratics), it first tries the exact
minimizer on its start point's piece, so a start on the solution's piece
(the previous solution, along a run) costs one prox evaluation, and then
takes up to `NEWTON_STEPS` semismooth Newton steps on F (Qi-Sun 1993;
Li-Sun-Toh 2018, SSNAL), D the diagonal of each prox output's piece,
halving a step that does not decrease ||F|| enough.  The inverse Newton
matrix of each pattern D (the active set of l1 or box, which rarely
changes along a run) is kept by content, for every Q of the same matrix
(`_kept_inverse`), so a step is one matrix-vector product; a result never
depends on what was solved before.  Otherwise, or
when Newton has not converged, it runs accelerated proximal gradient
(FISTA, Beck-Teboulle 2009) with gradient-based adaptive restart
(O'Donoghue-Candes 2015) from the last Newton iterate.  Both phases stop
on the same gradient-mapping residual, and a non-finite residual raises
`ToleranceNotMet` at once.

Rows in, rows out: `f(x)`, `f.prox(tau, u)`, `h(x)` and `h.grad(x)` take
one (dim,) point or (B, dim) rows, at one scalar tau.  A point gives a
float or a (dim,) point; rows give a (B,) array or (B, dim) rows, and row
i is bit-equal to the call on row i alone.  The shape is checked once per
call.  Every catalog constructor, and so every problem-file kind, is row
native: its closures take either shape (the proxes are elementwise, and
the values reduce along the last axis).  A `ProxFunction` built from
closures that take one point (`rows` False) gets a per-row fallback.
`metric_prox` takes rows too: a scaled-identity Q solves them in one
prox, any other Q one row at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CertificationError, ToleranceNotMet
from .linops import (SelfAdjointPSD, _apply_rows, _as_point_or_rows,
                     _per_row, _row_dots)

__all__ = [
    "ProxFunction",
    "SmoothFunction",
    "zero",
    "sq_norm",
    "l1_norm",
    "box",
    "sq_distance",
    "zero_smooth",
    "quadratic_smooth",
    "metric_prox",
]

# Prox evaluations `metric_prox` spends on Newton steps, halved ones
# included, before handing over to FISTA.
NEWTON_STEPS = 8
# Floats that one `_Kept` store holds (2 MiB): 4096 inverse Newton
# matrices at n = 8, 64 general-path piece maps of lasso-small, or 16 RK4
# step maps of a problem of width 48.
KEPT_FLOATS = 2 ** 18
# Armijo's rule for a Newton move w + alpha dv: ||F|| must fall below
# (1 - ARMIJO * alpha) times its value at w, or alpha is halved.
ARMIJO = 1e-4


def _sum_sq(x):
    """x @ x for a point, or per row of (B, dim) rows, bit-equal either way."""
    return x @ x if x.ndim == 1 else _row_dots(x, x)


def _evaluate(fn, rows, dim, x):
    """fn at a point as a float, or at each of (B, dim) rows as a (B,)
    array: in one call when `rows`, otherwise one row at a time."""
    x = _as_point_or_rows(x, dim, "point")
    if x.ndim == 1:
        return float(fn(x))
    if rows:
        return np.asarray(fn(x), dtype=float)
    return np.array([float(fn(r)) for r in x], dtype=float)


class ProxFunction:
    """A proper closed convex function with a computable proximal map.

    Attributes
    ----------
    dim : int
        Ambient dimension.

    `eval_fn(x)` and `prox_fn(t, u)` take one (dim,) point; with `rows`
    they also take (B, dim) rows, otherwise rows are passed to them one at
    a time.  `ProxFunction(dim, eval_fn, prox_fn)` wraps custom closures.

    `piece_fn(t, x)`, for a piecewise affine prox, returns the affine
    piece prox_{t f}(u) = D u + e that a prox output x lies on, as (D, e):
    D, the diagonal of an element of the generalized Jacobian of
    u -> prox_{t f}(u) on that piece, a (dim,) array or a scalar, and e a
    (dim,) array or a scalar.  `region_fn(t, x)`, given
    with `piece_fn`, returns the input region of that piece as bounds
    (lo, hi), (dim,) arrays or scalars: prox_{t f}(u) = D u + e wherever
    lo < u < hi entrywise, and a bound may be infinite.  A point that lies
    on no piece of l1 or box (a NaN, or a point outside the box) gets
    bounds with lo < hi false.  `l1_norm` and `box` set both; with
    `affine` given, the single piece is affine's (a, b) and its region the
    whole line.  `metric_prox` reads its start and its Newton steps from
    the pieces (FISTA alone without them), and the flow's update
    (`flow._make_update`) certifies a piece's affine map on its region.

    `affine`, set by the builders of quadratic functions (`zero`,
    `sq_norm`, `sq_distance`) and None otherwise, maps a step t to the
    affine form (a, b) of the prox, prox_{t f}(u) = a u + b, with a a
    number and b a (dim,) vector or None for zero; the flow's update folds
    an affine prox into its matrix (`flow._make_update`).
    """

    def __init__(self, dim, eval_fn, prox_fn, rows=False, affine=None,
                 piece_fn=None, region_fn=None):
        self.dim = int(dim)
        self._eval = eval_fn
        self._prox = prox_fn
        if piece_fn is None and affine is not None:
            def piece_fn(t, x):
                a, b = affine(t)
                return a, 0.0 if b is None else b

            def region_fn(t, x):
                return -math.inf, math.inf
        self._piece = piece_fn
        self._region = region_fn
        self._rows = bool(rows)
        self.affine = affine

    def __call__(self, x):
        """f(x) as a float, or f at each of (B, dim) rows as a (B,) array."""
        return _evaluate(self._eval, self._rows, self.dim, x)

    def prox(self, tau, u) -> np.ndarray:
        """argmin_p  f(p) + ||p - u||^2 / (2 tau), tau > 0, at a point or
        at each of (B, dim) rows."""
        if not tau > 0:
            raise ValueError("prox step tau must be positive")
        u = np.asarray(u, dtype=float)
        tau = float(tau)
        if u.shape == (self.dim,):
            return self._prox(tau, u)
        u = _as_point_or_rows(u, self.dim, "point")
        if self._rows:
            return self._prox(tau, u)
        return _per_row(lambda r: self._prox(tau, r), self.dim)(u)


def zero(dim) -> ProxFunction:
    return ProxFunction(dim, lambda x: np.zeros(x.shape[:-1]),
                        lambda t, u: u.copy(), rows=True,
                        affine=lambda t: (1.0, None))


def sq_norm(dim, coef=1.0) -> ProxFunction:
    """f(x) = coef/2 ||x||^2; prox shrinks by 1/(1 + tau coef)."""
    c = float(coef)
    if c < 0:
        raise ValueError("sq_norm coefficient must be nonnegative")
    return ProxFunction(dim, lambda x: 0.5 * c * _sum_sq(x),
                        lambda t, u: u / (1.0 + t * c), rows=True,
                        affine=lambda t: (1.0 / (1.0 + t * c), None))


def l1_norm(dim, weight=1.0) -> ProxFunction:
    """f(x) = weight ||x||_1; prox is soft thresholding,
    copysign(max(|u| - t w, 0), u), four ufunc calls into one new array.

    A result in the dead zone |u| <= t w is a zero with the sign of u, as
    sign(u) max(|u| - t w, 0) gives it, except at u = -0.0: the product
    form gives +0.0 there (sign(-0.0) is +0.0), this form -0.0.
    """
    w = float(weight)
    if w < 0:
        raise ValueError("l1 weight must be nonnegative")

    def prox_fn(t, u):
        r = np.abs(u)
        r -= t * w
        np.maximum(r, 0.0, out=r)
        return np.copysign(r, u, out=r)

    def piece_fn(t, x):
        # the piece of sign(x): u - t w sign(x) where x != 0, else 0
        sign = np.sign(x)
        return np.abs(sign), (-t * w) * sign

    def region_fn(t, x):
        # sign(x) u > t w where x != 0, |u| <= t w where x = 0: the bounds
        # 2 t w sign(x) -+ t w, with -inf below a negative x and inf above
        # a positive one; a NaN is on no piece, with NaN bounds
        tw = t * w
        hi = np.sign(x)
        hi *= 2.0 * tw
        lo = hi - tw
        hi += tw
        lo[x < 0.0] = -np.inf
        hi[x > 0.0] = np.inf
        return lo, hi

    return ProxFunction(dim, lambda x: w * np.abs(x).sum(axis=-1), prox_fn,
                        rows=True, piece_fn=piece_fn, region_fn=region_fn)


def box(dim, lo=-1.0, hi=1.0) -> ProxFunction:
    """Indicator of the box [lo, hi]^dim (bounds may be vectors); prox
    clips, as minimum(maximum(u, lo), hi): the bits of np.clip(u, lo, hi),
    NaN included, without its Python wrapper."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).copy()
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")

    def eval_fn(x):
        inside = ((x >= lo - 1e-12) & (x <= hi + 1e-12)).all(axis=-1)
        return np.where(inside, 0.0, np.inf)

    def piece_fn(t, x):
        # u strictly inside, x (a bound) elsewhere
        inside = np.asarray((lo < x) & (x < hi), dtype=float)
        return inside, x - inside * x

    def region_fn(t, x):
        # (lo, hi) inside, u <= lo at lo, u >= hi at hi; a point outside
        # the box, or NaN, is on no piece: (inf, -inf)
        inside, at_lo, at_hi = (lo < x) & (x < hi), x == lo, x == hi
        return (np.where(inside, lo, np.where(
                    at_lo, -np.inf, np.where(at_hi, hi, np.inf))),
                np.where(inside, hi, np.where(
                    at_hi, np.inf, np.where(at_lo, lo, -np.inf))))

    return ProxFunction(dim, eval_fn,
                        lambda t, u: np.minimum(np.maximum(u, lo), hi),
                        rows=True, piece_fn=piece_fn, region_fn=region_fn)


def sq_distance(dim, center, coef=1.0) -> ProxFunction:
    """f(x) = coef/2 ||x - center||^2; prox averages u with the center."""
    b = np.broadcast_to(np.asarray(center, dtype=float), (dim,)).copy()
    c = float(coef)
    if c < 0:
        raise ValueError("sq_distance coefficient must be nonnegative")
    return ProxFunction(dim, lambda x: 0.5 * c * _sum_sq(x - b),
                        lambda t, u: (u + t * c * b) / (1.0 + t * c),
                        rows=True, affine=lambda t: (1.0 / (1.0 + t * c),
                                          (t * c / (1.0 + t * c)) * b))


class SmoothFunction:
    """A convex function with Lipschitz gradient, used additively in the
    objective.  Like `ProxFunction`, it takes a point or (B, dim) rows, and
    closures without `rows` see one point at a time.

    `P` and `q` are the matrix and vector of a quadratic
    h(x) = 1/2 x' P x + q' x (set by `quadratic_smooth`), None otherwise;
    the flow folds them into its affine update.
    """

    def __init__(self, dim, eval_fn, grad_fn, lipschitz_grad, is_zero=False,
                 rows=False):
        self.dim = int(dim)
        self._eval = eval_fn
        self._grad = grad_fn
        self.lipschitz_grad = float(lipschitz_grad)
        self.is_zero = bool(is_zero)
        self._rows = bool(rows)
        self.P = None
        self.q = None

    def __call__(self, x):
        """h(x) as a float, or h at each of (B, dim) rows as a (B,) array."""
        return _evaluate(self._eval, self._rows, self.dim, x)

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape == (self.dim,):
            return self._grad(x)
        x = _as_point_or_rows(x, self.dim, "point")
        return self._grad(x) if self._rows else _per_row(self._grad, self.dim)(x)


def zero_smooth(dim) -> SmoothFunction:
    return SmoothFunction(dim, lambda x: np.zeros(x.shape[:-1]), np.zeros_like,
                          0.0, is_zero=True, rows=True)


def quadratic_smooth(P, q=None) -> SmoothFunction:
    """h(x) = 1/2 x' P x + q' x for symmetric PSD P."""
    P = np.asarray(P, dtype=float)
    dim = P.shape[0]
    if P.shape != (dim, dim) or not np.allclose(P, P.T, atol=1e-12):
        raise ValueError("quadratic smooth term needs a symmetric matrix")
    q = np.zeros(dim) if q is None else np.asarray(q, dtype=float)
    evals = np.linalg.eigvalsh(0.5 * (P + P.T))
    if evals[0] < -1e-12:
        raise CertificationError("quadratic smooth term is not convex")

    def eval_fn(x):
        if x.ndim == 1:
            return 0.5 * (x @ (P @ x)) + q @ x
        return (0.5 * _row_dots(x, _apply_rows(P, x))
                + _row_dots(x, np.broadcast_to(q, x.shape)))

    h = SmoothFunction(
        dim, eval_fn,
        lambda x: (P @ x if x.ndim == 1 else _apply_rows(P, x)) + q,
        float(max(evals[-1], 0.0)), rows=True)
    h.P, h.q = P, q
    return h


def _newton_inverse(mat, step, jac):
    """The inverse of I - D + step D Q for Q = `mat` and D = diag(jac), or
    None if that matrix is singular."""
    lhs = mat * np.reshape(step * jac, (-1, 1))
    lhs.flat[::len(mat) + 1] += 1.0 - jac
    try:
        return np.linalg.inv(lhs)
    except np.linalg.LinAlgError:
        return None


class _Kept(dict):
    """Values kept under their keys, least recently used first: as many
    values of `floats` floats each as fit in `KEPT_FLOATS` floats (its
    `capacity`; 0 keeps nothing).  `keep` adds a value as the most recently
    used and drops the least recently used past the capacity; a caller that
    uses a kept value moves it to the end by setting what it pops.  Every
    value kept is a pure function of its key, computed the same way whether
    it is kept or not, so what a run computes never depends on what was
    kept."""

    __slots__ = ("capacity", "floats")

    def __init__(self, floats):
        super().__init__()
        self.floats = floats
        self.capacity = KEPT_FLOATS // floats

    def keep(self, key, value):
        """Keep value under key, a key not kept, as the most recently used;
        return value."""
        self[key] = value
        while len(self) > self.capacity:
            del self[next(iter(self))]
        return value


# The inverse Newton matrices of every Q in this process (`_kept_inverse`).
_INVERSES = _Kept(1)


def _kept_inverse(Q: SelfAdjointPSD, step, jac):
    """The inverse of I - D + step D Q for D = diag(jac), or None if that
    matrix is singular.

    That inverse is a pure function of Q's dense matrix, step and D, so
    one process-wide `_Kept` store, `_INVERSES`, keeps it under (the bytes
    of Q's matrix, step, jac's bytes) for every Q that meets it: the runs
    of one problem and metric, each with its own Q of the same matrix,
    share the inverses any of them computed.  Q's bytes are taken once per
    Q (`SelfAdjointPSD._mat_bytes`) and a bytes object keeps its hash, so
    a lookup hashes jac's n floats whatever n is.  At each miss the
    store's capacity becomes `KEPT_FLOATS` // n^2 for the largest n it has
    held since it was last empty, the new inverse's included (its
    `floats`), so with runs of several sizes in one process it still holds
    at most `KEPT_FLOATS` floats; after a large Q it keeps fewer small
    inverses until it empties.  `metric_prox`'s Newton steps and piece
    starts, and the general path's piece maps (`stepmaps._piece_rows`),
    read their inverses here."""
    mat = Q._mat_bytes
    if mat is None:
        mat = Q._mat_bytes = Q.base.mat.tobytes()
    key = (mat, step, jac.tobytes())
    kept = _INVERSES
    if key in kept:
        inv = kept[key] = kept.pop(key)
        return inv
    floats = Q.dim * Q.dim
    if floats > kept.floats or not kept:
        kept.floats = floats
    kept.capacity = KEPT_FLOATS // kept.floats
    return kept.keep(key, _newton_inverse(Q.base.mat, step, jac))


def _on_piece(f: ProxFunction, Q: SelfAdjointPSD, step, x, rhs):
    """M^{-1} rhs(D, e) for the affine piece prox_{step f}(u) = D u + e
    that x lies on (f's `piece_fn`) and M = I - D + step D Q, from the kept
    M^{-1} (`_kept_inverse`).  None if M is singular or the result's
    squared norm is not finite."""
    jac, e = f._piece(step, x)
    jac = np.asarray(jac, dtype=float)
    inv = _kept_inverse(Q, step, jac)
    if inv is None:
        return None
    # ndarray.dot gives the bits of @ here at half its call overhead
    v = inv.dot(rhs(jac, e))
    return v if math.isfinite(v.dot(v)) else None


def _newton_step(f: ProxFunction, Q: SelfAdjointPSD, step, x, d):
    """The semismooth Newton move at w for F(w) = w - x = -d, with
    x = prox_{step f}(w - step (Q w + linear)): dv = M^{-1} d, with D the
    diagonal of the piece that x lies on (`_on_piece`)."""
    return _on_piece(f, Q, step, x, lambda jac, e: d)


def _piece_start(f: ProxFunction, Q: SelfAdjointPSD, step, lin, x0):
    """The minimizer on the affine piece prox_{step f}(u) = D u + e that x0
    lies on: the v with v = D (v - step (Q v + lin)) + e, that is
    M^{-1} (e - step D lin) (`_on_piece`).  None also if x0 or lin is not
    finite (checked first, so the piece warns of nothing)."""
    if not math.isfinite(x0.dot(x0) + lin.dot(lin)):
        return None
    return _on_piece(f, Q, step, x0, lambda jac, e: e - jac * (step * lin))


def metric_prox(f: ProxFunction, Q: SelfAdjointPSD, linear, x0,
                tol=1e-10, max_iters=100_000, piece_start=True) -> np.ndarray:
    """Minimize f(v) + <v, linear> + 1/2 <v, Q v> for positive definite Q.

    A scaled identity Q = s I (`Q.base.scale` set) returns the exact
    minimizer prox_{f/s}(-linear/s) from one prox evaluation.  For any
    other Q, each iteration evaluates, at its point w_k (w_0 = x0, after
    the piece start below), the prox-gradient step with the fixed step
    1/||Q||

        v_{k+1} = prox_{step f}(w_k - step (Q w_k + linear))

    and stops when the relative residual ||v_{k+1} - w_k|| / step falls at
    or below tol * max(1, ||v_{k+1}||), returning v_{k+1}.

    Newton phase: when Q is stored as a dense matrix (`Q.base.mat`) and f
    names its pieces (`piece_fn`), the first `NEWTON_STEPS` iterations
    move w by a semismooth Newton step on F(w) = w - v_{k+1},
    dv = M^{-1} (v_{k+1} - w) with M = I - D + step D Q and D the diagonal
    of v_{k+1}'s piece (M is nonsingular for positive definite Q).
    M^{-1} is kept for each pattern D, by Q's matrix, step and D
    (`_kept_inverse`), so a step on a known pattern is one matrix-vector
    product, and a result never depends on what was solved before.
    The move w + alpha dv, alpha = 1, 1/2, 1/4, ..., is taken at the first
    alpha that cuts ||F|| below (1 - ARMIJO alpha) times its value at w,
    each trial one iteration: full steps can cycle between two active sets
    of l1 or box.  A singular matrix, or a step whose squared norm is not
    finite, ends the phase early.

    Piece start: when the Newton phase runs, the first iteration
    evaluates not at x0 but at the exact minimizer on the piece
    prox_{step f}(u) = D u + e that x0 lies on, M^{-1} (e - step D
    linear), from the same kept M^{-1} (`_piece_start`), which costs no
    prox evaluation.  When x0's piece is the solution's, as it mostly is
    for a start at the previous solution of a run, that evaluation passes
    the test and the call returns.  Otherwise the phases run from w_0 = x0
    as without the start, so a wrong piece costs one evaluation and
    spends none of the Newton phase.  A NaN or inf in x0 or `linear` (or
    a squared norm past the largest float), or a singular M, skips the
    start, and so does `piece_start` False: the flow's update passes it
    after the certificate of x0's piece map has failed
    (`flow._make_update`), so that piece is tried once.

    FISTA phase: from the last Newton point, or from w_0 otherwise,

        w_{k+1} = v_{k+1} + (theta_k - 1) / theta_{k+1} (v_{k+1} - v_k)

    Momentum restarts (theta back to 1, so w_{k+1} = v_{k+1}) whenever the
    gradient mapping at w_k points uphill along the last move, i.e.
    <w_k - v_{k+1}, v_{k+1} - v_k> > 0.  Any other Q runs this phase alone.

    Every prox evaluation, the piece start's and either phase's, counts
    against max_iters.  A result depends only on (f, Q, linear, x0, tol,
    max_iters, piece_start).

    `linear` and `x0` may be (B, dim) rows, one subproblem per row: a
    scaled-identity Q solves them in one prox, any other Q one row at a
    time.

    Raises
    ------
    ValueError
        If max_iters < 1, or f, Q, linear and x0 differ in dimension.
    CertificationError
        If Q carries no positive spectral floor (the subproblem may then
        have no unique minimizer).
    ToleranceNotMet
        If the budget runs out, or at the first non-finite residual (a
        NaN or inf in `linear` or `x0`); the exception carries the residual
        and the best iterate.
    """
    if not Q.alpha_floor > 0.0:
        raise CertificationError(
            "metric_prox needs a positive definite Q (alpha_floor > 0)")
    if max_iters < 1:
        raise ValueError("metric_prox needs max_iters >= 1")
    lin = np.asarray(linear, dtype=float)
    v = np.array(x0, dtype=float)
    if (f.dim != Q.dim or lin.shape != v.shape or lin.ndim not in (1, 2)
            or lin.shape[-1] != Q.dim):
        raise ValueError(
            f"metric_prox: f, Q, linear and x0 must share dimension {Q.dim}")
    scale = Q.base.scale
    if scale is not None:
        return f.prox(1.0 / scale, -lin / scale)
    if lin.ndim == 2:
        for i in range(len(v)):
            v[i] = metric_prox(f, Q, lin[i], v[i], tol, max_iters,
                               piece_start)
        return v
    step = 1.0 / Q.norm()
    qapply = Q.base._raw_apply
    newton_left = NEWTON_STEPS if Q.base.mat is not None and f._piece else 0
    start = None
    if newton_left and piece_start:
        start = _piece_start(f, Q, step, lin, v)
    w = v if start is None else start
    theta = 1.0
    # the last point a Newton step left from, its residual and the step
    w_base, res_base, dv, alpha = None, 0.0, None, 1.0
    for k in range(max_iters):
        v_next = f.prox(step, w - step * (qapply(w) + lin))
        d = v_next - w
        res = math.sqrt(d.dot(d)) / step
        if not math.isfinite(res):
            raise ToleranceNotMet(
                f"metric_prox: residual {res} at iteration {k + 1}",
                best=v, residual=res)
        if res <= tol * max(1.0, math.sqrt(v_next.dot(v_next))):
            return v_next
        if start is not None:
            # x0's piece is not the solution's: run the phases from x0
            start, w = None, v
            continue
        if newton_left:
            newton_left -= 1
            if w_base is not None and res > (1.0 - ARMIJO * alpha) * res_base:
                alpha *= 0.5
                w = w_base + alpha * dv
                continue
            dv = _newton_step(f, Q, step, v_next, d)
            if dv is not None:
                w_base, res_base, alpha = w, res, 1.0
                w, v = w + dv, v_next
                continue
            newton_left = 0
        # theta is 1 on the first FISTA iteration, so w_{k+1} = v_{k+1}
        move = v_next - v
        if d @ move < 0.0:
            theta = 1.0
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        w = v_next + ((theta - 1.0) / theta_next) * move
        theta = theta_next
        v = v_next
    raise ToleranceNotMet(
        f"metric_prox: residual {res:.3e} after {max_iters} iterations "
        f"(tolerance {tol:g})", best=v, residual=res)
