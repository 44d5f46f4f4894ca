"""Proximable and smooth convex functions.

The solver touches nonsmooth terms only through proximal maps and smooth
terms only through gradients, so each function object carries exactly those
evaluations.  `metric_prox` solves the metric-weighted prox subproblem

    argmin_v  f(v) + <v, linear> + 1/2 <v, Q v>

by accelerated proximal gradient (FISTA, Beck-Teboulle 2009) with the
fixed step 1/||Q|| and gradient-based adaptive restart (O'Donoghue-Candes
2015).  It stops on the gradient-mapping residual at the extrapolated
point; when Q is a scaled identity the first step lands on the exact
closed form and the second confirms it.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CertificationError, ToleranceNotMet
from .linops import SelfAdjointPSD

__all__ = [
    "ProxFunction",
    "SmoothFunction",
    "zero",
    "sq_norm",
    "l1_norm",
    "box",
    "sq_distance",
    "separable",
    "zero_smooth",
    "quadratic_smooth",
    "prox",
    "conjugate_prox",
    "metric_prox",
]

class ProxFunction:
    """A proper closed convex function with a computable proximal map.

    Attributes
    ----------
    dim : int
        Ambient dimension.
    """

    def __init__(self, dim, eval_fn, prox_fn, params=None):
        self.dim = int(dim)
        self._eval = eval_fn
        self._prox = prox_fn
        self.params = dict(params or {})

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {x.shape}")
        return float(self._eval(x))

    def prox(self, tau, u) -> np.ndarray:
        """argmin_p  f(p) + ||p - u||^2 / (2 tau), tau > 0."""
        if not tau > 0:
            raise ValueError("prox step tau must be positive")
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {u.shape}")
        return self._prox(float(tau), u)


def zero(dim) -> ProxFunction:
    return ProxFunction(dim, lambda x: 0.0, lambda t, u: u.copy())


def sq_norm(dim, coef=1.0) -> ProxFunction:
    """f(x) = coef/2 ||x||^2; prox shrinks by 1/(1 + tau coef)."""
    c = float(coef)
    if c < 0:
        raise ValueError("sq_norm coefficient must be nonnegative")
    return ProxFunction(dim, lambda x: 0.5 * c * float(x @ x),
                        lambda t, u: u / (1.0 + t * c), {"coef": c})


def l1_norm(dim, weight=1.0) -> ProxFunction:
    """f(x) = weight ||x||_1; prox is soft thresholding."""
    w = float(weight)
    if w < 0:
        raise ValueError("l1 weight must be nonnegative")

    def prox_fn(t, u):
        thr = t * w
        return np.sign(u) * np.maximum(np.abs(u) - thr, 0.0)

    return ProxFunction(dim, lambda x: w * float(np.abs(x).sum()), prox_fn,
                        {"weight": w})


def box(dim, lo=-1.0, hi=1.0) -> ProxFunction:
    """Indicator of the box [lo, hi]^dim (bounds may be vectors); prox clips."""
    lo = np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).copy()
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")

    def eval_fn(x):
        if np.all(x >= lo - 1e-12) and np.all(x <= hi + 1e-12):
            return 0.0
        return np.inf

    return ProxFunction(dim, eval_fn, lambda t, u: np.clip(u, lo, hi),
                        {"lo": lo, "hi": hi})


def sq_distance(dim, center, coef=1.0) -> ProxFunction:
    """f(x) = coef/2 ||x - center||^2; prox averages u with the center."""
    b = np.broadcast_to(np.asarray(center, dtype=float), (dim,)).copy()
    c = float(coef)
    if c < 0:
        raise ValueError("sq_distance coefficient must be nonnegative")
    return ProxFunction(dim, lambda x: 0.5 * c * float((x - b) @ (x - b)),
                        lambda t, u: (u + t * c * b) / (1.0 + t * c),
                        {"center": b, "coef": c})


def separable(dim, eval_fn, prox_fn, params=None) -> ProxFunction:
    """Wrap custom vectorized eval/prox closures as a prox function."""
    return ProxFunction(dim, eval_fn, prox_fn, params)


class SmoothFunction:
    """A convex function with Lipschitz gradient, used additively in the objective."""

    def __init__(self, dim, eval_fn, grad_fn, lipschitz_grad, is_zero=False):
        self.dim = int(dim)
        self._eval = eval_fn
        self._grad = grad_fn
        self.lipschitz_grad = float(lipschitz_grad)
        self.is_zero = bool(is_zero)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {x.shape}")
        return float(self._eval(x))

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {x.shape}")
        return self._grad(x)


def zero_smooth(dim) -> SmoothFunction:
    return SmoothFunction(dim, lambda x: 0.0, lambda x: np.zeros(dim), 0.0, is_zero=True)


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
    return SmoothFunction(
        dim,
        lambda x: 0.5 * float(x @ (P @ x)) + float(q @ x),
        lambda x: P @ x + q,
        float(max(evals[-1], 0.0)),
    )


def prox(f: ProxFunction, tau, u) -> np.ndarray:
    """The proximal map of f at u with step tau."""
    return f.prox(tau, u)


def conjugate_prox(g: ProxFunction, c, y) -> np.ndarray:
    """prox of the convex conjugate, prox_{c g*}(y), via the Moreau identity.

    prox_{c g*}(y) = y - c prox_{g, 1/c}(y / c), exact up to roundoff for
    every g, so no conjugate needs to be materialized.
    """
    c = float(c)
    if not c > 0:
        raise ValueError("conjugate prox scale c must be positive")
    y = np.asarray(y, dtype=float)
    return y - c * g.prox(1.0 / c, y / c)


def metric_prox(f: ProxFunction, Q: SelfAdjointPSD, linear, x0,
                tol=1e-10, max_iters=100_000) -> np.ndarray:
    """Minimize f(v) + <v, linear> + 1/2 <v, Q v> for positive definite Q.

    FISTA with the fixed step 1/||Q||, started at w_0 = v_0 = x0:

        v_{k+1} = prox_{step f}(w_k - step (Q w_k + linear))
        w_{k+1} = v_{k+1} + (theta_k - 1) / theta_{k+1} (v_{k+1} - v_k)

    Momentum restarts (theta back to 1, so w_{k+1} = v_{k+1}) whenever the
    gradient mapping at w_k points uphill along the last move, i.e.
    <w_k - v_{k+1}, v_{k+1} - v_k> > 0.  Stops when the relative residual
    ||v_{k+1} - w_k|| / step falls at or below tol * max(1, ||v_{k+1}||).

    Raises
    ------
    CertificationError
        If Q carries no positive spectral floor (the subproblem may then
        have no unique minimizer).
    ToleranceNotMet
        If the budget runs out; the exception carries the best iterate.
    """
    if Q.alpha_floor <= 0.0:
        raise CertificationError(
            "metric_prox needs a positive definite Q (alpha_floor > 0)")
    lin = np.asarray(linear, dtype=float)
    v = np.array(x0, dtype=float)
    if f.dim != Q.dim or lin.shape != (Q.dim,) or v.shape != (Q.dim,):
        raise ValueError(
            f"metric_prox: f, Q, linear and x0 must share dimension {Q.dim}")
    step = 1.0 / Q.norm()
    qapply = Q.base._raw_apply
    w = v
    theta = 1.0
    for _ in range(max_iters):
        v_next = f.prox(step, w - step * (qapply(w) + lin))
        d = v_next - w
        res = math.sqrt(d @ d) / step
        if res <= tol * max(1.0, math.sqrt(v_next @ v_next)):
            return v_next
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
