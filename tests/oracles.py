"""Reference formulas the tests check the package against.

Each is written out from its textbook form, independent of the update that
`flow._make_update` builds: the dual-extrapolated primal-dual step of
Chambolle and Pock, the prox of a convex conjugate by the Moreau identity,
the generalized Jacobian of each catalog prox, the Lagrangian, the
Lyapunov distance as a dense quadratic form, the optimal value at a known
solution, and the writer that `linops.load_dense` reads.
"""

import math

import numpy as np

from pdflow.discrete import _require_cp
from pdflow.errors import MissingSolutionError


def conjugate_prox(g, c, y):
    """prox of the convex conjugate, prox_{c g*}(y), via the Moreau identity.

    prox_{c g*}(y) = y - c prox_{g, 1/c}(y / c), exact up to roundoff for
    every g, so no conjugate needs to be materialized.
    """
    c = float(c)
    if not c > 0:
        raise ValueError("conjugate prox scale c must be positive")
    y = np.asarray(y, dtype=float)
    return y - c * g.prox(1.0 / c, y / c)


def prox_jacobian(kind, coef=1.0, weight=1.0, lo=-1.0, hi=1.0):
    """jac(t, u): the diagonal of an element of the generalized Jacobian
    of u -> prox_{t f}(u), read from the input u, for the `proxlib` kind
    `kind` at its parameters.  It is 1 for zero and 1 / (1 + t coef) for
    the quadratics; for l1 it is 1 where |u| > t weight, for box 1 where
    lo < u < hi, and 0 elsewhere, on the breakpoints too."""
    if kind == "zero":
        return lambda t, u: 1.0
    if kind in ("sq_norm", "sq_distance"):
        return lambda t, u: 1.0 / (1.0 + t * coef)
    if kind == "l1":
        return lambda t, u: np.abs(u) > t * weight
    if kind == "box":
        return lambda t, u: (lo < u) & (u < hi)
    raise ValueError(f"no prox Jacobian for kind {kind!r}")


def cp_step(p, d, k, x, y, y_prev):
    """Dual-extrapolated primal-dual step; returns (x^{k+1}, y^{k+1}).

    x^{k+1} = prox_{tau f}(x^k - tau A*(2 y^k - y^{k-1}))
    y^{k+1} = prox_{c g*}(y^k + c A x^{k+1})
    """
    _require_cp(p, d)
    tau_k = d.tau.value(k)
    x_new = p.f.prox(tau_k, x - tau_k * p.A._raw_adjoint(2.0 * y - y_prev))
    y_new = conjugate_prox(p.g, d.c, y + d.c * p.A._raw_apply(x_new))
    return x_new, y_new


def lagrangian(p, x, z, y):
    """f(x) + h(x) + g(z) + <y, A x - z>; +inf outside dom g or dom f."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    y = np.asarray(y, dtype=float)
    val = p.f(x) + p.h(x) + p.g(z)
    if math.isinf(val):
        return val
    return val + float(y @ (p.A.apply(x) - z))


def lyapunov(p, m1, m2, c, gamma, t, s):
    """Weighted squared distance of s to the known saddle at time t:
    ||x - x*||^2 in M1(t) + c(1-gamma) A*A, plus ||z - A x*||^2 in
    M2(t) + c I, plus ||y - y*||^2 / c, each block a dense matrix."""
    x_star, y_star = p.require_saddle()
    A = p.A.to_dense()
    dx, dz, dy = s.x - x_star, s.z - A @ x_star, s.y - y_star
    w_x = m1.at(t).base.to_dense() + c * (1.0 - gamma) * A.T @ A
    w_z = m2.at(t).base.to_dense() + c * np.eye(p.m)
    return float(dx @ w_x @ dx + dz @ w_z @ dz + dy @ dy / c)


def optimal_value(p):
    """The objective at p's known primal solution."""
    if p.known_primal is None:
        raise MissingSolutionError(
            f"problem {p.name!r} has no known primal solution")
    return p.objective(p.known_primal)


def save_dense(path, op):
    """Write op as `linops.load_dense` reads it: "rows cols", then rows."""
    mat = op.to_dense()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")
