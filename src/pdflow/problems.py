"""Problem descriptions for min_x f(x) + h(x) + g(Ax) and a small catalog.

A problem bundles the three convex terms, the coupling map, and (when
available) a known saddle point used by the diagnostics to measure
distances, Lyapunov values, and optimality gaps.  The catalog carries:

* example1    -- 2-d strongly convex quadratic plus l1 composed with a
                 rotation-like map; unique saddle at the origin, the initial
                 point (-10, 10) puts both dual coordinates on the
                 constraint box boundary early on
* lasso-small -- l1-regularized least squares, 12 x 8 dense map
* box-qp      -- strongly convex quadratic over a box, coupling map I

Known solutions for lasso-small and box-qp were computed once by
independent first-order methods, polished by active-set linear solves,
and frozen below; tests re-verify their KKT residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import proxlib
from .errors import MissingSolutionError
from .linops import LinearMap, _row_norms
from .proxlib import ProxFunction, SmoothFunction

__all__ = [
    "ProblemSpec",
    "SaddleResidual",
    "kkt_residual",
    "kkt_residuals",
    "catalog",
    "CATALOG_NAMES",
]

CATALOG_NAMES = ("example1", "lasso-small", "box-qp")


@dataclass
class ProblemSpec:
    """A structured convex program and optional known saddle point, of
    shapes (n,) and (m,)."""

    name: str
    f: ProxFunction
    h: SmoothFunction
    g: ProxFunction
    A: LinearMap
    known_primal: np.ndarray | None = None
    known_dual: np.ndarray | None = None

    def __post_init__(self):
        if self.f.dim != self.A.in_dim or self.h.dim != self.A.in_dim:
            raise ValueError("f and h must live on the domain of A")
        if self.g.dim != self.A.out_dim:
            raise ValueError("g must live on the codomain of A")
        for name, dim in (("known_primal", self.n), ("known_dual", self.m)):
            value = getattr(self, name)
            if value is not None and np.shape(value) != (dim,):
                raise ValueError(f"{name} has shape {np.shape(value)}, "
                                 f"expected ({dim},)")

    @property
    def n(self) -> int:
        return self.A.in_dim

    @property
    def m(self) -> int:
        return self.A.out_dim

    def objective(self, x) -> float:
        return self.f(x) + self.h(x) + self.g(self.A.apply(x))

    def require_saddle(self) -> tuple[np.ndarray, np.ndarray]:
        if self.known_primal is None or self.known_dual is None:
            raise MissingSolutionError(
                f"problem {self.name!r} has no known saddle point")
        return self.known_primal, self.known_dual

    def default_start(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical initial point (x0, z0 = A x0, y0)."""
        if self.name == "example1":
            x0 = np.array([-10.0, 10.0])
            y0 = np.array([-10.0, 10.0])
        else:
            x0 = np.ones(self.n)
            y0 = np.zeros(self.m)
        return x0, self.A.apply(x0), y0


@dataclass
class SaddleResidual:
    """First-order optimality residuals at (x, z, y).

    stat_x -- distance of x from the prox fixed point of the x-stationarity
              inclusion 0 in df(x) + grad h(x) + A* y
    stat_z -- distance of z from the prox fixed point of y in dg(z)
    feas   -- ||A x - z||
    """

    stat_x: float
    stat_z: float
    feas: float

    def max(self) -> float:
        return max(self.stat_x, self.stat_z, self.feas)


def kkt_residuals(p: ProblemSpec, X, Z, Y) -> np.ndarray:
    """The `SaddleResidual` fields of each row (x_i, z_i, y_i), as an
    (R, 3) array with columns stat_x, stat_z and feas.

    X is (R, n) and Z, Y are (R, m).  Each row is bit-equal to the
    residual of that row alone, and each norm to np.linalg.norm.
    """
    X, Z, Y = (np.asarray(a, dtype=float) for a in (X, Z, Y))
    if X.ndim != 2 or not len(X) == len(Z) == len(Y):
        raise ValueError("kkt_residuals needs X, Z and Y with one row per "
                         "point")
    rx = X - p.f.prox(1.0, X - (p.h.grad(X) + p.A.adjoint_apply(Y)))
    rz = Z - p.g.prox(1.0, Z + Y)
    rf = p.A.apply(X) - Z
    return np.stack((_row_norms(rx), _row_norms(rz), _row_norms(rf)), axis=1)


def kkt_residual(p: ProblemSpec, x, z, y) -> SaddleResidual:
    """The residuals at one point (x, z, y): `kkt_residuals` of one row."""
    rows = (np.asarray(v, dtype=float)[None] for v in (x, z, y))
    return SaddleResidual(*map(float, kkt_residuals(p, *rows)[0]))


# -- catalog ----------------------------------------------------------------


def _example1() -> ProblemSpec:
    A = LinearMap.from_dense([[1.0, -1.0], [1.0, 1.0]])
    return ProblemSpec(
        name="example1",
        f=proxlib.sq_norm(2),
        h=proxlib.zero_smooth(2),
        g=proxlib.l1_norm(2),
        A=A,
        known_primal=np.zeros(2),
        known_dual=np.zeros(2),
    )


def _lasso_data() -> tuple[np.ndarray, np.ndarray, float]:
    rng = np.random.default_rng(20240817)
    a = rng.standard_normal((12, 8)) / math.sqrt(12.0)
    x_true = np.zeros(8)
    x_true[[1, 4, 6]] = [2.0, -1.5, 1.0]
    b = a @ x_true + 0.05 * rng.standard_normal(12)
    return a, b, 0.05


# Frozen solutions.  Computed by independent first-order methods (proximal
# gradient for the lasso, projected gradient for the box QP), then polished
# to machine precision by solving the active-set stationarity equations on
# the identified support.  tests/test_problems.py re-verifies the KKT
# residuals from scratch.
_LASSO_PRIMAL = (
    0.0, 1.936391614009246, 0.0, 0.0, -1.5945349374974909,
    0.008749578415270425, 0.9395270316255577, 0.0)
_LASSO_DUAL = (
    0.03212591577459378, -0.0202978336513564, 0.04778415636681299,
    -0.08918260046571125, 0.026368738456566954, -0.033079657515768135,
    -0.0038486687143240994, -0.0027311388034136352, -0.020506385778547798,
    0.05765536595269177, 0.014471102173171074, 0.03069049790208367)

_BOXQP_PRIMAL = (
    1.0, -0.3266143062530537, -0.663202810646533, 0.5293861435532092,
    0.1364541220561712, 0.7212587653487591)
_BOXQP_DUAL = (0.26640843040358564, 0.0, 0.0, 0.0, 0.0, 0.0)


def _lasso_small() -> ProblemSpec:
    a, b, lam = _lasso_data()
    return ProblemSpec(
        name="lasso-small",
        f=proxlib.l1_norm(8, weight=lam),
        h=proxlib.zero_smooth(8),
        g=proxlib.sq_distance(12, center=b),
        A=LinearMap.from_dense(a),
        known_primal=np.array(_LASSO_PRIMAL),
        known_dual=np.array(_LASSO_DUAL),
    )


def _boxqp_data() -> tuple[np.ndarray, np.ndarray, float, float]:
    rng = np.random.default_rng(911)
    m = rng.standard_normal((6, 6))
    p = m @ m.T + 0.5 * np.eye(6)
    q = rng.standard_normal(6) * 2.0
    return p, q, -1.0, 1.0


def _box_qp() -> ProblemSpec:
    p_mat, q_vec, lo, hi = _boxqp_data()
    return ProblemSpec(
        name="box-qp",
        f=proxlib.zero(6),
        h=proxlib.quadratic_smooth(p_mat, q_vec),
        g=proxlib.box(6, lo, hi),
        A=LinearMap.identity(6),
        known_primal=np.array(_BOXQP_PRIMAL),
        known_dual=np.array(_BOXQP_DUAL),
    )


def catalog(name: str) -> ProblemSpec:
    """Fresh ProblemSpec for a named catalog entry."""
    builders = {"example1": _example1, "lasso-small": _lasso_small,
                "box-qp": _box_qp}
    if name not in builders:
        raise KeyError(
            f"unknown problem {name!r}; catalog has {', '.join(CATALOG_NAMES)}")
    return builders[name]()
