"""Time-dependent metric schedules and the certificates that license them.

The x-update is weighted by M1(t), the z-update by M2(t).  Three schedule
families cover the catalog:

* zero          -- M(t) = 0
* constant      -- M(t) = U for a fixed PSD operator
* tau-family    -- M1(t) = I / tau(t) - c A* A for a step schedule tau(t),
                   which turns the x-update metric c A* A + M1(t) into the
                   scaled identity I / tau(t) and the update into a plain
                   prox step

`certify` evaluates the definiteness and step-size conditions the
convergence guarantees require, sampling the schedule over the horizon;
failures are reported as false flags, never exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import (_DENSE_EIG_LIMIT, LinearMap, SelfAdjointPSD, block_diag,
                     operator_norm, psd_floor)

__all__ = [
    "TauSchedule",
    "MetricSchedule",
    "CStrong",
    "ConditionReport",
    "certify",
    "weight_W",
    "x_update_metric",
    "z_update_metric",
    "default_sample_times",
]


class TauSchedule:
    """Scalar step schedule tau(t) > 0, nondecreasing in t."""

    def __init__(self, kind, tau0, tau_max=None):
        self.kind = kind
        self.tau0 = float(tau0)
        self.tau_max = self.tau0 if tau_max is None else float(tau_max)
        if self.tau0 <= 0:
            raise ValueError("tau schedule must be positive")
        if self.tau_max < self.tau0:
            raise ValueError("saturating schedule needs tau_max >= tau0")

    @classmethod
    def constant(cls, tau0) -> "TauSchedule":
        return cls("constant", tau0)

    @classmethod
    def saturating(cls, tau0, tau_max) -> "TauSchedule":
        """tau(t) = tau_max - (tau_max - tau0) exp(-t), increasing to tau_max."""
        return cls("saturating", tau0, tau_max)

    def value(self, t) -> float:
        if self.kind == "constant":
            return self.tau0
        return self.tau_max - (self.tau_max - self.tau0) * math.exp(-t)

    def derivative(self, t) -> float:
        if self.kind == "constant":
            return 0.0
        return (self.tau_max - self.tau0) * math.exp(-t)

    def sup_value(self) -> float:
        return self.tau_max

    def sup_derivative_ratio(self) -> float:
        """sup_t tau'(t) / tau(t)^2, the decay rate of the induced metric."""
        if self.kind == "constant":
            return 0.0
        # tau' / tau^2 decreases in t for the saturating family; sup at t=0
        return self.derivative(0.0) / self.value(0.0) ** 2


class MetricSchedule:
    """Operator-valued schedule M(t), PSD and nonincreasing in t."""

    def __init__(self, kind, dim, constant_op=None, tau=None, c=None, A=None):
        self.kind = kind
        self.dim = int(dim)
        self._const = constant_op
        self.tau = tau
        self.c = c
        self.A = A
        self._gram = None if A is None else A.gram()
        self._q_cache = {}

    @classmethod
    def zero(cls, dim) -> "MetricSchedule":
        return cls("zero", dim, constant_op=SelfAdjointPSD.zero(dim))

    @classmethod
    def constant(cls, op: SelfAdjointPSD) -> "MetricSchedule":
        return cls("constant", op.dim, constant_op=op)

    @classmethod
    def tau_family(cls, tau: TauSchedule, c, A: LinearMap) -> "MetricSchedule":
        """M1(t) = I / tau(t) - c A* A; PSD exactly when c tau(t) ||A||^2 <= 1."""
        return cls("tau-family", A.in_dim, tau=tau, c=float(c), A=A)

    def at(self, t) -> SelfAdjointPSD:
        if self.kind in ("zero", "constant"):
            return self._const
        tau_t = self.tau.value(t)
        base = LinearMap.identity(self.dim, 1.0 / tau_t) - self.c * self._gram
        floor = 1.0 / tau_t - self.c * self.A.norm() ** 2
        return SelfAdjointPSD(base, max(floor, 0.0))

    def derivative_sup(self) -> float:
        """Upper bound on sup_t ||d M / dt||."""
        if self.kind in ("zero", "constant"):
            return 0.0
        return self.tau.sup_derivative_ratio()

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def is_time_invariant(self) -> bool:
        """M(t) is one operator for every t (no tau schedule that moves)."""
        return self.kind != "tau-family" or self.tau.kind == "constant"


def _small_dense(base: LinearMap) -> LinearMap:
    """`base` as one dense matrix when it is small enough to store, so each
    application is a single product instead of a chain of lazy closures."""
    if base.in_dim > _DENSE_EIG_LIMIT:
        return base
    mat = base.to_dense()
    return LinearMap.from_dense(0.5 * (mat + mat.T))


def x_update_metric(m1: MetricSchedule, c, A: LinearMap, t) -> SelfAdjointPSD:
    """The x-subproblem metric Q = c A* A + M1(t).

    For the tau family the sum collapses to I / tau(t), so the spectral
    floor and norm are analytic; other schedules are time-independent and
    Q, with its certified floor/norm pair, is built once and cached per
    (c, A).  The key holds A itself, not its id: an id can be reused by a
    new map once the old one is freed.
    """
    c = float(c)
    if m1.kind == "tau-family":
        s = 1.0 / m1.tau.value(t)
        base = c * A.gram() + m1.at(t).base
        return SelfAdjointPSD(base, s, norm_hint=s)
    key = ("x", c, A)
    q = m1._q_cache.get(key)
    if q is None:
        base = _small_dense(c * A.gram() + m1.at(0.0).base)
        floor = psd_floor(SelfAdjointPSD(base, 0.0), strict=False)
        q = SelfAdjointPSD(base, max(floor, 0.0),
                           norm_hint=operator_norm(base))
        m1._q_cache[key] = q
    return q


def z_update_metric(m2: MetricSchedule, c, t) -> SelfAdjointPSD:
    """The z-subproblem metric Q = M2(t) + c I, with floor alpha(M2) + c.

    Time-independent schedules build Q once and cache it; a scaled identity
    s I gives the scaled identity (s + c) I with analytic floor and norm.
    """
    c = float(c)
    if m2.kind == "tau-family":
        m2_t = m2.at(t)
        return SelfAdjointPSD(m2_t.base + LinearMap.identity(m2.dim, c),
                              m2_t.alpha_floor + c)
    key = ("z", c)
    q = m2._q_cache.get(key)
    if q is None:
        m2_0 = m2.at(0.0)
        if m2_0.base.scale is not None:
            q = SelfAdjointPSD.identity(m2.dim, m2_0.base.scale + c)
        else:
            base = _small_dense(m2_0.base + LinearMap.identity(m2.dim, c))
            q = SelfAdjointPSD(base, m2_0.alpha_floor + c,
                               norm_hint=operator_norm(base))
        m2._q_cache[key] = q
    return q


def default_sample_times(horizon, count=50):
    """Log-spaced certificate sample times in (0, horizon], plus t = 0."""
    horizon = float(horizon)
    if horizon <= 0:
        return [0.0]
    pts = np.geomspace(max(horizon * 1e-4, 1e-6), horizon, num=count)
    return [0.0] + [float(p) for p in pts]


@dataclass
class CStrong:
    holds: bool
    alpha: float


@dataclass
class ConditionReport:
    """Outcome of the convergence-condition certificates.

    cstrong      -- c A* A + M1(t) uniformly positive definite (alpha = floor)
    cweak        -- pointwise positive definite at every sampled time
    thm4_psd     -- M1(t) + c(1-gamma)/4 A*A - L_h/4 I is PSD at every sample
    thm7_psd     -- same with L_h/2 in place of L_h/4
    rate_condition -- scalar step test tau(t)(L_h/4 + c(3+gamma)/4 ||A||^2) <= 1
                      for tau-family schedules; falls back to thm4_psd otherwise
    step_size_ok -- c tau(t) ||A||^2 <= 1 at every sample (tau-family; else True)
    """

    cstrong: CStrong
    cweak: bool
    thm4_psd: bool
    thm7_psd: bool
    rate_condition: bool
    step_size_ok: bool
    sample_times: tuple


_PSD_SLACK = 1e-10


def certify(m1: MetricSchedule, m2: MetricSchedule, c, gamma, A: LinearMap,
            lipschitz_h=0.0, sample_times=None, horizon=100.0) -> ConditionReport:
    """Evaluate the definiteness and step-size conditions over sampled times.

    All failures come back as false flags; nothing raises, so the report can
    be serialized verbatim into run footers.
    """
    c = float(c)
    gamma = float(gamma)
    L = float(lipschitz_h)
    if sample_times is None:
        sample_times = default_sample_times(horizon)
    sample_times = tuple(float(t) for t in sample_times)

    gram = A.gram()
    a_norm = A.norm()
    n = A.in_dim

    def floors_at(t):
        m1_t = m1.at(t)
        q = SelfAdjointPSD(c * gram + m1_t.base, 0.0)
        t4 = SelfAdjointPSD(
            m1_t.base + (c * (1.0 - gamma) / 4.0) * gram
            - LinearMap.identity(n, L / 4.0), 0.0)
        t7 = SelfAdjointPSD(
            m1_t.base + (c * (1.0 - gamma) / 4.0) * gram
            - LinearMap.identity(n, L / 2.0), 0.0)
        return tuple(psd_floor(u, strict=False) for u in (q, t4, t7))

    # a time-invariant M1 gives the same three operators at every sample
    invariant = m1.is_time_invariant()
    floors = []
    scalar_ok = True
    step_ok = True
    for t in sample_times:
        floors.append(floors[0] if invariant and floors else floors_at(t))
        if m1.kind == "tau-family":
            tau_t = m1.tau.value(t)
            scalar_ok &= tau_t * (L / 4.0 + c * (3.0 + gamma) / 4.0 * a_norm ** 2) \
                <= 1.0 + 1e-12
            step_ok &= c * tau_t * a_norm ** 2 <= 1.0 + 1e-12

    floors_x, floors_t4, floors_t7 = zip(*floors)
    alpha = min(floors_x)
    cstrong = CStrong(holds=alpha > _PSD_SLACK, alpha=alpha)
    cweak = all(fl > _PSD_SLACK for fl in floors_x)
    thm4 = all(fl >= -_PSD_SLACK for fl in floors_t4)
    thm7 = all(fl >= -_PSD_SLACK for fl in floors_t7)
    if m1.kind == "tau-family":
        rate = bool(scalar_ok and step_ok)
    else:
        rate = thm4
    return ConditionReport(cstrong=cstrong, cweak=cweak, thm4_psd=thm4,
                           thm7_psd=thm7, rate_condition=rate,
                           step_size_ok=step_ok, sample_times=sample_times)


def weight_W(m1: MetricSchedule, m2: MetricSchedule, c, gamma,
             A: LinearMap, t) -> SelfAdjointPSD:
    """Block-diagonal weight of the Lyapunov distance at time t.

    Blocks: x -> M1(t) + c(1-gamma) A*A,  z -> M2(t) + c I,  y -> I / c.
    """
    c = float(c)
    gamma = float(gamma)
    n, m = A.in_dim, A.out_dim
    m1_t = m1.at(t)
    gram = A.gram()
    if m1.kind == "tau-family":
        # I/tau - c gamma A*A, floor analytic
        tau_t = m1.tau.value(t)
        xf = max(1.0 / tau_t - c * gamma * m1.A.norm() ** 2, 0.0)
        x_block = SelfAdjointPSD(m1_t.base + (c * (1.0 - gamma)) * gram, xf)
    else:
        x_block = SelfAdjointPSD(m1_t.base + (c * (1.0 - gamma)) * gram,
                                 m1_t.alpha_floor)
    m2_t = m2.at(t)
    z_block = SelfAdjointPSD(m2_t.base + LinearMap.identity(m, c),
                             m2_t.alpha_floor + c)
    y_block = SelfAdjointPSD.identity(m, 1.0 / c)
    return block_diag([x_block, z_block, y_block])
