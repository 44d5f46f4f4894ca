"""Time-dependent metric schedules and the certificates that license them.

The x-update is weighted by M1(t), the z-update by M2(t).  Two schedule
families cover the catalog:

* constant      -- M(t) = U for a fixed PSD operator (zero included)
* tau-family    -- M1(t) = I / tau(t) - c A* A for a step schedule tau(t),
                   coupled at the run's own c and A, which turns the
                   x-update metric c A* A + M1(t) into the scaled identity
                   I / tau(t), so `metric_prox` solves the update as one
                   prox step

Every step schedule is the one formula tau_max - (tau_max - tau0) exp(-t);
a constant step is tau0 == tau_max.

`certify` decides the definiteness and step-size conditions the
convergence guarantees require over a run's horizon, where each is
worst; failures are reported as false flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linops import LinearMap, SelfAdjointPSD, _metric_spectrum, psd_floor

__all__ = [
    "TauSchedule",
    "MetricSchedule",
    "ConditionReport",
    "certify",
    "weight_W",
    "x_update_metric",
    "z_update_metric",
]


class TauSchedule:
    """Scalar step schedule tau(t) = tau_max - (tau_max - tau0) exp(-t),
    positive and rising from tau0 to tau_max.  A constant schedule is the
    case tau0 == tau_max, where the formula gives tau0 exactly."""

    def __init__(self, tau0, tau_max):
        self.tau0 = float(tau0)
        self.tau_max = float(tau_max)
        floor = 1.0 / np.finfo(float).max  # 1 / tau0 is inf at and below it
        if not floor < self.tau0 < math.inf:
            raise ValueError(f"tau schedule needs {floor:.6g} < tau0 < inf, "
                             "where 1 / tau0 is finite")
        if not self.tau0 <= self.tau_max < math.inf:
            raise ValueError(
                "saturating schedule needs a finite tau_max >= tau0")

    @classmethod
    def constant(cls, tau0) -> "TauSchedule":
        return cls(tau0, tau0)

    @classmethod
    def saturating(cls, tau0, tau_max) -> "TauSchedule":
        return cls(tau0, tau_max)

    def value(self, t) -> float:
        return self.tau_max - (self.tau_max - self.tau0) * math.exp(-t)


class MetricSchedule:
    """Operator-valued schedule M(t), PSD and nonincreasing in t: one
    operator for every t, or the tau family of a step schedule."""

    def __init__(self, dim, constant_op=None, tau=None, c=None, A=None):
        self.dim = int(dim)
        self._const = constant_op
        self.tau = tau
        self.c = c
        self.A = A
        self._gram = None if A is None else A.gram()

    @classmethod
    def zero(cls, dim) -> "MetricSchedule":
        return cls.constant(SelfAdjointPSD.zero(dim))

    @classmethod
    def constant(cls, op: SelfAdjointPSD) -> "MetricSchedule":
        return cls(op.dim, constant_op=op)

    @classmethod
    def tau_family(cls, tau: TauSchedule, c, A: LinearMap) -> "MetricSchedule":
        """M1(t) = I / tau(t) - c A* A; PSD exactly when c tau(t) ||A||^2 <= 1.
        A run takes it only at its own c and A (`flow.schedules`)."""
        return cls(A.in_dim, tau=tau, c=float(c), A=A)

    def at(self, t) -> SelfAdjointPSD:
        if self.tau is None:
            return self._const
        tau_t = self.tau.value(t)
        base = LinearMap.identity(self.dim, 1.0 / tau_t) - self.c * self._gram
        floor = 1.0 / tau_t - self.c * self.A.norm() ** 2
        return SelfAdjointPSD(base, max(floor, 0.0))

    def is_time_invariant(self) -> bool:
        """M(t) is one operator for every t (no tau schedule that moves)."""
        return self.tau is None or self.tau.tau0 == self.tau.tau_max


def x_update_metric(m1: MetricSchedule, c, A: LinearMap, t) -> SelfAdjointPSD:
    """The x-subproblem metric Q = c A* A + M1(t), built on each call.

    For the tau family, which must be coupled at this c and A
    (`flow.schedules`), the sum is the scaled identity I / tau(t); other
    schedules are time-independent and Q is built with the floor and norm
    of one eigensolve.
    """
    c = float(c)
    if m1.tau is not None:
        return SelfAdjointPSD.identity(A.in_dim, 1.0 / m1.tau.value(t))
    base, floor, norm = _metric_spectrum(c * A.gram() + m1.at(0.0).base)
    return SelfAdjointPSD(base, max(floor, 0.0), norm_hint=norm)


def z_update_metric(m2: MetricSchedule, c, t) -> SelfAdjointPSD:
    """The z-subproblem metric Q = M2(t) + c I, with floor alpha(M2) + c,
    built on each call; a constant scaled identity s I gives the scaled
    identity (s + c) I with analytic floor and norm.  Any other M2, a tau
    family included, gives Q with the norm of one eigensolve, stored as the
    dense matrix that eigensolve read.
    """
    c = float(c)
    m2_t = m2.at(t)
    if m2_t.base.scale is not None:
        return SelfAdjointPSD.identity(m2.dim, m2_t.base.scale + c)
    base, _, norm = _metric_spectrum(
        m2_t.base + LinearMap.identity(m2.dim, c))
    return SelfAdjointPSD(base, m2_t.alpha_floor + c, norm_hint=norm)


@dataclass
class ConditionReport:
    """Outcome of the convergence-condition certificates over [0, horizon].

    alpha        -- floor of the x-update metric c A* A + M1(t)
    cstrong      -- that metric is uniformly positive definite (alpha > 0)
    thm4_psd     -- M1(t) + c(1-gamma)/4 A*A - L_h/4 I is PSD
    rate_condition -- scalar step test tau(t)(L_h/4 + c(3+gamma)/4 ||A||^2) <= 1
                      for tau-family schedules; falls back to thm4_psd otherwise
    step_size_ok -- c tau(t) ||A||^2 <= 1 (tau-family; else True)
    """

    alpha: float
    cstrong: bool
    thm4_psd: bool
    rate_condition: bool
    step_size_ok: bool


_PSD_SLACK = 1e-10


def certify(m1: MetricSchedule, m2: MetricSchedule, c, gamma, A: LinearMap,
            lipschitz_h=0.0, horizon=100.0) -> ConditionReport:
    """Decide the definiteness and step-size conditions of a run on
    [0, horizon].

    M1 is one operator for every t or a tau family with tau(t)
    nondecreasing, so every condition is worst at the horizon.  A constant
    M1 gets its two floors from one eigensolve each.  A tau family, which
    must be coupled at this c and A (`flow.schedules`; a ValueError
    otherwise), is I / tau - c A*A, so with tau = tau(horizon) its floors
    are 1 / tau and 1 / tau - c(3+gamma)/4 ||A||^2 - L_h/4.
    A condition that fails comes back as a false flag.
    """
    c = float(c)
    gamma = float(gamma)
    L = float(lipschitz_h)
    if m1.tau is None:
        gram, n = A.gram(), A.in_dim
        base = m1.at(0.0).base
        ops = (c * gram + base, base + (c * (1.0 - gamma) / 4.0) * gram
               - LinearMap.identity(n, L / 4.0))
        alpha, fl4 = (psd_floor(SelfAdjointPSD(u, 0.0), strict=False)
                      for u in ops)
        step_ok = True
        rate = fl4 >= -_PSD_SLACK
    else:
        if not (m1.c == c and m1.A is A):
            raise ValueError("a tau-family m1 must be coupled at certify's c "
                             "and A")
        tau = m1.tau.value(max(float(horizon), 0.0))
        a_sq = A.norm() ** 2
        alpha = 1.0 / tau
        fl4 = alpha - c * (3.0 + gamma) / 4.0 * a_sq - L / 4.0
        step_ok = c * tau * a_sq <= 1.0 + 1e-12
        rate = step_ok and \
            tau * (L / 4.0 + c * (3.0 + gamma) / 4.0 * a_sq) <= 1.0 + 1e-12
    return ConditionReport(alpha=alpha, cstrong=alpha > _PSD_SLACK,
                           thm4_psd=fl4 >= -_PSD_SLACK, rate_condition=rate,
                           step_size_ok=step_ok)


def weight_W(m1: MetricSchedule, m2: MetricSchedule, c, gamma,
             A: LinearMap, t) -> tuple:
    """The diagonal blocks (x, z, y) of the Lyapunov weight W(t):
    M1(t) + c(1-gamma) A*A, M2(t) + c I and I / c."""
    c = float(c)
    m = A.out_dim
    x_block = m1.at(t).base + (c * (1.0 - float(gamma))) * A.gram()
    z_block = m2.at(t).base + LinearMap.identity(m, c)
    return x_block, z_block, LinearMap.identity(m, 1.0 / c)
