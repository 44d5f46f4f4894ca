"""The primal-dual dynamical system and its time integrators.

State U = (x, z, y).  The right-hand side evaluates sequentially: the
x-velocity u solves a strongly convex prox subproblem, the z-velocity v
solves a second one that already consumes u (relaxation weight gamma), and
the dual velocity is the explicit

    w = c (A (u + x) - (v + z)).

Two evaluation modes:

* closed-form      -- x-update metric I / tau(t) (the tau family), both
                      subproblems collapse to single prox calls; requires
                      c tau(t) ||A||^2 <= 1 over the horizon
* general-metric   -- arbitrary PSD schedules M1, M2; subproblems solved by
                      `metric_prox`; requires a uniformly positive x-metric

Fixed-step Euler/RK4 and an adaptive Dormand-Prince 5(4) pair are
provided.  The adaptive pair keeps its 5th-order solution (local
extrapolation), estimates the error from the embedded 4th-order one, and
reuses the last stage of an accepted step as the first of the next (FSAL),
so a trial costs 6 rhs evaluations.  The running integrals behind the
ergodic averages use the integrator's own stage weights (left endpoint for
Euler, the 1-2-2-1 stage rule for RK4, the 5th-order weights b over the
stage points for Dormand-Prince, added only when a step is accepted), so
the identity  A x_tilde - z_tilde = (y(t) - y0) / (c t)  holds to roundoff
instead of quadrature error.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, IntegrationError
from .linops import SelfAdjointPSD
from .metric import MetricSchedule, TauSchedule, x_update_metric, z_update_metric
from .problems import ProblemSpec
from .proxlib import metric_prox

__all__ = [
    "SystemState",
    "ErgodicAccumulator",
    "FlowParams",
    "Euler",
    "RK4",
    "Adaptive",
    "FlowTrajectory",
    "rhs",
    "integrate",
    "ergodic",
]


@dataclass
class SystemState:
    """Primal point x, splitting point z, dual point y, at time t."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    t: float = 0.0

    def copy(self) -> "SystemState":
        return SystemState(self.x.copy(), self.z.copy(), self.y.copy(), self.t)


@dataclass
class ErgodicAccumulator:
    """Running integrals needed for the averaged trajectory.

    The average of (xdot + x) over [0, t] integrates exactly to
    (x(t) - x0 + int_x) / t, so only int_x and int_z evolve.
    """

    x0: np.ndarray
    z0: np.ndarray
    int_x: np.ndarray
    int_z: np.ndarray
    t: float = 0.0

    @classmethod
    def start(cls, s: SystemState) -> "ErgodicAccumulator":
        return cls(s.x.copy(), s.z.copy(),
                   np.zeros_like(s.x), np.zeros_like(s.z), s.t)


def ergodic(acc: ErgodicAccumulator, s: SystemState):
    """Averaged pair (x_tilde, z_tilde) at the state's time; needs t > 0."""
    if s.t <= 0.0:
        raise ValueError("ergodic average is defined for t > 0")
    x_tilde = (s.x - acc.x0 + acc.int_x) / s.t
    z_tilde = (s.z - acc.z0 + acc.int_z) / s.t
    return x_tilde, z_tilde


@dataclass
class Euler:
    h: float = 0.01


@dataclass
class RK4:
    h: float = 0.01


@dataclass
class Adaptive:
    """Dormand-Prince 5(4) with FSAL; accepts the 5th-order solution.

    A trial is accepted when the RMS of the embedded error estimate over
    abs_tol + rel_tol max(|U_n|, |U_n+1|) is at most 1; the next step is
    h * clip(0.9 err^(-1/5), 0.2, 5), capped at h_max, and a rejection whose
    shrunken step falls below h_min stops the run.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    h0: float = 0.01
    h_min: float = 1e-8
    h_max: float = 1.0


@dataclass
class FlowParams:
    """Dynamics parameters; give `tau` for closed-form mode or `m1` (+`m2`)
    for general-metric mode, not both."""

    c: float = 1.0
    gamma: float = 1.0
    tau: TauSchedule | None = None
    m1: MetricSchedule | None = None
    m2: MetricSchedule | None = None
    inner_tol: float = 1e-10
    horizon: float = 100.0
    integrator: object = field(default_factory=RK4)

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("penalty c must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0,1]")
        if (self.tau is None) == (self.m1 is None):
            raise ValueError("give exactly one of tau (closed form) or m1 (general metric)")
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")

    @property
    def mode(self) -> str:
        return "closed-form" if self.tau is not None else "general-metric"


@dataclass
class FlowTrajectory:
    """Recorded states plus the matching ergodic averages.

    ergodic_x/ergodic_z are None at the initial record (t = 0).
    stop_reason is "horizon" or "step-underflow".
    """

    states: list
    ergodic_x: list
    ergodic_z: list
    accumulator: ErgodicAccumulator
    stop_reason: str
    rhs_evals: int

    @property
    def final(self) -> SystemState:
        return self.states[-1]


# -- subproblem solves shared with the discrete schemes ----------------------


def _x_new_closed(p: ProblemSpec, tau_t, c, x, z, y):
    """Closed-form x-argmin for the metric I/tau - c A*A (a single prox)."""
    r = y + c * (p.A._raw_apply(x) - z)
    arg = x - tau_t * p.A._raw_adjoint(r)
    if not p.h.is_zero:
        arg = arg - tau_t * p.h.grad(x)
    return p.f.prox(tau_t, arg)


def _x_new_metric(p: ProblemSpec, q: SelfAdjointPSD, m1_t: SelfAdjointPSD,
                  c, x, z, y, tol):
    """General x-argmin: minimize f + 1/2 <., Q .> - <., M1 x + c A* z - A* y - grad h>."""
    lin = -(m1_t.base._raw_apply(x)
            + p.A._raw_adjoint(c * z - y))
    if not p.h.is_zero:
        lin = lin + p.h.grad(x)
    return metric_prox(p.f, q, lin, x, tol=tol)


def _z_new_closed(p: ProblemSpec, c, ax_bar, y):
    """z-argmin with M2 = 0: a single prox of g at A x_bar + y/c."""
    return p.g.prox(1.0 / c, ax_bar + y / c)


def _z_new_metric(p: ProblemSpec, qz: SelfAdjointPSD, m2_t: SelfAdjointPSD,
                  c, ax_bar, y, z, tol):
    """General z-argmin: minimize g + 1/2 <., (M2 + c I) .> - <., M2 z + c A x_bar + y>."""
    lin = -(m2_t.base._raw_apply(z) + c * ax_bar + y)
    return metric_prox(p.g, qz, lin, z, tol=tol)


def _make_rhs(p: ProblemSpec, params: FlowParams):
    """Build the fast (t, x, z, y) -> (u, v, w) closure for one run."""
    c = params.c
    gamma = params.gamma
    a_apply = p.A._raw_apply

    if params.mode == "closed-form":
        tau = params.tau

        def rhs_fn(t, x, z, y):
            x_new = _x_new_closed(p, tau.value(t), c, x, z, y)
            u = x_new - x
            z_new = _z_new_closed(p, c, a_apply(x + gamma * u), y)
            v = z_new - z
            w = c * (a_apply(u + x) - (v + z))
            return u, v, w

        return rhs_fn

    m1, m2 = params.m1, params.m2
    if m2 is None:
        m2 = MetricSchedule.zero(p.m)
    tol = params.inner_tol
    m2_zero = m2.is_zero()

    def rhs_fn(t, x, z, y):
        m1_t = m1.at(t)
        q = x_update_metric(m1, c, p.A, t)
        x_new = _x_new_metric(p, q, m1_t, c, x, z, y, tol)
        u = x_new - x
        ax_bar = a_apply(x + gamma * u)
        if m2_zero:
            z_new = _z_new_closed(p, c, ax_bar, y)
        else:
            z_new = _z_new_metric(p, z_update_metric(m2, c, t), m2.at(t),
                                  c, ax_bar, y, z, tol)
        v = z_new - z
        w = c * (a_apply(u + x) - (v + z))
        return u, v, w

    return rhs_fn


def rhs(p: ProblemSpec, params: FlowParams, t, s: SystemState):
    """One right-hand-side evaluation (u, v, w) at time t and state s.

    Closed-form mode checks its step-size certificate at t; general-metric
    mode fails inside the subproblem solve if the metric is not positive.
    """
    if params.mode == "closed-form":
        a_norm = p.A.norm()
        if params.c * params.tau.value(t) * a_norm ** 2 > 1.0 + 1e-12:
            raise CertificationError(
                "closed-form mode needs c tau(t) ||A||^2 <= 1")
    return _make_rhs(p, params)(t, s.x, s.z, s.y)


def _check_certificates(p: ProblemSpec, params: FlowParams):
    if params.mode == "closed-form":
        a_norm = p.A.norm()
        grid = np.linspace(0.0, params.horizon, 65)
        worst = max(params.c * params.tau.value(t) * a_norm ** 2 for t in grid)
        if worst > 1.0 + 1e-12:
            raise CertificationError(
                f"closed-form mode needs c tau(t) ||A||^2 <= 1 over the "
                f"horizon (worst sampled value {worst:.6g})")
    else:
        from .metric import certify

        m2 = params.m2 if params.m2 is not None else MetricSchedule.zero(p.m)
        rep = certify(params.m1, m2, params.c, params.gamma, p.A,
                      lipschitz_h=p.h.lipschitz_grad, horizon=params.horizon)
        if not rep.cstrong.holds:
            raise CertificationError(
                f"general-metric mode needs a uniformly positive x-update "
                f"metric (sampled floor {rep.cstrong.alpha:.6g})")


# Dormand-Prince 5(4) tableau (Hairer-Norsett-Wanner, Solving ODEs I, II.4):
# stage nodes c, coefficients a, 5th-order weights b (b7 = 0, so row 7 of a
# is b and the last stage point is the accepted state) and error weights
# e = b - b*, with b* the embedded 4th-order weights.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_A = np.zeros((7, 7))
_DP_A[1, :1] = [1 / 5]
_DP_A[2, :2] = [3 / 40, 9 / 40]
_DP_A[3, :3] = [44 / 45, -56 / 15, 32 / 9]
_DP_A[4, :4] = [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]
_DP_A[5, :5] = [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]
_DP_A[6, :6] = _DP_B
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])


def _require_finite(x, z, y, t):
    if not (np.isfinite(x).all() and np.isfinite(z).all() and np.isfinite(y).all()):
        raise IntegrationError(f"non-finite state at t = {t:.6g}")


def integrate(p: ProblemSpec, params: FlowParams, s0: SystemState | None = None,
              record_every: int = 1) -> FlowTrajectory:
    """Integrate the system from s0 (default: the problem's canonical start).

    Records every `record_every`-th accepted step plus the initial and final
    states.  Raises CertificationError before stepping if the mode's
    conditions fail, IntegrationError if the state leaves the finite range.
    Adaptive step underflow returns the partial trajectory with
    stop_reason = "step-underflow".
    """
    if s0 is None:
        x0, z0, y0 = p.default_start()
        s0 = SystemState(x0, z0, y0, 0.0)
    x = np.asarray(s0.x, dtype=float).copy()
    z = np.asarray(s0.z, dtype=float).copy()
    y = np.asarray(s0.y, dtype=float).copy()
    if x.shape != (p.n,) or z.shape != (p.m,) or y.shape != (p.m,):
        raise ValueError("initial state has wrong dimensions for the problem")

    _check_certificates(p, params)
    rhs_fn = _make_rhs(p, params)
    acc = ErgodicAccumulator(x.copy(), z.copy(), np.zeros_like(x),
                             np.zeros_like(z), 0.0)

    states = [SystemState(x.copy(), z.copy(), y.copy(), 0.0)]
    erg_x = [None]
    erg_z = [None]
    evals = 0
    horizon = params.horizon
    integ = params.integrator

    def record(t):
        states.append(SystemState(x.copy(), z.copy(), y.copy(), t))
        xt, zt = ergodic(acc, states[-1])
        erg_x.append(xt)
        erg_z.append(zt)

    def euler_step(t, h):
        nonlocal x, z, y, evals
        u, v, w = rhs_fn(t, x, z, y)
        evals += 1
        acc.int_x += h * x
        acc.int_z += h * z
        x = x + h * u
        z = z + h * v
        y = y + h * w

    def rk4_step(t, h):
        nonlocal x, z, y, evals
        u1, v1, w1 = rhs_fn(t, x, z, y)
        hh = 0.5 * h
        x2, z2, y2 = x + hh * u1, z + hh * v1, y + hh * w1
        u2, v2, w2 = rhs_fn(t + hh, x2, z2, y2)
        x3, z3, y3 = x + hh * u2, z + hh * v2, y + hh * w2
        u3, v3, w3 = rhs_fn(t + hh, x3, z3, y3)
        x4, z4, y4 = x + h * u3, z + h * v3, y + h * w3
        u4, v4, w4 = rhs_fn(t + h, x4, z4, y4)
        evals += 4
        w6 = h / 6.0
        acc.int_x += w6 * (x + 2.0 * x2 + 2.0 * x3 + x4)
        acc.int_z += w6 * (z + 2.0 * z2 + 2.0 * z3 + z4)
        x = x + w6 * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
        z = z + w6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
        y = y + w6 * (w1 + 2.0 * w2 + 2.0 * w3 + w4)

    stop_reason = "horizon"

    if isinstance(integ, (Euler, RK4)):
        h = float(integ.h)
        if not h > 0:
            raise ValueError("step size must be positive")
        step = euler_step if isinstance(integ, Euler) else rk4_step
        n_full = int(np.floor(horizon / h + 1e-9))
        h_last = horizon - n_full * h
        for k in range(n_full):
            step(k * h, h)
            t_now = (k + 1) * h if k + 1 < n_full or h_last > 1e-12 else horizon
            _require_finite(x, z, y, t_now)
            acc.t = t_now
            if (k + 1) % record_every == 0 and not (h_last <= 1e-12 and k + 1 == n_full):
                record(t_now)
        if h_last > 1e-12:
            step(n_full * h, h_last)
            _require_finite(x, z, y, horizon)
        acc.t = horizon
        record(horizon)
    elif isinstance(integ, Adaptive):
        # Row 0 of the stage points is the flat state U = (x, z, y), with x,
        # z, y views into it, and int_x, int_z are views into one array, so
        # each stage combination is a single matrix-vector product.
        iz, iy = p.n, p.n + p.m
        pts = np.empty((7, iy + p.m))  # stage points
        ks = np.empty_like(pts)        # stage slopes
        pts[0] = np.concatenate((x, z, y))
        x, z, y = pts[0, :iz], pts[0, iz:iy], pts[0, iy:]
        ints = np.zeros(iy)
        acc.int_x, acc.int_z = ints[:iz], ints[iz:]

        def slope(i, t_i):
            s_i = pts[i]
            np.concatenate(rhs_fn(t_i, s_i[:iz], s_i[iz:iy], s_i[iy:]), out=ks[i])

        t = 0.0
        h = min(float(integ.h0), horizon)
        accepted = 0
        slope(0, t)
        evals += 1
        while t < horizon - 1e-12:
            h = min(h, horizon - t)
            ha = h * _DP_A
            for i in range(1, 7):
                pts[i] = pts[0] + ha[i, :i] @ ks[:i]
                slope(i, t + _DP_C[i] * h)
            evals += 6
            # the last stage point is the 5th-order solution
            scale = integ.abs_tol + integ.rel_tol * np.maximum(np.abs(pts[0]),
                                                               np.abs(pts[6]))
            err = float(np.sqrt(np.mean(((h * _DP_E) @ ks / scale) ** 2)))
            if err <= 1.0:
                ints += (h * _DP_B) @ pts[:6, :iy]
                t += h
                pts[0] = pts[6]
                ks[0] = ks[6]  # FSAL: the last slope starts the next step
                _require_finite(x, z, y, t)
                acc.t = t
                accepted += 1
                if accepted % record_every == 0 or t >= horizon - 1e-12:
                    record(t)
                h = min(h * min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0)),
                        integ.h_max)
            else:
                # reject: nothing was committed; retry from the same k1
                h_new = h * min(5.0, max(0.2, 0.9 * err ** -0.2))
                if h_new < integ.h_min:
                    stop_reason = "step-underflow"
                    warnings.warn(
                        f"adaptive integrator underflowed its minimum step at "
                        f"t = {t:.6g}; returning the partial trajectory",
                        RuntimeWarning)
                    break
                h = h_new
        if acc.t > 0 and states[-1].t < acc.t - 1e-12:
            record(acc.t)
    else:
        raise ValueError(f"unknown integrator {integ!r}")

    return FlowTrajectory(states=states, ergodic_x=erg_x, ergodic_z=erg_z,
                          accumulator=acc, stop_reason=stop_reason,
                          rhs_evals=evals)
