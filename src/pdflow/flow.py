"""The primal-dual dynamical system and its time integrators.

State U = (x, z, y).  The right-hand side is one proximal ADMM update,
(x, z, y) -> (x_new, z_new), read as a velocity: u = x_new - x solves a
strongly convex prox subproblem, v = z_new - z solves a second one at the
relaxed point x + gamma u, and the dual velocity is the explicit

    w = c (A (u + x) - (v + z)).

`_make_update` builds that update, and with it the evaluation mode, once
per run; `discrete.admm_step` uses the same update, so a unit-step Euler
step is one ADMM iteration by construction.  The modes:

* closed-form      -- x-update metric I / tau(t) (the tau family), both
                      subproblems collapse to single prox calls; requires
                      c tau(t) ||A||^2 <= 1 over the horizon
* general-metric   -- arbitrary PSD schedules M1, M2; subproblems solved by
                      `metric_prox` (an absent M2 keeps the single z-prox);
                      requires a uniformly positive x-metric

Every integrator is an explicit Runge-Kutta method given by its Butcher
tableau (Hairer-Norsett-Wanner, Solving ODEs I, II.1-II.4): fixed-step
Euler (at unit step, proximal ADMM), fixed-step classical RK4, and the
adaptive Dormand-Prince 5(4) pair, whose tableau adds error weights.  One
loop steps them all on the flat state U = (x, z, y).  A fixed-step method
commits U_n + h sum_i b_i k_i.  The adaptive pair commits its 5th-order
solution once the embedded error estimate passes, and the last slope of an
accepted step is the first of the next (FSAL), so a trial costs 6 rhs
evaluations.  The running integrals behind the ergodic averages add
h sum_i b_i (X_i, Z_i) over the stage points of each accepted step, the
tableau's own quadrature, so the identity
A x_tilde - z_tilde = (y(t) - y0) / (c t)  holds to roundoff instead of
quadrature error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, IntegrationError
from .metric import MetricSchedule, TauSchedule, x_update_metric, z_update_metric
from .problems import ProblemSpec
from .proxlib import metric_prox

__all__ = [
    "SystemState",
    "FlowParams",
    "Euler",
    "RK4",
    "Adaptive",
    "FlowTrajectory",
    "schedules",
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


def ergodic(t, V, v0, integral):
    """Averaged trajectory (V - v0 + integral) / t; needs t > 0.

    The average of (xdot + x) over [0, t] integrates exactly to
    (x(t) - x0 + int_0^t x) / t, so only the running integral evolves.  V
    and integral are one state or one row per entry of t.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("ergodic average is defined for t > 0")
    return (V - v0 + integral) / t[..., None]


@dataclass
class Euler:
    h: float = 0.01


@dataclass
class RK4:
    h: float = 0.01


@dataclass
class Adaptive:
    """Step-size control for the Dormand-Prince 5(4) tableau.

    The first trial step is h0.  A trial is accepted when the RMS of the
    tableau's error estimate over abs_tol + rel_tol max(|U_n|, |U_n+1|) is
    at most 1; the next step is h * clip(0.9 err^(-1/5), 0.2, 5), capped at
    h_max, and a rejection whose shrunken step falls below h_min stops the
    run.  A rejected trial is retried from the same first slope.  h0 = 0
    never advances and abs_tol = 0 can make the error NaN, which passes.
    """

    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    h0: float = 0.01
    h_min: float = 1e-8
    h_max: float = 1.0

    def __post_init__(self):
        if not self.h0 > 0:
            raise ValueError("adaptive first step h0 must be positive")
        if not 0 < self.h_min <= self.h_max:
            raise ValueError("adaptive steps need 0 < h_min <= h_max")
        if not self.abs_tol > 0:
            raise ValueError("adaptive abs_tol must be positive")
        if not self.rel_tol >= 0:
            raise ValueError("adaptive rel_tol must be nonnegative")


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
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")

    @property
    def mode(self) -> str:
        return "closed-form" if self.tau is not None else "general-metric"


def _state_rows(t, U, n) -> list:
    """SystemState views of the rows x | z | y of U at the times t."""
    m = (U.shape[1] - n) // 2
    return [SystemState(u[:n], u[n:n + m], u[n + m:], float(ti))
            for ti, u in zip(t, U)]


@dataclass
class FlowTrajectory:
    """The recorded trajectory as arrays, one row per record: times t (R,)
    from 0, states U (R, n + 2m) with rows x | z | y, and ergodic averages
    erg (R, n + m) with rows x_tilde | z_tilde, NaN where t = 0.
    stop_reason is "horizon" or "step-underflow".  `states`, `ergodic_x`,
    `ergodic_z` (None at t = 0) and `final` are views built on access.
    """

    t: np.ndarray
    U: np.ndarray
    erg: np.ndarray
    stop_reason: str
    rhs_evals: int
    n: int

    @property
    def states(self) -> list:
        return _state_rows(self.t, self.U, self.n)

    @property
    def final(self) -> SystemState:
        return _state_rows(self.t[-1:], self.U[-1:], self.n)[0]

    @property
    def ergodic_x(self) -> list:
        return [e[:self.n] if ti > 0 else None for ti, e in zip(self.t, self.erg)]

    @property
    def ergodic_z(self) -> list:
        return [e[self.n:] if ti > 0 else None for ti, e in zip(self.t, self.erg)]


def _start_row(p: ProblemSpec, s0: SystemState | None) -> np.ndarray:
    """The flat start U0 = x0 | z0 | y0 (default: the problem's canonical
    start); ValueError if a block has the wrong dimensions."""
    x0, z0, y0 = p.default_start() if s0 is None else (s0.x, s0.z, s0.y)
    blocks = [np.asarray(v, dtype=float) for v in (x0, z0, y0)]
    if [b.shape for b in blocks] != [(p.n,), (p.m,), (p.m,)]:
        raise ValueError("initial state has wrong dimensions for the problem")
    return np.concatenate(blocks)


def schedules(p: ProblemSpec, c, tau=None, m1=None, m2=None):
    """The metric schedules (M1, M2) of a run: without m1, the tau family
    M1(t) = I / tau(t) - c A* A of the TauSchedule tau; without m2, zero."""
    if m1 is None:
        m1 = MetricSchedule.tau_family(tau, c, p.A)
    return m1, MetricSchedule.zero(p.m) if m2 is None else m2


def _make_update(p: ProblemSpec, c, gamma, tau: TauSchedule | None,
                 m1: MetricSchedule | None, m2: MetricSchedule | None, tol):
    """Build the proximal ADMM update (t, x, z, y) -> (x_new, z_new), with
    z_new taken at the relaxed point x + gamma (x_new - x); t is the flow
    time or the iteration index k.  Each block is chosen here, once: without
    m1 (metric I / tau(t) - c A* A) the x-update is one prox of f, and
    without m2 (a zero M2) the z-update is one prox of g; otherwise
    `metric_prox` solves the block in c A* A + M1(t) or M2(t) + c I to tol.
    """
    a_apply, a_adjoint = p.A._raw_apply, p.A._raw_adjoint
    h_grad = None if p.h.is_zero else p.h.grad

    if m1 is None:
        def x_update(t, x, z, y):
            tau_t = tau.value(t)
            arg = x - tau_t * a_adjoint(y + c * (a_apply(x) - z))
            if h_grad is not None:
                arg = arg - tau_t * h_grad(x)
            return p.f.prox(tau_t, arg)
    else:
        def x_update(t, x, z, y):
            m1_t = m1.at(t)
            q = x_update_metric(m1, c, p.A, t)
            lin = -(m1_t.base._raw_apply(x) + a_adjoint(c * z - y))
            if h_grad is not None:
                lin = lin + h_grad(x)
            return metric_prox(p.f, q, lin, x, tol=tol)

    if m2 is None:
        def z_update(t, ax_bar, z, y):
            return p.g.prox(1.0 / c, ax_bar + y / c)
    else:
        def z_update(t, ax_bar, z, y):
            lin = -(m2.at(t).base._raw_apply(z) + c * ax_bar + y)
            return metric_prox(p.g, z_update_metric(m2, c, t), lin, z, tol=tol)

    def update(t, x, z, y):
        x_new = x_update(t, x, z, y)
        return x_new, z_update(t, a_apply(x + gamma * (x_new - x)), z, y)

    return update


def _make_rhs(p: ProblemSpec, params: FlowParams):
    """Build the fast (t, x, z, y) -> (u, v, w) closure for one run."""
    c = params.c
    a_apply = p.A._raw_apply
    update = _make_update(p, c, params.gamma, params.tau, params.m1,
                          params.m2, params.inner_tol)

    def rhs_fn(t, x, z, y):
        x_new, z_new = update(t, x, z, y)
        u = x_new - x
        v = z_new - z
        return u, v, c * (a_apply(u + x) - (v + z))

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

        m1, m2 = schedules(p, params.c, params.tau, params.m1, params.m2)
        rep = certify(m1, m2, params.c, params.gamma, p.A,
                      lipschitz_h=p.h.lipschitz_grad, horizon=params.horizon)
        if not rep.cstrong.holds:
            raise CertificationError(
                f"general-metric mode needs a uniformly positive x-update "
                f"metric (sampled floor {rep.cstrong.alpha:.6g})")


def _tableau(c, a_rows, b, e=None):
    """Butcher tableau (c, a, b, e) of an explicit Runge-Kutta method, built
    from the rows of its strictly lower-triangular a; e, the error weights
    of an embedded pair, is None for a fixed-step method."""
    a = np.zeros((len(c), len(c)))
    for i, row in enumerate(a_rows, start=1):
        a[i, :i] = row
    return np.array(c), a, np.array(b), None if e is None else np.array(e)


_EULER = _tableau([0.0], [], [1.0])

_RK4 = _tableau([0.0, 1 / 2, 1 / 2, 1.0],
                [[1 / 2], [0.0, 1 / 2], [0.0, 0.0, 1.0]],
                [1 / 6, 1 / 3, 1 / 3, 1 / 6])

# Dormand-Prince 5(4) (Hairer-Norsett-Wanner, Solving ODEs I, II.4): the
# 5th-order weights b have b7 = 0 and form row 7 of a, so the last stage
# point is the accepted state and its slope starts the next step (FSAL);
# e = b - b*, with b* the embedded 4th-order weights.
_DP_B = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]
_DP54 = _tableau(
    [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0],
    [[1 / 5],
     [3 / 40, 9 / 40],
     [44 / 45, -56 / 15, 32 / 9],
     [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
     [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
     _DP_B[:6]],
    _DP_B,
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
     -1 / 40])

_TABLEAUS = {Euler: _EULER, RK4: _RK4, Adaptive: _DP54}


def integrate(p: ProblemSpec, params: FlowParams, s0: SystemState | None = None,
              record_every: int = 1) -> FlowTrajectory:
    """Integrate the system from s0 (default: the problem's canonical start).

    Records every `record_every`-th accepted step plus the initial and final
    states.  Raises ValueError if s0 has the wrong dimensions or
    record_every < 1, CertificationError before stepping if the mode's
    conditions fail, IntegrationError if the state leaves the finite range.
    Adaptive step underflow returns the partial trajectory with
    stop_reason = "step-underflow".
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    u0 = _start_row(p, s0)

    _check_certificates(p, params)
    rhs_fn = _make_rhs(p, params)
    integ = params.integrator
    if type(integ) not in _TABLEAUS:
        raise ValueError(f"unknown integrator {integ!r}")
    c_nodes, a_mat, b_w, e_w = _TABLEAUS[type(integ)]
    adaptive = e_w is not None
    horizon = params.horizon
    if adaptive:
        h = min(float(integ.h0), horizon)
    else:
        h_fix = float(integ.h)
        if not h_fix > 0:
            raise ValueError("step size must be positive")
        # step k starts at k h_fix; a remainder above 1e-12 gets one clipped
        # step, and the last step ends exactly at the horizon
        n_full = int(np.floor(horizon / h_fix + 1e-9))
        h_last = horizon - n_full * h_fix
        n_steps = n_full + (h_last > 1e-12)

    # Row 0 of the stage points is the flat state U = (x, z, y), and the
    # running integrals of x and z are one array, so each stage
    # combination is a single matrix-vector product.
    iz, iy = p.n, p.n + p.m
    pts = np.empty((len(c_nodes), iy + p.m))  # stage points
    ks = np.empty_like(pts)                   # stage slopes
    pts[0] = u0
    ints = np.zeros(iy)
    recs = [(0.0, u0, ints.copy())]  # (t, U, integrals) per record

    def slope(i, t_i):
        s_i = pts[i]
        np.concatenate(rhs_fn(t_i, s_i[:iz], s_i[iz:iy], s_i[iy:]), out=ks[i])

    t = 0.0
    evals = accepted = 0
    stop_reason = "horizon"
    while t < horizon - 1e-12 if adaptive else accepted < n_steps:
        if adaptive:
            h = min(h, horizon - t)
            t_next = t + h
        else:
            h = h_fix if accepted < n_full else h_last
            t_next = (accepted + 1) * h_fix if accepted + 1 < n_steps else horizon
        # the adaptive pair keeps k1 across a rejection and takes it from
        # the last stage of an accepted step (FSAL)
        if evals == 0 or not adaptive:
            slope(0, t)
            evals += 1
        ha = h * a_mat
        for i in range(1, len(c_nodes)):
            pts[i] = pts[0] + ha[i, :i] @ ks[:i]
            slope(i, t + c_nodes[i] * h)
        evals += len(c_nodes) - 1
        if adaptive:
            # the last stage point is the 5th-order solution
            scale = integ.abs_tol + integ.rel_tol * np.maximum(np.abs(pts[0]),
                                                               np.abs(pts[-1]))
            err = float(np.sqrt(np.mean(((h * e_w) @ ks / scale) ** 2)))
            factor = min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
            if err > 1.0:
                # reject: nothing was committed; retry from the same k1
                if h * factor < integ.h_min:
                    stop_reason = "step-underflow"
                    warnings.warn(
                        f"adaptive integrator underflowed its minimum step at "
                        f"t = {t:.6g}; returning the partial trajectory",
                        RuntimeWarning)
                    break
                h *= factor
                continue
        hb = h * b_w
        ints += hb @ pts[:, :iy]
        if adaptive:
            pts[0] = pts[-1]
            ks[0] = ks[-1]
        else:
            pts[0] += hb @ ks
        t = t_next
        if not np.isfinite(pts[0]).all():
            raise IntegrationError(f"non-finite state at t = {t:.6g}")
        accepted += 1
        if accepted % record_every == 0 or t >= horizon - 1e-12:
            recs.append((t, pts[0].copy(), ints.copy()))
        if adaptive:
            h = min(h * factor, integ.h_max)
    if t > 0 and recs[-1][0] < t - 1e-12:
        recs.append((t, pts[0].copy(), ints.copy()))

    ts, U, integrals = (np.array(col) for col in zip(*recs))
    erg = np.full(integrals.shape, np.nan)
    erg[1:] = ergodic(ts[1:], U[1:, :iy], u0[:iy], integrals[1:])
    return FlowTrajectory(t=ts, U=U, erg=erg, stop_reason=stop_reason,
                          rhs_evals=evals, n=p.n)
