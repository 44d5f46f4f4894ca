"""The primal-dual dynamical system and its time integrators.

State U = (x, z, y), one flat row.  The right-hand side is one proximal
ADMM update, U -> (x_new, z_new, w), read as a velocity: u = x_new - x
solves a strongly convex prox subproblem, v = z_new - z solves a second one
at the relaxed point x + gamma u, and the dual velocity is the explicit

    w = c (A x_new - z_new).

`_make_update` builds that update, and with it the evaluation mode, once
per run.  Every affine term of it is one of two products with maps built
then: H U gives the inputs of both subproblems, and B x_new the new part of
the relaxed point and c A x_new; for the small problems of the catalog each
is one dense matrix.  With a constant step tau0, a constant z metric s I
(none is s = 0), a dense H and h zero or quadratic, the update is one
kernel: one affine map, r = M U + m0, then at most two proxes and one
product (`stepmaps._constant_step_update`).  `discrete.run` uses the
same update, with y_new = y + w, so a unit-step Euler step is one ADMM
iteration by construction, and the Chambolle-Pock iteration is that ADMM
at gamma = 1 from z0 = A x0.  The modes:

* closed-form      -- x-update metric I / tau(t) (the tau family, coupled
                      at the run's c and A), both subproblems collapse to
                      single prox calls; requires c tau(t) ||A||^2 <= 1
                      over the horizon, as does a tau-family m1
* general-metric   -- arbitrary PSD schedules M1, M2; subproblems solved by
                      `metric_prox`, except that a tau-family M1 and a
                      constant M2 = s I (s = 0, no M2, included) are single
                      prox calls; requires a uniformly positive x-metric

With a constant M1 and a single-prox z block, the update is piecewise
affine in U as well: on the joint piece of the two proxes that the solves'
start lies on it is one affine map, which one product applies together
with a certificate that the state lies inside that piece, and only a state
that fails the certificate takes the `metric_prox` solve.  Both
piecewise-affine updates, this one and the kernel, give the affine map of
each joint piece as data (`update.pieces`).  The kernel, the pieces, their
maps and the certificate live in `stepmaps`.

The update writes x_new | z_new | w into a row the caller gives, so
`integrate` evaluates straight into its slope rows and `discrete.run` into
its next iterate.  It takes an optional start (x, z) for its `metric_prox`
solves, which otherwise start at the state's own x and z, and returns the
start for the next solve.  `integrate` passes the previous evaluation's
(x_new, z_new): a stage point's x lags behind the solution's l1 pattern
during a transient, and semismooth Newton, exact once it has the pattern,
then has fewer patterns to walk through.  An ADMM iterate already is the
previous solution, so the start `discrete.run` passes back has the
iterate's own bits.  A certified piece map returns (x_new, z_new, key),
with its piece's key, so the evaluation after it names no piece.

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

On a joint piece a whole Runge-Kutta step of a fixed h is affine too, and
an RK4 run of a piecewise-affine update, or an adaptive run at h_max,
takes a step by one certified product wherever it can
(`stepmaps._StepMaps`, the two agree to roundoff).  Euler runs keep the
stagewise step, since a map step would save one evaluation, about what
finding the piece of each stagewise step costs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, IntegrationError
from .linops import LinearMap, _block_map
from .metric import MetricSchedule, TauSchedule, x_update_metric, z_update_metric
from .problems import ProblemSpec
from .proxlib import metric_prox
from .stepmaps import (MAP_STEP_ERR, _constant_step_update, _piece_rows,
                       _step_maps)

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
    at most 1; the next step is h * clip(0.9 err^(-1/5), 0.2, 5), and a
    rejection whose shrunken step falls below h_min stops the run.  A
    rejected trial is retried from the same first slope.  Every trial step,
    the first and a retried one included, is capped at min(h, h_max,
    horizon - t).
    Construction rejects h0 <= 0, which never advances, and abs_tol <= 0,
    which can make the error NaN, and a NaN error would pass the test.
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
    for general-metric mode, not both.  A tau-family `m1` must be coupled at
    this c and the problem's A, and takes the step test of `tau`."""

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


@dataclass
class FlowTrajectory:
    """The recorded trajectory as arrays, one row per record: times t (R,)
    from 0, states U (R, n + 2m) with rows x | z | y, and ergodic averages
    erg (R, n + m) with rows x_tilde | z_tilde, NaN where t = 0.
    stop_reason is "horizon" or "step-underflow".  rhs_evals counts the
    tableau's stage evaluations, a step that a step map took included,
    since its one product stands for the stagewise step's evaluations;
    map_steps counts the steps a map took (`stepmaps._StepMaps`), full
    RK4 steps and adaptive steps at h_max.  The views `states`,
    `ergodic_x` and `ergodic_z` (None at t = 0) are built on access; no
    code in `src/` reads them, and they stay because `perfbench/` does.
    """

    t: np.ndarray
    U: np.ndarray
    erg: np.ndarray
    stop_reason: str
    rhs_evals: int
    n: int
    map_steps: int = 0

    @property
    def states(self) -> list:
        n, m = self.n, (self.U.shape[1] - self.n) // 2
        return [SystemState(u[:n], u[n:n + m], u[n + m:], float(ti))
                for ti, u in zip(self.t, self.U)]

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
    M1(t) = I / tau(t) - c A* A of the TauSchedule tau; without m2, zero.
    Only at this c and p.A does a tau family cancel the augmented term's
    c A* A, so a tau-family m1 coupled elsewhere is a ValueError."""
    if m1 is None:
        m1 = MetricSchedule.tau_family(tau, c, p.A)
    elif m1.tau is not None and not (m1.c == c and m1.A is p.A):
        raise ValueError("a tau-family m1 must be coupled at the run's c "
                         "and A")
    return m1, MetricSchedule.zero(p.m) if m2 is None else m2


def _make_update(p: ProblemSpec, c, gamma, tau: TauSchedule | None,
                 m1: MetricSchedule | None, m2: MetricSchedule | None, tol):
    """Build the proximal ADMM update on the flat state s = x | z | y:
    update(t, s, out, start=None) writes x_new | z_new | w into `out`, a
    flat row of length n + 2m that does not overlap s, with z_new taken at
    the relaxed point x + gamma (x_new - x) and the dual velocity
    w = c (A x_new - z_new); t is the flow time or the iteration index k.
    Callers evaluate into the rows they keep (a slope row of `integrate`,
    the next iterate of `discrete.run`), or take the three blocks of a
    fresh row from `_blocks`.  The x-step of a tau family is positive for
    t >= 0 and the update passes it to the raw prox of f, so a caller at
    t < 0 certifies it first (`_check_step`).  A `metric_prox` solve of the
    x (z) block starts at start[0] (start[1]) when a start (x, z) or
    (x, z, key) is given, and at s's own x (z) otherwise; single proxes
    ignore it.  The update returns the start for the next solve: its own
    (x_new, z_new) arrays, which do not alias `out`, with the key of its
    piece after a certified piece map (below), or None from the
    constant-step kernel, whose proxes are all single calls.  The general
    path writes through views of a row of its own, made here, and copies
    that row into `out`.

    Every affine term is a fixed linear function of s or x_new, so the run
    builds two maps once: `r = H s` gives the affine inputs of both blocks
    and `B x_new` the new part of the relaxed point and c A x_new.  Each
    block solver is chosen here, once:

    * a tau-family M1(t) = I / tau(t) - c A* A (the closed-form mode; a
      ValueError when coupled at another c or A, see `schedules`): the x
      rows of H are [K, -c A*, A*], K = c A* A + P, and x_new is one prox
      of f at x - tau(t) (r_x + q), a constant step tau(t) = tau0 included
    * a constant M1: the x rows are [P - M1, -c A*, A*] and `metric_prox`
      solves the block in Q1 = c A* A + M1 with lin = r_x + q
    * a constant scaled identity M2 = s I, zero (no M2) included: with
      k = c / (c + s), the z rows of H are [k (1 - gamma) A, s I / (c + s),
      I / (c + s)], the z row of B is k gamma A, and z_new is one prox of g
      with step 1 / (c + s) at r_z + k gamma A x_new; at s = 0 the middle
      block is dropped and every factor is exactly 1 or 1 / c
    * any other M2(t) = s2(t) I + K2 (s2 = 1 / tau2(t) for a tau family, 0
      for a constant): the z rows are [(1 - gamma) A, K2 / c, I / c] and
      `metric_prox` solves the block in M2(t) + c I with
      lin = -c (r_z + gamma A x_new) - s2(t) z

    * a constant step tau0, a constant scaled-identity M2, a dense H and
      h zero or quadratic: one kernel, which folds tau0 and every affine
      prox into one map (`stepmaps._constant_step_update`); a moving step,
      any other metric, another h and a lazy H keep the forms above
    * a constant M1 with a dense Q1 that has a positive floor (as
      `metric_prox` needs), a constant scaled-identity M2, a dense H, h
      zero or quadratic, f and g that name their pieces and regions
      (`ProxFunction`), and room for `stepmaps.PIECE_MAPS` maps: the update
      first tries the certified affine map of the joint piece that the
      solves' start lies on (`stepmaps._piece_rows`).  When its
      certificate holds, the row is written, no `metric_prox` solve runs,
      and the returned start is the product's own x_new and z_new with
      the piece's key, so the next evaluation from it computes no key;
      otherwise it tries one guessed next piece the same way, and then
      takes the `metric_prox` form above, whose solve skips its piece
      start when the x block's rows of the start piece's certificate
      failed, so as not to try that piece again

    Both piecewise-affine forms, the kernel with f and g whose proxes are
    affine or name their pieces and regions and the certified general
    path, carry their joint pieces as `update.pieces` (`stepmaps`), from
    which `integrate` builds its step maps; every other update has None.

    B is [k gamma A; c A], with k = 1 for any other M2.  A quadratic h
    (`quadratic_smooth`) folds its P and q in as above; any other h adds
    its gradient at x to r_x.  With n + 2m at most `linops._DENSE_LIMIT`
    each map is one dense matrix.  A wider problem applies them lazily:
    H s takes one A x for both block rows and one A* of y + c (A x - z) (of
    y - c z for a constant M1), and B x_new one A x_new, where the per-block
    formulas apply A or A* four times.
    """
    m1, m2 = schedules(p, c, tau, m1, m2)
    n, m = p.n, p.m
    iy = n + m
    A, AT = p.A, p.A.T
    f, g = p.f, p.g
    f_prox, g_prox = f._prox, g._prox

    P = q = h_grad = None
    if p.h.P is not None:
        P, q = LinearMap.from_dense(p.h.P), p.h.q
    elif not p.h.is_zero:
        h_grad = p.h._grad

    # kxx: the x rows' x-term; kx: the part of it the lazy rows apply as
    # a map, without the c A* A of a tau family
    x_tau = m1.tau
    if x_tau is None:
        q1 = x_update_metric(m1, c, A, 0.0)
        kx = -1.0 * m1.at(0.0).base if P is None else P - m1.at(0.0).base
        kxx = kx
    else:
        kx = P
        kxx = c * A.gram() if P is None else c * A.gram() + P

    # a constant M2 = s I scales the z rows by k = c / (c + s) and the y
    # block to I / (c + s): at s = 0, k is 1.0 and c + s is c
    z_tau = m2.tau
    z_scale = None if z_tau is not None else m2.at(0.0).base.scale
    z_prox = z_scale is not None
    kz, k, cs = None, 1.0, c
    if z_tau is not None:
        kz = (-m2.c / c) * m2.A.gram()
    elif z_prox:
        cs = c + z_scale
        k = c / cs
        if z_scale != 0.0:
            kz = LinearMap.identity(m, z_scale / cs)
    else:
        q2 = z_update_metric(m2, c, 0.0)
        kz = (1.0 / c) * m2.at(0.0).base
    z_step = 1.0 / cs

    # the wide (lazy) forms apply A once and A* once for H, A once for B
    a_apply, a_adjoint = A._raw_apply, A._raw_adjoint
    kx_apply = None if kx is None else kx._raw_apply
    kz_apply = None if kz is None else kz._raw_apply
    relax = k * (1.0 - gamma)  # 0 at gamma = 1: the z rows' A x block is 0

    def h_lazy(s):
        x, z, y = s[:n], s[n:n + m], s[n + m:]
        ax = a_apply(x)
        rx = a_adjoint(y - c * z if x_tau is None else y + c * (ax - z))
        if kx_apply is not None:
            rx = rx + kx_apply(x)
        rz = y / cs if relax == 0.0 else relax * ax + y / cs
        if kz_apply is not None:
            rz += kz_apply(z)
        return np.concatenate((rx, rz))

    b_scales = np.array([[k * gamma], [c]])

    def b_lazy(x):
        return (b_scales * a_apply(x)).ravel()

    H = _block_map([[kxx, -c * AT, AT],
                    [relax * A, kz, LinearMap.identity(m, z_step)]],
                   [n, m, m], h_lazy)
    B = _block_map([[(k * gamma) * A], [c * A]], [n], b_lazy)
    h_apply, b_apply = H._raw_apply, B._raw_apply
    if x_tau is not None and m1.is_time_invariant() and z_prox \
            and h_grad is None and H.mat is not None:
        return _constant_step_update(H.mat, B.mat, q, n, m, c, x_tau.tau0,
                                     z_step, f, g)
    piece_rows = pieces = None
    if x_tau is None and z_prox and h_grad is None and H.mat is not None \
            and q1.base.mat is not None and q1.alpha_floor > 0.0 \
            and f._region is not None and g._region is not None:
        piece_rows, pieces = _piece_rows(H.mat, B.mat, q, q1, f, g, c,
                                         z_step) or (None, None)
    # the fallback's row, written through views made here, then copied
    width = iy + m
    row = np.empty(width)
    row_x, row_z, row_w = row[:n], row[n:iy], row[iy:]

    def update(t, s, out, start=None):
        if start is None:
            x0, z0, key = s[:n], s[n:iy], None
        elif len(start) == 3:
            x0, z0, key = start
        else:
            (x0, z0), key = start, None
        retry = True
        if piece_rows is not None:
            r, key, retry = piece_rows(s, x0, z0, key)
            if r is not None:
                out[...] = r[:width]
                return r[:n], r[n:iy], key
        r = h_apply(s)
        rx = r[:n]
        if q is not None:
            rx = rx + q
        if h_grad is not None:
            rx = rx + h_grad(s[:n])
        if x_tau is not None:
            tau_t = x_tau.value(t)
            x_new = f_prox(tau_t, s[:n] - tau_t * rx)
        else:
            x_new = metric_prox(f, q1, rx, x0, tol=tol, piece_start=retry)
        bx = b_apply(x_new)
        rz = r[n:] + bx[:m]
        if z_prox:
            z_new = g_prox(z_step, rz)
        else:
            z = s[n:n + m]
            lin = -c * rz
            if z_tau is not None:
                lin -= z / z_tau.value(t)
                q2_t = z_update_metric(m2, c, t)
            else:
                q2_t = q2
            z_new = metric_prox(g, q2_t, lin, z0, tol=tol)
        row_x[...] = x_new
        row_z[...] = z_new
        np.subtract(bx[m:], c * z_new, out=row_w)
        out[...] = row
        return x_new, z_new

    update.pieces = pieces
    return update


def _blocks(p: ProblemSpec, update, t, s):
    """(x_new, z_new, w) of one update at (t, s), sliced from a fresh row."""
    out = np.empty_like(s)
    update(t, s, out)
    return out[:p.n], out[p.n:p.n + p.m], out[p.n + p.m:]


def _check_step(tau: TauSchedule | None, m1: MetricSchedule | None, t):
    """A tau-family x-step tau(t) must be positive, as the raw prox of f in
    the update needs; every one is for t >= 0."""
    x_tau = tau if m1 is None else m1.tau
    if x_tau is not None and not x_tau.value(t) > 0:
        raise ValueError("prox step tau must be positive")


def _check_rhs_time(p: ProblemSpec, params: FlowParams, t):
    """The certificates `rhs` checks before evaluating at time t: the
    x-step (`_check_step`), and for a tau-family x-step, given as tau or as
    m1, c tau(t) ||A||^2 <= 1."""
    _check_step(params.tau, params.m1, t)
    x_tau = schedules(p, params.c, params.tau, params.m1, params.m2)[0].tau
    if x_tau is not None and \
            params.c * x_tau.value(t) * p.A.norm() ** 2 > 1.0 + 1e-12:
        raise CertificationError("closed-form mode needs c tau(t) ||A||^2 <= 1")


def rhs(p: ProblemSpec, params: FlowParams, t, s: SystemState):
    """One right-hand-side evaluation (u, v, w) at time t and state s.

    A tau-family x-step has its step-size certificate checked at t; a
    general metric fails inside the subproblem solve if it is not positive.
    """
    _check_rhs_time(p, params, t)
    u0 = _start_row(p, s)
    update = _make_update(p, params.c, params.gamma, params.tau, params.m1,
                          params.m2, params.inner_tol)
    x_new, z_new, w = _blocks(p, update, t, u0)
    return x_new - u0[:p.n], z_new - u0[p.n:p.n + p.m], w


def _check_certificates(p: ProblemSpec, params: FlowParams):
    """The certificates `integrate` checks before stepping; tau(t) is
    nondecreasing, so c tau(t) ||A||^2 peaks at the horizon."""
    m1, m2 = schedules(p, params.c, params.tau, params.m1, params.m2)
    if m1.tau is not None:
        worst = params.c * m1.tau.value(params.horizon) * p.A.norm() ** 2
        if worst > 1.0 + 1e-12:
            raise CertificationError(
                f"closed-form mode needs c tau(t) ||A||^2 <= 1 over the "
                f"horizon (worst sampled value {worst:.6g})")
    if params.mode == "general-metric":
        from .metric import certify

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
    states.  Raises ValueError if s0 has the wrong dimensions,
    record_every < 1 or a fixed step h is not positive and finite (an
    infinite h would take no step), CertificationError before stepping if
    the mode's
    conditions fail, IntegrationError if the state leaves the finite range.
    Adaptive step underflow returns the partial trajectory with
    stop_reason = "step-underflow".

    Everything a step touches is built once per run: the stage points and
    slopes with each stage's views of them, the step-scaled tableau h a,
    h b (and h e), rescaled only when h changes, and the record arrays t, U
    and the integrals, written in place: a fixed-step run's hold exactly
    the rows it can record, an adaptive run's double when full; the
    trajectory gets trimmed copies of them.  Each rhs evaluation writes
    x_new | z_new | w straight into its slope row, less the stage point's
    x and z in one subtraction.  The adaptive error estimate is written
    into buffers, and |U_n| carries over from the last accepted step's
    |U_n+1|.  Each entry is the floating-point expression a per-step build
    would evaluate, so the trajectory is bit for bit that of such a loop
    (the tests keep one).  The finiteness test takes ||U||^2 first and the
    entries only when that is not finite, so the same states raise.

    Each rhs evaluation starts its `metric_prox` solves at the previous
    evaluation's (x_new, z_new), whichever stage, step or rejected adaptive
    trial made it; the run's first evaluation starts at its own stage
    point, so it is `rhs` bit for bit.

    An RK4 or adaptive run of an update with pieces (`update.pieces`),
    long enough and with maps small enough to repay their builds
    (`stepmaps._step_maps`), first tries the current step map
    (`stepmaps._StepMaps`) at each full step, or each adaptive trial at
    h_max: when its certificate holds, one product gives the next state,
    the integrals' increment and, for an update that takes starts, the
    last stage's (x_new, z_new), which starts the next evaluation.  An
    adaptive trial also gets its error estimate and the next first slope
    from it, and takes the map step only if the error is at most
    `MAP_STEP_ERR`, where the stagewise trial is accepted too and the next
    trial is again at h_max.  So the steps are those of a run without maps
    up to the first step below h_max after a map step, whose size the
    controller takes from the error of a state that a map made: from there
    the times move at roundoff, which the controller carries on.
    Otherwise, and on a clipped step, the step is stagewise, and the piece
    its last evaluation lies on, named by the key that evaluation returned
    when a piece map certified it, picks the next step's map, after a step
    that the next trial follows at the map's step.  A map step counts the
    evaluations of the stagewise step in `rhs_evals` and one in
    `map_steps`.
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    u0 = _start_row(p, s0)

    _check_certificates(p, params)
    update = _make_update(p, params.c, params.gamma, params.tau, params.m1,
                          params.m2, params.inner_tol)
    integ = params.integrator
    if type(integ) not in _TABLEAUS:
        raise ValueError(f"unknown integrator {integ!r}")
    c_nodes, a_mat, b_w, e_w = _TABLEAUS[type(integ)]
    adaptive = e_w is not None
    horizon = params.horizon
    t_end = horizon - 1e-12
    if adaptive:
        h, h_max = float(integ.h0), integ.h_max
        capacity = 256
        n_full = int(horizon / h_max + 1e-9)  # steps of h_max
    else:
        h_fix = float(integ.h)
        if not 0 < h_fix < math.inf:
            raise ValueError("step size must be positive and finite")
        # step k starts at k h_fix; a remainder above 1e-12 gets one clipped
        # step, and the last step ends exactly at the horizon
        n_full = int(np.floor(horizon / h_fix + 1e-9))
        h_last = horizon - n_full * h_fix
        n_steps = n_full + (h_last > 1e-12)
        capacity = n_steps // record_every + 2

    # Row 0 of the stage points is the flat state U = (x, z, y), and the
    # running integrals of x and z are one array, so each stage
    # combination is a single matrix-vector product.
    iy = p.n + p.m
    pts = np.empty((len(c_nodes), iy + p.m))  # stage points
    ks = np.empty_like(pts)                   # stage slopes
    pts[0] = u0
    # the rows of a, then b (and e), scaled by h in one call
    tab = np.vstack((a_mat, b_w) if e_w is None else (a_mat, b_w, e_w))
    h_tab = np.empty_like(tab)
    ha, hb, he = h_tab[:len(a_mat)], h_tab[len(a_mat)], h_tab[-1]
    h_scaled = None  # the step h_tab holds
    p0, k0, p_last, k_last = pts[0], ks[0], pts[-1], ks[-1]
    pts_xz = pts[:, :iy]
    ints = np.zeros(iy)
    # an RK4 or adaptive run of a piecewise-affine update also steps by
    # maps, at its full step or h_max
    maps = _step_maps(getattr(update, "pieces", None), a_mat, b_w, e_w,
                      h_max if adaptive else h_fix, p.n, p.m, n_full)
    map_steps = 0
    width = iy + p.m
    # per stage: the x | z blocks of its slope and of its point; per later
    # stage i: (ha[i, :i], ks[:i], pts[i], ks[i], c_i, its blocks, and
    # for the last stage of a run with maps, which picks the next map from
    # its evaluation, `maps.observe`)
    k0_xz, p0_xz = ks[0, :iy], pts_xz[0]
    last = len(c_nodes) - 1
    stages = [(ha[i, :i], ks[:i], pts[i], ks[i], float(c_nodes[i]),
               ks[i, :iy], pts_xz[i],
               maps.observe if maps is not None and i == last else None)
              for i in range(1, len(c_nodes))]
    if adaptive:
        # |U_n|, |U_n+1|, the error scale and the scaled error
        abs_n = np.abs(p0)
        abs_next, scale, err_r = (np.empty_like(p0) for _ in range(3))

        def error(u_next, est):
            """The RMS of est over abs_tol + rel_tol max(|U_n|, |u_next|),
            and the controller's factor; est may be err_r."""
            np.abs(u_next, out=abs_next)
            np.maximum(abs_n, abs_next, out=scale)
            np.multiply(scale, integ.rel_tol, out=scale)
            np.add(scale, integ.abs_tol, out=scale)
            np.divide(est, scale, out=err_r)
            err = math.sqrt(err_r.dot(err_r) / err_r.size)
            return err, min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0
                                     else 5.0))
    ts = np.empty(capacity)
    U, integrals = np.empty((capacity, iy + p.m)), np.empty((capacity, iy))
    ts[0], U[0], integrals[0] = 0.0, u0, ints
    n_rec = 1

    start = None  # the previous evaluation's (x_new, z_new)

    def record(t):
        nonlocal n_rec, ts, U, integrals
        if n_rec == len(ts):
            ts, U, integrals = (np.concatenate((a, np.empty_like(a)))
                                for a in (ts, U, integrals))
        ts[n_rec], U[n_rec], integrals[n_rec] = t, p0, ints
        n_rec += 1

    t = 0.0
    evals = accepted = 0
    stop_reason = "horizon"
    while t < t_end if adaptive else accepted < n_steps:
        if adaptive:
            h = min(h, h_max, horizon - t)
            t_next = t + h
        else:
            h = h_fix if accepted < n_full else h_last
            t_next = (accepted + 1) * h_fix if accepted + 1 < n_steps else horizon
        if h != h_scaled:
            np.multiply(h, tab, out=h_tab)
            h_scaled = h
        r = None
        if maps is not None and (h == h_max if adaptive else
                                 accepted < n_full):
            r = maps.step(p0)
            if r is not None and adaptive:
                err, factor = error(r[:width], r[maps.err])
                if not err <= MAP_STEP_ERR:
                    r = None
        if r is not None:
            # a map step: the next state, the integrals' increment, the
            # last stage's slope and x_new | z_new from one product
            ints += r[maps.ints]
            p0[...] = r[:width]
            if adaptive:
                k0[...] = r[maps.slope]
                abs_n, abs_next = abs_next, abs_n
            if maps.warm:
                start = r[maps.x_new], r[maps.z_new]
            # the stagewise step's evaluations, k1 among them unless an
            # adaptive trial has it already (FSAL)
            evals += len(stages) + (evals == 0 or not adaptive)
            map_steps += 1
        else:
            # the adaptive pair keeps k1 across a rejection and takes it
            # from the last stage of an accepted step (FSAL)
            if evals == 0 or not adaptive:
                start = update(t, p0, k0, start)
                np.subtract(k0_xz, p0_xz, out=k0_xz)
                evals += 1
            for ha_i, ks_i, pts_i, k_i, c_i, k_xz, p_xz, observe in stages:
                np.add(p0, ha_i.dot(ks_i), out=pts_i)
                start = update(t + c_i * h, pts_i, k_i, start)
                if observe is not None:
                    observe(k_i)
                np.subtract(k_xz, p_xz, out=k_xz)
            evals += len(stages)
            if adaptive:
                # the last stage point is the 5th-order solution
                err, factor = error(p_last, he.dot(ks, out=err_r))
                if err > 1.0:
                    # reject: nothing was committed; retry from the same k1
                    if h * factor < integ.h_min:
                        stop_reason = "step-underflow"
                        warnings.warn(
                            f"adaptive integrator underflowed its minimum "
                            f"step at t = {t:.6g}; returning the partial "
                            f"trajectory", RuntimeWarning)
                        break
                    h *= factor
                    continue
            # `@`, not `.dot`: with 2 or 3 columns the strided pts_xz rounds
            # differently under the two, and the records keep `@`'s bits
            ints += hb @ pts_xz
            if adaptive:
                p0[...] = p_last
                k0[...] = k_last
                abs_n, abs_next = abs_next, abs_n
            else:
                p0 += hb.dot(ks)
            # only a trial at the map's step tries one
            if maps is not None and ((factor >= 1.0 and h == h_max)
                                     if adaptive else accepted + 1 < n_full):
                maps.settle(start[2] if start is not None and len(start) == 3
                            else None)
        t = t_next
        if not (math.isfinite(p0.dot(p0)) or np.isfinite(p0).all()):
            raise IntegrationError(f"non-finite state at t = {t:.6g}")
        accepted += 1
        if accepted % record_every == 0 or t >= t_end:
            record(t)
        if adaptive:
            h *= factor
    if t > 0 and ts[n_rec - 1] < t - 1e-12:
        record(t)

    ts, U, integrals = (a[:n_rec].copy() for a in (ts, U, integrals))
    erg = np.full(integrals.shape, np.nan)
    erg[1:] = ergodic(ts[1:], U[1:, :iy], u0[:iy], integrals[1:])
    return FlowTrajectory(t=ts, U=U, erg=erg, stop_reason=stop_reason,
                          rhs_evals=evals, n=p.n, map_steps=map_steps)
