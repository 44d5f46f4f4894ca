"""Discrete counterparts of the flow: a proximal ADMM family and two
primal-dual step forms.

`admm_step` is the flow's own proximal ADMM update, built by
`flow._make_update`, followed by the dual ascent step: the update maps the
flat iterate s = x | z | y to (x_new, z_new, w), with w = c (A x_new - z_new)
the dual velocity, and the next iterate is x_new | z_new | y + w.  So one
explicit Euler step of the flow with step 1 is one `admm_step`, which the
tests pin down to 1e-12; the maps H and B behind the update's affine terms,
and the closed-form or `metric_prox` solve of each block, are built there,
once per run.

`cp_step` is the dual-extrapolated primal-dual update (uses 2 y^k - y^{k-1}
in the x-step); `cp_step_explicit` is the same iteration written with the
splitting variable z kept explicit.  Both require h = 0 and gamma = 1 and
coincide once started from matching states (z^0 = A x^0, y^{-1} = y^0).
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, IntegrationError
from .flow import (SystemState, _check_step, _make_update, _start_row,
                   _state_rows)
from .metric import MetricSchedule, TauSchedule
from .problems import ProblemSpec, kkt_residuals
from .proxlib import conjugate_prox

__all__ = [
    "DiscreteParams",
    "DiscreteRun",
    "admm_step",
    "cp_step",
    "cp_step_explicit",
    "run",
]

DIVERGENCE_LIMIT = 1e12
# Iterates whose KKT residuals `run` evaluates in one call.
STOP_CHUNK = 16


@dataclass
class DiscreteParams:
    """Iteration parameters.

    tau is a TauSchedule evaluated at t = k; a positive number is the
    constant schedule.  Omitting m1 selects the step-derived metric
    M1^k = I / tau(k) - c A* A (single-prox x-update); omitting m2 (a zero
    M2), or a constant m2 = s I, keeps a single-prox z-update.
    """

    c: float = 1.0
    gamma: float = 1.0
    tau: TauSchedule | float = 0.25
    m1: MetricSchedule | None = None
    m2: MetricSchedule | None = None
    inner_tol: float = 1e-10
    max_iters: int = 1000
    stop_tol: float = 1e-8

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError("penalty c must be positive")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0,1]")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if isinstance(self.tau, numbers.Real):
            self.tau = TauSchedule.constant(self.tau)
        elif not isinstance(self.tau, TauSchedule):
            raise ValueError("tau must be a positive number or a TauSchedule")


def _admm(p: ProblemSpec, d: DiscreteParams):
    """Build the iteration (k, s) -> s at k + 1 on flat rows x | z | y for
    one run."""
    iy = p.n + p.m
    update = _make_update(p, d.c, d.gamma, d.tau, d.m1, d.m2, d.inner_tol)

    def step(k, s):
        x_new, z_new, w = update(k, s)
        return np.concatenate((x_new, z_new, s[iy:] + w))

    return step


def admm_step(p: ProblemSpec, d: DiscreteParams, k: int,
              s: SystemState) -> SystemState:
    """One proximal ADMM iteration (x-update, relaxed z-update, dual ascent).

    x^{k+1} minimizes f plus the linearized h plus the augmented coupling
    term in the metric M1^k; z^{k+1} sees the relaxed point
    gamma x^{k+1} + (1-gamma) x^k; y^{k+1} = y^k + c (A x^{k+1} - z^{k+1}).
    A tau-family step tau(k) that is not positive (k < 0) is a ValueError.
    """
    _check_step(d.tau, d.m1, k)
    row = _admm(p, d)(k, _start_row(p, s))
    return _state_rows([k + 1], row[None], p.n)[0]


def _require_cp(p: ProblemSpec, d: DiscreteParams):
    if not p.h.is_zero:
        raise ConfigError("primal-dual steps require h = 0")
    if d.gamma != 1.0:
        raise ConfigError("primal-dual steps require gamma = 1")


def cp_step(p: ProblemSpec, d: DiscreteParams, k: int, x, y, y_prev):
    """Dual-extrapolated primal-dual step; returns (x^{k+1}, y^{k+1}).

    x^{k+1} = prox_{tau f}(x^k - tau A*(2 y^k - y^{k-1}))
    y^{k+1} = prox_{c g*}(y^k + c A x^{k+1})
    """
    _require_cp(p, d)
    tau_k = d.tau.value(k)
    x_new = p.f.prox(tau_k, x - tau_k * p.A._raw_adjoint(2.0 * y - y_prev))
    y_new = conjugate_prox(p.g, d.c, y + d.c * p.A._raw_apply(x_new))
    return x_new, y_new


def cp_step_explicit(p: ProblemSpec, d: DiscreteParams, k: int,
                     s: SystemState) -> SystemState:
    """The same primal-dual iteration with the splitting variable explicit.

    x^{k+1} = prox_{tau f}(x^k - tau A*(y^k + c (A x^k - z^k)))
    y^{k+1} = prox_{c g*}(y^k + c A x^{k+1})
    z^{k+1} = A x^{k+1} - (y^{k+1} - y^k) / c

    Substituting c (A x^k - z^k) = y^k - y^{k-1} (which the z-update makes
    an identity from k = 1 on, and the start z^0 = A x^0, y^{-1} = y^0 makes
    true at k = 0) recovers `cp_step`.
    """
    _require_cp(p, d)
    c = d.c
    tau_k = d.tau.value(k)
    x, z, y = s.x, s.z, s.y
    x_new = p.f.prox(tau_k, x - tau_k * p.A._raw_adjoint(y + c * (p.A._raw_apply(x) - z)))
    y_new = conjugate_prox(p.g, c, y + c * p.A._raw_apply(x_new))
    z_new = p.A._raw_apply(x_new) - (y_new - y) / c
    return SystemState(x_new, z_new, y_new, float(k + 1))


@dataclass
class DiscreteRun:
    """Iterate history and the stop reason: U holds one row x^k | z^k | y^k
    per iterate k, shape (R, n + 2m), and residuals the matching KKT
    residuals, shape (R, 3), with columns stat_x, stat_z and feas (a
    diverged iterate's row is inf).  `states`, `final` and `iterations` are
    built on access.
    """

    U: np.ndarray
    residuals: np.ndarray
    stop_reason: str  # "tolerance" | "budget" | "divergence"
    n: int

    @property
    def states(self) -> list:
        return _state_rows(np.arange(len(self.U), dtype=float), self.U, self.n)

    @property
    def final(self) -> SystemState:
        return _state_rows([len(self.U) - 1], self.U[-1:], self.n)[0]

    @property
    def iterations(self) -> int:
        return len(self.U) - 1


def _iterates(p: ProblemSpec, d: DiscreteParams, u0, algorithm):
    """Yield the iterates x^k | z^k | y^k for k = 1, 2, ... from u0, each a
    new flat row."""
    if algorithm == "admm":
        step = _admm(p, d)
        s = u0
        for k in itertools.count():
            s = step(k, s)
            yield s
    x, _, y = np.split(u0, [p.n, p.n + p.m])
    y_prev = y
    for k in itertools.count():
        x, y_new = cp_step(p, d, k, x, y, y_prev)
        z = p.A._raw_apply(x) - (y_new - y) / d.c
        y_prev, y = y, y_new
        yield np.concatenate((x, z, y))


def run(p: ProblemSpec, d: DiscreteParams, s0: SystemState | None = None,
        algorithm: str = "admm") -> DiscreteRun:
    """Iterate until the KKT residual max-component drops to stop_tol,
    the budget runs out, or an iterate is not finite or has a block norm
    above the divergence limit.

    algorithm "admm" iterates `admm_step`, built once per run; "cp" uses
    `cp_step` and tracks the splitting variable via
    z^{k+1} = A x^{k+1} - (y^{k+1} - y^k)/c so the same residuals are
    reported.  Raises ValueError if s0 has the wrong dimensions.

    The divergence test runs on every iterate, the residuals on
    `STOP_CHUNK` iterates at a time, in one `kkt_residuals` call.  The run
    ends at the first row at or below stop_tol and drops the iterates
    computed after it, so the result is the one an iterate-by-iterate loop
    returns, even when a dropped iterate raised.

    The iterates go into one array that doubles when full; a chunk of the
    stop test is a view of it, and the result a trimmed copy.  The
    divergence test first checks ||row||^2 <= limit^2 / 4 in one call.
    Every block's squared norm is at most the row's, so a row that passes
    passes the per-block test, whatever the rounding of either sum; only a
    row that fails it, or whose norm is NaN or inf, takes the per-block
    test, which decides alone.  So the same rows pass and the same rows
    stop the run.
    """
    u0 = _start_row(p, s0)
    if algorithm not in ("admm", "cp"):
        raise ConfigError(f"unknown discrete algorithm {algorithm!r}")
    if algorithm == "cp":
        _require_cp(p, d)

    n, m = p.n, p.m
    starts, limit_sq = np.array([0, n, n + m]), DIVERGENCE_LIMIT ** 2
    quarter_sq = 0.25 * limit_sq
    U = np.empty((4 * STOP_CHUNK, len(u0)))
    U[0] = u0
    count, checked = 1, 0
    blocks = []

    def stop_row():
        """Evaluate the residuals of the rows not yet checked; the index of
        the first at or below stop_tol, or None."""
        nonlocal checked
        first, checked = checked, count
        if first == checked:
            return None
        block = U[first:count]
        blocks.append(kkt_residuals(p, block[:, :n], block[:, n:n + m],
                                    block[:, n + m:]))
        hits = np.flatnonzero(blocks[-1].max(axis=1) <= d.stop_tol)
        return first + int(hits[0]) if hits.size else None

    def result(reason, end):
        return DiscreteRun(U[:end].copy(), np.concatenate(blocks)[:end],
                           reason, n)

    iterates = _iterates(p, d, u0, algorithm)
    error, diverged = None, False
    for _ in range(d.max_iters):
        if count - checked == STOP_CHUNK:
            k = stop_row()
            if k is not None:
                return result("tolerance", k + 1)
        try:
            row = next(iterates)
        except Exception as exc:  # re-raised below unless an earlier row stops
            error = exc
            break
        if count == len(U):
            U = np.concatenate((U, np.empty_like(U)))
        U[count] = row
        # a row of squared norm at most limit^2 / 4 passes; otherwise the
        # squared norms of x, z and y decide, and a NaN or inf anywhere in
        # the row makes the largest one NaN or inf, which fails
        if not (row @ row <= quarter_sq
                or np.add.reduceat(row * row, starts).max() <= limit_sq):
            diverged = True  # row k = count is stored but not yet counted
            break
        count += 1
    k = stop_row()
    if k is not None:
        return result("tolerance", k + 1)
    if error is not None:
        raise error
    if not diverged:
        return result("budget", count)
    blocks.append(np.full((1, 3), np.inf))
    return result("divergence", count + 1)
