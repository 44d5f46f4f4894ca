"""Discrete counterparts of the flow: the proximal ADMM family and the
Chambolle-Pock primal-dual iteration.

`run` iterates the flow's own proximal ADMM update, built once per run by
`flow._make_update`, followed by the dual ascent step: from the flat
iterate s = x | z | y the update writes x_new | z_new | w into a row, with
w = c (A x_new - z_new) the dual velocity, and the next iterate is
x_new | z_new | y + w.  So one explicit Euler step of the flow with step 1
is one ADMM iteration, which the tests pin down to 1e-12; the maps H and B
behind the update's affine terms, the constant step folded into H's x
rows, and the closed-form or `metric_prox` solve of each block, are built
there, once per run.

The primal-dual iteration of Chambolle and Pock (2011, 4.3) uses
2 y^k - y^{k-1} in the x-step; it requires h = 0, gamma = 1 and no metric
schedules (`_require_cp`).  By the Moreau identity
prox_{c g*}(v) = v - c prox_{g/c}(v / c) it is the gamma = 1 proximal
ADMM once z^k = A x^k - (y^k - y^{k-1}) / c, so `run(..., "cp")` is the
ADMM loop started from z^0 = A x^0 (y^{-1} = y^0), the start row kept as
given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .flow import Dynamics, SystemState, _make_update, _start_row
from .problems import ProblemSpec, kkt_residuals

__all__ = [
    "DiscreteParams",
    "DiscreteRun",
    "run",
]

DIVERGENCE_LIMIT = 1e12
# The rows of `run`'s first stop test, and how many of the last rows
# checked give the residual decay that sizes each later one.
STOP_WINDOW = 16
# The most iterates whose KKT residuals `run` evaluates in one call.
STOP_CHUNK = 64


@dataclass
class DiscreteParams(Dynamics):
    """Iteration parameters: the flow's `Dynamics`, with tau evaluated at
    t = k and 0.25 when neither tau nor m1 is given, and the iteration
    budget and stop tolerance."""

    max_iters: int = 1000
    stop_tol: float = 1e-8

    def __post_init__(self):
        if self.tau is None and self.m1 is None:
            self.tau = 0.25
        super().__post_init__()
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if math.isnan(self.stop_tol):
            raise ValueError("stop_tol must not be NaN")


def _require_cp(p: ProblemSpec, d: DiscreteParams):
    if not p.h.is_zero:
        raise ConfigError("primal-dual steps require h = 0")
    if d.gamma != 1.0:
        raise ConfigError("primal-dual steps require gamma = 1")
    if d.m1 is not None or d.m2 is not None:
        raise ConfigError("primal-dual steps take the step tau, not m1 or m2")


@dataclass
class DiscreteRun:
    """Iterate history and the stop reason: U holds one row x^k | z^k | y^k
    per iterate k, shape (R, n + 2m), and residuals the matching KKT
    residuals, shape (R, 3), with columns stat_x, stat_z and feas (a
    diverged iterate's row is inf).  `iterations` is len(U) - 1, the count
    that the CLI footer and `perfbench/` read.
    """

    U: np.ndarray
    residuals: np.ndarray
    stop_reason: str  # "tolerance" | "budget" | "divergence"

    @property
    def iterations(self) -> int:
        return len(self.U) - 1


def _next_chunk(start, end, span, stop_tol):
    """Rows to compute before the next stop test.  The residual maximum
    fell from `start` to `end` over the last `span` rows (`run` passes at
    most the last `STOP_WINDOW` rows checked); the chunk is the number of
    rows that rate takes from `end` down to stop_tol, within
    [1, STOP_CHUNK], and `STOP_CHUNK` when the maximum did not fall.  The
    rate is a difference of logs, so no ratio can underflow to 0."""
    if not (span > 0 and 0.0 < end < start and stop_tol > 0.0):
        return STOP_CHUNK
    rate = (math.log(end) - math.log(start)) / span
    if not rate < 0.0:
        return STOP_CHUNK
    need = (math.log(stop_tol) - math.log(end)) / rate
    return min(max(math.ceil(need), 1), STOP_CHUNK)


def run(p: ProblemSpec, d: DiscreteParams, s0: SystemState | None = None,
        algorithm: str = "admm") -> DiscreteRun:
    """Iterate until the KKT residual max-component drops to stop_tol,
    the budget runs out, or an iterate is not finite or has a block norm
    above the divergence limit.

    Both algorithms iterate the proximal ADMM update, built once per run:
    it writes x_new | z_new | w straight into the next row, and y is added
    to w there.  Each evaluation gets the start the one before returned
    (`flow._make_update`), whose x and z are the bits of the iterate it
    steps from, so the iterates are those of a loop that passes none;
    after a certified piece map the start carries that piece's key, and
    the next evaluation computes none.
    Algorithm "admm" starts from s0; "cp" (`_require_cp`) starts from
    x0 | A x0 | y0, which makes the iterates those of the dual-extrapolated
    step with its splitting variable
    z^{k+1} = A x^{k+1} - (y^{k+1} - y^k) / c, while row 0 keeps s0.
    Raises ValueError if s0 has the wrong dimensions.

    The divergence test runs on every iterate, the residuals on a chunk
    of iterates at a time, in one `kkt_residuals` call.  The first chunk
    is `STOP_WINDOW` rows; each next one is the number of rows that the
    decay of the residual maxima over the last `STOP_WINDOW` rows checked
    predicts it takes to reach stop_tol, at most `STOP_CHUNK`
    (`_next_chunk`).  The local rate follows a decay that speeds up after
    a plateau, so a run computes few iterates past its stop row, and a
    slow decay takes few stop tests.  The run ends at the first row at or
    below stop_tol and drops the iterates computed after it.  Each row's
    residuals are
    bit-equal to that row's alone, so the result is the one an
    iterate-by-iterate loop returns, whatever the chunks, even when a
    dropped iterate raised.

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
    iy = n + m
    update = _make_update(p, d.c, d.gamma, d.tau, d.m1, d.m2, d.inner_tol)
    starts, limit_sq = np.array([0, n, iy]), DIVERGENCE_LIMIT ** 2
    quarter_sq = 0.25 * limit_sq
    U = np.empty((STOP_CHUNK, len(u0)))
    U[0] = u0
    s, start = u0, None
    if algorithm == "cp":
        s = u0.copy()
        s[n:iy] = p.A._raw_apply(u0[:n])
    count, checked, chunk = 1, 0, STOP_WINDOW
    blocks, peaks = [], np.empty(0)

    def stop_row():
        """Evaluate the residuals of the rows not yet checked and size the
        next chunk; the index of the first row at or below stop_tol, or
        None."""
        nonlocal checked, chunk, peaks
        first, checked = checked, count
        if first == checked:
            return None
        block = U[first:count]
        blocks.append(kkt_residuals(p, block[:, :n], block[:, n:iy],
                                    block[:, iy:]))
        maxima = blocks[-1].max(axis=1)
        hits = np.flatnonzero(maxima <= d.stop_tol)
        if hits.size:
            return first + int(hits[0])
        # the maxima of the last STOP_WINDOW rows checked
        peaks = np.concatenate((peaks, maxima))[-STOP_WINDOW:]
        chunk = _next_chunk(peaks[0], peaks[-1], len(peaks) - 1, d.stop_tol)
        return None

    def result(reason, end):
        return DiscreteRun(U[:end].copy(), np.concatenate(blocks)[:end],
                           reason)

    error, diverged = None, False
    for k in range(d.max_iters):
        if count - checked == chunk:
            stop = stop_row()
            if stop is not None:
                return result("tolerance", stop + 1)
        if count == len(U):
            U = np.concatenate((U, np.empty_like(U)))
        row = U[count]
        try:
            start = update(k, s, row, start)
        except Exception as exc:  # re-raised below unless an earlier row stops
            error = exc
            break
        y_row = row[iy:]
        y_row += s[iy:]
        # a row of squared norm at most limit^2 / 4 passes; otherwise the
        # squared norms of x, z and y decide, and a NaN or inf anywhere in
        # the row makes the largest one NaN or inf, which fails
        if not (row.dot(row) <= quarter_sq
                or np.add.reduceat(row * row, starts).max() <= limit_sq):
            diverged = True  # row k = count is stored but not yet counted
            break
        count += 1
        s = row
    stop = stop_row()
    if stop is not None:
        return result("tolerance", stop + 1)
    if error is not None:
        raise error
    if not diverged:
        return result("budget", count)
    blocks.append(np.full((1, 3), np.inf))
    return result("divergence", count + 1)
