"""Per-piece maps of a piecewise-affine update and their certificate.

On a joint piece D of its proxes the update is affine in the state
(`update.pieces`, from `flow._make_update`), and so is a Runge-Kutta step
of one fixed h.  A piece map is one matrix on (U, 1) whose product gives
the update's row (`flow._piece_rows`) or a whole step (`_StepMaps`) and a
certificate, built for both by `_certified`: a row per prox input, affine
in U, and finite bound of D's region, input - lo - PIECE_MARGIN or
hi - PIECE_MARGIN - input (an infinite bound holds for every finite
input), and two guard rows, +-sum(U) plus an infinite offset added after
the map's finite test, which fail for a NaN or inf entry of U whatever
the product makes of the zero coefficients that meet it.  Where every
certificate entry is positive, every input lies inside D's region, and
the product is what the update, or the stagewise step, evaluates.

`flow.integrate` takes step maps for the full steps of an RK4 run and for
the trials of an adaptive run at its h_max, where the runs are long
enough and the maps small enough to repay their builds (`_step_maps`).
"""

from __future__ import annotations

import math

import numpy as np

# How far inside its piece's region a certified prox input must lie, in
# a piece map of the update (`flow._piece_rows`) and at every stage of a
# step map: roundoff in the map's products is some 1e-15 of the row's
# size, so an input the map puts past this margin is inside.
PIECE_MARGIN = 1e-9
# Floats of step maps one run keeps (2 MiB), least recently used dropped
# first; the map in use is always kept.
STEP_MAP_FLOATS = 2 ** 18
# The fewest step maps that must fit in `STEP_MAP_FLOATS` floats for a
# run to take them: maps of at most 16 384 floats, a limit that depends on
# the problem's size alone (lasso-small's RK4 maps have 6 848, or 7 488 on
# the general path, and its adaptive maps 12 736 or 13 376).  A build
# costs O((n + 2m)^3) and a map step saves a few evaluations of
# O((n + 2m)^2), so past this size a run's builds cost more than its map
# steps save: on seeded dense lassos, RK4 runs of 100 steps took 1.1 to
# 1.9 times as long with maps as without at widths 56 to 80, and 2.4 to
# 4.9 times at widths 96 to 128.  Adaptive maps, with 7 stages and two
# more blocks of rows, fit up to a width of 34: adaptive runs to T = 100
# read 0.81 to 0.88 with maps at widths 28 to 34, and 0.89 to 1.06 past
# them at widths 36 to 70, where runs to T = 50 read 0.89 to 1.40.
STEP_MAPS = 16
# The fewest full steps a run must have to take step maps.  A run meets
# a few pieces in its transient and pays a build of some 80 to 150 us on
# each that holds across a step, and a piece key on every stagewise step:
# on the catalog problems and general-metric lasso-small, RK4 runs of 16
# steps of 0.05 to 1 took 0.66 to 1.30 times as long with maps as
# without, runs of 32 steps 0.40 to 1.03, and runs of 100 steps 0.16 to
# 0.76.
STEP_MAP_MIN_STEPS = 32
# The fewest steps of h_max that an adaptive run's horizon must hold for
# it to take step maps.  Its transient, where no map is tried, takes steps
# below h_max for some 15 to 30 time units on the catalog, and a build
# costs some 70 to 220 us: on the catalog problems, l1-box,
# ridge-identity and general-metric lasso-small, adaptive runs to T = 32
# took 0.92 to 1.07 times as long with maps as without (h_max = 1), to
# T = 50 0.79 to 1.04, to T = 64 0.76 to 0.98 but for one reading of
# 1.08, and to T = 100 0.63 to 0.89.
ADAPTIVE_MAP_MIN_STEPS = 64
# The largest error estimate at which an adaptive run takes a map step.
# Below 0.9^5 = 0.59 the controller's factor 0.9 err^(-1/5) is above 1, so
# the stagewise trial that the map step stands for, whose estimate differs
# at roundoff, is accepted too and followed by another trial at h_max: a
# map step accepts, and sets the next step, as that trial would.
MAP_STEP_ERR = 0.5


class _StepMaps:
    """The step maps of one run of a piecewise-affine update, at one step
    h: every full step of a fixed-step RK4 run, or every trial of an
    adaptive run at its h_max.

    On a joint piece D the update is x_new | z_new | w = A_D s + a_D
    (`update.pieces`), so the slope is affine too, and so is every stage
    point of an explicit Runge-Kutta step: with P_1 = I and K_i = J_D P_i,
    P_i = I + h sum_j a_ij K_j on (U, 1).  One step is then
    U <- Phi_D U + phi_D with Phi_D = I + h sum_i b_i K_i, the integrals
    add Psi_D U + psi_D = h sum_i b_i (P_i U)_xz, and every stage's prox
    inputs are affine in U.  A map stacks Phi_D, Psi_D, for an embedded
    pair the error estimate h sum_i e_i K_i and the last stage's slope
    (the next step's first, FSAL), the last stage's x_new | z_new when the
    update takes starts, and the certificate of every stage's prox inputs
    (`_certified`).  `step(u)` applies the current map by one product and
    returns it when the certificate holds, so that every stage lies on D
    and the stagewise step would evaluate this same affine map.

    Otherwise the run takes the stagewise step, keeping its last
    evaluation's output (`observe`), and then `settle` picks the map for
    the next step: the map of the piece that evaluation lies on, once the
    step before it, stagewise or by a map, ended on that piece too.  So a
    transient that meets a new piece every step builds no map, and one key
    is taken per stagewise step.  Maps are kept while they fit in
    `STEP_MAP_FLOATS` floats, and a dropped map is built again, the same
    way, so the trajectory never depends on what was kept.
    """

    def __init__(self, pieces, a_mat, b_w, e_w, h, n, m):
        self.key_of, self.piece_at, warm = pieces
        ha, self.hb = h * a_mat, h * b_w
        self.he = None if e_w is None else h * e_w
        iy, width = n + m, n + 2 * m
        self.n, self.iy, self.width = n, iy, width
        self.stages = len(b_w)
        # the rows of a product: the next state, the integrals' increment,
        # for a pair the error estimate and the last slope, for an update
        # that takes starts the last x_new | z_new, then the certificate
        self.ints = slice(width, width + iy)
        rows = width + iy
        if e_w is not None:
            self.err, self.slope = (slice(rows, rows + width),
                                    slice(rows + width, rows + 2 * width))
            rows += 2 * width
        self.warm = warm
        if warm:
            self.x_new = slice(rows, rows + n)
            self.z_new = slice(rows + n, rows + iy)
            rows += iy
        self.cert = rows
        self.key = None  # the piece the last step ended on
        self.last = np.empty(iy)  # the last evaluation's x_new | z_new
        self.current = None
        self.kept = {}
        # the most rows a map has: those before the certificate, both
        # bounds of all n + m prox inputs at every stage, and the guard;
        # how many such maps fit, and how many are kept, at least one
        rows += 2 * self.stages * iy + 2
        self.fit = STEP_MAP_FLOATS // (rows * width)
        self.capacity = max(1, self.fit)
        self.eye = np.eye(width + 1)
        # each stage's nonzero terms (j, h a_ij)
        self.terms = [[(j, ha[i, j]) for j in range(i) if ha[i, j] != 0.0]
                      for i in range(self.stages)]

    def step(self, u):
        """The product of the current map at u, or None when no map is
        current or its certificate fails; its rows are laid out as
        `__init__` names them."""
        if self.current is None:
            return None
        r = self.current[0].dot(u)
        r += self.current[1]
        cert = r[self.cert:]
        return r if cert[cert.argmin()] > 0.0 else None

    def observe(self, row):
        """Keep the x_new | z_new of a stagewise step's last evaluation,
        from its row."""
        self.last[...] = row[:self.iy]

    def settle(self):
        """After a stagewise step, pick the map the next step tries: that
        of the piece its last evaluation lies on, if the step before it
        ended on that piece too."""
        key = self.key_of(self.last[:self.n], self.last[self.n:])
        held, self.key = key == self.key, key
        self.current = None
        if not held:
            return
        if self.key in self.kept:
            got = self.kept.pop(self.key)
        else:
            got = self._build(self.piece_at(self.last[:self.n],
                                             self.last[self.n:]))
            if len(self.kept) >= self.capacity:
                del self.kept[next(iter(self.kept))]
        self.kept[self.key] = self.current = got

    def _build(self, piece):
        """(matrix, offsets, finite) of the step map of one piece
        (E, lo, hi) (`_certified`), or None when there is no piece or the
        map is not finite.  Every map here is square on (U, 1), its last
        row that of the constant 1."""
        if piece is None:
            return None
        mat, lo, hi = piece
        width, iy, stages = self.width, self.iy, self.stages
        # the slope J_D = A_D - diag(I, I, 0) with its offset j_D
        slope = np.zeros((width + 1, width + 1))
        slope[:width] = mat[:width]
        slope.flat[:iy * (width + 2):width + 2] -= 1.0
        # the stage points P_i = I + sum_j h a_ij K_j and K_i = J_D P_i
        points = np.empty((stages, width + 1, width + 1))
        slopes = np.empty_like(points)
        for i, terms in enumerate(self.terms):
            point = points[i]
            point[...] = self.eye
            for j, ha_ij in terms:
                point += ha_ij * slopes[j]
            np.dot(slope, point, out=slopes[i])
        ks = slopes[:, :width].reshape(stages, -1)
        psi = self.hb.dot(points[:, :iy].reshape(stages, -1))
        out = [self.hb.dot(ks).reshape(width, width + 1) + self.eye[:width],
               psi.reshape(iy, width + 1)]
        if self.he is not None:
            out += [self.he.dot(ks).reshape(width, width + 1),
                    slopes[-1, :width]]
        if self.warm:
            out.append(mat[:iy].dot(points[-1]))
        return _certified(out, np.matmul(mat[width:], points), lo, hi)


def _certified(out, inputs, lo, hi):
    """(matrix, offsets, finite) of the piece map whose rows on (U, 1) are
    those of `out`, then the certificate of `inputs`, every stage's prox
    inputs as (stages, inputs, width + 1), with bounds lo and hi; None when
    the map is not finite.  Each stage's certificate rows are those of
    the True entries of `finite`, over the bounds lo then hi, in order;
    the guard's two rows come last."""
    width = inputs.shape[-1] - 1
    # input - lo and hi - input, less the margin, where the bound is finite
    bound = np.concatenate((-lo, hi))
    bound -= PIECE_MARGIN
    rows = np.concatenate((inputs, -inputs), axis=1)
    rows[:, :, width] += bound
    finite = np.isfinite(bound)
    rows = rows[:, finite]
    # +-sum(U), whose infinite offsets join after the finite test
    stacked = np.concatenate([*out, rows.reshape(-1, width + 1),
                              np.zeros((2, width + 1))])
    stacked[-2, :width] = 1.0
    stacked[-1, :width] = -1.0
    if not np.isfinite(stacked).all():
        return None
    off = stacked[:, width].copy()
    off[-2:] = math.inf
    return stacked[:, :width].copy(), off, finite


def _step_maps(pieces, a_mat, b_w, e_w, h, n, m, n_full):
    """The `_StepMaps` at step h of a run with n_full full steps of h (an
    adaptive run: whose horizon holds n_full steps of h = h_max), or None
    when the update has no pieces, the tableau has one stage (Euler), the
    run has fewer than `STEP_MAP_MIN_STEPS` full steps
    (`ADAPTIVE_MAP_MIN_STEPS` for an adaptive run), or fewer than
    `STEP_MAPS` maps fit in `STEP_MAP_FLOATS` floats."""
    least = STEP_MAP_MIN_STEPS if e_w is None else ADAPTIVE_MAP_MIN_STEPS
    if pieces is None or len(b_w) == 1 or n_full < least:
        return None
    maps = _StepMaps(pieces, a_mat, b_w, e_w, h, n, m)
    return maps if maps.fit >= STEP_MAPS else None
