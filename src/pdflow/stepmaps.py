"""The pieces of a piecewise-affine update, their maps and their certificate.

On a joint piece D of its proxes the proximal ADMM update of
`flow._make_update` is affine in the state, x_new | z_new | w = A_D s + a_D,
and so are its prox inputs, C_D s + c_D.  Both piecewise-affine forms of the
update give their pieces as data, `update.pieces` = (key, piece,
takes_start): key(x, z) names the joint piece that prox outputs x and z lie
on (`_joint_key`), and piece(x, z, key), given that key, gives its
E = [A_D a_D; C_D c_D] on (s, 1) with the inputs' bounds lo and hi.
`_kernel_pieces` builds them for the constant-step kernel
(`_constant_step_update`, one affine map and at most two proxes), and
`_piece_rows` for the certified general path, whose evaluations first try
the map of their start's piece and, when its certificate fails, the map
of the piece that the proxes of the inputs that map gives lie on, before
they solve.

A Runge-Kutta step of one fixed h is affine on D too.  A piece map is one
matrix on (U, 1) whose product gives the update's row (`_piece_rows`) or a
whole step (`_StepMaps`) and a certificate, built for both by `_certified`:
a row per prox input, affine in U, and finite bound of D's region,
input - lo - PIECE_MARGIN or hi - PIECE_MARGIN - input (an infinite bound
holds for every finite input), and two guard rows, +-sum(U) plus an
infinite offset added after the map's finite test, which fail for a NaN or
inf entry of U whatever the product makes of the zero coefficients that
meet it.  Where every certificate entry is positive, every input lies
inside D's region, and the product is what the update, or the stagewise
step, evaluates.  The maps of one update, or of one run, are kept under
their pieces' keys in a `proxlib._Kept` store.

`flow.integrate` takes step maps for the full steps of an RK4 run and for
the trials of an adaptive run at its h_max, where the runs are long
enough and the maps small enough to repay their builds (`_step_maps`).
"""

from __future__ import annotations

import math

import numpy as np

from .proxlib import _Kept, _kept_inverse

# How far inside its piece's region a certified prox input must lie, in
# a piece map of the update (`_piece_rows`) and at every stage of a step
# map: roundoff in the map's products is some 1e-15 of the row's size, so
# an input the map puts past this margin is inside.
PIECE_MARGIN = 1e-9
# The fewest piece maps that must fit in one `_Kept` store for the update
# to use them (maps of at most 4096 floats).  A run meets some 5 to 40
# pieces; past this size a map's build costs more than the warm
# `metric_prox` solves it replaces, and ADMM's transient, which meets a
# new piece every few iterations, runs slower with maps than without.
PIECE_MAPS = 64
# The fewest step maps that must fit in one `_Kept` store for a run to
# take them: maps of at most 16 384 floats, a limit that depends on the
# problem's size alone (lasso-small's RK4 maps have 6 848, or 7 488 on
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


def _flat(v, dim):
    """A piece's scalar or (dim,) entry as a (dim,) float array."""
    v = np.asarray(v, dtype=float)
    return v if v.shape == (dim,) else np.full(dim, v)


def _piece(fn, step, x, dim):
    """(D, e, lo, hi) of the piece of prox_{step fn} that output x lies
    on, each a (dim,) array (`_flat`): prox(u) = D u + e for lo < u < hi."""
    d, e = fn._piece(step, x)
    lo, hi = fn._region(step, x)
    return _flat(d, dim), _flat(e, dim), _flat(lo, dim), _flat(hi, dim)


def _piece_key(fn, step):
    """x -> bytes naming the piece of prox_{step fn} that x lies on: the
    bytes of its (D, e), or one constant for an affine prox.  The bytes fix
    the piece's (D, e) and region, so a map built from any x of one key is
    the same map."""
    if fn.affine is not None:
        return lambda x: b""
    piece = fn._piece

    def key(x):
        d, e = piece(step, x)
        return np.asarray(d, dtype=float).tobytes() + \
            np.asarray(e, dtype=float).tobytes()
    return key


def _joint_key(f_key, g_key):
    """(x, z) -> bytes naming the joint piece that prox outputs x and z lie
    on, from the keys of the two blocks' pieces (`_piece_key`)."""
    def key_of(x, z):
        return f_key(x) + g_key(z)
    return key_of


def _constant_step_update(hmat, bmat, q, n, m, c, tau0, z_step, f, g):
    """The constant-step kernel of `flow._make_update`: one map
    s -> r = M s + m0 on n + 2m rows, from the dense H and B and the
    constant q of H's x rows, then at most two proxes and one product
    G x_new, all in the row `out`: r is written into it, each non-affine
    prox reads its block of it and writes the result back, and G x_new and
    -c z_new are added to the rows below.  The step tau0 folds into the x
    rows Hx = [K, -c A*, A*]: the prox input x - tau0 (Hx s + q) is
    Fx s + fx, with Fx = [I - tau0 K, (tau0 c) A*, -tau0 A*] (its z block
    taken from H's A* block) and fx = -tau0 q.  With neither prox affine,
    M = [Fx; Hz; 0], m0 = [fx; 0; 0] and G = B.  The affine prox (a, b) of f
    or g (f_aff, g_aff) folds into them:

    * g affine: z_new = a (r_z + Bz x_new) + b and w = Bw x_new - c z_new,
      so M = [Fx; a Hz; -c a Hz], m0 = [fx; b; -c b] and
      G = [a Bz; Bw - c a Bz]
    * f affine: x_new = a (Fx s + fx) + b = Mx s + x0 is r's x rows, with
      M = [Mx; Hz + Bz Mx; Bw Mx] and m0 = [x0; Bz x0; Bw x0]
    * both: the f fold on top of the g fold (its G in place of B)

    Both proxes are exact single calls, so the update ignores a start and
    returns None.
    """
    iy = n + m
    f_prox, g_prox = f._prox, g._prox
    f_aff = None if f.affine is None else f.affine(tau0)
    g_aff = None if g.affine is None else g.affine(z_step)
    M = np.zeros((n + 2 * m, hmat.shape[1]))
    m0 = np.zeros(n + 2 * m)
    M[:n] = -tau0 * hmat[:n]
    M[:n, :n] += np.eye(n)
    M[:n, n:iy] = (tau0 * c) * hmat[:n, iy:]
    M[n:iy] = hmat[n:]
    if q is not None:
        m0[:n] = -tau0 * q
    G = bmat
    if g_aff is not None:
        a, b = g_aff
        M[iy:] = (-c * a) * hmat[n:]
        M[n:iy] *= a
        if b is not None:
            m0[n:iy], m0[iy:] = b, (-c) * b
        G = bmat.copy()
        G[m:] -= (c * a) * bmat[:m]
        G[:m] *= a
    if f_aff is not None:
        a, b = f_aff
        M[:n] *= a
        m0[:n] *= a
        if b is not None:
            m0[:n] += b
        M[n:] += G @ M[:n]
        m0[n:] += G @ m0[:n]
    m_dot, g_dot = M.dot, G.dot
    pieces = None
    if f._region is not None and g._region is not None:
        pieces = _kernel_pieces(M, m0, G, n, m, c, tau0, z_step, f, g)
    if not m0.any():
        m0 = None

    def update(t, s, out, start=None):
        m_dot(s, out=out)
        if m0 is not None:
            out += m0
        if f_aff is None:
            x_new, zw = out[:n], out[n:]
            x_new[...] = f_prox(tau0, x_new)
            zw += g_dot(x_new)
        if g_aff is None:
            z_new, w = out[n:iy], out[iy:]
            z_new[...] = g_prox(z_step, z_new)
            w -= c * z_new
        return None

    update.pieces = pieces
    return update


def _kernel_pieces(M, m0, G, n, m, c, tau0, z_step, f, g):
    """The joint pieces of the constant-step kernel
    (`_constant_step_update`) as (key, piece, False), for f and g whose
    proxes are affine (one piece, key b"") or name their pieces and
    regions; piece(x, z, key) is None when D's region is empty or its map
    not finite.  E's rows past the update's are the inputs of the
    non-affine proxes, r_x = M_x s + m0_x and zw_z.  On D,
    x_new = D_x r_x + e_x, zw = r[n:] + G x_new and z_new = D_z zw_z + e_z,
    so both rows follow from M, m0 and G by products; an affine prox is
    already folded into them."""
    width = M.shape[1]
    f_aff, g_aff = f.affine is not None, g.affine is not None
    key_of = _joint_key(_piece_key(f, tau0), _piece_key(g, z_step))

    def piece(x, z, key):
        mh = np.concatenate((M, m0[:, None]), axis=1)
        inputs, lo, hi = [], [np.empty(0)], [np.empty(0)]
        xs, zw = mh[:n], mh[n:]
        if not f_aff:
            dx, ex, lo_x, hi_x = _piece(f, tau0, x, n)
            xs = dx[:, None] * xs
            xs[:, width] += ex
            zw = zw + G.dot(xs)
            inputs.append(mh[:n])
            lo.append(lo_x)
            hi.append(hi_x)
        zs, ws = zw[:m], zw[m:]
        if not g_aff:
            dz, ez, lo_z, hi_z = _piece(g, z_step, z, m)
            zs = dz[:, None] * zs
            zs[:, width] += ez
            ws = ws - c * zs
            inputs.append(zw[:m])
            lo.append(lo_z)
            hi.append(hi_z)
        mat = np.concatenate([xs, zs, ws] + inputs)
        lo, hi = np.concatenate(lo), np.concatenate(hi)
        if not ((lo < hi).all() and np.isfinite(mat).all()):
            return None
        return mat, lo, hi

    return key_of, piece, False


def _piece_rows(hmat, bmat, q, q1, f, g, c, z_step):
    """The certified piece maps of the general path of `flow._make_update`,
    for a constant M1 with a dense Q1 = c A* A + M1 that has a positive
    floor, a single-prox z block (step z_step), a dense H and B, h zero or
    quadratic (its q), and f and g that name their pieces and regions
    (`ProxFunction`): (rows, pieces), or None when fewer than `PIECE_MAPS`
    maps fit in a `_Kept` store, and the update then always solves.

    rows(s, x0, z0, key) tries the joint piece D = (D_x, D_z) that x0
    lies on for `metric_prox`'s step 1 / ||Q1|| and z0 for z_step, the
    pieces `metric_prox` and the z prox would start from; key names D
    when a certified evaluation has just returned it with (x0, z0), and
    is None otherwise, when rows computes it (`_piece_key`, one call per
    block).  On D the x
    block's solution is the minimizer on D_x's piece,
    x_new = K (e_x - step D_x (H_x s + q)) with
    K = (I - D_x + step D_x Q1)^{-1} (`_kept_inverse`), so the whole
    update, x_new | z_new | w = A_D s + a_D, is affine in s, and so are
    both prox inputs, u_x = x_new - step (Q1 x_new + H_x s + q)
    and r_z = H_z s + B_z x_new, as C_D s + c_D.  One product of the map
    (`_certified`) gives the row and the certificate that every input
    lies inside its piece's region and that s is finite.  When it holds,
    prox(u_x) = x_new, so x_new is the exact minimizer, and z_new the
    exact prox; rows returns (r, key, False), with r the product, whose
    first n + 2m entries are the row, and key D's.  D's map puts a
    dead-zone entry of x_new at exactly e's value (the unit row of K) and
    keeps the sign of every other entry by the margin, so key is also the
    key of x_new and z_new.

    When D's certificate fails, rows guesses the next piece once, as an
    active-set move of semismooth Newton: D's input rows of E give the
    inputs u_x and r_z that D makes of s, and D' is the piece that their
    proxes prox_{step f}(u_x) and prox_{z_step g}(r_z) lie on.  If D' is
    not D, its map (kept, or built as on a first visit) is applied, and
    when its certificate holds rows returns (r, key', False) for D' as
    above: the exact row, with no solve.  Otherwise rows returns
    (None, key, retry), with D's key: retry is False when a certificate
    row of D's x-block inputs failed, so that the fallback's
    `metric_prox` solve does not try D_x again (`piece_start`), and True
    when only z-block or guard rows failed, where D_x holds, or when x0
    or z0 lies on no piece.  A non-finite s fails every certificate by
    its guard rows, so it falls back.  Regions are disjoint, so at most
    one piece certifies a state, and a certified row depends on s alone.

    Each map is built on the first visit to its piece and kept with that
    piece's (E, lo, hi) and the bounds that have certificate rows, in a
    store sized for the largest map.  A given key is that of the map just
    used, so it is looked up without moving it.  pieces is (key, piece,
    True): piece(x, z, key) reads the kept (E, lo, hi) of key's piece,
    that of the outputs x and z, and True says that the update takes a
    start.
    """
    n, width = bmat.shape[1], hmat.shape[1]
    m = (width - n) // 2
    # a map has at most a row, n + m prox inputs, their negations and the
    # guard's 2 rows
    maps = _Kept((width + 2 * (n + m) + 2) * (width + 1))
    if maps.capacity < PIECE_MAPS:
        return None
    step = 1.0 / q1.norm()
    # the affine maps of s as matrices on (s, 1): H_x s + q, H_z s
    hx1 = np.zeros((n, width + 1))
    hx1[:, :width] = hmat[:n]
    if q is not None:
        hx1[:, width] = q
    hx1 *= step
    hz1 = np.zeros((m, width + 1))
    hz1[:, :width] = hmat[n:]
    fixed = np.eye(n) - step * q1.base.mat
    f_key, g_key = _piece_key(f, step), _piece_key(g, z_step)
    key_of = _joint_key(f_key, g_key)
    f_prox, g_prox = f._prox, g._prox
    # an affine g has one piece, that of every z
    g_piece = None if g.affine is None else _piece(g, z_step, None, m)
    # which of the bounds lo | hi, each x then z, are the x block's
    x_bounds = np.zeros(2 * (n + m), dtype=bool)
    x_bounds[:n] = x_bounds[n + m:2 * n + m] = True

    def build(x0, z0):
        dx, ex, lo_x, hi_x = _piece(f, step, x0, n)
        dz, ez, lo_z, hi_z = g_piece or _piece(g, z_step, z0, m)
        lo, hi = np.concatenate((lo_x, lo_z)), np.concatenate((hi_x, hi_z))
        if not ((lo < hi).all() and np.isfinite(dx).all()):
            return None
        inv = _kept_inverse(q1, step, dx)
        if inv is None:
            return None
        x1 = inv.dot(dx[:, None] * hx1)
        x1 *= -1.0
        x1[:, width] += inv.dot(ex)
        bx1 = bmat.dot(x1)
        rz1 = hz1 + bx1[:m]
        z1 = dz[:, None] * rz1
        z1[:, width] += ez
        return np.concatenate((x1, z1, bx1[m:] - c * z1, fixed.dot(x1) - hx1,
                               rz1)), lo, hi

    def map_of(key, x0, z0):
        # the kept map of key's piece, made the most recently used, or one
        # built from its outputs x0 and z0 and kept; None when it has none
        got = maps.pop(key, None)
        if got is not None:
            maps[key] = got
            return got
        got = build(x0, z0)
        mapped = got and _certified((got[0][:width],), got[0][None, width:],
                                    *got[1:])
        return None if mapped is None else maps.keep(key, mapped + (got,))

    def rows(s, x0, z0, key):
        got = None if key is None else maps.get(key)
        if got is None:
            if key is None:
                # key_of's bytes, without its call
                key = f_key(x0) + g_key(z0)
            got = map_of(key, x0, z0)
            if got is None:
                return None, key, True
        r = got[0].dot(s)
        r += got[1]
        cert = r[width:]
        if cert[cert.argmin()] > 0.0:
            return r, key, False
        # the guess: the piece that the proxes of D's inputs lie on
        inputs = got[3][0][width:]
        u = inputs[:, :width].dot(s)
        u += inputs[:, width]
        x1, z1 = f_prox(step, u[:n]), g_prox(z_step, u[n:])
        guess = f_key(x1) + g_key(z1)
        other = None if guess == key else map_of(guess, x1, z1)
        if other is not None:
            r = other[0].dot(s)
            r += other[1]
            held = r[width:]
            if held[held.argmin()] > 0.0:
                return r, guess, False
        # D's x-block certificate rows, the guard's excepted
        return None, key, (cert[:-2][x_bounds[got[2]]] > 0.0).all()

    def piece(x0, z0, key):
        # the kept piece, which the evaluations on it have used, or else
        # one built for this call alone
        got = maps.get(key)
        return build(x0, z0) if got is None else got[3]

    return rows, (key_of, piece, True)


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
    transient that meets a new piece every step builds no map, and at most
    one key is taken per stagewise step, none when the last evaluation
    returned its piece's key.  The maps are kept in a `_Kept` store
    (`kept`) sized for the largest map; the map in use is `current`,
    kept or not.
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
        # the most rows a map has: those before the certificate, both
        # bounds of all n + m prox inputs at every stage, and the guard
        self.kept = _Kept((rows + 2 * self.stages * iy + 2) * width)
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

    def settle(self, key=None):
        """After a stagewise step, pick the map the next step tries: that
        of the piece its last evaluation lies on, if the step before it
        ended on that piece too.  key names that piece when the evaluation
        returned it, and is computed otherwise."""
        if key is None:
            key = self.key_of(self.last[:self.n], self.last[self.n:])
        held, self.key = key == self.key, key
        self.current = None
        if not held:
            return
        if key in self.kept:
            self.current = self.kept[key] = self.kept.pop(key)
        else:
            self.current = self.kept.keep(key, self._build(self.piece_at(
                self.last[:self.n], self.last[self.n:], key)))

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


def _step_maps(pieces, a_mat, b_w, e_w, h, n, m, n_full):
    """The `_StepMaps` at step h of a run with n_full full steps of h (an
    adaptive run: whose horizon holds n_full steps of h = h_max), or None
    when the update has no pieces, the tableau has one stage (Euler), the
    run has fewer than `STEP_MAP_MIN_STEPS` full steps
    (`ADAPTIVE_MAP_MIN_STEPS` for an adaptive run), or fewer than
    `STEP_MAPS` maps fit in its `_Kept` store."""
    least = STEP_MAP_MIN_STEPS if e_w is None else ADAPTIVE_MAP_MIN_STEPS
    if pieces is None or len(b_w) == 1 or n_full < least:
        return None
    maps = _StepMaps(pieces, a_mat, b_w, e_w, h, n, m)
    return maps if maps.kept.capacity >= STEP_MAPS else None
