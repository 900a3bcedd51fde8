"""Barrier compositions for polytope environments.

Two layers live here: the exact nonsmooth margins (max over regions of the
min over faces and agent vertices) and their differentiable log-sum-exp
counterpart with analytic gradient and time partial.  Both come from one
kernel, `_evaluate`, which is stabilized so that exponents of magnitude up
to ~1e4 cannot overflow.  It takes one centre or a batch, at one time or at
one time per centre.  One centre takes its matrix-vector products with
`ndarray.dot` and a batch with one `np.matvec`/`np.vecmat` per centre;
both reach the same BLAS product and round alike.  A batch reduces its
regions down face-major arrays, one vectorised call per face position, in
the order `reduceat` takes along one centre's row, so a row's bits depend
on neither the batch nor the BLAS thread count.  In a world whose regions
have one face each, both take no region reduction and no gather of region
values to faces: `reduceat` over one-face segments returns each entry as it
is, so the skipped calls change no bit.  One centre's row, of one to a few
dozen entries, costs numpy's dispatch more than arithmetic, so it scales by
kappa as a 0-d array and writes nothing in place (see `_evaluate_row`).  In
a moving world the kernel's centre-independent terms at t are the agent
shape's fixed coefficients times the environment's time basis b(t), one
matrix-vector product per new time; a batch's per-centre times cost one per
distinct time.  A scalar time takes b(t) in Python floats and its product
with `ndarray.dot`, a batch of times both in numpy, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .geometry import (AgentShape, PolytopeEnvironment, _eq_by,
                       _require_positive, _unstack)

__all__ = [
    "CbfParams",
    "BarrierEvaluation",
    "margin_agent",
    "margin_field",
    "smooth_barrier",
    "barrier_field",
    "gradient_bounds",
    "curvature_bounds",
    "provable_buffer",
]

# Centres per kernel call in `_fields`, bounding its peak memory; a moving
# world's batch with one time per centre takes fewer (see `_fields`).
_CHUNK = 4096


@dataclass(frozen=True)
class CbfParams:
    """Smoothing sharpness kappa, buffer b (subtracted as b/kappa), and the
    linear class-K gain gamma in alpha(h) = gamma * h.

    Besides its fields it keeps `_kappa`, kappa as a read-only 0-d float64
    array, built here and so refreshed by `dataclasses.replace`; it is no
    field, so `==`, `repr` and the scenario file never see it.  The
    one-row kernel scales its small arrays by it: numpy converts a Python
    float operand on every call, and a 0-d array gives the same product
    for less dispatch."""

    kappa: float
    buffer: float = 0.0
    alpha_gain: float = 1.0

    def __post_init__(self):
        _require_positive("kappa", self.kappa)
        if not 0 <= self.buffer < np.inf:
            raise ValueError(
                f"buffer must be nonnegative and finite, got {self.buffer}")
        _require_positive("alpha_gain", self.alpha_gain)
        kappa = np.array(self.kappa, dtype=float)
        kappa.flags.writeable = False
        object.__setattr__(self, "_kappa", kappa)


@dataclass
class BarrierEvaluation:
    """Smooth barrier value with its spatial gradient, shape (p,), time
    partial, and the exact nonsmooth margin kept alongside for diagnostics,
    at one state and time."""

    value: float
    gradient: np.ndarray
    time_partial: float
    nonsmooth_value: float

    __eq__ = _eq_by()


def provable_buffer(env: PolytopeEnvironment) -> float:
    """Buffer log(N_p) that makes the smooth barrier a guaranteed
    under-approximation of the nonsmooth margin."""
    return float(np.log(env.num_regions))


def gradient_bounds(env: PolytopeEnvironment,
                    kappa: float) -> tuple[float, float]:
    """Bounds (nu, L) on the smooth barrier's gradient in a static world:
    ||grad h|| <= nu = max_i ||n_i|| everywhere, and grad h is
    L = kappa * nu^2 Lipschitz, for every agent shape and buffer.

    Proof.  Fold each face's agent support and level into a constant o_i,
    so that h = S_j g_j - b/kappa with the soft max S over regions and
    g_j = -(1/kappa) ln sum_{i in I_j} exp(-kappa (n_i . p + o_i)).  Then
    grad g_j = sum_i w_ij n_i and grad h = sum_j v_j grad g_j with convex
    softmin weights w and softmax weights v, so ||grad h|| <= nu, and

        Hess g_j = -kappa sum_i w_ij (n_i - grad g_j)(n_i - grad g_j)^T,
        Hess h   = sum_j v_j Hess g_j
                   + kappa sum_j v_j (grad g_j - grad h)(grad g_j - grad h)^T.

    Hess h = P - N with N = -sum_j v_j Hess g_j and the last term P both
    positive semidefinite.  A convex combination's spread is at most its
    second moment, so ||N|| <= kappa sum_j v_j sum_i w_ij ||n_i||^2 <=
    kappa nu^2 and ||P|| <= kappa sum_j v_j ||grad g_j||^2 <= kappa nu^2.
    For a unit u, u^T Hess h u lies in [-||N||, ||P||], so ||Hess h|| <= L.
    Hence |h(q) - h(p) - grad h(p) . (q - p)| <= (L/2) ||q - p||^2 and
    ||grad h(q) - grad h(p)|| <= L ||q - p||.  In a moving world both bounds
    hold at each fixed t, since rotations keep ||n_i||; `curvature_bounds`
    adds how h and grad h change with t.
    """
    return math.sqrt(env._max_normal_sq), kappa * env._max_normal_sq


def curvature_bounds(env: PolytopeEnvironment, shape: AgentShape,
                     kappa: float, evaluation: BarrierEvaluation, x, t: float):
    """Lower bounds on the smooth barrier and its rate near (x, t), from its
    evaluation there and a curvature bound in z = (p, t) that comes from the
    motions' constant rates.

    `evaluation` is `smooth_barrier` at centre x (a sequence of floats) and
    time t: h0, g0 and hdot0 are its value, gradient and time partial.
    Returns lower(delta, tau, k) -> (h_low, rate_low) over float sequences
    delta and k and a float tau such that, at p = x + delta and with
    hdot = dh/dt,

        h(p, t + tau)                          >= h_low  = h0 + g0 . delta
                                                  + hdot0 tau - quad / 2,
        grad h(p, t + tau) . k + hdot(p, t + tau) >= rate_low = g0 . k
                                                  + hdot0 - cross.

    With dist = ||delta|| and speed = ||k||, in a static world quad =
    L dist^2 and cross = L dist speed with the L of `gradient_bounds`, and
    h_low and rate_low are its bounds bit for bit.

    Proof.  h is a soft max over regions j of g_j, the soft min over the
    pairs a = (face i of region j, agent vertex k) of psi_a = n_i(t) .
    (p + dp_k) - c_i(t).  A face moved by a motion with pivot c, drift v
    and angular rate w has c_i(t) = n_i(t) . (c + t v) + const, so psi_a =
    n_i(t) . q_a + const with q_a = p + dp_k - c - t v.  Its normal turns
    at dn/dt = w K n_i (K the quarter turn in 2D, the unit axis's cross
    product in 3D), so ||dn/dt|| <= w nu and ||d2n/dt2|| <= w^2 nu with
    nu = max_i ||n_i||; a static face has w = 0 and v = 0.  Hence

        |d psi_a/dt|            <= T  = w nu ||q_a|| + nu ||v||,
        ||grad_p d psi_a/dt||   <= W  = w nu,
        |d2 psi_a/dt2|          <= C2 = w^2 nu ||q_a|| + 2 w nu ||v||,

    and grad_p psi_a = n_i, so psi_a has no Hessian in p.  On the segment
    from (x, t) to (p, t + tau), which may span many steps, ||q_a|| <=
    ||x - c - t v|| + dist + tau ||v|| + r with r the agent's circumradius;
    T, W and C2 take that bound and the max over the motions.  (A tau < 0
    takes |tau| everywhere below but in hdot0 tau.)  The composition of
    `gradient_bounds` carries over to z: with the convex weights pi_a =
    v_j w_a of the pairs,

        Hess_z h = sum_a pi_a Hess_z psi_a + kappa (Cov_v - E_v Cov_w),

    the covariances taken of the pairs' gradients in z, between regions
    (weights v) and within them (weights w).  For the directions e =
    (delta, tau) and f = (k, 1), X_a = e . grad_z psi_a and Y_a = f .
    grad_z psi_a obey |X_a| <= phi_e = nu dist + T tau and |Y_a| <= phi_f =
    nu speed + T.  By Cauchy-Schwarz and the law of total variance,
    |e^T (Cov_v - E_v Cov_w) f| <= sqrt(Var X Var Y) <= phi_e phi_f, and
    e^T (Cov_v - E_v Cov_w) e >= -E_v Var_w X >= -phi_e^2.  The pairs' own
    Hessians give |e^T Hess psi_a e| <= 2 W dist tau + tau^2 C2 and
    |e^T Hess psi_a f| <= W (dist + tau speed) + tau C2.  So along the
    segment e^T Hess_z h e >= -quad and |e^T Hess_z h f| <= cross with

        quad  = kappa phi_e^2 + 2 W dist tau + tau^2 C2,
        cross = kappa phi_e phi_f + W (dist + tau speed) + tau C2,

    and Taylor's theorem with integral remainder along the segment gives
    both bounds.  With w = v = 0, T = W = C2 = 0 and quad and cross are
    the static L dist^2 and L dist speed.
    """
    nu, lipschitz = gradient_bounds(env, kappa)
    h0, hdot0 = evaluation.value, evaluation.time_partial
    g0 = evaluation.gradient.tolist()
    # Per motion: w, W = w nu, nu ||v||, ||v|| and ||x - c - t v|| + r.
    reach = []
    for rate, pivot, drift in env._motion_rates:
        drift_speed = math.hypot(*drift)
        offset = math.hypot(*[a - c - t * d
                              for a, c, d in zip(x, pivot, drift)])
        reach.append((rate, rate * nu, nu * drift_speed, drift_speed,
                      offset + shape.circumradius))

    def lower(delta, tau: float, k) -> tuple[float, float]:
        dist, speed, span = math.hypot(*delta), math.hypot(*k), abs(tau)
        quad, cross = lipschitz * dist * dist, lipschitz * dist * speed
        if reach:  # the time terms, all zero in a static world
            rate_bound = twist = accel = 0.0
            for rate, turn, slide, drift_speed, base in reach:
                q = base + dist + span * drift_speed
                rate_bound = max(rate_bound, turn * q + slide)
                twist = max(twist, turn)
                accel = max(accel, rate * (turn * q + 2.0 * slide))
            quad += (kappa * rate_bound * span
                     * (2.0 * nu * dist + rate_bound * span)
                     + 2.0 * twist * dist * span + span * span * accel)
            cross += (kappa * rate_bound
                      * (nu * dist + span * (nu * speed + rate_bound))
                      + twist * (dist + span * speed) + span * accel)
        return (h0 + sum(map(mul, g0, delta)) + hdot0 * tau - 0.5 * quad,
                sum(map(mul, g0, k)) + hdot0 - cross)

    return lower


def _row_terms(env: PolytopeEnvironment, shape: AgentShape, frame):
    """Per region row (face i of region j): normals, levels, the vertex dots
    n_i . dp_k, and the rates of normals and levels, from a frame of env.

    The map is linear, and any leading axes of the frame carry through, so
    it takes a frame at t as well as the frame's coefficients over the time
    basis.  Without frame rates the two rate terms are None.
    """
    normals, levels, normal_rates, level_rates = frame
    rows = env._rows
    normals, levels = normals.take(rows, axis=-2), levels.take(rows, axis=-1)
    vertex_dots = normals @ shape.offsets.T
    if normal_rates is None:
        return normals, levels, vertex_dots, None, None
    return (normals, levels, vertex_dots, normal_rates.take(rows, axis=-2),
            level_rates.take(rows, axis=-1))


def _shape_law(env: PolytopeEnvironment, shape: AgentShape):
    """The row terms of a moving world as coefficients (X, B) of its time
    basis: `_row_terms` applied to the frame's own coefficients.  With
    them come each term's trailing shape, for a batch of times, and each
    term's cut of the X rows, for one time: a slice and the shape to give
    it, None for a term of one axis, so that one time's terms come apart
    without any shape arithmetic.

    The law is kept in a one-entry cache on env, `_law_memo`, keyed by the
    shape's identity and replaced whole by a single assignment, like the
    face-term memo."""
    entry = env._law_memo
    if entry is None or entry[0] is not shape:
        law = env._law.T                                     # (B, X_f)
        terms = _row_terms(env, shape, _unstack(law, env._frame_shapes))
        columns = [term.reshape(len(law), -1) for term in terms]
        shapes = tuple(term.shape[1:] for term in terms)
        stops = list(accumulate(c.shape[1] for c in columns))
        cuts = tuple(zip(map(slice, [0, *stops], stops),
                         [term_shape if len(term_shape) > 1 else None
                          for term_shape in shapes]))
        stacked = np.concatenate(columns, axis=1)
        entry = (shape, (np.ascontiguousarray(stacked.T), shapes, cuts))
        env._law_memo = entry
    return entry[1]


def _face_terms(env: PolytopeEnvironment, shape: AgentShape, t,
                kappa: float | None):
    """The centre-independent half of `_evaluate`, memoised on env.

    The agent translates without rotating, so vertex k shifts face i by the
    constant n_i . dp_k, and the agent's vertex axis reduces to one support
    per face: the hard support min_k n_i . dp_k for the exact margin psi and
    the soft support -(1/kappa) ln sum_k exp(-kappa n_i . dp_k) for h, since
    sum_k exp(-kappa psi_ik) = exp(-kappa (n_i . p - c_i)) sum_k
    exp(-kappa n_i . dp_k).  None of this depends on the centre, so it is
    kept in a one-entry memo on env keyed by (shape identity, kappa).  In a
    static world the entry holds the terms; in a moving one it maps each of
    its times to the terms there.  A scalar t that misses replaces the entry
    with one of that time alone, and `_hold_times` replaces it with a block
    of times that a rollout will ask for.  The entry is read once and
    replaced by a single assignment, so concurrent callers each see a whole
    entry.  An ndarray t in a moving world gives one set of terms per time,
    with t.shape prepended to every shape below; it neither reads the
    memo's terms nor replaces the entry.

    In a moving world each per-row normal, level and vertex dot, and the
    rates of normals and levels, is a fixed combination of the time basis
    b(t) (see `PolytopeEnvironment._motion_law`).  A new scalar t, as each
    tick of a controller in a moving world brings, costs b(t) in Python
    floats, one `ndarray.dot` of the shape's coefficients with it, cut
    apart at the slices `_shape_law` keeps, and the support log-sum-exp; a
    batch of times costs one batched call of each, its product one
    `np.matvec`.  A 1-D t costs one evaluation per distinct time, times
    being distinct when their bits differ, whose terms are then gathered
    to the times' rows: times may repeat, as an audit's probes of one
    state do, at no extra cost.  The coefficients come from `_shape_law`,
    which builds them once per shape.  The float basis has numpy's bits,
    and `ndarray.dot` reaches the same BLAS product as `np.matvec` and
    rounds alike (both checked by `bits` tests), so the terms at t[i] of a
    batch equal the scalar call's at t[i] bit for bit, and an entry's
    terms do not depend on how they were built.

    The rank of the vertex dots picks how the vertex axis reduces.  One
    time, shape (R, N_v), takes one `reduce` along it, as every static
    world and scalar miss does.  A batch of times, shape (T, R, N_v), folds
    its N_v column views of shape (T, R) with `_pairwise`, the order of
    numpy's `reduce`: numpy runs that reduce slowly along a short trailing
    axis, and the fold costs a few vectorised calls.  A minimum is exact
    and the sums add in the same order, so the bits are the same.  One
    time keeps its `reduce`: on R rows the fold's fixed calls cost more
    than the slow reduce, and a control tick in the door is a scalar miss
    (folding one time too raised the door's median tick by about 40 %).

    Returns
    -------
    (normals, hard_offsets, soft_offsets, normal_rates, rate_offsets)
        One entry per region row (face i of region j): normals (R, p),
        hard - c_i and soft - c_i (R,), the normal rates (R, p), and the
        soft support's rate less the level rate (R,), i.e. the
        softmin-weighted mean of ndot_i . dp_k minus cdot_i.  Without kappa
        the soft and rate-offset terms are None; in a static world both
        rate terms are.  One time's terms are C-contiguous, and so is each
        time's slice of a batch's terms, which `_hold_times` keeps.
    """
    static = env.is_static
    memo = static or not isinstance(t, np.ndarray)
    entry = env._memo
    if memo and entry is not None and entry[0] is shape and entry[1] == kappa:
        terms = entry[2] if static else entry[2].get(t)
        if terms is not None:
            return terms
    if shape.dimension != env.dimension:
        raise ValueError(
            f"agent dimension {shape.dimension} != environment dimension "
            f"{env.dimension}")
    inverse = None
    if static:
        row_terms = _row_terms(env, shape, env.frame(t))
    elif memo or t.ndim == 0:  # one time: a scalar, or a 0-d ndarray
        law, _, cuts = _shape_law(env, shape)
        stacked = law.dot(env._time_basis(t))
        row_terms = [stacked[cut] if term_shape is None
                     else stacked[cut].reshape(term_shape)
                     for cut, term_shape in cuts]
    else:
        if t.ndim == 1:
            # Each distinct time once, told apart by its bits, so 0.0 and
            # -0.0 and NaNs of other payloads keep terms of their own.
            keys, inverse = np.unique(
                np.asarray(t, dtype=float).view(np.int64), return_inverse=True)
            t = keys.view(float)
        law, shapes, _ = _shape_law(env, shape)
        row_terms = _unstack(np.matvec(law, env._time_basis(t)), shapes)
    normals, levels, vertex_dots, normal_rates, level_rates = row_terms
    # A batch of times folds its N_v (T, R) vertex columns (see above).
    batch = vertex_dots.ndim > 2
    if batch:
        hard = _pairwise(np.minimum, list(np.moveaxis(vertex_dots, -1, 0)))
    else:
        hard = np.minimum.reduce(vertex_dots, axis=-1)
    soft_offsets = rate_offsets = None
    if kappa is not None:
        # Shifting by the hard support keeps every sum in [1, N_v].
        vertex_exp = np.subtract(hard[..., None], vertex_dots)
        vertex_exp *= kappa
        np.exp(vertex_exp, out=vertex_exp)
        if batch:
            vertex_sums = _pairwise(np.add,
                                    list(np.moveaxis(vertex_exp, -1, 0)))
        else:
            vertex_sums = np.add.reduce(vertex_exp, axis=-1)  # >= 1 each
        soft_offsets = hard - np.log(vertex_sums) / kappa - levels
        if normal_rates is not None:
            # The support's rate is ndot_i . (softmin-weighted mean dp_k).
            rate_offsets = (np.vecdot(normal_rates, vertex_exp @ shape.offsets)
                            / vertex_sums - level_rates)
    hard_offsets = hard - levels
    terms = (normals, hard_offsets, soft_offsets, normal_rates, rate_offsets)
    if inverse is not None:  # each row takes the terms of its time
        terms = tuple(None if term is None else term.take(inverse, axis=0)
                      for term in terms)
    if memo:
        env._memo = (shape, kappa, terms if static else {t: terms})
    return terms


def _hold_times(env: PolytopeEnvironment, shape: AgentShape, times,
                kappa: float | None) -> None:
    """Replace env's memo entry with the face terms at each of `times`, a
    1-D ndarray, from one batched `_face_terms` call; a no-op in a static
    world, whose entry serves every t.

    A caller that knows the times of its next scalar calls, such as the
    RK4 stages of a block of steps, hands them here, and each of those
    calls then hits the memo with terms equal to its own miss's.  Times
    may repeat: `_face_terms` evaluates each distinct time once.
    """
    if env.is_static:
        return
    # One view per time into each batched term, C-contiguous like a miss's.
    columns = [repeat(None) if term is None else list(term)
               for term in _face_terms(env, shape, times, kappa)]
    env._memo = (shape, kappa, dict(zip(times.tolist(), zip(*columns))))


def _row_max(values, screen: bool = True):
    """Max of one row of values, shape (N,), keeping the last of tied
    entries (+0.0 and -0.0 tie) and NaN if any entry is NaN.

    Cheaper as a list, the row takes Python's max of the reversed list,
    which skips a NaN after its first entry, so the row's float sum screens
    for NaN unless screen is False.
    """
    row = values.tolist()
    top = max(reversed(row))
    if screen:
        total = sum(row)
        if total != total:  # a NaN entry, or both infinities
            return next((v for v in row if v != v), top)
    return top


def _column_max(values):
    """Max down axis 0 of (N, M) values, shape (M,), with `_row_max`'s
    NaN and, for M > 1, its ties.

    Down a C-contiguous array numpy vectorises across the M columns, and
    its column maximum keeps the last tied entry.  Numpy reduces a single
    column, shape (N, 1), as a 1-D array, which may keep the other zero of
    a +0.0/-0.0 tie.  The kernel's maxima never meet one: `np.matvec` sums
    from +0.0, so no face value, region minimum or soft minimum is -0.0,
    and a batch of one takes this code like any other.
    """
    return np.maximum.reduce(values, axis=0)


def _pairwise(ufunc, rows):
    """ufunc folded over rows, a list of arrays of one shape, in numpy's
    pairwise summation order; the rows themselves are left untouched.

    Below 8 rows the fold runs in sequence.  Up to 128 it keeps eight
    partial results, the j-th taking rows j, j + 8, ..., combines them as
    ((0 1)(2 3))((4 5)(6 7)) and folds in the rows left over past the last
    multiple of 8.  Above 128 it splits at half the rows, rounded down to a
    multiple of 8, and combines the halves' folds.  Numpy's own loop starts
    its sequential fold from -0.0, and -0.0 + x is x, bits and all.
    """
    n = len(rows)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return ufunc(_pairwise(ufunc, rows[:half]),
                     _pairwise(ufunc, rows[half:]))
    if n == 1:
        return rows[0]
    if n < 8:
        total = ufunc(rows[0], rows[1])
        for row in rows[2:]:
            ufunc(total, row, out=total)
        return total
    body = n - n % 8
    lanes = rows[:8]
    if body > 8:
        lanes = [ufunc(a, b) for a, b in zip(rows[:8], rows[8:16])]
        for i in range(16, body, 8):
            for lane, row in zip(lanes, rows[i:i + 8]):
                ufunc(lane, row, out=lane)
    total = ufunc(ufunc(ufunc(lanes[0], lanes[1]), ufunc(lanes[2], lanes[3])),
                  ufunc(ufunc(lanes[4], lanes[5]), ufunc(lanes[6], lanes[7])))
    for row in rows[body:]:
        ufunc(total, row, out=total)
    return total


def _reduce_regions(ufunc, faces, env: PolytopeEnvironment):
    """ufunc (np.minimum or np.add) over each region's faces of env, from
    face-major values, shape (R, M) with the regions' faces in region
    order, giving (N_p, M): `ufunc.reduceat(faces.T, env._segments,
    axis=-1).T` bit for bit.

    `reduceat` takes a region's first face and folds the rest into it in
    numpy's pairwise order (`_pairwise`).  Here each group of `env._groups`
    (`geometry._region_groups`) does the same with one vectorised ufunc
    call per face position and operation, across its regions and all M
    columns.  In a world of single-face regions (`env._single_face`)
    `reduceat` returns each entry as it is, and so does this: it returns
    `faces` itself, with no reduction and no copy.  The one bit a minimum
    may not share is the sign of a zero that +0.0 and -0.0 entries tie at,
    which `reduceat` takes from the CPU's SIMD lanes; the kernel's face
    values are never -0.0.
    """
    if env._single_face:
        return faces
    out = np.empty((env.num_regions, faces.shape[1]))
    for regions, rows in env._groups:
        first, rest = faces[rows[0]], [faces[r] for r in rows[1:]]
        out[regions] = ufunc(first, _pairwise(ufunc, rest)) if rest else first
    return out


def _face_major(spatial, offsets):
    """spatial, shape (M, R), plus the per-row offsets, shape (R,) or
    (M, R), laid out C-contiguous face-major, shape (R, M)."""
    return np.add(spatial.T, offsets.T.reshape(len(spatial.T), -1),
                  order="C")


def _evaluate(env: PolytopeEnvironment, shape: AgentShape, centers, t,
              params: CbfParams | None = None, derivatives: bool = False):
    """The one composition behind every barrier and margin in this module.

    The agent reduces to a point with one support per face (see
    `_face_terms`), and the rest is the point-agent composition over the
    per-face values n_i . p - c_i + support_i.  Every exponential is
    shifted by its group's exact minimum (or soft maximum), so no exponent
    exceeds ln N_v.

    The centres' rank alone picks the code: one centre, shape (p,), goes to
    `_evaluate_row`, and a batch, shape (M, p), to `_evaluate_batch`, M = 1
    included, whose row i equals the one-row call bit for bit, whatever M
    and the BLAS thread count.  A per-row time is an ndarray for any M, so
    it neither reads nor replaces the memo.

    Parameters
    ----------
    centers : array_like, shape (p,) or (M, p)
    t : float or ndarray, shape (M,)
        One time for every centre, or one per centre.
    params : CbfParams, optional
        Without it only psi is computed.
    derivatives : bool
        Also compute the gradient (shape of centers) and the time partial.

    Returns
    -------
    (h, gradient, time_partial, psi)
        Scalars for one center, arrays of leading length M for a batch;
        the quantities not asked for are None.
    """
    kappa = None if params is None else params.kappa
    terms = _face_terms(env, shape, t, kappa)
    if centers.ndim == 1:
        return _evaluate_row(env, centers, terms, params, derivatives)
    return _evaluate_batch(env, centers, terms, params, derivatives)


def _evaluate_row(env: PolytopeEnvironment, center, terms,
                  params: CbfParams | None, derivatives: bool):
    """`_evaluate` at one centre, shape (p,), from the face terms at its
    time: its terms lie along one row, its products are `ndarray.dot`,
    which costs less to call than `np.matvec`/`np.vecmat`, and it reduces
    by `reduceat` per region and by Python's max (`_row_max`).

    The row has 1 to a few dozen entries, so its cost is numpy's dispatch
    per call, and it makes as few calls as keep the batch's bits:

    - In a world of single-face regions (`env._single_face`) each region
      is one entry of the row, so `reduceat` would return its input entry
      for entry and the gather of region values to their faces would be
      the identity; the row skips both reductions and both gathers.
    - Elsewhere the gathers index with `env._row_region`, an exact gather
      that costs less than `take`.
    - The three array-by-kappa operations take `params._kappa`, a 0-d
      float64 array: a Python float operand costs a conversion on every
      call, and the product and quotient are the same IEEE operations.
      The float tail of h keeps the Python float kappa.
    - No operation writes in place with `out=`: on arrays this small the
      extra argument costs more than the array it saves.
    """
    normals, hard_offsets, soft_offsets, normal_rates, rate_offsets = terms
    single = env._single_face
    # Per region row, shape (R,); regions are segments of it.
    spatial = normals.dot(center)
    mins = spatial + hard_offsets
    if not single:
        mins = np.minimum.reduceat(mins, env._segments)
    if params is None:
        return None, None, None, _row_max(mins)
    # A NaN minimum makes h NaN, so psi is screened only then.
    psi = _row_max(mins, screen=False)
    kappa = params._kappa

    # Soft values sit at most ln(N_v)/kappa below the exact ones and the
    # argmin term is at least one, so shifting by the exact region minima
    # keeps every sum in [1, R * N_v].
    values = spatial + soft_offsets
    shifted = np.exp(((mins if single else mins[env._row_region]) - values)
                     * kappa)
    region_sums = (shifted if single
                   else np.add.reduceat(shifted, env._segments))
    soft_mins = mins - np.log(region_sums) / kappa
    # A NaN soft minimum makes outer_total NaN, and with it h and the
    # derivatives, whatever top is, so top needs no NaN screen.
    top = _row_max(soft_mins, screen=False)
    outer = np.exp((soft_mins - top) * kappa)
    outer_total = np.add.reduce(outer)                       # >= 1
    # Float arithmetic rounds like numpy's, but math.log can differ from
    # np.log in the last bit, so only the log stays in numpy.
    h = top + (float(np.log(outer_total)) - params.buffer) / params.kappa
    if h != h:  # perhaps from a NaN minimum, which psi must show
        psi = _row_max(mins)
    if not derivatives:
        return h, None, None, psi

    # Region weight times within-region softmin weight: they sum to one,
    # so the gradient is a convex combination of face normals.
    region_weights = outer / (outer_total * region_sums)
    weights = shifted * (region_weights if single
                         else region_weights[env._row_region])
    gradient = weights.dot(normals)
    if normal_rates is None:                                 # dh/dt = 0
        return h, gradient, h * 0.0, psi
    rates = normal_rates.dot(center) + rate_offsets
    time_partial = np.add.reduce(weights * rates)
    return h, gradient, time_partial, psi


def _evaluate_batch(env: PolytopeEnvironment, centers, terms,
                    params: CbfParams | None, derivatives: bool):
    """`_evaluate` over a batch of centres, shape (M, p), from the face
    terms at their time or times.

    The products are `np.matvec`/`np.vecmat`, one matrix-vector product
    per centre, which round like the one-row call's `ndarray.dot`, and
    every other operation is elementwise or a reduction that keeps a row's
    order of operations.
    The two region reductions, both maxima and the soft max's sum over
    regions run down face-major (R, M) and (N_p, M) arrays, one vectorised
    call per face or region position across all M centres:
    `_reduce_regions` folds each region's faces in `reduceat`'s order,
    `_column_max` keeps `_row_max`'s ties, and `_pairwise` folds the N_p
    soft-max terms in the order `np.add.reduce` takes along one centre's
    row, numpy's pairwise sum of all of them rather than `reduceat`'s
    first term plus the rest.  Only the gradient's weights are laid out
    (M, R), for `np.vecmat`.  So row i equals the one-row call bit for
    bit, whatever M and the BLAS thread count.  In a world of single-face
    regions, as in the one-row call, the region reductions return the
    face values themselves and the two (R, M) gathers of region values to
    faces are skipped, since each would copy its input unchanged.
    Elsewhere those gathers are `take` along axis 0, which on 2-D arrays
    costs less than indexing, unlike the one-row call's 1-D gathers.
    """
    normals, hard_offsets, soft_offsets, normal_rates, rate_offsets = terms
    single = env._single_face
    spatial = np.matvec(normals, centers)                    # (M, R)
    mins = _reduce_regions(np.minimum, _face_major(spatial, hard_offsets),
                           env)                              # (N_p, M)
    psi = _column_max(mins)
    if params is None:
        return None, None, None, psi

    kappa = params.kappa
    # Arrays are built in place where they can be and dropped once used,
    # which keeps the batch's peak memory low.  The exponentials are
    # shifted by the exact region minima, as for one centre.
    shifted = _face_major(spatial, soft_offsets)             # (R, M)
    del spatial
    np.subtract(mins if single else mins.take(env._row_region, axis=0),
                shifted, out=shifted)
    shifted *= kappa
    np.exp(shifted, out=shifted)
    region_sums = _reduce_regions(np.add, shifted, env)
    soft_mins = np.log(region_sums)
    soft_mins /= kappa
    np.subtract(mins, soft_mins, out=soft_mins)
    del mins
    top = _column_max(soft_mins)
    outer = np.subtract(soft_mins, top, out=soft_mins)       # (N_p, M)
    outer *= kappa
    np.exp(outer, out=outer)
    outer_total = _pairwise(np.add, list(outer))             # >= 1
    h = top + (np.log(outer_total) - params.buffer) / kappa
    if not derivatives:
        return h, None, None, psi

    # Region weight times within-region softmin weight, laid out (M, R).
    region_weights = np.divide(outer, outer_total * region_sums, out=outer)
    if not single:
        region_weights = region_weights.take(env._row_region, axis=0)
    weights = np.multiply(shifted.T, region_weights.T, order="C")
    del shifted, region_sums, region_weights, outer
    gradient = np.vecmat(weights, normals)
    if normal_rates is None:                                 # dh/dt = 0
        return h, gradient, h * 0.0, psi
    rates = np.matvec(normal_rates, centers)
    rates += rate_offsets
    time_partial = np.add.reduce(np.multiply(weights, rates, out=rates),
                                 axis=-1)
    return h, gradient, time_partial, psi


def _as_center(env: PolytopeEnvironment, center) -> np.ndarray:
    center = np.asarray(center, dtype=float)
    if center.shape != (env.dimension,):
        raise ValueError(f"center must have shape ({env.dimension},), got "
                         f"shape {center.shape}")
    return center


def _fields(env: PolytopeEnvironment, shape: AgentShape, centers, t,
            params: CbfParams | None = None, derivatives: bool = False):
    """`_evaluate` over a batch of centers in blocks, which bounds peak
    memory; t is one time or one time per centre, shape (M,).

    This is the one place that sizes kernel batches.  A block has _CHUNK
    rows, except in a moving world at one time per centre: there each row
    carries its own face terms, R (2p + 2 + N_v) floats (the row width of
    `_shape_law`), so a block has _CHUNK // (2p + 2 + N_v) rows, at least
    one, and its per-time terms hold no more floats than _CHUNK rows of
    face values.  The size still holds when the block's times repeat:
    `_face_terms` evaluates R (2p + 2 + N_v) floats per distinct time, at
    most one per row, and gathers R (2p + 3) per row, fewer since N_v >= 1.
    A row's bits depend on neither block size.

    Returns
    -------
    (h, gradient, time_partial, psi)
        Arrays of leading length M, None where `_evaluate` computes none.
    """
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != env.dimension:
        raise ValueError(f"centers must have shape (M, {env.dimension})")
    m = centers.shape[0]
    per_row = np.ndim(t) > 0
    if per_row:
        t = np.asarray(t, dtype=float)
        if t.shape != (m,):
            raise ValueError(
                f"t must be one time or one time per centre, shape ({m},), "
                f"got shape {t.shape}")
    size = _CHUNK
    if per_row and not env.is_static:
        size = max(1, _CHUNK // (2 * env.dimension + 2 + shape.num_vertices))
    out = [np.empty(m) if params is not None else None,
           np.empty((m, env.dimension)) if derivatives else None,
           np.empty(m) if derivatives else None,
           np.empty(m)]
    for start in range(0, m, size):
        block = slice(start, start + size)
        got = _evaluate(env, shape, centers[block], t[block] if per_row else t,
                        params, derivatives)
        for field, value in zip(out, got):
            if field is not None:
                field[block] = value
    return out


def margin_agent(env: PolytopeEnvironment, shape: AgentShape, center,
                 t: float = 0.0) -> float:
    """Exact nonsmooth margin: max over regions of the min over the region's
    faces and all agent vertices.

    Nonnegative values certify that the agent's convex hull lies inside the
    environment.  The max-of-mins order is essential: all vertices must sit
    in a common convex region.
    """
    return float(_evaluate(env, shape, _as_center(env, center), t)[3])


def margin_field(env: PolytopeEnvironment, shape: AgentShape, centers,
                 t=0.0) -> np.ndarray:
    """Exact nonsmooth margins over a batch of agent centers, shape (M,);
    t is one time or one time per centre, shape (M,)."""
    return _fields(env, shape, centers, t)[3]


def smooth_barrier(env: PolytopeEnvironment, shape: AgentShape, center,
                   t: float, params: CbfParams) -> BarrierEvaluation:
    """Differentiable barrier candidate for a polytope agent.

    The value is
        (1/kappa) * ln( sum_j ( sum_{i in I_j, k} exp(-kappa psi_ik) )^-1 )
            - buffer/kappa,
    a soft max over regions of the soft min over each region's face-vertex
    values psi_ik.  The gradient with respect to the agent center is the
    convex combination of face normals induced by the soft weights; the
    time partial applies the identical weights to the face-value time rates.

    Returns
    -------
    BarrierEvaluation
        value, gradient (shape (p,)), time_partial, and the exact nonsmooth
        margin for diagnostics.
    """
    h, gradient, time_partial, psi = _evaluate(
        env, shape, _as_center(env, center), t, params, derivatives=True)
    return BarrierEvaluation(float(h), gradient, float(time_partial),
                             float(psi))


def barrier_field(env: PolytopeEnvironment, shape: AgentShape, centers, t,
                  params: CbfParams):
    """Smooth barrier and nonsmooth margin over a batch of agent centers.

    Vectorized value-only path for grid audits and field dumps; gradients
    are not computed.  Centers go through the kernel in blocks that
    `_fields` sizes, bounding peak memory.  A row's bits depend on neither
    the batch nor the block size.

    Parameters
    ----------
    centers : array_like, shape (M, p)
    t : float or array_like, shape (M,)
        One time for every centre, or one per centre.

    Returns
    -------
    (h, margin) : two arrays of shape (M,)
    """
    h, _, _, margin = _fields(env, shape, centers, t, params)
    return h, margin
