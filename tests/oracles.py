"""Independent reference implementations used as test oracles.

The barrier oracles are plain nested loops over math.exp, with no
stabilization and no shared code with the library, so agreement is
meaningful.  They are only valid at moderate exponents (|kappa * psi| below
~700).  The rotation oracles rebuild R(t) from a motion's public spin alone,
and `qp_bruteforce` solves the filter's QP on a dense grid.
`desired_velocity` is the desired controller as plain numpy.
`qp_audit_loop`, `gradient_audit_loop` and `hull_audit_loop` are the loop
forms of the batched audits: one filter call per problem, or one state per
kernel call.  `rk4_reference` is the closed loop as plain numpy RK4 with
four full stages and no idle certificate.  `kernel_blocks` writes out the
rule by which `barrier._fields` sizes its kernel calls, and
`kernel_block_times` the time-basis rows that each of them evaluates.
"""

import math

import numpy as np

from polycbf import barrier, verify
from polycbf.barrier import (BarrierEvaluation, CbfParams, barrier_field,
                             margin_field, smooth_barrier)
from polycbf.geometry import AgentShape
from polycbf.safety_filter import safe_velocity


def _generator(motion):
    """A motion's angular rate and the unit generator K of its rotation,
    from its public spin alone: the quarter turn in 2D, and in 3D the
    cross-product matrix of the unit axis spin / |spin| (zero at rest)."""
    if motion.dimension == 2:
        return motion.spin, np.array([[0.0, -1.0], [1.0, 0.0]])
    rate = float(np.linalg.norm(motion.spin))
    if rate == 0.0:
        return 0.0, np.zeros((3, 3))
    x, y, z = motion.spin / rate
    return rate, np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def rotation(motion, t):
    """Rotation matrix R(t) of a rigid motion at angle a = rate * t: the
    planar turn cos(a) I + sin(a) K in 2D, Rodrigues' formula I + sin(a) K
    + (1 - cos a) K^2 in 3D.  t is one time, giving shape (p, p), or an
    array of times, giving t.shape + (p, p)."""
    rate, k = _generator(motion)
    a = rate * np.asarray(t, dtype=float)[..., None, None]
    if motion.dimension == 2:
        return np.cos(a) * np.eye(2) + np.sin(a) * k
    return np.eye(3) + np.sin(a) * k + (1.0 - np.cos(a)) * (k @ k)


def rotation_rate(motion, t):
    """dR/dt at t, the derivative of `rotation` in t, shaped as it."""
    rate, k = _generator(motion)
    a = rate * np.asarray(t, dtype=float)[..., None, None]
    if motion.dimension == 2:
        return rate * (np.cos(a) * k - np.sin(a) * np.eye(2))
    return rate * (np.cos(a) * k + np.sin(a) * (k @ k))


def vertices(shape, center):
    """Vertex positions center + offset_k of an agent shape, order kept."""
    return np.asarray(center, dtype=float) + shape.offsets


def desired_velocity(controller, p):
    """The saturated proportional law at one position as numpy arrays:
    u = gain (goal - p) scaled by u_max / max(||u||, u_max), the speed from
    u.dot(u); a square that overflows gives inf, which scales u to zeros."""
    u = controller.gain * (controller.goal - np.asarray(p, dtype=float))
    with np.errstate(over="ignore"):
        speed = np.sqrt(u.dot(u))
    return u * (controller.u_max / np.maximum(speed, controller.u_max))


class InfeasibleGridError(RuntimeError):
    """No grid point satisfied the constraint: the feasible half-space
    missed the search ball entirely."""


def qp_bruteforce(evaluation, u_desired, params, grid_radius, grid_n):
    """Dense-grid reference for the closed-form filter.

    Minimizes ||u - u_des||^2 over the feasible points of a regular grid of
    grid_n points per axis spanning u_des +/- grid_radius.  The answer is
    exact up to the grid spacing.
    """
    if grid_n < 100:
        raise ValueError(f"grid_n must be at least 100, got {grid_n}")
    u_desired = np.asarray(u_desired, dtype=float)
    candidates = verify.grid_points(u_desired - grid_radius,
                                    u_desired + grid_radius, grid_n)
    grad = np.asarray(evaluation.gradient, dtype=float)
    residual = (candidates @ grad + evaluation.time_partial
                + params.alpha_gain * evaluation.value)
    feasible = candidates[residual >= 0.0]
    if feasible.shape[0] == 0:
        raise InfeasibleGridError(
            f"no feasible grid point within radius {grid_radius} "
            f"({grid_n}^{u_desired.shape[0]} points)")
    dist_sq = np.sum((feasible - u_desired) ** 2, axis=1)
    return feasible[np.argmin(dist_sq)]


def halfspace_value(hs, p, t):
    """n(t) . (p - w(t)) from first principles."""
    p = np.asarray(p, dtype=float)
    if hs.motion is None:
        return float(np.dot(hs.normal, p - hs.anchor))
    rot = rotation(hs.motion, t)
    n = rot @ hs.normal
    w = hs.motion.center + rot @ (hs.anchor - hs.motion.center) \
        + hs.motion.linear_velocity * t
    return float(np.dot(n, p - w))


def halfspace_frame(hs, t):
    """Normal, level n . w, and their time rates at t, from the motion's
    rotation matrices R(t) and dR/dt."""
    if hs.motion is None:
        return hs.normal, float(hs.normal @ hs.anchor), 0.0 * hs.normal, 0.0
    m = hs.motion
    rot, rot_rate = rotation(m, t), rotation_rate(m, t)
    arm = hs.anchor - m.center
    n, n_rate = rot @ hs.normal, rot_rate @ hs.normal
    w = m.center + rot @ arm + m.linear_velocity * t
    w_rate = rot_rate @ arm + m.linear_velocity
    return n, float(n @ w), n_rate, float(n_rate @ w + n @ w_rate)


def reference_face_terms(env, shape, t, kappa):
    """`barrier._face_terms` at one time by plain loops over region rows and
    agent vertices: normals, hard and soft offsets, normal rates and rate
    offsets, with the soft terms None without kappa."""
    terms = [[] for _ in range(5)]
    for region in env.regions:
        for i in region.indices:
            n, c, n_rate, c_rate = halfspace_frame(env.half_spaces[i], t)
            dots = [float(n @ dp) for dp in shape.offsets]
            terms[0].append(n)
            terms[1].append(min(dots) - c)
            terms[3].append(n_rate)
            if kappa is not None:
                exps = [math.exp(-kappa * d) for d in dots]
                terms[2].append(-math.log(sum(exps)) / kappa - c)
                terms[4].append(sum(e * float(n_rate @ dp) for e, dp in
                                    zip(exps, shape.offsets)) / sum(exps)
                                - c_rate)
    return tuple(np.array(term) if term else None for term in terms)


def naive_margin(env, shape, center, t=0.0):
    """Exact max over regions of min over (face, vertex) pairs, by brute
    enumeration."""
    center = np.asarray(center, dtype=float)
    best = -math.inf
    for region in env.regions:
        worst = math.inf
        for i in region.indices:
            for offset in shape.offsets:
                worst = min(worst,
                            halfspace_value(env.half_spaces[i],
                                            center + offset, t))
        best = max(best, worst)
    return best


def naive_smooth_value(env, shape, center, t, params):
    """Smooth barrier value as literally printed: log of the sum of
    reciprocals of per-region exponential sums, minus buffer/kappa."""
    center = np.asarray(center, dtype=float)
    kappa = params.kappa
    total = 0.0
    for region in env.regions:
        inner = 0.0
        for i in region.indices:
            for offset in shape.offsets:
                psi = halfspace_value(env.half_spaces[i], center + offset, t)
                inner += math.exp(-kappa * psi)
        total += 1.0 / inner
    return math.log(total) / kappa - params.buffer / kappa


def naive_convex_region_smooth_value(env, shape, center, t, kappa):
    """Single-region smooth minimum -(1/kappa) ln sum exp(-kappa psi_ik)."""
    assert len(env.regions) == 1
    center = np.asarray(center, dtype=float)
    inner = 0.0
    for i in env.regions[0].indices:
        for offset in shape.offsets:
            psi = halfspace_value(env.half_spaces[i], center + offset, t)
            inner += math.exp(-kappa * psi)
    return -math.log(inner) / kappa


def fd_gradient(func, x, step=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for axis in range(x.shape[0]):
        offset = np.zeros_like(x)
        offset[axis] = step
        grad[axis] = (func(x + offset) - func(x - offset)) / (2.0 * step)
    return grad


def fd_scalar(func, t, step=1e-5):
    """Central finite difference of a scalar function of one variable."""
    return (func(t + step) - func(t - step)) / (2.0 * step)


def kernel_blocks(rows, env, shape, per_row=True):
    """The row counts of the kernel calls that `barrier._fields` makes for
    `rows` centres: blocks of `_CHUNK` rows, but in a moving world at one
    time per centre of max(1, _CHUNK // (2p + 2 + N_v)) rows, whose own
    face terms are R (2p + 2 + N_v) floats each; the last block may be
    shorter."""
    size = barrier._CHUNK
    if per_row and not env.is_static:
        size = max(1, size // (2 * env.dimension + 2 + shape.num_vertices))
    return [min(size, rows - start) for start in range(0, rows, size)]


def kernel_block_times(times, env, shape):
    """The number of distinct times in each kernel block that
    `barrier._fields` makes for one time per centre, `times`, in a moving
    world: the rows of the time basis that the block's face terms take.
    Times count as one when their bits are equal, so +0.0 and -0.0 are
    two."""
    bits = np.asarray(times, dtype=float).view(np.int64).tolist()
    blocks, start = [], 0
    for rows in kernel_blocks(len(bits), env, shape):
        blocks.append(len(set(bits[start:start + rows])))
        start += rows
    return blocks


def qp_audit_loop(n, seed, block=4096):
    """Worst scaled KKT residual of `verify.qp_closed_form_audit`, with one
    one-row `safe_velocity` call per problem and the audit's rng draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, n, block):
        size = min(block, n - start)
        dims = 2 + rng.integers(2, size=size)
        values, partials = rng.normal(size=(2, size))
        grads, u_des = rng.normal(size=(2, size, 3))
        grads[np.arange(3) >= dims[:, None]] = 0.0
        gains = rng.uniform(0.5, 4.0, size=size)
        u_safe = u_des.copy()
        for i, dim in enumerate(dims):
            ev = BarrierEvaluation(values[i], grads[i, :dim], partials[i], 0.0)
            params = CbfParams(kappa=5.0, alpha_gain=gains[i])
            u_safe[i, :dim] = safe_velocity(ev, u_des[i, :dim], params).u_safe
        terms = np.column_stack((grads * u_safe, partials, gains * values))
        r, scale = terms.sum(axis=1), np.abs(terms).sum(axis=1)
        changed = np.any(u_safe != u_des, axis=1)
        worst = np.max(np.where(changed, abs(r), -r) / scale, initial=worst)
    return float(worst)


def gradient_audit_loop(scenario, n_states=1000, seed=0, step=1e-5):
    """`verify.gradient_audit`'s worst error with one state per kernel call:
    `smooth_barrier` at the centre, one `barrier_field` call over the
    state's +/- axis probes and, in a moving world, one at t + step and one
    at t - step, with the audit's rng draws and error formula."""
    rng = np.random.default_rng(seed)
    env, shape, params = scenario.environment, scenario.agent, scenario.cbf
    dim = env.dimension
    centers, times = verify._draw_states(scenario, rng, n_states)
    grads, fd_grads = np.empty((n_states, dim)), np.empty((n_states, dim))
    partials, fd_partials = np.empty(n_states), np.zeros(n_states)
    offsets = np.repeat(np.eye(dim), 2, axis=0) * np.tile([1.0, -1.0], dim)[
        :, None] * step
    for i, (center, t) in enumerate(zip(centers, map(float, times))):
        ev = smooth_barrier(env, shape, center, t, params)
        grads[i], partials[i] = ev.gradient, ev.time_partial
        h_probe = barrier_field(env, shape, center + offsets, t, params)[0]
        fd_grads[i] = (h_probe[0::2] - h_probe[1::2]) / (2.0 * step)
        if not env.is_static:
            plus = barrier_field(env, shape, center[None], t + step,
                                 params)[0]
            minus = barrier_field(env, shape, center[None], t - step,
                                  params)[0]
            fd_partials[i] = ((plus - minus) / (2.0 * step))[0]
    grad_errors = np.linalg.norm(grads - fd_grads, axis=1) \
        / np.maximum(np.linalg.norm(fd_grads, axis=1), 1.0)
    time_errors = np.abs(partials - fd_partials) \
        / np.maximum(np.abs(fd_partials), 1.0)
    return float(np.max(np.maximum(grad_errors, time_errors), initial=0.0))


def hull_audit_loop(scenario, n_states=500, n_weights=20, seed=0):
    """`verify.hull_containment_audit`'s worst gap with one state per kernel
    call: one `margin_field` call over the state's hull points and one at
    its centre, at the state's scalar t, with the audit's rng draws."""
    rng = np.random.default_rng(seed)
    env, shape = scenario.environment, scenario.agent
    centers, times = verify._draw_states(scenario, rng, n_states)
    weights = rng.dirichlet(np.ones(shape.num_vertices),
                            size=(n_states, n_weights))
    point = AgentShape.point(env.dimension)
    worst = math.inf
    for center, t, w in zip(centers, map(float, times), weights):
        points = w @ vertices(shape, center)
        gap = np.min(margin_field(env, point, points, t)) \
            - margin_field(env, shape, center[None], t)[0]
        worst = min(worst, gap)
    return float(worst)


def rk4_reference(scenario, x0, t_end):
    """`sim.run`'s rows by plain numpy RK4: the control law at each of the
    four stages is the public one-row `velocity`, `smooth_barrier` and
    `safe_velocity`, with no idle certificate, and the stage points and the
    combination are array expressions.  Steps at the scenario's dt from x0
    at t = 0 until the goal tolerance or t_end, checking the goal at each
    step start.  Returns the rows' (positions, u_desired, u_safe, active)
    as arrays, one row per step start."""
    env, shape, params = scenario.environment, scenario.agent, scenario.cbf
    controller = scenario.controller
    dt = scenario.default_sim.dt

    def law(x, t):
        u_des = controller.velocity(x)
        result = safe_velocity(smooth_barrier(env, shape, x, t, params),
                               u_des, params)
        return u_des, result.u_safe, bool(result.constraint_active)

    x, rows = np.asarray(x0, dtype=float), []
    n_steps = int(round(t_end / dt))
    for i in range(n_steps + 1):
        t = i * dt
        u_des, k1, active = law(x, t)
        rows.append((x, u_des, k1, active))
        if (np.linalg.norm(x - controller.goal)
                <= scenario.default_sim.goal_tolerance or i == n_steps):
            break
        k2 = law(x + 0.5 * dt * k1, t + 0.5 * dt)[1]
        k3 = law(x + 0.5 * dt * k2, t + 0.5 * dt)[1]
        k4 = law(x + dt * k3, t + dt)[1]
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return tuple(np.array(column) for column in zip(*rows))
