"""Independent oracles and property audits.

Everything here checks the fast closed-form code paths against slower,
structurally different computations: KKT residuals of the filter, Dirichlet
sampling of the agent hull, grid scans of the under-approximation property,
and central finite differences for the analytic derivatives.  All sampling
is seeded and deterministic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .barrier import (CbfParams, _fields, _pairwise, barrier_field,
                      margin_field, provable_buffer)
from .geometry import AgentShape
from .safety_filter import _project_rows

__all__ = [
    "AuditReport",
    "hull_containment_audit",
    "under_approximation_audit",
    "gradient_audit",
    "qp_closed_form_audit",
    "smoothing_sandwich_audit",
    "SUITES",
    "run_suite",
    "scenario_bounds",
    "grid_points",
]


# Audit suites in the order `run_suite("all", ...)` reports them.
SUITES = ("gradients", "qp", "hull", "under", "sandwich")
_QP_BLOCK = 4096  # filter problems drawn at once, bounding the audit's memory


@dataclass
class AuditReport:
    """One audit outcome, serializable for machine consumption."""

    name: str
    parameters: dict
    worst: float
    passed: bool
    seed: int | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _require_count(name: str, value: int) -> None:
    """An audit that draws nothing would pass on no evidence."""
    if not value >= 1:
        raise ValueError(f"{name} must be at least 1, got {value}")


def _draw_states(scenario, rng: np.random.Generator, n: int):
    """n agent centres uniform in `scenario_bounds` and then, in a moving
    world only, n times uniform in [0, t_end]; a static world's times are
    zeros.  Returns (centers (n, p), times (n,))."""
    env = scenario.environment
    centers = rng.uniform(*scenario_bounds(scenario),
                          size=(n, env.dimension))
    if env.is_static:
        return centers, np.zeros(n)
    return centers, rng.uniform(0.0, scenario.default_sim.t_end, size=n)


def hull_containment_audit(scenario, n_states: int = 500,
                           n_weights: int = 20, seed: int = 0) -> AuditReport:
    """Worst gap margin(hull point) - margin(agent), passing at >= -1e-12,
    over random (state, weights) pairs in the scenario's box (states need
    not be safe).

    Hull points are convex combinations of the agent's vertices with uniform
    Dirichlet weights.  The agent-level margin is a lower bound on the point
    margin everywhere in the hull, so every gap is nonnegative in exact
    arithmetic.  The whole sample is drawn before the first margin is
    taken: all centres, then all times (moving worlds only), then all
    weights.  Every point margin is taken in one `margin_field` call and
    every agent margin in another, each row at its own state's time.
    n_states and n_weights must be at least 1.
    """
    _require_count("n_states", n_states)
    _require_count("n_weights", n_weights)
    rng = np.random.default_rng(seed)
    env, shape = scenario.environment, scenario.agent
    centers, times = _draw_states(scenario, rng, n_states)
    weights = rng.dirichlet(np.ones(shape.num_vertices),
                            size=(n_states, n_weights))
    points = weights @ (centers[:, None, :] + shape.offsets)
    point_margins = margin_field(env, AgentShape.point(env.dimension),
                                 points.reshape(-1, env.dimension),
                                 np.repeat(times, n_weights))
    gaps = np.min(point_margins.reshape(n_states, n_weights), axis=1,
                  initial=np.inf) - margin_field(env, shape, centers, times)
    worst = np.min(gaps, initial=np.inf)
    return AuditReport(
        name="hull-containment",
        parameters={"scenario": scenario.name, "n_states": n_states,
                    "n_weights": n_weights},
        worst=float(worst),
        passed=bool(worst >= -1e-12),
        seed=seed,
    )


def under_approximation_audit(scenario, params: CbfParams | None = None,
                              resolution: int | None = None) -> AuditReport:
    """Worst value of h - margin at t = 0 over a grid of agent centers
    spanning the scenario's bounding box, 200 points per axis in 2D and 50
    in 3D unless resolution, at least 1, says otherwise.

    Nonpositive means the smooth barrier under-approximates the exact
    margin on the grid; guaranteed when buffer >= log(num regions), the
    default with the scenario's kappa and gamma, and for a single region
    already at buffer = 0.  Passes at worst <= 1e-12; draws nothing.
    """
    env = scenario.environment
    if params is None:
        params = replace(scenario.cbf, buffer=provable_buffer(env))
    if resolution is None:
        resolution = 50 if env.dimension == 3 else 200
    _require_count("resolution", resolution)
    grid = grid_points(*scenario_bounds(scenario), resolution)
    h, margin = barrier_field(env, scenario.agent, grid, 0.0, params)
    worst = float(np.max(h - margin))
    return AuditReport(
        name="under-approximation",
        parameters={"scenario": scenario.name, "buffer": params.buffer,
                    "resolution": resolution},
        worst=worst, passed=bool(worst <= 1e-12))


def gradient_audit(scenario, n_states: int = 1000,
                   seed: int = 0) -> AuditReport:
    """Worst relative mismatch between analytic and central finite
    difference derivatives of the smooth barrier, at the scenario's
    `CbfParams`, with steps of 1e-5 in each axis and in t.

    Covers the spatial gradient and, for time-varying environments, the
    time partial.  Errors are measured relative to the larger of the
    finite-difference magnitude and one (the scale of unit normals).
    Passes at worst <= 1e-5.  Two kernel calls, each in blocks of rows at
    their own times: the derivatives at the n centres, then the values
    alone at the probes, whose h has the bits it has with derivatives.
    n_states must be at least 1.
    """
    _require_count("n_states", n_states)
    rng = np.random.default_rng(seed)
    env, shape, params = scenario.environment, scenario.agent, scenario.cbf
    dim, step = env.dimension, 1e-5
    centers, times = _draw_states(scenario, rng, n_states)

    # The derivatives at the centres, then the probe rows' values alone: one
    # +/- probe pair per axis per state and, in a moving world, each centre
    # at t + step and t - step, every row at its own time.
    _, grads, partials, _ = _fields(env, shape, centers, times, params,
                                    derivatives=True)
    probes = np.repeat(centers, 2 * dim, axis=0)
    signs = np.tile([1.0, -1.0], dim * n_states)
    axes = np.tile(np.repeat(np.arange(dim), 2), n_states)
    probes[np.arange(probes.shape[0]), axes] += signs * step
    points, point_times = [probes], [np.repeat(times, 2 * dim)]
    if not env.is_static:
        points += [centers, centers]
        point_times += [times + step, times - step]
    h = barrier_field(env, shape, np.concatenate(points),
                      np.concatenate(point_times), params)[0]
    h_probe = h[:probes.shape[0]]
    fd_grads = (h_probe[0::2] - h_probe[1::2]).reshape(n_states, dim) \
        / (2.0 * step)
    fd_partials = np.zeros(n_states)
    if not env.is_static:
        h_plus, h_minus = h[probes.shape[0]:].reshape(2, n_states)
        fd_partials = (h_plus - h_minus) / (2.0 * step)

    grad_errors = np.linalg.norm(grads - fd_grads, axis=1) \
        / np.maximum(np.linalg.norm(fd_grads, axis=1), 1.0)
    time_errors = np.abs(partials - fd_partials) \
        / np.maximum(np.abs(fd_partials), 1.0)
    worst = float(np.max(np.maximum(grad_errors, time_errors), initial=0.0))
    return AuditReport(
        name="gradients",
        parameters={"scenario": scenario.name, "n_states": n_states},
        worst=worst, passed=bool(worst <= 1e-5), seed=seed)


def qp_closed_form_audit(n: int, seed: int = 0) -> AuditReport:
    """KKT residuals of the closed-form filter on n random problems, n >= 1.

    Each problem draws a dimension, a barrier evaluation, a class-K gain and
    a desired input.  r = grad(h) . u + dh/dt + gamma * h is recomputed at
    the returned input, scaled by the sum of its terms' magnitudes.  Passes
    when -r and, where the filter changed the input, |r| stay <= 1e-12.
    Both sums run down the five term columns of a block of problems, each
    problem's terms added in order, as `sum(axis=1)` adds a row of five.

    Each block is drawn in problem order and then put in dimension order,
    stably, its planar problems first, so that each dimension's problems
    are one contiguous slice of the block to filter and no boolean mask
    gathers or scatters them.  worst is a maximum over problems, which
    their order cannot change.
    """
    _require_count("n", n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    # gamma * h is one rounded product either way, and the filter's
    # 1.0 * (gamma h) keeps it exact, so each row sees the residual of its
    # own one-problem call.
    params = CbfParams(kappa=5.0, alpha_gain=1.0)
    for start in range(0, n, _QP_BLOCK):
        size = min(_QP_BLOCK, n - start)
        dims = 2 + rng.integers(2, size=size)
        values, partials = rng.normal(size=(2, size))
        grads, u_des = rng.normal(size=(2, size, 3))
        gains = rng.uniform(0.5, 4.0, size=size)
        order = np.argsort(dims, kind="stable")
        planar = np.count_nonzero(dims == 2)
        partials, alphas = partials.take(order), (gains * values).take(order)
        grads, u_des = grads.take(order, axis=0), u_des.take(order, axis=0)
        grads[:planar, 2] = 0.0  # unused axis of the planar problems
        u_safe = u_des.copy()
        for rows, dim in ((slice(planar), 2), (slice(planar, size), 3)):
            u_safe[rows, :dim] = _project_rows(
                grads[rows, :dim], u_des[rows, :dim], partials[rows],
                alphas[rows], params)[0]
        terms = [*(grads * u_safe).T, partials, alphas]
        r = _pairwise(np.add, terms)
        scale = _pairwise(np.add, [np.abs(term) for term in terms])
        moved = (u_safe != u_des).T  # its columns ORed: np.any(axis=1)
        changed = moved[0] | moved[1] | moved[2]
        worst = np.max(np.where(changed, abs(r), -r) / scale, initial=worst)
    return AuditReport(name="qp-closed-form", parameters={"n": n},
                       worst=float(worst), passed=bool(worst <= 1e-12),
                       seed=seed)


def smoothing_sandwich_audit(scenario, seed: int = 0) -> AuditReport:
    """Worst breach of psi - ln(L)/kappa <= h <= psi + ln(N_p)/kappa for the
    kernel's h at buffer 0, with L = max_j |I_j| * N_v.

    Each region's soft min lies within ln(|I_j| N_v)/kappa below its exact
    min, and the soft max over regions within ln(N_p)/kappa above the max.
    Draws 8 pairs of kappa in [0.3, 60] and t (0 in a static world), each
    with 250 agent centers in the scenario's box, all before the first
    kernel call.  Passes at <= 1e-12.
    """
    rng = np.random.default_rng(seed)
    env, shape = scenario.environment, scenario.agent
    low, high = scenario_bounds(scenario)
    t_max = 0.0 if env.is_static else scenario.default_sim.t_end
    below = np.log(max(map(len, env.regions)) * shape.num_vertices)
    above = np.log(env.num_regions)
    draws = [(*rng.uniform((0.3, 0.0), (60.0, t_max)),
              rng.uniform(low, high, size=(250, env.dimension)))
             for _ in range(8)]
    breaches = []
    for kappa, t, centers in draws:
        h, psi = barrier_field(env, shape, centers, t, CbfParams(kappa))
        breaches += [psi - below / kappa - h, h - psi - above / kappa]
    worst = float(np.max(breaches))
    return AuditReport(
        name="smoothing-sandwich",
        parameters={"scenario": scenario.name, "n_draws": 8, "n_states": 250},
        worst=worst, passed=bool(worst <= 1e-12), seed=seed)


def run_suite(suite: str, scenarios, seed: int, n: int) -> list[AuditReport]:
    """Reports of one suite in SUITES, or of all in SUITES order for "all".

    Each audit seeds its own generator, so a suite reports the same alone as
    inside "all".  n sizes the qp audit; the gradient audit takes at most
    1000 states."""
    if suite not in (*SUITES, "all"):
        raise ValueError(f"unknown suite {suite!r}")
    reports = []
    if suite in ("gradients", "all"):
        reports += [gradient_audit(s, n_states=min(n, 1000), seed=seed)
                    for s in scenarios]
    if suite in ("qp", "all"):
        reports.append(qp_closed_form_audit(n, seed))
    if suite in ("hull", "all"):
        reports += [hull_containment_audit(s, seed=seed) for s in scenarios]
    if suite in ("under", "all"):
        reports += [under_approximation_audit(s) for s in scenarios]
    if suite in ("sandwich", "all"):
        reports += [smoothing_sandwich_audit(s, seed) for s in scenarios]
    return reports


def scenario_bounds(scenario):
    """Axis-aligned box around the scenario's anchors, starts, and goal,
    padded by the agent circumradius plus a margin."""
    pts = [hs.anchor for hs in scenario.environment.half_spaces]
    pts.extend(scenario.all_starts())
    pts.append(scenario.controller.goal)
    pts = np.array(pts)
    pad = scenario.agent.circumradius + 0.5
    return pts.min(axis=0) - pad, pts.max(axis=0) + pad


def grid_points(low, high, resolution: int) -> np.ndarray:
    """Regular grid of resolution points per axis over [low, high], flattened
    to shape (resolution**p, p)."""
    low = np.asarray(low, dtype=float)
    high = np.asarray(high, dtype=float)
    axes = [np.linspace(low[i], high[i], resolution)
            for i in range(low.shape[0])]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
