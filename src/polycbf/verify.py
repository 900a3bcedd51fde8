"""Independent oracles and property audits.

Everything here checks the fast closed-form code paths against slower,
structurally different computations: a dense-grid QP solve, Dirichlet
sampling of the agent hull, grid scans of the under-approximation property,
and central finite differences for the analytic derivatives.  All sampling
is seeded and deterministic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from .barrier import (BarrierEvaluation, CbfParams, _evaluate, barrier_field,
                      margin_field, provable_buffer)
from .geometry import AgentShape, PolytopeEnvironment
from .safety_filter import safe_velocity

__all__ = [
    "AuditReport",
    "InfeasibleGridError",
    "qp_bruteforce",
    "hull_containment_sample",
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


class InfeasibleGridError(RuntimeError):
    """No grid point satisfied the constraint: the feasible half-space
    missed the search ball entirely."""


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


def qp_bruteforce(evaluation: BarrierEvaluation, u_desired, params: CbfParams,
                  grid_radius: float, grid_n: int) -> np.ndarray:
    """Dense-grid reference for the closed-form filter.

    Minimizes ||u - u_des||^2 over the feasible points of a regular grid of
    grid_n points per axis spanning u_des +/- grid_radius.  Test-only: the
    answer is exact up to the grid spacing.
    """
    if grid_n < 100:
        raise ValueError(f"grid_n must be at least 100, got {grid_n}")
    u_desired = np.asarray(u_desired, dtype=float)
    dim = u_desired.shape[0]
    axes = [np.linspace(u - grid_radius, u + grid_radius, grid_n)
            for u in u_desired]
    mesh = np.meshgrid(*axes, indexing="ij")
    candidates = np.stack([m.ravel() for m in mesh], axis=1)
    grad = np.asarray(evaluation.gradient, dtype=float)
    residual = (candidates @ grad + evaluation.time_partial
                + params.alpha_gain * evaluation.value)
    feasible = candidates[residual >= 0.0]
    if feasible.shape[0] == 0:
        raise InfeasibleGridError(
            f"no feasible grid point within radius {grid_radius} "
            f"({grid_n}^{dim} points)")
    dist_sq = np.sum((feasible - u_desired) ** 2, axis=1)
    return feasible[np.argmin(dist_sq)]


def hull_containment_sample(env: PolytopeEnvironment, shape: AgentShape,
                            center, t: float, n_samples: int,
                            rng: np.random.Generator | None = None) -> float:
    """Worst gap margin(hull point) - margin(agent) over random hull points.

    Hull points are convex combinations of the agent vertices with uniform
    Dirichlet weights.  The agent-level margin is a lower bound on the
    point margin everywhere in the hull, so the gap is nonnegative in exact
    arithmetic, for any center (safe or not).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    rng = np.random.default_rng(0) if rng is None else rng
    center = np.asarray(center, dtype=float)
    vertices = shape.vertices(center)
    weights = rng.dirichlet(np.ones(shape.num_vertices), size=n_samples)
    points = weights @ vertices
    point_margins = margin_field(env, AgentShape.point(env.dimension),
                                 points, t)
    agent_margin = float(margin_field(env, shape, center[None, :], t)[0])
    return float(np.min(point_margins) - agent_margin)


def hull_containment_audit(scenario, n_states: int = 500,
                           n_weights: int = 20, seed: int = 0) -> AuditReport:
    """Hull-containment gap, passing at >= -1e-12, over random (state,
    weights) pairs drawn in the scenario's box (states need not be safe)."""
    rng = np.random.default_rng(seed)
    low, high = scenario_bounds(scenario)
    env, shape = scenario.environment, scenario.agent
    t_max = 0.0 if env.is_static else scenario.default_sim.t_end
    worst = np.inf
    for _ in range(n_states):
        center = rng.uniform(low, high)
        t = float(rng.uniform(0.0, t_max)) if t_max > 0 else 0.0
        gap = hull_containment_sample(env, shape, center, t, n_weights, rng)
        worst = min(worst, gap)
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
    in 3D unless resolution says otherwise.

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
    grid = grid_points(*scenario_bounds(scenario), resolution)
    h, margin = barrier_field(env, scenario.agent, grid, 0.0, params)
    worst = float(np.max(h - margin))
    return AuditReport(
        name="under-approximation",
        parameters={"scenario": scenario.name, "buffer": params.buffer,
                    "resolution": resolution},
        worst=worst, passed=bool(worst <= 1e-12))


def gradient_audit(scenario, n_states: int = 1000, seed: int = 0,
                   step: float = 1e-5,
                   kappa: float | None = None) -> AuditReport:
    """Worst relative mismatch between analytic and central finite
    difference derivatives of the smooth barrier.

    Covers the spatial gradient and, for time-varying environments, the
    time partial.  Errors are measured relative to the larger of the
    finite-difference magnitude and one (the scale of unit normals).
    Passes at worst <= 1e-5.
    """
    rng = np.random.default_rng(seed)
    env, shape = scenario.environment, scenario.agent
    params = scenario.cbf if kappa is None else replace(
        scenario.cbf, kappa=kappa)
    low, high = scenario_bounds(scenario)
    dim = env.dimension
    centers = rng.uniform(low, high, size=(n_states, dim))
    t_max = 0.0 if env.is_static else scenario.default_sim.t_end
    times = rng.uniform(0.0, t_max, size=n_states) if t_max > 0 \
        else np.zeros(n_states)

    # One +/- probe pair per axis per state.  Everything is batched per
    # evaluation time: one call for a static world, one per state otherwise.
    probes = np.repeat(centers, 2 * dim, axis=0)
    probe_times = np.repeat(times, 2 * dim)
    signs = np.tile(np.repeat([1.0, -1.0], 1), dim * n_states)
    axes = np.tile(np.repeat(np.arange(dim), 2), n_states)
    probes[np.arange(probes.shape[0]), axes] += signs * step

    h_probe = np.empty(probes.shape[0])
    grads = np.empty((n_states, dim))
    partials = np.empty(n_states)
    fd_partials = np.zeros(n_states)
    for t in map(float, np.unique(times)):
        at, probe_at = times == t, probe_times == t
        h_probe[probe_at] = barrier_field(env, shape, probes[probe_at], t,
                                          params)[0]
        _, grads[at], partials[at], _ = _evaluate(
            env, shape, centers[at], t, params, derivatives=True)
        if not env.is_static:
            plus = barrier_field(env, shape, centers[at], t + step, params)[0]
            minus = barrier_field(env, shape, centers[at], t - step, params)[0]
            fd_partials[at] = (plus - minus) / (2.0 * step)
    fd_grads = (h_probe[0::2] - h_probe[1::2]).reshape(n_states, dim) \
        / (2.0 * step)

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
    """KKT residuals of the closed-form filter on n random problems.

    Each problem draws a dimension, a barrier evaluation, a class-K gain and
    a desired input.  r = grad(h) . u + dh/dt + gamma * h is recomputed at
    the returned input, scaled by the sum of its terms' magnitudes.  Passes
    when -r and, where the filter changed the input, |r| stay <= 1e-12.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, n, _QP_BLOCK):
        size = min(_QP_BLOCK, n - start)
        dims = 2 + rng.integers(2, size=size)
        values, partials = rng.normal(size=(2, size))
        grads, u_des = rng.normal(size=(2, size, 3))
        grads[np.arange(3) >= dims[:, None]] = 0.0  # unused axis of 2D rows
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
    return AuditReport(name="qp-closed-form", parameters={"n": n},
                       worst=float(worst), passed=bool(worst <= 1e-12),
                       seed=seed)


def smoothing_sandwich_audit(scenario, seed: int = 0) -> AuditReport:
    """Worst breach of psi - ln(L)/kappa <= h <= psi + ln(N_p)/kappa for the
    kernel's h at buffer 0, with L = max_j |I_j| * N_v.

    Each region's soft min lies within ln(|I_j| N_v)/kappa below its exact
    min, and the soft max over regions within ln(N_p)/kappa above the max.
    Draws 8 pairs of kappa in [0.3, 60] and t (0 in a static world), each
    with 250 agent centers in the scenario's box.  Passes at <= 1e-12.
    """
    rng = np.random.default_rng(seed)
    env, shape = scenario.environment, scenario.agent
    low, high = scenario_bounds(scenario)
    t_max = 0.0 if env.is_static else scenario.default_sim.t_end
    below = np.log(max(map(len, env.regions)) * shape.num_vertices)
    above = np.log(env.num_regions)
    breaches = []
    for _ in range(8):
        kappa, t = rng.uniform((0.3, 0.0), (60.0, t_max))
        centers = rng.uniform(low, high, size=(250, env.dimension))
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


def scenario_bounds(scenario, pad: float | None = None):
    """Axis-aligned box around the scenario's anchors, starts, and goal,
    padded by the agent circumradius plus a margin."""
    pts = [hs.anchor for hs in scenario.environment.half_spaces]
    pts.extend(scenario.all_starts())
    pts.append(scenario.controller.goal)
    pts = np.array(pts)
    if pad is None:
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
