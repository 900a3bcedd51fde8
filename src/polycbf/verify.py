"""Independent oracles and property audits.

Everything here checks the fast closed-form code paths against slower,
structurally different computations: a dense-grid QP solve, Dirichlet
sampling of the agent hull, grid scans of the under-approximation property,
and central finite differences for the analytic derivatives.  All sampling
is seeded and deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .barrier import (BarrierEvaluation, CbfParams, _evaluate, barrier_field,
                      margin_field, smooth_max, smooth_min)
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
    "scenario_bounds",
    "grid_points",
]


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
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "parameters": self.parameters,
            "worst": self.worst,
            "passed": self.passed,
            "seed": self.seed,
            **({"details": self.details} if self.details else {}),
        }

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
                           n_weights: int = 20, seed: int = 0,
                           t_max: float | None = None) -> AuditReport:
    """Hull-containment gap over random (state, weights) pairs drawn inside
    the scenario's bounding box (states need not be safe)."""
    rng = np.random.default_rng(seed)
    low, high = scenario_bounds(scenario)
    env, shape = scenario.environment, scenario.agent
    if t_max is None:
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


def under_approximation_audit(env: PolytopeEnvironment, shape: AgentShape,
                              params: CbfParams, grid) -> float:
    """Worst value of h - margin over the given grid of agent centers.

    Nonpositive means the smooth barrier under-approximates the exact
    margin on the grid; guaranteed when buffer >= log(num regions), and for
    a single region already at buffer = 0.
    """
    grid = np.asarray(grid, dtype=float)
    h, margin = barrier_field(env, shape, grid, 0.0, params)
    return float(np.max(h - margin))


def gradient_audit(scenario, n_states: int = 1000, seed: int = 0,
                   step: float = 1e-5, kappa: float | None = None) -> float:
    """Worst relative mismatch between analytic and central finite
    difference derivatives of the smooth barrier.

    Covers the spatial gradient and, for time-varying environments, the
    time partial.  Errors are measured relative to the larger of the
    finite-difference magnitude and one (the scale of unit normals).
    """
    rng = np.random.default_rng(seed)
    env, shape = scenario.environment, scenario.agent
    params = scenario.cbf if kappa is None else CbfParams(
        kappa=kappa, buffer=scenario.cbf.buffer,
        alpha_gain=scenario.cbf.alpha_gain)
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
    return float(np.max(np.maximum(grad_errors, time_errors), initial=0.0))


def qp_closed_form_audit(n: int, rng: np.random.Generator,
                         seed: int | None = None) -> AuditReport:
    """KKT residuals of the closed-form filter on n random problems.

    Each problem draws a dimension, a barrier evaluation, a class-K gain and
    a desired input from rng.  The worst of the constraint violation and the
    complementary-slackness product must vanish to rounding.
    """
    worst_slack, worst_comp = 0.0, 0.0
    for _ in range(n):
        dim = 2 + int(rng.integers(2))
        ev = BarrierEvaluation(
            value=float(rng.normal()), gradient=rng.normal(size=dim),
            time_partial=float(rng.normal()), nonsmooth_value=0.0)
        params = CbfParams(kappa=5.0, alpha_gain=float(rng.uniform(0.5, 4)))
        res = safe_velocity(ev, rng.normal(size=dim), params)
        worst_slack = max(worst_slack, -res.slack)
        coeff = (res.u_safe - res.u_desired) @ ev.gradient \
            / max(ev.gradient @ ev.gradient, 1e-30)
        worst_comp = max(worst_comp, abs(coeff * res.slack))
    worst = max(worst_slack, worst_comp)
    return AuditReport(name="qp-closed-form", parameters={"n": n},
                       worst=worst, passed=bool(worst <= 1e-10), seed=seed)


def smoothing_sandwich_audit(rng: np.random.Generator,
                             seed: int | None = None) -> AuditReport:
    """Worst breach of max <= smooth_max <= max + ln(N)/kappa and
    min - ln(N)/kappa <= smooth_min <= min over 200 random value sets
    drawn from rng."""
    worst = 0.0
    for _ in range(200):
        size = int(rng.integers(1, 9))
        values = rng.normal(scale=10.0, size=size)
        kappa = float(rng.uniform(0.5, 50.0))
        hi, lo = smooth_max(values, kappa), smooth_min(values, kappa)
        worst = max(
            worst,
            values.max() - hi,
            hi - values.max() - np.log(size) / kappa,
            lo - values.min(),
            values.min() - np.log(size) / kappa - lo,
        )
    return AuditReport(name="smoothing-sandwich", parameters={"n": 200},
                       worst=worst, passed=bool(worst <= 1e-12), seed=seed)


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
