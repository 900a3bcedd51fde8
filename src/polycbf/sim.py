"""Fixed-step closed-loop simulation of the safety-filtered single integrator.

The one integrator is classical RK4, and the control law (smooth barrier ->
desired velocity -> safety filter) is applied at each of its four stages,
which is the closest discrete realization of the continuous closed loop.
A stage whose filter the barrier's curvature bound in (p, t) proves
inactive takes the desired velocity without evaluating the barrier, which
is exactly what the filter would return; the bound covers static and
moving worlds alike.  The goal is checked at each step start, before
integrating, so the step that reaches it computes no stages.  Runs are
fully deterministic: identical scenario and config give bit-identical
results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .barrier import (BarrierEvaluation, curvature_bounds, gradient_bounds,
                      smooth_barrier)
from .geometry import _as_point
from .safety_filter import DegenerateGradientError, FilterResult, safe_velocity

__all__ = ["SimConfig", "SimResult", "Termination", "UnsafeStartError",
           "step", "run"]


class UnsafeStartError(RuntimeError):
    """Initial state is outside the smooth safe set (h(x0, 0) <= 0)."""


class Termination(str, Enum):
    GOAL = "goal"
    HORIZON = "horizon"
    ERROR = "error"


@dataclass
class SimConfig:
    """Integration settings.  Defaults: RK4 at dt = 0.01 s over 20 s with a
    5 cm arrival tolerance."""

    dt: float = 0.01
    t_end: float = 20.0
    x0: np.ndarray | None = None
    goal_tolerance: float = 0.05
    record_stride: int = 1

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.dt <= self.t_end < np.inf:
            raise ValueError(
                f"t_end must be finite and at least dt, got {self.t_end}")
        with np.errstate(over="ignore"):  # an overflow fails the check
            steps = np.float64(self.t_end) / self.dt
        if not steps < np.inf:
            raise ValueError(
                f"t_end / dt must be finite, got t_end={self.t_end} and "
                f"dt={self.dt}")
        if not 0 < self.goal_tolerance < np.inf:
            raise ValueError(
                f"goal_tolerance must be positive and finite, got "
                f"{self.goal_tolerance}")
        if not (1 <= self.record_stride < np.inf
                and self.record_stride % 1 == 0):
            raise ValueError(
                f"record_stride must be a positive integer, got "
                f"{self.record_stride}")
        self.record_stride = int(self.record_stride)
        if self.x0 is not None:
            self.x0 = _as_point(self.x0, name="x0")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimConfig):
            return NotImplemented
        x0_equal = (self.x0 is None and other.x0 is None) or (
            self.x0 is not None and other.x0 is not None
            and np.array_equal(self.x0, other.x0))
        return (x0_equal and self.dt == other.dt and self.t_end == other.t_end
                and self.goal_tolerance == other.goal_tolerance
                and self.record_stride == other.record_stride)


@dataclass
class SimResult:
    """Logged trajectory.  All sequences share one length; rows are sampled
    every record_stride steps plus the final state.  An "error" run keeps
    the rows recorded before the failing step, possibly none; the arrays
    keep their row shape, e.g. positions (0, p), when empty.  psi_values
    holds the exact nonsmooth margin at each row's state and time, which
    the barrier evaluation of the row's control law returns alongside h.
    certified is the scenario's `Scenario.certified` (buffer >= ln N_p),
    under which h >= 0 implies psi >= 0; it says nothing about the
    certified idle stages of `step`."""

    times: np.ndarray
    positions: np.ndarray
    h_values: np.ndarray
    psi_values: np.ndarray
    u_desired: np.ndarray
    u_safe: np.ndarray
    constraint_active: np.ndarray
    min_h: float
    min_psi: float
    reached_goal_at: float | None
    termination: Termination
    certified: bool
    error: str | None = None

    def write_csv(self, path) -> None:
        """Trajectory CSV: t, position, desired input, safe input, h, and
        the active flag, at 17 significant digits."""
        dim = self.positions.shape[1]
        axes = "xyz"[:dim]
        header = (
            ["t"]
            + [f"p_{a}" for a in axes]
            + [f"udes_{a}" for a in axes]
            + [f"usafe_{a}" for a in axes]
            + ["h", "constraint_active"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for i in range(self.times.shape[0]):
                row = (
                    [self.times[i]]
                    + list(self.positions[i])
                    + list(self.u_desired[i])
                    + list(self.u_safe[i])
                    + [self.h_values[i]]
                )
                writer.writerow([f"{v:.17g}" for v in row]
                                + [int(self.constraint_active[i])])


def _control(scenario, x: np.ndarray, t: float,
             u_des: np.ndarray) -> tuple[BarrierEvaluation, FilterResult]:
    evaluation = smooth_barrier(scenario.environment, scenario.agent, x, t,
                                scenario.cbf)
    return evaluation, safe_velocity(evaluation, u_des, scenario.cbf)


def _idle_certificate(evaluation: BarrierEvaluation, x: np.ndarray, t: float,
                      scenario):
    """A test that the filter is inactive at a later stage of a step from
    (x, t), from the barrier evaluation at (x, t) alone.

    The test takes a stage point p, its time t_s >= t and its desired input
    k, and returns True only when the filter at (p, t_s, k) would return k
    unchanged.  With the lower bounds (h_low, rate_low) of
    `curvature_bounds` at delta = p - x and tau = t_s - t,

        B = rate_low + gamma h_low

    is a lower bound on the exact residual grad h . k + dh/dt + gamma h at
    (p, t_s).  In a static world, where dh/dt = 0, B is
    g0 . k - L ||delta|| ||k|| + gamma (h0 + g0 . delta - (L/2) ||delta||^2)
    with h0 = h(x) and g0 = grad h(x).
    """
    env, params = scenario.environment, scenario.cbf
    nu = gradient_bounds(env, params.kappa)[0]
    gamma = params.alpha_gain
    x0 = x.tolist()
    lower = curvature_bounds(env, scenario.agent, params.kappa, evaluation,
                             x0, t)
    # The filter tests the residual as computed, not the exact one.  The
    # kernel's h carries a few ulps of its face values n_i . p + o_i, its
    # gradient, a convex combination of normals, a few ulps of nu per
    # entry, its dh/dt a few ulps of the face rates, and the products
    # gamma h and grad h . k a few ulps of gamma |h| and nu ||k||; B is
    # rounded from the evaluation at (x, t) with errors of the same kinds.
    # While gamma |n_i . p + o_i| and the face rates stay below about 1e5,
    # all of that is far below this margin, so B above it leaves the
    # computed residual >= 0 and the filter inactive.
    scale = (1.0 + gamma * abs(evaluation.value)
             + abs(evaluation.time_partial))

    def certified(point: np.ndarray, t_stage: float, u: np.ndarray) -> bool:
        k = u.tolist()
        h_low, rate_low = lower([a - b for a, b in zip(point.tolist(), x0)],
                                t_stage - t, k)
        return rate_low + gamma * h_low > 1e-9 * (scale + nu * math.hypot(*k))

    return certified


def _stage(scenario, point: np.ndarray, t: float, certificate):
    """The filtered input at one later RK4 stage, and the certificate for
    the next stage: the same test while it holds, None once it fails."""
    u_des = scenario.controller.velocity(point)
    if certificate is not None and certificate(point, t, u_des):
        return u_des, certificate
    return _control(scenario, point, t, u_des)[1].u_safe, None


def step(state, t: float, scenario, dt: float
         ) -> tuple[np.ndarray, BarrierEvaluation, FilterResult]:
    """Advance one RK4 step of dx/dt = k(x, t), the filtered controller k
    applied at all four stages.

    Stage 1 evaluates the barrier at (x, t).  If its filter is inactive,
    the later stages are certified in order from that one evaluation (see
    `_idle_certificate`), in static and moving worlds alike: a certified
    stage takes its desired input, which the filter would return
    unchanged, without a barrier call.  The first stage that fails the
    test and every stage after it evaluate the full control law.  Either
    way the new state is bit for bit the one that four full stages give.

    Returns the new state, and the barrier evaluation and filter result at
    the step start.  A degenerate gradient at any stage raises
    DegenerateGradientError.
    """
    x = np.asarray(state, dtype=float)
    evaluation, first = _control(scenario, x, t,
                                 scenario.controller.velocity(x))
    certificate = None
    if not first.constraint_active:
        certificate = _idle_certificate(evaluation, x, t, scenario)
    k1 = first.u_safe
    k2, certificate = _stage(scenario, x + 0.5 * dt * k1, t + 0.5 * dt,
                             certificate)
    k3, certificate = _stage(scenario, x + 0.5 * dt * k2, t + 0.5 * dt,
                             certificate)
    k4, _ = _stage(scenario, x + dt * k3, t + dt, certificate)
    return (x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), evaluation,
            first)


def run(scenario, config: SimConfig | None = None) -> SimResult:
    """Simulate until the goal, the horizon, or a filter failure.

    Refuses to start when h(x0, 0) <= 0.  Each step start first checks the
    goal on the state alone: at the goal or the horizon the control law is
    evaluated once for the last row, otherwise one RK4 `step` is taken.  A
    degenerate-gradient error ends the run with termination "error" and a
    message naming the state and t of the failing step; the rows recorded
    before it are kept, possibly none.
    """
    if config is None:
        config = scenario.default_sim
    x0 = config.x0 if config.x0 is not None else scenario.default_sim.x0
    if x0 is None:
        raise ValueError("no initial state: set SimConfig.x0")
    x = np.asarray(x0, dtype=float)

    first = smooth_barrier(scenario.environment, scenario.agent, x, 0.0,
                           scenario.cbf)
    if not first.value > 0.0:
        raise UnsafeStartError(
            f"h(x0, 0) = {first.value:.6g} <= 0 at x0 = {x.tolist()}")

    goal = scenario.controller.goal
    n_steps = int(round(config.t_end / config.dt))
    times, positions, psis, results = [], [], [], []
    termination = Termination.HORIZON
    reached_at = None
    error_msg = None

    for i in range(n_steps + 1):
        t = i * config.dt
        at_goal = float(np.linalg.norm(x - goal)) <= config.goal_tolerance
        done = at_goal or i == n_steps
        try:
            if done:
                ev, fr = _control(scenario, x, t,
                                  scenario.controller.velocity(x))
            else:
                x_next, ev, fr = step(x, t, scenario, config.dt)
        except DegenerateGradientError as err:
            termination = Termination.ERROR
            error_msg = f"{err} at state {x.tolist()}, t={t:.6g}"
            break
        if done or i % config.record_stride == 0:
            times.append(t)
            positions.append(x)
            psis.append(ev.nonsmooth_value)
            results.append(fr)
        if done:
            if at_goal:
                termination, reached_at = Termination.GOAL, t
            break
        x = x_next

    dim = x.shape[0]
    h_arr = np.array([fr.h for fr in results])
    psi_arr = np.array(psis)
    return SimResult(
        times=np.array(times),
        positions=np.array(positions).reshape(-1, dim),
        h_values=h_arr,
        psi_values=psi_arr,
        u_desired=np.array([fr.u_desired for fr in results]).reshape(-1, dim),
        u_safe=np.array([fr.u_safe for fr in results]).reshape(-1, dim),
        constraint_active=np.array([fr.constraint_active for fr in results],
                                   dtype=bool),
        min_h=float(h_arr.min()) if h_arr.size else float("nan"),
        min_psi=float(psi_arr.min()) if psi_arr.size else float("nan"),
        reached_goal_at=reached_at,
        termination=termination,
        certified=scenario.certified,
        error=error_msg,
    )
