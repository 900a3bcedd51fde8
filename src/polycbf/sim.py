"""Fixed-step closed-loop simulation of the safety-filtered single integrator.

The one integrator is classical RK4, and the control law (smooth barrier ->
desired velocity -> safety filter) is re-evaluated at each of its four
stages, which is the closest discrete realization of the continuous closed
loop.  The goal is checked at each step start, before integrating, so the
step that reaches it computes no stages.  Runs are fully deterministic:
identical scenario and config give bit-identical results.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .barrier import smooth_barrier
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
    keep their row shape, e.g. positions (0, p), when empty."""

    times: np.ndarray
    positions: np.ndarray
    h_values: np.ndarray
    u_desired: np.ndarray
    u_safe: np.ndarray
    constraint_active: np.ndarray
    min_h: float
    reached_goal_at: float | None
    termination: Termination
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


def _control(scenario, x: np.ndarray, t: float) -> FilterResult:
    evaluation = smooth_barrier(scenario.environment, scenario.agent, x, t,
                                scenario.cbf)
    u_des = scenario.controller.velocity(x)
    return safe_velocity(evaluation, u_des, scenario.cbf)


def step(state, t: float, scenario,
         dt: float) -> tuple[np.ndarray, FilterResult]:
    """Advance one RK4 step of dx/dt = k(x, t), evaluating the filtered
    controller k at all four stages.

    Returns the new state and the filter result at the step start.  A
    degenerate gradient at any stage raises DegenerateGradientError.
    """
    x = np.asarray(state, dtype=float)
    first = _control(scenario, x, t)
    k1 = first.u_safe
    k2 = _control(scenario, x + 0.5 * dt * k1, t + 0.5 * dt).u_safe
    k3 = _control(scenario, x + 0.5 * dt * k2, t + 0.5 * dt).u_safe
    k4 = _control(scenario, x + dt * k3, t + dt).u_safe
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), first


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
    times, positions, results = [], [], []
    termination = Termination.HORIZON
    reached_at = None
    error_msg = None

    for i in range(n_steps + 1):
        t = i * config.dt
        at_goal = float(np.linalg.norm(x - goal)) <= config.goal_tolerance
        done = at_goal or i == n_steps
        try:
            if done:
                fr = _control(scenario, x, t)
            else:
                x_next, fr = step(x, t, scenario, config.dt)
        except DegenerateGradientError as err:
            termination = Termination.ERROR
            error_msg = f"{err} at state {x.tolist()}, t={t:.6g}"
            break
        if done or i % config.record_stride == 0:
            times.append(t)
            positions.append(x)
            results.append(fr)
        if done:
            if at_goal:
                termination, reached_at = Termination.GOAL, t
            break
        x = x_next

    dim = x.shape[0]
    h_arr = np.array([fr.h for fr in results])
    return SimResult(
        times=np.array(times),
        positions=np.array(positions).reshape(-1, dim),
        h_values=h_arr,
        u_desired=np.array([fr.u_desired for fr in results]).reshape(-1, dim),
        u_safe=np.array([fr.u_safe for fr in results]).reshape(-1, dim),
        constraint_active=np.array([fr.constraint_active for fr in results],
                                   dtype=bool),
        min_h=float(h_arr.min()) if h_arr.size else float("nan"),
        reached_goal_at=reached_at,
        termination=termination,
        error=error_msg,
    )
