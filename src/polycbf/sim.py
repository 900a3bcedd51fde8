"""Fixed-step closed-loop simulation of the safety-filtered single integrator.

The control law (smooth barrier -> desired velocity -> safety filter) is
re-evaluated at every integrator stage, which is the closest discrete
realization of the continuous closed loop.  Runs are fully deterministic:
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
    every record_stride steps plus the final state."""

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


def step(state, t: float, scenario, dt: float,
         method: str = "rk4") -> tuple[np.ndarray, FilterResult]:
    """Advance one step of dx/dt = k(x, t) with the filtered controller k.

    method "rk4" evaluates the controller at all four stages; "euler" holds
    the input computed at the step start (zero-order hold -- for the single
    integrator the two coincide in the held-input limit).

    Returns the new state and the filter result at the step start.  A
    degenerate-gradient failure at any stage is re-raised with the offending
    state and time attached.
    """
    x = np.asarray(state, dtype=float)
    try:
        first = _control(scenario, x, t)
        if method == "euler":
            return x + dt * first.u_safe, first
        if method != "rk4":
            raise ValueError(f"unknown integration method {method!r}")
        k1 = first.u_safe
        k2 = _control(scenario, x + 0.5 * dt * k1, t + 0.5 * dt).u_safe
        k3 = _control(scenario, x + 0.5 * dt * k2, t + 0.5 * dt).u_safe
        k4 = _control(scenario, x + dt * k3, t + dt).u_safe
        return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), first
    except DegenerateGradientError as err:
        raise DegenerateGradientError(
            f"{err} at state {x.tolist()}, t={t:.6g}") from err


def run(scenario, config: SimConfig | None = None,
        method: str = "rk4") -> SimResult:
    """Simulate until the goal, the horizon, or a filter failure.

    Refuses to start when h(x0, 0) <= 0.  A degenerate-gradient error during
    integration ends the run with termination "error" and the message stored
    on the result, keeping the prefix of the trajectory for inspection.
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
    times, positions, h_values = [], [], []
    u_desired, u_safe, active = [], [], []
    termination = Termination.HORIZON
    reached_at = None
    error_msg = None

    def record(t, x, fr: FilterResult):
        times.append(t)
        positions.append(x.copy())
        h_values.append(fr.h)
        u_desired.append(fr.u_desired.copy())
        u_safe.append(fr.u_safe.copy())
        active.append(fr.constraint_active)

    i = 0
    while True:
        t = i * config.dt
        try:
            if i < n_steps:
                x_next, fr = step(x, t, scenario, config.dt, method)
            else:
                x_next, fr = None, _control(scenario, x, t)
        except DegenerateGradientError as err:
            termination = Termination.ERROR
            error_msg = str(err)
            break
        recorded = i % config.record_stride == 0 or i == n_steps
        if recorded:
            record(t, x, fr)
        if float(np.linalg.norm(x - goal)) <= config.goal_tolerance:
            termination = Termination.GOAL
            reached_at = t
            if not recorded:
                record(t, x, fr)
            break
        if i == n_steps:
            break
        x = x_next
        i += 1

    h_arr = np.array(h_values)
    return SimResult(
        times=np.array(times),
        positions=np.array(positions),
        h_values=h_arr,
        u_desired=np.array(u_desired),
        u_safe=np.array(u_safe),
        constraint_active=np.array(active, dtype=bool),
        min_h=float(h_arr.min()) if h_arr.size else float("nan"),
        reached_goal_at=reached_at,
        termination=termination,
        error=error_msg,
    )
