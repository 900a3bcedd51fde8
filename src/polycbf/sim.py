"""Fixed-step closed-loop simulation of the safety-filtered single integrator.

The one integrator is classical RK4, and the control law (smooth barrier ->
desired velocity -> safety filter) is applied at each of its four stages,
which is the closest discrete realization of the continuous closed loop.
A stage whose filter the barrier's curvature bound in (p, t) proves
inactive, from the run's start check or its last inactive full evaluation,
takes the desired velocity without evaluating the barrier, which is exactly
what the filter would return; the bound covers static and moving worlds
alike.  The goal is checked at each step start, before integrating, so the
step that reaches it computes no stages.  After the loop, one
`barrier_field` call gives the recorded rows' h and psi, each at its own
state and time.  Runs are fully deterministic: identical scenario and
config give bit-identical results.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .barrier import (BarrierEvaluation, _evaluate, _hold_times,
                      barrier_field, curvature_bounds, gradient_bounds,
                      smooth_barrier)
from .geometry import _as_point, _eq_by, _require_positive
from .safety_filter import DegenerateGradientError, _project

__all__ = ["SimConfig", "SimResult", "Termination", "UnsafeStartError",
           "step", "run"]

# Steps per block whose stage times `run` hands to the kernel's memo at once.
_STEP_BLOCK = 64


class UnsafeStartError(RuntimeError):
    """Initial state is outside the smooth safe set (h(x0, 0) <= 0)."""


class Termination(str, Enum):
    GOAL = "goal"
    HORIZON = "horizon"
    ERROR = "error"


@dataclass
class SimConfig:
    """Integration settings.  Defaults: RK4 at dt = 0.01 s over 20 s with a
    5 cm arrival tolerance.  `run` takes at most round(t_end / dt) steps,
    rounding half to even, and records one row per step start, so the last
    row of a horizon run may sit up to dt/2 before or after t_end."""

    dt: float = 0.01
    t_end: float = 20.0
    x0: np.ndarray | None = None
    goal_tolerance: float = 0.05

    def __post_init__(self):
        _require_positive("dt", self.dt)
        if not self.dt <= self.t_end < np.inf:
            raise ValueError(
                f"t_end must be finite and at least dt, got {self.t_end}")
        with np.errstate(over="ignore"):  # an overflow fails the check
            steps = np.float64(self.t_end) / self.dt
        if not steps < np.inf:
            raise ValueError(
                f"t_end / dt must be finite, got t_end={self.t_end} and "
                f"dt={self.dt}")
        _require_positive("goal_tolerance", self.goal_tolerance)
        if self.x0 is not None:
            self.x0 = _as_point(self.x0, "x0")

    __eq__ = _eq_by()


@dataclass
class SimResult:
    """Logged trajectory.  All sequences share one length, one row per step
    start: row i is at times[i] = i * dt, the last at the goal or the
    horizon.  An "error" run keeps the rows before the failing step,
    possibly none; the arrays keep their row shape, e.g. positions (0, p),
    when empty.  h_values and psi_values hold the smooth barrier and the
    exact nonsmooth margin at each row's state and time, from one
    `barrier_field` call after the run.
    certified is the scenario's `Scenario.certified` (buffer >= ln N_p),
    under which h >= 0 implies psi >= 0; it says nothing about the idle
    certificate of `step`."""

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

    __eq__ = _eq_by()

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


def _idle_certificate(evaluation: BarrierEvaluation, x: list, t: float,
                      scenario):
    """A test that the filter is inactive at any later stage, however many
    steps on, from the barrier evaluation at an anchor (x, t) alone.

    The test takes a stage point p, its time t_s and its desired input k,
    which like the anchor x are sequences of floats, and returns True only
    when the filter at (p, t_s, k) would return k unchanged.  With the
    lower bounds (h_low, rate_low) of `curvature_bounds` at delta = p - x
    and tau = t_s - t,

        B = rate_low + gamma h_low

    is a lower bound on the exact residual grad h . k + dh/dt + gamma h at
    (p, t_s).  In a static world, where dh/dt = 0, B is
    g0 . k - L ||delta|| ||k|| + gamma (h0 + g0 . delta - (L/2) ||delta||^2)
    with h0 = h(x) and g0 = grad h(x).
    """
    env, params = scenario.environment, scenario.cbf
    nu = gradient_bounds(env, params.kappa)[0]
    gamma = params.alpha_gain
    lower = curvature_bounds(env, scenario.agent, params.kappa, evaluation,
                             x, t)
    # The filter tests the residual as computed, not the exact one.  The
    # kernel's h carries a few ulps of its face values n_i . p + o_i, its
    # gradient, a convex combination of normals, a few ulps of nu per
    # entry, its dh/dt a few ulps of the face rates, and the products
    # gamma h and grad h . k a few ulps of gamma |h| and nu ||k||; B is
    # rounded from the evaluation at (x, t) with errors of the same kinds.
    # A stage moves h and the face values off the anchor's by at most phi =
    # nu ||delta|| + T |tau| (T of `curvature_bounds`), and B > 0 needs phi
    # < (1 + sqrt(1 + 2 kappa |h0|)) / kappa, as quad >= kappa phi^2 and
    # cross >= kappa phi (nu ||k|| + T).  While gamma |h0|, the anchor's
    # gamma |n_i . x + o_i| and T stay below about 1e5, all of that is far
    # below this margin, so B above it leaves the computed residual >= 0.
    scale = (1.0 + gamma * abs(evaluation.value)
             + abs(evaluation.time_partial))

    def certified(point: list, t_stage: float, k: list) -> bool:
        h_low, rate_low = lower([a - b for a, b in zip(point, x)],
                                t_stage - t, k)
        return rate_low + gamma * h_low > 1e-9 * (scale + nu * math.hypot(*k))

    return certified


def _stage_times(t, dt):
    """The RK4 stage times (t, t + dt/2, t + dt) of the step from t, for one
    t or an array of step starts."""
    return t, t + 0.5 * dt, t + dt


def _stage(scenario, point: list, t: float, certificate):
    """The control law at one stage point: (u_des, u_safe, active,
    certificate), the point and inputs lists of floats.  A certified stage
    takes u_des, which its filter would return unchanged, without a barrier
    call; otherwise an inactive filter anchors a new certificate at the
    stage and an active one drops it.  The barrier is the kernel entry
    `_evaluate`, which `smooth_barrier` wraps, and only an anchoring stage
    builds its `BarrierEvaluation`.  The filter is `_project`, which
    `safe_velocity` wraps, on the list u_des."""
    u_des = scenario.controller._law(point)
    if certificate is not None and certificate(point, t, u_des):
        return u_des, u_des, False, certificate
    h, gradient, time_partial, psi = _evaluate(
        scenario.environment, scenario.agent, np.array(point), t,
        scenario.cbf, derivatives=True)
    h, time_partial = float(h), float(time_partial)
    u_safe = _project(gradient, u_des, time_partial, h, scenario.cbf)
    if u_safe is u_des:
        evaluation = BarrierEvaluation(h, gradient, time_partial, float(psi))
        return (u_des, u_des, False,
                _idle_certificate(evaluation, point, t, scenario))
    return u_des, u_safe, True, None


def _row(u_des: list, u_safe: list, active: bool) -> tuple:
    """A stage's (u_des, u_safe, active) with its inputs as arrays; an
    unfiltered stage's two inputs are one array."""
    u_des_row = np.array(u_des)
    u_safe_row = u_des_row if u_safe is u_des else np.array(u_safe)
    return u_des_row, u_safe_row, active


def step(state, t: float, scenario, dt: float, certificate=None) -> tuple:
    """Advance one RK4 step of dx/dt = k(x, t), the filtered controller k
    applied at all four stages.

    `certificate` is an idle test (`_idle_certificate`) anchored at an
    earlier stage, possibly of an earlier step, or None; every stage, the
    first included, goes through `_stage` with it in turn.  In static and
    moving worlds alike, the new state is bit for bit the one that four
    full stages give.

    The stage points and the combination are Python float arithmetic, each
    entry in the order of the array expressions x + (0.5 dt) k1, x + dt k3
    and x + (dt/6) (k1 + 2 k2 + 2 k3 + k4); element-wise float64
    arithmetic rounds the same in numpy and in Python, so the bits are
    those of the array code.

    Returns the new state and the stage-1 row (u_des, u_safe, active), the
    state and inputs as arrays, and the certificate for the next step.  A
    degenerate gradient at any stage raises DegenerateGradientError.
    """
    x = np.asarray(state, dtype=float)
    if x.shape != scenario.controller.goal.shape:
        raise ValueError(f"state must have shape "
                         f"{scenario.controller.goal.shape}, got {x.shape}")
    x = x.tolist()
    t1, t2, t4 = _stage_times(t, dt)
    half = 0.5 * dt
    u_des, k1, active, certificate = _stage(scenario, x, t1, certificate)
    _, k2, _, certificate = _stage(
        scenario, [a + half * b for a, b in zip(x, k1)], t2, certificate)
    _, k3, _, certificate = _stage(
        scenario, [a + half * b for a, b in zip(x, k2)], t2, certificate)
    _, k4, _, certificate = _stage(
        scenario, [a + dt * b for a, b in zip(x, k3)], t4, certificate)
    sixth = dt / 6.0
    x_next = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
              for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
    return np.array(x_next), _row(u_des, k1, active), certificate


def run(scenario, config: SimConfig | None = None) -> SimResult:
    """Simulate until the goal, the horizon, or a filter failure.

    Refuses to start when h(x0, 0) <= 0; otherwise that evaluation anchors
    the run's first idle certificate, whatever its filter says, so a start
    whose filter is inactive by the certificate's margin takes no second
    barrier call.  Each step start first checks the goal on the state alone:
    at the goal or the horizon the control law is applied once for the last
    row, otherwise one RK4 `step` is taken.  A degenerate-gradient error
    ends the run with termination "error" and a message naming the state
    and t of the failing step; the rows recorded before it are kept,
    possibly none.  The rows' h and psi come from one `barrier_field` call
    after the loop, whose blocks the kernel sizes, bit for bit
    `smooth_barrier`'s.

    Every _STEP_BLOCK steps, the stage times (`_stage_times`) of the next
    block go to the kernel's memo in one batched call (`_hold_times`),
    so in a moving world the stages' barrier calls hit it; the terms are
    bit for bit those of a miss, and a static world ignores them.
    """
    if config is None:
        config = scenario.default_sim
    x0 = config.x0 if config.x0 is not None else scenario.default_sim.x0
    if x0 is None:
        raise ValueError("no initial state: set SimConfig.x0")
    env, agent, params = scenario.environment, scenario.agent, scenario.cbf
    x = _as_point(x0, "x0", env.dimension)

    evaluation = smooth_barrier(env, agent, x, 0.0, params)
    if not evaluation.value > 0.0:
        raise UnsafeStartError(
            f"h(x0, 0) = {evaluation.value:.6g} <= 0 at x0 = {x.tolist()}")
    certificate = _idle_certificate(evaluation, x.tolist(), 0.0, scenario)

    goal, tol = scenario.controller.goal, config.goal_tolerance
    # `DesiredController._law`'s inside test the other way round: a hypot
    # above tol (1 + 1e-12) proves the dot's root above tol, so only a
    # state that passes this screen takes the dot, whose square cannot
    # overflow there.
    screen = tol * (1.0 + 1e-12) if 1e-140 < tol < 1e150 else math.inf
    n_steps = int(round(config.t_end / config.dt))
    positions, rows = [], []
    termination = Termination.HORIZON
    reached_at = error_msg = None

    for i in range(n_steps + 1):
        if i % _STEP_BLOCK == 0:
            starts = np.arange(i, min(i + _STEP_BLOCK, n_steps + 1)) \
                * config.dt
            _hold_times(env, agent,
                        np.concatenate(_stage_times(starts, config.dt)),
                        params.kappa)
        t = i * config.dt
        gap = x - goal
        at_goal = (math.hypot(*gap.tolist()) <= screen
                   and math.sqrt(gap.dot(gap)) <= tol)
        done = at_goal or i == n_steps
        try:
            if done:
                row = _row(*_stage(scenario, x.tolist(), t,
                                   certificate)[:3])
            else:
                x_next, row, certificate = step(x, t, scenario, config.dt,
                                                certificate)
        except DegenerateGradientError as err:
            termination = Termination.ERROR
            error_msg = f"{err} at state {x.tolist()}, t={t:.6g}"
            break
        positions.append(x)
        rows.append(row)
        if done:
            if at_goal:
                termination, reached_at = Termination.GOAL, t
            break
        x = x_next

    dim = x.shape[0]
    times = np.arange(len(rows)) * config.dt
    positions = np.array(positions).reshape(-1, dim)
    h_arr, psi_arr = barrier_field(env, agent, positions, times, params)
    return SimResult(
        times=times,
        positions=positions,
        h_values=h_arr,
        psi_values=psi_arr,
        u_desired=np.array([row[0] for row in rows]).reshape(-1, dim),
        u_safe=np.array([row[1] for row in rows]).reshape(-1, dim),
        constraint_active=np.array([row[2] for row in rows], dtype=bool),
        min_h=float(h_arr.min()) if h_arr.size else float("nan"),
        min_psi=float(psi_arr.min()) if psi_arr.size else float("nan"),
        reached_goal_at=reached_at,
        termination=termination,
        certified=scenario.certified,
        error=error_msg,
    )
