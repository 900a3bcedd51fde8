import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import polycbf.sim
from polycbf.barrier import CbfParams, margin_agent, smooth_barrier
from polycbf.geometry import (AgentShape, ConvexRegion, HalfSpace,
                              PolytopeEnvironment, RigidMotion)
from polycbf.safety_filter import DesiredController, safe_velocity
from polycbf.scenarios import BUILTIN_NAMES, Scenario, builtin
from polycbf.sim import SimConfig, Termination, UnsafeStartError, run, step
from polycbf.verify import scenario_bounds

import oracles
from worlds import MOVING_WORLDS, spun_pyramid


def free_space_scenario(goal, x0, width=1000.0):
    """Huge box so the constraint never activates."""
    walls = [
        HalfSpace((1.0, 0.0), (-width, 0.0)),
        HalfSpace((-1.0, 0.0), (width, 0.0)),
        HalfSpace((0.0, 1.0), (0.0, -width)),
        HalfSpace((0.0, -1.0), (0.0, width)),
    ]
    env = PolytopeEnvironment(walls, [ConvexRegion([0, 1, 2, 3])])
    return Scenario(
        name="free",
        environment=env,
        agent=AgentShape.point(2),
        controller=DesiredController(goal=goal, gain=1.0, u_max=1.0),
        cbf=CbfParams(kappa=5.0, alpha_gain=2.0),
        default_sim=SimConfig(x0=x0, dt=0.01, t_end=1.0, goal_tolerance=1e-6),
    )


def closing_walls(speed, goal_tolerance=0.05):
    """Two walls closing on a point agent at x = 0 with the given speed.

    By symmetry the agent stays on x = 0, where the gradient of h is
    exactly zero and dh/dt = -speed.  Once gamma * h < speed the filter
    cannot restore the constraint and raises DegenerateGradientError: at
    the first evaluation for speed 2, at t = 0.725 for speed 0.5 (the agent
    moves up at unit speed toward the goal (0, 5)).
    """
    def wall(normal, anchor, velocity):
        return HalfSpace(normal, anchor, RigidMotion(
            (0.0, 0.0), omega=0.0, linear_velocity=velocity))

    env = PolytopeEnvironment(
        [wall((1.0, 0.0), (-1.0, 0.0), (speed, 0.0)),
         wall((-1.0, 0.0), (1.0, 0.0), (-speed, 0.0))],
        [ConvexRegion([0, 1])])
    return Scenario(
        name="closing",
        environment=env,
        agent=AgentShape.point(2),
        controller=DesiredController(goal=(0.0, 5.0)),
        cbf=CbfParams(kappa=5.0, alpha_gain=1.0),
        default_sim=SimConfig(x0=(0.0, 0.0), goal_tolerance=goal_tolerance),
    )


class TestStep:
    def test_equilibrium_at_goal(self):
        s = free_space_scenario(goal=(0.0, 0.0), x0=(0.0, 0.0))
        state, (_, u_safe, _), _ = step((0.0, 0.0), 0.0, s, dt=0.01)
        assert np.array_equal(state, [0.0, 0.0])
        assert np.array_equal(u_safe, [0.0, 0.0])

    def test_exponential_approach(self):
        # unsaturated linear feedback: x(t) = g + (x0 - g) exp(-t)
        goal = np.array([0.3, 0.2])
        s = free_space_scenario(goal=goal, x0=(0.0, 0.0))
        res = run(s)
        exact = goal + (np.zeros(2) - goal) * math.exp(-res.times[-1])
        assert np.linalg.norm(res.positions[-1] - exact) <= 1e-9



class TestRun:
    def test_unsafe_start_refused(self):
        s = builtin("l-shape")
        cfg = dataclasses.replace(s.default_sim, x0=np.array([1.0, 0.5]))
        with pytest.raises(UnsafeStartError):
            run(s, cfg)

    def test_wrong_size_start_refused(self):
        # run() names x0 before the first barrier call, and before the
        # float stages, whose zips would truncate it.
        s = builtin("l-shape")
        cfg = dataclasses.replace(s.default_sim, x0=np.array([0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="^x0 has dimension 3, "
                                             "expected 2$"):
            run(s, cfg)
        with pytest.raises(ValueError, match=r"state must .* \(2,\)"):
            step(cfg.x0, 0.0, s, 0.01)

    def test_reaches_goal_and_reports_time(self):
        s = free_space_scenario(goal=(0.5, 0.0), x0=(0.0, 0.0))
        cfg = dataclasses.replace(s.default_sim, t_end=30.0,
                                  goal_tolerance=0.05)
        res = run(s, cfg)
        assert res.termination is Termination.GOAL
        assert res.reached_goal_at is not None
        assert np.linalg.norm(res.positions[-1] - [0.5, 0.0]) <= 0.05

    def test_goal_check_one_ulp_from_tolerance(self):
        # Gaps (3, 4 - 3 * 2^-51) and (3, 4 + 2^-50) from the goal have
        # norms one ulp below and one ulp above 5; both pass the goal
        # check's hypot screen, and its dot decides: the goal at t = 0, or
        # after one step toward it.
        for y, reached in ((3 * 2.0 ** -51 - 4.0, 0.0),
                           (-np.nextafter(4.0, 5.0), 0.01)):
            s = free_space_scenario(goal=(0.0, 0.0), x0=(-3.0, y))
            res = run(s, dataclasses.replace(s.default_sim,
                                             goal_tolerance=5.0))
            assert res.termination is Termination.GOAL
            assert res.reached_goal_at == reached

    def test_stiff_gain_diverges_without_warning(self):
        # gamma = 1e6 at dt = 0.01 drives the state toward 1e303 until the
        # filter's residual overflows.  The goal check screens such a state
        # with math.hypot, so its dot does not warn of an overflow; the
        # run ends in error with the rows before the failing step.
        s = builtin("crossroad")
        s = dataclasses.replace(s, cbf=dataclasses.replace(s.cbf,
                                                           alpha_gain=1e6))
        res = run(s, dataclasses.replace(s.default_sim, t_end=3.0))
        assert res.termination is Termination.ERROR
        assert res.error.startswith("non-finite constraint: residual -inf")
        assert res.error.endswith(", t=1.28")
        assert res.times.shape == (128,)
        assert 1e300 < np.abs(res.positions[-1]).max() < np.inf

    def test_horizon_termination(self):
        s = free_space_scenario(goal=(10.0, 0.0), x0=(0.0, 0.0))
        res = run(s)  # t_end = 1 s, goal unreachable at u_max = 1
        assert res.termination is Termination.HORIZON
        assert res.reached_goal_at is None
        assert res.times[-1] == pytest.approx(1.0)

    def test_sequences_consistent(self):
        s = builtin("l-shape")
        res = run(s)
        n = res.times.shape[0]
        assert res.positions.shape == (n, 2)
        assert res.h_values.shape == (n,)
        assert res.u_desired.shape == (n, 2)
        assert res.u_safe.shape == (n, 2)
        assert res.constraint_active.shape == (n,)
        assert res.min_h == res.h_values.min()

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_one_row_per_step_start(self, name, monkeypatch):
        starts = []

        def counted_step(*args):
            starts.append(args[1])
            return step(*args)

        monkeypatch.setattr(polycbf.sim, "step", counted_step)
        s = builtin(name)
        res = run(s)
        dt = s.default_sim.dt
        assert (res.times.tobytes()
                == (np.arange(res.times.size) * dt).tobytes())
        assert starts == list(res.times[:-1])
        if res.termination is Termination.GOAL:
            assert res.reached_goal_at == res.times[-1]
        else:
            assert res.termination is Termination.HORIZON
            assert len(starts) == round(s.default_sim.t_end / dt)

    def test_goal_step_does_not_integrate(self, monkeypatch):
        calls = []

        def counted_step(*args):
            calls.append(args[1])
            return step(*args)

        monkeypatch.setattr(polycbf.sim, "step", counted_step)
        s = free_space_scenario(goal=(0.5, 0.0), x0=(0.0, 0.0))
        cfg = dataclasses.replace(s.default_sim, t_end=30.0,
                                  goal_tolerance=0.05)
        res = run(s, cfg)
        assert res.termination is Termination.GOAL
        # k + 1 rows: k integrated steps, then the goal row
        assert len(calls) == res.times.shape[0] - 1
        assert calls == list(res.times[:-1])

    def test_goal_checked_before_integrating(self):
        # the goal tolerance is met at t = 0.72, and the stages of a step
        # from there would fail at t = 0.725
        res = run(closing_walls(0.5, goal_tolerance=4.285))
        assert res.termination is Termination.GOAL
        assert res.reached_goal_at == pytest.approx(0.72)
        assert res.times.shape == (73,)
        assert res.error is None

    def test_error_keeps_recorded_prefix(self):
        res = run(closing_walls(0.5))
        assert res.termination is Termination.ERROR
        assert res.reached_goal_at is None
        assert res.times.shape == (72,)
        assert res.positions.shape == res.u_safe.shape == (72, 2)
        assert res.times[-1] == pytest.approx(0.71)
        assert res.min_h == res.h_values.min()
        assert "near-zero barrier gradient" in res.error
        assert re.search(r"at state \[0\.0, 0\.72\d*\], t=0\.72$",
                         res.error)

    # goal_tolerance 5.5 puts x0 at the goal, so the failing evaluation is
    # the final one rather than a step
    @pytest.mark.parametrize("goal_tolerance", [0.05, 5.5])
    def test_error_at_first_evaluation_has_no_rows(self, goal_tolerance):
        res = run(closing_walls(2.0, goal_tolerance))
        assert res.termination is Termination.ERROR
        assert res.times.shape == res.h_values.shape == (0,)
        assert res.psi_values.shape == res.constraint_active.shape == (0,)
        assert res.constraint_active.dtype == bool
        for rows in (res.positions, res.u_desired, res.u_safe):
            assert rows.shape == (0, 2)
        assert math.isnan(res.min_h) and math.isnan(res.min_psi)
        assert res.error.endswith("at state [0.0, 0.0], t=0")

    def test_non_finite_barrier_ends_in_error(self, monkeypatch):
        # A NaN barrier value from t = 0.5 on must end the run rather than
        # feed a NaN input into the next RK4 stage.  In free space the idle
        # certificate would skip every evaluation after the first, so the
        # run takes full stages to reach the NaN.
        refuse_always(monkeypatch)
        evaluate = polycbf.sim._evaluate

        def nan_late(env, shape, x, t, params, derivatives):
            h, gradient, time_partial, psi = evaluate(env, shape, x, t, params,
                                                      derivatives)
            return math.nan if t >= 0.5 else h, gradient, time_partial, psi

        monkeypatch.setattr(polycbf.sim, "_evaluate", nan_late)
        res = run(free_space_scenario(goal=(0.9, 0.0), x0=(0.0, 0.0)))
        assert res.termination is Termination.ERROR
        assert res.error.startswith("non-finite constraint: residual nan")
        assert res.times[-1] < 0.5
        assert np.isfinite(res.u_safe).all()

    def test_overflowing_gradient_is_rescaled(self, monkeypatch):
        # A barrier scaled by 2^600 has the same filter, but the squared
        # norm of its gradient overflows: every active stage leaves the
        # float projection for the rescaled one of `_project_rows`.  The idle
        # certificate, which would see the scaled h, is off.
        refuse_always(monkeypatch)
        s = builtin("crossroad")
        config = dataclasses.replace(s.default_sim, t_end=1.0)
        want = run(s, config)

        evaluate, calls = polycbf.sim._evaluate, []

        def scaled(env, shape, x, t, params, derivatives):
            calls.append(t)
            h, gradient, time_partial, psi = evaluate(env, shape, x, t, params,
                                                      derivatives)
            return (h * 2.0 ** 600, gradient * 2.0 ** 600,
                    time_partial * 2.0 ** 600, psi)

        monkeypatch.setattr(polycbf.sim, "_evaluate", scaled)
        got = run(s, config)
        # Every stage of every step, and the last row's, took the scaled
        # kernel.
        assert len(calls) == 4 * (got.times.shape[0] - 1) + 1
        assert got.termination is want.termination
        assert np.count_nonzero(want.constraint_active) > 10
        assert np.array_equal(got.constraint_active, want.constraint_active)
        for name in ("positions", "u_desired", "u_safe"):
            assert np.allclose(getattr(got, name), getattr(want, name),
                               rtol=1e-9, atol=1e-12), name

    def test_deterministic(self):
        s = builtin("crossroad")
        a = run(s)
        b = run(s)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.h_values, b.h_values)
        assert np.array_equal(a.u_safe, b.u_safe)
        assert a.min_h == b.min_h

    def test_dt_halving_smooth_segment(self):
        # away from constraint switches RK4 converges fast: halving dt
        # shrinks the final-state error far better than 2x
        s = free_space_scenario(goal=(0.5, 0.3), x0=(0.0, 0.0))
        errors = {}
        for dt in (0.2, 0.1, 0.05):
            cfg = dataclasses.replace(s.default_sim, dt=dt, t_end=1.0)
            final = run(s, cfg).positions[-1]
            exact = np.array([0.5, 0.3]) * (1.0 - math.exp(-1.0))
            errors[dt] = np.linalg.norm(final - exact)
        assert errors[0.1] <= 0.5 * errors[0.2]
        assert errors[0.05] <= 0.5 * errors[0.1]

    def test_observed_convergence_order(self):
        # across constraint switches the pooled self-convergence order
        # stays at least one
        s = builtin("l-shape")
        dts = np.array([0.4, 0.2, 0.1, 0.05, 0.025])
        ref_cfg = dataclasses.replace(s.default_sim, dt=0.0015625, t_end=4.0,
                                      goal_tolerance=1e-9)
        ref = run(s, ref_cfg).positions[-1]
        errors = []
        for dt in dts:
            cfg = dataclasses.replace(s.default_sim, dt=float(dt), t_end=4.0,
                                      goal_tolerance=1e-9)
            errors.append(np.linalg.norm(run(s, cfg).positions[-1] - ref))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert slope >= 1.0


STATIC_NAMES = [name for name in BUILTIN_NAMES
                if builtin(name).environment.is_static]


def static_starts():
    """(name, start) for every start of the static builtins, then two
    seeded safe starts per static builtin."""
    starts = [pytest.param(name, x0, id=f"{name}-{i}")
              for name in STATIC_NAMES
              for i, x0 in enumerate(builtin(name).all_starts())]
    rng = np.random.default_rng(41)
    for name in STATIC_NAMES:
        s = builtin(name)
        drawn = 0
        while drawn < 2:
            x0 = rng.uniform(*scenario_bounds(s))
            if smooth_barrier(s.environment, s.agent, x0, 0.0,
                              s.cbf).value > 0.0:
                starts.append(pytest.param(name, x0,
                                           id=f"{name}-seeded-{drawn}"))
                drawn += 1
    return starts


def assert_same_result(a, b):
    """Every SimResult field equal bit for bit."""
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert (x.dtype, x.shape) == (y.dtype, y.shape), field.name
            assert x.tobytes() == y.tobytes(), field.name
        else:
            assert repr(x) == repr(y), field.name


def refuse_always(monkeypatch):
    """Make every step take its four full stages."""
    monkeypatch.setattr(polycbf.sim, "_idle_certificate",
                        lambda *args: lambda point, t, u: False)


def count_barrier_calls(monkeypatch):
    """Record the time of every barrier call: the start check's
    `smooth_barrier` and the stages' kernel `_evaluate`."""
    calls = []

    def counting(evaluate):
        def counted(*args, **kwargs):
            calls.append(args[3])
            return evaluate(*args, **kwargs)
        return counted

    for name in ("smooth_barrier", "_evaluate"):
        monkeypatch.setattr(polycbf.sim, name,
                            counting(getattr(polycbf.sim, name)))
    return calls


def moving_starts():
    """(name, start) for both builtin revolving-door starts, two seeded safe
    door starts, and the default start of the spun pyramid."""
    door = builtin("revolving-door")
    starts = [pytest.param("revolving-door", x0, id=f"revolving-door-{i}")
              for i, x0 in enumerate(door.all_starts())]
    rng = np.random.default_rng(43)
    while len(starts) < 4:
        x0 = rng.uniform(*scenario_bounds(door))
        if smooth_barrier(door.environment, door.agent, x0, 0.0,
                          door.cbf).value > 0.0:
            starts.append(pytest.param(
                "revolving-door", x0,
                id=f"revolving-door-seeded-{len(starts) - 2}"))
    starts.append(pytest.param("spun-pyramid", spun_pyramid().default_sim.x0,
                               id="spun-pyramid"))
    return starts


def closing_wall():
    """A point agent at rest at its goal 0.251 from the wall x >= 0, which
    translates toward it at 0.5, with gamma = 2: the start's residual
    dh/dt + gamma h = -0.5 + 0.502 is barely positive, and half a step
    later the wall is 0.2485 away and the residual is -0.003."""
    wall = HalfSpace((1.0, 0.0), (0.0, 0.0), RigidMotion(
        (0.0, 0.0), omega=0.0, linear_velocity=(0.5, 0.0)))
    env = PolytopeEnvironment([wall], [ConvexRegion([0])])
    return Scenario(
        name="closing-wall",
        environment=env,
        agent=AgentShape.point(2),
        controller=DesiredController(goal=(0.251, 0.0)),
        cbf=CbfParams(kappa=5.0, alpha_gain=2.0),
        default_sim=SimConfig(x0=(0.251, 0.0), dt=0.01, t_end=1.0),
    )


def approaching_wall(speed):
    """A point agent 3 cm from the wall x >= 0, with gamma = 2 and a desired
    input (-speed, 0) at the start, so the start's residual is 0.06 - speed;
    the proportional controller slows down as the agent closes in."""
    env = PolytopeEnvironment([HalfSpace((1.0, 0.0), (0.0, 0.0))],
                              [ConvexRegion([0])])
    return Scenario(
        name="wall",
        environment=env,
        agent=AgentShape.point(2),
        controller=DesiredController(goal=(0.03 - speed, 0.0)),
        cbf=CbfParams(kappa=5.0, alpha_gain=2.0),
        default_sim=SimConfig(x0=(0.03, 0.0), dt=0.01, t_end=1.0),
    )


@pytest.mark.bits
class TestIdleCertificate:
    """An inactive full stage anchors a certificate that the curvature
    bound carries over later stages, across steps, in static and moving
    worlds; certified stages skip their barrier calls, with the same bits
    as full stages."""

    @pytest.mark.parametrize("name, x0", static_starts())
    def test_run_equals_full_stages(self, name, x0, monkeypatch):
        s = builtin(name)
        cfg = dataclasses.replace(s.default_sim, x0=x0)
        certified = run(s, cfg)
        refuse_always(monkeypatch)
        assert_same_result(certified, run(s, cfg))

    def test_free_corner_needs_few_barrier_calls(self, monkeypatch):
        calls = count_barrier_calls(monkeypatch)
        res = run(builtin("convex-corner"))
        assert res.times.shape[0] - 1 == 514
        # The start check, whose evaluation anchors the first certificate,
        # then one anchor per idle stretch of 0.19 to 0.56 s, which the
        # certificate carries across steps and through the final row.
        assert len(calls) == 11
        assert calls[:1] == [0.0] and calls.count(0.0) == 1
        assert not res.constraint_active.any()

    @pytest.mark.parametrize("name", ["convex-corner", "revolving-door"])
    def test_anchor_is_smooth_barrier(self, name, monkeypatch):
        # A stage calls the kernel entry, but the evaluation it anchors a
        # certificate with is `smooth_barrier`'s at its point and time.
        s = builtin(name)
        anchors, certificate = [], polycbf.sim._idle_certificate

        def recorded(evaluation, x, t, scenario):
            anchors.append((evaluation, x, t))
            return certificate(evaluation, x, t, scenario)

        monkeypatch.setattr(polycbf.sim, "_idle_certificate", recorded)
        run(s, dataclasses.replace(s.default_sim, t_end=2.0))
        assert len(anchors) > 1  # the start check's and stages'
        for evaluation, x, t in anchors:
            assert_same_result(evaluation, smooth_barrier(
                s.environment, s.agent, x, t, s.cbf))

    @pytest.mark.parametrize("name, x0", moving_starts())
    def test_moving_world_run_equals_full_stages(self, name, x0,
                                                 monkeypatch):
        s = spun_pyramid() if name == "spun-pyramid" else builtin(name)
        cfg = dataclasses.replace(s.default_sim, x0=x0)
        calls = count_barrier_calls(monkeypatch)
        certified = run(s, cfg)
        steps = certified.times.shape[0] - 1
        # Some steps are certified idle and skip their later stages' calls.
        assert len(calls) < 4 * steps + 2
        refuse_always(monkeypatch)
        assert_same_result(certified, run(s, cfg))

    @staticmethod
    def assert_refused_at_stage_2(s, monkeypatch):
        """Stage 1 of a step from the default start is barely inactive and
        stage 2 is active: the certificate must refuse there, and the step
        takes the full stages."""
        x = s.default_sim.x0
        calls = count_barrier_calls(monkeypatch)
        x_next, (_, u_safe, active), _ = step(x, 0.0, s, 0.01)
        assert not active
        assert len(calls) == 4
        point = x + 0.5 * 0.01 * u_safe
        u = s.controller.velocity(point)
        ev = smooth_barrier(s.environment, s.agent, x, 0.0, s.cbf)
        assert not polycbf.sim._idle_certificate(ev, x, 0.0, s)(point, 0.005,
                                                               u)
        stage2 = smooth_barrier(s.environment, s.agent, point, 0.005, s.cbf)
        assert safe_velocity(stage2, u, s.cbf).constraint_active
        refuse_always(monkeypatch)
        assert np.array_equal(step(x, 0.0, s, 0.01)[0], x_next)
        return u_safe

    def test_refuses_input_into_nearby_wall(self, monkeypatch):
        self.assert_refused_at_stage_2(approaching_wall(speed=0.0599),
                                       monkeypatch)

    def test_refuses_wall_closing_on_resting_agent(self, monkeypatch):
        # At rest only the time terms move the residual.
        u_safe = self.assert_refused_at_stage_2(closing_wall(), monkeypatch)
        assert np.array_equal(u_safe, [0.0, 0.0])

    def test_slow_approach_certified(self, monkeypatch):
        # Slow enough that every stage's residual stays positive.
        s = approaching_wall(speed=0.03)
        calls = count_barrier_calls(monkeypatch)
        step(s.default_sim.x0, 0.0, s, 0.01)
        assert len(calls) == 1

    def test_certificate_carries_into_next_step(self, monkeypatch):
        # The first step's anchor certifies all four stages of the second,
        # stage 1 included.
        s = approaching_wall(speed=0.03)
        calls = count_barrier_calls(monkeypatch)
        x1, _, certificate = step(s.default_sim.x0, 0.0, s, 0.01)
        assert certificate is not None
        x2, row, carried = step(x1, 0.01, s, 0.01, certificate)
        assert len(calls) == 1
        assert carried is certificate
        assert row[1] is row[0] and not row[2]
        refuse_always(monkeypatch)
        assert np.array_equal(step(x1, 0.01, s, 0.01)[0], x2)

    @pytest.mark.parametrize("speed, start_calls", [
        pytest.param(0.1, 2, id="active"),
        pytest.param(0.06 - 1e-10, 2, id="idle-below-margin"),
        pytest.param(0.0599, 1, id="idle-above-margin"),
    ])
    def test_start_check_anchors_first_certificate(self, speed, start_calls,
                                                   monkeypatch):
        # The start check's evaluation anchors the run's first certificate
        # whatever its filter says.  Stage 1 refuses that anchor when the
        # start's filter is active (residual -0.04) or idle by less than the
        # certificate's margin (residual 1e-10), and calls the barrier again;
        # at residual 1e-4 it takes the anchor and stage 2 refuses it.
        s = approaching_wall(speed)
        calls = count_barrier_calls(monkeypatch)
        certified = run(s)
        assert calls.count(0.0) == start_calls
        refuse_always(monkeypatch)
        assert_same_result(certified, run(s))


def count_time_bases(monkeypatch):
    calls = []
    time_basis = PolytopeEnvironment._time_basis

    def counted(env, t):
        calls.append(np.size(t))
        return time_basis(env, t)

    monkeypatch.setattr(PolytopeEnvironment, "_time_basis", counted)
    return calls


class TestStageTimeBlocks:
    """`run` hands each block of steps' stage times to the kernel's memo at
    once; the stages' barrier calls then hit it, with the bits of a miss."""

    @pytest.mark.parametrize("name, x0", moving_starts())
    def test_run_equals_run_without_blocks(self, name, x0, monkeypatch):
        s = spun_pyramid() if name == "spun-pyramid" else builtin(name)
        cfg = dataclasses.replace(s.default_sim, x0=x0)
        blocked = run(s, cfg)
        monkeypatch.setattr(polycbf.sim, "_hold_times", lambda *args: None)
        assert_same_result(blocked, run(s, cfg))

    @pytest.mark.parametrize("x0", builtin("revolving-door").all_starts(),
                             ids=["0", "1"])
    def test_door_time_bases_per_block(self, x0, monkeypatch):
        # One time basis for the start check, one batched one per block of
        # steps, and one per kernel block of the rows' h and psi, never one
        # per state: every stage hits the memo.  Each step start is one
        # row.
        s = builtin("revolving-door")
        calls = count_time_bases(monkeypatch)
        rows = run(s, dataclasses.replace(s.default_sim, x0=x0)).times.size
        blocks = oracles.kernel_blocks(rows, s.environment, s.agent)
        assert len(blocks) < rows
        assert len(calls) == (1 + -(-rows // polycbf.sim._STEP_BLOCK)
                              + len(blocks))
        assert calls[-len(blocks):] == blocks


def row_value_runs():
    """(scenario, config, termination): two builtins whose runs mix
    certified and full steps, an error run, a goal run whose steps are
    almost all certified, and a run that starts at its goal, whose one row
    makes the after-loop `barrier_field` call a batch of one."""
    door = builtin("revolving-door")
    return [
        pytest.param(builtin("l-shape"), None, Termination.GOAL,
                     id="l-shape"),
        pytest.param(builtin("revolving-door"), None, Termination.GOAL,
                     id="revolving-door"),
        pytest.param(closing_walls(0.5), None, Termination.ERROR,
                     id="closing-walls-error"),
        pytest.param(builtin("convex-corner"), None, Termination.GOAL,
                     id="convex-corner-goal"),
        pytest.param(door, dataclasses.replace(door.default_sim,
                                               x0=door.controller.goal),
                     Termination.GOAL, id="revolving-door-at-goal"),
    ]


class TestPsi:
    @pytest.mark.parametrize("s, config, termination", row_value_runs())
    def test_psi_is_the_exact_margin_at_each_row(self, s, config,
                                                 termination):
        """Each row's h and psi come from one `barrier_field` call at the
        rows' own times, with the bits of the one-row calls."""
        res = run(s, config)
        assert res.termination is termination
        assert res.times.size > 0
        assert res.psi_values.shape == res.times.shape
        env, agent = s.environment, s.agent
        h = np.array([smooth_barrier(env, agent, p, float(t), s.cbf).value
                      for p, t in zip(res.positions, res.times)])
        psi = np.array([margin_agent(env, agent, p, float(t))
                        for p, t in zip(res.positions, res.times)])
        assert res.h_values.tobytes() == h.tobytes()
        assert res.psi_values.tobytes() == psi.tobytes()
        assert res.min_psi == res.psi_values.min()

    @pytest.mark.parametrize("name", ["revolving-door", "l-shape"])
    def test_one_barrier_field_call_per_run(self, name, monkeypatch):
        # The kernel sizes that call's blocks, in a moving world too.
        calls = []
        field = polycbf.sim.barrier_field

        def counted(env, shape, centers, t, params):
            calls.append(len(centers))
            return field(env, shape, centers, t, params)

        monkeypatch.setattr(polycbf.sim, "barrier_field", counted)
        assert calls == [run(builtin(name)).times.size]


# Covers the first active row of every builtin start that has one (at most
# 2.2 s in) and keeps the full-stage reference quick.
REFERENCE_T_END = 5.0


@pytest.mark.bits
class TestRk4Reference:
    """run() against `oracles.rk4_reference`, plain numpy RK4 with four full
    stages and no idle certificate: every row's position, inputs and active
    flag bit for bit.  The comparisons with run() under `refuse_always`
    share run()'s float stage arithmetic; this one does not."""

    @staticmethod
    def assert_matches_reference(s, x0):
        t_end = min(s.default_sim.t_end, REFERENCE_T_END)
        res = run(s, dataclasses.replace(s.default_sim, x0=x0, t_end=t_end))
        want = oracles.rk4_reference(s, x0, t_end)
        got = (res.positions, res.u_desired, res.u_safe,
               res.constraint_active)
        for name, a, b in zip(("positions", "u_desired", "u_safe",
                               "active"), got, want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name

    @pytest.mark.parametrize("name, x0", [
        pytest.param(name, x0, id=f"{name}-{i}") for name in BUILTIN_NAMES
        for i, x0 in enumerate(builtin(name).all_starts())])
    def test_builtin_starts(self, name, x0):
        self.assert_matches_reference(builtin(name), x0)

    @pytest.mark.parametrize("name", sorted(MOVING_WORLDS))
    def test_moving_worlds(self, name):
        s = MOVING_WORLDS[name]()
        self.assert_matches_reference(s, s.default_sim.x0)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, t_end=0.05)
        with pytest.raises(ValueError):
            SimConfig(goal_tolerance=0.0)

    @pytest.mark.parametrize("field", ["dt", "t_end", "goal_tolerance"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @given(st.floats(), st.floats(), st.floats())
    def test_rejected_or_finite(self, dt, t_end, goal_tolerance):
        try:
            config = SimConfig(dt=dt, t_end=t_end,
                               goal_tolerance=goal_tolerance)
        except ValueError:
            return
        assert all(map(math.isfinite, (config.dt, config.t_end,
                                       config.goal_tolerance,
                                       config.t_end / config.dt)))

    @pytest.mark.parametrize("dt, t_end", [(0.01, 1e308), (1e-300, 1e10),
                                           (np.float64(0.01),
                                            np.float64(1e308))])
    def test_rejects_step_count_overflow(self, dt, t_end):
        # run() sizes its loop by t_end / dt, which must stay finite.
        with pytest.raises(ValueError, match="t_end"):
            SimConfig(dt=dt, t_end=t_end)


class TestCsv:
    def test_format(self, tmp_path):
        s = builtin("l-shape")
        cfg = dataclasses.replace(s.default_sim, t_end=0.2)
        res = run(s, cfg)
        path = tmp_path / "traj.csv"
        res.write_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["t", "p_x", "p_y", "udes_x", "udes_y", "usafe_x",
                          "usafe_y", "h", "constraint_active"]
        assert len(lines) == 1 + res.times.shape[0]
        # 17 significant digits round-trip exactly
        row = lines[5].split(",")
        assert float(row[1]) == res.positions[4][0]
        assert float(row[7]) == res.h_values[4]
        assert row[8] in ("0", "1")

    def test_3d_columns(self, tmp_path):
        s = builtin("pyramid")
        cfg = dataclasses.replace(s.default_sim, t_end=0.1)
        res = run(s, cfg)
        path = tmp_path / "traj3d.csv"
        res.write_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[1:4] == ["p_x", "p_y", "p_z"]
        assert len(header) == 1 + 3 * 3 + 2
