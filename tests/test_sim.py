import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycbf.barrier import CbfParams
from polycbf.geometry import AgentShape, ConvexRegion, HalfSpace, PolytopeEnvironment
from polycbf.safety_filter import DesiredController
from polycbf.scenarios import Scenario, builtin
from polycbf.sim import SimConfig, Termination, UnsafeStartError, run, step


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


class TestStep:
    def test_equilibrium_at_goal(self):
        s = free_space_scenario(goal=(0.0, 0.0), x0=(0.0, 0.0))
        state, fr = step((0.0, 0.0), 0.0, s, dt=0.01)
        assert np.array_equal(state, [0.0, 0.0])
        assert np.array_equal(fr.u_safe, [0.0, 0.0])

    def test_exponential_approach(self):
        # unsaturated linear feedback: x(t) = g + (x0 - g) exp(-t)
        goal = np.array([0.3, 0.2])
        s = free_space_scenario(goal=goal, x0=(0.0, 0.0))
        res = run(s)
        exact = goal + (np.zeros(2) - goal) * math.exp(-res.times[-1])
        assert np.linalg.norm(res.positions[-1] - exact) <= 1e-9

    def test_euler_vs_rk4_cross_check(self):
        s = builtin("l-shape")
        cfg = dataclasses.replace(s.default_sim, dt=1e-3, t_end=1.0,
                                  goal_tolerance=1e-9)
        rk4 = run(s, cfg, method="rk4")
        euler = run(s, cfg, method="euler")
        assert np.linalg.norm(rk4.positions[-1] - euler.positions[-1]) <= 1e-3

    def test_unknown_method_rejected(self):
        s = free_space_scenario(goal=(1.0, 0.0), x0=(0.0, 0.0))
        with pytest.raises(ValueError, match="method"):
            step((0.0, 0.0), 0.0, s, dt=0.01, method="heun")


class TestRun:
    def test_unsafe_start_refused(self):
        s = builtin("l-shape")
        cfg = dataclasses.replace(s.default_sim, x0=np.array([1.0, 0.5]))
        with pytest.raises(UnsafeStartError):
            run(s, cfg)

    def test_reaches_goal_and_reports_time(self):
        s = free_space_scenario(goal=(0.5, 0.0), x0=(0.0, 0.0))
        cfg = dataclasses.replace(s.default_sim, t_end=30.0,
                                  goal_tolerance=0.05)
        res = run(s, cfg)
        assert res.termination is Termination.GOAL
        assert res.reached_goal_at is not None
        assert np.linalg.norm(res.positions[-1] - [0.5, 0.0]) <= 0.05

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

    def test_record_stride(self):
        s = free_space_scenario(goal=(10.0, 0.0), x0=(0.0, 0.0))
        cfg = dataclasses.replace(s.default_sim, record_stride=7)
        res = run(s, cfg)
        # every 7th step plus the final state
        assert res.times[0] == 0.0
        assert res.times[-1] == pytest.approx(1.0)
        steps = np.round(res.times[:-1] / cfg.dt).astype(int)
        assert np.all(steps % 7 == 0)

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


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.1, t_end=0.05)
        with pytest.raises(ValueError):
            SimConfig(goal_tolerance=0.0)
        with pytest.raises(ValueError):
            SimConfig(record_stride=0)

    @pytest.mark.parametrize("stride", [2.5, 1.000001, 7.999])
    def test_rejects_fractional_record_stride(self, stride):
        with pytest.raises(ValueError, match="record_stride"):
            SimConfig(record_stride=stride)

    def test_integral_float_record_stride_accepted(self):
        config = SimConfig(record_stride=2.0)
        assert config.record_stride == 2
        assert isinstance(config.record_stride, int)

    @pytest.mark.parametrize("field", ["dt", "t_end", "goal_tolerance",
                                       "record_stride"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})

    @given(st.floats(), st.floats(), st.floats(),
           st.one_of(st.integers(), st.floats()))
    def test_rejected_or_finite(self, dt, t_end, goal_tolerance,
                                record_stride):
        try:
            config = SimConfig(dt=dt, t_end=t_end,
                               goal_tolerance=goal_tolerance,
                               record_stride=record_stride)
        except ValueError:
            return
        assert all(map(math.isfinite, (config.dt, config.t_end,
                                       config.goal_tolerance,
                                       config.record_stride)))


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
