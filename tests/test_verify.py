import dataclasses
import json
import math

import numpy as np
import pytest

import polycbf.verify
from polycbf.barrier import (BarrierEvaluation, CbfParams, barrier_field,
                             margin_agent, provable_buffer)
from polycbf.geometry import AgentShape, PolytopeEnvironment
from polycbf.safety_filter import safe_velocity
from polycbf.scenarios import BUILTIN_NAMES, builtin
from polycbf.verify import (AuditReport, grid_points, gradient_audit,
                            hull_containment_audit, qp_closed_form_audit,
                            run_suite, scenario_bounds,
                            smoothing_sandwich_audit,
                            under_approximation_audit)

import oracles
from oracles import InfeasibleGridError, qp_bruteforce


def make_eval(grad, h, dht=0.0):
    return BarrierEvaluation(value=h, gradient=np.asarray(grad, dtype=float),
                             time_partial=dht, nonsmooth_value=h)


class TestQpBruteforce:
    def test_inactive_returns_desired(self):
        ev = make_eval((1.0, 0.0), h=1.0)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        u = qp_bruteforce(ev, (1.0, 0.0), params, grid_radius=2.0, grid_n=101)
        assert np.allclose(u, [1.0, 0.0], atol=1e-12)

    def test_active_matches_closed_form(self):
        ev = make_eval((1.0, 0.0), h=0.0)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        u_des = np.array([-1.0, 0.0])
        closed = safe_velocity(ev, u_des, params).u_safe
        spacing = 2 * 2.0 / 200
        u = qp_bruteforce(ev, u_des, params, grid_radius=2.0, grid_n=201)
        assert np.linalg.norm(u - closed) <= 2 * spacing

    def test_random_instances_match_within_resolution(self):
        # The grid argmin can slide along the constraint boundary (the
        # objective is flat there), so position is compared against the
        # sqrt-envelope of that slide while the modification norm -- the QP
        # objective -- must agree within two spacings.
        rng = np.random.default_rng(101)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        radius, n = 3.0, 151
        spacing = 2 * radius / (n - 1)
        for _ in range(300):
            grad = rng.normal(size=2)
            while np.linalg.norm(grad) < 0.3:  # keep corrections in the ball
                grad = rng.normal(size=2)
            ev = make_eval(grad, float(rng.uniform(-0.5, 0.5)),
                           float(rng.uniform(-0.5, 0.5)))
            u_des = rng.normal(size=2)
            closed = safe_velocity(ev, u_des, params).u_safe
            correction = np.linalg.norm(closed - u_des)
            if correction > radius - spacing:
                continue  # projection falls outside the search ball
            u = qp_bruteforce(ev, u_des, params, radius, n)
            assert abs(np.linalg.norm(u - u_des) - correction) <= 2 * spacing
            envelope = 2 * spacing + math.sqrt(
                4 * spacing * (correction + spacing))
            assert np.linalg.norm(u - closed) <= envelope

    def test_infeasible_reported(self):
        ev = make_eval((1.0, 0.0), h=-1000.0)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        with pytest.raises(InfeasibleGridError):
            qp_bruteforce(ev, (0.0, 0.0), params, grid_radius=1.0, grid_n=101)

    def test_grid_n_minimum(self):
        ev = make_eval((1.0, 0.0), h=1.0)
        with pytest.raises(ValueError, match="grid_n"):
            qp_bruteforce(ev, (0.0, 0.0), CbfParams(kappa=5.0), 1.0, 50)


class TestHullContainment:
    def test_point_agent_gap_zero(self):
        report = hull_containment_audit(builtin("l-shape"))
        assert report.worst == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_weights_nonnegative(self):
        # a vertex itself: margin(vertex) >= agent margin by definition
        s = builtin("crossroad")
        point = AgentShape.point(2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            center = rng.uniform(-3, 3, 2)
            agent_margin = margin_agent(s.environment, s.agent, center)
            for vertex in oracles.vertices(s.agent, center):
                assert margin_agent(s.environment, point, vertex) \
                    >= agent_margin - 1e-15

    @pytest.mark.parametrize("name", ["crossroad", "ellipse",
                                      "revolving-door", "pyramid"])
    def test_audit_nonnegative(self, name):
        report = hull_containment_audit(builtin(name), n_states=100,
                                        n_weights=10, seed=7)
        assert report.passed
        assert report.worst >= -1e-12

    @pytest.mark.parametrize("name", ["l-shape", "pyramid"])
    def test_audit_reuses_face_terms_in_static_world(self, monkeypatch,
                                                     name):
        # One frame for the point shape and one for the agent, not two
        # per state; each frame evaluates the time basis once.
        calls = []
        time_basis = PolytopeEnvironment._time_basis

        def counted(env, t):
            calls.append(t)
            return time_basis(env, t)

        monkeypatch.setattr(PolytopeEnvironment, "_time_basis", counted)
        hull_containment_audit(builtin(name), n_states=50, seed=7)
        assert len(calls) == 2

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_audit_matches_loop_oracle(self, name, seed):
        # Two margin calls for every state at once against two per state.
        report = hull_containment_audit(builtin(name), n_states=60,
                                        n_weights=12, seed=seed)
        assert report.worst == oracles.hull_audit_loop(
            builtin(name), n_states=60, n_weights=12, seed=seed)


@pytest.mark.parametrize("audit", [gradient_audit, hull_containment_audit])
def test_door_frames_do_not_grow_with_states(monkeypatch, audit):
    # Per-row times put every state of a kernel block into one time basis,
    # one row per distinct time of the block, so the audit evaluates one
    # basis per kernel block, never one per state.
    calls = []
    time_basis = PolytopeEnvironment._time_basis

    def counted(env, t):
        calls.append(np.size(t))
        return time_basis(env, t)

    monkeypatch.setattr(PolytopeEnvironment, "_time_basis", counted)
    s = builtin("revolving-door")
    env, point, step = s.environment, AgentShape.point(2), 1e-5
    for n_states in (20, 150):
        calls.clear()
        audit(s, n_states=n_states, seed=3)
        times = polycbf.verify._draw_states(s, np.random.default_rng(3),
                                            n_states)[1]
        if audit is gradient_audit:
            # The centres, then 4 probes per state and t +/- step.
            probes = np.concatenate((np.repeat(times, 4), times + step,
                                     times - step))
            blocks = (oracles.kernel_block_times(times, env, s.agent)
                      + oracles.kernel_block_times(probes, env, s.agent))
        else:  # 20 hull points per state, then the agent at each state
            blocks = (oracles.kernel_block_times(np.repeat(times, 20), env,
                                                 point)
                      + oracles.kernel_block_times(times, env, s.agent))
            # A block of point rows takes one basis row per state in it.
            ends = np.cumsum(oracles.kernel_blocks(20 * n_states, env, point))
            states = [(end - 1) // 20 - start // 20 + 1
                      for start, end in zip([0, *ends[:-1]], ends)]
            assert calls[:len(states)] == states
        assert calls == blocks
        assert len(calls) < n_states


class TestUnderApproximation:
    def test_single_region_exact(self):
        s = builtin("convex-corner")
        worst = under_approximation_audit(s, s.cbf, 80).worst
        assert worst <= 0.0

    def test_l_shape_provable_buffer(self):
        s = builtin("l-shape")
        params = CbfParams(kappa=5.0, buffer=math.log(5), alpha_gain=2.0)
        worst = under_approximation_audit(s, params, 200).worst
        assert worst <= 0.0

    def test_l_shape_bundled_buffer_reported(self):
        # with the bundled b = 0.7 < ln 5 the margin is informational only
        s = builtin("l-shape")
        worst = under_approximation_audit(s, s.cbf, 100).worst
        assert np.isfinite(worst)
        # smaller buffer can only raise h, hence the reported worst value
        provable = under_approximation_audit(
            s, CbfParams(kappa=5.0, buffer=math.log(5), alpha_gain=2.0),
            100).worst
        assert worst >= provable


class TestGradientAudit:
    @pytest.mark.parametrize("name", ["l-shape", "revolving-door", "pyramid"])
    def test_small_error_on_builtins(self, name):
        worst = gradient_audit(builtin(name), n_states=60, seed=5).worst
        assert worst <= 1e-5

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_loop_oracle(self, name, seed):
        # One kernel call per block of rows against one state per call.
        report = gradient_audit(builtin(name), n_states=40, seed=seed)
        assert report.worst == oracles.gradient_audit_loop(
            builtin(name), n_states=40, seed=seed)

    def test_deterministic_under_seed(self):
        a = gradient_audit(builtin("crossroad"), n_states=20, seed=9)
        b = gradient_audit(builtin("crossroad"), n_states=20, seed=9)
        assert a == b

    def test_kappa_override(self):
        # Another kappa is a scenario with replaced `CbfParams`.
        s = builtin("l-shape")
        s = dataclasses.replace(s, cbf=dataclasses.replace(s.cbf, kappa=20.0))
        worst = gradient_audit(s, n_states=30, seed=5).worst
        assert worst <= 1e-5
        assert worst == oracles.gradient_audit_loop(s, n_states=30, seed=5)


class TestHelpers:
    def test_scenario_bounds_cover_geometry(self):
        s = builtin("l-shape")
        low, high = scenario_bounds(s)
        for point in [hs.anchor for hs in s.environment.half_spaces] \
                + s.all_starts() + [s.controller.goal]:
            assert np.all(point >= low) and np.all(point <= high)

    def test_grid_points_shape(self):
        grid = grid_points((0.0, 0.0), (1.0, 2.0), 5)
        assert grid.shape == (25, 2)
        assert grid[0] == pytest.approx([0.0, 0.0])
        assert grid[-1] == pytest.approx([1.0, 2.0])
        grid3 = grid_points((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 4)
        assert grid3.shape == (64, 3)

    def test_audit_report_json(self):
        report = AuditReport(name="demo", parameters={"n": 3}, worst=-1e-13,
                             passed=True, seed=42)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["name"] == "demo"
        assert payload["passed"] is True
        assert payload["seed"] == 42
        assert payload["worst"] == -1e-13


class TestRandomizedAudits:
    def test_qp_closed_form(self):
        report = qp_closed_form_audit(500, seed=3)
        assert report.name == "qp-closed-form"
        assert report.parameters == {"n": 500}
        assert report.passed and report.seed == 3

    @pytest.mark.parametrize("u_safe", [
        lambda u: u,                          # input left alone
        lambda u: np.full_like(u, np.nan),    # NaN output
    ])
    def test_qp_closed_form_catches_false_projection(self, monkeypatch,
                                                     u_safe):
        # A filter that claims to have projected every input onto the
        # boundary while it did not.
        def fake(grad, u, time_partial, value, params):
            return u_safe(u), np.ones(u.shape[0], dtype=bool)

        monkeypatch.setattr(polycbf.verify, "_project_rows", fake)
        report = qp_closed_form_audit(500, seed=3)
        assert report.passed is False
        assert not report.worst <= 1e-3

    @pytest.mark.bits
    @pytest.mark.parametrize("n, seed", [
        *(pytest.param(5000, seed, id=str(seed)) for seed in range(4)),
        *(pytest.param(n, seed, id=f"n{n}-{seed}")
          for n in (1, 2, 4097) for seed in range(4))])
    def test_qp_closed_form_matches_loop_oracle(self, n, seed):
        # One `_project_rows` call per block, np.vecdot on (M, 3) rows, a
        # planar problem's padded with a +0.0 gradient entry, against one
        # one-row `safe_velocity` call, ndarray.dot, per problem and of its
        # own dimension.  4097 problems end on a block of one problem.
        assert qp_closed_form_audit(n, seed).worst == \
            oracles.qp_audit_loop(n, seed)

    @pytest.mark.parametrize("audit, kwargs, name", [
        (qp_closed_form_audit, {"n": 0}, "n"),
        (qp_closed_form_audit, {"n": -5}, "n"),
        (gradient_audit, {"n_states": 0}, "n_states"),
        (hull_containment_audit, {"n_states": 0}, "n_states"),
        (hull_containment_audit, {"n_weights": 0}, "n_weights"),
        (under_approximation_audit, {"resolution": 0}, "resolution"),
    ])
    def test_audit_that_samples_nothing_raises(self, audit, kwargs, name):
        # An empty sample would pass on no evidence.
        args = () if audit is qp_closed_form_audit else (builtin("l-shape"),)
        with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
            audit(*args, **kwargs)

    def test_under_approximation_defaults(self):
        s = builtin("l-shape")
        report = under_approximation_audit(s)
        assert report.parameters == {"scenario": "l-shape",
                                     "buffer": provable_buffer(s.environment),
                                     "resolution": 200}
        assert report.passed and report.seed is None

    def test_run_suite_rejects_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("everything", [], seed=0, n=10)

    def test_smoothing_sandwich(self):
        for name in BUILTIN_NAMES:
            report = smoothing_sandwich_audit(builtin(name), seed=3)
            assert report.name == "smoothing-sandwich"
            assert report.parameters == {"scenario": name, "n_draws": 8,
                                         "n_states": 250}
            assert report.passed and report.worst <= 1e-12
            assert report.seed == 3

    @pytest.mark.parametrize("name", ["convex-corner", "l-shape",
                                      "revolving-door", "pyramid"])
    @pytest.mark.parametrize("side", ["above", "below", "nan"])
    def test_smoothing_sandwich_catches_breach(self, monkeypatch, name, side):
        # A barrier 1e-9 outside the sandwich on one side, or NaN.
        def fake(env, shape, centers, t, params):
            psi = barrier_field(env, shape, centers, t, params)[1]
            pairs = max(len(r) for r in env.regions) * shape.num_vertices
            h = {"above": psi + math.log(env.num_regions) / params.kappa,
                 "below": psi - math.log(pairs) / params.kappa,
                 "nan": np.full_like(psi, np.nan)}[side]
            return h + (1e-9 if side == "above" else -1e-9), psi

        monkeypatch.setattr(polycbf.verify, "barrier_field", fake)
        report = smoothing_sandwich_audit(builtin(name), seed=3)
        assert report.passed is False
        assert not report.worst <= 5e-10
