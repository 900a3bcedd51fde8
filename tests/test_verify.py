import json
import math

import numpy as np
import pytest

from polycbf.barrier import BarrierEvaluation, CbfParams, provable_buffer
from polycbf.safety_filter import safe_velocity
from polycbf.scenarios import builtin
from polycbf.verify import (AuditReport, InfeasibleGridError, grid_points,
                            gradient_audit, hull_containment_audit,
                            hull_containment_sample, qp_bruteforce,
                            qp_closed_form_audit, scenario_bounds,
                            smoothing_sandwich_audit,
                            under_approximation_audit)


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
        s = builtin("l-shape")
        gap = hull_containment_sample(s.environment, s.agent, (0.5, -1.0),
                                      0.0, n_samples=50,
                                      rng=np.random.default_rng(1))
        assert gap == pytest.approx(0.0, abs=1e-15)

    def test_one_hot_weights_nonnegative(self):
        # a vertex itself: margin(vertex) >= agent margin by definition
        from polycbf.barrier import margin_agent, margin_point
        s = builtin("crossroad")
        rng = np.random.default_rng(3)
        for _ in range(100):
            center = rng.uniform(-3, 3, 2)
            agent_margin = margin_agent(s.environment, s.agent, center)
            for vertex in s.agent.vertices(center):
                assert margin_point(s.environment, vertex) >= agent_margin - 1e-15

    @pytest.mark.parametrize("name", ["crossroad", "ellipse",
                                      "revolving-door", "pyramid"])
    def test_audit_nonnegative(self, name):
        report = hull_containment_audit(builtin(name), n_states=100,
                                        n_weights=10, seed=7)
        assert report.passed
        assert report.worst >= -1e-12

    def test_requires_samples(self):
        s = builtin("crossroad")
        with pytest.raises(ValueError):
            hull_containment_sample(s.environment, s.agent, (0.0, 0.0), 0.0, 0)


class TestUnderApproximation:
    def test_single_region_exact(self):
        s = builtin("convex-corner")
        low, high = scenario_bounds(s)
        grid = grid_points(low, high, 80)
        worst = under_approximation_audit(s.environment, s.agent, s.cbf, grid)
        assert worst <= 0.0

    def test_l_shape_provable_buffer(self):
        s = builtin("l-shape")
        low, high = scenario_bounds(s)
        grid = grid_points(low, high, 200)
        params = CbfParams(kappa=5.0, buffer=math.log(5), alpha_gain=2.0)
        worst = under_approximation_audit(s.environment, s.agent, params, grid)
        assert worst <= 0.0

    def test_l_shape_bundled_buffer_reported(self):
        # with the bundled b = 0.7 < ln 5 the margin is informational only
        s = builtin("l-shape")
        low, high = scenario_bounds(s)
        grid = grid_points(low, high, 100)
        worst = under_approximation_audit(s.environment, s.agent, s.cbf, grid)
        assert np.isfinite(worst)
        # smaller buffer can only raise h, hence the reported worst value
        provable = under_approximation_audit(
            s.environment, s.agent,
            CbfParams(kappa=5.0, buffer=math.log(5), alpha_gain=2.0), grid)
        assert worst >= provable


class TestGradientAudit:
    @pytest.mark.parametrize("name", ["l-shape", "revolving-door", "pyramid"])
    def test_small_error_on_builtins(self, name):
        worst = gradient_audit(builtin(name), n_states=60, seed=5)
        assert worst <= 1e-5

    def test_deterministic_under_seed(self):
        a = gradient_audit(builtin("crossroad"), n_states=20, seed=9)
        b = gradient_audit(builtin("crossroad"), n_states=20, seed=9)
        assert a == b

    def test_kappa_override(self):
        worst = gradient_audit(builtin("l-shape"), n_states=30, seed=5,
                               kappa=20.0)
        assert worst <= 1e-5


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
        payload = json.loads(report.to_json())
        assert payload["name"] == "demo"
        assert payload["passed"] is True
        assert payload["seed"] == 42
        assert payload["worst"] == -1e-13


class TestRandomizedAudits:
    def test_qp_closed_form(self):
        report = qp_closed_form_audit(500, np.random.default_rng(3), seed=3)
        assert report.name == "qp-closed-form"
        assert report.parameters == {"n": 500}
        assert report.passed and report.seed == 3

    def test_smoothing_sandwich(self):
        report = smoothing_sandwich_audit(np.random.default_rng(3), seed=3)
        assert report.name == "smoothing-sandwich"
        assert report.passed and report.worst <= 1e-12
