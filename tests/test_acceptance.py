"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured number next to its tolerance."""

import dataclasses
import math
import time

import numpy as np
import pytest

from polycbf.barrier import (BarrierEvaluation, CbfParams, barrier_field,
                             provable_buffer)
from polycbf.safety_filter import safe_velocity
from polycbf.scenarios import BUILTIN_NAMES, builtin, static_variant
from polycbf.sim import Termination, run
from polycbf.verify import (grid_points, gradient_audit,
                            hull_containment_audit, qp_bruteforce,
                            scenario_bounds)

H_TOL = 1e-3  # discretization allowance on the forward-invariance bound


def report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_l_shape_reproduction():
    s = builtin("l-shape")
    assert (s.cbf.kappa, s.cbf.buffer, s.cbf.alpha_gain) == (5.0, 0.7, 2.0)
    assert (s.controller.gain, s.controller.u_max) == (1.0, 1.0)
    assert len(s.alternative_starts) >= 3
    worst_h, worst_wall = np.inf, 0.0
    for x0 in s.all_starts():
        cfg = dataclasses.replace(s.default_sim, x0=x0)
        t0 = time.perf_counter()
        res = run(s, cfg)
        wall = time.perf_counter() - t0
        worst_h = min(worst_h, res.min_h)
        worst_wall = max(worst_wall, wall)
        assert res.termination is Termination.GOAL, f"start {x0} missed goal"
        assert np.linalg.norm(res.positions[-1] - s.controller.goal) <= 0.05
    report(1, worst_h >= -H_TOL and worst_wall < 1.0,
           f"{1 + len(s.alternative_starts)} starts reach the goal, "
           f"min h {worst_h:.2e} >= -1e-3, slowest run {worst_wall:.2f} s < 1 s")


def test_criterion_2_ellipse_reproduction():
    s = builtin("ellipse")
    assert s.cbf.buffer == 0.0
    assert s.environment.num_half_spaces * s.agent.num_vertices == 1024
    res = run(s)
    assert res.termination is Termination.GOAL
    full = dataclasses.replace(s.default_sim, goal_tolerance=1e-12)
    t0 = time.perf_counter()
    run(s, full)  # forced through the whole 20 s horizon
    wall = time.perf_counter() - t0
    report(2, res.min_h >= -H_TOL and wall < 5.0,
           f"goal at {res.reached_goal_at:.2f} s, min h {res.min_h:.2e} "
           f">= -1e-3, 20 s horizon in {wall:.2f} s < 5 s")


def test_criterion_3_revolving_door():
    s = builtin("revolving-door")
    assert s.environment.half_spaces[0].motion.spin == 0.2
    res = run(s)
    assert res.termination is Termination.GOAL
    # passes through the door: some sample sits between the blade tips
    radii = np.linalg.norm(res.positions, axis=1)
    assert radii.min() < 2.0, "trajectory never entered the door region"

    frozen = static_variant(s)
    static_res = run(frozen)
    assert static_res.termination is Termination.HORIZON
    gap = np.linalg.norm(static_res.positions[-1] - s.controller.goal)
    assert gap > s.default_sim.goal_tolerance, "static door did not deadlock"
    report(3, res.min_h >= -H_TOL and static_res.min_h >= -H_TOL,
           f"rotating door crossed (goal at {res.reached_goal_at:.2f} s, "
           f"min h {res.min_h:.2e}); static door deadlocks "
           f"{gap:.2f} m short at the horizon")


def test_criterion_4_pyramid():
    s = builtin("pyramid")
    assert s.agent.num_vertices == 8
    res = run(s)
    final = res.positions[-1]
    goal = s.controller.goal
    hover = (np.linalg.norm(final[:2] - goal[:2]) <= 0.05
             and final[2] >= 0.2)
    report(4, res.min_h >= -H_TOL and hover,
           f"cube hovers at z = {final[2]:.2f} above the ground goal "
           f"(xy gap {np.linalg.norm(final[:2] - goal[:2]):.3f} m), "
           f"min h {res.min_h:.2e} >= -1e-3")


def test_criterion_5_smoothing_sandwich():
    # 100 blocks of 1000 kernel states, cycling over the builtins, with
    # kappa and (in a moving world) t drawn per block.  At buffer 0,
    # psi - ln(max_j |I_j| N_v)/kappa <= h <= psi + ln(N_p)/kappa.
    rng = np.random.default_rng(2024)
    scenarios = [builtin(name) for name in BUILTIN_NAMES]
    worst = 0.0
    for block in range(100):
        s = scenarios[block % len(scenarios)]
        env = s.environment
        kappa = float(rng.uniform(0.3, 60.0))
        t_max = 0.0 if env.is_static else s.default_sim.t_end
        t = float(rng.uniform(0.0, t_max))
        low, high = scenario_bounds(s)
        centers = rng.uniform(low, high, size=(1000, env.dimension))
        h, psi = barrier_field(env, s.agent, centers, t,
                               CbfParams(kappa=kappa))
        pairs = max(len(r) for r in env.regions) * s.agent.num_vertices
        below = math.log(pairs) / kappa
        above = math.log(env.num_regions) / kappa
        worst = np.max([worst, np.max(psi - below - h),
                        np.max(h - psi - above)])
    report(5, worst <= 1e-12,
           f"10^5 kernel states: worst sandwich violation {worst:.2e} "
           f"<= 1e-12")


def test_criterion_6_under_approximation():
    worst_overall = -np.inf
    for name in BUILTIN_NAMES:
        s = builtin(name)
        resolution = 50 if s.environment.dimension == 3 else 200
        low, high = scenario_bounds(s)
        grid = grid_points(low, high, resolution)
        params = CbfParams(kappa=s.cbf.kappa,
                           buffer=provable_buffer(s.environment),
                           alpha_gain=s.cbf.alpha_gain)
        h, margin = barrier_field(s.environment, s.agent, grid, 0.0, params)
        worst = float(np.max(h - margin))
        assert worst <= 1e-12, f"{name}: h - psi = {worst}"
        worst_overall = max(worst_overall, worst)
        if s.environment.num_regions == 1:
            # single region: exact under-approximation already at b = 0
            h0, margin0 = barrier_field(s.environment, s.agent, grid, 0.0,
                                        CbfParams(kappa=s.cbf.kappa))
            assert float(np.max(h0 - margin0)) <= 0.0
    report(6, True,
           f"all builtins: h <= psi with b = ln(N_p), worst gap "
           f"{worst_overall:.2e} <= 1e-12 (single-region b = 0 exact)")


def test_criterion_7_hull_containment():
    worst = np.inf
    for name in BUILTIN_NAMES:
        rep = hull_containment_audit(builtin(name), n_states=500,
                                     n_weights=20, seed=7)
        assert rep.passed, f"{name}: worst gap {rep.worst}"
        worst = min(worst, rep.worst)
    report(7, worst >= -1e-12,
           f"10^4 (state, weight) pairs per scenario: worst hull gap "
           f"{worst:.2e} >= -1e-12")


def test_criterion_8_gradient_audit():
    worst = 0.0
    for name in BUILTIN_NAMES:
        err = gradient_audit(builtin(name), n_states=1000, seed=11,
                             step=1e-5).worst
        assert err <= 1e-5, f"{name}: relative error {err}"
        worst = max(worst, err)
    err20 = gradient_audit(builtin("l-shape"), n_states=1000, seed=11,
                           kappa=20.0).worst
    worst = max(worst, err20)
    report(8, worst <= 1e-5,
           f"10^3 states per builtin (kappa <= 20): worst relative "
           f"derivative error {worst:.2e} <= 1e-5")


def test_criterion_9_filter_optimality():
    rng = np.random.default_rng(404)
    worst_slack, worst_parallel, worst_comp = 0.0, 0.0, 0.0
    for _ in range(100_000):
        dim = 2 if rng.random() < 0.5 else 3
        ev = BarrierEvaluation(value=float(rng.normal()),
                               gradient=rng.normal(size=dim),
                               time_partial=float(rng.normal()),
                               nonsmooth_value=0.0)
        params = CbfParams(kappa=5.0, alpha_gain=float(rng.uniform(0.2, 5.0)))
        u_des = rng.normal(size=dim)
        res = safe_velocity(ev, u_des, params)
        delta = res.u_safe - res.u_desired
        coeff = float(delta @ ev.gradient) / float(ev.gradient @ ev.gradient)
        worst_slack = max(worst_slack, -res.slack)
        worst_parallel = max(worst_parallel, float(
            np.linalg.norm(delta - coeff * ev.gradient)), -coeff)
        worst_comp = max(worst_comp, abs(coeff * res.slack))
    assert worst_slack <= 1e-12
    assert worst_parallel <= 1e-12
    assert worst_comp <= 1e-10

    # independent dense-grid QP agreement on 10^3 instances
    radius, n = 3.0, 151
    spacing = 2 * radius / (n - 1)
    worst_dev = 0.0
    checked = 0
    while checked < 1000:
        grad = rng.normal(size=2)
        if np.linalg.norm(grad) < 0.3:
            continue
        ev = BarrierEvaluation(value=float(rng.uniform(-0.5, 0.5)),
                               gradient=grad,
                               time_partial=float(rng.uniform(-0.5, 0.5)),
                               nonsmooth_value=0.0)
        params = CbfParams(kappa=5.0, alpha_gain=2.0)
        u_des = rng.normal(size=2)
        closed = safe_velocity(ev, u_des, params).u_safe
        correction = float(np.linalg.norm(closed - u_des))
        if correction > radius - spacing:
            continue
        brute = qp_bruteforce(ev, u_des, params, radius, n)
        worst_dev = max(worst_dev, abs(float(np.linalg.norm(brute - u_des))
                                       - correction))
        checked += 1
    report(9, worst_dev <= 2 * spacing,
           f"10^5 KKT instances clean (slack {worst_slack:.1e}, parallel "
           f"{worst_parallel:.1e}, compl. {worst_comp:.1e}); 10^3 "
           f"brute-force instances within {worst_dev:.3f} <= 2 spacings "
           f"({2 * spacing:.3f}) in modification norm")


def test_criterion_10_kappa_convergence():
    s = builtin("l-shape")
    low, high = scenario_bounds(s)
    grid = grid_points(low, high, 200)
    sup = {}
    for kappa in (5.0, 100.0):
        params = CbfParams(kappa=kappa, buffer=s.cbf.buffer,
                           alpha_gain=s.cbf.alpha_gain)
        h, margin = barrier_field(s.environment, s.agent, grid, 0.0, params)
        sup[kappa] = float(np.max(np.abs(h + s.cbf.buffer / kappa - margin)))
    bound = math.log(s.environment.num_half_spaces
                     + s.environment.num_regions) / 100.0 + 1e-9
    ok = sup[100.0] <= sup[5.0] / 10.0 and sup[100.0] <= bound
    report(10, ok,
           f"sup error {sup[100.0]:.4f} at kappa=100 <= {sup[5.0]:.4f}/10 "
           f"(kappa=5) and <= ln(N_w + N_p)/100 = {bound:.4f}")
