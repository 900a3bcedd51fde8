import copy
import hashlib
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
import json
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import polycbf.barrier
from polycbf.barrier import (BarrierEvaluation, CbfParams, barrier_field,
                             curvature_bounds, gradient_bounds, margin_agent,
                             margin_field, provable_buffer, smooth_barrier)
from polycbf.geometry import (AgentShape, ConvexRegion, HalfSpace,
                              PolytopeEnvironment, RigidMotion)
from polycbf.scenarios import BUILTIN_NAMES, builtin, load, save
from polycbf.verify import hull_containment_audit, scenario_bounds

import oracles
from worlds import MOVING_WORLDS, POLYGON_DOORS


def box_env(width=4.0):
    """Single convex region [0, w] x [0, w] with unit normals."""
    walls = [
        HalfSpace((1.0, 0.0), (0.0, 0.0)),
        HalfSpace((-1.0, 0.0), (width, 0.0)),
        HalfSpace((0.0, 1.0), (0.0, 0.0)),
        HalfSpace((0.0, -1.0), (0.0, width)),
    ]
    return PolytopeEnvironment(walls, [ConvexRegion([0, 1, 2, 3])])


class TestSmoothMinMax:
    def test_sandwich_bounds(self):
        # The kernel's soft min over a region's face-vertex pairs lies within
        # ln(|I_j| N_v)/kappa below the exact min, and its soft max over
        # regions within ln(N_p)/kappa above the exact max.
        rng = np.random.default_rng(11)
        scenarios = [builtin(name) for name in BUILTIN_NAMES]
        for _ in range(500):
            s = scenarios[rng.integers(len(scenarios))]
            env = s.environment
            kappa = float(rng.uniform(0.3, 60.0))
            t_max = 0.0 if env.is_static else s.default_sim.t_end
            t = float(rng.uniform(0.0, t_max))
            low, high = scenario_bounds(s)
            centers = rng.uniform(low, high, size=(8, env.dimension))
            h, psi = barrier_field(env, s.agent, centers, t,
                                   CbfParams(kappa=kappa))
            pairs = max(len(r) for r in env.regions) * s.agent.num_vertices
            below = math.log(pairs) / kappa
            above = math.log(env.num_regions) / kappa
            assert np.all(psi - below - 1e-12 <= h)
            assert np.all(h <= psi + above + 1e-12)


class TestMargins:
    def test_convex_corner(self):
        walls = [HalfSpace((1.0, 0.0), (2.0, 2.0)),
                 HalfSpace((0.0, 1.0), (2.0, 2.0))]
        env = PolytopeEnvironment(walls, [ConvexRegion([0, 1])])
        assert margin_agent(env, AgentShape.point(2), (3.0, 4.0)) == 1.0

    def test_concave_corner_boundary_point(self):
        # On one boundary, inside the other half-space: the max is positive.
        walls = [HalfSpace((1.0, 0.0), (2.0, 2.0)),
                 HalfSpace((0.0, 1.0), (2.0, 2.0))]
        env = PolytopeEnvironment(walls, [ConvexRegion([0]), ConvexRegion([1])])
        assert margin_agent(env, AgentShape.point(2), (2.0, 3.0)) == 1.0

    def test_l_shape_inside_notch(self):
        env = builtin("l-shape").environment
        p = (1.7, 1.6)
        # deep inside the notch region the margin equals min of its two faces
        point = AgentShape.point(2)
        assert margin_agent(env, point, p) == pytest.approx(0.6, abs=1e-15)
        assert margin_agent(env, point, p) == pytest.approx(
            oracles.naive_margin(env, point, p), abs=1e-15)

    def test_crossroad_diamond_touching_both_roads(self):
        s = builtin("crossroad")
        # diamond near the corner, touching the two road boundaries
        assert margin_agent(s.environment, s.agent, (0.5, 0.5)) == 0.0

    def test_square_agent_clearance(self):
        env = box_env(4.0)
        square = AgentShape([(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)])
        center = (2.0, 1.7)
        value = margin_agent(env, square, center)
        assert value == pytest.approx(1.2, abs=1e-15)  # to the y=0 wall
        assert value == pytest.approx(
            oracles.naive_margin(env, square, center), abs=1e-15)

    def test_matches_bruteforce_on_builtins(self):
        rng = np.random.default_rng(9)
        for name in ("l-shape", "crossroad", "ellipse", "revolving-door",
                     "pyramid"):
            s = builtin(name)
            dim = s.environment.dimension
            for _ in range(50):
                center = rng.uniform(-4, 4, dim)
                t = float(rng.uniform(0, 10))
                assert margin_agent(s.environment, s.agent, center, t) == \
                    pytest.approx(oracles.naive_margin(s.environment, s.agent,
                                                       center, t), abs=1e-12)

    def test_margin_field_matches_scalar(self):
        s = builtin("crossroad")
        rng = np.random.default_rng(2)
        centers = rng.uniform(-3, 3, size=(40, 2))
        batch = margin_field(s.environment, s.agent, centers)
        for c, m in zip(centers, batch):
            assert m == pytest.approx(margin_agent(s.environment, s.agent, c),
                                      abs=1e-15)


class TestSmoothBarrier:
    def test_single_half_space_is_exact(self):
        env = PolytopeEnvironment([HalfSpace((0.6, 0.8), (1.0, 0.0))],
                                  [ConvexRegion([0])])
        point = AgentShape.point(2)
        for kappa in (1.0, 5.0, 50.0):
            ev = smooth_barrier(env, point, (3.0, 2.0), 0.0,
                                CbfParams(kappa=kappa))
            expected = 0.6 * 2.0 + 0.8 * 2.0
            assert ev.value == pytest.approx(expected, abs=1e-14)
            assert np.allclose(ev.gradient, [0.6, 0.8], atol=1e-14)
            assert ev.time_partial == 0.0
            assert ev.nonsmooth_value == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("center", [np.zeros(3), np.zeros((1, 2))],
                             ids=["3-vector", "row-matrix"])
    def test_rejects_center_of_wrong_shape(self, center):
        s = builtin("l-shape")
        message = r"center must have shape \(2,\), got shape "
        with pytest.raises(ValueError, match=message):
            smooth_barrier(s.environment, s.agent, center, 0.0, s.cbf)
        with pytest.raises(ValueError, match=message):
            margin_agent(s.environment, s.agent, center)

    def test_two_ties_at_kappa_five(self):
        # psi1 = psi2 = 0 gives the canonical softmin value -ln(2)/5
        walls = [HalfSpace((1.0, 0.0), (0.0, 0.0)),
                 HalfSpace((0.0, 1.0), (0.0, 0.0))]
        env = PolytopeEnvironment(walls, [ConvexRegion([0, 1])])
        ev = smooth_barrier(env, AgentShape.point(2), (0.0, 0.0), 0.0,
                            CbfParams(kappa=5.0))
        assert ev.value == pytest.approx(-math.log(2) / 5, abs=1e-15)
        # equal weights on both normals
        assert np.allclose(ev.gradient, [0.5, 0.5], atol=1e-15)

    def test_matches_naive_reference_on_l_shape(self):
        s = builtin("l-shape")
        point = AgentShape.point(2)
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = rng.uniform(-1.5, 3.5, 2)
            ev = smooth_barrier(s.environment, point, p, 0.0, s.cbf)
            ref = oracles.naive_smooth_value(s.environment, point, p, 0.0,
                                             s.cbf)
            assert ev.value == pytest.approx(ref, abs=1e-12)

    def test_matches_naive_reference_on_polytope_agents(self):
        rng = np.random.default_rng(13)
        for name in ("crossroad", "ellipse", "revolving-door", "pyramid"):
            s = builtin(name)
            dim = s.environment.dimension
            for _ in range(25):
                p = rng.uniform(-3, 3, dim)
                t = float(rng.uniform(0, 5))
                ev = smooth_barrier(s.environment, s.agent, p, t, s.cbf)
                ref = oracles.naive_smooth_value(s.environment, s.agent, p, t,
                                                 s.cbf)
                assert ev.value == pytest.approx(ref, abs=1e-12)

    def test_single_region_agent_formula(self):
        # One convex region: reduces to the flat softmin over faces x vertices
        env = box_env(4.0)
        square = AgentShape([(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)])
        rng = np.random.default_rng(17)
        for _ in range(50):
            p = rng.uniform(0.0, 4.0, 2)
            ev = smooth_barrier(env, square, p, 0.0, CbfParams(kappa=5.0))
            ref = oracles.naive_convex_region_smooth_value(env, square, p,
                                                           0.0, 5.0)
            assert ev.value == pytest.approx(ref, abs=1e-13)

    def test_buffer_shifts_value(self):
        env = box_env()
        point = AgentShape.point(2)
        p = (1.0, 2.0)
        plain = smooth_barrier(env, point, p, 0.0, CbfParams(kappa=5.0))
        buffered = smooth_barrier(env, point, p, 0.0,
                                  CbfParams(kappa=5.0, buffer=0.7))
        assert buffered.value == pytest.approx(plain.value - 0.7 / 5.0)
        assert np.array_equal(plain.gradient, buffered.gradient)

    def test_overflow_safe_at_extreme_exponents(self):
        env = builtin("l-shape").environment
        point = AgentShape.point(2)
        params = CbfParams(kappa=100.0)
        with np.errstate(over="raise", invalid="raise"):
            for p in [(-100.0, 0.0), (100.0, 100.0), (1.5, 1.5), (50.0, -50.0)]:
                ev = smooth_barrier(env, point, p, 0.0, params)
                assert np.isfinite(ev.value)
                assert np.all(np.isfinite(ev.gradient))
                assert np.isfinite(ev.time_partial)

    def test_under_approximates_single_region(self):
        env = box_env()
        point = AgentShape.point(2)
        rng = np.random.default_rng(23)
        for _ in range(300):
            p = rng.uniform(-1, 5, 2)
            ev = smooth_barrier(env, point, p, 0.0, CbfParams(kappa=5.0))
            assert ev.value <= ev.nonsmooth_value

    @pytest.mark.parametrize("name", ["l-shape", "crossroad", "ellipse",
                                      "revolving-door", "pyramid"])
    def test_under_approximates_with_provable_buffer(self, name):
        s = builtin(name)
        params = CbfParams(kappa=s.cbf.kappa,
                           buffer=provable_buffer(s.environment),
                           alpha_gain=s.cbf.alpha_gain)
        rng = np.random.default_rng(29)
        dim = s.environment.dimension
        centers = rng.uniform(-4, 4, size=(500, dim))
        h, margin = barrier_field(s.environment, s.agent, centers, 0.0, params)
        assert np.max(h - margin) <= 1e-12

    def test_convergence_in_kappa(self):
        s = builtin("l-shape")
        rng = np.random.default_rng(37)
        centers = rng.uniform(-2, 4, size=(2000, 2))
        errors = {}
        for kappa in (5.0, 20.0, 100.0):
            params = CbfParams(kappa=kappa, buffer=0.7)
            h, margin = barrier_field(s.environment, s.agent, centers, 0.0,
                                      params)
            errors[kappa] = np.max(np.abs(h + 0.7 / kappa - margin))
            n_w = s.environment.num_half_spaces
            n_p = s.environment.num_regions
            assert errors[kappa] <= math.log(n_w * 1 + n_p) / kappa + 1e-9
        assert errors[100.0] < errors[20.0] < errors[5.0]


class TestGradients:
    @pytest.mark.parametrize("name", ["l-shape", "crossroad", "ellipse",
                                      "revolving-door", "pyramid"])
    def test_gradient_matches_fd(self, name):
        s = builtin(name)
        env, shape = s.environment, s.agent
        dim = env.dimension
        rng = np.random.default_rng(41)
        for kappa in (5.0, 20.0):
            params = CbfParams(kappa=kappa)
            for _ in range(40):
                c = rng.uniform(-4, 4, dim)
                t = float(rng.uniform(0, 10)) if not env.is_static else 0.0
                ev = smooth_barrier(env, shape, c, t, params)
                fd = oracles.fd_gradient(
                    lambda x: smooth_barrier(env, shape, x, t, params).value, c)
                denom = max(np.linalg.norm(fd), 1.0)
                assert np.linalg.norm(ev.gradient - fd) / denom <= 1e-5

    def test_time_partial_matches_fd(self):
        s = builtin("revolving-door")
        rng = np.random.default_rng(43)
        for _ in range(60):
            c = rng.uniform(-3, 3, 2)
            t = float(rng.uniform(0, 30))
            ev = smooth_barrier(s.environment, s.agent, c, t, s.cbf)
            fd = oracles.fd_scalar(
                lambda tt: smooth_barrier(s.environment, s.agent, c, tt,
                                          s.cbf).value, t)
            assert abs(ev.time_partial - fd) / max(abs(fd), 1.0) <= 1e-5

    def test_static_time_partial_is_zero(self):
        s = builtin("ellipse")
        ev = smooth_barrier(s.environment, s.agent, (-4.0, 0.0), 3.0, s.cbf)
        assert ev.time_partial == 0.0

    def test_high_kappa_gradient(self):
        # kappa = 100 with a smaller step still matches closely
        s = builtin("l-shape")
        params = CbfParams(kappa=100.0)
        rng = np.random.default_rng(47)
        for _ in range(20):
            c = rng.uniform(-1, 3, 2)
            ev = smooth_barrier(s.environment, s.agent, c, 0.0, params)
            fd = oracles.fd_gradient(
                lambda x: smooth_barrier(s.environment, s.agent, x, 0.0,
                                         params).value, c, step=1e-6)
            denom = max(np.linalg.norm(fd), 1.0)
            assert np.linalg.norm(ev.gradient - fd) / denom <= 1e-6


class TestBarrierField:
    def test_matches_scalar_path(self, monkeypatch):
        monkeypatch.setattr(polycbf.barrier, "_CHUNK", 17)
        s = builtin("revolving-door")
        rng = np.random.default_rng(53)
        centers = rng.uniform(-4, 4, size=(64, 2))
        t = 2.5
        h, margin = barrier_field(s.environment, s.agent, centers, t, s.cbf)
        for c, hv, mv in zip(centers, h, margin):
            ev = smooth_barrier(s.environment, s.agent, c, t, s.cbf)
            assert hv == pytest.approx(ev.value, abs=1e-13)
            assert mv == pytest.approx(ev.nonsmooth_value, abs=1e-15)

    def test_rejects_bad_shape(self):
        s = builtin("l-shape")
        with pytest.raises(ValueError):
            barrier_field(s.environment, s.agent, np.zeros((4, 3)), 0.0, s.cbf)


class TestBatchOracles:
    """The batch paths against the naive loops, which share no code with
    the kernel."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_fields_match_naive_loops(self, name, monkeypatch):
        # blocks of 4 put block boundaries after centers 4 and 8
        monkeypatch.setattr(polycbf.barrier, "_CHUNK", 4)
        s = builtin(name)
        env, shape = s.environment, s.agent
        rng = np.random.default_rng(59)
        low, high = scenario_bounds(s)
        for _ in range(3):
            t = float(rng.uniform(0.0, s.default_sim.t_end))
            centers = rng.uniform(low, high, size=(11, env.dimension))
            h, margin = barrier_field(env, shape, centers, t, s.cbf)
            margins = margin_field(env, shape, centers, t)
            for c, hv, mv, mf in zip(centers, h, margin, margins):
                psi = oracles.naive_margin(env, shape, c, t)
                assert hv == pytest.approx(
                    oracles.naive_smooth_value(env, shape, c, t, s.cbf),
                    abs=1e-12)
                assert mv == pytest.approx(psi, abs=1e-12)
                assert mf == pytest.approx(psi, abs=1e-12)

    @pytest.mark.parametrize("name, kappa", [("ellipse", 200.0),
                                             ("ellipse", 1000.0),
                                             ("revolving-door", 2000.0)])
    def test_large_kappa(self, name, kappa, monkeypatch):
        # kappa * psi reaches 1e3 to 1e4 here, beyond the naive smooth
        # loop's range, and from kappa = 1000 on kappa * n_i . dp_k alone
        # passes the exp overflow point.  The exact margin bounds h from
        # both sides, and the normals are unit vectors.
        monkeypatch.setattr(polycbf.barrier, "_CHUNK", 16)
        s = builtin(name)
        env, shape = s.environment, s.agent
        params = CbfParams(kappa=kappa)
        rng = np.random.default_rng(61)
        low, high = scenario_bounds(s)
        t = 0.0 if env.is_static else float(rng.uniform(0.0, 10.0))
        centers = rng.uniform(low, high, size=(40, env.dimension))
        n_rows = sum(len(r) for r in env.regions) * shape.num_vertices
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            h, margin = barrier_field(env, shape, centers, t, params)
            for c, hv, mv in zip(centers, h, margin):
                psi = oracles.naive_margin(env, shape, c, t)
                assert mv == pytest.approx(psi, abs=1e-12)
                assert psi - math.log(n_rows) / kappa - 1e-12 <= hv
                assert hv <= psi + math.log(env.num_regions) / kappa + 1e-12
                ev = smooth_barrier(env, shape, c, t, params)
                assert ev.value == pytest.approx(hv, abs=1e-12)
                assert np.linalg.norm(ev.gradient) <= 1.0 + 1e-12
                assert np.isfinite(ev.time_partial)


def random_moving_env(rng, dim):
    """Seven random faces in three regions: three ride a motion that pivots
    off the origin and drifts, two a motion that only turns, two are static.
    Every region mixes faces of different motions."""
    def spin():
        if dim == 2:
            return {"omega": float(rng.uniform(-1.0, 1.0))}
        return {"axis_rate": rng.uniform(-1.0, 1.0, 3)}

    drifting = RigidMotion(rng.uniform(-2.0, 2.0, dim),
                           linear_velocity=rng.uniform(-0.5, 0.5, dim),
                           **spin())
    turning = RigidMotion(rng.uniform(-2.0, 2.0, dim), **spin())
    walls = []
    for motion in [drifting] * 3 + [turning] * 2 + [None] * 2:
        normal = rng.normal(size=dim)
        walls.append(HalfSpace(normal / np.linalg.norm(normal),
                               rng.uniform(-1.5, 1.5, dim), motion))
    return PolytopeEnvironment(walls, [[0, 3, 5], [1, 4], [2, 6]])


def single_motion_env(rng, motion):
    """Four random faces in two regions, three riding `motion` and one
    static."""
    dim = motion.dimension
    walls = [HalfSpace(rng.normal(size=dim), rng.uniform(-1.5, 1.5, dim), m)
             for m in (motion, motion, motion, None)]
    return PolytopeEnvironment(walls, [[0, 3], [1, 2]])


def law_case(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    if name == "zero-rate-3d":
        return single_motion_env(rng, RigidMotion(
            rng.uniform(-2.0, 2.0, 3), axis_rate=(0.0, 0.0, 0.0),
            linear_velocity=rng.uniform(-0.5, 0.5, 3)))
    if name == "translation-only":
        return single_motion_env(rng, RigidMotion(
            rng.uniform(-2.0, 2.0, 2), omega=0.0,
            linear_velocity=rng.uniform(-0.5, 0.5, 2)))
    return random_moving_env(rng, int(name[0]))


class TestMovingWorlds:
    """Frames with a drifting, off-origin pivot and 3D axis rates, which the
    builtins (one door turning about the origin) do not reach."""

    @pytest.mark.parametrize("name", ["2d", "3d", "zero-rate-3d",
                                      "translation-only"])
    def test_coefficient_law_matches_rotations(self, name):
        # The frame and the kernel's face terms come from fixed coefficients
        # of a time basis; the reference turns each face by its motion's
        # rotation matrices.  Checked at one time and at a batch of times.
        env = law_case(name)
        rng = np.random.default_rng(3)
        shape = AgentShape(rng.uniform(-0.3, 0.3, size=(5, env.dimension)))
        times = np.array([0.0, 0.37, 19.9, 200.0])
        batch_frame = env.frame(times)

        def assert_close(got, want):
            assert (got is None) == (want is None)
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

        for i, t in enumerate(times):
            want = [np.array(q) for q in zip(*(
                oracles.halfspace_frame(hs, t) for hs in env.half_spaces))]
            for got in (env.frame(t), [q[i] for q in batch_frame]):
                for g, w in zip(got, want, strict=True):
                    assert_close(g, w)
        for kappa in (None, 4.0):
            batch = polycbf.barrier._face_terms(env, shape, times, kappa)
            for i, t in enumerate(times):
                want = oracles.reference_face_terms(env, shape, t, kappa)
                one = polycbf.barrier._face_terms(env, shape, float(t), kappa)
                for got in (one, [None if q is None else q[i]
                                  for q in batch]):
                    for g, w in zip(got, want, strict=True):
                        assert_close(g, w)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_kernel_matches_naive_loops(self, dim):
        rng = np.random.default_rng(67 + dim)
        for _ in range(10):
            env = random_moving_env(rng, dim)
            shape = AgentShape(rng.uniform(-0.3, 0.3, size=(4, dim)))
            params = CbfParams(kappa=float(rng.uniform(2.0, 8.0)),
                               buffer=float(rng.uniform(0.0, 1.0)))

            def h(x, t):
                return oracles.naive_smooth_value(env, shape, x, t, params)

            for _ in range(10):
                c = rng.uniform(-3.0, 3.0, dim)
                t = float(rng.uniform(0.0, 5.0))
                ev = smooth_barrier(env, shape, c, t, params)
                assert ev.value == pytest.approx(h(c, t), abs=1e-12)
                assert ev.nonsmooth_value == pytest.approx(
                    oracles.naive_margin(env, shape, c, t), abs=1e-12)
                fd = oracles.fd_gradient(lambda x: h(x, t), c)
                assert np.linalg.norm(ev.gradient - fd) \
                    / max(np.linalg.norm(fd), 1.0) <= 1e-5
                fd_t = oracles.fd_scalar(lambda tt: h(c, tt), t)
                assert abs(ev.time_partial - fd_t) / max(abs(fd_t), 1.0) \
                    <= 1e-5


def assert_same_bits(got, want):
    """Equal results bit for bit: BarrierEvaluation fields, tuples of
    arrays, arrays or floats."""
    if isinstance(want, BarrierEvaluation):
        got, want = astuple(got), astuple(want)
    if isinstance(want, tuple):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)
        return
    assert np.array_equal(got, want)
    assert np.asarray(got).dtype == np.asarray(want).dtype


class TestFaceTermMemo:
    """The kernel memoises the centre-independent terms on the environment;
    any mix of shapes, kappas, psi-only calls and times must return exactly
    what a never-used environment returns."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_interleaved_calls_match_fresh_env(self, name):
        s = builtin(name)
        env = s.environment
        pristine = copy.deepcopy(env)
        shapes = (s.agent, AgentShape.point(env.dimension))
        params = (s.cbf, replace(s.cbf, kappa=2.5 * s.cbf.kappa))
        if env.is_static:
            times = (0.0, 1.3, 0.0)
        else:
            t, dt = 1.1, s.default_sim.dt
            times = (t, 2.9, t, t + 0.5 * dt, t + 0.5 * dt, t + dt)
        rng = np.random.default_rng(71)
        centers = rng.uniform(*scenario_bounds(s), size=(40, env.dimension))
        # One time per centre, the scalar t among them: in a moving world
        # these calls neither read nor replace the memo.
        per_row = np.where(np.arange(40) % 3, rng.uniform(0.0, 20.0, 40), 0.0)

        def calls(shape, p, t):
            if p is None:  # psi only
                return [(margin_field, shape, centers, t),
                        (margin_field, shape, centers, per_row + t),
                        (margin_agent, shape, centers[1], t)]
            return [(smooth_barrier, shape, centers[0], t, p),
                    (barrier_field, shape, centers, per_row + t, p),
                    (barrier_field, shape, centers, t, p)]

        # Consecutive keys differ in the shape alone, in kappa alone (or
        # kappa against psi only), and in t alone.
        order = []
        for t in times:
            order += [(shape, p, t) for p in (*params, None)
                      for shape in shapes]
            order += [(shape, p, t) for shape in shapes
                      for p in (None, *params, None)]
        order += [(shape, p, t) for shape in shapes for p in (*params, None)
                  for t in times]
        for fn, *args in (c for key in order for c in calls(*key)):
            entry = env._memo
            got = fn(env, *args)
            assert_same_bits(got, fn(copy.deepcopy(pristine), *args))
            if not env.is_static and np.ndim(args[2]) == 1:
                assert env._memo is entry

    @pytest.mark.parametrize("name", [*MOVING_WORLDS, "moving-3d"])
    def test_block_terms_match_fresh_misses(self, name):
        if name == "moving-3d":
            _, env, shape, params, bounds = invariance_cases()[-1]
        else:
            s = MOVING_WORLDS[name]()
            env, shape, params = s.environment, s.agent, s.cbf
            bounds = scenario_bounds(s)
        pristine = copy.deepcopy(env)
        kappa, dt = params.kappa, 0.01
        # The stage times of steps 40 to 71, as `sim.run` hands them over.
        # At i = 41, 47, 57 and 70, i dt + dt is an ulp off (i + 1) dt, and
        # each of the two is a time of its own.
        starts = np.arange(40, 72) * dt
        times = np.concatenate((starts, starts + 0.5 * dt, starts + dt))
        for i in (41, 47, 57, 70):
            stage_4, next_start = i * dt + dt, (i + 1) * dt
            assert abs(stage_4 - next_start) == math.ulp(next_start)
            assert stage_4 in times and next_start in times
        polycbf.barrier._hold_times(env, shape, times, kappa)
        entry = env._memo
        center = np.random.default_rng(5).uniform(*bounds)
        for t in times.tolist():
            got = polycbf.barrier._face_terms(env, shape, t, kappa)
            assert env._memo is entry  # served from the block
            want = polycbf.barrier._face_terms(copy.deepcopy(pristine), shape,
                                               t, kappa)
            for g, w in zip(got, want):
                assert g.flags.c_contiguous
                assert (g.dtype, g.shape) == (w.dtype, w.shape)
                assert g.tobytes() == w.tobytes()
            assert_same_bits(
                smooth_barrier(env, shape, center, t, params),
                smooth_barrier(copy.deepcopy(pristine), shape, center, t,
                               params))
            assert env._memo is entry

    @pytest.mark.parametrize("name", [*MOVING_WORLDS, "moving-3d"])
    def test_held_times_are_c_contiguous(self, name):
        # The one-row kernel takes each held time's views as they are.
        if name == "moving-3d":
            _, env, shape, params, _ = invariance_cases()[-1]
        else:
            s = MOVING_WORLDS[name]()
            env, shape, params = s.environment, s.agent, s.cbf
        times = np.arange(0.0, 2.0, 0.005)
        for kappa in (params.kappa, None):
            polycbf.barrier._hold_times(env, shape, times, kappa)
            held = env._memo[2]
            assert list(held) == times.tolist()
            for normals, *_, normal_rates, _ in held.values():
                assert normals.flags.c_contiguous
                assert normal_rates.flags.c_contiguous

    def test_shape_law_built_once_per_shape(self, monkeypatch):
        # In a moving world `_row_terms` runs only to build a shape law.
        # The hull audit takes every point margin, then every agent margin,
        # each in several kernel blocks.
        built = []
        row_terms = polycbf.barrier._row_terms

        def counted(env, shape, frame):
            built.append(shape.num_vertices)
            return row_terms(env, shape, frame)

        monkeypatch.setattr(polycbf.barrier, "_row_terms", counted)
        s = builtin("revolving-door")
        assert hull_containment_audit(s).passed
        assert built == [1, s.agent.num_vertices]

    def test_blocks_leave_static_worlds_alone(self):
        s = builtin("l-shape")
        env = s.environment
        smooth_barrier(env, s.agent, s.default_sim.x0, 0.0, s.cbf)
        entry = env._memo
        polycbf.barrier._hold_times(env, s.agent, np.array([0.0, 0.5]),
                                    s.cbf.kappa)
        assert env._memo is entry

    def test_shared_env_across_threads(self):
        # Four threads make scalar calls while a fifth installs blocks of
        # their times on the same env.
        s = builtin("revolving-door")
        env, dt = s.environment, s.default_sim.dt
        pristine = copy.deepcopy(env)
        shapes = (s.agent, AgentShape.point(2))
        times = (0.4, 0.4 + 0.5 * dt, 0.4 + dt, 3.0)
        center = np.array([-1.5, 0.5])

        def sequence(seed):
            # Runs of one key, so that a thread's own memo hits race with
            # the other threads' replacements.
            rng = np.random.default_rng(seed)
            keys = zip(rng.integers(2, size=60), rng.integers(4, size=60))
            return [(int(k), float(times[j])) for k, j in keys
                    for _ in range(5)]

        def evaluate(on, seq):
            return [smooth_barrier(on, shapes[k], center, t, s.cbf)
                    for k, t in seq]

        def install(on, seq):
            out = []
            for k, t in seq:
                polycbf.barrier._hold_times(on, shapes[k], np.array(times),
                                            s.cbf.kappa)
                out.append(smooth_barrier(on, shapes[k], center, t, s.cbf))
            return out

        workers = [evaluate] * 4 + [install]
        sequences = [sequence(seed) for seed in range(5)]
        serial = [work(copy.deepcopy(pristine), seq)
                  for work, seq in zip(workers, sequences)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ThreadPoolExecutor(max_workers=5) as pool:
                threaded = list(pool.map(lambda work, seq: work(env, seq),
                                         workers, sequences, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial):
            for g, w in zip(got, want):
                assert_same_bits(g, w)


BATCH_SIZES = (1, 2, 7, 64, 300, 5000)

# Face counts of `many_faced_env`'s regions, in region order.
MANY_FACES = (3, 1, 9, 1, 17, 2, 130, 1, 9, 2)


def many_faced_env():
    """A static world whose ten regions have the face counts MANY_FACES:
    regular polygons of 3, 9, 17 and 130 sides, wedges of two faces and
    half-planes.  Its region sums take every branch of numpy's pairwise
    order, and its groups of regions both slice and index-array indexers
    (`geometry._region_groups`)."""
    walls, regions = [], []
    for k, sides in enumerate(MANY_FACES):
        angles = 2.0 * np.pi * (np.arange(sides) + 0.5 * k) / sides
        centre = 1.5 * np.array([np.cos(0.7 * k), np.sin(0.7 * k)])
        radius = 1.0 + 0.1 * k
        regions.append(list(range(len(walls), len(walls) + sides)))
        for angle in angles:
            outward = np.array([np.cos(angle), np.sin(angle)])
            walls.append(HalfSpace(-outward, centre + radius * outward))
    return PolytopeEnvironment(walls, regions)


# Region count of `many_regions_env`: above 128 and not a multiple of 8.
MANY_REGIONS = 137


def many_regions_env():
    """A static world of MANY_REGIONS single-face regions, half-planes
    u_k . p <= r_k around the origin.  Its soft max over regions takes
    every branch of numpy's pairwise order: the split above 128 rows and
    the rows left over past a multiple of 8."""
    walls = []
    for k in range(MANY_REGIONS):
        angle = 2.0 * np.pi * k / MANY_REGIONS
        outward = np.array([np.cos(angle), np.sin(angle)])
        walls.append(HalfSpace(-outward, (1.0 + 0.01 * k) * outward))
    return PolytopeEnvironment(walls, [[k] for k in range(MANY_REGIONS)])


def invariance_cases():
    """(name, env, shape, params, bounds) for every builtin plus a 3D
    moving world with two axis rates, which no builtin has, a static world
    of regions with up to 130 faces, where no builtin has more than two,
    and a static world of 137 regions, where no builtin has more than 32.
    The moving 3D world comes last."""
    cases = []
    for name in BUILTIN_NAMES:
        s = builtin(name)
        cases.append((name, s.environment, s.agent, s.cbf,
                      scenario_bounds(s)))
    rng = np.random.default_rng(89)
    cases.append(("many-faced", many_faced_env(),
                  AgentShape(rng.uniform(-0.2, 0.2, size=(4, 2))),
                  CbfParams(kappa=4.0, buffer=math.log(len(MANY_FACES))),
                  (np.full(2, -3.5), np.full(2, 3.5))))
    cases.append(("many-regions", many_regions_env(),
                  AgentShape(rng.uniform(-0.2, 0.2, size=(3, 2))),
                  CbfParams(kappa=4.0, buffer=math.log(MANY_REGIONS)),
                  (np.full(2, -3.5), np.full(2, 3.5))))
    rng = np.random.default_rng(83)
    cases.append(("moving-3d", random_moving_env(rng, 3),
                  AgentShape(rng.uniform(-0.3, 0.3, size=(5, 3))),
                  CbfParams(kappa=4.0, buffer=0.5),
                  (np.full(3, -3.0), np.full(3, 3.0))))
    return cases


def kernel_digest(m=300):
    """sha256 of the kernel's outputs over m seeded centres per case, at
    one t and at one t per centre."""
    digest = hashlib.sha256()
    for _, env, shape, params, bounds in invariance_cases():
        rng = np.random.default_rng(31)
        centers = rng.uniform(*bounds, size=(m, env.dimension))
        for t in (0.37, rng.uniform(0.0, 20.0, m)):
            for out in polycbf.barrier._evaluate(env, shape, centers, t,
                                                 params, derivatives=True):
                digest.update(np.ascontiguousarray(out).tobytes())
    return digest.hexdigest()


class TestBatchInvariance:
    """Row i of a kernel batch equals the one-row call bit for bit, whatever
    the batch size M and the BLAS thread count; a batch with one time per
    centre equals the one-row calls at those times."""

    @pytest.mark.bits
    @pytest.mark.parametrize("case", invariance_cases(),
                             ids=lambda case: case[0])
    def test_rows_match_one_row_calls(self, case):
        _, env, shape, params, bounds = case
        rng = np.random.default_rng(29)
        n = max(BATCH_SIZES)
        centers = rng.uniform(*bounds, size=(n, env.dimension))
        times = rng.uniform(0.0, 20.0, n)  # a static world ignores them

        def evaluate(points, t):
            return polycbf.barrier._evaluate(env, shape, points, t, params,
                                             derivatives=True)

        for t, one_row in (
                (0.37, [evaluate(c, 0.37) for c in centers]),
                (times, [evaluate(c, float(ti))
                         for c, ti in zip(centers, times)])):
            for m in BATCH_SIZES:
                batch = evaluate(centers[:m], t if np.ndim(t) == 0 else t[:m])
                for k, got in enumerate(batch):
                    want = np.array([row[k] for row in one_row[:m]])
                    assert np.array_equal(got, want), (m, k)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_rows_do_not_depend_on_blas_threads(self, threads):
        # The thread count is set on the child process only.
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        node = "tests/test_barrier.py::TestBatchInvariance::" \
            "test_rows_match_one_row_calls"
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             node], cwd=root, env=env, capture_output=True, text=True,
            timeout=600)
        assert result.returncode == 0, result.stdout[-3000:]
        result = subprocess.run(
            [sys.executable, "-c",
             "import test_barrier; print(test_barrier.kernel_digest())"],
            cwd=root / "tests", env=dict(env, PYTHONPATH=str(root / "src")),
            capture_output=True, text=True, timeout=600)
        assert result.stdout.strip() == kernel_digest(), result.stderr

    def test_fields_take_one_time_per_centre(self, monkeypatch):
        monkeypatch.setattr(polycbf.barrier, "_CHUNK", 7)
        s = builtin("revolving-door")
        rng = np.random.default_rng(37)
        centers = rng.uniform(*scenario_bounds(s), size=(40, 2))
        times = rng.uniform(0.0, 20.0, 40)
        h, margin = barrier_field(s.environment, s.agent, centers, times,
                                  s.cbf)
        psi = margin_field(s.environment, s.agent, centers, times)
        for i, (c, t) in enumerate(zip(centers, times)):
            ev = smooth_barrier(s.environment, s.agent, c, float(t), s.cbf)
            assert (h[i], margin[i]) == (ev.value, ev.nonsmooth_value)
            assert psi[i] == margin_agent(s.environment, s.agent, c, float(t))
        with pytest.raises(ValueError, match="one time per centre"):
            barrier_field(s.environment, s.agent, centers, times[:-1], s.cbf)


class TestKernelBlocks:
    """`_fields` is the one place that sizes kernel batches: _CHUNK rows,
    but in a moving world at one time per centre max(1, _CHUNK // (2p + 2
    + N_v)) rows, whose per-time terms then hold no more floats than
    _CHUNK rows of face values."""

    @staticmethod
    def block_rows(monkeypatch):
        rows = []
        evaluate = polycbf.barrier._evaluate

        def counted(env, shape, centers, *args, **kwargs):
            rows.append(len(centers))
            return evaluate(env, shape, centers, *args, **kwargs)

        monkeypatch.setattr(polycbf.barrier, "_evaluate", counted)
        return rows

    @pytest.mark.parametrize("name", ["revolving-door", "l-shape"])
    def test_blocks_follow_the_rule(self, name, monkeypatch):
        s = builtin(name)
        env, m = s.environment, 5000
        rows = self.block_rows(monkeypatch)
        centers = np.random.default_rng(3).uniform(*scenario_bounds(s),
                                                   size=(m, 2))
        per_row = np.linspace(0.0, 20.0, m)
        for shape in (s.agent, AgentShape.point(2)):
            size = polycbf.barrier._CHUNK
            if not env.is_static:
                size //= 2 * 2 + 2 + shape.num_vertices
            for t, want in ((per_row, size), (1.5, polycbf.barrier._CHUNK)):
                rows.clear()
                barrier_field(env, shape, centers, t, s.cbf)
                assert rows == [want] * (m // want) + [m % want]
                assert rows == oracles.kernel_blocks(m, env, shape,
                                                     np.ndim(t) == 1)
        if not env.is_static:  # the door's agent has 6 vertices
            assert oracles.kernel_blocks(m, env, s.agent)[0] == 341

    def test_one_row_blocks_at_least(self, monkeypatch):
        # A _CHUNK below one row's face terms still makes progress.
        monkeypatch.setattr(polycbf.barrier, "_CHUNK", 7)
        s = builtin("revolving-door")
        rows = self.block_rows(monkeypatch)
        centers = np.zeros((20, 2))
        barrier_field(s.environment, s.agent, centers, np.zeros(20), s.cbf)
        assert rows == [1] * 20
        rows.clear()
        barrier_field(s.environment, s.agent, centers, 0.0, s.cbf)
        assert rows == [7, 7, 6]


# A crossroad with normals of length 3, 0.5 and 2 and a pentagon agent: the
# softmin across the strip of normals (0, -/+3) is where grad h turns
# fastest, within 1 % of L = 9 kappa.
SCALED_WORLD = {
    "dimension": 2,
    "halfspaces": [
        {"normal": [0.0, -3.0], "anchor": [0.0, 1.0]},
        {"normal": [0.0, 3.0], "anchor": [0.0, -1.0]},
        {"normal": [-0.5, 0.0], "anchor": [1.0, 0.0]},
        {"normal": [0.5, 0.0], "anchor": [-1.0, 0.0]},
        {"normal": [1.2, -1.6], "anchor": [-2.0, 2.0]},
    ],
    "regions": [[0, 1], [2, 3, 4]],
    "agent": {"offsets": [[0.2, 0.0], [0.06, 0.19], [-0.16, 0.12],
                          [-0.16, -0.12], [0.06, -0.19]]},
    "controller": {"goal": [0.0, 3.0], "gain": 1.0, "u_max": 1.0},
    "cbf": {"kappa": 5.0, "buffer": 0.0, "alpha_gain": 2.0},
    "sim": {"dt": 0.01, "t_end": 5.0, "x0": [-3.0, 0.0],
            "goal_tolerance": 0.05},
}

def mixed_zero_minimum(values):
    """Whether the minimum of values is 0.0, taken by +0.0 and -0.0
    entries both, and no entry is NaN."""
    if np.isnan(values).any() or values.min() != 0.0:
        return False
    signs = np.signbit(values[values == 0.0])
    return bool(signs.any() and not signs.all())


def regions_of(counts):
    """A static world whose regions have the given face counts, in order,
    over copies of one half-plane: `_reduce_regions` reads only how the
    faces fall into regions."""
    stops = np.cumsum(counts).tolist()
    return PolytopeEnvironment(
        [HalfSpace((1.0, 0.0), (0.0, 0.0))] * stops[-1],
        [list(range(a, b)) for a, b in zip([0, *stops], stops)])


@pytest.mark.bits
class TestRegionReductions:
    """`_reduce_regions` over a face-major (R, M) array equals `reduceat`
    along the rows of its (M, R) transpose bit for bit, for every region
    length, with NaN, infinities and both zeros among the entries."""

    LENGTHS = (*range(1, 41), 64, 127, 128, 129, 130, 300,
               1, 1, 1, 2, 2, 3, 9, 17)

    @staticmethod
    def draws(rng, m, n):
        """Entries of widely spread magnitude and sign, and entries drawn
        from zeros of both signs, infinities, NaN and +/-1."""
        wide = rng.standard_normal((m, n)) * np.exp(rng.uniform(-30, 30,
                                                                (m, n)))
        special = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0],
                             size=(m, n),
                             p=[0.25, 0.25, 0.05, 0.05, 0.02, 0.19, 0.19])
        return wide, special

    @pytest.mark.parametrize("m", [1, 2, 7, 300])
    def test_matches_reduceat(self, m):
        rng = np.random.default_rng(41 + m)
        counts = rng.permutation(self.LENGTHS)
        env = regions_of(counts)
        segments = env._segments
        # Repeated lengths at uneven places give index arrays, the rest
        # slices, and the test covers both.
        kinds = {type(index) for _, rows in env._groups for index in rows}
        assert kinds == {slice, np.ndarray}
        wide, special = self.draws(rng, m, counts.sum())
        naive_differs = False
        for rows in (wide, special):
            faces = np.ascontiguousarray(rows.T)
            # inf - inf and inf + -inf are NaN, which numpy warns about.
            with np.errstate(invalid="ignore"):
                for ufunc in (np.add, np.minimum):
                    want = ufunc.reduceat(rows, segments, axis=-1)
                    got = polycbf.barrier._reduce_regions(ufunc, faces,
                                                          env).T
                    assert got.shape == want.shape
                    if ufunc is np.add:
                        assert_bits_or_nan(got, want)
                        naive = [np.add.accumulate(rows[:, a:a + n], axis=-1)
                                 [:, -1] for a, n in zip(segments, counts)]
                        naive_differs |= not np.array_equal(
                            np.array(naive).T, want, equal_nan=True)
                        continue
                    # Which zero a minimum keeps of +0.0 tied with -0.0
                    # follows the SIMD lanes of numpy's reduceat, which vary
                    # with the CPU, so only there the sign is not compared.
                    # The kernel never meets such a tie: its matvec sums
                    # from +0.0, so no face value is -0.0.
                    tie = np.array([[mixed_zero_minimum(seg) for seg in
                                     np.split(row, segments[1:])]
                                    for row in rows])
                    assert np.array_equal(got[tie], want[tie])
                    assert_bits_or_nan(got[~tie], want[~tie])
        # The wide entries round differently in a plain left-to-right sum,
        # so an order other than numpy's would fail above.
        assert naive_differs

    def test_single_face_regions_reduce_to_nothing(self):
        faces = np.arange(12.0).reshape(4, 3)
        env = regions_of([1, 1, 1, 1])
        assert env._single_face
        assert not regions_of([1, 2, 1])._single_face
        for ufunc in (np.add, np.minimum):
            assert polycbf.barrier._reduce_regions(ufunc, faces, env) is faces


def assert_bits_or_nan(got, want):
    """Equal bytes entry by entry, -0.0 apart from +0.0, where NaN matches
    NaN of any sign or payload."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def tied_regions_env():
    """Two regions of one face each, x >= 0 and y >= 0: at a centre (a, a)
    their minima, and their soft minima, tie at a."""
    return PolytopeEnvironment(
        [HalfSpace((1.0, 0.0), (0.0, 0.0)), HalfSpace((0.0, 1.0), (0.0, 0.0))],
        [ConvexRegion([0]), ConvexRegion([1])])


def one_row_edge_cases():
    """(world, centre, psi or None) at the edges of the one-row kernel's
    float maxima and tail: NaN centres, centres with an infinite entry, and
    tied minima.  At (0.5, inf) in the tied world the minima are NaN
    (0.5 + 0 * inf) and inf, so Python's max of the reversed list alone
    would give inf.  At the tied world's corner, with either zero in
    either entry, both minima are +0.0: `np.matvec` sums from +0.0."""
    nan, inf = math.nan, math.inf
    return [("convex-corner", (nan, 1.0), nan),
            ("convex-corner", (inf, 1.0), None),
            ("ellipse", (-inf, 0.5), None), ("l-shape", (0.5, nan), nan),
            ("revolving-door", (nan, 0.5), nan),
            ("revolving-door", (0.5, -inf), None),
            ("pyramid", (0.1, inf, 0.2), None), ("tied", (0.5, inf), nan),
            ("tied", (inf, 0.5), nan), ("tied", (0.7, 0.7), 0.7),
            ("tied", (-0.3, -0.3), -0.3), ("tied", (0.0, 0.0), 0.0),
            ("tied", (-0.0, 0.0), 0.0), ("tied", (0.0, -0.0), 0.0),
            ("tied", (-0.0, -0.0), 0.0)]


@pytest.mark.bits
@pytest.mark.parametrize("rows", [*range(1, 10), 12, 16, 17, 32, 33, 137])
@pytest.mark.parametrize("dim", [2, 3])
def test_row_products_equal_gufuncs(rows, dim):
    # The one-row kernel takes its products with ndarray.dot and a batch
    # with np.matvec/np.vecmat; both must round alike, so that a batch row
    # equals the one-row call bit for bit.  Entries have magnitudes from
    # 1e-2 to 1e2 and either sign.
    rng = np.random.default_rng(rows * 10 + dim)

    def draw(*shape):
        return (rng.choice([-1.0, 1.0], size=shape)
                * 10.0 ** rng.uniform(-2.0, 2.0, size=shape))

    for _ in range(20):
        a, c, w = draw(rows, dim), draw(dim), draw(rows)
        assert a.dot(c).tobytes() == np.matvec(a, c).tobytes()
        assert w.dot(a).tobytes() == np.vecmat(w, a).tobytes()


@pytest.mark.bits
@pytest.mark.parametrize("rows", [1, 2, 5, 8, 9, 17, 42, 144, 180, 300, 1716])
@pytest.mark.parametrize("motions", [1, 2, 3])
def test_one_time_law_product_equals_matvec(rows, motions):
    # A moving world's face terms at one time are its shape law, shape
    # (X, 2(1 + 2G)) for G motions, times the time basis, taken with
    # ndarray.dot; a batch of times takes np.matvec.  Both must round
    # alike, so that a control tick's terms equal a batch row's.  The laws
    # of the test worlds have 42 to 1716 rows, many of them zero
    # coefficients.
    rng = np.random.default_rng(rows * 10 + motions)
    width = 2 * (1 + 2 * motions)
    for _ in range(20):
        law = (rng.choice([-1.0, 0.0, 1.0], size=(rows, width))
               * 10.0 ** rng.uniform(-2.0, 2.0, size=(rows, width)))
        t = float(rng.uniform(-1e3, 1e3))
        angles = t * np.concatenate(([0.0], rng.uniform(-1.0, 1.0, motions)))
        trig = np.concatenate((np.cos(angles), np.sin(angles[1:])))
        basis = np.concatenate((trig, t * trig))
        assert law.dot(basis).tobytes() == np.matvec(law, basis).tobytes()


@pytest.mark.bits
class TestOneRowEdges:
    """The one-row kernel takes its two maxima and the tail of h in Python
    floats; at the edges of that code it still equals a batch row bit for
    bit, with NaN in the same places.  The edge centre is a batch of one,
    whose column maximum numpy takes as a 1-D reduce, and row 1 of three,
    whose column maximum numpy vectorises; a zero psi is +0.0 in all three
    forms."""

    @staticmethod
    def world(name):
        if name == "tied":
            return (tied_regions_env(), AgentShape.point(2),
                    CbfParams(kappa=5.0, buffer=0.5))
        s = builtin(name)
        return s.environment, s.agent, s.cbf

    @pytest.mark.parametrize("name, centre, psi", one_row_edge_cases(),
                             ids=str)
    def test_matches_batch_row(self, name, centre, psi):
        env, shape, params = self.world(name)
        centre = np.array(centre)
        rows = np.array([np.full(env.dimension, 0.5), centre,
                         np.full(env.dimension, -0.25)])
        # An infinite centre entry meets a zero normal entry (inf * 0) and
        # opposite infinities, which numpy warns about.
        with np.errstate(invalid="ignore", over="ignore"):
            for p, derivatives in ((params, True), (params, False),
                                   (None, False)):
                one = polycbf.barrier._evaluate(env, shape, centre, 0.37, p,
                                                derivatives)
                alone = polycbf.barrier._evaluate(env, shape, centre[None],
                                                  0.37, p, derivatives)
                batch = polycbf.barrier._evaluate(env, shape, rows, 0.37, p,
                                                  derivatives)
                for got, single, want in zip(one, alone, batch):
                    if want is None:
                        assert got is None and single is None
                    else:
                        assert_bits_or_nan(got, want[1])
                        assert_bits_or_nan(single, want[1:2])
                if psi is not None:
                    assert_bits_or_nan(one[3], psi)
                if psi == 0.0:  # +0.0 in all three forms
                    zeros = [one[3], alone[3][0], batch[3][1]]
                    assert not np.signbit(zeros).any()

    def test_row_max_ties_and_nan(self):
        # No centre gives a region minimum of -0.0, since the kernel's
        # matvec sums from +0.0, so the signed-zero tie is checked on the
        # maxima alone: of tied entries the last, NaN if any entry is NaN.
        # The batch takes the maxima down its face-major (n, M) array.
        rng = np.random.default_rng(7)
        for n in (1, 2, 3, 5, 8, 9, 17, 32, 41):
            rows = rng.choice([0.0, -0.0, -1.0, np.nan], size=(64, n),
                              p=[0.3, 0.3, 0.35, 0.05])
            batch = polycbf.barrier._column_max(np.ascontiguousarray(rows.T))
            for i, row in enumerate(rows):
                got = polycbf.barrier._row_max(row)
                assert type(got) is float
                assert_bits_or_nan(got, batch[i])
                if not np.isnan(row).any():
                    last = row[np.flatnonzero(row == row.max())[-1]]
                    assert_bits_or_nan(got, last)
            assert np.isnan(batch).any() and not np.isnan(batch).all()


@pytest.mark.bits
class TestBatchOfOne:
    """A batch of one centre takes the batch code like any batch, and every
    field equals the one-row call bit for bit; a per-row time, like any
    batch of times, neither reads nor replaces the memo."""

    @pytest.mark.parametrize("name", dict.fromkeys([*BUILTIN_NAMES,
                                                    *MOVING_WORLDS]))
    def test_fields_equal_one_row_call(self, name):
        s = MOVING_WORLDS[name]() if name in MOVING_WORLDS else builtin(name)
        env, shape, params = s.environment, s.agent, s.cbf
        centers = s.default_sim.x0[None]
        for t in (1.3, np.array([1.3])):
            want = polycbf.barrier._evaluate(env, shape, centers[0], 1.3,
                                             params, derivatives=True)
            entry = env._memo
            got = polycbf.barrier._fields(env, shape, centers, t, params,
                                          derivatives=True)
            for g, w in zip(got, want):
                assert_bits_or_nan(g, np.reshape(w, (1, *np.shape(w))))
            h, margin = barrier_field(env, shape, centers, t, params)
            assert_bits_or_nan(h, [want[0]])
            assert_bits_or_nan(margin, [want[3]])
            assert_bits_or_nan(margin_field(env, shape, centers, t),
                               [want[3]])
            if np.ndim(t) and not env.is_static:
                assert env._memo is entry


def repeated_times(rng):
    """Per-row times that repeat: adjacent runs as `np.repeat` makes them,
    scattered repeats, one time shared by every row, +0.0, -0.0 and NaN
    among repeated times, and far ones: negative, up to 1e6 in size, 1e300
    and a subnormal."""
    base = rng.uniform(0.0, 20.0, 6)
    return {"adjacent": np.repeat(base, [5, 1, 3, 7, 2, 4]),
            "scattered": rng.choice(base, size=22),
            "shared": np.full(9, base[0]),
            "zeros-nan": np.array([0.0, -0.0, base[1], -0.0, np.nan, 0.0,
                                   base[1], np.nan, -0.0]),
            "far": np.concatenate([-base[:3], 5e4 * base[3:], -5e4 * base[:2],
                                   [1e300, 5e-324, -1e6, 1e300, -base[0],
                                    5e-324, -5e-324]])}


@pytest.mark.bits
class TestRepeatedTimes:
    """A moving world evaluates a batch's face terms once per distinct time,
    times being distinct when their bits differ, and hands each row the
    terms of its own; every row still equals the one-row call at its time
    bit for bit, -0.0 apart from +0.0, although a finite scalar time takes
    its time basis in Python floats and a batch in numpy.  The agents have
    1 to 8 vertices, and the polygon doors 9 and 137, so a batch's fold of
    the vertex axis runs every branch of numpy's pairwise order."""

    worlds = {**MOVING_WORLDS, **POLYGON_DOORS}

    @pytest.mark.parametrize("name", MOVING_WORLDS)
    def test_scalar_time_kinds(self, name):
        # An int or np.float64 time gives the float call's bits.  An
        # infinite time takes numpy's path, where math.cos would raise: it
        # warns (an error under the test suite's filter) and, with the
        # warning ignored, gives NaN terms.
        s = self.worlds[name]()
        env, shape, kappa = s.environment, s.agent, s.cbf.kappa
        face_terms = polycbf.barrier._face_terms

        def fresh(t):
            return face_terms(copy.deepcopy(env), shape, t, kappa)

        for t in (3, -2, np.int64(7), np.float64(1.3), np.float64(-4e5)):
            assert_same_bits(fresh(t), fresh(float(t)))
        for t in (math.inf, -math.inf):
            with pytest.raises(RuntimeWarning, match="invalid value"):
                fresh(t)
            with np.errstate(invalid="ignore"):
                terms = fresh(t)
            assert all(np.isnan(term).all() for term in terms)

    @pytest.mark.parametrize("kind", ["adjacent", "scattered", "shared",
                                      "zeros-nan", "far"])
    @pytest.mark.parametrize("name", [*MOVING_WORLDS, "moving-3d",
                                      *POLYGON_DOORS])
    def test_rows_equal_one_row_calls(self, name, kind, monkeypatch):
        if name == "moving-3d":
            _, env, shape, params, bounds = invariance_cases()[-1]
        else:
            s = self.worlds[name]()
            env, shape, params = s.environment, s.agent, s.cbf
            bounds = scenario_bounds(s)
        rng = np.random.default_rng(43)
        times = repeated_times(rng)[kind]
        centers = rng.uniform(*bounds, size=(len(times), env.dimension))
        pristine = copy.deepcopy(env)

        def one_row(fn, *args):
            # A fresh env each call: its memo would serve -0.0 from +0.0.
            return fn(copy.deepcopy(pristine), shape, *args)

        face_terms = polycbf.barrier._face_terms
        for kappa in (params.kappa, None):
            batch = face_terms(env, shape, times, kappa)
            for i, t in enumerate(times.tolist()):
                for got, want in zip(batch, one_row(face_terms, t, kappa)):
                    if want is None:
                        assert got is None
                    else:
                        assert_bits_or_nan(got[i], want)
        basis_rows = []
        time_basis = PolytopeEnvironment._time_basis

        def counted(on, t):
            basis_rows.append(np.size(t))
            return time_basis(on, t)

        with monkeypatch.context() as patch:
            patch.setattr(PolytopeEnvironment, "_time_basis", counted)
            fields = polycbf.barrier._fields(env, shape, centers, times,
                                             params, derivatives=True)
        assert basis_rows == oracles.kernel_block_times(times, env, shape)
        h, margin = barrier_field(env, shape, centers, times, params)
        psi = margin_field(env, shape, centers, times)
        evaluate = polycbf.barrier._evaluate
        for i, (c, t) in enumerate(zip(centers, times.tolist())):
            want = one_row(evaluate, c, t, params, True)
            for got, w in zip(fields, want):
                assert_bits_or_nan(got[i], w)
            assert_bits_or_nan(h[i], want[0])
            assert_bits_or_nan(margin[i], want[3])
            assert_bits_or_nan(psi[i], one_row(evaluate, c, t)[3])


STATIC_NAMES = [name for name in BUILTIN_NAMES
                if builtin(name).environment.is_static]


class TestGradientBounds:
    """In a static world grad h is L = kappa max_i ||n_i||^2 Lipschitz, and
    h lies above its tangent less (L/2) ||q - p||^2 (`gradient_bounds`)."""

    @pytest.mark.parametrize("kappa", [0.3, 5.0, 60.0])
    @pytest.mark.parametrize("name", STATIC_NAMES + ["scaled-json"])
    def test_lipschitz_and_quadratic_bounds(self, name, kappa, tmp_path):
        if name == "scaled-json":
            path = tmp_path / "scaled.json"
            path.write_text(json.dumps(SCALED_WORLD))
            s = load(path)
        else:
            s = builtin(name)
        env, params = s.environment, replace(s.cbf, kappa=kappa)
        nu, lipschitz = gradient_bounds(env, kappa)
        rng = np.random.default_rng(17)
        n = 4000
        p = rng.uniform(*scenario_bounds(s), size=(n, env.dimension))
        move = rng.normal(size=p.shape)
        move *= rng.uniform(0.0, 0.05, (n, 1)) / np.linalg.norm(
            move, axis=1, keepdims=True)
        q = p + move
        h_p, g_p, _, _ = polycbf.barrier._evaluate(env, s.agent, p, 0.0,
                                                   params, derivatives=True)
        h_q, g_q, _, _ = polycbf.barrier._evaluate(env, s.agent, q, 0.0,
                                                   params, derivatives=True)
        dist = np.linalg.norm(q - p, axis=1)
        assert np.all(np.linalg.norm(g_q - g_p, axis=1)
                      <= lipschitz * dist * (1 + 1e-6) + 1e-12)
        assert np.all(h_q >= h_p + np.vecdot(g_p, q - p)
                      - lipschitz / 2 * dist ** 2 - 1e-12)
        assert np.all(np.linalg.norm(g_p, axis=1) <= nu * (1 + 1e-12))

    def test_bounds_read_the_longest_normal(self, tmp_path):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(SCALED_WORLD))
        assert gradient_bounds(load(path).environment, 2.0) == (3.0, 18.0)
        assert gradient_bounds(builtin("l-shape").environment, 5.0) \
            == (1.0, 5.0)


class TestCurvatureBounds:
    """Near (x, t), h and its rate along (k, 1) stay above the lower bounds
    of `curvature_bounds`, in moving worlds of every kind (turning in 2D
    and 3D, translating only, and mixed) and in the static builtins, both
    within one RK4 step's reach and many steps away."""

    DT, U_MAX = 0.01, 1.0

    @staticmethod
    def assert_lower_bounds(s, kappa, reach, span, backward=False):
        """Check both bounds at 2000 centres x and times t, at x + delta
        and t + tau with ||delta|| <= reach and tau in [0, span] (every
        fifth tau negated when backward)."""
        env, params = s.environment, replace(s.cbf, kappa=kappa)
        dim = env.dimension
        rng = np.random.default_rng(23)
        n = 2000
        low, high = (np.asarray(b) for b in scenario_bounds(s))
        x = rng.uniform(low, high, size=(n, dim))
        # A quarter of the centres lie up to 50 m from the world's centre,
        # far from every pivot, where |dh/dt| grows with the distance; in a
        # moving world a quarter lie within 1 m of a pivot, where d2h/dt2
        # is not dwarfed by kappa (dh/dt)^2.
        quarter = n // 4
        x[:quarter] = (low + high) / 2 + rng.uniform(-50.0, 50.0,
                                                     (quarter, dim))
        pivots = np.array([pivot for _, pivot, _ in env._motion_rates])
        if pivots.size:
            x[quarter:2 * quarter] = pivots[rng.integers(len(pivots),
                                                         size=quarter)] \
                + rng.uniform(-1.0, 1.0, (quarter, dim))
        t = rng.uniform(0.0, 40.0, n)

        def within(radius, size):
            v = rng.normal(size=(n, size))
            v *= rng.uniform(0.0, radius, (n, 1)) / np.linalg.norm(
                v, axis=1, keepdims=True)
            return v

        # Some rows step in time only, some hold still, some take the
        # whole span in time.
        delta = within(reach, dim)
        delta[::4] = 0.0
        k = within(TestCurvatureBounds.U_MAX, dim)
        k[1::4] = 0.0
        tau = rng.uniform(0.0, span, n)
        tau[::3] = span
        if backward:
            tau[::5] *= -1.0
        h0, g0, hdot0, psi0 = polycbf.barrier._evaluate(
            env, s.agent, x, t, params, derivatives=True)
        h1, g1, hdot1, _ = polycbf.barrier._evaluate(
            env, s.agent, x + delta, t + tau, params, derivatives=True)
        for i in range(n):
            ev = BarrierEvaluation(float(h0[i]), g0[i], float(hdot0[i]),
                                   float(psi0[i]))
            lower = curvature_bounds(env, s.agent, kappa, ev, x[i].tolist(),
                                     float(t[i]))
            h_low, rate_low = lower(delta[i].tolist(), float(tau[i]),
                                    k[i].tolist())
            tol = 1e-9 * (1.0 + abs(h0[i]) + abs(hdot0[i]))
            assert h1[i] >= h_low - tol, (i, h1[i], h_low)
            assert g1[i] @ k[i] + hdot1[i] >= rate_low - tol, (i, rate_low)

    @pytest.mark.parametrize("kappa", [0.3, 5.0, 60.0])
    @pytest.mark.parametrize("name", sorted(MOVING_WORLDS))
    def test_lower_bounds_hold_within_one_step(self, name, kappa):
        self.assert_lower_bounds(MOVING_WORLDS[name](), kappa,
                                 self.DT * self.U_MAX, self.DT)

    @pytest.mark.parametrize("kappa", [0.3, 5.0, 60.0])
    @pytest.mark.parametrize("name", sorted(MOVING_WORLDS) + STATIC_NAMES)
    def test_lower_bounds_hold_over_many_steps(self, name, kappa):
        # An anchor certifies stages up to 2 m and 2 s (200 steps) away,
        # and a stage an ulp before its anchor takes the bound at |tau|.
        s = MOVING_WORLDS[name]() if name in MOVING_WORLDS else builtin(name)
        self.assert_lower_bounds(s, kappa, 2.0, 2.0, backward=True)

    def test_static_world_gives_the_gradient_bounds(self):
        s = builtin("l-shape")
        nu, lipschitz = gradient_bounds(s.environment, s.cbf.kappa)
        ev = BarrierEvaluation(0.3, np.array([0.6, -0.8]), 0.0, 0.4)
        lower = curvature_bounds(s.environment, s.agent, s.cbf.kappa, ev,
                                 [1.5, -0.5], 7.0)
        delta, k = [0.003, -0.004], [0.5, 0.25]
        dist, speed = math.hypot(*delta), math.hypot(*k)
        assert lower(delta, 0.01, k) == (
            0.3 + (0.6 * 0.003 + -0.8 * -0.004) - 0.5 * lipschitz * dist * dist,
            (0.6 * 0.5 + -0.8 * 0.25) - lipschitz * dist * speed)


class TestCbfParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CbfParams(kappa=0.0)
        with pytest.raises(ValueError):
            CbfParams(kappa=5.0, buffer=-0.1)
        with pytest.raises(ValueError):
            CbfParams(kappa=5.0, alpha_gain=0.0)
        # b = 0 is allowed: single-region smoothing is already conservative
        CbfParams(kappa=5.0, buffer=0.0)

    @pytest.mark.parametrize("field", ["kappa", "buffer", "alpha_gain"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            CbfParams(**{"kappa": 5.0, field: value})

    @given(st.floats(), st.floats(), st.floats())
    def test_rejected_or_finite(self, kappa, buffer, alpha_gain):
        try:
            params = CbfParams(kappa=kappa, buffer=buffer,
                               alpha_gain=alpha_gain)
        except ValueError:
            return
        assert all(map(math.isfinite,
                       (params.kappa, params.buffer, params.alpha_gain)))

    def test_provable_buffer(self):
        assert provable_buffer(builtin("l-shape").environment) == \
            pytest.approx(math.log(5))

    def test_dimension_mismatch(self):
        s = builtin("pyramid")
        with pytest.raises(ValueError, match="dimension"):
            smooth_barrier(s.environment, AgentShape.point(2), (0.0, 0.0, 0.0),
                           0.0, s.cbf)

    def test_cached_kappa_is_not_part_of_the_value(self, tmp_path):
        # The one-row kernel's 0-d kappa is no field: equality, hash, repr
        # and the scenario file see the three fields only, and `replace`
        # builds a fresh one.
        params = CbfParams(kappa=5.0, buffer=0.7, alpha_gain=2.0)
        cached = params._kappa
        assert (cached.shape, cached.dtype, float(cached)) == ((), float, 5.0)
        assert not cached.flags.writeable
        twin = CbfParams(kappa=5.0, buffer=0.7, alpha_gain=2.0)
        assert params == twin and hash(params) == hash(twin)
        assert repr(params) == \
            "CbfParams(kappa=5.0, buffer=0.7, alpha_gain=2.0)"
        changed = replace(params, kappa=3)
        assert changed._kappa.dtype == float and float(changed._kappa) == 3.0
        assert params._kappa is cached and float(cached) == 5.0
        scenario = replace(builtin("l-shape"), cbf=params)
        path = tmp_path / "scenario.json"
        save(scenario, path)
        assert "_kappa" not in path.read_text(encoding="utf-8")
        loaded = load(path)
        assert loaded.cbf == params and loaded == scenario
        assert float(loaded.cbf._kappa) == 5.0


@pytest.mark.bits
class TestKappaTypes:
    """A kappa given as an int or an np.float64 gives the float kappa's
    bits on the one-row and batch paths: the row scales by the 0-d float64
    `CbfParams._kappa` and the batch by kappa itself, and numpy converts
    either operand to the same float64."""

    @pytest.mark.parametrize("name", ["ellipse", "l-shape"])
    def test_kappa_types_give_float_bits(self, name):
        s = builtin(name)
        rng = np.random.default_rng(53)
        centers = rng.uniform(*scenario_bounds(s),
                              size=(40, s.environment.dimension))
        evaluate = polycbf.barrier._evaluate

        def outputs(kappa):
            # A fresh env, so that the face terms too are built at kappa.
            env = copy.deepcopy(s.environment)
            params = replace(s.cbf, kappa=kappa)
            rows = [evaluate(env, s.agent, c, 0.0, params, True)
                    for c in centers]
            return rows, evaluate(env, s.agent, centers, 0.0, params, True)

        for kappa in (5, 2, np.float64(5.0), np.float64(0.7)):
            rows, batch = outputs(kappa)
            want_rows, want_batch = outputs(float(kappa))
            for got, want in zip(rows, want_rows):
                for g, w in zip(got, want):
                    assert_bits_or_nan(g, w)
            for g, w in zip(batch, want_batch):
                assert_bits_or_nan(g, w)
