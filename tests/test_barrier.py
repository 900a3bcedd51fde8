import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polycbf.barrier import (CbfParams, barrier_field, margin_agent,
                             margin_field, provable_buffer, smooth_barrier)
from polycbf.geometry import (AgentShape, ConvexRegion, HalfSpace,
                              PolytopeEnvironment, RigidMotion)
from polycbf.scenarios import BUILTIN_NAMES, builtin
from polycbf.verify import scenario_bounds

import oracles


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
    def test_matches_scalar_path(self):
        s = builtin("revolving-door")
        rng = np.random.default_rng(53)
        centers = rng.uniform(-4, 4, size=(64, 2))
        t = 2.5
        h, margin = barrier_field(s.environment, s.agent, centers, t, s.cbf,
                                  chunk=17)
        for c, hv, mv in zip(centers, h, margin):
            ev = smooth_barrier(s.environment, s.agent, c, t, s.cbf)
            assert hv == pytest.approx(ev.value, abs=1e-13)
            assert mv == pytest.approx(ev.nonsmooth_value, abs=1e-15)

    def test_rejects_bad_shape(self):
        s = builtin("l-shape")
        with pytest.raises(ValueError):
            barrier_field(s.environment, s.agent, np.zeros((4, 3)), 0.0, s.cbf)

    @pytest.mark.parametrize("chunk", [0, -1, 2.5])
    def test_rejects_bad_chunk(self, chunk):
        s = builtin("l-shape")
        with pytest.raises(ValueError, match="chunk"):
            barrier_field(s.environment, s.agent, np.zeros((4, 2)), 0.0,
                          s.cbf, chunk=chunk)


class TestBatchOracles:
    """The batch paths against the naive loops, which share no code with
    the kernel."""

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_fields_match_naive_loops(self, name):
        s = builtin(name)
        env, shape = s.environment, s.agent
        rng = np.random.default_rng(59)
        low, high = scenario_bounds(s)
        for _ in range(3):
            t = float(rng.uniform(0.0, s.default_sim.t_end))
            centers = rng.uniform(low, high, size=(11, env.dimension))
            # chunk 4 puts block boundaries after centers 4 and 8
            h, margin = barrier_field(env, shape, centers, t, s.cbf, chunk=4)
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
    def test_large_kappa(self, name, kappa):
        # kappa * psi reaches 1e3 to 1e4 here, beyond the naive smooth
        # loop's range, and from kappa = 1000 on kappa * n_i . dp_k alone
        # passes the exp overflow point.  The exact margin bounds h from
        # both sides, and the normals are unit vectors.
        s = builtin(name)
        env, shape = s.environment, s.agent
        params = CbfParams(kappa=kappa)
        rng = np.random.default_rng(61)
        low, high = scenario_bounds(s)
        t = 0.0 if env.is_static else float(rng.uniform(0.0, 10.0))
        centers = rng.uniform(low, high, size=(40, env.dimension))
        n_rows = sum(len(r) for r in env.regions) * shape.num_vertices
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            h, margin = barrier_field(env, shape, centers, t, params,
                                      chunk=16)
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


class TestMovingWorlds:
    """Frames with a drifting, off-origin pivot and 3D axis rates, which the
    builtins (one door turning about the origin) do not reach."""

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
