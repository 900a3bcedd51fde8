import numpy as np
import pytest

from polycbf.geometry import (AgentShape, ConvexRegion, HalfSpace,
                              PolytopeEnvironment, RigidMotion)

import oracles


def frame(hs, t):
    return PolytopeEnvironment([hs], [[0]]).frame(t)


def face_value(hs, p, t=0.0):
    """n(t) . p - c(t) of one half-space, from the environment frame the
    barrier kernel reads."""
    normals, levels, _, _ = frame(hs, t)
    return normals[0] @ np.asarray(p, dtype=float) - levels[0]


def face_rate(hs, p, t=0.0):
    """Time partial dn/dt . p - dc/dt of face_value, from the same frame."""
    _, _, normal_rates, level_rates = frame(hs, t)
    if normal_rates is None:
        return 0.0
    return normal_rates[0] @ np.asarray(p, dtype=float) - level_rates[0]


class TestHalfSpaceValue:
    def test_static_example(self):
        hs = HalfSpace((1.0, 0.0), (2.0, 2.0))
        assert face_value(hs, (3.0, 3.0)) == 1.0

    def test_point_on_boundary(self):
        hs = HalfSpace((0.3, -0.7), (1.0, -2.0))
        assert face_value(hs, (1.0, -2.0)) == 0.0

    def test_quarter_turn(self):
        # n rotates to (0, 1) after a quarter turn at pi/2 rad/s
        motion = RigidMotion(center=(0.0, 0.0), omega=np.pi / 2)
        hs = HalfSpace((1.0, 0.0), (0.0, 0.0), motion)
        assert face_value(hs, (0.0, 1.0), t=1.0) == pytest.approx(
            1.0, abs=1e-12)

    def test_translation(self):
        motion = RigidMotion(center=(0.0, 0.0), omega=0.0,
                             linear_velocity=(1.0, 0.0))
        hs = HalfSpace((1.0, 0.0), (0.0, 0.0), motion)
        assert face_value(hs, (3.0, 0.0), t=2.0) == pytest.approx(1.0)

    def test_identity_at_time_zero(self):
        motion = RigidMotion(center=(0.5, -1.0), omega=0.7,
                             linear_velocity=(0.1, 0.2))
        hs = HalfSpace((0.6, 0.8), (1.0, 1.0), motion)
        static = HalfSpace((0.6, 0.8), (1.0, 1.0))
        p = np.array([2.0, -3.0])
        assert face_value(hs, p, 0.0) == pytest.approx(
            face_value(static, p), abs=1e-15)


class TestTimeDerivative:
    def test_static_is_zero(self):
        hs = HalfSpace((1.0, 2.0), (0.5, 0.5))
        assert face_rate(hs, (3.0, 1.0), t=1.7) == 0.0

    def test_hand_values(self):
        motion = RigidMotion(center=(0.0, 0.0), omega=0.2)
        hs = HalfSpace((1.0, 0.0), (0.0, 0.0), motion)
        # dn/dt(0) = (0, 0.2): zero against p=(1,0), 0.2 against p=(0,1)
        assert face_rate(hs, (1.0, 0.0), t=0.0) == pytest.approx(
            0.0, abs=1e-12)
        assert face_rate(hs, (0.0, 1.0), t=0.0) == pytest.approx(
            0.2, abs=1e-12)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matches_finite_differences(self, dim):
        rng = np.random.default_rng(42)
        for _ in range(50):
            center = rng.uniform(-2, 2, dim)
            lin = rng.uniform(-1, 1, dim)
            if dim == 2:
                motion = RigidMotion(center, omega=float(rng.uniform(-1, 1)),
                                     linear_velocity=lin)
            else:
                motion = RigidMotion(center, axis_rate=rng.uniform(-1, 1, 3),
                                     linear_velocity=lin)
            hs = HalfSpace(rng.normal(size=dim), rng.uniform(-2, 2, dim), motion)
            p = rng.uniform(-10, 10, dim)
            t = float(rng.uniform(0, 10))
            fd = oracles.fd_scalar(lambda tt: face_value(hs, p, tt), t)
            analytic = face_rate(hs, p, t)
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-5)


class TestRigidMotion:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rotation_orthonormal(self, dim):
        rng = np.random.default_rng(7)
        for _ in range(20):
            if dim == 2:
                motion = RigidMotion(rng.uniform(-1, 1, 2),
                                     omega=float(rng.uniform(-3, 3)))
            else:
                motion = RigidMotion(rng.uniform(-1, 1, 3),
                                     axis_rate=rng.uniform(-3, 3, 3))
            t = float(rng.uniform(-5, 5))
            rot = motion.rotation(t)
            assert np.allclose(rot.T @ rot, np.eye(dim), atol=1e-12)

    def test_identity_pose_at_zero(self):
        motion = RigidMotion((1.0, 2.0, 3.0), axis_rate=(0.1, 0.2, 0.3))
        assert np.allclose(motion.rotation(0.0), np.eye(3), atol=1e-15)
        zero_rate = RigidMotion((0.0, 0.0, 0.0), axis_rate=(0.0, 0.0, 0.0))
        assert np.array_equal(zero_rate.rotation(3.0), np.eye(3))
        assert np.array_equal(zero_rate.rotation_rate(3.0), np.zeros((3, 3)))

    def test_co_rotation_invariance(self):
        # Moving half-space evaluated at the co-moved point equals the
        # static evaluation at the static point.
        rng = np.random.default_rng(3)
        for dim in (2, 3):
            for _ in range(25):
                center = rng.uniform(-2, 2, dim)
                if dim == 2:
                    motion = RigidMotion(center, omega=float(rng.uniform(-2, 2)),
                                         linear_velocity=rng.uniform(-1, 1, 2))
                else:
                    motion = RigidMotion(center, axis_rate=rng.uniform(-2, 2, 3),
                                         linear_velocity=rng.uniform(-1, 1, 3))
                normal = rng.normal(size=dim)
                anchor = rng.uniform(-3, 3, dim)
                moving = HalfSpace(normal, anchor, motion)
                static = HalfSpace(normal, anchor)
                p0 = rng.uniform(-5, 5, dim)
                t = float(rng.uniform(0, 8))
                moved_p = (motion.center
                           + motion.rotation(t) @ (p0 - motion.center)
                           + motion.linear_velocity * t)
                assert face_value(moving, moved_p, t) == pytest.approx(
                    face_value(static, p0), abs=1e-10)

    def test_normal_norm_preserved(self):
        motion = RigidMotion((0.3, -0.2), omega=0.8)
        hs = HalfSpace((2.0, -1.0), (0.0, 0.0), motion)
        for t in (0.0, 0.5, 3.7, 100.0):
            assert np.linalg.norm(hs.normal_at(t)) == pytest.approx(
                np.linalg.norm(hs.normal), abs=1e-12)

    def test_requires_matching_spin_kind(self):
        with pytest.raises(ValueError):
            RigidMotion((0.0, 0.0), axis_rate=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            RigidMotion((0.0, 0.0, 0.0), omega=1.0)
        with pytest.raises(ValueError):
            RigidMotion((0.0, 0.0))


class TestConstruction:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            HalfSpace((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="nonzero"):
            HalfSpace((1e-13, 0.0), (1.0, 1.0))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace((1.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            HalfSpace((1.0, 0.0, 0.0),
                      (0.0, 0.0, 0.0),
                      RigidMotion((0.0, 0.0), omega=1.0))

    def test_normalized(self):
        hs = HalfSpace((3.0, 4.0), (1.0, 1.0)).normalized()
        assert np.allclose(hs.normal, [0.6, 0.8])

    def test_region_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConvexRegion([0, 1, 1])
        with pytest.raises(ValueError):
            ConvexRegion([])
        with pytest.raises(ValueError, match="negative"):
            ConvexRegion([-1])

    def test_environment_validation(self):
        walls = [HalfSpace((1.0, 0.0), (0.0, 0.0)),
                 HalfSpace((0.0, 1.0), (0.0, 0.0))]
        with pytest.raises(ValueError, match=r"regions\[0\].*index 2"):
            PolytopeEnvironment(walls, [ConvexRegion([2])])
        with pytest.raises(ValueError, match="not referenced"):
            PolytopeEnvironment(walls, [ConvexRegion([0])])
        with pytest.raises(ValueError, match="at least one region"):
            PolytopeEnvironment(walls, [])
        mixed = [HalfSpace((1.0, 0.0), (0.0, 0.0)),
                 HalfSpace((1.0, 0.0, 0.0), (0.0, 0.0, 0.0))]
        with pytest.raises(ValueError, match="dimension"):
            PolytopeEnvironment(mixed, [ConvexRegion([0, 1])])


class TestAgentShape:
    def test_point_agent(self):
        shape = AgentShape.point(2)
        assert np.array_equal(shape.vertices((1.0, 2.0)), [[1.0, 2.0]])

    def test_square_corners(self):
        square = AgentShape([(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)])
        vertices = square.vertices((0.0, 0.0))
        assert np.array_equal(vertices, square.offsets)

    def test_hexagon_translation(self):
        angles = 2 * np.pi * np.arange(6) / 6
        hexagon = AgentShape(np.column_stack([np.cos(angles), np.sin(angles)]))
        shifted = hexagon.vertices((1.0, 0.0))
        assert np.allclose(shifted, hexagon.offsets + np.array([1.0, 0.0]))

    def test_circumradius(self):
        shape = AgentShape([(3.0, 4.0), (0.0, 1.0)])
        assert shape.circumradius == 5.0

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            AgentShape(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            AgentShape([(np.inf, 0.0)])
