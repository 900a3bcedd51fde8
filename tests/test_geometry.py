import copy
import math
import pickle

import numpy as np
import pytest

from polycbf.geometry import (AgentShape, ConvexRegion, HalfSpace,
                              PolytopeEnvironment, RigidMotion)
from polycbf.safety_filter import DesiredController
from polycbf.scenarios import BUILTIN_NAMES, builtin
from polycbf.sim import SimConfig

import oracles
from worlds import MOVING_WORLDS, POLYGON_DOORS


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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_frame_per_time_matches_scalar_frames(self, dim):
        # Two motion groups and one static face; an array t stacks one
        # frame per time, each equal to the scalar-t frame bit for bit.
        rng = np.random.default_rng(5)
        spins = ([{"omega": 0.4}, {"omega": -1.1}] if dim == 2 else
                 [{"axis_rate": rng.uniform(-1, 1, 3)} for _ in range(2)])
        motions = [RigidMotion(rng.uniform(-1, 1, dim),
                               linear_velocity=rng.uniform(-1, 1, dim), **spin)
                   for spin in spins]
        faces = [HalfSpace(rng.normal(size=dim), rng.uniform(-2, 2, dim), m)
                 for m in (motions[0], None, motions[1], motions[0])]
        env = PolytopeEnvironment(faces, [[0, 1], [2, 3]])
        times = rng.uniform(0.0, 10.0, 7)
        stacked = env.frame(times)
        assert stacked[0].shape == (7, 4, dim)
        assert stacked[1].shape == (7, 4)
        for i, t in enumerate(times):
            for got, want in zip(stacked, env.frame(float(t))):
                assert np.array_equal(got[i], want)


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
            rot = oracles.rotation(motion, t)
            assert np.allclose(rot.T @ rot, np.eye(dim), atol=1e-12)

    def test_identity_pose_at_zero(self):
        motion = RigidMotion((1.0, 2.0, 3.0), axis_rate=(0.1, 0.2, 0.3))
        assert np.allclose(oracles.rotation(motion, 0.0), np.eye(3),
                           atol=1e-15)
        zero_rate = RigidMotion((0.0, 0.0, 0.0), axis_rate=(0.0, 0.0, 0.0))
        assert np.array_equal(oracles.rotation(zero_rate, 3.0), np.eye(3))
        assert np.array_equal(oracles.rotation_rate(zero_rate, 3.0),
                              np.zeros((3, 3)))

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
                           + oracles.rotation(motion, t)
                           @ (p0 - motion.center)
                           + motion.linear_velocity * t)
                assert face_value(moving, moved_p, t) == pytest.approx(
                    face_value(static, p0), abs=1e-10)

    def test_normal_norm_preserved(self):
        motion = RigidMotion((0.3, -0.2), omega=0.8)
        hs = HalfSpace((2.0, -1.0), (0.0, 0.0), motion)
        for t in (0.0, 0.5, 3.7, 100.0):
            assert np.linalg.norm(frame(hs, t)[0][0]) == pytest.approx(
                np.linalg.norm(hs.normal), abs=1e-12)

    def test_requires_matching_spin_kind(self):
        with pytest.raises(ValueError):
            RigidMotion((0.0, 0.0), axis_rate=(0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            RigidMotion((0.0, 0.0, 0.0), omega=1.0)
        with pytest.raises(ValueError):
            RigidMotion((0.0, 0.0))

    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_non_finite_omega_rejected(self, omega):
        with pytest.raises(ValueError, match="omega"):
            RigidMotion((0.0, 0.0), omega=omega)

    @pytest.mark.parametrize("axis_rate", [(1e200, 0.0, 0.0),
                                           (1e155, 1e155, 1e155)])
    def test_overflowing_axis_rate_rejected(self, axis_rate):
        # The rate is the axis_rate's length; an infinite one would make
        # every rotation matrix NaN.
        with pytest.raises(ValueError, match="axis_rate length"):
            RigidMotion((0.0, 0.0, 0.0), axis_rate=axis_rate)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_per_time_matrices_match_scalar_calls(self, dim):
        rng = np.random.default_rng(11)
        spin = {"omega": 0.7} if dim == 2 else {"axis_rate": (0.3, -0.2, 0.5)}
        motion = RigidMotion(np.zeros(dim), **spin)
        times = rng.uniform(-5.0, 5.0, 9)
        for method in (oracles.rotation, oracles.rotation_rate):
            stacked = method(motion, times)
            assert stacked.shape == (9, dim, dim)
            for t, matrix in zip(times, stacked):
                assert np.array_equal(matrix, method(motion, float(t)))


def moving_envs():
    """{name: environment} of every moving builtin and test world."""
    worlds = {name: (lambda name=name: builtin(name))
              for name in BUILTIN_NAMES}
    worlds.update(MOVING_WORLDS, **POLYGON_DOORS)
    envs = {name: make().environment for name, make in worlds.items()}
    return {name: env for name, env in envs.items() if not env.is_static}


def basis_times():
    """Times as a rollout, an audit and a far-off caller meet them: k * 0.01
    for 1e4 steps, uniform draws in +-1e3 and +-1e6, huge and subnormal
    times and both zeros."""
    rng = np.random.default_rng(29)
    return np.concatenate([
        np.arange(10001) * 0.01, rng.uniform(-1e3, 1e3, 2000),
        rng.uniform(-1e6, 1e6, 2000),
        [1e300, -1e300, 5e-324, -5e-324, 0.0, -0.0]])


@pytest.mark.bits
class TestTimeBasis:
    """A finite scalar time builds the time basis in Python floats with
    math.cos and math.sin, and a batch of times in numpy; the two must
    agree bit for bit, so that a control tick's face terms equal a batch
    row's."""

    def test_math_trig_equals_numpy(self):
        # Every angle t * rate that the kernel forms, the leading rate 0
        # included, over the rates of every moving world.
        rates = sorted({rate for env in moving_envs().values()
                        for rate in env._frequencies.tolist()})
        angles = np.multiply.outer(basis_times(), rates).ravel()
        for scalar, vector in ((math.cos, np.cos), (math.sin, np.sin)):
            got = np.array([scalar(a) for a in angles.tolist()])
            want = vector(angles)
            differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
            assert differ.size == 0, (
                f"{scalar.__name__} differs from numpy at {differ.size} "
                f"angles, e.g. {angles[differ[:5]].tolist()}")

    @pytest.mark.parametrize("name", list(moving_envs()))
    def test_scalar_basis_equals_batch_row(self, name):
        env = moving_envs()[name]
        times = basis_times()
        for t, row in zip(times.tolist(), env._time_basis(times)):
            assert env._time_basis(t).tobytes() == row.tobytes()

    def test_overflowing_angle_takes_numpy_path(self):
        # A finite t whose angle overflows warns as numpy does (an error
        # under the test suite's filter), and gives the batch row's NaNs.
        spin = RigidMotion((0.0, 0.0), omega=10.0)
        env = PolytopeEnvironment([HalfSpace((1.0, 0.0), (0.0, 0.0), spin)],
                                  [[0]])
        with pytest.raises(RuntimeWarning, match="overflow"):
            env._time_basis(1e308)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = env._time_basis(1e308), env._time_basis(
                np.array([1e308]))[0]
        assert np.isnan(got[1:]).any()
        assert np.array_equal(got, want, equal_nan=True)


class TestConstruction:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            HalfSpace((0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="nonzero"):
            HalfSpace((1e-13, 0.0), (1.0, 1.0))

    @pytest.mark.parametrize("normal, anchor, match", [
        ((1e200, 0.0), (0.0, 0.0), "normal"),    # |n|^2 overflows
        ((1e150, 0.0), (1e300, 0.0), "level"),   # n . w overflows
    ])
    def test_overflowing_half_space_rejected(self, normal, anchor, match):
        with pytest.raises(ValueError, match=match):
            HalfSpace(normal, anchor)

    @pytest.mark.parametrize("make, field", [
        (lambda: DesiredController(goal=[1.0, [2.0]]), "goal"),
        (lambda: SimConfig(x0=("ab", "c")), "x0"),
        (lambda: HalfSpace([1.0, "x"], [0, 0]), "normal"),
        (lambda: RigidMotion([0, [1]], omega=1.0), "center"),
    ], ids=["DesiredController", "SimConfig", "HalfSpace", "RigidMotion"])
    def test_unconvertible_point_names_field(self, make, field):
        # numpy's own conversion errors name no field.
        with pytest.raises(ValueError, match=f"^{field}: "):
            make()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace((1.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            HalfSpace((1.0, 0.0, 0.0),
                      (0.0, 0.0, 0.0),
                      RigidMotion((0.0, 0.0), omega=1.0))

    def test_region_validation(self):
        with pytest.raises(ValueError, match="duplicate"):
            ConvexRegion([0, 1, 1])
        with pytest.raises(ValueError):
            ConvexRegion([])
        with pytest.raises(ValueError, match="negative"):
            ConvexRegion([-1])

    @pytest.mark.parametrize("indices", [[0, 1.5], [1e308], [True],
                                         [np.nan], ["1"]])
    def test_region_indices_must_be_integers(self, indices):
        with pytest.raises(ValueError, match="integers"):
            ConvexRegion(indices)

    def test_integral_float_region_index(self):
        region = ConvexRegion([0, 1.0])
        assert region.indices.tolist() == [0, 1]
        assert region.indices.dtype == int

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
        assert np.array_equal(oracles.vertices(shape, (1.0, 2.0)),
                              [[1.0, 2.0]])

    def test_square_corners(self):
        square = AgentShape([(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)])
        vertices = oracles.vertices(square, (0.0, 0.0))
        assert np.array_equal(vertices, square.offsets)

    def test_hexagon_translation(self):
        angles = 2 * np.pi * np.arange(6) / 6
        hexagon = AgentShape(np.column_stack([np.cos(angles), np.sin(angles)]))
        shifted = oracles.vertices(hexagon, (1.0, 0.0))
        assert np.allclose(shifted, hexagon.offsets + np.array([1.0, 0.0]))

    def test_circumradius(self):
        shape = AgentShape([(3.0, 4.0), (0.0, 1.0)])
        assert shape.circumradius == 5.0

    def test_rejects_bad_offsets(self):
        with pytest.raises(ValueError):
            AgentShape(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            AgentShape([(np.inf, 0.0)])

    def test_owns_read_only_offsets(self):
        source = np.zeros((1, 2))
        shape = AgentShape(source)
        source[0, 0] = 5.0
        assert np.array_equal(shape.offsets, [[0.0, 0.0]])
        assert np.array_equal(oracles.vertices(shape, (1.0, 2.0)),
                              [[1.0, 2.0]])
        with pytest.raises(ValueError):
            shape.offsets[0, 0] = 5.0
        assert source.flags.writeable
        for copied in (copy.copy(shape), copy.deepcopy(shape),
                       pickle.loads(pickle.dumps(shape))):
            assert copied == shape
            assert not copied.offsets.flags.writeable
