"""Half-spaces, polytope environments, agent shapes, and rigid motions.

The environment is a union of convex regions, each region an intersection of
half-spaces drawn from one shared list.  Every value here is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RigidMotion",
    "HalfSpace",
    "ConvexRegion",
    "PolytopeEnvironment",
    "AgentShape",
]

_ZERO_NORMAL_TOL = 1e-12


def _as_point(value, dim: int | None = None, name: str = "point") -> np.ndarray:
    """Coerce to a float vector, optionally checking its dimension."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.shape[0] not in (2, 3):
        raise ValueError(f"{name} must be 2- or 3-dimensional, got {arr.shape[0]}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def _skew3(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


class RigidMotion:
    """Constant-rate rotation about a fixed point plus constant translation.

    The pose at t = 0 is the identity: normals and anchors of attached
    half-spaces are stored at reference time zero.  In 2D the spin is a
    scalar rate (rad/s, counterclockwise positive); in 3D it is an
    axis-times-rate vector (rad/s).

    Parameters
    ----------
    center : array_like
        Point the rotation pivots about.
    omega : float, optional
        2D angular rate.  Exactly one of omega / axis_rate must be given.
    axis_rate : array_like, optional
        3D angular velocity vector (axis scaled by rate).
    linear_velocity : array_like, optional
        Constant translational velocity, zero if omitted.
    """

    __slots__ = ("center", "spin", "linear_velocity", "dimension")

    def __init__(self, center, *, omega: float | None = None, axis_rate=None,
                 linear_velocity=None):
        self.center = _as_point(center, name="center")
        self.dimension = self.center.shape[0]
        if (omega is None) == (axis_rate is None):
            raise ValueError("specify exactly one of omega (2D) or axis_rate (3D)")
        if omega is not None:
            if self.dimension != 2:
                raise ValueError("omega is the 2D spin; use axis_rate in 3D")
            self.spin = float(omega)
        else:
            if self.dimension != 3:
                raise ValueError("axis_rate is the 3D spin; use omega in 2D")
            self.spin = _as_point(axis_rate, 3, "axis_rate")
        if linear_velocity is None:
            self.linear_velocity = np.zeros(self.dimension)
        else:
            self.linear_velocity = _as_point(linear_velocity, self.dimension,
                                             "linear_velocity")

    def rotation(self, t: float) -> np.ndarray:
        """Rotation matrix R(t); orthonormal for every t, identity at t = 0."""
        if self.dimension == 2:
            a = self.spin * t
            c, s = np.cos(a), np.sin(a)
            return np.array([[c, -s], [s, c]])
        rate = np.linalg.norm(self.spin)
        if rate == 0.0:
            return np.eye(3)
        axis = self.spin / rate
        k = _skew3(axis)
        a = rate * t
        return np.eye(3) + np.sin(a) * k + (1.0 - np.cos(a)) * (k @ k)

    def rotation_rate(self, t: float) -> np.ndarray:
        """Time derivative of the rotation matrix, dR/dt at time t."""
        if self.dimension == 2:
            a = self.spin * t
            c, s = np.cos(a), np.sin(a)
            return self.spin * np.array([[-s, -c], [c, -s]])
        return _skew3(np.asarray(self.spin)) @ self.rotation(t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RigidMotion):
            return NotImplemented
        return (
            self.dimension == other.dimension
            and np.array_equal(self.center, other.center)
            and np.array_equal(np.atleast_1d(self.spin), np.atleast_1d(other.spin))
            and np.array_equal(self.linear_velocity, other.linear_velocity)
        )

    def __repr__(self) -> str:
        spin = self.spin if self.dimension == 2 else self.spin.tolist()
        return (f"RigidMotion(center={self.center.tolist()}, spin={spin}, "
                f"linear_velocity={self.linear_velocity.tolist()})")


class HalfSpace:
    """One linear barrier n . (p - w), positive on the safe side.

    An optional rigid motion carries normal and anchor through time:
    n(t) = R(t) n0 and w(t) = c + R(t) (w0 - c) + v t.

    Normals are kept exactly as given (not normalized); barrier magnitudes
    scale with ||n||, which also rescales the effective smoothing sharpness
    downstream.  Use :meth:`normalized` when unit normals are wanted.
    """

    __slots__ = ("normal", "anchor", "motion", "dimension")

    def __init__(self, normal, anchor, motion: RigidMotion | None = None):
        self.normal = _as_point(normal, name="normal")
        self.dimension = self.normal.shape[0]
        self.anchor = _as_point(anchor, self.dimension, "anchor")
        if np.linalg.norm(self.normal) <= _ZERO_NORMAL_TOL:
            raise ValueError(f"normal must be nonzero, got {self.normal}")
        if motion is not None and motion.dimension != self.dimension:
            raise ValueError(
                f"motion dimension {motion.dimension} != half-space dimension "
                f"{self.dimension}")
        self.motion = motion

    def normalized(self) -> "HalfSpace":
        """Same half-space with a unit normal."""
        n = self.normal / np.linalg.norm(self.normal)
        return HalfSpace(n, self.anchor, self.motion)

    def normal_at(self, t: float) -> np.ndarray:
        if self.motion is None:
            return self.normal
        return self.motion.rotation(t) @ self.normal

    def anchor_at(self, t: float) -> np.ndarray:
        if self.motion is None:
            return self.anchor
        m = self.motion
        return m.center + m.rotation(t) @ (self.anchor - m.center) \
            + m.linear_velocity * t

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfSpace):
            return NotImplemented
        return (
            np.array_equal(self.normal, other.normal)
            and np.array_equal(self.anchor, other.anchor)
            and self.motion == other.motion
        )

    def __repr__(self) -> str:
        return (f"HalfSpace(normal={self.normal.tolist()}, "
                f"anchor={self.anchor.tolist()}, motion={self.motion!r})")


class ConvexRegion:
    """Index set selecting the half-spaces whose intersection forms one
    convex piece of the environment."""

    __slots__ = ("indices",)

    def __init__(self, indices):
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("region needs at least one half-space index")
        if np.any(idx < 0):
            raise ValueError(f"negative half-space index in region: {idx.tolist()}")
        if len(set(idx.tolist())) != idx.size:
            raise ValueError(f"duplicate half-space index in region: {idx.tolist()}")
        self.indices = idx

    def __len__(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexRegion):
            return NotImplemented
        return np.array_equal(self.indices, other.indices)

    def __repr__(self) -> str:
        return f"ConvexRegion({self.indices.tolist()})"


class PolytopeEnvironment:
    """Union of convex regions over a shared list of half-spaces.

    The region topology is fixed at construction; only the half-space
    normals/anchors move (through their rigid motions), so the composition
    itself does not depend on time.
    """

    def __init__(self, half_spaces, regions):
        self.half_spaces: tuple[HalfSpace, ...] = tuple(half_spaces)
        self.regions: tuple[ConvexRegion, ...] = tuple(
            r if isinstance(r, ConvexRegion) else ConvexRegion(r) for r in regions
        )
        if not self.half_spaces:
            raise ValueError("environment needs at least one half-space")
        if not self.regions:
            raise ValueError("environment needs at least one region")
        self.dimension = self.half_spaces[0].dimension
        for i, hs in enumerate(self.half_spaces):
            if hs.dimension != self.dimension:
                raise ValueError(
                    f"halfspaces[{i}] has dimension {hs.dimension}, "
                    f"expected {self.dimension}")
        n_w = len(self.half_spaces)
        referenced = np.zeros(n_w, dtype=bool)
        for j, region in enumerate(self.regions):
            if np.any(region.indices >= n_w):
                bad = int(region.indices[region.indices >= n_w][0])
                raise ValueError(
                    f"regions[{j}] references half-space index {bad} but only "
                    f"{n_w} half-spaces are defined (valid 0..{n_w - 1})")
            referenced[region.indices] = True
        if not np.all(referenced):
            unused = np.flatnonzero(~referenced).tolist()
            raise ValueError(f"half-spaces {unused} are not referenced by any region")

        # Flattened region bookkeeping for vectorized barrier evaluation.
        self._rows = np.concatenate([r.indices for r in self.regions])
        counts = np.array([len(r) for r in self.regions])
        self._segments = np.concatenate(([0], np.cumsum(counts)[:-1]))
        self._row_region = np.repeat(np.arange(len(self.regions)), counts)

        self._normals0 = np.array([hs.normal for hs in self.half_spaces])
        anchors0 = np.array([hs.anchor for hs in self.half_spaces])
        self._levels0 = np.einsum("ij,ij->i", self._normals0, anchors0)
        # Half-spaces sharing a motion object are transformed as one block.
        # A rotation preserves n0 . (w0 - c), the level relative to the
        # pivot c, so only the pivot's own displacement moves the level.
        groups: dict[int, list[int]] = {}
        for i, hs in enumerate(self.half_spaces):
            if hs.motion is not None:
                groups.setdefault(id(hs.motion), []).append(i)
        self._motion_groups = []
        for idx in map(np.array, groups.values()):
            motion = self.half_spaces[idx[0]].motion
            pivot_levels = self._levels0[idx] - self._normals0[idx] @ motion.center
            self._motion_groups.append((motion, idx, pivot_levels))

    @property
    def num_half_spaces(self) -> int:
        return len(self.half_spaces)

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @property
    def is_static(self) -> bool:
        return not self._motion_groups

    def frame(self, t: float):
        """Normals, face levels c_i = n_i . w_i, and their time rates at t.

        Half-space i reads n_i . p - c_i, so the levels carry everything
        the anchors contribute.

        Returns
        -------
        (normals, levels, normal_rates, level_rates)
            Shapes (N_w, p), (N_w,), (N_w, p), (N_w,); the two rate arrays
            are None for a fully static environment.
        """
        if self.is_static:
            return self._normals0, self._levels0, None, None
        normals = self._normals0.copy()
        levels = self._levels0.copy()
        normal_rates = np.zeros_like(normals)
        level_rates = np.zeros_like(levels)
        for motion, idx, pivot_levels in self._motion_groups:
            pivot = motion.center + motion.linear_velocity * t
            normals[idx] = self._normals0[idx] @ motion.rotation(t).T
            normal_rates[idx] = self._normals0[idx] @ motion.rotation_rate(t).T
            levels[idx] = pivot_levels + normals[idx] @ pivot
            level_rates[idx] = (normal_rates[idx] @ pivot
                                + normals[idx] @ motion.linear_velocity)
        return normals, levels, normal_rates, level_rates

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolytopeEnvironment):
            return NotImplemented
        return (
            self.half_spaces == other.half_spaces
            and self.regions == other.regions
        )

    def __repr__(self) -> str:
        return (f"PolytopeEnvironment({self.num_half_spaces} half-spaces, "
                f"{self.num_regions} regions, dim={self.dimension})")


class AgentShape:
    """Bounded polytope agent given by vertex offsets from its center.

    The agent translates without rotating, so the offsets are constant.
    A single zero offset recovers the point agent.
    """

    __slots__ = ("offsets", "dimension")

    def __init__(self, offsets):
        arr = np.asarray(offsets, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(
                f"offsets must be an (N_v, p) array with N_v >= 1, got shape "
                f"{arr.shape}")
        if arr.shape[1] not in (2, 3):
            raise ValueError(f"offsets must be 2- or 3-dimensional, got {arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("offsets must be finite")
        self.offsets = arr
        self.dimension = arr.shape[1]

    @classmethod
    def point(cls, dimension: int) -> "AgentShape":
        return cls(np.zeros((1, dimension)))

    @property
    def num_vertices(self) -> int:
        return self.offsets.shape[0]

    @property
    def circumradius(self) -> float:
        return float(np.max(np.linalg.norm(self.offsets, axis=1)))

    def vertices(self, center) -> np.ndarray:
        """Vertex positions center + offset_k, order preserved."""
        center = _as_point(center, self.dimension, "center")
        return center + self.offsets

    def __eq__(self, other) -> bool:
        if not isinstance(other, AgentShape):
            return NotImplemented
        return np.array_equal(self.offsets, other.offsets)

    def __repr__(self) -> str:
        return f"AgentShape({self.num_vertices} vertices, dim={self.dimension})"
