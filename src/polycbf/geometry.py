"""Half-spaces, polytope environments, agent shapes, and rigid motions.

The environment is a union of convex regions, each region an intersection of
half-spaces drawn from one shared list.  Every value here is immutable after
construction and safe to share across threads.  The exceptions are the
barrier kernel's two one-entry memos on each `PolytopeEnvironment`: each
is only ever replaced whole, by a single attribute assignment, and read
once per call, so a thread sees either the old entry or the new one.

Every value type compares by value (`_eq_by`): arrays by shape and
entries, so NaN is unequal to itself, as for floats.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

__all__ = [
    "RigidMotion",
    "HalfSpace",
    "ConvexRegion",
    "PolytopeEnvironment",
    "AgentShape",
]

_ZERO_NORMAL_TOL = 1e-12


def _as_point(value, name: str, dim: int | None = None) -> np.ndarray:
    """The value of the field called name as a float vector, optionally of
    dimension dim.  Every rejection, numpy's failed conversions included,
    is a ValueError that names the field."""
    try:
        arr = np.asarray(value, dtype=float)
    except (ValueError, TypeError, OverflowError) as err:
        raise ValueError(f"{name}: {err}") from None
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if arr.shape[0] not in (2, 3):
        raise ValueError(f"{name} must be 2- or 3-dimensional, got {arr.shape[0]}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def _require_positive(name: str, value) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _values_equal(a, b) -> bool:
    """Arrays equal by shape and entries, tuples item by item, anything
    else by ==; so NaN is unequal to itself, as for floats."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_values_equal, a, b))
    return a == b


def _eq_by(*names):
    """The value equality of a public value type: an `__eq__` that compares
    the named attributes, or all of a dataclass's fields when no names are
    given, by `_values_equal`, and returns NotImplemented for an object
    that is not an instance of the type."""
    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        fields = names or [f.name for f in dataclasses.fields(self)]
        return all(_values_equal(getattr(self, name), getattr(other, name))
                   for name in fields)
    return __eq__


def _unstack(stacked: np.ndarray, shapes) -> list[np.ndarray]:
    """Split the last axis of `stacked` into consecutive blocks, one per
    trailing shape in `shapes`; the leading axes carry through."""
    lead, start, blocks = stacked.shape[:-1], 0, []
    for shape in shapes:
        stop = start + math.prod(shape)
        block = stacked[..., start:stop]
        blocks.append(block.reshape(lead + shape) if len(shape) > 1 else block)
        start = stop
    return blocks


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
        3D angular velocity vector (axis scaled by rate); its length must
        not overflow.
    linear_velocity : array_like, optional
        Constant translational velocity, zero if omitted.
    """

    __slots__ = ("center", "spin", "linear_velocity", "dimension", "_rate")

    def __init__(self, center, *, omega: float | None = None, axis_rate=None,
                 linear_velocity=None):
        self.center = _as_point(center, "center")
        self.dimension = self.center.shape[0]
        if (omega is None) == (axis_rate is None):
            raise ValueError("specify exactly one of omega (2D) or axis_rate (3D)")
        if omega is not None:
            if self.dimension != 2:
                raise ValueError("omega is the 2D spin; use axis_rate in 3D")
            self.spin = float(omega)
            if not np.isfinite(self.spin):
                raise ValueError(f"omega must be finite, got {omega}")
            self._rate = self.spin
        else:
            if self.dimension != 3:
                raise ValueError("axis_rate is the 3D spin; use omega in 2D")
            self.spin = _as_point(axis_rate, "axis_rate", 3)
            with np.errstate(over="ignore"):  # an overflow fails the check
                self._rate = float(np.linalg.norm(self.spin))
            if not self._rate < np.inf:
                raise ValueError(
                    f"axis_rate length must not overflow, got {self.spin}")
        if linear_velocity is None:
            self.linear_velocity = np.zeros(self.dimension)
        else:
            self.linear_velocity = _as_point(
                linear_velocity, "linear_velocity", self.dimension)

    def _expansion(self) -> np.ndarray:
        """(P, Q, S), shape (3, p, p), with R(t) = P + cos(a) Q + sin(a) S
        at a = rate * t: 0, I, J in 2D and, by Rodrigues' formula with K
        the cross-product matrix of the unit axis, I + K^2, -K^2, K in 3D."""
        if self.dimension == 2:
            return np.array([np.zeros((2, 2)), np.eye(2),
                             [[0.0, -1.0], [1.0, 0.0]]])
        k = np.zeros((3, 3))
        if self._rate > 0:
            x, y, z = self.spin / self._rate
            k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
        k2 = k @ k
        return np.stack((np.eye(3) + k2, -k2, k))

    __eq__ = _eq_by("center", "spin", "linear_velocity")

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
    downstream.
    """

    __slots__ = ("normal", "anchor", "motion", "dimension")

    def __init__(self, normal, anchor, motion: RigidMotion | None = None):
        self.normal = _as_point(normal, "normal")
        self.dimension = self.normal.shape[0]
        self.anchor = _as_point(anchor, "anchor", self.dimension)
        with np.errstate(all="ignore"):  # an overflow fails the checks below
            length = np.linalg.norm(self.normal)
            level = self.normal @ self.anchor
        if not _ZERO_NORMAL_TOL < length < np.inf:
            raise ValueError(
                f"normal must be nonzero and its length must not overflow, "
                f"got {self.normal}")
        if not np.isfinite(level):
            raise ValueError(f"level normal . anchor must be finite, got {level}")
        if motion is not None and motion.dimension != self.dimension:
            raise ValueError(
                f"motion dimension {motion.dimension} != half-space dimension "
                f"{self.dimension}")
        self.motion = motion

    __eq__ = _eq_by("normal", "anchor", "motion")

    def __repr__(self) -> str:
        return (f"HalfSpace(normal={self.normal.tolist()}, "
                f"anchor={self.anchor.tolist()}, motion={self.motion!r})")


class ConvexRegion:
    """Index set selecting the half-spaces whose intersection forms one
    convex piece of the environment."""

    __slots__ = ("indices",)

    def __init__(self, indices):
        idx = np.asarray(indices)
        if idx.ndim != 1 or idx.size == 0:
            raise ValueError("region needs at least one half-space index")
        # A bool is no index, and a float index must be a whole number that
        # converts to an integer exactly.
        if idx.dtype.kind not in "iuf" or not np.all(
                (np.floor(idx) == idx) & (np.abs(idx) < 2**53)):
            raise ValueError(
                f"half-space indices must be integers below 2**53, got "
                f"{idx.tolist()}")
        idx = idx.astype(int)
        if np.any(idx < 0):
            raise ValueError(f"negative half-space index in region: {idx.tolist()}")
        if len(set(idx.tolist())) != idx.size:
            raise ValueError(f"duplicate half-space index in region: {idx.tolist()}")
        self.indices = idx

    def __len__(self) -> int:
        return int(self.indices.size)

    __eq__ = _eq_by("indices")

    def __repr__(self) -> str:
        return f"ConvexRegion({self.indices.tolist()})"


def _indexer(index: np.ndarray):
    """A slice for ascending, evenly spaced indices, whose rows are a view;
    otherwise the index array itself."""
    start = int(index[0])
    step = int(index[1] - index[0]) if len(index) > 1 else 1
    if step > 0 and np.array_equal(index, np.arange(len(index)) * step + start):
        return slice(start, int(index[-1]) + 1, step)
    return index


def _region_groups(counts) -> tuple:
    """The regions grouped by face count, for reductions down a face-major
    (R, M) array whose rows are the regions' faces in region order.

    One (regions, rows) pair per count L, in ascending order: `regions`
    picks the group's regions, and `rows` holds L row indexers, the k-th
    picking the k-th face of each of those regions.  Each indexer is a
    slice where it can be (`_indexer`).
    """
    counts = np.asarray(counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    groups = []
    for length in sorted(set(counts.tolist())):
        regions = np.flatnonzero(counts == length)
        groups.append((_indexer(regions),
                       tuple(_indexer(starts[regions] + k)
                             for k in range(length))))
    return tuple(groups)


class PolytopeEnvironment:
    """Union of convex regions over a shared list of half-spaces.

    The region topology is fixed at construction; only the half-space
    normals/anchors move (through their rigid motions), so the composition
    itself does not depend on time.  The motions are built into fixed
    coefficients of one time basis b(t) at construction, and `frame(t)`
    evaluates them with one matrix-vector product.

    The barrier kernel keeps its centre-independent terms in `_memo` and
    a moving world's shape law in `_law_memo`, each one entry that is only
    ever replaced whole by a single assignment, so threads may share the
    environment; `barrier._face_terms` and `barrier._shape_law` describe
    the entries.
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
        self._groups = _region_groups(counts)
        # Every region one face: each region reduction is the identity.
        self._single_face = bool(np.all(counts == 1))

        self._normals0 = np.array([hs.normal for hs in self.half_spaces])
        anchors0 = np.array([hs.anchor for hs in self.half_spaces])
        self._levels0 = np.einsum("ij,ij->i", self._normals0, anchors0)
        # max_i ||n_i||^2; rotations preserve norms, so it holds at every t.
        self._max_normal_sq = float(np.max(np.vecdot(self._normals0,
                                                     self._normals0)))
        motions = list({id(hs.motion): hs.motion for hs in self.half_spaces
                        if hs.motion is not None}.values())
        # Per motion: the angular rate, pivot and drift as Python floats,
        # for the barrier's curvature bound in time (`curvature_bounds`).
        self._motion_rates = tuple(
            (abs(m._rate), m.center.tolist(), m.linear_velocity.tolist())
            for m in motions)
        self._frequencies, self._law = self._motion_law(motions)
        self._frame_shapes = ((n_w, self.dimension), (n_w,),
                              (n_w, self.dimension), (n_w,))
        self._memo = self._law_memo = None

    def _motion_law(self, motions):
        """The frame as fixed coefficients of the time basis b(t).

        A motion with constant rates turns its faces by R(t) = P + cos(a) Q
        + sin(a) S at a = rate * t.  So n_i(t) = R(t) n_i(0) is a combination
        of the terms (1, cos a, sin a) of its motion.  A rotation keeps the
        level relative to the pivot c, so c_i(t) = n_i(t) . (c + t v) +
        c_i(0) - n_i(0) . c adds those terms times t.  Their rates follow
        from d(cos a)/dt = -rate sin a and d(sin a)/dt = rate cos a.  With
        the motions' terms side by side, b(t) = (1, t) (x) (1, cos a_g,
        sin a_g) over the motions g, and every frame quantity at t is one
        row of the returned (X, B) matrix times b(t).  A static face is the
        motion P = I, Q = S = 0 about the origin.

        Returns
        -------
        (frequencies, law)
            0 and the rates of the G motions in order of first use, (1 + G,),
            and the coefficients of the frame quantities stacked as `frame`
            returns them; both None in a static world.
        """
        if not motions:
            return None, None
        group = {id(m): g for g, m in enumerate(motions)}
        n_w, p, n_g = len(self.half_spaces), self.dimension, len(motions)
        # Per face: P, Q, S, the rate, the pivot c and the drift v.
        pieces = np.zeros((n_w, 3, p, p))
        pieces[:, 0] = np.eye(p)
        rates = np.zeros(n_w)
        pivots, drifts = np.zeros((n_w, 1, p)), np.zeros((n_w, 1, p))
        # select[i, j, k] = 1 where term j of (1, cos a, sin a) of face i's
        # motion sits in (1, cos a_1, ..., cos a_G, sin a_1, ..., sin a_G).
        select = np.zeros((n_w, 3, 1 + 2 * n_g))
        select[:, 0, 0] = 1.0
        for i, hs in enumerate(self.half_spaces):
            if (m := hs.motion) is not None:
                g = group[id(m)]
                pieces[i] = m._expansion()
                rates[i], pivots[i, 0], drifts[i, 0] = \
                    m._rate, m.center, m.linear_velocity
                select[i, 1, 1 + g] = select[i, 2, 1 + n_g + g] = 1.0
        normals = np.matvec(pieces, self._normals0[:, None, :])  # (N_w, 3, p)
        normal_rates = rates[:, None, None] * np.stack(
            (np.zeros((n_w, p)), normals[:, 2], -normals[:, 1]), axis=1)
        levels = np.vecdot(normals, pivots)
        levels[:, 0] += self._levels0 - np.vecdot(self._normals0, pivots[:, 0])
        level_rates = np.vecdot(normal_rates, pivots) \
            + np.vecdot(normals, drifts)

        def spread(terms, t_terms):
            """(N_w, 3, ...) over each face's (1, cos a, sin a), and the
            part that t multiplies, to (B, N_w * ...) over b(t)."""
            return np.concatenate([
                np.einsum("ijk,ij...->ki...", select, part)
                for part in (terms, t_terms)]).reshape(2 * select.shape[2], -1)

        law = np.concatenate([
            spread(normals, np.zeros(normals.shape)),
            spread(levels, np.vecdot(normals, drifts)),
            spread(normal_rates, np.zeros(normals.shape)),
            spread(level_rates, np.vecdot(normal_rates, drifts))], axis=1)
        return (np.array([0.0] + [m._rate for m in motions]),
                np.ascontiguousarray(law.T))

    @property
    def num_half_spaces(self) -> int:
        return len(self.half_spaces)

    @property
    def num_regions(self) -> int:
        return len(self.regions)

    @property
    def is_static(self) -> bool:
        return self._law is None

    def _time_basis(self, t):
        """The time basis b(t) = (1, t) (x) (1, cos a_g, sin a_g) with a_g =
        rate_g * t over the motions g, of shape t.shape + (B,), or None in a
        static world.

        This is the one place where time enters: `frame` and the barrier
        kernel both evaluate their moving terms as fixed coefficients times
        b(t) (see `_motion_law`).

        A finite real scalar t, a control tick's time, builds b(t) in Python
        floats, which saves the numpy calls that dominate six numbers.  Its
        bits are numpy's: t * rate and t * term are the same IEEE products
        as numpy's, and numpy's float64 cos and sin give libm's bits, as
        `math.cos` and `math.sin` do (a `bits` test compares them on the
        angles the kernel's worlds form).  Other times, and a finite t
        whose angle overflows, take numpy's path, which warns where math
        would raise."""
        if self._law is None:
            return None
        if isinstance(t, (float, int)) and math.isfinite(t):
            t = float(t)
            angles = [t * rate for rate in self._frequencies.tolist()]
            try:
                trig = [*map(math.cos, angles), *map(math.sin, angles[1:])]
            except ValueError:  # an angle overflowed to inf
                pass
            else:
                return np.array(trig + [t * term for term in trig])
        t = np.asarray(t, dtype=float)
        # The leading frequency 0 gives the constant cos(0) = 1 exactly.
        angles = np.multiply.outer(t, self._frequencies)
        trig = np.concatenate((np.cos(angles), np.sin(angles[..., 1:])),
                              axis=-1)
        return np.concatenate((trig, t[..., None] * trig), axis=-1)

    def frame(self, t):
        """Normals, face levels c_i = n_i . w_i, and their time rates at t.

        Half-space i reads n_i . p - c_i, so the levels carry everything
        the anchors contribute.  In a moving world the frame is one
        `matvec` of fixed coefficients with the time basis b(t); t is one
        time or an array of times, and the frame at t[i] equals the frame
        at the scalar t[i] bit for bit.

        Returns
        -------
        (normals, levels, normal_rates, level_rates)
            Shapes (N_w, p), (N_w,), (N_w, p), (N_w,), each with t.shape
            prepended for an array t; the two rate arrays are None for a
            fully static environment, whose frame does not depend on t.
        """
        basis = self._time_basis(t)
        if basis is None:
            return self._normals0, self._levels0, None, None
        return tuple(_unstack(np.matvec(self._law, basis),
                              self._frame_shapes))

    __eq__ = _eq_by("half_spaces", "regions")

    def __repr__(self) -> str:
        return (f"PolytopeEnvironment({self.num_half_spaces} half-spaces, "
                f"{self.num_regions} regions, dim={self.dimension})")


class AgentShape:
    """Bounded polytope agent given by vertex offsets from its center.

    The agent translates without rotating, so the offsets are constant.
    A single zero offset recovers the point agent.  The shape keeps its own
    read-only copy of the offsets: mutating the caller's array later does
    not move the agent, and the barrier kernel can key its memo on the
    shape's identity.
    """

    __slots__ = ("offsets", "dimension", "_circumradius")

    def __init__(self, offsets):
        arr = np.array(offsets, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(
                f"offsets must be an (N_v, p) array with N_v >= 1, got shape "
                f"{arr.shape}")
        if arr.shape[1] not in (2, 3):
            raise ValueError(f"offsets must be 2- or 3-dimensional, got {arr.shape[1]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("offsets must be finite")
        arr.setflags(write=False)
        self.offsets = arr
        self.dimension = arr.shape[1]
        self._circumradius = None

    def __reduce__(self):
        # Copies and unpickled shapes also go through __init__, so they
        # own read-only offsets too.
        return type(self), (self.offsets,)

    @classmethod
    def point(cls, dimension: int) -> "AgentShape":
        return cls(np.zeros((1, dimension)))

    @property
    def num_vertices(self) -> int:
        return self.offsets.shape[0]

    @property
    def circumradius(self) -> float:
        # Computed on first use, not in __init__: a finite offset near the
        # float limit may overflow here, and a loaded shape need not be used.
        if self._circumradius is None:
            self._circumradius = float(
                np.max(np.linalg.norm(self.offsets, axis=1)))
        return self._circumradius

    __eq__ = _eq_by("offsets")

    def __repr__(self) -> str:
        return f"AgentShape({self.num_vertices} vertices, dim={self.dimension})"
