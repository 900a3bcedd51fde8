"""Bundled navigation scenarios and the JSON scenario-config format.

The bundled fixtures cover the seven reference setups: two corner toys, the
L-shaped obstacle, a crossroad with a diamond agent, an ellipse-vs-ellipse
polygon pair, a revolving door, and a 3D pyramid.  All dimensions, starts,
and goals are illustrative defaults (chosen to be representative, not
measured from any ground-truth layout).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .barrier import CbfParams, provable_buffer
from .geometry import (AgentShape, ConvexRegion, HalfSpace,
                       PolytopeEnvironment, RigidMotion, _as_point, _eq_by)
from .safety_filter import DesiredController
from .sim import SimConfig

__all__ = ["Scenario", "ScenarioError", "BUILTIN_NAMES", "builtin",
           "load", "save"]


class ScenarioError(ValueError):
    """Malformed scenario config; the message names the offending field."""


@dataclass
class Scenario:
    """Complete problem description: environment, agent, controller, barrier
    parameters, default simulation settings, and extra start points."""

    name: str
    environment: PolytopeEnvironment
    agent: AgentShape
    controller: DesiredController
    cbf: CbfParams
    default_sim: SimConfig
    alternative_starts: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        dim = self.environment.dimension
        for label, d in (("agent", self.agent.dimension),
                         ("controller.goal", self.controller.goal.shape[0]),
                         ("sim.x0", self.default_sim.x0.shape[0]
                          if self.default_sim.x0 is not None else dim)):
            if d != dim:
                raise ScenarioError(
                    f"{label} has dimension {d}, environment has {dim}")
        self.alternative_starts = tuple(
            _build(f"alternative_starts[{i}]", _as_point, s, dim, "start")
            for i, s in enumerate(self.alternative_starts))

    def all_starts(self) -> list[np.ndarray]:
        """The default start, if set, then the alternative starts."""
        return [s for s in (self.default_sim.x0, *self.alternative_starts)
                if s is not None]

    @property
    def certified(self) -> bool:
        """Whether the buffer is certified: buffer >= ln N_p, so h <= psi
        everywhere and h >= 0 along a run certifies the exact margin.  This
        "certified buffer" is a property of the barrier and unrelated to the
        idle certificate that `sim.run` carries across steps."""
        return self.cbf.buffer >= provable_buffer(self.environment)

    __eq__ = _eq_by()


# ---------------------------------------------------------------------------
# Built-in fixtures
# ---------------------------------------------------------------------------

def _regular_polygon(n: int, rx: float, ry: float = None) -> np.ndarray:
    """Vertices at angles 2*pi*m/n, counterclockwise, scaled per axis."""
    ry = rx if ry is None else ry
    ang = 2.0 * np.pi * np.arange(n) / n
    return np.column_stack([rx * np.cos(ang), ry * np.sin(ang)])


def _polygon_exterior_half_spaces(vertices: np.ndarray) -> list[HalfSpace]:
    """One half-space per edge of a counterclockwise convex polygon, each
    pointing away from the polygon; their union is the polygon's exterior."""
    out = []
    n = vertices.shape[0]
    for m in range(n):
        a, b = vertices[m], vertices[(m + 1) % n]
        edge = b - a
        normal = np.array([edge[1], -edge[0]])
        out.append(HalfSpace(normal / np.linalg.norm(normal), a))
    return out


def _convex_corner() -> Scenario:
    walls = [HalfSpace((1.0, 0.0), (2.0, 2.0)), HalfSpace((0.0, 1.0), (2.0, 2.0))]
    env = PolytopeEnvironment(walls, [ConvexRegion([0, 1])])
    return Scenario(
        name="convex-corner",
        environment=env,
        agent=AgentShape.point(2),
        controller=DesiredController(goal=(2.3, 2.4)),
        cbf=CbfParams(kappa=5.0, buffer=0.0, alpha_gain=2.0),
        default_sim=SimConfig(x0=(5.0, 4.0)),
        alternative_starts=((4.0, 6.0), (6.0, 3.0)),
    )


def _concave_corner() -> Scenario:
    walls = [HalfSpace((1.0, 0.0), (2.0, 2.0)), HalfSpace((0.0, 1.0), (2.0, 2.0))]
    env = PolytopeEnvironment(walls, [ConvexRegion([0]), ConvexRegion([1])])
    return Scenario(
        name="concave-corner",
        environment=env,
        agent=AgentShape.point(2),
        controller=DesiredController(goal=(4.0, 0.5)),
        cbf=CbfParams(kappa=5.0, buffer=math.log(2.0), alpha_gain=2.0),
        default_sim=SimConfig(x0=(0.5, 4.0)),
        alternative_starts=((0.0, 5.0), (1.0, 3.5)),
    )


def _l_shape() -> Scenario:
    # Obstacle occupying [0,2]^2 minus the open quadrant beyond (1,1); the
    # free space is four outer half-planes plus the notch quadrant.
    walls = [
        HalfSpace((-1.0, 0.0), (0.0, 0.0)),   # left of the obstacle
        HalfSpace((0.0, -1.0), (0.0, 0.0)),   # below
        HalfSpace((1.0, 0.0), (2.0, 2.0)),    # right
        HalfSpace((0.0, 1.0), (2.0, 2.0)),    # above
        HalfSpace((1.0, 0.0), (1.0, 1.0)),    # notch, facing +x
        HalfSpace((0.0, 1.0), (1.0, 1.0)),    # notch, facing +y
    ]
    regions = [ConvexRegion([0]), ConvexRegion([1]), ConvexRegion([2]),
               ConvexRegion([3]), ConvexRegion([4, 5])]
    return Scenario(
        name="l-shape",
        environment=PolytopeEnvironment(walls, regions),
        agent=AgentShape.point(2),
        controller=DesiredController(goal=(1.75, 1.6)),
        cbf=CbfParams(kappa=5.0, buffer=0.7, alpha_gain=2.0),
        default_sim=SimConfig(x0=(-1.0, 0.5)),
        alternative_starts=((-1.0, 2.8), (0.5, -1.0), (3.0, -0.5), (2.8, 2.8)),
    )


def _crossroad() -> Scenario:
    # Two unit-half-width roads crossing at the origin; diamond agent with
    # half-diagonal 0.5.
    walls = [
        HalfSpace((0.0, -1.0), (0.0, 1.0)),   # horizontal road, y <= 1
        HalfSpace((0.0, 1.0), (0.0, -1.0)),   # horizontal road, y >= -1
        HalfSpace((-1.0, 0.0), (1.0, 0.0)),   # vertical road, x <= 1
        HalfSpace((1.0, 0.0), (-1.0, 0.0)),   # vertical road, x >= -1
    ]
    regions = [ConvexRegion([0, 1]), ConvexRegion([2, 3])]
    diamond = AgentShape([(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)])
    return Scenario(
        name="crossroad",
        environment=PolytopeEnvironment(walls, regions),
        agent=diamond,
        controller=DesiredController(goal=(0.0, 3.0)),
        cbf=CbfParams(kappa=5.0, buffer=math.log(2.0), alpha_gain=2.0),
        default_sim=SimConfig(x0=(-3.0, 0.0)),
        alternative_starts=((3.0, 0.0), (0.0, -3.0)),
    )


def _ellipse() -> Scenario:
    # Ellipse-shaped obstacle and agent, both as 32-gons; the free space is
    # the union of the 32 single-half-space exteriors of the obstacle edges.
    obstacle = _regular_polygon(32, 2.0, 1.0)
    walls = _polygon_exterior_half_spaces(obstacle)
    regions = [ConvexRegion([i]) for i in range(32)]
    agent = AgentShape(_regular_polygon(32, 1.0, 0.5))
    return Scenario(
        name="ellipse",
        environment=PolytopeEnvironment(walls, regions),
        agent=agent,
        controller=DesiredController(goal=(4.0, 0.6)),
        cbf=CbfParams(kappa=5.0, buffer=0.0, alpha_gain=2.0),
        default_sim=SimConfig(x0=(-4.0, -0.6)),
        alternative_starts=((-4.0, 0.8), (-4.5, 0.0)),
    )


def _revolving_door() -> Scenario:
    # Cross-shaped door (blade half-width 0.3, half-length 2) spinning at
    # 0.2 rad/s about the origin.  Free space: four outer half-planes plus
    # the four quadrant notches between blades, 12 half-spaces in total.
    a, length = 0.3, 2.0
    spin = RigidMotion(center=(0.0, 0.0), omega=0.2)
    walls = [
        HalfSpace((1.0, 0.0), (length, 0.0), spin),    # beyond +x blade tip
        HalfSpace((1.0, 0.0), (a, a), spin),           # +x+y notch
        HalfSpace((0.0, 1.0), (a, a), spin),
        HalfSpace((0.0, 1.0), (0.0, length), spin),    # beyond +y blade tip
        HalfSpace((-1.0, 0.0), (-a, a), spin),         # -x+y notch
        HalfSpace((0.0, 1.0), (-a, a), spin),
        HalfSpace((-1.0, 0.0), (-length, 0.0), spin),  # beyond -x blade tip
        HalfSpace((-1.0, 0.0), (-a, -a), spin),        # -x-y notch
        HalfSpace((0.0, -1.0), (-a, -a), spin),
        HalfSpace((0.0, -1.0), (0.0, -length), spin),  # beyond -y blade tip
        HalfSpace((1.0, 0.0), (a, -a), spin),          # +x-y notch
        HalfSpace((0.0, -1.0), (a, -a), spin),
    ]
    regions = [
        ConvexRegion([0]), ConvexRegion([1, 2]),
        ConvexRegion([3]), ConvexRegion([4, 5]),
        ConvexRegion([6]), ConvexRegion([7, 8]),
        ConvexRegion([9]), ConvexRegion([10, 11]),
    ]
    hexagon = AgentShape(_regular_polygon(6, 0.5))
    return Scenario(
        name="revolving-door",
        environment=PolytopeEnvironment(walls, regions),
        agent=hexagon,
        controller=DesiredController(goal=(4.0, 0.0)),
        cbf=CbfParams(kappa=5.0, buffer=0.0, alpha_gain=2.0),
        default_sim=SimConfig(x0=(-4.0, 0.0), t_end=40.0),
        alternative_starts=((-4.0, 1.0),),
    )


def _pyramid() -> Scenario:
    # Square-based pyramid (base half-width 1, height 1.5) on the ground
    # plane; cube agent of half-side 0.25.  Free space: above the apex
    # plane, or outside one slanted face while above ground.
    base, height = 1.0, 1.5
    slant = 1.0 / math.hypot(height, base)
    walls = [
        HalfSpace((0.0, 0.0, 1.0), (0.0, 0.0, height)),                 # apex plane
        HalfSpace((height * slant, 0.0, base * slant), (base, 0.0, 0.0)),
        HalfSpace((0.0, height * slant, base * slant), (0.0, base, 0.0)),
        HalfSpace((-height * slant, 0.0, base * slant), (-base, 0.0, 0.0)),
        HalfSpace((0.0, -height * slant, base * slant), (0.0, -base, 0.0)),
        HalfSpace((0.0, 0.0, 1.0), (0.0, 0.0, 0.0)),                    # ground
    ]
    regions = [ConvexRegion([0]), ConvexRegion([1, 5]), ConvexRegion([2, 5]),
               ConvexRegion([3, 5]), ConvexRegion([4, 5])]
    c = 0.25
    cube = AgentShape([(sx * c, sy * c, sz * c)
                       for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return Scenario(
        name="pyramid",
        environment=PolytopeEnvironment(walls, regions),
        agent=cube,
        controller=DesiredController(goal=(3.0, 0.4, 0.0)),
        cbf=CbfParams(kappa=5.0, buffer=0.0, alpha_gain=2.0),
        default_sim=SimConfig(x0=(-3.0, -0.4, 1.0)),
        alternative_starts=((-3.0, 0.8, 1.5),),
    )


_BUILDERS = {
    "convex-corner": _convex_corner,
    "concave-corner": _concave_corner,
    "l-shape": _l_shape,
    "crossroad": _crossroad,
    "ellipse": _ellipse,
    "revolving-door": _revolving_door,
    "pyramid": _pyramid,
}

BUILTIN_NAMES = tuple(_BUILDERS)


def builtin(name: str) -> Scenario:
    """Fresh copy of a bundled scenario by name."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; choose one of {', '.join(BUILTIN_NAMES)}"
        ) from None
    return builder()


# ---------------------------------------------------------------------------
# JSON config format
# ---------------------------------------------------------------------------

# Each JSON value kind has one reader, and every constructor is called
# through `_build`, so a malformed value of any kind raises ScenarioError
# naming its field.  A number is a JSON number: bool, text, null, arrays and
# objects are not numbers.  Keys the format does not use are ignored.

_REQUIRED = object()

# The flat sections in file order: the section's key, the Scenario field it
# fills, the constructor of that field, and its keys, each True for a vector
# of the scenario's dimension and False for a number.  The reader, the
# writer and the command line's overrides all follow this table.
_SECTIONS = (
    ("controller", "controller", DesiredController,
     {"goal": True, "gain": False, "u_max": False}),
    ("cbf", "cbf", CbfParams,
     {"kappa": False, "buffer": False, "alpha_gain": False}),
    ("sim", "default_sim", SimConfig,
     {"dt": False, "t_end": False, "x0": True, "goal_tolerance": False}),
)


def _get(obj, key: str, where: str, default=_REQUIRED):
    """Value of key in obj, the JSON object at path where."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected a JSON object")
    if key in obj:
        return obj[key]
    if default is _REQUIRED:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return default


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(
            f"{where}: expected a JSON array, got {json.dumps(value)}")
    return value


def _vector(value, dim: int | None, where: str) -> np.ndarray:
    """A JSON array of numbers, of length dim unless dim is None."""
    if not all(type(v) in (int, float) for v in _array(value, where)):
        raise ScenarioError(
            f"{where}: expected a list of numbers, got {json.dumps(value)}")
    if dim is not None and len(value) != dim:
        raise ScenarioError(
            f"{where}: expected a vector of length {dim}, "
            f"got {json.dumps(value)}")
    return _build(where, np.array, value, dtype=float)


def _number(obj, key: str, where: str, default=_REQUIRED) -> float:
    value = _get(obj, key, where, default)
    if type(value) not in (int, float):
        raise ScenarioError(
            f"{where}.{key}: expected a number, got {json.dumps(value)}")
    return _build(f"{where}.{key}", float, value)


def _build(where: str, make, *args, **kwargs):
    """make(*args, **kwargs), its rejection of a value raised as a
    ScenarioError that names where.  An OverflowError is a JSON integer
    too large for a float."""
    try:
        return make(*args, **kwargs)
    except (ValueError, TypeError, OverflowError) as err:
        raise ScenarioError(f"{where}: {err}") from None


def _motion(obj, dim: int, where: str) -> RigidMotion:
    center = _vector(_get(obj, "center", where), dim, f"{where}.center")
    lin = _get(obj, "linear_velocity", where, None)
    lin = None if lin is None else _vector(lin, dim, f"{where}.linear_velocity")
    if dim == 2:
        spin = {"omega": _number(obj, "omega", where)}
    else:
        spin = {"axis_rate": _vector(_get(obj, "axis_rate", where), 3,
                                     f"{where}.axis_rate")}
    return _build(where, RigidMotion, center, linear_velocity=lin, **spin)


def _scenario_from_dict(data) -> Scenario:
    top = "top level"
    dim = _get(data, "dimension", top)
    if dim not in (2, 3):
        raise ScenarioError(f"dimension: must be 2 or 3, got {json.dumps(dim)}")

    half_spaces = []
    motions: dict[str, RigidMotion] = {}
    for i, hs in enumerate(_array(_get(data, "halfspaces", top), "halfspaces")):
        where = f"halfspaces[{i}]"
        normal = _vector(_get(hs, "normal", where), dim, f"{where}.normal")
        anchor = _vector(_get(hs, "anchor", where), dim, f"{where}.anchor")
        motion = _get(hs, "motion", where, None)
        if motion is not None:
            # Identical motion objects are shared so they transform as one.
            key = json.dumps(motion, sort_keys=True)
            if key not in motions:
                motions[key] = _motion(motion, dim, f"{where}.motion")
            motion = motions[key]
        half_spaces.append(_build(where, HalfSpace, normal, anchor, motion))

    regions = [
        _build(f"regions[{j}]", ConvexRegion,
               _vector(idx, None, f"regions[{j}]"))
        for j, idx in enumerate(_array(_get(data, "regions", top), "regions"))]

    agent = _get(data, "agent", top)
    offsets = [_vector(row, dim, f"agent.offsets[{k}]") for k, row in
               enumerate(_array(_get(agent, "offsets", "agent"), "agent.offsets"))]

    # The sections are looked up here but read after the environment and
    # agent are built: this order decides a faulty file's first error.
    sections = [_get(data, section, top) for section, *_ in _SECTIONS]
    starts = _array(_get(data, "alternative_starts", top, []),
                    "alternative_starts")
    name = str(_get(data, "name", top, "unnamed"))
    environment = _build(top, PolytopeEnvironment, half_spaces, regions)
    agent = _build("agent.offsets", AgentShape, offsets)
    settings = {
        field: _build(section, make, **{
            key: _vector(_get(obj, key, section), dim, f"{section}.{key}")
            if vector else _number(obj, key, section)
            for key, vector in keys.items()})
        for (section, field, make, keys), obj in zip(_SECTIONS, sections)}
    return _build(
        top, Scenario, name=name, environment=environment, agent=agent,
        **settings,
        alternative_starts=tuple(
            _vector(s, dim, f"alternative_starts[{i}]")
            for i, s in enumerate(starts)),
    )


def _scenario_to_dict(scenario: Scenario) -> dict:
    def motion_dict(m: RigidMotion) -> dict:
        spin = ({"omega": m.spin} if m.dimension == 2
                else {"axis_rate": m.spin.tolist()})
        return {"center": m.center.tolist(),
                "linear_velocity": m.linear_velocity.tolist(), **spin}

    def setting_dict(obj, keys: dict) -> dict:
        return {key: getattr(obj, key).tolist() if vector
                else getattr(obj, key) for key, vector in keys.items()}

    env = scenario.environment
    return {
        "name": scenario.name,
        "dimension": env.dimension,
        "halfspaces": [
            {"normal": hs.normal.tolist(), "anchor": hs.anchor.tolist(),
             **({"motion": motion_dict(hs.motion)} if hs.motion else {})}
            for hs in env.half_spaces
        ],
        "regions": [r.indices.tolist() for r in env.regions],
        "agent": {"offsets": scenario.agent.offsets.tolist()},
        **{section: setting_dict(getattr(scenario, field), keys)
           for section, field, _, keys in _SECTIONS},
        "alternative_starts": [s.tolist() for s in scenario.alternative_starts],
    }


def load(path) -> Scenario:
    """Read a scenario config (JSON, UTF-8).  Raises ScenarioError naming
    the path when it cannot be read (a directory, no permission) or is not
    UTF-8 JSON, and a field-precise one on any malformed value; an unsafe
    x0 is accepted here and only rejected when a run starts."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise ScenarioError(
            f"cannot read {path}: {err.strerror or err}") from None
    # UnicodeDecodeError and JSONDecodeError are ValueErrors; deep nesting
    # exhausts the parser's recursion limit.
    except (ValueError, RecursionError) as err:
        raise ScenarioError(f"invalid JSON in {path}: {err}") from None
    return _scenario_from_dict(data)


def save(scenario: Scenario, path) -> None:
    """Write a scenario config; load(save(s)) reproduces s exactly (floats
    round-trip through JSON via repr).  A scenario without sim.x0 raises
    ScenarioError before the path is opened, since `load` requires it."""
    if scenario.default_sim.x0 is None:
        raise ScenarioError("sim.x0 must be set to save a scenario")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
