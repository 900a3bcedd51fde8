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
from dataclasses import dataclass, replace

import numpy as np

from .barrier import CbfParams
from .geometry import (AgentShape, ConvexRegion, HalfSpace,
                       PolytopeEnvironment, RigidMotion)
from .safety_filter import DesiredController
from .sim import SimConfig

__all__ = ["Scenario", "ScenarioError", "BUILTIN_NAMES", "builtin",
           "load", "save", "static_variant"]


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
            np.asarray(s, dtype=float) for s in self.alternative_starts)
        for i, s in enumerate(self.alternative_starts):
            if s.shape != (dim,):
                raise ScenarioError(
                    f"alternative_starts[{i}] has shape {s.shape}, "
                    f"expected ({dim},)")

    def all_starts(self) -> list[np.ndarray]:
        return [self.default_sim.x0, *self.alternative_starts]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self.name == other.name
            and self.environment == other.environment
            and self.agent == other.agent
            and self.controller == other.controller
            and self.cbf == other.cbf
            and self.default_sim == other.default_sim
            and len(self.alternative_starts) == len(other.alternative_starts)
            and all(np.array_equal(a, b) for a, b in
                    zip(self.alternative_starts, other.alternative_starts))
        )


def static_variant(scenario: Scenario) -> Scenario:
    """Copy of the scenario with every rigid motion removed (frozen at its
    t = 0 pose).  Used e.g. to compare the revolving door with a stationary
    one."""
    frozen = [HalfSpace(hs.normal, hs.anchor, None)
              for hs in scenario.environment.half_spaces]
    env = PolytopeEnvironment(frozen, [ConvexRegion(r.indices)
                                       for r in scenario.environment.regions])
    return replace(scenario, name=scenario.name + "-static", environment=env)


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

def _require(mapping, key: str, where: str):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected a JSON object")
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _require_list(mapping, key: str, where: str) -> list:
    value = _require(mapping, key, where)
    if not isinstance(value, list):
        raise ScenarioError(f"{key}: expected a JSON array")
    return value


def _vector(value, dim: int | None, where: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ScenarioError(f"{where}: expected a list of numbers") from None
    if arr.ndim != 1 or (dim is not None and arr.shape[0] != dim):
        raise ScenarioError(
            f"{where}: expected a vector of length {dim}, got {value!r}")
    return arr


def _motion_from_dict(obj: dict, dim: int, where: str) -> RigidMotion:
    center = _vector(_require(obj, "center", where), dim, f"{where}.center")
    lin = obj.get("linear_velocity")
    lin = None if lin is None else _vector(lin, dim, f"{where}.linear_velocity")
    if dim == 2:
        omega = _require(obj, "omega", where)
        if not isinstance(omega, (int, float)):
            raise ScenarioError(f"{where}.omega: expected a number")
        return RigidMotion(center, omega=float(omega), linear_velocity=lin)
    axis_rate = _vector(_require(obj, "axis_rate", where), 3, f"{where}.axis_rate")
    return RigidMotion(center, axis_rate=axis_rate, linear_velocity=lin)


def _scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("top level: expected a JSON object")
    dim = _require(data, "dimension", "top level")
    if dim not in (2, 3):
        raise ScenarioError(f"dimension: must be 2 or 3, got {dim!r}")

    half_spaces = []
    motions: dict[str, RigidMotion] = {}
    hs_list = _require_list(data, "halfspaces", "top level")
    for i, hs in enumerate(hs_list):
        where = f"halfspaces[{i}]"
        normal = _vector(_require(hs, "normal", where), dim, f"{where}.normal")
        anchor = _vector(_require(hs, "anchor", where), dim, f"{where}.anchor")
        motion = None
        if hs.get("motion") is not None:
            # Identical motion objects are shared so they transform as one.
            key = json.dumps(hs["motion"], sort_keys=True)
            if key not in motions:
                motions[key] = _motion_from_dict(hs["motion"], dim,
                                                 f"{where}.motion")
            motion = motions[key]
        try:
            half_spaces.append(HalfSpace(normal, anchor, motion))
        except ValueError as err:
            raise ScenarioError(f"{where}: {err}") from None

    regions = []
    for j, idx in enumerate(_require_list(data, "regions", "top level")):
        try:
            regions.append(ConvexRegion(idx))
        except (ValueError, TypeError) as err:
            raise ScenarioError(f"regions[{j}]: {err}") from None
    try:
        env = PolytopeEnvironment(half_spaces, regions)
    except ValueError as err:
        raise ScenarioError(str(err)) from None

    agent_obj = _require(data, "agent", "top level")
    offsets = _require(agent_obj, "offsets", "agent")
    try:
        agent = AgentShape(offsets)
    except ValueError as err:
        raise ScenarioError(f"agent.offsets: {err}") from None

    ctrl_obj = _require(data, "controller", "top level")
    try:
        controller = DesiredController(
            goal=_vector(_require(ctrl_obj, "goal", "controller"), dim,
                         "controller.goal"),
            gain=float(_require(ctrl_obj, "gain", "controller")),
            u_max=float(_require(ctrl_obj, "u_max", "controller")),
        )
    except ValueError as err:
        raise ScenarioError(f"controller: {err}") from None

    cbf_obj = _require(data, "cbf", "top level")
    try:
        cbf = CbfParams(
            kappa=float(_require(cbf_obj, "kappa", "cbf")),
            buffer=float(_require(cbf_obj, "buffer", "cbf")),
            alpha_gain=float(_require(cbf_obj, "alpha_gain", "cbf")),
        )
    except ValueError as err:
        raise ScenarioError(f"cbf: {err}") from None

    sim_obj = _require(data, "sim", "top level")
    try:
        sim = SimConfig(
            dt=float(_require(sim_obj, "dt", "sim")),
            t_end=float(_require(sim_obj, "t_end", "sim")),
            x0=_vector(_require(sim_obj, "x0", "sim"), dim, "sim.x0"),
            goal_tolerance=float(_require(sim_obj, "goal_tolerance", "sim")),
            record_stride=float(sim_obj.get("record_stride", 1)),
        )
    except ValueError as err:
        raise ScenarioError(f"sim: {err}") from None

    starts = [_vector(s, dim, f"alternative_starts[{i}]")
              for i, s in enumerate(data.get("alternative_starts", []))]
    try:
        return Scenario(
            name=str(data.get("name", "unnamed")),
            environment=env,
            agent=agent,
            controller=controller,
            cbf=cbf,
            default_sim=sim,
            alternative_starts=tuple(starts),
        )
    except ScenarioError:
        raise
    except ValueError as err:
        raise ScenarioError(str(err)) from None


def _scenario_to_dict(scenario: Scenario) -> dict:
    motions_seen: dict[int, dict] = {}

    def motion_dict(m: RigidMotion | None):
        if m is None:
            return None
        if id(m) not in motions_seen:
            obj = {"center": m.center.tolist(),
                   "linear_velocity": m.linear_velocity.tolist()}
            if m.dimension == 2:
                obj["omega"] = m.spin
            else:
                obj["axis_rate"] = np.asarray(m.spin).tolist()
            motions_seen[id(m)] = obj
        return motions_seen[id(m)]

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
        "controller": {
            "goal": scenario.controller.goal.tolist(),
            "gain": scenario.controller.gain,
            "u_max": scenario.controller.u_max,
        },
        "cbf": {
            "kappa": scenario.cbf.kappa,
            "buffer": scenario.cbf.buffer,
            "alpha_gain": scenario.cbf.alpha_gain,
        },
        "sim": {
            "dt": scenario.default_sim.dt,
            "t_end": scenario.default_sim.t_end,
            "x0": scenario.default_sim.x0.tolist(),
            "goal_tolerance": scenario.default_sim.goal_tolerance,
            "record_stride": scenario.default_sim.record_stride,
        },
        "alternative_starts": [s.tolist() for s in scenario.alternative_starts],
    }


def load(path) -> Scenario:
    """Read a scenario config (JSON, UTF-8).  Raises ScenarioError with a
    field-precise message on schema violations; an unsafe x0 is accepted
    here and only rejected when a run starts."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError(f"invalid JSON in {path}: {err}") from None
    return _scenario_from_dict(data)


def save(scenario: Scenario, path) -> None:
    """Write a scenario config; load(save(s)) reproduces s exactly (floats
    round-trip through JSON via repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_scenario_to_dict(scenario), fh, indent=2)
        fh.write("\n")
