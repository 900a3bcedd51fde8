"""Variants of the builtin worlds with changed motions: moving ones, for the
tests of the barrier's curvature bound in (p, t) and of the certified-idle
RK4 stages, and frozen ones, for the tests that compare a moving world with
its pose at t = 0."""

import dataclasses
from functools import partial

import numpy as np

from polycbf.geometry import (AgentShape, ConvexRegion, HalfSpace,
                              PolytopeEnvironment, RigidMotion)
from polycbf.scenarios import builtin


def with_motions(scenario, motions, new_name):
    """The scenario with half-space i carried by motions[i] (None or
    absent: static)."""
    env = scenario.environment
    half_spaces = [HalfSpace(hs.normal, hs.anchor, motions.get(i))
                   for i, hs in enumerate(env.half_spaces)]
    return dataclasses.replace(
        scenario, name=new_name,
        environment=PolytopeEnvironment(half_spaces, env.regions))


def static_variant(scenario):
    """Copy of the scenario with every rigid motion removed (frozen at its
    t = 0 pose), named `<name>-static`.  Used e.g. to compare the revolving
    door with a stationary one."""
    return with_motions(scenario, {}, scenario.name + "-static")


def spun_pyramid():
    """The pyramid spun about a tilted axis through an off-centre pivot."""
    spin = RigidMotion((0.4, -0.3, 0.2), axis_rate=(0.1, -0.15, 0.25))
    return with_motions(builtin("pyramid"), dict.fromkeys(range(6), spin),
                        "spun-pyramid")


def sliding_l_shape():
    """The L-shape translating without turning (omega = 0)."""
    slide = RigidMotion((0.0, 0.0), omega=0.0, linear_velocity=(0.3, -0.2))
    return with_motions(builtin("l-shape"), dict.fromkeys(range(6), slide),
                        "sliding-l-shape")


def mixed_world():
    """A point agent, a static box far out at x in [18, 22], and two moving
    walls, each a region of its own: one turning clockwise (negative omega)
    about the origin, one turning while it drifts.  Near the origin the
    turning wall outweighs the box even at kappa = 0.3, so h follows one
    face whose d2/dt2 is not dwarfed by kappa (dh/dt)^2."""
    box = [HalfSpace((1.0, 0.0), (18.0, 0.0)),
           HalfSpace((-1.0, 0.0), (22.0, 0.0)),
           HalfSpace((0.0, 1.0), (0.0, -2.0)),
           HalfSpace((0.0, -1.0), (0.0, 2.0))]
    turning = HalfSpace((1.0, 0.0), (0.5, 0.0),
                        RigidMotion((0.0, 0.0), omega=-0.8))
    drifting = HalfSpace((0.0, 1.0), (0.0, -0.5),
                         RigidMotion((1.0, 1.0), omega=0.1,
                                     linear_velocity=(0.05, 0.1)))
    env = PolytopeEnvironment(box + [turning, drifting],
                              [ConvexRegion([0, 1, 2, 3]), ConvexRegion([4]),
                               ConvexRegion([5])])
    return dataclasses.replace(builtin("crossroad"), name="mixed-world",
                               environment=env, agent=AgentShape.point(2))


def polygon_door(n):
    """The revolving door with a regular n-gon agent of the hexagon's
    circumradius 0.5 in place of the hexagon."""
    angles = 2.0 * np.pi * np.arange(n) / n
    agent = AgentShape(0.5 * np.column_stack([np.cos(angles), np.sin(angles)]))
    return dataclasses.replace(builtin("revolving-door"),
                               name=f"door-{n}-gon", agent=agent)


# Agents of 9 and 137 vertices: a fold of the vertex axis in numpy's pairwise
# order then has a row left over past a multiple of 8, and splits above 128.
POLYGON_DOORS = {f"door-{n}-gon": partial(polygon_door, n) for n in (9, 137)}

MOVING_WORLDS = {
    "revolving-door": lambda: builtin("revolving-door"),
    "spun-pyramid": spun_pyramid,
    "sliding-l-shape": sliding_l_shape,
    "mixed-world": mixed_world,
}
