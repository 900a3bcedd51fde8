"""Every public value type compares by value: a deep copy, and for the
geometry types a pickle round trip, equals the original; changing any one
compared attribute makes the two unequal; and an object of another type
gets NotImplemented.  Arrays compare by shape and entries, so a NaN is
unequal to itself."""

import copy
import dataclasses
import enum
import functools
import pickle

import numpy as np
import pytest

from polycbf import (AgentShape, BarrierEvaluation, ConvexRegion, HalfSpace,
                     PolytopeEnvironment, RigidMotion, builtin, run,
                     safe_velocity, smooth_barrier)

from test_sim import closing_walls

# The attributes each geometry type compares; a dataclass compares all of
# its fields.
GEOMETRY = {
    RigidMotion: ("center", "spin", "linear_velocity"),
    HalfSpace: ("normal", "anchor", "motion"),
    ConvexRegion: ("indices",),
    PolytopeEnvironment: ("half_spaces", "regions"),
    AgentShape: ("offsets",),
}


def compared(value):
    if dataclasses.is_dataclass(value):
        return [field.name for field in dataclasses.fields(value)]
    return GEOMETRY[type(value)]


def changed(value):
    """A value unequal to value, for any attribute of the value types."""
    if value is None:
        return 0.0
    if isinstance(value, np.ndarray):
        if value.size == 0:
            return np.zeros((1, *value.shape[1:]), value.dtype)
        out = value.copy()
        out.flat[0] = ~out.flat[0] if out.dtype == bool else out.flat[0] + 1
        return out
    if isinstance(value, (bool, np.bool_)):
        return not value
    if isinstance(value, enum.Enum):  # before str: Termination is a str
        return next(m for m in type(value) if m is not value)
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, tuple):
        return value[:-1] if value else (np.zeros(2),)
    return with_change(value, compared(value)[0])


def with_change(value, name):
    """A deep copy of value with attribute name changed."""
    out = copy.deepcopy(value)
    object.__setattr__(out, name, changed(getattr(out, name)))
    return out


def short_run(scenario, x0=None):
    config = dataclasses.replace(scenario.default_sim, t_end=0.5)
    if x0 is not None:
        config = dataclasses.replace(config, x0=x0)
    return run(scenario, config)


def error_run():
    """A run that fails at its first step and so records no rows: its
    min_h and min_psi are NaN."""
    result = short_run(closing_walls(2.0))
    assert result.termination.value == "error" and result.times.size == 0
    return result


@functools.cache
def cases():
    door, pyramid, l_shape = (builtin(name) for name in
                              ("revolving-door", "pyramid", "l-shape"))
    env = door.environment
    moving = next(hs for hs in env.half_spaces if hs.motion is not None)
    spin_3d = RigidMotion((0.4, -0.3, 0.2), axis_rate=(0.1, -0.15, 0.25),
                          linear_velocity=(0.05, 0.0, -0.1))
    evaluation = BarrierEvaluation(0.1, np.array([1.0, 0.0]), -0.2, 0.3)
    found = dataclasses.replace(error_run(), min_h=0.0, min_psi=0.0)
    return {
        "motion-2d": moving.motion,
        "motion-3d": spin_3d,
        "half-space-moving": moving,
        "half-space-static": pyramid.environment.half_spaces[0],
        "region": env.regions[0],
        "environment-moving": env,
        "environment-3d": pyramid.environment,
        "agent": door.agent,
        "controller": door.controller,
        "sim-config": door.default_sim,
        "sim-config-no-x0": dataclasses.replace(door.default_sim, x0=None),
        "scenario-moving": door,
        "scenario-static": l_shape,
        "evaluation": smooth_barrier(env, door.agent, door.default_sim.x0,
                                     0.3, door.cbf),
        "filter-inactive": safe_velocity(evaluation, [1.0, 0.0], door.cbf),
        "filter-active": safe_velocity(evaluation, [-1.0, 0.0], door.cbf),
        "result-static": short_run(l_shape),
        "result-moving": short_run(door, door.alternative_starts[0]),
        "result-error": found,
    }


@pytest.mark.parametrize("name", list(cases()))
def test_copies_compare_equal(name):
    value = cases()[name]
    copies = [copy.deepcopy(value)]
    if type(value) in GEOMETRY:
        copies.append(pickle.loads(pickle.dumps(value)))
    for other in copies:
        assert other is not value
        assert value == other and other == value
        assert not value != other


@pytest.mark.parametrize("name", list(cases()))
def test_each_compared_attribute_counts(name):
    value = cases()[name]
    for attribute in compared(value):
        other = with_change(value, attribute)
        assert value != other and other != value, attribute


@pytest.mark.parametrize("name", list(cases()))
def test_other_types_get_not_implemented(name):
    value = cases()[name]
    others = [3, None, "x", *(v for v in cases().values()
                              if type(v) is not type(value))]
    for other in others:
        assert type(value).__eq__(value, other) is NotImplemented
        assert value != other


def test_active_filter_results_differ():
    results = cases()
    assert results["filter-active"].constraint_active
    assert not results["filter-inactive"].constraint_active
    assert results["filter-active"] != results["filter-inactive"]


def test_nan_compares_unequal():
    # An error run before its first row has a NaN min_h, and NaN is unequal
    # to itself, as for floats.
    result = error_run()
    assert np.isnan(result.min_h) and np.isnan(result.min_psi)
    assert result != copy.deepcopy(result)
    assert result != dataclasses.replace(result, min_h=0.0, min_psi=0.0)
    evaluation = BarrierEvaluation(0.0, np.array([np.nan, 0.0]), 0.0, 0.0)
    assert evaluation != copy.deepcopy(evaluation)
