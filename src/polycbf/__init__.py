"""Closed-form control barrier functions for polytope agents navigating
polytope environments, with a projection-based safety filter and simulator."""

from .barrier import (BarrierEvaluation, CbfParams, barrier_field,
                      margin_agent, margin_field, provable_buffer,
                      smooth_barrier)
from .geometry import (AgentShape, ConvexRegion, HalfSpace,
                       PolytopeEnvironment, RigidMotion)
from .safety_filter import (DegenerateGradientError, DesiredController,
                            FilterResult, safe_velocity)
from .scenarios import (BUILTIN_NAMES, Scenario, ScenarioError, builtin, load,
                        save, static_variant)
from .sim import SimConfig, SimResult, Termination, UnsafeStartError, run, step

__version__ = "0.1.0"

__all__ = [
    "AgentShape",
    "BarrierEvaluation",
    "BUILTIN_NAMES",
    "CbfParams",
    "ConvexRegion",
    "DegenerateGradientError",
    "DesiredController",
    "FilterResult",
    "HalfSpace",
    "PolytopeEnvironment",
    "RigidMotion",
    "Scenario",
    "ScenarioError",
    "SimConfig",
    "SimResult",
    "Termination",
    "UnsafeStartError",
    "barrier_field",
    "builtin",
    "load",
    "margin_agent",
    "margin_field",
    "provable_buffer",
    "run",
    "safe_velocity",
    "save",
    "smooth_barrier",
    "static_variant",
    "step",
    "__version__",
]
