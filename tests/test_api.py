"""The public names of the package: the library exports what its pipeline,
CLI and audits call, and the test-only helpers live in `oracles` and
`worlds`, so a removed name cannot come back unnoticed."""

import ast
import inspect
from pathlib import Path

import polycbf
import polycbf.scenarios
import polycbf.verify
from polycbf.geometry import AgentShape, HalfSpace, RigidMotion


def test_package_exports():
    assert sorted(polycbf.__all__) == sorted([
        "AgentShape", "BarrierEvaluation", "BUILTIN_NAMES", "CbfParams",
        "ConvexRegion", "DegenerateGradientError", "DesiredController",
        "FilterResult", "HalfSpace", "PolytopeEnvironment", "RigidMotion",
        "Scenario", "ScenarioError", "SimConfig", "SimResult", "Termination",
        "UnsafeStartError", "barrier_field", "builtin", "load",
        "margin_agent", "margin_field", "provable_buffer", "run",
        "safe_velocity", "save", "smooth_barrier", "step", "__version__",
    ])
    for name in polycbf.__all__:
        assert hasattr(polycbf, name), name


def test_verify_exports():
    assert sorted(polycbf.verify.__all__) == sorted([
        "AuditReport", "hull_containment_audit", "under_approximation_audit",
        "gradient_audit", "qp_closed_form_audit", "smoothing_sandwich_audit",
        "SUITES", "run_suite", "scenario_bounds", "grid_points",
    ])
    for name in ("qp_bruteforce", "InfeasibleGridError"):
        assert not hasattr(polycbf.verify, name), name


def test_gradient_audit_signature():
    # Another kappa is a scenario with replaced `CbfParams`, and the
    # finite-difference step is fixed.
    params = inspect.signature(polycbf.verify.gradient_audit).parameters
    assert list(params) == ["scenario", "n_states", "seed"]


def test_scenarios_exports():
    assert sorted(polycbf.scenarios.__all__) == sorted([
        "Scenario", "ScenarioError", "BUILTIN_NAMES", "builtin", "load",
        "save",
    ])
    assert not hasattr(polycbf.scenarios, "static_variant")
    assert not hasattr(polycbf, "static_variant")


def test_removed_methods_stay_removed():
    for name in ("rotation", "rotation_rate", "_angle", "_axis"):
        assert not hasattr(RigidMotion, name), name
    assert not hasattr(HalfSpace, "normalized")
    assert not hasattr(AgentShape, "vertices")


def test_value_equality_is_written_once():
    # Every value type assigns `__eq__ = geometry._eq_by(...)`, whose
    # returned function is the one `__eq__` left in the package.
    package = Path(polycbf.__file__).parent
    defined = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                defined += [f"{path.name}:{node.name}" for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and item.name == "__eq__"]
    assert defined == []
