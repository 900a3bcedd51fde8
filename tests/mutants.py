"""Mutation audit of the proof terms and the audit thresholds.

Each mutant is one exact string edit of the source, weakening a proved term
or loosening a pass threshold, with the test subset that should kill it.
For each mutant the script copies src/, tests/ and pyproject.toml to a
temporary directory (all three: pyproject's `pythonpath = ["src"]` would
otherwise import the unmutated source), applies the edit, and runs the
subset there with `pytest -x -q`.  The mutant is killed when that run
fails.  First every subset runs once on an unmutated copy, since a subset
that fails there would seem to kill every mutant.

Run it from the repository root as `python tests/mutants.py`; it takes no
options and uses the standard library only.  It exits non-zero if an
unmutated subset fails, an edit's string is not found exactly once, or a
mutant that must be killed survives.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

IDLE = "tests/test_sim.py::TestIdleCertificate"
GRADIENT = "tests/test_barrier.py::TestGradientBounds"
CURVATURE = "tests/test_barrier.py::TestCurvatureBounds"
PAIRS = CURVATURE + "::test_lower_bounds_hold_for_single_pairs"
THRESHOLDS = "tests/test_verify.py::TestPassThresholds"

# (mutant, file, exact old text, new text, test subset, must be killed)
MUTANTS = (
    ("idle certificate margin 1e-9 -> 0", "src/polycbf/sim.py",
     "gamma * h_low > 1e-9 * (scale", "gamma * h_low > 0.0 * (scale",
     IDLE, True),
    ("static quad halved", "src/polycbf/barrier.py",
     "quad, cross = lipschitz * dist * dist,",
     "quad, cross = 0.5 * lipschitz * dist * dist,", CURVATURE, True),
    ("gradient_bounds L halved", "src/polycbf/barrier.py",
     "return math.sqrt(env._max_normal_sq), kappa * env._max_normal_sq",
     "return math.sqrt(env._max_normal_sq), 0.5 * kappa * env._max_normal_sq",
     GRADIENT, True),
    ("drift dropped from T", "src/polycbf/barrier.py",
     "rate_bound = max(rate_bound, turn * q + slide)",
     "rate_bound = max(rate_bound, turn * q)", CURVATURE, True),
    ("2 W dist tau dropped from quad", "src/polycbf/barrier.py",
     "+ 2.0 * twist * dist * span + span * span * accel)",
     "+ span * span * accel)", PAIRS, True),
    ("drift term of C2 halved", "src/polycbf/barrier.py",
     "accel = max(accel, rate * (turn * q + 2.0 * slide))",
     "accel = max(accel, rate * (turn * q + 1.0 * slide))", PAIRS, True),
    # No violation in 40,000 single-pair draws, and no proof yet that the
    # term is slack: listed so that a test or a proof can settle it.
    ("kappa T term of the moving cross halved", "src/polycbf/barrier.py",
     "cross += (kappa * rate_bound", "cross += (0.5 * kappa * rate_bound",
     CURVATURE, False),
    ("hull audit passes at >= -1e-3", "src/polycbf/verify.py",
     "passed=bool(worst >= -1e-12)", "passed=bool(worst >= -1e-3)",
     THRESHOLDS, True),
)


def copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.pyc")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def tests_pass(copy: Path, subset: str) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         subset],
        cwd=copy, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=900)
    return result.returncode == 0


def mutate(copy: Path, path: str, old: str, new: str) -> None:
    target = copy / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{path}: {old!r} found {text.count(old)} times, "
                         f"not once")
    target.write_text(text.replace(old, new), encoding="utf-8")


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="polycbf-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        for subset in dict.fromkeys(m[4] for m in MUTANTS):
            if not tests_pass(clean, subset):
                print(f"{subset} fails on the unmutated source")
                return 1
        rows, missed = [], 0
        for i, (name, path, old, new, subset, must) in enumerate(MUTANTS):
            copy = Path(tmp) / f"mutant{i}"
            copy_tree(copy)
            mutate(copy, path, old, new)
            killed = not tests_pass(copy, subset)
            shutil.rmtree(copy)
            missed += must and not killed
            rows.append((name, subset.removeprefix("tests/"),
                         "killed" if killed else "survived",
                         "yes" if must else "no"))
    print("| mutant | test subset | result | must be killed |")
    print("|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
