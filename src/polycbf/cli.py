"""Command-line interface: simulate scenarios, dump barrier fields, and run
verification audits.

Exit codes: 0 success, 2 validation/usage error, 3 audit failure,
4 runtime or filter error.  Failures emit one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import scenarios, svgplot, verify
from .barrier import barrier_field
from .safety_filter import DegenerateGradientError
from .sim import Termination, UnsafeStartError, run

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_AUDIT_FAILED = 3
EXIT_RUNTIME = 4

SCENARIO_DIR_ENV = "POLYCBF_SCENARIO_DIR"


def _fail(code: int, err: Exception | str) -> int:
    name = type(err).__name__ if isinstance(err, Exception) else "Error"
    print(json.dumps({"error": name, "message": str(err)}), file=sys.stderr)
    return code


def _resolve_scenario(ref: str) -> scenarios.Scenario:
    if ref in scenarios.BUILTIN_NAMES:
        return scenarios.builtin(ref)
    if os.path.exists(ref):
        return scenarios.load(ref)
    search_dir = os.environ.get(SCENARIO_DIR_ENV)
    if search_dir:
        for candidate in (os.path.join(search_dir, ref),
                          os.path.join(search_dir, ref + ".json")):
            if os.path.exists(candidate):
                return scenarios.load(candidate)
    raise scenarios.ScenarioError(
        f"unknown scenario {ref!r}: not a builtin "
        f"({', '.join(scenarios.BUILTIN_NAMES)}) and no such file")


def _given(args, *names) -> dict:
    """The command-line values among names that were set, by name."""
    return {name: getattr(args, name) for name in names
            if getattr(args, name, None) is not None}


def _require(condition: bool, message: str) -> None:
    """Raise ScenarioError with message unless condition holds."""
    if not condition:
        raise scenarios.ScenarioError(message)


def _open_outputs(*paths) -> None:
    """Open each given output path for appending and close it again, so a
    path that cannot be written fails before the work rather than after
    it.  An existing file keeps its contents until the real write."""
    for path in paths:
        if path:
            with open(path, "a", encoding="utf-8"):
                pass


def _apply_overrides(scenario, args) -> scenarios.Scenario:
    """Scenario with the command line's settings; an invalid value raises
    ScenarioError."""
    # Precedence: command line > scenario file > builtin defaults.  A flag's
    # dest is its file key; a key without a flag is never set here.
    try:
        return dataclasses.replace(scenario, **{
            field: dataclasses.replace(getattr(scenario, field),
                                       **_given(args, *keys))
            for _, field, _, keys in scenarios._SECTIONS})
    except ValueError as err:
        raise scenarios.ScenarioError(str(err)) from None


def cmd_simulate(args) -> int:
    scenario = _apply_overrides(_resolve_scenario(args.scenario), args)
    _open_outputs(args.csv, args.svg)
    t0 = time.perf_counter()
    result = run(scenario)
    wall = time.perf_counter() - t0
    if args.csv:
        result.write_csv(args.csv)
    if args.svg:
        svgplot.render_trajectory(scenario, result, args.svg)

    goal_t = "-" if result.reached_goal_at is None \
        else f"{result.reached_goal_at:.2f} s"
    # an error run can end before its first row
    final = result.positions[-1].tolist() if result.times.size else "-"
    print(f"scenario    : {scenario.name}")
    print(f"termination : {result.termination.value}")
    print(f"min h       : {result.min_h:.6g}")
    print(f"goal time   : {goal_t}")
    print(f"final state : {final}")
    print(f"wall time   : {wall:.3f} s")
    if result.termination is Termination.ERROR:
        # run() ends in "error" only on a DegenerateGradientError
        return _fail(EXIT_RUNTIME, DegenerateGradientError(result.error))
    return EXIT_OK


def cmd_field(args) -> int:
    _require(args.resolution >= 1,
             f"resolution must be at least 1, got {args.resolution}")
    _require(math.isfinite(args.time),
             f"time must be finite, got {args.time}")
    scenario = _apply_overrides(_resolve_scenario(args.scenario), args)
    dim = scenario.environment.dimension
    if args.bounds is not None:
        _require(len(args.bounds) == 2 * dim,
                 f"--bounds needs {2 * dim} numbers for a {dim}D scenario")
        _require(all(map(math.isfinite, args.bounds)),
                 f"--bounds must be finite, got {args.bounds}")
        bounds = np.asarray(args.bounds).reshape(dim, 2)
        low, high = bounds[:, 0], bounds[:, 1]
    else:
        low, high = verify.scenario_bounds(scenario)
    _open_outputs(args.out)

    grid = verify.grid_points(low, high, args.resolution)
    h, margin = barrier_field(scenario.environment, scenario.agent, grid,
                              args.time, scenario.cbf)
    axes = "xyz"[:dim]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(",".join(list(axes) + ["psi", "h"]) + "\n")
        for point, m, hv in zip(grid, margin, h):
            cells = [f"{v:.17g}" for v in (*point, m, hv)]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {grid.shape[0]} grid rows to {args.out}")
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [args.scenario] if args.scenario else scenarios.BUILTIN_NAMES
    _require(args.n >= 1, f"n must be at least 1, got {args.n}")
    _require(args.seed >= 0, f"seed must be nonnegative, got {args.seed}")
    scens = [scenarios.builtin(name) for name in names]
    _open_outputs(args.out)
    reports = verify.run_suite(args.suite, scens, args.seed, args.n)
    payload = json.dumps([r.to_dict() for r in reports], indent=2,
                         sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    if not all(r.passed for r in reports):
        failed = [r.name for r in reports if not r.passed]
        return _fail(EXIT_AUDIT_FAILED, f"audits failed: {', '.join(failed)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycbf",
        description="Safety-filtered navigation in polytope environments.")
    sub = parser.add_subparsers(dest="command", required=True)

    cbf = argparse.ArgumentParser(add_help=False)
    cbf.add_argument("--kappa", type=float)
    cbf.add_argument("--buffer", type=float)
    cbf.add_argument("--alpha-gain", type=float, dest="alpha_gain")

    sim = sub.add_parser("simulate", parents=[cbf],
                         help="run a scenario and log the trajectory")
    sim.add_argument("scenario", help="builtin name or config file path")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--t-end", type=float, dest="t_end")
    sim.add_argument("--start", type=float, nargs="+", dest="x0")
    sim.add_argument("--goal", type=float, nargs="+")
    sim.add_argument("--csv", help="trajectory CSV output path")
    sim.add_argument("--svg", help="trajectory SVG output path")
    sim.set_defaults(func=cmd_simulate)

    fld = sub.add_parser("field", parents=[cbf],
                         help="dump a grid of (psi, h) values")
    fld.add_argument("scenario")
    fld.add_argument("--bounds", type=float, nargs="+",
                     help="xmin xmax ymin ymax [zmin zmax]")
    fld.add_argument("--resolution", type=int, default=100)
    fld.add_argument("--time", type=float, default=0.0)
    fld.add_argument("--out", required=True)
    fld.set_defaults(func=cmd_field)

    ver = sub.add_parser("verify", help="run verification audits")
    ver.add_argument("suite", choices=(*verify.SUITES, "all"))
    ver.add_argument("--scenario", help="restrict to one builtin")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--n", type=int, default=100000)
    ver.add_argument("--out", help="write the JSON report to a file")
    ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors, matching our validation code
        return int(exc.code) if exc.code else EXIT_OK
    # The commands raise; their errors map to exit codes here alone.
    try:
        return args.func(args)
    except scenarios.ScenarioError as err:
        return _fail(EXIT_VALIDATION, err)
    except (OSError, UnsafeStartError) as err:
        return _fail(EXIT_RUNTIME, err)


if __name__ == "__main__":
    sys.exit(main())
