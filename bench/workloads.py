"""Benchmark workloads: seeded inputs, one timed pass, correctness checks.

A pass is the unit that repeats until the run's time is up:

- rollout-static / rollout-door: `polycbf.run()` on every builtin start of
  the workload's scenarios plus, in the first two passes, seeded extra
  starts; then one control tick
  (smooth_barrier -> controller.velocity -> safe_velocity) replayed at every
  recorded (t, x) of every builtin trajectory.
- verify-all: `polycbf verify all --seed <seed>` through `polycbf.cli.main`,
  then one control tick at each of a fixed set of seeded safe states.

Every rollout, tick and CLI call is one attempted operation; the checks
below decide which of them failed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import polycbf as pc
from polycbf import cli, verify

import hostspeed

ALL_SCENARIOS = ("convex-corner", "concave-corner", "l-shape", "crossroad",
                 "ellipse", "revolving-door", "pyramid")
STATIC_SCENARIOS = tuple(n for n in ALL_SCENARIOS if n != "revolving-door")
SCENARIOS = {
    "rollout-static": STATIC_SCENARIOS,
    "rollout-door": ("revolving-door",),
    "verify-all": ALL_SCENARIOS,
}
# Seeded extra starts per scenario on the rollout workloads.
EXTRA_STARTS = {"rollout-static": 1, "rollout-door": 2}
VERIFY_SUITES = ("gradients", "qp", "hull", "under", "sandwich")

H_TOL = 1e-3  # acceptance tolerance on min h along a trajectory
TICK_BLOCK = 100  # ticks between two host-speed probes
TICK_REPLAYS = 2  # replays of the tick states per pass


@dataclass(frozen=True)
class Size:
    """How much work a pass does.  FULL is the benchmark; TINY is for the
    smoke test and keeps every code path while shrinking each input."""

    builtin_starts: int | None  # builtin starts per scenario; None = all
    tick_states: int            # seeded safe tick states per scenario
    t_end: float | None         # horizon cap; None keeps the scenario's own
    verify_n: int | None        # `verify --n`; None keeps the CLI default


FULL = Size(builtin_starts=None, tick_states=1000, t_end=None, verify_n=None)
TINY = Size(builtin_starts=1, tick_states=10, t_end=0.5, verify_n=200)


@dataclass
class Start:
    scenario: pc.Scenario
    x0: np.ndarray
    builtin: bool


@dataclass
class Pass:
    """One pass.  Times are rescaled to the reference host (hostspeed);
    the raw_ fields keep them as measured."""

    traced: bool
    units: list = field(default_factory=list)  # seconds of each timed unit
    raw_units: list = field(default_factory=list)
    rollout_s: float = 0.0   # every run() call of the pass
    steps: int = 0
    tick_ns: np.ndarray = field(  # (TICK_REPLAYS, states) latencies
        default_factory=lambda: np.zeros((TICK_REPLAYS, 0)))
    raw_tick_ns: np.ndarray = field(
        default_factory=lambda: np.zeros((TICK_REPLAYS, 0)))
    active: int = 0
    attempted: int = 0
    failures: list = field(default_factory=list)
    results: list = field(default_factory=list)


def pass_seconds(passes, raw: bool = False) -> float:
    """Seconds of one pass: each timed unit (a builtin rollout, or the
    `verify all` call) at its median over the passes, summed."""
    return sum(statistics.median(col) for col in zip(
        *((p.raw_units if raw else p.units) for p in passes)))


def tick_us(passes, q: float, raw: bool = False) -> float:
    """q-th percentile, over tick states, of each state's median latency
    over every replay of every pass (each replays the same states in the
    same order).  The per-state median keeps isolated bursts of the host
    out of the tail."""
    lat = [p.raw_tick_ns if raw else p.tick_ns for p in passes]
    lat = np.concatenate([x for x in lat if x.shape == lat[0].shape])
    return float(np.percentile(np.median(lat, axis=0), q)) / 1e3


def builtin_scenario(name: str, size: Size) -> pc.Scenario:
    s = pc.builtin(name)
    if size.t_end is not None:
        s = dataclasses.replace(s, default_sim=dataclasses.replace(
            s.default_sim, t_end=size.t_end))
    return s


def safe_states(s: pc.Scenario, rng, n: int, t_max: float = 0.0):
    """n seeded (t, x) pairs drawn uniformly in the scenario's bounding box
    (and in [0, t_max]) with h(x, t) > 0."""
    low, high = verify.scenario_bounds(s)
    out = []
    while len(out) < n:
        x = rng.uniform(low, high)
        t = float(rng.uniform(0.0, t_max)) if t_max > 0 else 0.0
        if pc.smooth_barrier(s.environment, s.agent, x, t, s.cbf).value > 0:
            out.append((t, x))
    return out


def tick(s: pc.Scenario, x, t: float):
    """One filtered command, as a controller pays it per control tick."""
    ev = pc.smooth_barrier(s.environment, s.agent, x, t, s.cbf)
    return pc.safe_velocity(ev, s.controller.velocity(x), s.cbf)


def documented_outcome(s: pc.Scenario, res) -> str | None:
    """Why a builtin start missed its documented outcome, or None.  Every
    builtin reaches its goal except the pyramid, whose cube hovers above the
    ground goal until the horizon."""
    goal = s.controller.goal
    final = res.positions[-1]
    if s.name == "pyramid":
        ok = (res.termination is pc.Termination.HORIZON
              and np.linalg.norm(final[:2] - goal[:2]) <= 0.05
              and final[2] >= 0.2)
        return None if ok else f"did not hover above the goal ({final})"
    if res.termination is not pc.Termination.GOAL:
        return f"ended at {res.termination.value}, not at the goal"
    return None


def rollout_problems(s: pc.Scenario, res, check_outcome: bool) -> list[str]:
    """Safety and outcome checks shared by every rollout."""
    problems = []
    if res.termination is pc.Termination.ERROR:
        problems.append(f"ended in error: {res.error}")
    if not res.min_h >= -H_TOL:
        problems.append(f"min h {res.min_h:.3e} < -{H_TOL:g}")
    missed = documented_outcome(s, res) if check_outcome else None
    if missed:
        problems.append(missed)
    return problems


def identical(a, b) -> bool:
    return (a.termination is b.termination and a.min_h == b.min_h
            and a.reached_goal_at == b.reached_goal_at
            and all(np.array_equal(getattr(a, k), getattr(b, k))
                    for k in ("times", "positions", "h_values", "u_desired",
                              "u_safe", "constraint_active")))


def verify_cli(argv: list[str]) -> str | None:
    """Run `polycbf <argv>` in process; return why it failed, or None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        return f"`polycbf {' '.join(argv)}` exited {code}: " \
               f"{err.getvalue().strip()}"
    failed = [r["name"] for r in json.loads(out.getvalue())
              if not r["passed"]]
    if failed:
        return f"`polycbf {' '.join(argv)}` reports passed=false for {failed}"
    return None


class Workload:
    def __init__(self, name: str, seed: int, size: Size):
        if name not in SCENARIOS:
            raise ValueError(f"unknown workload {name!r}; choose one of "
                             f"{', '.join(SCENARIOS)}")
        self.name, self.seed, self.size = name, seed, size
        self.is_rollout = name in EXTRA_STARTS
        rng = np.random.default_rng(seed)
        # verify-all's tick states do not depend on the seed, so that their
        # mix (and its tail) is the same in every run.
        tick_rng = np.random.default_rng(0)
        self.scenarios = [builtin_scenario(n, size) for n in SCENARIOS[name]]
        self.starts: list[Start] = []
        self.ticks = []  # (scenario, t, x, expected u_safe) for verify-all
        for s in self.scenarios:
            if self.is_rollout:
                self.starts += [Start(s, x0, True) for x0 in
                                s.all_starts()[:size.builtin_starts]]
                self.starts += [Start(s, x0, False) for _, x0 in
                                safe_states(s, rng, EXTRA_STARTS[name])]
            else:
                t_max = 0.0 if s.environment.is_static \
                    else s.default_sim.t_end
                for t, x in safe_states(s, tick_rng, size.tick_states,
                                        t_max):
                    try:
                        expected = tick(s, x, t).u_safe
                    except pc.DegenerateGradientError:
                        expected = None  # the timed tick will fail again
                    self.ticks.append((s, t, x, expected))
        self.reference = None  # first pass's results, for the bit-identity check
        self.calibrator = hostspeed.Calibrator()
        self.passes_run = 0

    # -- one pass ---------------------------------------------------------

    def run_pass(self, tracer) -> Pass:
        # Objects the benchmark keeps (inputs, the reference pass) move to
        # the permanent generation, so the collector's pauses in this pass
        # depend on what the library allocates, not on what is retained.
        gc.collect()
        gc.freeze()
        self.passes_run += 1
        self.calibrator.begin()
        if self.is_rollout:
            p = self._rollouts(tracer)
            # Ticks replay the builtin trajectories only, so that their mix
            # does not depend on the seed.
            self._replay(p, tracer, [
                (i, start.scenario, t, x, u)
                for i, (start, res) in enumerate(p.results)
                if start.builtin and res is not None
                for t, x, u in zip(res.times, res.positions, res.u_safe)])
            if self.reference is None:
                self.reference = [res for _, res in p.results]
            else:
                p.results = []  # checked; keeping them would grow the RSS
        else:
            argv = ["verify", "all", "--seed", str(self.seed)]
            if self.size.verify_n is not None:
                argv += ["--n", str(self.size.verify_n)]
            tracer.new_trace("pass/verify-all")
            with tracer.span("cli.verify"), \
                    self.calibrator.timed() as timing:
                problem = verify_cli(argv)
            p = Pass(tracer.enabled, units=[timing.seconds * timing.factor],
                     raw_units=[timing.seconds], attempted=1)
            if problem:
                p.failures.append(problem)
            self._replay(p, tracer, [(i,) + row
                                     for i, row in enumerate(self.ticks)])
        return p

    def _rollouts(self, tracer) -> Pass:
        p = Pass(tracer.enabled)
        for i, start in enumerate(self.starts):
            if not start.builtin and self.passes_run > 2:
                continue  # two runs of an extra start check its determinism
            s = start.scenario
            cfg = dataclasses.replace(s.default_sim, x0=start.x0)
            tracer.new_trace(f"pass/{s.name}")
            p.attempted += 1
            where = f"{s.name} start {start.x0.tolist()}"
            with self.calibrator.timed() as timing:
                try:
                    res = pc.run(s, cfg)
                except Exception:
                    res = None
                    p.failures.append(f"{where}: {traceback.format_exc()}")
            scaled = timing.seconds * timing.factor
            p.rollout_s += scaled
            if start.builtin:
                p.units.append(scaled)
                p.raw_units.append(timing.seconds)
            p.results.append((start, res))
            if res is None:
                continue
            p.steps += res.times.size - 1
            problems = rollout_problems(
                s, res, start.builtin and self.size.t_end is None)
            if self.reference is not None and (
                    self.reference[i] is None
                    or not identical(res, self.reference[i])):
                problems.append("repeated run() is not bit-identical")
            if problems:
                p.failures.append(f"{where}: {'; '.join(problems)}")
        return p

    def _replay(self, p: Pass, tracer, rows) -> None:
        """Time one tick at each row (trajectory id, scenario, t, x,
        expected command) and compare the command bit for bit.  The rows
        are replayed TICK_REPLAYS times, in blocks of TICK_BLOCK between
        host-speed probes."""
        clock = time.perf_counter_ns
        traced = tracer.enabled
        p.raw_tick_ns = np.zeros((TICK_REPLAYS, len(rows)))
        p.tick_ns = np.zeros((TICK_REPLAYS, len(rows)))
        for rep in range(TICK_REPLAYS):
            current = None
            for b in range(0, len(rows), TICK_BLOCK):
                block = []
                _, s, t, x, _ = rows[b]
                with contextlib.suppress(Exception):
                    # Untimed warm-up: the probe just run evicted the
                    # tick's code and data, and the first tick would pay.
                    tick(s, x, float(t))
                for key, s, t, x, expected in rows[b:b + TICK_BLOCK]:
                    if key != current:
                        tracer.new_trace(f"pass/tick/{s.name}")
                        current = key
                    t = float(t)
                    if traced:
                        idx = tracer.begin("bench.tick")
                    t0 = clock()
                    try:
                        fr = tick(s, x, t)
                    except Exception as err:
                        fr, problem = None, f"tick raised {err!r}"
                    t1 = clock()
                    if traced:
                        tracer.end(idx)
                    block.append(t1 - t0)
                    p.attempted += 1
                    if fr is not None:
                        problem = None
                        if expected is None or \
                                not np.array_equal(fr.u_safe, expected):
                            problem = "tick command differs from the " \
                                      "reference"
                        p.active += rep == 0 and bool(fr.constraint_active)
                    if problem:
                        p.failures.append(
                            f"{s.name} tick at t={t:.6g}, "
                            f"x={np.asarray(x).tolist()}: {problem}")
                factor = self.calibrator.end()
                p.raw_tick_ns[rep, b:b + len(block)] = block
                p.tick_ns[rep, b:b + len(block)] = np.array(block) * factor


# -- reports --------------------------------------------------------------

def certification(s: pc.Scenario) -> dict:
    ln_np = float(np.log(s.environment.num_regions))
    return {"buffer": s.cbf.buffer, "ln_np": ln_np,
            "certified": bool(s.cbf.buffer >= ln_np)}


def margin_report(results) -> dict:
    """Per scenario: min exact margin psi and min h over every recorded
    position of every rollout, next to the certification flag."""
    out = {}
    for start, res in results:
        if res is None:
            continue
        s = start.scenario
        env = s.environment
        if env.is_static:
            psi = float(pc.margin_field(env, s.agent, res.positions,
                                        0.0).min())
        else:
            psi = min(pc.margin_agent(env, s.agent, x, float(t))
                      for x, t in zip(res.positions, res.times))
        row = out.setdefault(s.name, {"min_psi": np.inf, "min_h": np.inf,
                                      **certification(s)})
        row["min_psi"] = min(row["min_psi"], psi)
        row["min_h"] = min(row["min_h"], res.min_h)
    return out


def kernel_counts(s: pc.Scenario) -> dict:
    """Work of one batched barrier_field point, computed from array shapes.

    pairs: face rows over all regions (R) times agent vertices (N_v).
    exps: R*N_v inner exponentials plus one outer one per region (N_p).
    bytes: the vertex-axis float64 temporaries of one point -- face values
    (N_w*N_v) and four (R, N_v) arrays (gathered, shifted, scaled,
    exponentiated) -- each written once and read once.  Computed, not
    measured: cache behaviour is ignored.
    """
    env = s.environment
    rows = sum(len(r) for r in env.regions)
    n_v = s.agent.num_vertices
    return {"face_vertex_pairs": rows * n_v,
            "exps_per_point": rows * n_v + env.num_regions,
            "bytes_per_point": 16 * (env.num_half_spaces + 4 * rows) * n_v}
