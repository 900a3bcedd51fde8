"""Per-layer metrics of the traced run.

They come from two sources, both recorded as spans:

- the workload's own traced passes, for the per-call cost and self-time
  share of each layer as that workload uses it;
- a sweep that calls every layer on every builtin scenario at fixed sizes
  (one default-start rollout, batched barrier_field at M = 1 / 100 / 10^4
  centres, margin_field at 10^4, and each `polycbf verify <suite>`), so that
  every workload reports the same per-scenario metrics.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

import polycbf as pc
from polycbf import verify

import workloads as wl

FIELD_SIZES = ((1, 100), (100, 10), (10_000, 1))  # (centres M, repetitions)
MARGIN_M = 10_000
FIELD_T = 0.5  # evaluation time of the batched calls (moves the door)

# Per-call p50 of each layer, from the workload's passes (or, for a layer
# the workload never calls, from the sweep).
CALL_METRICS = (
    ("geometry.frame_us", "geometry.frame"),
    ("barrier.smooth_barrier_us", "barrier.smooth_barrier"),
    ("safety_filter.velocity_us", "safety_filter.velocity"),
    ("safety_filter.safe_velocity_us", "safety_filter.safe_velocity"),
    ("sim.step_us", "sim.step"),
)

# Layers whose self time is reported as a share of the traced passes.
SELF_LAYERS = (
    "geometry.frame", "barrier.smooth_barrier", "barrier.barrier_field",
    "barrier.margin_field", "safety_filter.velocity",
    "safety_filter.safe_velocity", "sim.step", "sim.run",
    "scenarios.builtin", "verify.gradient_audit",
    "verify.hull_containment_audit", "verify.under_approximation_audit",
    "cli.verify", "bench.tick",
)


def sweep(tracer, seed: int, size: wl.Size, calibrator):
    """Run the fixed per-scenario calls, each group under its own trace.
    Returns (RK4 steps of each scenario's rollout, the host-speed factor of
    each trace label, attempted operations, failures)."""
    rng = np.random.default_rng(seed)
    steps, factors, attempted, failures = {}, {}, 0, []
    calibrator.begin()

    @contextmanager
    def group(label):
        tracer.new_trace(label)
        yield
        factors[label] = calibrator.end()

    for name in wl.ALL_SCENARIOS:
        with group(f"sweep/{name}"):
            for _ in range(10):
                pc.builtin(name)
            s = wl.builtin_scenario(name, size)
            res = pc.run(s)
        attempted += 1
        steps[name] = res.times.size - 1
        problems = wl.rollout_problems(s, res, size.t_end is None)
        if problems:
            failures.append(f"sweep {name}: {'; '.join(problems)}")

        env, agent = s.environment, s.agent
        low, high = verify.scenario_bounds(s)
        for m, reps in FIELD_SIZES:
            centres = rng.uniform(low, high, size=(m, env.dimension))
            with group(f"sweep/{name}/M{m}"):
                for _ in range(reps):
                    pc.barrier_field(env, agent, centres, FIELD_T, s.cbf)
        centres = rng.uniform(low, high, size=(MARGIN_M, env.dimension))
        with group(f"sweep/{name}/margin"):
            pc.margin_field(env, agent, centres, FIELD_T)

    for suite in wl.VERIFY_SUITES:
        argv = ["verify", suite, "--seed", str(seed)]
        if size.verify_n is not None:
            argv += ["--n", str(size.verify_n)]
        attempted += 1
        with group(f"sweep/verify-{suite}"), tracer.span("cli.verify"):
            problem = wl.verify_cli(argv)
        if problem:
            failures.append(f"sweep: {problem}")
    return steps, factors, attempted, failures


def per_layer_metrics(table, passes, sweep_steps, factors,
                      scale: float) -> dict:
    """Span times are rescaled to the reference host: a sweep group's by
    the probes around it (`factors`), the rest by `scale`, the traced
    run's overall factor.  Pass-level overheads are already rescaled."""
    metrics = {}

    def put(name, value, unit, label=None):
        if unit in ("us", "s"):
            value *= scale if label is None else factors[label]
        metrics[name] = {"value": float(value), "unit": unit}

    def p50_us(mask, values=None):
        values = (table.dur if values is None else values)[mask]
        if values.size == 0:
            raise RuntimeError(f"no spans recorded for {names_of(mask)}")
        return float(np.median(values)) / 1e3

    def names_of(mask):
        return sorted({table.names[i] for i in np.unique(table.name[mask])})

    def trace_is(label):
        return table.traces(lambda lab: lab == label)

    in_pass = table.traces(lambda lab: lab.startswith("pass/"))
    for metric, layer in CALL_METRICS:
        mask = table.of(layer, in_pass)
        if not mask.any():
            mask = table.of(layer, ~in_pass)
        put(metric, p50_us(mask), "us")
        if layer == "sim.step":
            # RK4 bookkeeping: a step's time not spent in the layers it calls.
            put("sim.rk4_overhead_us", p50_us(mask, table.self_ns), "us")
    put("scenarios.builtin_us", p50_us(table.of("scenarios.builtin")), "us")

    for suite in wl.VERIFY_SUITES:
        label = f"sweep/verify-{suite}"
        mask = table.of("cli.verify", trace_is(label))
        put(f"verify.{suite}_s", table.dur[mask].sum() / 1e9, "s", label)

    for name in wl.ALL_SCENARIOS:
        label = f"sweep/{name}"
        in_rollout = trace_is(label)
        put(f"barrier.smooth_barrier_us.{name}",
            p50_us(table.of("barrier.smooth_barrier", in_rollout)), "us",
            label)
        run_ns = table.dur[table.of("sim.run", in_rollout)].sum()
        put(f"sim.run_us_per_step.{name}", run_ns / 1e3 / sweep_steps[name],
            "us", label)
        for m, _ in FIELD_SIZES:
            label = f"sweep/{name}/M{m}"
            mask = table.of("barrier.barrier_field", trace_is(label))
            put(f"barrier.barrier_field_us_per_point.M{m}.{name}",
                p50_us(mask) / m, "us", label)
        label = f"sweep/{name}/margin"
        mask = table.of("barrier.margin_field", trace_is(label))
        put(f"barrier.margin_field_us_per_point.{name}",
            p50_us(mask) / MARGIN_M, "us", label)
        counts = wl.kernel_counts(pc.builtin(name))
        put(f"barrier.face_vertex_pairs.{name}",
            counts["face_vertex_pairs"], "count")
        put(f"barrier.exps_per_point.{name}", counts["exps_per_point"],
            "count")
        put(f"barrier.bytes_per_point.{name}", counts["bytes_per_point"], "B")

    roots = table.dur[(table.parent < 0) & in_pass].sum()
    for layer in SELF_LAYERS:
        put(f"{layer}.self_share",
            table.self_ns[table.of(layer, in_pass)].sum() / roots, "ratio")

    first = passes[0]
    put("sim.steps", first.steps, "count")
    ticks = first.tick_ns.shape[1]
    put("bench.ticks", ticks, "count")
    put("safety_filter.active_frac", first.active / ticks, "ratio")

    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    metrics["trace.overhead_pass_s"] = {
        "value": wl.pass_seconds(traced) - wl.pass_seconds(plain),
        "unit": "s"}
    metrics["trace.overhead_tick_us_p50"] = {
        "value": wl.tick_us(traced, 50) - wl.tick_us(plain, 50),
        "unit": "us"}
    return metrics
