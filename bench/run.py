"""polycbf benchmark: closed-loop rollouts and `polycbf verify all`.

Run from the repository root:

    python3 bench/run.py --workload rollout-static --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

With --trace 0 the last stdout line is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  The lines before it are a report (exact margins,
certification, kernel counts, failures), also written to
bench/out/report-<workload>.json.  Exit code 0 means every correctness check
passed; 1 means one failed (the result is still printed); 2 means the
benchmark could not run at all.  See bench/README.md for the metrics.
"""

import os

# Single-threaded load: pin BLAS/OpenMP pools before numpy is imported,
# here and in the set-up probes (which inherit the environment).
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("rollout-static", "rollout-door", "verify-all")
SETUP_PROBES = 7
MIN_PASSES = 3


def import_polycbf() -> None:
    """Import polycbf from this checkout's src/, never from elsewhere."""
    if not (SRC / "polycbf" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no polycbf sources under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import polycbf
    if Path(polycbf.__file__).resolve().parent != SRC / "polycbf":
        sys.stderr.write(f"bench: imported polycbf from {polycbf.__file__}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)


def setup_times(scenario_names) -> list[tuple[float, float]]:
    """(set-up seconds, host-speed probe ns) of SETUP_PROBES fresh
    processes, one after another."""
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC),
           *scenario_names]
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, check=True, capture_output=True,
                              text=True, timeout=120)
        seconds, probe = map(float, proc.stdout.split())
        out.append((seconds, probe))
    return out


def measure(workload, seconds: float, tracer=None) -> list:
    """Repeat passes for about `seconds`: at least MIN_PASSES, and no new
    pass once the mean pass would overrun.  With a tracer, passes alternate
    untraced / traced so the traced run also measures its own overhead."""
    import spans
    null = spans.NullTracer()
    passes = []
    t0 = time.perf_counter()
    while True:
        if tracer is not None and len(passes) % 2 == 1:
            with tracer.patched():
                passes.append(workload.run_pass(tracer))
        else:
            passes.append(workload.run_pass(null))
        elapsed = time.perf_counter() - t0
        if len(passes) >= MIN_PASSES and \
                elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def end_to_end(passes, setup) -> dict:
    """Every timing is rescaled to the reference host (hostspeed.py) and
    taken as a median: over the probe processes for set-up, and per timed
    unit or tick state over the passes for pass_s and the tick
    percentiles."""
    import hostspeed
    import workloads as wl
    return {
        "setup_s": {"value": statistics.median(
            sec * hostspeed.REF_NS / probe for sec, probe in setup),
            "unit": "s"},
        "pass_s": {"value": wl.pass_seconds(passes), "unit": "s"},
        "tick_us_p50": {"value": wl.tick_us(passes, 50), "unit": "us"},
        "tick_us_p99": {"value": wl.tick_us(passes, 99), "unit": "us"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"},
    }


def report(workload, passes, attempted, failures, setup) -> dict:
    import workloads as wl
    first = passes[0]
    steps = sum(p.steps for p in passes)
    rollout_s = sum(p.rollout_s for p in passes)
    ticks = first.tick_ns.shape[1]
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "passes": len(passes),
        "host_probe_ns_median": statistics.median(
            workload.calibrator.probes),
        "raw": {
            "setup_s": [sec for sec, _ in setup],
            "pass_s": wl.pass_seconds(passes, raw=True),
            "pass_s_each": [sum(p.raw_units) for p in passes],
            "tick_us_p50": wl.tick_us(passes, 50, raw=True),
            "tick_us_p99": wl.tick_us(passes, 99, raw=True),
        },
        "pass_s_each": [sum(p.units) for p in passes],
        "steps_per_pass": first.steps,
        "ticks_per_pass": ticks,
        "tick_samples": sum(p.tick_ns.size for p in passes),
        "rollout_steps_per_s": steps / rollout_s if rollout_s else None,
        "verify_s": None if workload.is_rollout else
        wl.pass_seconds(passes),
        "active_frac": first.active / ticks if ticks else None,
        "active_base": ticks,
        "attempted": attempted,
        "failed": len(failures),
        "fail_frac": len(failures) / attempted,
        "failures": failures,
        "margins": wl.margin_report(first.results),
        "certification": {s.name: wl.certification(s)
                          for s in workload.scenarios},
        "kernel_counts": {s.name: wl.kernel_counts(s)
                          for s in workload.scenarios},
    }


def run(args) -> int:
    import_polycbf()
    import layers
    import spans
    import workloads as wl

    size = wl.TINY if args.size == "tiny" else wl.FULL
    setup = [] if args.trace else setup_times(wl.SCENARIOS[args.workload])
    workload = wl.Workload(args.workload, args.seed, size)
    tracer = spans.Tracer() if args.trace else None
    passes = measure(workload, args.seconds, tracer)
    failures = [f for p in passes for f in p.failures]
    attempted = sum(p.attempted for p in passes)
    if args.trace:
        with tracer.patched():
            steps, factors, swept, sweep_failures = layers.sweep(
                tracer, args.seed, size, workload.calibrator)
        attempted += swept
        failures += sweep_failures
        metrics = layers.per_layer_metrics(
            tracer.table(), passes, steps, factors,
            workload.calibrator.run_scale())
    else:
        metrics = end_to_end(passes, setup)

    OUT.mkdir(exist_ok=True)
    info = report(workload, passes, attempted, failures, setup)
    if args.trace:
        tracer.save(OUT / f"spans-{args.workload}.npz")
        info["tracing_overhead"] = {
            k: metrics[k] for k in ("trace.overhead_pass_s",
                                    "trace.overhead_tick_us_p50")}
    text = json.dumps(info, indent=1, sort_keys=True, default=float)
    (OUT / f"report-{args.workload}.json").write_text(text + "\n")
    print(text)
    correct = not failures
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


def smoke() -> int:
    """Run every workload at tiny size, traced and untraced, and check the
    result line against BENCHMARK.json."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for w in manifest["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", w["name"], "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600, cwd=ROOT)
            wall = time.perf_counter() - t0
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
                problems.append("no JSON result line")
            if proc.returncode != 0:
                problems.append(f"exit code {proc.returncode}")
            if result is not None:
                if set(result) != {"correct", "attempted", "failed",
                                   "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                elif result["correct"] is not True or result["failed"] != 0 \
                        or result["attempted"] < 1:
                    problems.append("correctness: " + json.dumps(
                        {k: result[k] for k in ("correct", "attempted",
                                                "failed")}))
                else:
                    want = {m["name"]: m["unit"] for m in manifest[key]}
                    got = {k: v.get("unit") for k, v in
                           result["metrics"].items()}
                    if want != got:
                        problems.append(
                            f"metrics differ from BENCHMARK.json {key}: "
                            f"missing {sorted(set(want) - set(got))}, "
                            f"extra {sorted(set(got) - set(want))}, units "
                            f"{sorted(k for k in want if k in got and want[k] != got[k])}")
                    bad = [k for k, v in result["metrics"].items()
                           if not isinstance(v.get("value"), (int, float))]
                    if bad:
                        problems.append(f"non-numeric values {bad}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {w['name']} trace={trace} ({wall:.1f} s): {status}")
            if problems:
                ok = False
                sys.stderr.write(proc.stderr[-4000:])
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (smoke test)")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny size and check the "
                             "output schema")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
