"""Summarise captured benchmark runs into one JSON file.

Usage: python3 bench/aggregate.py OUT.json RUN_STDOUT [RUN_STDOUT ...]

Each input is the captured stdout of one `bench/run.py` run: the report
lines and then the result line.  For every workload, the output holds each
end-to-end metric's median, quartiles (statistics.quantiles, n=4) and their
distance as a share of the median, the per-layer metrics of its traced runs
(median over runs), and the report figures that repeat per seed.
"""

import json
import statistics
import sys


def load(path):
    lines = open(path, encoding="utf-8").read().strip().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def summary(values):
    values = sorted(values)
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None,
            "n": len(values)}


def main(argv):
    out, paths = argv[1], argv[2:]
    by_workload = {}
    for path in paths:
        report, result = load(path)
        w = by_workload.setdefault(report["workload"], {
            "runs": [], "traced": [], "seeds": [], "failed": 0,
            "attempted": 0, "reports": []})
        w["failed"] += result["failed"]
        w["attempted"] += result["attempted"]
        w["reports"].append(report)
        kind = "traced" if "tracing_overhead" in report else "runs"
        w[kind].append(result["metrics"])
        if kind == "runs":
            w["seeds"].append(report["seed"])

    summary_out = {}
    for name, w in sorted(by_workload.items()):
        def collect(runs):
            keys = runs[0].keys() if runs else []
            return {k: summary([r[k]["value"] for r in runs]) | {
                "unit": runs[0][k]["unit"]} for k in keys}
        first = w["reports"][0]
        margins = {}
        for rep in w["reports"]:
            for scen, row in rep["margins"].items():
                m = margins.setdefault(scen, dict(row))
                m["min_psi"] = min(m["min_psi"], row["min_psi"])
                m["min_h"] = min(m["min_h"], row["min_h"])
        summary_out[name] = {
            "seeds": w["seeds"],
            "attempted": w["attempted"],
            "failed": w["failed"],
            "end_to_end": collect(w["runs"]),
            "per_layer": {k: v["median"]
                          for k, v in collect(w["traced"]).items()},
            "rollout_steps_per_s": summary(
                [r["rollout_steps_per_s"] for r in w["reports"]
                 if "tracing_overhead" not in r])
            if first["rollout_steps_per_s"] else None,
            "margins_over_all_seeds": margins,
            "certification": first["certification"],
            "kernel_counts": first["kernel_counts"],
        }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary_out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
