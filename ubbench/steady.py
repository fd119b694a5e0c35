#!/usr/bin/env python3
"""Steadiness check for the ubbench benchmark.

Runs every workload N times, each with another --seed, and prints each
end-to-end metric's median and quartiles (Python's statistics.quantiles,
n=4) with the quartile spread as a share of the median, next to the bound
BENCHMARK.json fixes. With --trace it also makes one traced run per workload
and prints trace.overhead_frac and core.other_s.

    python3 ubbench/steady.py --runs 10 [--trace] [--out summary.json]

Seeds are 0 .. runs-1. Run it from anywhere: the command runs from the
repository root, as BENCHMARK.json expects. Exits 1 when a spread is not
below a third of its bound or a campaign failed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)}: exit {proc.returncode}, no result")
    return json.loads(lines[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    if args.runs < 2:
        raise SystemExit("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"runs": args.runs, "seeds": list(range(args.runs)),
               "workloads": {}}
    all_steady = True
    for w in names:
        per_metric = {}
        failed = 0
        for seed in summary["seeds"]:
            result = run_once(spec, w, seed, False)
            failed += result["failed"] if result["correct"] else max(1, result["failed"])
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
            print(f"  {w} seed={seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {"failed": failed, "metrics": {}}
        for name, values in per_metric.items():
            s = summarize(values)
            bound = bounds[name]
            s["bound"] = bound
            entry["metrics"][name] = s
            steady = s["spread"] < bound / 3
            all_steady &= steady
            print(f"{w:7s} {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                  f"spread {s['spread']:.3f}  bound {bound}  "
                  f"{'steady' if steady else 'NOT steady'}", flush=True)
        if failed:
            print(f"{w}: {failed} failed campaigns", flush=True)
            all_steady = False
        if args.trace:
            traced = run_once(spec, w, summary["seeds"][0], True)["metrics"]
            entry["trace"] = {k: v["value"] for k, v in traced.items()}
            print(f"{w:7s} trace.overhead_frac {traced['trace.overhead_frac']['value']:.4f}  "
                  f"core.other_s {traced['core.other_s']['value']:.4f}", flush=True)
        summary["workloads"][w] = entry

    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
    sys.exit(0 if all_steady else 1)


if __name__ == "__main__":
    main()
