#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and summarises the spread.

Usage (from the repository root):

    python3 perfbench/repeat.py [--seeds 1,2,...] [--workloads a,b] [--trace 0|1]
                                [--out perfbench/BASELINE.json]

Each run is the command in BENCHMARK.json with `--workload --seed --seconds
--trace` appended. For every metric it prints the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the quartile spread as a share of
the median, next to the metric's bound. With `--out` it writes the same
figures, plus each workload's machine descriptor, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = (
        args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    )
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in workloads:
        values = {}
        for seed in seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or len(lines) < 2:
                sys.exit(f"{workload} seed {seed} failed ({run.returncode}):\n{run.stderr[-3000:]}")
            result, info = json.loads(lines[-1]), json.loads(lines[-2])
            machine = info["machine"]
            print(f"{workload} seed {seed}: units={info['units']} correct={result['correct']}",
                  file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        rows = {}
        for name, (unit, vals) in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else None
            rows[name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
            bound = bounds.get(name)
            print(f"{workload:14s} {name:42s} {med:14.4f} {unit:8s} "
                  f"spread {spread if spread is not None else float('nan'):.4f}"
                  + (f"  bound {bound}" if bound is not None and args.trace == "0" else ""))
        summary["workloads"][workload] = {"machine": machine, "metrics": rows}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
