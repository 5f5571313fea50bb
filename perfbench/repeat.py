#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each end-to-end metric.

For every workload and metric this prints the median and the spread: the
distance between the first and third quartiles of the per-seed values
(``statistics.quantiles(values, n=4)``) as a share of their median, next to
the metric's bound from ``BENCHMARK.json``.  ``--out`` writes the summary,
every per-seed value and the provenance of the runs as JSON; it also keeps
the per-layer metrics of one traced run per workload, on the first seed.
``baseline.json`` holds two such summaries of one commit, under ``sets``:
seeds 1-10 and seeds 11-20, run one after the other.  Run from the root of
a source checkout:

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def spread(values: list) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(bench: dict, workload: str, seed: int, trace: int):
    """One benchmark run; returns (result, provenance), or (None, None)
    after reporting a run that exited with an error."""
    proc = subprocess.run(
        [sys.executable, *bench["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
         "--trace", str(trace)], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n"
              f"{proc.stdout}{proc.stderr}", file=sys.stderr)
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2])["provenance"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        values = {metric: [] for metric in bounds}
        seeds = seeds_of(args.seeds)
        for seed in seeds:
            result, provenance = run(bench, name, seed, 0)
            if result is None:
                return 1
            ok &= result["correct"]
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        traced, _ = run(bench, name, seeds[0], 1)
        if traced is None:
            return 1
        ok &= traced["correct"]
        rows = {}
        for metric, vals in values.items():
            rows[metric] = {"median": statistics.median(vals), "spread": spread(vals),
                            "bound": bounds[metric], "values": vals}
            print(f"{name:14s} {metric:18s} median {rows[metric]['median']:12.6g} "
                  f"spread {rows[metric]['spread']:.4f} (bound {bounds[metric]})")
        summary["workloads"][name] = {
            "end_to_end": rows, "provenance": provenance,
            "per_layer": {"seed": seeds[0], "metrics": traced["metrics"]}}
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
