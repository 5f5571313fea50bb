#!/usr/bin/env python3
"""Regenerate ``reference.json``: the error at every grid point a serial
workload can draw, as computed by the csign sources in ``src/``.

The table holds the full criterion-1 duration grid (resonant, lossless) and
every optimum x leak coefficient of the leak profile; each benchmark run
checks its points against it at 1e-9.  Regenerate only when the physics is
meant to change, and say so in the change that does it.

    PYTHONPATH=src python3 perfbench/make_reference.py --workers 2
"""

from __future__ import annotations

import argparse
import json

import workloads
from csign import sweep
from csign.circuit import SimParams


def errors(axes, workers):
    spec = sweep.SweepSpec(axes=tuple(sweep.Axis(n, tuple(v)) for n, v in axes),
                           base=SimParams(t=2.0, phs=1))
    records = sweep.run_sweep(spec, workers=workers)
    bad = [r for r in records if r.status != "ok"]
    if bad:
        raise SystemExit(f"{len(bad)} reference points failed: {bad[0].message}")
    return {workloads.point_key(r.t, r.ly_over_g): r.error for r in records}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    table = errors([["t", [k / 20 for k in workloads.DURATION_KS]]], args.workers)
    table.update(errors([["t", workloads.OPTIMA],
                         ["ly_over_g", workloads.LEAK_GRID]], args.workers))
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(table, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} reference errors to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
