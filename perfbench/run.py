#!/usr/bin/env python3
"""The csign benchmark: three closed-loop calibration workloads.

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing):

    python3 perfbench/run.py --workload duration_scan --seed 1 --seconds 40 --trace 0

Workloads (each repetition runs in fresh processes, so csign's caches start
cold every time, with BLAS and OpenMP pinned to one thread):

- ``duration_scan``: resonant, lossless serial ``sweep.run_sweep`` over a
  seeded sample of the criterion-1 grid t = k/20 plus t = 3, 7, 17, 41, 99
  (a new sample per repetition).
  Every point shares one Hamiltonian and no point has jump channels.
- ``leak_profile``: serial sweep over log-spaced leak coefficients at a
  seeded optimal duration (a new one per repetition); every point takes the
  dissipator path.
- ``calibrate_cli``: the calibration session through the command line, one
  process per command: two ``csign calibrate`` tables, a generated
  ``csign sweep --workers 2`` detuning window at t = 99, and ``csign
  simulate`` at its best point.  The only workload with a new Hamiltonian
  per point, process-pool dispatch and file output.

A run repeats its workload, one repetition after another (a closed loop
with one client), for about ``--seconds`` seconds and reports totals over
the repetitions (see ``end_to_end``).  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` alternates untraced and traced repetitions and prints
the per-layer metrics of the traced ones (see ``spans.py``).  Every repetition is checked against
reference values; a miss counts as failed and fails the run.  The last line
of stdout is the JSON result; provenance is printed just before it and the
full result is kept under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPS = 5              # per kind (untraced, traced) and run
RUN_DEADLINE_S = 170.0    # a run must exit well inside 180 s
CLI_WORKERS = 2


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed check)."""


class Runner:
    """Starts child processes with a pinned environment, under one deadline."""

    def __init__(self, run_dir: str):
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = SRC
        self.env["TMPDIR"] = os.path.join(run_dir, "tmp")
        os.makedirs(self.env["TMPDIR"])

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def run(self, argv: list) -> str:
        """Run one child to completion and return its stdout.

        The child leads its own process group, so on a timeout or interrupt
        the whole group (sweep workers included) is killed and reaped.
        """
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[1:4])}... exited {proc.returncode}: "
                             f"{err.strip()[-2000:]}")
        return out

    def child_json(self, *args) -> dict:
        return json.loads(self.run([sys.executable, CHILD, *args]).splitlines()[-1])


def _rep(wall_s, cpu_s, points, attempted, fails, layers=None) -> dict:
    return {"wall_s": wall_s, "cpu_s": cpu_s, "points": points,
            "attempted": attempted, "failed": min(attempted, len(fails)),
            "fails": fails, "layers": layers}


class SweepWorkload:
    """A serial sweep in one fresh process per repetition."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.reps = 0
        self.reference = workloads.load_reference()

    def repeat(self, runner: Runner, rep_dir: str, traced: bool) -> dict:
        spec = getattr(workloads, self.name)(self.seed, self.reps)
        self.reps += 1
        args = [os.path.join(rep_dir, "spec.json")]
        with open(args[0], "w") as handle:
            json.dump(spec, handle)
        if traced:
            args.append(os.path.join(rep_dir, "spans.json"))
        out = runner.child_json("sweep", *args)
        records = out["records"]
        if self.name == "duration_scan":
            fails = workloads.check_duration_scan(records, self.reference)
        else:
            fails = workloads.check_leak_profile(records, self.reference,
                                                 out["trace_tol"])
        expected = math.prod(len(values) for _, values in spec["axes"])
        if len(records) != expected:
            fails.append(f"{len(records)} records for {expected} grid points")
        layers = spans.layer_metrics([spans.load(args[1])]) if traced else None
        return _rep(out["wall_s"], out["cpu_s"], expected, expected, fails, layers)


class CliWorkload:
    """The calibration session, one ``csign`` process per command."""

    def __init__(self, seed: int, run_dir: str):
        self.inputs = workloads.calibrate_cli(seed)
        # JSON is YAML, so the generated config needs no YAML writer here
        self.config_path = os.path.join(run_dir, "sweep.yaml")
        with open(self.config_path, "w") as handle:
            json.dump(self.inputs["config"], handle)
        self.first_csv = None

    def repeat(self, runner: Runner, rep_dir: str, traced: bool) -> dict:
        n_spans = 0

        def csign(*argv) -> str:
            nonlocal n_spans
            if traced:
                n_spans += 1
                path = os.path.join(rep_dir, f"spans{n_spans}.json")
                return runner.run([sys.executable, CHILD, "cli", path, *argv])
            return runner.run([sys.executable, "-m", "csign.cli", *argv])

        out_dir = os.path.join(rep_dir, "sweep_out")
        usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        wall0 = time.perf_counter()
        horizon = csign("calibrate", "--horizon-t", "100.5")
        ratios = csign("calibrate", "--ratios", *self.inputs["ratios"])
        csign("sweep", "--config", self.config_path, "--workers", str(CLI_WORKERS),
              "--out", out_dir)
        with open(os.path.join(out_dir, "sweep.csv"), "rb") as handle:
            csv_bytes = handle.read()
        rows = _csv_rows(csv_bytes.decode())
        ok_rows = [r for r in rows if not math.isnan(r["error"])]
        best = min(ok_rows, key=lambda r: r["error"]) if ok_rows else None
        report = None
        if best is not None:
            report = json.loads(csign("simulate", "--t", "99",
                                      "--delta-over-g", repr(best["delta_over_g"])))
        wall_s = time.perf_counter() - wall0
        usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)

        fails = self._check(horizon, ratios, rows, csv_bytes, best, report)
        n_points = len(self.inputs["deltas"])
        layers = None
        if traced:
            layers = spans.layer_metrics(
                [spans.load(os.path.join(rep_dir, f"spans{i}.json"))
                 for i in range(1, n_spans + 1)])
        # one array run per sweep point plus the simulate; four commands
        return _rep(wall_s, cpu_s, n_points + 1, n_points + 4, fails, layers)

    def _check(self, horizon, ratios, rows, csv_bytes, best, report) -> list:
        fails = []
        table = _csv_rows(horizon)
        running, kept = math.inf, []
        for row in table:
            if row["residual"] < running:
                running = row["residual"]
                kept.append(row["t"])
        if [round(t) for t in kept] != [1, 3, 7, 17, 41, 99] or \
                any(abs(t - round(t)) > workloads.ABS_TOL for t in kept):
            fails.append(f"calibrate --horizon-t: improving candidates {kept}")
        d = {line.split(",")[0]: float(line.split(",")[1])
             for line in ratios.splitlines()[1:]}
        if abs(d.get(workloads.RATIO, math.nan) - workloads.D_RATIO) > workloads.ABS_TOL:
            fails.append(f"calibrate --ratios: d({workloads.RATIO}) = "
                         f"{d.get(workloads.RATIO)}, expected {workloads.D_RATIO}")
        deltas = [r["delta_over_g"] for r in rows]
        if deltas != self.inputs["deltas"]:
            fails.append(f"sweep.csv holds detunings {deltas}")
        fails += [f"sweep point delta/g={r['delta_over_g']} failed"
                  for r in rows if math.isnan(r["error"])]
        at_ref = [r["error"] for r in rows if r["delta_over_g"] == workloads.D_REFINED]
        if not at_ref or abs(at_ref[0] - workloads.ERROR_REFINED) > workloads.ABS_TOL:
            fails.append(f"sweep error at delta/g={workloads.D_REFINED} is {at_ref}, "
                         f"expected {workloads.ERROR_REFINED}")
        if self.first_csv is None:
            self.first_csv = csv_bytes
        elif csv_bytes != self.first_csv:
            fails.append("sweep.csv differs from the first repetition of this run")
        if report is None or best is None or \
                abs(report["error"] - best["error"]) > workloads.ABS_TOL:
            fails.append(f"simulate at the best point reports "
                         f"{report and report['error']}, sweep has {best}")
        return fails


def _csv_rows(text: str) -> list[dict]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]


def measure(workload, runner: Runner, run_dir: str, seconds: float,
            trace: bool) -> tuple[list, list, list]:
    """Repeat the workload until the next repetition would end after
    ``seconds``.  Untraced, each repetition follows one set-up probe, so
    probes and repetitions both sample the whole window; traced, untraced
    and traced repetitions alternate.  Returns (set-up times in s, untraced
    reps, traced reps)."""
    setups, plain, traced = [], [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        now = time.perf_counter()
        enough = len(plain) >= MIN_REPS and (not trace or len(traced) >= MIN_REPS)
        if enough and now - start + last > seconds:
            break
        is_traced = trace and len(traced) < len(plain)
        if not trace:
            setups.append(runner.child_json("probe")["setup_s"])
        rep_dir = os.path.join(run_dir, f"rep{len(plain) + len(traced)}")
        os.makedirs(rep_dir)
        rep = workload.repeat(runner, rep_dir, is_traced)
        (traced if is_traced else plain).append(rep)
        last = time.perf_counter() - now
    return setups, plain, traced


def end_to_end(plain: list, setups: list) -> dict:
    """End-to-end metrics over the untraced repetitions of one run.

    ``setup_s`` is the median of the set-up probes.  The workload metrics
    are totals over the window: mean wall time per repetition, points per
    second of wall time and CPU time per point.  Other tenants of a shared
    host slow every process here by about 40% in spells that last from
    seconds to minutes; a total moves in proportion to the contended share
    of the window, where a median or minimum jumps between the fast and
    the slow level, so on a 2-core VM totals gave the smaller run-to-run
    spread (0.17 against 0.22 for medians and 0.28 for minimums over ten
    ``duration_scan`` runs)."""
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    wall = sum(r["wall_s"] for r in plain)
    points = sum(r["points"] for r in plain)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall / len(plain), "s"),
        "points_per_s": (points / wall, "1/s"),
        "cpu_ms_per_point": (1e3 * sum(r["cpu_s"] for r in plain) / points, "ms"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }


def per_layer(plain: list, traced: list) -> dict:
    names = traced[0]["layers"]
    metrics = {name: (statistics.median(r["layers"][name][0] for r in traced), unit)
               for name, (_, unit) in names.items()}
    overhead = statistics.fmean(r["wall_s"] for r in traced) / \
        statistics.fmean(r["wall_s"] for r in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    return metrics


def _src_digest() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "csign")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def provenance(runner: Runner) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True).stdout.strip() or None
    numba = importlib.util.find_spec("numba") is not None
    if numba:
        try:
            runner.run([sys.executable, "-c", "import numba"])
        except BenchError:
            numba = False
    return {
        "commit": commit,
        "src_sha256": _src_digest(),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_importable": numba,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "pyyaml": _version("PyYAML"),
        "thread_env": {var: "1" for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="csign benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("duration_scan", "leak_profile", "calibrate_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run unwinds like an interrupt, so Runner.run kills and
    # reaps the child's process group before the benchmark exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "csign", "__init__.py")):
        print("perfbench: no csign sources under ./src; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2

    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    runner = Runner(run_dir)
    try:
        if args.workload == "calibrate_cli":
            workload = CliWorkload(args.seed, run_dir)
        else:
            workload = SweepWorkload(args.workload, args.seed)
        runner.child_json("probe")  # warm-up: byte-compiles the sources once
        setups, plain, traced = measure(workload, runner, run_dir, args.seconds,
                                        bool(args.trace))
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setups)
        prov = provenance(runner)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    reps = plain + traced
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    fails = [msg for r in reps for msg in r["fails"]]
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(os.path.join(run_dir, "result.json"), "w") as handle:
        json.dump({"result": result, "provenance": prov, "fails": fails,
                   "failed_fraction": failed / attempted, "setups_s": setups,
                   "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps]},
                  handle, indent=1)
    for msg in fails[:20]:
        print(f"CHECK FAILED: {msg}")
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, failed_fraction "
          f"{failed / attempted:.4g} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
