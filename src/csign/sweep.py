"""Parameter-sweep engine: grids over the gate knobs, optima, robustness.

A sweep is a cartesian grid over at most two of (t, delta_over_g, ly_over_g,
phs) on top of fixed base parameters.  Each grid point runs the full array
once, as part of a ``circuit.run_batch``, and yields one record; point
failures are recorded, never fatal.
Results serialize to CSV plus a JSON manifest, both byte-deterministic for
identical specs (wall-clock timing is kept out of the files for that reason
and lives on the in-memory records).
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import circuit, fock
from .errors import PhysicsValidationError
from .runio import INPUT_SELECTORS, atomic_write

AXIS_NAMES = ("t", "delta_over_g", "ly_over_g", "phs")
AXIS_DOMAINS = {
    "t": (0.0, 200.0),
    "delta_over_g": (-10.0, 10.0),
    "ly_over_g": (0.0, 1.0),
    "phs": (0.0, 1.0),
}

#: most points in a grid, and most values on a range axis: past it is a typo, not a sweep
MAX_POINTS = 100_000


@dataclass(frozen=True)
class Axis:
    """One swept parameter with its explicit grid values."""

    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise PhysicsValidationError(f"unknown sweep axis {self.name!r}")
        lo, hi = AXIS_DOMAINS[self.name]
        for v in self.values:
            if not (lo <= v <= hi):
                raise PhysicsValidationError(
                    f"axis {self.name}: value {v} outside [{lo}, {hi}]")
        if self.name == "phs" and any(v not in (0.0, 1.0) for v in self.values):
            raise PhysicsValidationError("phs axis values must be 0 or 1")

    @classmethod
    def from_range(cls, name: str, start: float, stop: float, step: float) -> "Axis":
        """start, start + step, ... up to stop inclusive.

        Each value is rounded once from the exact decimal start + k*step, so
        2.0 + 23*0.05 gives 3.15 (as 63/20 does), not 3.1500000000000004.
        """
        from decimal import Decimal  # only range axes need it; it adds ~3 ms to import

        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise PhysicsValidationError(f"axis {name}: start, stop and step must be finite")
        if step <= 0:
            raise PhysicsValidationError(f"axis {name}: step must be positive")
        start_d, stop_d, step_d = (Decimal(repr(float(x))) for x in (start, stop, step))
        # on the rounded quotient: // raises if the whole one needs over 28 digits
        if (stop_d - start_d) / step_d >= MAX_POINTS:
            raise PhysicsValidationError(
                f"axis {name}: start {start}, stop {stop} and step {step} give more "
                f"than {MAX_POINTS} values")
        n = int((stop_d - start_d) // step_d) + 1 if stop_d >= start_d else 0
        return cls(name, tuple(float(start_d + k * step_d) for k in range(n)))


@dataclass(frozen=True)
class SweepSpec:
    """Grid axes, fixed base parameters, and the input-state selector."""

    axes: tuple[Axis, ...]
    base: circuit.SimParams
    input_state: str = "p_test"
    seed: int = 0

    def __post_init__(self):
        if len(self.axes) > 2:
            raise PhysicsValidationError("at most 2 swept axes per run")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise PhysicsValidationError(f"duplicate sweep axes: {names}")
        points = math.prod(len(a.values) for a in self.axes)
        if points > MAX_POINTS:
            raise PhysicsValidationError(
                f"the grid has {points} points, more than {MAX_POINTS}")
        if self.input_state not in INPUT_SELECTORS:
            raise PhysicsValidationError(
                f"input selector must be one of {INPUT_SELECTORS}, got {self.input_state!r}")
        if self.seed < 0:
            raise PhysicsValidationError(f"seed must be >= 0, got {self.seed}")

    def grid(self) -> list[dict]:
        """Grid points in row-major axis order; empty axes give no points."""
        if not self.axes:
            return []
        points = [{}]
        for axis in self.axes:
            points = [dict(p, **{axis.name: v}) for p in points for v in axis.values]
        return points

    def as_dict(self) -> dict:
        return {
            "axes": [{"name": a.name, "values": list(a.values)} for a in self.axes],
            "base": self.base.as_dict(),
            "input_state": self.input_state,
            "seed": self.seed,
        }

    def sha256(self) -> str:
        import hashlib  # loads OpenSSL, ~3.5 MB: only a manifest pays for it

        canonical = json.dumps(self.as_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()


@dataclass
class SweepRecord:
    """One (parameters -> error) evaluation."""

    t: float
    delta_over_g: float
    ly_over_g: float
    phs: int
    error: float
    trace_drift: float
    atom_residual: float
    wall_ms: float
    status: str = "ok"
    message: str = ""

    CSV_FIELDS = ("t", "delta_over_g", "ly_over_g", "phs", "error", "trace_drift")

    def csv_row(self) -> str:
        return ",".join([repr(float(self.t)), repr(float(self.delta_over_g)),
                         repr(float(self.ly_over_g)), str(int(self.phs)),
                         "nan" if self.status != "ok" else repr(float(self.error)),
                         repr(float(self.trace_drift))])


def _apply_point(base: circuit.SimParams, point: dict) -> circuit.SimParams:
    values = {k: v for k, v in point.items()}
    if "phs" in values:
        values["phs"] = int(values["phs"])
    return replace(base, **values)


def _failed_record(params: circuit.SimParams, exc: BaseException) -> SweepRecord:
    return SweepRecord(t=params.t, delta_over_g=params.delta_over_g,
                       ly_over_g=params.ly_over_g, phs=params.phs,
                       error=float("nan"), trace_drift=float("nan"),
                       atom_residual=float("nan"), wall_ms=0.0,
                       status="failed", message=f"{type(exc).__name__}: {exc}")


def _record(params: circuit.SimParams, outcome) -> SweepRecord:
    if isinstance(outcome, Exception):
        return _failed_record(params, outcome)
    return SweepRecord(t=params.t, delta_over_g=params.delta_over_g,
                       ly_over_g=params.ly_over_g, phs=params.phs,
                       error=outcome.error, trace_drift=outcome.trace_drift,
                       atom_residual=outcome.atom_residual, wall_ms=outcome.wall_ms)


def _evaluate_chunk(spec: SweepSpec, points: list[dict]) -> list[SweepRecord]:
    """Run grid points as one ``circuit.run_batch``; a point that fails comes
    back as a failed record, so the sweep does not abort."""
    params = [_apply_point(spec.base, p) for p in points]
    try:
        space = fock.default_state_space()
        outcomes = circuit.run_batch(
            circuit.input_state(spec.input_state, spec.seed, space), params, space)
    except Exception as exc:
        outcomes = [exc] * len(params)
    return [_record(p, outcome) for p, outcome in zip(params, outcomes)]


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[SweepRecord]:
    """Evaluate every grid point, in deterministic grid order.

    Each chunk of grid points runs as one ``circuit.run_batch``, and a
    serial sweep is one chunk, so its points run in stacked slices per
    Hamiltonian.  A record's ``wall_ms`` is therefore its share of its
    slice's wall time (and of the batch's shared input stage), not a time
    measured for that point alone.

    Workers > 1 fan chunks of grid points over processes, at most one
    process per chunk, and collect them in grid order, so the output is
    independent of the worker count.  A worker that dies breaks the pool
    and every chunk not finished by then; each such chunk reruns alone in a
    fresh one-worker pool, so only the chunk that crashed is lost.  A chunk
    that still raises comes back as failed records naming the exception.
    """
    points = spec.grid()
    if not points:
        return []
    if workers <= 1:
        return _evaluate_chunk(spec, points)
    size = max(1, len(points) // (8 * workers))
    chunks = [points[i:i + size] for i in range(0, len(points), size)]
    # the pool forks every worker up front, and one past the chunks gets none
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(chunks))) as pool:
        futures = [pool.submit(_evaluate_chunk, spec, chunk) for chunk in chunks]
        return [record for chunk, future in zip(chunks, futures)
                for record in _chunk_records(spec, chunk, future)]


def _chunk_records(spec: SweepSpec, chunk: list[dict], future) -> list[SweepRecord]:
    try:
        try:
            return future.result()
        except concurrent.futures.BrokenExecutor:
            with concurrent.futures.ProcessPoolExecutor(max_workers=1) as solo:
                return solo.submit(_evaluate_chunk, spec, chunk).result()
    except Exception as exc:
        return [_failed_record(_apply_point(spec.base, p), exc) for p in chunk]


@dataclass(frozen=True)
class OptimalSet:
    """Strictly-improving (t, delta_over_g, error) entries, increasing in t."""

    entries: tuple[tuple[float, float, float], ...]

    def t_values(self) -> tuple[float, ...]:
        return tuple(e[0] for e in self.entries)


def extract_optimal_set(records: Sequence[SweepRecord],
                        keep_first: bool = True) -> OptimalSet:
    """Running-minimum filter over t: keep records beating every earlier keep.

    Records sharing a duration (e.g. a detuning axis) are first reduced to
    their per-duration best, so the result is strictly increasing in t.
    With ``keep_first`` the smallest-t record opens the set unconditionally;
    without it that record only seeds the baseline, matching the reading
    that an "optimal" duration must lower the error against a shorter one.
    Failed records are skipped.  Input order does not matter.
    """
    per_t = {}
    for rec in records:
        if rec.status != "ok" or math.isnan(rec.error):
            continue
        if rec.t not in per_t or rec.error < per_t[rec.t].error:
            per_t[rec.t] = rec
    entries = []
    best = math.inf
    for i, t in enumerate(sorted(per_t)):
        rec = per_t[t]
        if rec.error < best:
            if i > 0 or keep_first:
                entries.append((rec.t, rec.delta_over_g, rec.error))
            best = rec.error
    return OptimalSet(tuple(entries))


def _best_record(records: Sequence[SweepRecord]) -> SweepRecord:
    ok = [r for r in records if r.status == "ok" and not math.isnan(r.error)]
    if not ok:
        raise PhysicsValidationError("no successful records to optimize over")
    return min(ok, key=lambda r: r.error)


def find_detuned_optimum(t_values: Sequence[float], delta_values: Sequence[float],
                         base: circuit.SimParams, rounds: int = 3
                         ) -> tuple[float, float, float]:
    """Best (t, delta_over_g, error) over a 2-D grid plus local refinement.

    Coordinate descent around the coarse winner: each round refines both
    resolutions tenfold and rescans a local window, one coordinate at a
    time.  Degenerate axes (single value) are held fixed.
    """
    t_values = tuple(float(v) for v in t_values)
    delta_values = tuple(float(v) for v in delta_values)
    axes = [Axis("t", t_values), Axis("delta_over_g", delta_values)]
    spec = SweepSpec(axes=tuple(axes), base=base)
    best = _best_record(run_sweep(spec))
    t_star, d_star, err_star = best.t, best.delta_over_g, best.error

    t_step = min(np.diff(sorted(set(t_values)))) if len(set(t_values)) > 1 else 0.0
    d_step = min(np.diff(sorted(set(delta_values)))) if len(set(delta_values)) > 1 else 0.0
    for _ in range(rounds):
        t_step /= 10.0
        d_step /= 10.0
        for coord, step in (("t", t_step), ("delta_over_g", d_step)):
            if step == 0.0:
                continue
            center = t_star if coord == "t" else d_star
            lo, hi = AXIS_DOMAINS[coord]
            # clipping at the domain edge repeats values; keep the first of each
            values = tuple(dict.fromkeys(float(np.clip(center + k * step, lo, hi))
                                         for k in range(-12, 13)))
            fixed = {"t": (t_star,), "delta_over_g": (d_star,)}
            fixed[coord] = values
            local = SweepSpec(axes=(Axis("t", fixed["t"]),
                                    Axis("delta_over_g", fixed["delta_over_g"])),
                              base=base)
            best = _best_record(run_sweep(local))
            if best.error < err_star:
                t_star, d_star, err_star = best.t, best.delta_over_g, best.error
    return t_star, d_star, err_star


def robustness_profile(t: float, delta_opt: float, base: circuit.SimParams,
                       ly_values: Sequence[float]) -> list[SweepRecord]:
    """Error around one optimum: the leak values at its duration and detuning."""
    axis = Axis("ly_over_g", tuple(ly_values))
    return run_sweep(SweepSpec(axes=(axis,),
                               base=replace(base, t=t, delta_over_g=delta_opt)))


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_records_csv(records: Sequence[SweepRecord], path: str):
    """One row per record, atomically; columns are stable and deterministic."""
    lines = [",".join(SweepRecord.CSV_FIELDS)]
    lines += [r.csv_row() for r in records]
    atomic_write(path, "\n".join(lines) + "\n")


def write_optimal_csv(optimal: OptimalSet, path: str):
    """The strictly-improving (t, delta_over_g, error) table, atomically."""
    lines = ["t,delta_over_g,error"]
    lines += [f"{t!r},{d!r},{e!r}" for t, d, e in optimal.entries]
    atomic_write(path, "\n".join(lines) + "\n")


def write_manifest(spec: SweepSpec, path: str, engine_version: str,
                   csv_paths: Sequence[str] = ()):
    payload = {
        "spec": spec.as_dict(),
        "spec_sha256": spec.sha256(),
        "engine_version": engine_version,
        "outputs": [os.path.basename(p) for p in csv_paths],
    }
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
