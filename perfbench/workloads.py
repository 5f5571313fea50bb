"""Workload inputs and reference checks of the csign benchmark.

Every input is drawn from a ``random.Random`` seeded with the run's seed
(and, for the serial sweeps, the repetition number), so one seed always
gives the same sequence of grids or the same config.  This module imports
nothing from csign: the benchmark process only generates inputs and checks
outputs, and all program work runs in child processes.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: whole-number durations where the resonant error reaches a new minimum
OPTIMA = (3.0, 7.0, 17.0, 41.0, 99.0)
#: criterion-1 grid: t = k / 20 for t in [2, 100]
DURATION_KS = range(40, 2001)
#: criterion-7 grid: 13 log-spaced leak coefficients in [1e-4, 1e-1]
LEAK_GRID = tuple(10.0 ** (-4.0 + 3.0 * k / 12.0) for k in range(13))
#: the commensurable ratio of the detuned optimum and its refined detuning
RATIO = "14/15"
D_RATIO = 4.799425252946512
D_REFINED = 4.79975
ERROR_T99 = 0.0079334131
ERROR_REFINED = 0.003611851228825481
ABS_TOL = 1e-9

DURATION_SAMPLES = 3      # seeded grid points on top of the five optima
LEAK_VALUES = 2           # seeded leak coefficients per profile
WINDOW_POINTS = 8         # detuning window of the CLI sweep
WINDOW_STEPS = (0.0001, 0.0002, 0.00025, 0.0005)
EXTRA_RATIOS = 3          # seeded ratios next to 14/15


def duration_scan(seed: int, rep: int) -> dict:
    """Resonant, lossless serial sweep over a sample of the criterion-1 grid."""
    rng = random.Random(f"duration_scan:{seed}:{rep}")
    anchors = {round(t * 20) for t in OPTIMA}
    pool = [k for k in DURATION_KS if k not in anchors]
    ks = sorted(anchors | set(rng.sample(pool, DURATION_SAMPLES)))
    return {"axes": [["t", [k / 20 for k in ks]]],
            "base": {"t": 2.0, "delta_over_g": 0.0, "ly_over_g": 0.0, "phs": 1}}


def leak_profile(seed: int, rep: int) -> dict:
    """Resonant serial sweep over leak coefficients at a seeded optimum."""
    rng = random.Random(f"leak_profile:{seed}:{rep}")
    t = rng.choice(OPTIMA)
    lys = sorted(rng.sample(LEAK_GRID, LEAK_VALUES))
    return {"axes": [["ly_over_g", lys]],
            "base": {"t": t, "delta_over_g": 0.0, "ly_over_g": 0.0, "phs": 1}}


def _ratio_pool() -> list[str]:
    """Ratios p/q, q <= 20, inside (1/sqrt(2), 1), other than 14/15."""
    fracs = {Fraction(p, q) for q in range(2, 21) for p in range(1, q)}
    ok = [f for f in fracs if 1 / math.sqrt(2) < f < 1 and f != Fraction(RATIO)]
    return [f"{f.numerator}/{f.denominator}" for f in sorted(ok)]


def calibrate_cli(seed: int) -> dict:
    """The calibration session: two tables, a detuning sweep, one simulate.

    The detuning window at t = 99 holds D_REFINED at a seeded position, with
    a seeded spacing, so it always brackets the refined optimum.
    """
    rng = random.Random(f"calibrate_cli:{seed}")
    ratios = [RATIO] + rng.sample(_ratio_pool(), EXTRA_RATIOS)
    step = rng.choice(WINDOW_STEPS)
    at = rng.randrange(WINDOW_POINTS)
    deltas = [round(D_REFINED + (k - at) * step, 6) for k in range(WINDOW_POINTS)]
    config = {"physics": {"t": 99.0, "ly_over_g": 0.0, "phs": 1},
              "sweep": {"axes": [{"name": "delta_over_g", "values": deltas}]}}
    return {"ratios": ratios, "config": config, "deltas": deltas}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def point_key(t: float, ly: float = 0.0) -> str:
    return f"{t!r}|{ly!r}"


def check_duration_scan(records: list[dict], reference: dict) -> list[str]:
    """Failures of one duration scan; empty when every check holds."""
    fails = _check_points(records, reference)
    by_t = {r["t"]: r["error"] for r in records if r["status"] == "ok"}
    if abs(by_t.get(99.0, math.nan) - ERROR_T99) > ABS_TOL:
        fails.append(f"error at t=99 is {by_t.get(99.0)}, expected {ERROR_T99}")
    optima = [by_t.get(t, math.nan) for t in OPTIMA]
    if not all(b < a for a, b in zip(optima, optima[1:])):
        fails.append(f"errors at the optima do not strictly decrease: {optima}")
    return fails


def check_leak_profile(records: list[dict], reference: dict,
                       trace_tol: float) -> list[str]:
    """Failures of one leak profile; empty when every check holds.

    Monotonicity uses the 1e-9 slack of the acceptance criterion it mirrors.
    """
    fails = _check_points(records, reference)
    for t in sorted({r["t"] for r in records}):
        errors = [r["error"] for r in records if r["t"] == t]
        if not all(b >= a - ABS_TOL for a, b in zip(errors, errors[1:])):
            fails.append(f"error decreases with leak at t={t}: {errors}")
    for r in records:
        if not abs(r["trace_drift"]) <= trace_tol:
            fails.append(f"trace drift {r['trace_drift']} beyond {trace_tol} "
                         f"at t={r['t']}, ly={r['ly_over_g']}")
    return fails


def _check_points(records: list[dict], reference: dict) -> list[str]:
    fails = []
    for r in records:
        if r["status"] != "ok":
            fails.append(f"point t={r['t']} ly={r['ly_over_g']} failed: {r['message']}")
            continue
        want = reference.get(point_key(r["t"], r["ly_over_g"]))
        if want is None or not abs(r["error"] - want) <= ABS_TOL:
            fails.append(f"error {r['error']!r} at t={r['t']} ly={r['ly_over_g']} "
                         f"differs from the reference {want!r}")
    return fails
