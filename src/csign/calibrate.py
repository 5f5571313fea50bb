"""Analytic pre-selection of gate durations and detunings.

:func:`candidate_table` lists the two-photon sign-flip times, the odd
multiples of the two-photon half period, each with the lossless gate error
:func:`csign.jc.lossless_gate_error` of that duration; the lowest errors are
the good gate durations.  At resonance the one- and two-photon periods have
the irrational ratio sqrt(2), so no sign flip meets a full one-photon
return exactly; :func:`detuning_table` lists the detunings that make the
two generalized Rabi frequencies commensurable instead, for given rational
ratios.  All of it is scalar ``math`` on the formulas of :mod:`csign.jc`, so
calibration runs without numpy.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import PhysicsValidationError
from .jc import PhysParams, lossless_gate_error, rabi_frequency

TWO_PI = 2.0 * math.pi

#: longest candidate table: a horizon past it is a typo, not a calibration
MAX_CANDIDATES = 100_000


def commensurable_detunings(r) -> float:
    """Detuning ratio d = delta/g making the two Rabi frequencies commensurable.

    Solves sqrt(4 + d^2) / sqrt(8 + d^2) = r exactly:
    d = sqrt((8 r^2 - 4) / (1 - r^2)), valid for 1/sqrt(2) < r < 1.
    Rational r then makes the one- and two-photon recurrence progressions
    share a common period.  d^2 is evaluated exactly in rational arithmetic,
    for float inputs too.
    """
    from fractions import Fraction  # only the ratio table needs it

    if not math.isfinite(r):
        raise PhysicsValidationError(f"ratio must be finite, got {r}")
    r = Fraction(r)
    if not (1.0 / math.sqrt(2.0) < r < 1):
        raise PhysicsValidationError(
            f"ratio must lie in (1/sqrt(2), 1), got {float(r)}")
    d_sq = (8 * r * r - 4) / (1 - r * r)
    return math.sqrt(float(d_sq))


def candidate_table(params: PhysParams, horizon_t: float) -> list[dict]:
    """Rows (t, delta_over_g, residual) for every sign-flip candidate up to
    the duration ``horizon_t``.

    ``t`` and ``horizon_t`` are durations in gate units T * sqrt(2) g / pi;
    the residual is :func:`csign.jc.lossless_gate_error` at that duration.
    """
    if not math.isfinite(horizon_t):
        raise PhysicsValidationError(f"horizon_t must be finite, got {horizon_t}")
    if horizon_t <= 0:
        return []
    unit = math.pi / (math.sqrt(2.0) * params.g)
    horizon = horizon_t * unit
    start = TWO_PI / rabi_frequency(1, params)  # the first half period
    stop, step = horizon + 1e-12 * horizon, 2.0 * start
    # the odd multiples of the half period, spaced as np.arange(start, stop,
    # step) spaces them, so the durations agree with it bit for bit
    spacing = (start + step) - start
    # infinite when horizon_t * unit overflows; ceil(x) > N exactly when x > N
    count = (stop - start) / step
    if count > MAX_CANDIDATES:
        raise PhysicsValidationError(
            f"horizon_t {horizon_t} gives more than {MAX_CANDIDATES} candidates")
    taus = (start + i * spacing for i in range(math.ceil(count)))
    return [{"t": tau / unit,
             "delta_over_g": params.delta / params.g,
             "residual": lossless_gate_error(params, tau)}
            for tau in taus]


def detuning_table(ratios: Sequence) -> list[dict]:
    """Rows (r, d, roundtrip_residual) for a list of rational ratios."""
    from fractions import Fraction

    rows = []
    for r in ratios:
        d = commensurable_detunings(r)
        frac = Fraction(r)
        realized = math.sqrt(4 + d * d) / math.sqrt(8 + d * d)
        rows.append({"r": f"{frac.numerator}/{frac.denominator}",
                     "d": d,
                     "roundtrip_residual": abs(realized - float(frac))})
    return rows
