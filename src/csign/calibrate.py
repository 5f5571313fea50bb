"""Analytic pre-selection of gate durations and detunings.

A perfect nonlinear sign needs three things at once at the chosen transit
time: the empty-cavity phase at its reference, the one-photon component back
with a real amplitude, and the two-photon component back with the opposite
sign.  Each condition recurs periodically, giving three arithmetic
progressions of candidate times whose near-coincidences are the good gate
durations.  At resonance the one- and two-photon periods have the
irrational ratio sqrt(2), so only approximate coincidences exist; a suitable
detuning makes the two generalized Rabi frequencies commensurable instead.

:func:`candidate_table` ranks the exact two-photon sign-flip times by
:func:`transit_mismatch`; :func:`detuning_table` lists the commensurable
detunings of given rational frequency ratios.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dynamics import PhysParams, jc_return_amplitude, rabi_frequency
from .errors import PhysicsValidationError

TWO_PI = 2.0 * math.pi


def _angle_dist(x: float, target: float) -> float:
    """Distance between two angles modulo 2*pi, in [0, pi]."""
    d = (x - target) % TWO_PI
    return min(d, TWO_PI - d)


def transit_mismatch(params: PhysParams, tau: float) -> float:
    """How far one transit of duration tau is from the nonlinear-sign target.

    Phases are anchored to the empty-cavity sector and compared after the
    best compensating rail phase (which shifts the n-photon sector by
    n*phi), so only the shifter-invariant combination c - 2b is penalized.
    Equal weight goes to the residual atom-excitation amplitude, since phase
    misses and leftover entanglement feed the gate error symmetrically.
    """
    u1 = jc_return_amplitude(1, params, tau)
    u2 = jc_return_amplitude(2, params, tau)
    phase_miss = _angle_dist(float(np.angle(u2)) - 2.0 * float(np.angle(u1)), math.pi)
    residual = max(math.sqrt(max(0.0, 1.0 - abs(u1) ** 2)),
                   math.sqrt(max(0.0, 1.0 - abs(u2) ** 2)))
    return float(phase_miss + residual)


def commensurable_detunings(r) -> float:
    """Detuning ratio d = delta/g making the two Rabi frequencies commensurable.

    Solves sqrt(4 + d^2) / sqrt(8 + d^2) = r exactly:
    d = sqrt((8 r^2 - 4) / (1 - r^2)), valid for 1/sqrt(2) < r < 1.
    Rational r then makes the one- and two-photon recurrence progressions
    share a common period.
    """
    if isinstance(r, Fraction):
        r_sq = Fraction(r.numerator ** 2, r.denominator ** 2)
        r_val = float(r)
    else:
        r_val = float(r)
        r_sq = r_val * r_val
    if not (1.0 / math.sqrt(2.0) < r_val < 1.0):
        raise PhysicsValidationError(
            f"ratio must lie in (1/sqrt(2), 1), got {r_val}")
    d_sq = (8 * r_sq - 4) / (1 - r_sq)
    return math.sqrt(float(d_sq))


def candidate_table(params: PhysParams, horizon: float) -> list[dict]:
    """Rows (t, delta_over_g, residual) for every sign-flip candidate in range.

    ``t`` is the duration in gate units T * sqrt(2) g / pi; the residual is
    :func:`transit_mismatch` at that duration.
    """
    if horizon <= 0:
        return []
    half_period = TWO_PI / rabi_frequency(1, params)
    taus = np.arange(half_period, horizon + 1e-12 * horizon, 2.0 * half_period)
    unit = math.pi / (math.sqrt(2.0) * params.g)
    return [{"t": float(tau / unit),
             "delta_over_g": params.delta / params.g,
             "residual": transit_mismatch(params, tau)}
            for tau in taus]


def detuning_table(ratios: Sequence) -> list[dict]:
    """Rows (r, d, roundtrip_residual) for a list of rational ratios."""
    rows = []
    for r in ratios:
        frac = Fraction(r) if not isinstance(r, Fraction) else r
        d = commensurable_detunings(frac)
        realized = math.sqrt(4 + d * d) / math.sqrt(8 + d * d)
        rows.append({"r": f"{frac.numerator}/{frac.denominator}",
                     "d": d,
                     "roundtrip_residual": abs(realized - float(frac))})
    return rows
