"""Scalar Jaynes-Cummings formulas of one cavity, with the standard library only.

One two-level atom exchanging excitation with a single cavity mode under the
rotating-wave coupling splits into invariant two-dimensional blocks spanned
by (|g,n+1>, |e,n>).  The Rabi frequency of a block, the return amplitude
of an n-photon transit, the shifter angle and the lossless gate error are
closed forms in ``math`` and ``cmath``, so calibration runs without numpy;
``dynamics`` and ``circuit`` build on them.

Sign convention: the detuning is ``delta = omega_a - omega_c`` throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import PhysicsValidationError

#: default cavity frequency in units of the coupling g
DEFAULT_OMEGA_C_OVER_G = (5.11 / 3.41) * 1e6


@dataclass(frozen=True)
class PhysParams:
    """Dimensionless physics knobs of one cavity (hbar = 1).

    ``omega_a`` is derived: omega_a = omega_c + delta.
    """

    g: float = 0.1
    omega_c: float = None  # resolved to g * DEFAULT_OMEGA_C_OVER_G
    delta: float = 0.0

    def __post_init__(self):
        if self.omega_c is None:
            object.__setattr__(self, "omega_c", self.g * DEFAULT_OMEGA_C_OVER_G)
        for name in ("g", "omega_c", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise PhysicsValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g <= 0:
            raise PhysicsValidationError(f"coupling g must be positive, got {self.g}")
        if self.omega_c <= 0:
            raise PhysicsValidationError(f"omega_c must be positive, got {self.omega_c}")
        # the Rabi frequency must not overflow at n = 1, nor underflow to 0 at n = 0
        if not math.isfinite(self.delta * self.delta + 8.0 * self.g * self.g):
            raise PhysicsValidationError(
                f"delta {self.delta} and g {self.g} overflow the Rabi frequency")
        if rabi_frequency(0, self) == 0.0:
            raise PhysicsValidationError(
                f"delta {self.delta} and g {self.g} underflow the Rabi frequency to 0")

    @property
    def omega_a(self) -> float:
        return self.omega_c + self.delta


def rabi_frequency(n: int, params: PhysParams) -> float:
    """Generalized Rabi frequency of block n: sqrt(delta^2 + 4 g^2 (n+1))."""
    if n < 0:
        raise PhysicsValidationError(f"block index must be >= 0, got {n}")
    return math.sqrt(params.delta ** 2 + 4.0 * params.g ** 2 * (n + 1))


def jc_return_amplitude(n_photons: int, params: PhysParams, t: float) -> complex:
    """Amplitude for n photons (atom in g) to survive the cavity transit.

    Measured relative to the empty-cavity sector, i.e. in the rotating frame
    where the zero-photon amplitude stays exactly 1.
    """
    if n_photons < 1:
        return 1.0 + 0.0j
    block = n_photons - 1
    omega = rabi_frequency(block, params)
    half = 0.5 * omega * t
    return cmath.exp(-0.5j * params.delta * t) * (
        math.cos(half) + 1j * (params.delta / omega) * math.sin(half)
    )


def compensating_phase(params: PhysParams, t: float) -> float:
    """Shifter angle phi = -arg(u1) that brings the one-photon component of a
    transit of duration t back in phase (the two-photon one turns by 2*phi);
    0 when |u1| < 1e-12, where the phase is undefined."""
    u1 = jc_return_amplitude(1, params, t)
    return 0.0 if abs(u1) < 1e-12 else 0.0 - cmath.phase(u1)  # +0.0, not -0.0, at phase 0


def lossless_gate_error(params: PhysParams, t: float) -> float:
    """Gate error of the array on ``p_test`` without leak, shifter on.

    The state stays pure, so the error is sqrt(1 - |overlap|^2); following
    the four logical branches through splitters, cavities and shifter gives
    the overlap (1 + 2 u1' - u2') / 4 with u_n' = e^{i n phi} u_n.
    """
    shift = cmath.exp(1j * compensating_phase(params, t))
    overlap = 1.0 + 2.0 * shift * jc_return_amplitude(1, params, t) \
        - shift * shift * jc_return_amplitude(2, params, t)
    return math.sqrt(max(0.0, 1.0 - abs(overlap) ** 2 / 16.0))
