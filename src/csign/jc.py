"""Scalar Jaynes-Cummings formulas of one cavity, with the standard library only.

One two-level atom exchanging excitation with a single cavity mode under the
rotating-wave coupling splits into invariant two-dimensional blocks spanned
by (|g,n+1>, |e,n>).  The Rabi frequency of a block, the amplitudes u_n and
v_n of an n-photon transit, the shifter angle and the lossless gate error are
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


def block_amplitudes(n_photons: int, params: PhysParams, t: float) -> tuple[complex, complex]:
    """(u_n, v_n): the amplitudes of |g,n> and |e,n-1> after a cavity transit
    of duration t from |g,n>, n >= 1, relative to the empty-cavity sector
    (the rotating frame where the zero-photon amplitude stays exactly 1)."""
    if n_photons < 1:
        raise PhysicsValidationError(f"photon number must be >= 1, got {n_photons}")
    omega = rabi_frequency(n_photons - 1, params)
    half = 0.5 * omega * t
    frame = cmath.exp(-0.5j * params.delta * t)
    return (frame * (math.cos(half) + 1j * (params.delta / omega) * math.sin(half)),
            frame * (-2j * math.sqrt(n_photons) * params.g / omega * math.sin(half)))


def compensating_phase(params: PhysParams, t: float) -> float:
    """Shifter angle phi = -arg(u1) that brings the one-photon component of a
    transit of duration t back in phase (the two-photon one turns by 2*phi);
    0 when |u1| < 1e-12, where the phase is undefined."""
    u1 = block_amplitudes(1, params, t)[0]
    return 0.0 if abs(u1) < 1e-12 else 0.0 - cmath.phase(u1)  # +0.0, not -0.0, at phase 0


def lossless_gate_error(params: PhysParams, t: float) -> float:
    """Gate error of the array on ``p_test`` without leak, shifter on.

    The state stays pure, so the error is sqrt(1 - |overlap|^2); following
    the four logical branches through splitters, cavities and shifter gives
    the overlap (1 + 2 u1' - u2') / 4 with u_n' = e^{i n phi} u_n.
    """
    shift = cmath.exp(1j * compensating_phase(params, t))
    overlap = 1.0 + 2.0 * shift * block_amplitudes(1, params, t)[0] \
        - shift * shift * block_amplitudes(2, params, t)[0]
    return math.sqrt(max(0.0, 1.0 - abs(overlap) ** 2 / 16.0))
