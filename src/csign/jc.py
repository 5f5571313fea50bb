"""Scalar Jaynes-Cummings formulas of one cavity, with the standard library only.

One two-level atom exchanging excitation with a single cavity mode under the
rotating-wave coupling splits into invariant two-dimensional blocks spanned
by (|g,n+1>, |e,n>).  The generalized Rabi frequency of a block and the
return amplitude of an n-photon transit are closed forms in ``math`` and
``cmath``, so calibration runs without numpy; ``dynamics`` builds the matrix
forms on top of them.

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
    where the zero-photon amplitude stays exactly 1.  Used to pick the
    compensating phase-shifter angle and to rank calibration candidates.
    """
    if n_photons < 1:
        return 1.0 + 0.0j
    block = n_photons - 1
    omega = rabi_frequency(block, params)
    half = 0.5 * omega * t
    return cmath.exp(-0.5j * params.delta * t) * (
        math.cos(half) + 1j * (params.delta / omega) * math.sin(half)
    )
