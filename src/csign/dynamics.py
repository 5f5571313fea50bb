"""Jaynes-Cummings dynamics of one cavity and the full-array Hamiltonian.

One two-level atom exchanging excitation with a single cavity mode under the
rotating-wave coupling splits into invariant two-dimensional blocks spanned
by (|g,n+1>, |e,n>).  Everything needed downstream follows from those blocks:
the generalized Rabi frequency, the dressed-state mixing angle, the exact
single-cavity evolution used as an analytic oracle, and the return amplitude
that calibrates the compensating phase shifter.

Sign convention: the detuning is ``delta = omega_a - omega_c`` throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock
from .errors import PhysicsValidationError

#: default cavity frequency in units of the coupling g
DEFAULT_OMEGA_C_OVER_G = (5.11 / 3.41) * 1e6

#: basis order of the single-cavity helpers
JC_BASIS = ("g0", "g1", "g2", "e0", "e1")


@dataclass(frozen=True)
class PhysParams:
    """Dimensionless physics knobs of one cavity (hbar = 1).

    ``omega_a`` is derived: omega_a = omega_c + delta.
    """

    g: float = 0.1
    omega_c: float = None  # resolved to g * DEFAULT_OMEGA_C_OVER_G
    delta: float = 0.0

    def __post_init__(self):
        if self.g <= 0:
            raise PhysicsValidationError(f"coupling g must be positive, got {self.g}")
        if self.omega_c is None:
            object.__setattr__(self, "omega_c", self.g * DEFAULT_OMEGA_C_OVER_G)
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


@dataclass(frozen=True)
class DressedState:
    """Eigen-data of one invariant block (|g,n+1>, |e,n>).

    The dressed states are |+,n> = cos(theta)|g,n+1> + sin(theta)|e,n> and
    |-,n> = -sin(theta)|g,n+1> + cos(theta)|e,n>.
    """

    n: int
    theta: float
    eps_plus: float
    eps_minus: float


def jc_block_eigensystem(n: int, params: PhysParams) -> DressedState:
    """Eigenvalues (n+1/2)omega_c +/- Omega_n/2 and the dressed mixing angle.

    The mixing angle satisfies tan(theta_n) = 2 sqrt(n+1) g / (Omega_n - delta)
    and lies in (0, pi/2) for any g > 0.
    """
    omega_n = rabi_frequency(n, params)
    base = (n + 0.5) * params.omega_c
    theta = math.atan2(2.0 * math.sqrt(n + 1) * params.g, omega_n - params.delta)
    return DressedState(n=n, theta=theta,
                        eps_plus=base + 0.5 * omega_n,
                        eps_minus=base - 0.5 * omega_n)


def analytic_evolve(amplitudes, t: float, params: PhysParams) -> np.ndarray:
    """Closed-form single-cavity evolution in the frame co-rotating with the mode.

    The input is the atom-ground superposition (alpha0, alpha1, alpha2) over
    photon numbers 0..2; the result is the 5-vector over ``JC_BASIS``.  Each
    photon sector rotates inside its invariant block:

        |g,n> -> (cos(A) - i cos(2 theta) sin(A)) |g,n>
                 - i sin(2 theta) sin(A) |e,n-1>,     A = Omega_{n-1} t / 2,

    while the empty cavity picks up exp(+i t delta / 2).
    """
    a0, a1, a2 = (complex(a) for a in amplitudes)
    norm = abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise PhysicsValidationError(f"input amplitudes have norm^2 {norm}, expected 1")
    out = np.zeros(5, dtype=complex)
    out[0] = a0 * np.exp(0.5j * t * params.delta)
    for n_photons, amp, g_idx, e_idx in ((1, a1, 1, 3), (2, a2, 2, 4)):
        block = n_photons - 1
        omega = rabi_frequency(block, params)
        theta = jc_block_eigensystem(block, params).theta
        half = 0.5 * omega * t
        out[g_idx] = amp * (np.cos(half) - 1j * np.cos(2 * theta) * np.sin(half))
        out[e_idx] = amp * (-1j * np.sin(2 * theta) * np.sin(half))
    return out


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
    return np.exp(-0.5j * params.delta * t) * (
        np.cos(half) + 1j * (params.delta / omega) * np.sin(half)
    )


def build_jc_hamiltonian(params: PhysParams, frame: str = "interaction") -> np.ndarray:
    """5x5 single-cavity Hamiltonian over ``JC_BASIS``.

    ``interaction``: the frame of :func:`analytic_evolve` (mode energy removed,
    atom carries +/- delta/2).  ``lab``: full mode and atom energies included.
    """
    h = np.zeros((5, 5), dtype=complex)
    idx = {name: i for i, name in enumerate(JC_BASIS)}
    if frame == "interaction":
        diag = {"g0": -0.5 * params.delta, "g1": -0.5 * params.delta,
                "g2": -0.5 * params.delta, "e0": 0.5 * params.delta,
                "e1": 0.5 * params.delta}
    elif frame == "lab":
        wc, wa = params.omega_c, params.omega_a
        diag = {"g0": -0.5 * wa, "g1": wc - 0.5 * wa, "g2": 2 * wc - 0.5 * wa,
                "e0": 0.5 * wa, "e1": wc + 0.5 * wa}
    else:
        raise PhysicsValidationError(f"unknown frame {frame!r}")
    for name, value in diag.items():
        h[idx[name], idx[name]] = value
    for g_name, e_name, n in (("g1", "e0", 0), ("g2", "e1", 1)):
        h[idx[g_name], idx[e_name]] = h[idx[e_name], idx[g_name]] = math.sqrt(n + 1) * params.g
    return h


@lru_cache(maxsize=512)
def build_array_hamiltonian(space: fock.StateSpace, params: PhysParams,
                            frame: str = "lab") -> np.ndarray:
    """Hermitian Hamiltonian of the whole array over the reachable basis.

    Photon number terms on all four rails, excited-level projectors on both
    atoms, and the exchange couplings atom1 <-> x1 and atom2 <-> y1.  The
    idle rails x2, y2 appear only through their number terms.

    ``frame="rotating"`` removes omega_c times the total excitation, which
    commutes with everything here; only the detuning survives on the atom
    projectors.  Stepping in that frame avoids resolving the optical
    frequency, about five orders of magnitude above the coupling.
    """
    number_sum = sum(fock.number_matrix(rail, space) for rail in fock.RAILS)
    projector_sum = sum(fock.atom_projector_matrix(atom, space) for atom in fock.ATOMS)
    coupling = np.zeros((space.dim, space.dim), dtype=complex)
    for rail, atom in (("x1", "a1"), ("y1", "a2")):
        a = fock.annihilation_matrix(rail, space)
        sig_plus = fock.atom_raising_matrix(atom, space)
        term = sig_plus @ a
        coupling += term + term.conj().T
    if frame == "lab":
        h = params.omega_c * number_sum + params.omega_a * projector_sum \
            + params.g * coupling
    elif frame == "rotating":
        h = params.delta * projector_sum + params.g * coupling
    else:
        raise PhysicsValidationError(f"unknown frame {frame!r}")
    h = np.asarray(h)
    h.flags.writeable = False
    return h
