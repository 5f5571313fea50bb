"""Jaynes-Cummings dynamics of one cavity and the full-array Hamiltonian.

One two-level atom exchanging excitation with a single cavity mode under the
rotating-wave coupling splits into invariant two-dimensional blocks spanned
by (|g,n+1>, |e,n>).  This module holds the exact single-cavity evolution
over those blocks, an analytic oracle for the numeric propagator built on
the block amplitudes u_n and v_n of :mod:`csign.jc`, with its 5x5
Hamiltonian, and the Hamiltonian of the whole array.  The scalar formulas
(the generalized Rabi frequency, the block amplitudes and the shifter angle
they calibrate) live in :mod:`csign.jc`, which needs no numpy.

Sign convention: the detuning is ``delta = omega_a - omega_c`` throughout.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import fock
from .errors import PhysicsValidationError
from .jc import PhysParams, block_amplitudes

#: basis order of the single-cavity helpers
JC_BASIS = ("g0", "g1", "g2", "e0", "e1")


def analytic_evolve(amplitudes, t: float, params: PhysParams) -> np.ndarray:
    """Closed-form single-cavity evolution in the frame co-rotating with the mode.

    The input is the atom-ground superposition (alpha0, alpha1, alpha2) over
    photon numbers 0..2; the result is the 5-vector over ``JC_BASIS``.  The
    empty cavity picks up the frame phase exp(+i t delta / 2), and each photon
    sector rotates inside its invariant block, |g,n> -> u_n |g,n> + v_n |e,n-1>
    with the :func:`csign.jc.block_amplitudes` u_n and v_n times that phase.
    """
    a0, a1, a2 = (complex(a) for a in amplitudes)
    norm = abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2
    if abs(norm - 1.0) > 1e-9:
        raise PhysicsValidationError(f"input amplitudes have norm^2 {norm}, expected 1")
    frame = np.exp(0.5j * t * params.delta)
    out = np.zeros(5, dtype=complex)
    out[0] = a0 * frame
    for n_photons, amp, g_idx, e_idx in ((1, a1, 1, 3), (2, a2, 2, 4)):
        u, v = block_amplitudes(n_photons, params, t)
        out[g_idx], out[e_idx] = amp * frame * u, amp * frame * v
    return out


def build_jc_hamiltonian(params: PhysParams, frame: str = "interaction") -> np.ndarray:
    """5x5 single-cavity Hamiltonian over ``JC_BASIS`` in the frame of
    :func:`analytic_evolve`: mode energy removed, atom carries +/- delta/2.
    ``frame`` admits only ``"interaction"``."""
    if frame != "interaction":
        raise PhysicsValidationError(f"unknown frame {frame!r}")
    h = np.diag([-0.5 * params.delta] * 3 + [0.5 * params.delta] * 2).astype(complex)
    idx = {name: i for i, name in enumerate(JC_BASIS)}
    for g_name, e_name, n in (("g1", "e0", 0), ("g2", "e1", 1)):
        h[idx[g_name], idx[e_name]] = h[idx[e_name], idx[g_name]] = math.sqrt(n + 1) * params.g
    return h


@lru_cache(maxsize=512)
def build_array_hamiltonian(space: fock.StateSpace, params: PhysParams,
                            frame: str = "lab") -> np.ndarray:
    """Hermitian Hamiltonian of the whole array over the basis ``space``.

    Photon number terms on all four rails, excited-level projectors on both
    atoms, and the exchange couplings atom1 <-> x1 and atom2 <-> y1.  The
    idle rails x2, y2 appear only through their number terms.

    ``frame="rotating"`` removes omega_c times the total excitation, which
    commutes with everything here; only the detuning survives on the atom
    projectors.  Stepping in that frame avoids resolving the optical
    frequency, about five orders of magnitude above the coupling.
    """
    # photon count and excited-atom count of each basis state, as diagonals
    photons = np.diag([complex(s.photons) for s in space.states])
    excited = np.diag([complex(s.a1 + s.a2) for s in space.states])
    coupling = np.zeros((space.dim, space.dim), dtype=complex)
    for rail, atom in (("x1", "a1"), ("y1", "a2")):
        a = fock.annihilation_matrix(rail, space)
        sig_plus = fock.atom_lowering_matrix(atom, space).conj().T
        term = sig_plus @ a
        coupling += term + term.conj().T
    if frame == "lab":
        h = params.omega_c * photons + params.omega_a * excited + params.g * coupling
    elif frame == "rotating":
        h = params.delta * excited + params.g * coupling
    else:
        raise PhysicsValidationError(f"unknown frame {frame!r}")
    return fock.frozen(h)
