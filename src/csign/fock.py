"""Fock basis of the four-rail, two-atom gate array.

The array carries two dual-rail photonic qubits on rails ``x1, x2, y1, y2``
plus one two-level atom per optical cavity (atom 1 in the ``x1`` cavity,
atom 2 in the ``y1`` cavity).  At most two excitations are ever present, so
the state space is small: this module enumerates every configuration the
model's constraints allow (23 of them) and provides the ladder operators as
dense matrices over that basis.

Basis ordering is lexicographic on ``(n_x1, n_x2, n_y1, n_y2, a1, a2)`` so
that serialized matrices are reproducible run to run.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import PhysicsValidationError

logger = logging.getLogger(__name__)

RAILS = ("x1", "x2", "y1", "y2")
ATOMS = ("a1", "a2")

#: atom level encoding: ground / excited
G, E = 0, 1

MAX_TOTAL_EXCITATION = 2

HERMITICITY_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-9
TRACE_TOL = 1e-12


@dataclass(frozen=True, order=True)
class BasisState:
    """One closed-system configuration: rail occupations plus atom levels."""

    n_x1: int
    n_x2: int
    n_y1: int
    n_y2: int
    a1: int
    a2: int

    def __post_init__(self):
        for n in self.occupations:
            if n < 0:
                raise PhysicsValidationError(f"negative occupation in {self}")
        if self.n_x2 > 1 or self.n_y2 > 1:
            raise PhysicsValidationError(f"idle rail holds more than one photon: {self}")
        if self.a1 not in (G, E) or self.a2 not in (G, E):
            raise PhysicsValidationError(f"atom level outside {{g,e}}: {self}")
        if self.total_excitation > MAX_TOTAL_EXCITATION:
            raise PhysicsValidationError(f"more than {MAX_TOTAL_EXCITATION} excitations: {self}")
        if self.a1 == E and self.a2 == E:
            # The input splitter bunches the |1,1> rail pair, so no branch holds
            # an excitation in both cavities; the exchange conserves each
            # cavity's excitation and the leak only lowers it, so both atoms
            # are never excited at once.
            raise PhysicsValidationError(f"both atoms excited: {self}")

    @property
    def occupations(self) -> tuple[int, int, int, int]:
        return (self.n_x1, self.n_x2, self.n_y1, self.n_y2)

    @property
    def photons(self) -> int:
        return self.n_x1 + self.n_x2 + self.n_y1 + self.n_y2

    @property
    def total_excitation(self) -> int:
        return self.photons + self.a1 + self.a2

    def replace_rails(self, **updates: int) -> "BasisState":
        """This state with the named rails (``x1=...``) set to new occupations."""
        return replace(self, **{f"n_{rail}": n for rail, n in updates.items()})

    def rail_occupation(self, rail: str) -> int:
        return self.occupations[RAILS.index(rail)]

    def __str__(self) -> str:
        ge = {G: "g", E: "e"}
        return "|{} {} {} {};{}{}>".format(*self.occupations, ge[self.a1], ge[self.a2])


@dataclass(frozen=True)
class StateSpace:
    """A sorted basis of unique states (:class:`BasisState`, or the photonic
    occupation tuples of :func:`partial_trace_atoms`) with its index map,
    hashed once: the per-space caches below key on it.  Equality still
    compares the states, so equal bases share cache entries."""

    states: tuple

    def __post_init__(self):
        if list(self.states) != sorted(self.states):
            raise PhysicsValidationError("StateSpace states must be lexicographically sorted")
        if len(set(self.states)) != len(self.states):
            raise PhysicsValidationError("StateSpace states must be unique")
        object.__setattr__(self, "_hash", hash(self.states))
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.states)})

    def __hash__(self) -> int:
        return self._hash

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state) -> int:
        return self._index[state]

    def __contains__(self, state) -> bool:
        return state in self._index


class DensityMatrix:
    """Hermitian, positive, trace-1 complex matrix over a state space."""

    def __init__(self, space, matrix: np.ndarray, *, check: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise PhysicsValidationError(
                f"matrix shape {matrix.shape} != ({space.dim}, {space.dim})"
            )
        if check:
            herm = np.max(np.abs(matrix - matrix.conj().T))
            if herm > HERMITICITY_TOL:
                raise PhysicsValidationError(f"non-Hermitian by {herm:.3e}")
            tr = matrix.trace().real
            if not abs(tr - 1.0) <= TRACE_TOL:  # also a nan trace; drift is measured from 1
                raise PhysicsValidationError(f"trace {tr} is not 1")
            lo = np.linalg.eigvalsh(matrix)[0]
            if lo < EIGENVALUE_FLOOR:
                raise PhysicsValidationError(f"negative eigenvalue {lo:.3e}")
        self.space = space
        self.matrix = matrix
        self.matrix.flags.writeable = False

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


#: the logical basis |00>, |01>, |10>, |11>; logical 1 puts the photon on rail 1
SEEDS = tuple(BasisState(qx, 1 - qx, qy, 1 - qy, G, G) for qx in (0, 1) for qy in (0, 1))


def enumerate_states() -> StateSpace:
    """Every configuration :class:`BasisState` admits, in lexicographic order.

    Cavity rails hold up to ``MAX_TOTAL_EXCITATION`` photons and idle rails
    at most one; the excitation cap and the never-both-excited rule filter
    the product.  The dimension (23) is logged.
    """
    cavity = range(MAX_TOTAL_EXCITATION + 1)
    states = tuple(
        BasisState(*config)
        for config in itertools.product(cavity, (0, 1), cavity, (0, 1), (G, E), (G, E))
        if sum(config) <= MAX_TOTAL_EXCITATION and config[4:] != (E, E))
    space = StateSpace(states)
    logger.info("enumerated state space: dimension %d", space.dim)
    return space


@lru_cache(maxsize=None)
def default_state_space() -> StateSpace:
    """The basis of :func:`enumerate_states`, shared by the circuit pipeline."""
    return enumerate_states()


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def frozen(mat: np.ndarray) -> np.ndarray:
    """Mark an array read-only (for arrays that caches hand out) and return it."""
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def annihilation_matrix(rail: str, space: StateSpace) -> np.ndarray:
    """Photon annihilation on one rail: <s'|a|s> = sqrt(n) for s' = s minus one photon."""
    if rail not in RAILS:
        raise PhysicsValidationError(f"unknown rail {rail!r}")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for i, s in enumerate(space.states):
        n = s.rail_occupation(rail)
        if n > 0:
            mat[space.index_of(s.replace_rails(**{rail: n - 1})), i] = math.sqrt(n)
    return frozen(mat)


@lru_cache(maxsize=None)
def atom_lowering_matrix(atom: str, space: StateSpace) -> np.ndarray:
    """Relaxation e -> g on one atom with unit amplitude; annihilates g."""
    if atom not in ATOMS:
        raise PhysicsValidationError(f"unknown atom {atom!r}")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for i, s in enumerate(space.states):
        if getattr(s, atom) == E:
            mat[space.index_of(replace(s, **{atom: G})), i] = 1.0
    return frozen(mat)


def total_excitation_matrix(space: StateSpace) -> np.ndarray:
    """Diagonal total-excitation operator (photons plus excited atoms)."""
    diag = [s.total_excitation for s in space.states]
    return frozen(np.diag(np.asarray(diag, dtype=complex)))


def computational_indices(space: StateSpace) -> tuple[int, int, int, int]:
    """Indices of the logical basis in the order of ``SEEDS``: |00>, |01>, |10>, |11>."""
    return tuple(space.index_of(seed) for seed in SEEDS)


@lru_cache(maxsize=None)
def _logical_block(space: StateSpace) -> tuple:
    """The ``np.ix_`` gather of the logical 4x4 block of a full matrix."""
    idx = computational_indices(space)
    return tuple(frozen(ix) for ix in np.ix_(idx, idx))


def partial_trace_atoms(rho: DensityMatrix) -> DensityMatrix:
    """Trace out both atoms, keeping the photonic occupations.

    The result lives on the sorted photonic occupations of the basis.
    Coherences between different atom configurations drop; the trace is
    preserved exactly because every basis state contributes its diagonal.
    """
    states = rho.space.states
    target = StateSpace(tuple(sorted({s.occupations for s in states})))
    reduced = np.zeros((target.dim, target.dim), dtype=complex)
    atoms = [(s.a1, s.a2) for s in states]
    # within one atom configuration the photonic occupations are distinct;
    # the configurations add into shared entries, so in a fixed order
    for config in sorted(set(atoms)):
        rows = [i for i, a in enumerate(atoms) if a == config]
        cols = [target.index_of(states[i].occupations) for i in rows]
        reduced[np.ix_(cols, cols)] += rho.matrix[np.ix_(rows, rows)]
    # no re-validation: the map is linear, so the output is exactly as valid
    # as its input (first-order stepping legitimately leaves O(dt) negativity)
    return DensityMatrix(target, reduced, check=False)
