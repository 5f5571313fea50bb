"""Reachable Fock basis of the four-rail, two-atom gate array.

The array carries two dual-rail photonic qubits on rails ``x1, x2, y1, y2``
plus one two-level atom per optical cavity (atom 1 in the ``x1`` cavity,
atom 2 in the ``y1`` cavity).  At most two excitations are ever present, so
the physically reachable state space is small; this module enumerates it by
explicit closure of the valid computational inputs under the gates of the
pipeline and provides the ladder operators as dense matrices over that basis.

Basis ordering is lexicographic on ``(n_x1, n_x2, n_y1, n_y2, a1, a2)`` so
that serialized matrices are reproducible run to run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
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
NORM_TOL = 1e-12
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
            # Per-cavity excitation never exceeds one for valid pipeline inputs,
            # so both atoms excited at once is unreachable.
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

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (self.n_x1, self.n_x2, self.n_y1, self.n_y2, self.a1, self.a2)

    def replace_rails(self, **updates: int) -> "BasisState":
        values = dict(zip(RAILS, self.occupations))
        for rail, n in updates.items():
            if rail not in values:
                raise ValueError(f"unknown rail {rail!r}")
            values[rail] = n
        return BasisState(values["x1"], values["x2"], values["y1"], values["y2"], self.a1, self.a2)

    def replace_rail(self, rail: str, n: int) -> "BasisState":
        return self.replace_rails(**{rail: n})

    def replace_atom(self, atom: str, level: int) -> "BasisState":
        if atom == "a1":
            return BasisState(*self.occupations, level, self.a2)
        if atom == "a2":
            return BasisState(*self.occupations, self.a1, level)
        raise ValueError(f"unknown atom {atom!r}")

    def rail_occupation(self, rail: str) -> int:
        return self.occupations[RAILS.index(rail)]

    def atom_level(self, atom: str) -> int:
        return self.a1 if atom == "a1" else self.a2

    def __str__(self) -> str:
        ge = {G: "g", E: "e"}
        return "|{} {} {} {};{}{}>".format(*self.occupations, ge[self.a1], ge[self.a2])


@dataclass(frozen=True)
class StateSpace:
    """Ordered reachable basis with a bidirectional index map."""

    states: tuple[BasisState, ...]

    def __post_init__(self):
        if list(self.states) != sorted(self.states):
            raise PhysicsValidationError("StateSpace states must be lexicographically sorted")
        if len(set(self.states)) != len(self.states):
            raise PhysicsValidationError("StateSpace states must be unique")

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: BasisState) -> int:
        return _index_map(self)[state]

    def __contains__(self, state: BasisState) -> bool:
        return state in _index_map(self)


@dataclass(frozen=True)
class PhotonSpace:
    """Photonic occupations only, the target basis of the atom partial trace."""

    states: tuple[tuple[int, int, int, int], ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, occupations: tuple[int, int, int, int]) -> int:
        return _photon_index_map(self)[occupations]


@lru_cache(maxsize=None)
def _index_map(space: StateSpace) -> dict:
    return {s: i for i, s in enumerate(space.states)}


@lru_cache(maxsize=None)
def _photon_index_map(space: PhotonSpace) -> dict:
    return {s: i for i, s in enumerate(space.states)}


class PureState:
    """Unit-norm complex amplitude vector over a state space."""

    def __init__(self, space, vector: np.ndarray):
        vector = np.asarray(vector, dtype=complex)
        if vector.shape != (space.dim,):
            raise PhysicsValidationError(f"vector shape {vector.shape} != ({space.dim},)")
        norm = np.linalg.norm(vector)
        if abs(norm - 1.0) > NORM_TOL:
            raise PhysicsValidationError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        self.space = space
        self.vector = vector
        self.vector.flags.writeable = False

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.space, np.outer(self.vector, self.vector.conj()))


class DensityMatrix:
    """Hermitian, positive, trace <= 1 complex matrix over a state space."""

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
            if not (0.0 < tr <= 1.0 + TRACE_TOL):
                raise PhysicsValidationError(f"trace {tr} outside (0, 1]")
            lo = np.linalg.eigvalsh(matrix)[0]
            if lo < EIGENVALUE_FLOOR:
                raise PhysicsValidationError(f"negative eigenvalue {lo:.3e}")
        self.space = space
        self.matrix = matrix
        self.matrix.flags.writeable = False

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)


# ---------------------------------------------------------------------------
# Beamsplitter combinatorics (used here only for reachability; the dense
# unitary lives in the circuit module).
# ---------------------------------------------------------------------------

def beamsplitter_amplitude(n: int, m: int, j: int) -> float:
    """Amplitude <j, n+m-j | B | n, m> of the balanced beamsplitter.

    B maps a1+ -> (a1+ + a2+)/sqrt(2) and a2+ -> (a1+ - a2+)/sqrt(2); the
    amplitude follows from binomial expansion of the transformed creation
    monomial.  The integer sign sum makes structural zeros (photon bunching
    on the |1,1> input) exact rather than a float cancellation.
    """
    k = n + m - j
    if j < 0 or k < 0:
        return 0.0
    sign_sum = 0
    for p in range(max(0, j - m), min(n, j) + 1):
        sign_sum += (-1) ** (m - j + p) * math.comb(n, p) * math.comb(m, j - p)
    if sign_sum == 0:
        return 0.0
    norm = math.sqrt(math.factorial(j) * math.factorial(k) /
                     (math.factorial(n) * math.factorial(m)))
    return sign_sum * norm / math.sqrt(2.0) ** (n + m)


def _bs_images(state: BasisState) -> list[BasisState]:
    """Nonzero-amplitude images of the (x1, y1) beamsplitter."""
    n, m = state.n_x1, state.n_y1
    out = []
    for j in range(n + m + 1):
        if beamsplitter_amplitude(n, m, j) != 0.0:
            out.append(state.replace_rails(x1=j, y1=n + m - j))
    return out


def _jc_images(state: BasisState) -> list[BasisState]:
    """States coupled by the atom-field exchange in either cavity."""
    out = []
    for rail, atom in (("x1", "a1"), ("y1", "a2")):
        n = state.rail_occupation(rail)
        a = state.atom_level(atom)
        if n > 0 and a == G:
            out.append(state.replace_rail(rail, n - 1).replace_atom(atom, E))
        if a == E:
            # lower the atom before raising the rail so the intermediate
            # object never exceeds the excitation cap
            out.append(state.replace_atom(atom, G).replace_rail(rail, n + 1))
    return out


def _leak_images(state: BasisState) -> list[BasisState]:
    """States reached when a cavity rail loses one photon."""
    out = []
    for rail in ("x1", "y1"):
        n = state.rail_occupation(rail)
        if n > 0:
            out.append(state.replace_rail(rail, n - 1))
    return out


def computational_seed(qx: int, qy: int) -> BasisState:
    """Dual-rail encoding: logical 1 puts the photon on rail 1 of the pair."""
    if qx not in (0, 1) or qy not in (0, 1):
        raise PhysicsValidationError(f"logical bits must be 0/1, got ({qx}, {qy})")
    return BasisState(qx, 1 - qx, qy, 1 - qy, G, G)


SEEDS = tuple(computational_seed(qx, qy) for qx, qy in ((0, 0), (0, 1), (1, 0), (1, 1)))


def _closure(frontier: set[BasisState], image_fns) -> set[BasisState]:
    reached = set(frontier)
    queue = list(frontier)
    while queue:
        state = queue.pop()
        for fn in image_fns:
            for nxt in fn(state):
                if nxt not in reached:
                    reached.add(nxt)
                    queue.append(nxt)
    return reached


def enumerate_states() -> StateSpace:
    """Enumerate the basis reachable from the four computational inputs.

    The closure follows the pipeline stages: the beamsplitter acts before and
    after the cavity stage, while the atom-field exchange and the photon-leak
    jumps act only in between.  Staging matters: the exchange conserves the
    per-cavity excitation, and since the input-side beamsplitter never leaves
    a photon in both cavity rails at once (exact bunching on the |1,1| rail
    pair), no branch ever excites both atoms.  An order-free closure would
    spuriously include that doubly-excited configuration.

    The computed dimension (23) is logged.
    """
    post_bs1 = {img for s in SEEDS for img in _bs_images(s)}
    cavity_stage = _closure(post_bs1, (_jc_images, _leak_images))
    post_bs2 = {img for s in cavity_stage for img in _bs_images(s)}
    space = StateSpace(tuple(sorted(set(SEEDS) | post_bs1 | cavity_stage | post_bs2)))
    logger.info("enumerated state space: dimension %d", space.dim)
    return space


@lru_cache(maxsize=None)
def default_state_space() -> StateSpace:
    """The full-generator reachable basis, shared by the circuit pipeline."""
    return enumerate_states()


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def _frozen(mat: np.ndarray) -> np.ndarray:
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
            target = s.replace_rail(rail, n - 1)
            if target in space:
                mat[space.index_of(target), i] = math.sqrt(n)
    return _frozen(mat)


@lru_cache(maxsize=None)
def atom_lowering_matrix(atom: str, space: StateSpace) -> np.ndarray:
    """Relaxation e -> g on one atom with unit amplitude; annihilates g."""
    if atom not in ATOMS:
        raise PhysicsValidationError(f"unknown atom {atom!r}")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for i, s in enumerate(space.states):
        if s.atom_level(atom) == E:
            target = s.replace_atom(atom, G)
            if target in space:
                mat[space.index_of(target), i] = 1.0
    return _frozen(mat)


def atom_raising_matrix(atom: str, space: StateSpace) -> np.ndarray:
    return _frozen(atom_lowering_matrix(atom, space).conj().T)


@lru_cache(maxsize=None)
def number_matrix(rail: str, space: StateSpace) -> np.ndarray:
    """Diagonal photon-number operator of one rail."""
    if rail not in RAILS:
        raise PhysicsValidationError(f"unknown rail {rail!r}")
    diag = [s.rail_occupation(rail) for s in space.states]
    return _frozen(np.diag(np.asarray(diag, dtype=complex)))


@lru_cache(maxsize=None)
def atom_projector_matrix(atom: str, space: StateSpace) -> np.ndarray:
    """Diagonal projector onto the excited level of one atom."""
    if atom not in ATOMS:
        raise PhysicsValidationError(f"unknown atom {atom!r}")
    diag = [float(s.atom_level(atom) == E) for s in space.states]
    return _frozen(np.diag(np.asarray(diag, dtype=complex)))


@lru_cache(maxsize=None)
def total_excitation_matrix(space: StateSpace) -> np.ndarray:
    """Diagonal total-excitation operator (photons plus excited atoms)."""
    diag = [s.total_excitation for s in space.states]
    return _frozen(np.diag(np.asarray(diag, dtype=complex)))


def computational_indices(space: StateSpace) -> tuple[int, int, int, int]:
    """Indices of the logical basis in the fixed order |00>, |01>, |10>, |11>."""
    return tuple(space.index_of(computational_seed(qx, qy))
                 for qx, qy in ((0, 0), (0, 1), (1, 0), (1, 1)))


@lru_cache(maxsize=None)
def photon_space(space: StateSpace) -> PhotonSpace:
    """Distinct photonic occupations appearing in the basis, sorted."""
    return PhotonSpace(tuple(sorted({s.occupations for s in space.states})))


def partial_trace_atoms(rho: DensityMatrix) -> DensityMatrix:
    """Trace out both atoms, keeping the photonic occupations.

    Coherences between different atom configurations drop; the trace is
    preserved exactly because every basis state contributes its diagonal.
    """
    space = rho.space
    target = photon_space(space)
    reduced = np.zeros((target.dim, target.dim), dtype=complex)
    atom_configs = sorted({(s.a1, s.a2) for s in space.states})
    for a1, a2 in atom_configs:
        rows = [(i, target.index_of(s.occupations))
                for i, s in enumerate(space.states) if (s.a1, s.a2) == (a1, a2)]
        for i, pi in rows:
            for j, pj in rows:
                reduced[pi, pj] += rho.matrix[i, j]
    # no re-validation: the map is linear, so the output is exactly as valid
    # as its input (first-order stepping legitimately leaves O(dt) negativity)
    return DensityMatrix(target, reduced, check=False)
