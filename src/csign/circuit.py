"""The C-Sign gate array: linear optics, cavity stage, and the error metric.

Pipeline (left to right): an instant balanced beamsplitter mixes the two
cavity rails, both cavities then run their nonlinear-sign stage
simultaneously for the gate duration (one exact unitary when lossless,
trotterized master-equation evolution with photon leak), an
optional compensating phase shifter acts on both cavity rails, and a second
beamsplitter recombines.  The two-photon bunching of the first
beamsplitter is what routes the |11> input through the cavity nonlinearity.

The reported error is the operator-norm distance between the final state and
the ideal C-Sign output, evaluated on the full basis with the atoms still
attached (ideal output: atoms back in the ground state).  Residual
atom-photon entanglement therefore counts as a first-order error, which is
the decoherence mechanism this model is about.  The photonic reduced state
is returned alongside.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache

import numpy as np

from . import fock
from .dynamics import PhysParams, build_array_hamiltonian, jc_return_amplitude
from .errors import PhysicsValidationError
from .lindblad import (EvolveResult, StepperConfig, _check_state, evolve,
                       leak_channels, unitary_step_matrix)

COMPUTATIONAL_SUPPORT_TOL = 1e-9


@dataclass(frozen=True)
class SimParams:
    """All dimensionless knobs of one gate-array run.

    ``t`` is the gate duration in units where the two-photon sector completes
    half a resonant exchange cycle per unit: T_abs = t * pi / (sqrt(2) g).
    """

    t: float
    delta_over_g: float = 0.0
    ly_over_g: float = 0.0
    phs: int = 1
    g: float = 0.1
    stepper: StepperConfig = field(default_factory=StepperConfig)

    def __post_init__(self):
        if self.t < 0:
            raise PhysicsValidationError(f"duration t must be >= 0, got {self.t}")
        if self.phs not in (0, 1):
            raise PhysicsValidationError(f"phs flag must be 0 or 1, got {self.phs}")
        if self.ly_over_g < 0:
            raise PhysicsValidationError(f"ly_over_g must be >= 0, got {self.ly_over_g}")
        if self.g <= 0:
            raise PhysicsValidationError(f"coupling g must be positive, got {self.g}")

    @property
    def total_time(self) -> float:
        return self.t * math.pi / (math.sqrt(2.0) * self.g)

    @property
    def phys(self) -> PhysParams:
        return PhysParams(g=self.g, delta=self.delta_over_g * self.g)

    def as_dict(self) -> dict:
        # everything that affects the numbers, for reports and sweep manifests
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "stepper"}
        return {**values, "dt_steps": self.stepper.dt_steps, "frame": self.stepper.frame}


@dataclass
class GateReport:
    """Outcome of one run: photonic output, error, and diagnostics.

    ``propagation`` names the cavity-stage scheme ("closed_form", "stepped",
    or "ideal_ns" for the ideal-sign self-check) and ``n_steps`` counts its
    trotter steps (0 unless stepped).  A stepped run reports ``dt_steps``
    steps: its numbers are those of that many first-order steps, even though
    ``lindblad.evolve`` evaluates them as a matrix power.
    """

    params: SimParams
    error: float
    rho_out: fock.DensityMatrix
    trace_drift: float
    atom_residual: float
    phase_shift: float
    dim: int
    wall_ms: float
    propagation: str
    n_steps: int

    def to_json(self, indent=None) -> str:
        return json.dumps({
            "params": self.params.as_dict(),
            "error": self.error,
            "diagnostics": {
                "trace_drift": self.trace_drift,
                "atom_residual": self.atom_residual,
                "phase_shift": self.phase_shift,
                "dim": self.dim,
                "wall_ms": self.wall_ms,
                "propagation": self.propagation,
                "n_steps": self.n_steps,
            },
        }, indent=indent)


@lru_cache(maxsize=None)
def beamsplitter_unitary(pair: tuple[str, str], space: fock.StateSpace) -> np.ndarray:
    """Balanced beamsplitter on a rail pair, identity on everything else.

    Photon redistribution amplitudes come from the creation-operator
    expansion; the |1,1> input bunches, with no |1,1> component left.
    """
    r1, r2 = pair
    if r1 not in fock.RAILS or r2 not in fock.RAILS or r1 == r2:
        raise PhysicsValidationError(f"invalid rail pair {pair}")
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for col, s in enumerate(space.states):
        n, m = s.rail_occupation(r1), s.rail_occupation(r2)
        for j in range(n + m + 1):
            amp = fock.beamsplitter_amplitude(n, m, j)
            if amp == 0.0:
                continue
            target = s.replace_rails(**{r1: j, r2: n + m - j})
            if target not in space:
                raise PhysicsValidationError(
                    f"beamsplitter image {target} escapes the state space")
            mat[space.index_of(target), col] = amp
    mat.flags.writeable = False
    return mat


def phase_shifter_unitary(rail: str, phi: float, space: fock.StateSpace) -> np.ndarray:
    """Diagonal phase e^{i n phi} on one rail's occupation."""
    if rail not in fock.RAILS:
        raise PhysicsValidationError(f"unknown rail {rail!r}")
    diag = np.array([np.exp(1j * phi * s.rail_occupation(rail)) for s in space.states])
    mat = np.diag(diag)
    mat.flags.writeable = False
    return mat


@lru_cache(maxsize=None)
def ideal_ns_map(rail: str, space: fock.StateSpace) -> np.ndarray:
    """Ideal nonlinear sign on one rail: occupations (0, 1, 2) -> (1, 1, -1)."""
    if rail not in fock.RAILS:
        raise PhysicsValidationError(f"unknown rail {rail!r}")
    diag = np.array([(-1.0 + 0j) ** (s.rail_occupation(rail) == 2)
                     for s in space.states])
    mat = np.diag(diag)
    mat.flags.writeable = False
    return mat


CZ_DIAG = np.array([1.0, 1.0, 1.0, -1.0])


def ideal_csign(rho_in: np.ndarray) -> np.ndarray:
    """Ideal C-Sign on a 4x4 density matrix over the logical basis 00,01,10,11."""
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (4, 4):
        raise PhysicsValidationError(f"expected a 4x4 logical matrix, got {rho_in.shape}")
    return (CZ_DIAG[:, None] * rho_in) * CZ_DIAG[None, :]


def p_test(space: fock.StateSpace) -> fock.DensityMatrix:
    """Uniform-superposition probe: the rank-1 projector with all logical
    matrix entries 1/4, so every interference path of the array is active."""
    vec = np.zeros(space.dim, dtype=complex)
    for idx in fock.computational_indices(space):
        vec[idx] = 0.5
    return fock.PureState(space, vec).density_matrix()


def random_valid_input(space: fock.StateSpace, rng: np.random.Generator,
                       mixed: bool = False) -> fock.DensityMatrix:
    """Random two-photon input on the logical subspace (atoms in g), seedable."""
    idx = fock.computational_indices(space)
    if mixed:
        gmat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        block = gmat @ gmat.conj().T
        block /= block.trace().real
    else:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        block = np.outer(psi, psi.conj())
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[np.ix_(idx, idx)] = block
    return fock.DensityMatrix(space, mat)


def error_rate(rho_expected, rho_result) -> float:
    """Largest absolute eigenvalue of the Hermitian difference."""
    a = rho_expected.matrix if isinstance(rho_expected, fock.DensityMatrix) else np.asarray(rho_expected)
    b = rho_result.matrix if isinstance(rho_result, fock.DensityMatrix) else np.asarray(rho_result)
    if a.shape != b.shape:
        raise PhysicsValidationError(f"dimension mismatch {a.shape} vs {b.shape}")
    diff = a - b
    herm = np.max(np.abs(diff - diff.conj().T))
    if herm > 1e-9:
        raise PhysicsValidationError(f"difference non-Hermitian by {herm:.3e}")
    diff = 0.5 * (diff + diff.conj().T)
    return float(np.max(np.abs(np.linalg.eigvalsh(diff))))


def compensating_phase(params: SimParams) -> float:
    """Phase-shifter angle cancelling the one-photon phase of the cavity transit.

    The single-photon component returns with amplitude u1 after the gate
    duration; the shifter applies e^{i n phi} with phi = -arg(u1), so the
    one-photon sector comes back exactly in phase and the two-photon sector
    is shifted by 2*phi.
    """
    u1 = jc_return_amplitude(1, params.phys, params.total_time)
    if abs(u1) < 1e-12:
        return 0.0
    return float(-np.angle(u1))


def _ideal_reference(rho_in: fock.DensityMatrix, space: fock.StateSpace) -> np.ndarray:
    idx = fock.computational_indices(space)
    block = rho_in.matrix[np.ix_(idx, idx)]
    support = rho_in.trace - float(block.trace().real)
    if abs(support) > COMPUTATIONAL_SUPPORT_TOL:
        raise PhysicsValidationError(
            f"input has weight {support:.3e} outside the logical subspace")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[np.ix_(idx, idx)] = ideal_csign(block)
    return out


def cavity_stage(rho: fock.DensityMatrix, params: SimParams) -> tuple[EvolveResult, str]:
    """Both cavities' transit for the gate duration; returns the result and
    the propagation path taken.

    Lossless runs take one spectral exponential exp(-i H T), which is exact,
    so ``dt_steps`` has no effect on them ("closed_form").  With the photon
    leak on, the transit is ``dt_steps`` first-order trotter steps
    ("stepped"), evaluated as a matrix power by ``lindblad.evolve``.
    """
    space = rho.space
    h = build_array_hamiltonian(space, params.phys, frame=params.stepper.frame)
    channels = leak_channels(space, params.ly_over_g * params.g)
    if channels:
        return evolve(rho, h, channels, params.total_time, params.stepper), "stepped"
    u = unitary_step_matrix(h, params.total_time)
    mat = u @ rho.matrix @ u.conj().T
    drift, lo = _check_state(mat, params.stepper.trace_tol, "after the closed-form transit")
    return EvolveResult(fock.DensityMatrix(space, mat, check=False), 0, drift, lo), \
        "closed_form"


def run_array(rho_in: fock.DensityMatrix, params: SimParams,
              space: fock.StateSpace = None, use_ideal_ns: bool = False) -> GateReport:
    """Run the full array on a valid two-photon input and score it.

    ``use_ideal_ns`` replaces the cavity stage with the ideal nonlinear sign
    map on both cavity rails (no atoms touched), which reduces the pipeline
    to the exact C-Sign and is used as a structural self-check.
    """
    started = time.perf_counter()
    if space is None:
        space = fock.default_state_space()
    if rho_in.space is not space and rho_in.space != space:
        raise PhysicsValidationError("input state lives on a different state space")

    ideal_full = _ideal_reference(rho_in, space)
    bs = beamsplitter_unitary(("x1", "y1"), space)
    mat = bs @ rho_in.matrix @ bs.conj().T

    trace_drift = 0.0
    phi = 0.0
    propagation, n_steps = "ideal_ns", 0
    if use_ideal_ns:
        ns = ideal_ns_map("x1", space) @ ideal_ns_map("y1", space)
        mat = ns @ mat @ ns.conj().T
    else:
        result, propagation = cavity_stage(fock.DensityMatrix(space, mat, check=False),
                                           params)
        mat = np.array(result.rho.matrix)
        trace_drift, n_steps = result.trace_drift, result.n_steps
        if params.phs:
            phi = compensating_phase(params)
            shift = phase_shifter_unitary("x1", phi, space) @ \
                phase_shifter_unitary("y1", phi, space)
            mat = shift @ mat @ shift.conj().T

    mat = bs @ mat @ bs.conj().T

    error = error_rate(ideal_full, mat)
    excited = np.array([s.a1 == fock.E or s.a2 == fock.E for s in space.states])
    atom_residual = float(np.real(np.diag(mat)[excited].sum()))
    rho_full = fock.DensityMatrix(space, 0.5 * (mat + mat.conj().T), check=False)
    rho_out = fock.partial_trace_atoms(rho_full)
    wall_ms = (time.perf_counter() - started) * 1e3
    return GateReport(params=params, error=error, rho_out=rho_out,
                      trace_drift=trace_drift, atom_residual=atom_residual,
                      phase_shift=phi, dim=space.dim, wall_ms=wall_ms,
                      propagation=propagation, n_steps=n_steps)
