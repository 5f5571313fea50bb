"""The C-Sign gate array: linear optics, cavity stage, and the error metric.

Pipeline (left to right): an instant balanced beamsplitter mixes the two
cavity rails, both cavities then run their nonlinear-sign stage
simultaneously for the gate duration (``lindblad.transit``: the exact
exponential when lossless, trotterized master-equation evolution with
photon leak), an optional compensating phase shifter acts on both cavity
rails at the angle ``jc.compensating_phase``, and a second beamsplitter
recombines.
The two-photon bunching of the first beamsplitter is what routes the |11>
input through the cavity nonlinearity.

The reported error is the operator-norm distance between the final state and
the ideal C-Sign output, evaluated on the full basis with the atoms still
attached (ideal output: atoms back in the ground state).  Residual
atom-photon entanglement therefore counts as a first-order error, which is
the decoherence mechanism this model is about.  A lossless run on ``p_test``
with the shifter on has the closed-form error ``jc.lossless_gate_error``, by
which calibration ranks its candidate durations.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import fock
from .dynamics import build_array_hamiltonian
from .errors import PhysicsValidationError
from .jc import PhysParams, compensating_phase
from .lindblad import StepperConfig, _check_state, leak_operators, transit
from .runio import check_input

COMPUTATIONAL_SUPPORT_TOL = 1e-9
#: most points of one Hamiltonian that run as one stack; the one bound on a batch's memory
BATCH_SLICE = 32


@dataclass(frozen=True)
class SimParams:
    """All dimensionless knobs of one gate-array run.

    The coupling g, ``PhysParams``'s default 0.1, is the unit of time and of
    leak.  ``t`` is the gate duration in units where the two-photon sector
    completes half a resonant exchange cycle per unit: T_abs = t * pi /
    (sqrt(2) g).  g enters a run only through kappa/g = (ly/g)^2 g, so the
    run at a coupling g' is the run at ly/g times sqrt(g'/g).
    """

    t: float
    delta_over_g: float = 0.0
    ly_over_g: float = 0.0
    phs: int = 1
    stepper: StepperConfig = field(default_factory=StepperConfig)

    def __post_init__(self):
        for name in ("t", "delta_over_g", "ly_over_g"):
            if not math.isfinite(getattr(self, name)):
                raise PhysicsValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.t < 0:
            raise PhysicsValidationError(f"duration t must be >= 0, got {self.t}")
        if type(self.phs) is not int or self.phs not in (0, 1):  # True and 1.0 pass `in`
            raise PhysicsValidationError(f"phs flag must be the int 0 or 1, got {self.phs!r}")
        if self.ly_over_g < 0:
            raise PhysicsValidationError(f"ly_over_g must be >= 0, got {self.ly_over_g}")
        self.phys  # checks the detuning before any point runs
        if not math.isfinite(self.total_time):
            raise PhysicsValidationError(f"duration t = {self.t} overflows the total time")
        if not math.isfinite((self.ly_over_g * PhysParams.g) * (self.ly_over_g * PhysParams.g)):
            raise PhysicsValidationError(f"ly_over_g = {self.ly_over_g} overflows the leak rate")

    @property
    def total_time(self) -> float:
        return self.t * math.pi / (math.sqrt(2.0) * PhysParams.g)

    @property
    def phys(self) -> PhysParams:
        return PhysParams(delta=self.delta_over_g * PhysParams.g)

    def as_dict(self) -> dict:
        # everything that affects the numbers, for reports and sweep manifests
        values = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "stepper"}
        return {**values, "dt_steps": self.stepper.dt_steps}


@dataclass
class GateReport:
    """Outcome of one run: the error and the diagnostics that ``to_json`` reports.

    ``propagation`` names the cavity-stage path the run took ("closed_form"
    or "stepped", or "ideal_ns" for the ideal-sign self-check) and
    ``n_steps`` counts its trotter steps (0 unless stepped).  A stepped run
    reports ``dt_steps`` steps: its numbers are those of that many
    first-order steps, even though ``lindblad.stepped`` evaluates them as a
    matrix power.  ``trace_drift`` is |tr - 1| of the state after the cavity
    stage, measured on every path, the ideal-sign one included.
    ``wall_ms`` is the run's wall time; a point of a :func:`run_batch` reports
    its share of the batch's shared input stage and of its slice's wall time.
    """

    params: SimParams
    error: float
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
            # every field after params and error, in field order
            "diagnostics": {f.name: getattr(self, f.name) for f in fields(self)[2:]},
        }, indent=indent)


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
    norm = math.sqrt(math.factorial(j) * math.factorial(k) /
                     (math.factorial(n) * math.factorial(m)))
    return sign_sum * norm / math.sqrt(2.0) ** (n + m)


@lru_cache(maxsize=None)
def beamsplitter_unitary(pair: tuple[str, str], space: fock.StateSpace) -> np.ndarray:
    """Balanced beamsplitter on a rail pair, identity on everything else.

    Photon redistribution amplitudes come from the creation-operator
    expansion; the |1,1> input bunches, with no |1,1> component left.
    """
    if sorted(pair) != ["x1", "y1"]:  # on an idle rail it bunches out of the basis
        raise PhysicsValidationError(f"invalid rail pair {pair}: the splitter acts on x1, y1")
    r1, r2 = pair
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for col, s in enumerate(space.states):
        n, m = s.rail_occupation(r1), s.rail_occupation(r2)
        for j in range(n + m + 1):
            amp = beamsplitter_amplitude(n, m, j)
            target = s.replace_rails(**{r1: j, r2: n + m - j})
            if target not in space:
                raise PhysicsValidationError(
                    f"beamsplitter image {target} escapes the state space")
            mat[space.index_of(target), col] = amp
    return fock.frozen(mat)


@lru_cache(maxsize=None)
def _rail_occupations(rail: str, space: fock.StateSpace) -> np.ndarray:
    """Photon count of one rail in each basis state."""
    if rail not in fock.RAILS:
        raise PhysicsValidationError(f"unknown rail {rail!r}")
    return fock.frozen(np.array([s.rail_occupation(rail) for s in space.states]))


@lru_cache(maxsize=None)
def _excited(space: fock.StateSpace) -> np.ndarray:
    """Mask of the basis states with an excited atom."""
    return fock.frozen(np.array([s.a1 == fock.E or s.a2 == fock.E for s in space.states]))


def phase_shifter(phi, space: fock.StateSpace) -> np.ndarray:
    """Diagonal of the shifter e^{i phi n_x1} e^{i phi n_y1} on both cavity
    rails; for an array of angles, one diagonal per angle."""
    photons = _rail_occupations("x1", space) + _rail_occupations("y1", space)
    return np.exp(1j * np.asarray(phi)[..., None] * photons)


CZ_DIAG = np.array([1.0, 1.0, 1.0, -1.0])


def ideal_csign(rho_in: np.ndarray) -> np.ndarray:
    """Ideal C-Sign on a 4x4 density matrix over the logical basis 00,01,10,11."""
    rho_in = np.asarray(rho_in, dtype=complex)
    if rho_in.shape != (4, 4):
        raise PhysicsValidationError(f"expected a 4x4 logical matrix, got {rho_in.shape}")
    return (CZ_DIAG[:, None] * rho_in) * CZ_DIAG[None, :]


@lru_cache(maxsize=None)
def p_test(space: fock.StateSpace) -> fock.DensityMatrix:
    """Uniform-superposition probe: the rank-1 projector with all logical
    matrix entries 1/4, so every interference path of the array is active."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[fock._logical_block(space)] = 0.25
    return fock.DensityMatrix(space, mat)


def random_valid_input(space: fock.StateSpace, rng: np.random.Generator,
                       mixed: bool = False) -> fock.DensityMatrix:
    """Random two-photon input on the logical subspace (atoms in g), seedable."""
    if mixed:
        gmat = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        block = gmat @ gmat.conj().T
        block /= block.trace().real
    else:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        block = np.outer(psi, psi.conj())
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[fock._logical_block(space)] = block
    return fock.DensityMatrix(space, mat)


def input_state(selector: str, seed: int, space: fock.StateSpace) -> fock.DensityMatrix:
    """The run input: the ``p_test`` projector, or a ``random`` valid input from ``seed``."""
    check_input(selector, seed)
    if selector == "p_test":
        return p_test(space)
    return random_valid_input(space, np.random.default_rng(seed))


def error_rate(rho_expected: np.ndarray, rho_result: np.ndarray):
    """Largest absolute eigenvalue of the Hermitian difference of two matrices.

    For a stack ``rho_result`` of shape (n, d, d) it is an array of n errors,
    one per matrix against ``rho_expected``.
    """
    if rho_expected.shape != rho_result.shape[-2:]:
        raise PhysicsValidationError(
            f"dimension mismatch {rho_expected.shape} vs {rho_result.shape}")
    diff = rho_expected - rho_result
    diff_dag = diff.conj().swapaxes(-1, -2)
    herm = np.abs(diff - diff_dag).max()
    if herm > 1e-9:
        raise PhysicsValidationError(f"difference non-Hermitian by {herm:.3e}")
    diff += diff_dag  # in place: a batch holds a few of these stacks at once
    diff *= 0.5
    errors = np.abs(np.linalg.eigvalsh(diff)).max(axis=-1)
    return float(errors) if errors.ndim == 0 else errors


def _ideal_reference(rho_in: fock.DensityMatrix, space: fock.StateSpace) -> np.ndarray:
    logical = fock._logical_block(space)
    block = rho_in.matrix[logical]
    support = rho_in.trace - float(block.trace().real)
    if abs(support) > COMPUTATIONAL_SUPPORT_TOL:
        raise PhysicsValidationError(
            f"input has weight {support:.3e} outside the logical subspace")
    out = np.zeros((space.dim, space.dim), dtype=complex)
    out[logical] = ideal_csign(block)
    return out


def run_array(rho_in: fock.DensityMatrix, params: SimParams,
              space: fock.StateSpace, use_ideal_ns: bool = False) -> GateReport:
    """Run the full array on a valid two-photon input and score it.

    The one-point case of :func:`run_batch`: the point's exception is raised.
    """
    outcome = run_batch(rho_in, [params], space, use_ideal_ns)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_batch(rho_in: fock.DensityMatrix, params_seq: Sequence[SimParams],
              space: fock.StateSpace, use_ideal_ns: bool = False) -> list:
    """Run the full array on one input at each point of ``params_seq``.

    Returns one outcome per point, in order: its :class:`GateReport`, or the
    exception that the point raised.  The ideal reference and the first
    splitter run once.  The points are grouped by Hamiltonian and step
    count, that is by ``(delta_over_g, dt_steps)``, in slices of at most
    ``BATCH_SLICE``, the one bound on a stack, lossless or leaky.  Each slice
    runs as stacked calls: one ``lindblad.transit``, which names each point's
    path and step count, one state check, then the shifter, the second
    splitter and the scoring over the whole slice.  A slice whose stacked
    stage raises reruns one point at a time, so a failing point fails alone,
    with the exception it raises when run alone.

    The cavity stage runs in the frame rotating at the cavity frequency,
    which is exact here: the total excitation N commutes with H and each
    L^dag L, and [N, L] = -L.  ``use_ideal_ns`` replaces the cavity stage with
    the ideal nonlinear sign map on both cavity rails (no atoms touched),
    which reduces the pipeline to the exact C-Sign and is used as a
    structural self-check.
    """
    started = time.perf_counter()
    params_seq = list(params_seq)
    try:
        if rho_in.space is not space and rho_in.space != space:
            raise PhysicsValidationError("input state lives on a different state space")
        ideal_full = _ideal_reference(rho_in, space)
        bs = beamsplitter_unitary(("x1", "y1"), space)
        stage_in = bs @ rho_in.matrix @ bs.conj().T
    except Exception as exc:
        return [exc] * len(params_seq)
    shared_ms = (time.perf_counter() - started) * 1e3 / max(1, len(params_seq))

    slices = {}  # delta_over_g fixes the Hamiltonian; one step count per slice
    for k, params in enumerate(params_seq):
        slices.setdefault((params.delta_over_g, params.stepper.dt_steps), []).append(k)
    outcomes = [None] * len(params_seq)
    for ks in slices.values():
        for start in range(0, len(ks), BATCH_SLICE):
            part = ks[start:start + BATCH_SLICE]
            reports = _run_slice(stage_in, ideal_full, [params_seq[k] for k in part],
                                 space, use_ideal_ns, shared_ms)
            for k, outcome in zip(part, reports):
                outcomes[k] = outcome
    return outcomes


def _run_slice(stage_in, ideal_full, params_seq, space, use_ideal_ns, shared_ms) -> list:
    """Outcomes of one slice of points that share a Hamiltonian and a step
    count; see :func:`run_batch`."""
    started = time.perf_counter()
    n = len(params_seq)
    try:
        if use_ideal_ns:
            # the ideal sign on both cavity rails, occupations (0, 1, 2) -> (1, 1, -1)
            ns = np.where(_rail_occupations("x1", space) == 2, -1.0, 1.0)
            ns *= np.where(_rail_occupations("y1", space) == 2, -1.0, 1.0)
            mats = np.repeat((ns[:, None] * stage_in * ns[None, :])[None], n, axis=0)
            phi, steps, paths = np.zeros(n), [0] * n, ["ideal_ns"] * n
        else:
            phys = params_seq[0].phys
            lys = [p.ly_over_g * phys.g for p in params_seq]
            phi = np.array([compensating_phase(phys, p.total_time) if p.phs else 0.0
                            for p in params_seq])
            h = build_array_hamiltonian(space, phys, frame="rotating")
            mats, steps, paths = transit(stage_in, h, leak_operators(space), lys,
                                         [p.total_time for p in params_seq],
                                         params_seq[0].stepper)
        drift = _check_state(mats, max(steps))
        shift = phase_shifter(phi, space)  # the identity at angle 0: phs 0, or the ideal sign
        mats = shift[:, :, None] * mats * shift.conj()[:, None, :]
        bs = beamsplitter_unitary(("x1", "y1"), space)
        mats = bs @ mats @ bs.conj().T
        errors = error_rate(ideal_full, mats)
        # summed one row at a time: numpy's stacked sum adds in another order
        excited = mats.diagonal(axis1=-2, axis2=-1)[:, _excited(space)]
        residual = [row.sum().real for row in excited]
    except Exception as exc:
        if n == 1:
            return [exc]
        return [_run_slice(stage_in, ideal_full, [params], space, use_ideal_ns, shared_ms)[0]
                for params in params_seq]
    wall_ms = shared_ms + (time.perf_counter() - started) * 1e3 / n
    return [GateReport(params=params, error=float(errors[k]), trace_drift=float(drift[k]),
                       atom_residual=float(residual[k]), phase_shift=float(phi[k]),
                       dim=space.dim, wall_ms=wall_ms, propagation=paths[k],
                       n_steps=steps[k])
            for k, params in enumerate(params_seq)]
