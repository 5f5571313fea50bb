"""First-order trotterized master-equation stepper with photon-leak jumps.

One step conjugates the density matrix with the exact unitary of the step
interval and then adds the dissipator at first order:

    rho'  =  U rho U^dag  +  dt * sum_i ( L_i rho L_i^dag
                                          - (L_i^dag L_i rho + rho L_i^dag L_i) / 2 )

The unitary factor is exact (spectral exponential), so with no jump channels
the scheme has no time-step error at all; the dissipator makes it first order
in dt.  A leaky run of duration T takes exactly ``dt_steps`` steps of
dt = T / dt_steps.  Jump prefactors (the leak coefficient) are folded into
the L matrices.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import fock
from .errors import DiagnosticError, PhysicsValidationError


@dataclass(frozen=True)
class LindbladChannel:
    """One jump operator over the state space, prefactor already applied."""

    matrix: np.ndarray
    label: str = ""

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def leak_channels(space: fock.StateSpace, ly: float) -> list[LindbladChannel]:
    """Photon-leak jumps from both cavity rails, L = ly * a_rail."""
    if ly < 0:
        raise PhysicsValidationError(f"leak coefficient must be >= 0, got {ly}")
    if ly == 0:
        return []
    return [
        LindbladChannel(ly * fock.annihilation_matrix("x1", space), "leak-cavity-A"),
        LindbladChannel(ly * fock.annihilation_matrix("y1", space), "leak-cavity-B"),
    ]


@dataclass(frozen=True)
class StepperConfig:
    """Step count and diagnostic policy of the trotterized evolution.

    A run of duration T takes exactly ``dt_steps`` steps of dt = T / dt_steps.
    """

    dt_steps: int = 20000
    trace_tol: float = 1e-3
    frame: str = "rotating"

    def __post_init__(self):
        if self.dt_steps < 1:
            raise PhysicsValidationError(f"dt_steps must be >= 1, got {self.dt_steps}")
        if self.frame not in ("rotating", "lab"):
            raise PhysicsValidationError(f"unknown frame {self.frame!r}")


@dataclass
class EvolveResult:
    rho: fock.DensityMatrix
    n_steps: int
    trace_drift: float
    min_eigenvalue: float


NON_HERMITIAN_LIMIT = 1e-9
POSITIVITY_LIMIT = -0.1  # genuine runs sit at round-off; blowups are O(1) negative


def unitary_step_matrix(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) through the spectral decomposition of the Hermitian H."""
    h = np.asarray(h)
    herm = np.max(np.abs(h - h.conj().T))
    if herm > NON_HERMITIAN_LIMIT:
        raise PhysicsValidationError(f"generator non-Hermitian by {herm:.3e}")
    evals, evecs = np.linalg.eigh(h)
    return (evecs * np.exp(-1j * dt * evals)) @ evecs.conj().T


def _pack_channels(channels: Sequence[LindbladChannel], dim: int):
    if channels:
        jumps = np.stack([np.asarray(c.matrix, dtype=complex) for c in channels])
    else:
        jumps = np.zeros((0, dim, dim), dtype=complex)
    jumps_dag = jumps.conj().transpose(0, 2, 1)
    half_m = 0.5 * np.einsum("kij,kjl->il", jumps_dag, jumps)
    return jumps, np.ascontiguousarray(jumps_dag), half_m


def _check_state(rho: np.ndarray, trace_tol: float, where: str):
    if not np.all(np.isfinite(rho)):
        raise DiagnosticError(f"non-finite density matrix entries {where}")
    drift = abs(rho.trace().real - 1.0)
    if drift > trace_tol:
        raise DiagnosticError(
            f"trace drift {drift:.3e} exceeds {trace_tol:.1e} {where}; "
            "the step size is too large"
        )
    lo = float(np.linalg.eigvalsh(rho)[0])
    if lo < POSITIVITY_LIMIT:
        raise DiagnosticError(
            f"eigenvalue {lo:.3e} below {POSITIVITY_LIMIT} {where}; "
            "the step size is too large"
        )
    return drift, lo


def _step_loop(rho, u, udag, jumps, jumps_dag, half_m, dt, n_steps):
    """Apply ``n_steps`` updates: unitary conjugation, then the dissipator."""
    for _ in range(n_steps):
        rho = u @ rho @ udag
        if jumps.shape[0]:
            acc = np.zeros_like(rho)
            for k in range(jumps.shape[0]):
                acc += jumps[k] @ rho @ jumps_dag[k]
            rho = rho + dt * (acc - (half_m @ rho + rho @ half_m))
    return rho


def evolve(rho: fock.DensityMatrix, h: np.ndarray,
           channels: Sequence[LindbladChannel], total_time: float,
           cfg: StepperConfig = StepperConfig()) -> EvolveResult:
    """Step the density matrix for ``total_time`` under H and the jump channels.

    Runs exactly ``cfg.dt_steps`` updates of dt = T / dt_steps, then checks
    the state once: a trace drift beyond ``cfg.trace_tol``, a clearly
    negative eigenvalue or a non-finite entry raises
    :class:`DiagnosticError`.
    """
    if total_time < 0:
        raise PhysicsValidationError(f"total_time must be >= 0, got {total_time}")
    space = rho.space
    mat = np.array(rho.matrix, dtype=complex)
    if total_time == 0:
        return EvolveResult(rho, 0, abs(mat.trace().real - 1.0),
                            float(np.linalg.eigvalsh(mat)[0]))

    dt = total_time / cfg.dt_steps
    norm = float(np.linalg.norm(np.asarray(h), 2))
    if dt * norm > 0.1:
        warnings.warn(
            f"step phase dt*||H|| = {dt * norm:.3g} rad exceeds 0.1; "
            "consider more dt_steps or the rotating frame",
            RuntimeWarning, stacklevel=2)

    jumps, jumps_dag, half_m = _pack_channels(channels, space.dim)
    u = unitary_step_matrix(h, dt)
    mat = _step_loop(mat, u, np.ascontiguousarray(u.conj().T), jumps, jumps_dag,
                     half_m, dt, cfg.dt_steps)
    drift, lo = _check_state(mat, cfg.trace_tol, f"after {cfg.dt_steps} steps")
    mat = 0.5 * (mat + mat.conj().T)  # shed round-off asymmetry before wrapping
    out = fock.DensityMatrix(space, mat, check=False)
    return EvolveResult(out, cfg.dt_steps, drift, lo)
