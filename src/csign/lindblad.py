"""The cavity-stage propagator: the exact exponential, or the first-order
trotterized master equation when photon-leak jumps are present.

With no jump channel the run is one spectral exponential exp(-i H T), which
is exact ("closed_form"); ``closed_form`` conjugates one input with the
exponentials of many durations as one stack.  With jumps ("stepped"), one
step conjugates the density matrix with the exact unitary of the step
interval and then adds the dissipator at first order:

    rho'  =  U rho U^dag  +  dt * sum_i ( L_i rho L_i^dag
                                          - (L_i^dag L_i rho + rho L_i^dag L_i) / 2 )

The unitary factor is exact (spectral exponential); the dissipator makes the
scheme first order in dt.  A leaky run of duration T is ``dt_steps`` steps of
dt = T / dt_steps.
Jump prefactors (the leak coefficient) are folded into the L matrices.

The step is linear and the same at every step, so the run is the
``dt_steps``-th power of the one-step map Phi on vec(rho).  Phi never mixes
certain groups of density-matrix entries ("sectors"), read off the exact zero
patterns of H, of sum L^dag L and of each jump applied to both sides, so it
is block-diagonal on vec(rho).  Each sector's small dense block is raised to
the ``dt_steps``-th power by repeated squaring: ``dt_steps`` still fixes the
numbers, but costs about 2 log2(dt_steps) small matrix products.  Every term
A X B is written as (B^T kron A) vec(X) (Havel, J. Math. Phys. 44, 534
(2003)), restricted to one sector, so the d^2 x d^2 map is never formed.

The spectrum of H (cached by H's bytes) and the sector partition (cached by
the zero patterns) are shared by every point of a sweep at one H.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, Sequence

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

    A run of duration T takes exactly ``dt_steps`` steps of dt = T / dt_steps;
    a final trace drift beyond ``trace_tol`` is a diagnostic error.
    """

    dt_steps: int = 20000
    trace_tol: ClassVar[float] = 1e-3

    def __post_init__(self):
        if self.dt_steps < 1:
            raise PhysicsValidationError(f"dt_steps must be >= 1, got {self.dt_steps}")


@dataclass
class EvolveResult:
    """The evolved state, its trace drift, and the path taken ("closed_form" or "stepped")."""

    rho: fock.DensityMatrix
    n_steps: int
    trace_drift: float
    propagation: str


NON_HERMITIAN_LIMIT = 1e-9
POSITIVITY_LIMIT = -0.1  # genuine runs sit at round-off; blowups are O(1) negative


def _spectrum(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(evals, evecs) of the Hermitian H, cached by its dtype, shape and bytes:
    the points of a duration or leak sweep share one H."""
    h = np.asarray(h)
    return _eigh(h.dtype.str, h.shape, h.tobytes())


@lru_cache(maxsize=16)
def _eigh(dtype: str, shape: tuple, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    # a non-Hermitian H raises before it is stored, so it raises on every call
    h = np.frombuffer(data, dtype=dtype).reshape(shape)
    herm = np.max(np.abs(h - h.conj().T))
    if herm > NON_HERMITIAN_LIMIT:
        raise PhysicsValidationError(f"generator non-Hermitian by {herm:.3e}")
    evals, evecs = np.linalg.eigh(h)
    return fock.frozen(evals), fock.frozen(evecs)


def unitary_step_matrix(h: np.ndarray, dt) -> np.ndarray:
    """exp(-i dt H) through the spectral decomposition of the Hermitian H;
    for an array of times, the stack of one exponential per time."""
    evals, evecs = _spectrum(h)
    phases = np.exp(-1j * np.asarray(dt)[..., None] * evals)
    return (evecs * phases[..., None, :]) @ evecs.conj().T


def closed_form(rho: np.ndarray, h: np.ndarray, times) -> tuple:
    """U rho U^dag with U = exp(-i H T) for each T of ``times``, as one stack.

    Returns the stack and the trace drift of each matrix; one that fails the
    state checks raises :class:`DiagnosticError`.
    """
    u = unitary_step_matrix(h, np.asarray(times, dtype=float))
    mats = u @ rho @ u.conj().swapaxes(-1, -2)
    return mats, _check_state(mats, "after the closed-form transit")


def _pack_channels(channels: Sequence[LindbladChannel]):
    """The jumps stacked, and half_m = sum_k L_k^dag L_k / 2."""
    jumps = np.stack([c.matrix for c in channels])
    return jumps, 0.5 * (jumps.conj().transpose(0, 2, 1) @ jumps).sum(axis=0)


def _components(links: np.ndarray) -> np.ndarray:
    """Connected-component label (0, 1, ...) of each node of a boolean adjacency."""
    n = links.shape[0]
    links = links | links.T | np.eye(n, dtype=bool)
    labels = np.arange(n)
    while True:  # each node takes the smallest label among its neighbours
        spread = np.where(links, labels, n).min(axis=1)
        if np.array_equal(spread, labels):
            return np.unique(labels, return_inverse=True)[1]
        labels = spread


def _sectors(h: np.ndarray, half_m: np.ndarray, jumps: np.ndarray):
    """The groups of entries of rho that the one-step map never mixes.

    States linked by H or by ``half_m`` form blocks; the unitary and the
    ``half_m`` terms keep an entry (i, j) inside its block pair.  A jump
    carries block pair (C, D) to (A, B) when it links C to A and D to B.
    Returns one (rows, cols) pair of index arrays per sector size, each of
    shape (sectors of that size, size).
    """
    dim = h.shape[0]
    state_block = _components((h != 0) | (half_m != 0))
    n_blocks = state_block.max() + 1
    member = np.zeros((dim, n_blocks), dtype=int)
    member[np.arange(dim), state_block] = 1
    links = np.zeros((n_blocks * n_blocks,) * 2, dtype=bool)
    for jump in jumps:
        block_links = member.T @ (jump != 0) @ member > 0
        links |= np.kron(block_links, block_links)
    sector = _components(links)[state_block[:, None] * n_blocks + state_block].ravel()
    sizes = np.bincount(sector)
    flat = np.argsort(sizes[sector] * len(sizes) + sector, kind="stable")
    groups, start = [], 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        entries = flat[start:start + size * count].reshape(count, size)
        groups.append(np.divmod(entries, dim))
        start += size * count
    return groups


def _partition(h: np.ndarray, half_m: np.ndarray, jumps: np.ndarray):
    """The mask of state pairs inside one block of H, and :func:`_sectors`.

    Both depend only on the zero patterns of H, ``half_m`` and the jumps,
    which every point of a leak sweep shares, so they are cached by those.
    """
    return _partition_of(len(h), len(jumps), (h != 0).tobytes(),
                         (half_m != 0).tobytes(), (jumps != 0).tobytes())


@lru_cache(maxsize=16)
def _partition_of(dim: int, n_jumps: int, h_nz: bytes, m_nz: bytes, jumps_nz: bytes):
    h_nz, m_nz = (np.frombuffer(nz, dtype=bool).reshape(dim, dim) for nz in (h_nz, m_nz))
    jumps_nz = np.frombuffer(jumps_nz, dtype=bool).reshape(n_jumps, dim, dim)
    h_block = _components(h_nz)
    sectors = tuple(tuple(fock.frozen(ix) for ix in pair)
                    for pair in _sectors(h_nz, m_nz, jumps_nz))
    return fock.frozen(h_block[:, None] == h_block), sectors


def _power_by_sector(rho, u, jumps, half_m, dt, n_steps, sectors):
    """``n_steps`` first-order steps as a matrix power of each sector's block of

        Phi = U (x) conj(U) - dt [(M U) (x) conj(U) + U (x) conj(M U)]
              + dt sum_k (L_k U) (x) conj(L_k U),

    where the entry of A (x) conj(B) between (a, b) and (i, j) is
    A[a, i] conj(B[b, j]).  Sectors with no nonzero input stay exactly 0.
    """
    mu = half_m @ u
    lus = jumps @ u
    out = np.zeros_like(rho)
    for rows, cols in sectors:
        vec = rho[rows, cols]
        hit = vec.any(axis=1)
        if not hit.any():
            continue
        rows, cols, vec = rows[hit], cols[hit], vec[hit]
        left = rows[:, :, None], rows[:, None, :]
        right = cols[:, :, None], cols[:, None, :]
        u_right = u[right].conj()
        step = u[left] * u_right - dt * (mu[left] * u_right + u[left] * mu[right].conj())
        for lu in lus:
            step += dt * lu[left] * lu[right].conj()
        out[rows, cols] = (np.linalg.matrix_power(step, n_steps) @ vec[..., None])[..., 0]
    return out


def _check_state(rho: np.ndarray, where: str):
    """Trace drift of ``rho``, or of each matrix of a stack; DiagnosticError
    if a matrix has a non-finite entry, a trace drift past ``trace_tol`` or an
    eigenvalue below ``POSITIVITY_LIMIT``."""
    if not np.isfinite(rho).all():
        raise DiagnosticError(f"non-finite density matrix entries {where}")
    drift = np.abs(rho.trace(axis1=-2, axis2=-1).real - 1.0)
    if drift.max() > StepperConfig.trace_tol:
        raise DiagnosticError(
            f"trace drift {drift.max():.3e} exceeds {StepperConfig.trace_tol:.1e} {where}; "
            "the step size is too large"
        )
    try:  # every eigenvalue is above the limit iff rho - limit * I is positive definite
        np.linalg.cholesky(rho - POSITIVITY_LIMIT * np.eye(rho.shape[-1]))
    except np.linalg.LinAlgError:  # an eigenvalue is below the limit, or at it
        lo = np.linalg.eigvalsh(rho)[..., 0].min()
        if lo < POSITIVITY_LIMIT:
            raise DiagnosticError(
                f"eigenvalue {lo:.3e} below {POSITIVITY_LIMIT} {where}; "
                "the step size is too large"
            ) from None
    return drift


def evolve(rho: fock.DensityMatrix, h: np.ndarray,
           channels: Sequence[LindbladChannel], total_time: float,
           cfg: StepperConfig = StepperConfig()) -> EvolveResult:
    """Evolve the density matrix for ``total_time`` under H and the jump channels.

    With no jump channel the result is U rho U^dag with U = exp(-i H T), exact,
    so ``dt_steps`` has no effect ("closed_form", no steps).  With jumps it is
    that of exactly ``cfg.dt_steps`` first-order steps of dt = T / dt_steps
    ("stepped"), evaluated as the ``dt_steps``-th power of the one-step map on
    each sector of vec(rho) that the input touches (about 2 log2(dt_steps)
    small matrix products per sector).  The state is then checked once: a
    trace drift beyond ``StepperConfig.trace_tol``, a clearly negative
    eigenvalue or a non-finite entry raises :class:`DiagnosticError`.
    """
    if total_time < 0:
        raise PhysicsValidationError(f"total_time must be >= 0, got {total_time}")
    space = rho.space
    propagation = "stepped" if channels else "closed_form"
    if total_time == 0:
        return EvolveResult(rho, 0, abs(rho.matrix.trace().real - 1.0), propagation)
    h = np.asarray(h)
    if not channels:
        mats, drift = closed_form(rho.matrix, h, [total_time])
        return EvolveResult(fock.DensityMatrix(space, mats[0], check=False), 0,
                            float(drift[0]), propagation)

    dt = total_time / cfg.dt_steps
    norm = float(np.max(np.abs(_spectrum(h)[0])))  # ||H|| of a Hermitian H
    if dt * norm > 0.1:
        warnings.warn(
            f"step phase dt*||H|| = {dt * norm:.3g} rad exceeds 0.1; "
            "consider more dt_steps or the rotating frame",
            RuntimeWarning, stacklevel=2)

    jumps, half_m = _pack_channels(channels)
    same_block, sectors = _partition(h, half_m, jumps)
    # U is exactly block-diagonal on H's blocks; drop eigh's round-off outside
    u = np.where(same_block, unitary_step_matrix(h, dt), 0)
    mat = _power_by_sector(rho.matrix, u, jumps, half_m, dt, cfg.dt_steps, sectors)
    drift = _check_state(mat, f"after {cfg.dt_steps} steps")
    mat = 0.5 * (mat + mat.conj().T)  # shed round-off asymmetry before wrapping
    out = fock.DensityMatrix(space, mat, check=False)
    return EvolveResult(out, cfg.dt_steps, float(drift), propagation)
