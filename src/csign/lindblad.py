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
The transpose of a sector is a sector whose block is the complex conjugate,
entry for entry, so one power serves both; on ``p_test`` the 44 sectors the
input touches need 24 powers.

``stepped`` runs many leaky points from one input as stacks: the step
entries of all touched sectors are gathered at once, and each group of
sectors (one size, paired or self-conjugate) is raised for all points of a
stack in one call.  On this model a small matrix product costs mostly per
call, not per matrix, so a point's share of an eight-point stack costs less
than half of what a lone point costs.

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
#: most leaky points raised as one stack; bounds the memory of their step entries
STEP_STACK = 8


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
    return _union(len(links), *np.nonzero(links))


def _union(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Component label (0, 1, ...) of each of ``n`` nodes joined by the edges
    (src[k], dst[k]), numbered in the order of each component's smallest node."""
    root = list(range(n))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in zip(src.tolist(), dst.tolist()):
        a, b = find(i), find(j)
        if a != b:  # the smaller node stays the root of the union
            root[max(a, b)] = min(a, b)
    return np.unique([find(i) for i in range(n)], return_inverse=True)[1]


def _sectors(h: np.ndarray, half_m: np.ndarray, jumps: np.ndarray):
    """The groups of entries of rho that the one-step map never mixes.

    States linked by H or by ``half_m`` form blocks; the unitary and the
    ``half_m`` terms keep an entry (i, j) inside its block pair.  A jump
    carries block pair (C, D) to (A, B) when it links C to A and D to B.

    The transpose S* of a sector S (the entries (j, i) of its (i, j)) is a
    sector too, and its block of the one-step map is conj of that of S, entry
    for entry.  So only one sector of each such pair is kept, with its mirror
    as a second member.  Returns one (rows, cols) pair of index arrays per
    sector size and member count, each of shape (sectors, members, size):
    member 0 lists a sector's entries and member 1, when present, the
    transposed entries in the same order.
    """
    dim = h.shape[0]
    state_block = _components((h != 0) | (half_m != 0))
    n_blocks = state_block.max() + 1
    src, dst = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
    for jump in jumps:
        to, frm = np.nonzero(jump)
        block_links = np.zeros((n_blocks, n_blocks), dtype=bool)
        block_links[state_block[frm], state_block[to]] = True
        frm, to = np.nonzero(block_links)
        src.append(np.add.outer(frm * n_blocks, frm).ravel())
        dst.append(np.add.outer(to * n_blocks, to).ravel())
    block_pair_sector = _union(n_blocks * n_blocks, np.concatenate(src),
                               np.concatenate(dst))
    sector = block_pair_sector[state_block[:, None] * n_blocks + state_block]
    mirror = sector.T.ravel()  # the sector of each entry's transpose
    sector = sector.ravel()
    kept = np.flatnonzero(sector <= mirror)  # one sector of each transposed pair
    # a kept entry's group is 2 * its sector's size + 1 if the sector has a mirror
    group = 2 * np.bincount(sector)[sector[kept]] + (sector[kept] < mirror[kept])
    flat = kept[np.argsort(group * len(sector) + sector[kept], kind="stable")]
    groups, start = [], 0
    for key, count in zip(*np.unique(group, return_counts=True)):
        size, paired = divmod(int(key), 2)
        rows, cols = np.divmod(flat[start:start + count].reshape(-1, 1, size), dim)
        start += count
        if paired:
            rows, cols = np.concatenate([rows, cols], 1), np.concatenate([cols, rows], 1)
        groups.append((rows, cols))
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
    """``n_steps`` first-order steps of each point of a stack, as a matrix
    power of each sector's block of

        Phi = U (x) conj(U) - dt [(M U) (x) conj(U) + U (x) conj(M U)]
              + dt sum_k (L_k U) (x) conj(L_k U),

    where the entry of A (x) conj(B) between (a, b) and (i, j) is
    A[a, i] conj(B[b, j]).  ``u``, ``half_m`` and ``dt`` hold one entry per
    point and ``jumps`` one stack of jumps per point; all points share the
    input ``rho`` and the :func:`_sectors` partition.  The step entries of
    every touched sector are gathered with one flat index per side, and each
    group of sectors is raised once for all points.  A sector's mirror takes
    conj of its power, applied to the mirror's own input entries, so an input
    that is not Hermitian evolves right too.  Sectors with no nonzero input
    stay exactly 0.
    """
    n, dim = len(u), rho.shape[0]
    touched, left, right = [], [], []
    for rows, cols in sectors:
        vec = rho[rows, cols]
        hit = vec.any(axis=(1, 2))
        if not hit.any():
            continue
        rows, cols, vec = rows[hit], cols[hit], vec[hit]
        touched.append((rows, cols, vec))
        left.append((rows[:, 0, :, None] * dim + rows[:, 0, None, :]).ravel())
        right.append((cols[:, 0, :, None] * dim + cols[:, 0, None, :]).ravel())
    out = np.zeros((n,) + rho.shape, dtype=complex)
    if not touched:
        return out
    left, right = np.concatenate(left), np.concatenate(right)

    def sides(op):  # A's entries and conj(B)'s in A (x) conj(B), one row per point
        flat = op.reshape(n, dim * dim)
        conj_side = flat[:, right]
        return flat[:, left], np.conj(conj_side, out=conj_side)

    # in place, with every product's operands in the order of the formula
    # (with FMA, a * b and b * a can round apart)
    dt = np.asarray(dt)[:, None]
    u_left, u_right = sides(u)
    step = u_left * u_right
    m_left, m_right = sides(half_m @ u)
    m_left *= u_right
    np.multiply(u_left, m_right, out=m_right)
    m_left += m_right
    np.multiply(dt, m_left, out=m_left)
    step -= m_left
    del u_left, u_right, m_left, m_right
    for lu in (jumps @ u[:, None]).swapaxes(0, 1):
        l_left, l_right = sides(lu)
        np.multiply(dt, l_left, out=l_left)
        l_left *= l_right
        step += l_left
    start = 0
    for rows, cols, vec in touched:
        count, members, size = vec.shape
        block = step[:, start:start + count * size * size].reshape(n, count, 1, size, size)
        start += count * size * size
        power = np.linalg.matrix_power(block, n_steps)
        if members == 2:
            power = np.concatenate([power, power.conj()], axis=2)
        out[:, rows, cols] = (power @ vec[..., None])[..., 0]
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
    ("stepped"), the one-point case of :func:`stepped`: the ``dt_steps``-th
    power of the one-step map on each sector of vec(rho) that the input
    touches (about 2 log2(dt_steps) small matrix products per conjugate pair
    of sectors).  The state is then checked once: a trace drift beyond
    ``StepperConfig.trace_tol``, a clearly negative eigenvalue or a non-finite
    entry raises :class:`DiagnosticError`.
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

    mats, drift = stepped(rho.matrix, h, [channels], [total_time], cfg)
    return EvolveResult(fock.DensityMatrix(space, mats[0], check=False), cfg.dt_steps,
                        float(drift[0]), propagation)


def stepped(rho: np.ndarray, h: np.ndarray,
            channel_sets: Sequence[Sequence[LindbladChannel]], times,
            cfg: StepperConfig = StepperConfig()) -> tuple:
    """Exactly ``cfg.dt_steps`` first-order steps of dt = T / dt_steps from
    ``rho`` under H and the jumps of ``channel_sets[k]``, for each T =
    ``times[k]``; :func:`evolve` with jumps is its one-point case.

    Returns the stack of evolved matrices and the trace drift of each; a stack
    in which one matrix fails the state checks raises
    :class:`DiagnosticError`.  Points that share a sector partition (all of
    them, unless a leak so small that its square underflows changes the zero
    pattern) are raised together, at most ``STEP_STACK`` at a time, and a
    point's numbers do not depend on the others in its stack.
    """
    times = np.asarray(times, dtype=float)
    if (times < 0).any():
        raise PhysicsValidationError(f"total_time must be >= 0, got {times.min()}")
    h = np.asarray(h)
    dts = times / cfg.dt_steps
    norm = float(np.max(np.abs(_spectrum(h)[0])))  # ||H|| of a Hermitian H
    for dt in dts:
        if dt * norm > 0.1:
            warnings.warn(
                f"step phase dt*||H|| = {dt * norm:.3g} rad exceeds 0.1; "
                "consider more dt_steps or the rotating frame",
                RuntimeWarning, stacklevel=2)

    packed = [_pack_channels(channels) for channels in channel_sets]
    by_partition = {}
    for k, (jumps, half_m) in enumerate(packed):
        partition = _partition(h, half_m, jumps)
        by_partition.setdefault(id(partition), (partition, []))[1].append(k)
    mats = np.empty((len(times),) + rho.shape, dtype=complex)
    for (same_block, sectors), ks in by_partition.values():
        for start in range(0, len(ks), STEP_STACK):
            part = ks[start:start + STEP_STACK]
            # U is exactly block-diagonal on H's blocks; drop eigh's round-off outside
            u = np.where(same_block, unitary_step_matrix(h, dts[part]), 0)
            jumps = np.stack([packed[k][0] for k in part])
            half_m = np.stack([packed[k][1] for k in part])
            mats[part] = _power_by_sector(rho, u, jumps, half_m, dts[part], cfg.dt_steps,
                                          sectors)
    drift = _check_state(mats, f"after {cfg.dt_steps} steps")
    return 0.5 * (mats + mats.conj().swapaxes(-1, -2)), drift  # shed round-off asymmetry
