"""The cavity-stage propagator: the exact exponential, or the first-order
trotterized master equation when photon-leak jumps are present.

``transit`` runs many points from one input as one stack: a point at T = 0
keeps the input, the lossless ones take one ``closed_form`` stack and the
leaky ones one ``stepped`` call; it alone decides each point's step count.
The transit is linear in the input and checks nothing; its caller
(``evolve``, or the pipeline once per slice) runs the state check.

With no jump channel the run is one spectral exponential exp(-i H T), which
is exact ("closed_form").  With jumps ("stepped"), one step conjugates the
density matrix with the exact unitary of the step interval and then adds
the dissipator at first order:

    rho'  =  U rho U^dag  +  dt * sum_i ( L_i rho L_i^dag
                                          - (L_i^dag L_i rho + rho L_i^dag L_i) / 2 )

The unitary factor is exact (spectral exponential); the dissipator makes the
scheme first order in dt.  A leaky run of duration T is ``dt_steps`` steps of
dt = T / dt_steps.  The points of a call share one stack of unit jumps
(:func:`leak_operators`) and point k's jumps are ``lys[k]`` times it.

The step is linear and the same at every step, so the run is the
``dt_steps``-th power of the one-step map Phi on vec(rho).  Phi never mixes
certain groups of density-matrix entries ("sectors"), read off the exact zero
patterns of H, of sum L^dag L and of each jump applied to both sides, so it
is block-diagonal on vec(rho).  Each sector's small dense block is raised to
the ``dt_steps``-th power by repeated squaring: ``dt_steps`` still fixes the
numbers, but costs about 2 log2(dt_steps) small matrix products.  Every term
A X B is written as (B^T kron A) vec(X) (Havel, J. Math. Phys. 44, 534
(2003)), restricted to one sector, so the d^2 x d^2 map is never formed.
The transpose of a sector is a sector, its partner, whose block is the
complex conjugate, entry for entry, so one power serves both; on ``p_test``
the 44 sectors the input touches need 24 powers.

``stepped`` runs many leaky points from one input on the sector partition
of their one jump stack and gathers the step entries of all touched sectors
at once; all sectors of one size are raised in one call for all its points
(six calls on ``p_test``), however many the caller stacks.  On this model a
small matrix product costs mostly per call, not per matrix, so a point's
share of an eight-point call costs less than half of what a lone point costs.

Nothing is cached: a ``closed_form`` stack or a ``stepped`` call takes the
spectrum of H once, and a ``stepped`` call one sector partition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
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


def leak_operators(space: fock.StateSpace) -> np.ndarray:
    """The photon-leak jumps at unit coefficient, a on each cavity rail; a
    point of leak coefficient ly has the jumps ly * a_x1 and ly * a_y1."""
    return np.stack([fock.annihilation_matrix(rail, space) for rail in ("x1", "y1")])


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
    """(evals, evecs) of the Hermitian H; PhysicsValidationError if H is not."""
    herm = np.max(np.abs(h - h.conj().T))
    if herm > NON_HERMITIAN_LIMIT:
        raise PhysicsValidationError(f"generator non-Hermitian by {herm:.3e}")
    return np.linalg.eigh(h)


def _exponential(evals: np.ndarray, evecs: np.ndarray, dt) -> np.ndarray:
    """:func:`unitary_step_matrix` from the spectrum of H."""
    phases = np.exp(-1j * np.asarray(dt)[..., None] * evals)
    return (evecs * phases[..., None, :]) @ evecs.conj().T


def unitary_step_matrix(h: np.ndarray, dt) -> np.ndarray:
    """exp(-i dt H) through the spectral decomposition of the Hermitian H;
    for an array of times, the stack of one exponential per time."""
    return _exponential(*_spectrum(np.asarray(h)), dt)


def closed_form(rho: np.ndarray, h: np.ndarray, times) -> np.ndarray:
    """U rho U^dag with U = exp(-i H T) for each T of ``times``, as one stack."""
    u = unitary_step_matrix(h, np.asarray(times, dtype=float))
    return u @ rho @ u.conj().swapaxes(-1, -2)


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


def _sectors(h: np.ndarray, jumps: np.ndarray):
    """The groups of entries of rho that the one-step map never mixes.

    States linked by H or by sum L^dag L form blocks; the unitary and the
    L^dag L terms keep an entry (i, j) inside its block pair.  A jump
    carries block pair (C, D) to (A, B) when it links C to A and D to B.
    The patterns of the stack ``jumps`` serve every multiple ly * jumps of
    it: they are its own, or coarser where ly^2 underflows.

    The transpose of a sector S (the entries (j, i) of its (i, j)) is a
    sector too, S's partner, and its block of the one-step map is conj of
    that of S, entry for entry.  So only one sector of each pair is kept.
    Returns the mask of state pairs inside one block, on which U is
    block-diagonal, and one (rows, cols, paired) per sector size: sector k
    holds the entries (rows[k], cols[k]), both of shape (sectors, size), and
    ``paired[k]`` is true when its partner (cols[k], rows[k]) is a different
    sector, false when the sector is its own transpose.
    """
    dim = h.shape[0]
    decay = (jumps.conj().swapaxes(-1, -2) @ jumps).sum(axis=0)
    state_block = _union(dim, *np.nonzero((h != 0) | (decay != 0)))
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
    partner = sector.T.ravel()  # the sector of each entry's transpose
    sector = sector.ravel()
    kept = np.flatnonzero(sector <= partner)  # one sector of each pair
    sizes = np.bincount(sector)[sector[kept]]
    flat = kept[np.argsort(sizes * len(sector) + sector[kept], kind="stable")]
    groups, start = [], 0
    for size, count in zip(*np.unique(sizes, return_counts=True)):
        entries = flat[start:start + count].reshape(-1, size)
        start += count
        first = entries[:, 0]
        groups.append((*np.divmod(entries, dim), sector[first] < partner[first]))
    return state_block[:, None] == state_block, groups


def _power_by_sector(rho, u, jumps, half_m, dt, n_steps, sectors):
    """``n_steps`` first-order steps of each point, as a matrix power of each
    sector's block of

        Phi = U (x) conj(U) - dt [(M U) (x) conj(U) + U (x) conj(M U)]
              + dt sum_k (L_k U) (x) conj(L_k U),

    where the entry of A (x) conj(B) between (a, b) and (i, j) is
    A[a, i] conj(B[b, j]).  ``u``, ``half_m`` and ``dt`` hold one entry per
    point and ``jumps`` one stack of jumps per point; all points share the
    input ``rho`` and the :func:`_sectors` layout.  The touched sectors (those
    that hold a nonzero input entry, or whose partner does) and one flat index
    per side that gathers their step entries are found once, and each sector
    size is raised for all points in one call.  A partner takes conj of its
    sector's power, applied to the partner's own input entries, so an input
    that is not Hermitian evolves right too.  Untouched sectors stay exactly 0.
    """
    n, dim = len(u), rho.shape[0]
    touched, left, right = [], [], []
    for rows, cols, paired in sectors:
        hit = rho[rows, cols].any(axis=1) | rho[cols, rows].any(axis=1)
        if hit.any():
            rows, cols = rows[hit], cols[hit]
            touched.append((rows, cols, paired[hit]))
            left.append((rows[:, :, None] * dim + rows[:, None, :]).ravel())
            right.append((cols[:, :, None] * dim + cols[:, None, :]).ravel())
    out = np.zeros((n,) + rho.shape, dtype=complex)
    if not touched:
        return out
    left, right = np.concatenate(left), np.concatenate(right)

    def sides(op):  # A's entries and conj(B)'s in A (x) conj(B), one row per point
        flat = op.reshape(len(op), dim * dim)
        return flat[:, left], flat[:, right].conj()

    # every product's operands in the order of the formula
    # (with FMA, a * b and b * a can round apart)
    dt = np.asarray(dt)[:, None]
    u_l, u_r = sides(u)
    m_l, m_r = sides(half_m @ u)
    step = u_l * u_r - dt * (m_l * u_r + u_l * m_r)
    del u_l, u_r, m_l, m_r  # the jump terms reuse this memory: fewer fresh pages
    for lu in (jumps @ u[:, None]).swapaxes(0, 1):
        l_l, l_r = sides(lu)
        step += dt * l_l * l_r
    at = 0
    for rows, cols, paired in touched:
        count, size = rows.shape
        block = step[:, at:at + count * size * size].reshape(n, count, size, size)
        at += count * size * size
        power = np.linalg.matrix_power(block, n_steps)
        out[:, rows, cols] = (power @ rho[rows, cols][..., None])[..., 0]
        rows, cols, power = rows[paired], cols[paired], power[:, paired].conj()
        out[:, cols, rows] = (power @ rho[cols, rows][..., None])[..., 0]
    return out


def _check_state(rho: np.ndarray, n_steps: int):
    """Trace drift of ``rho``, or of each matrix of a stack; DiagnosticError
    if a matrix has a non-finite entry, a trace drift past ``trace_tol`` or an
    eigenvalue below ``POSITIVITY_LIMIT``, whose message names ``n_steps`` if > 0."""
    where = f"after {n_steps} steps" if n_steps else "after the cavity stage"
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


def transit(rho: np.ndarray, h: np.ndarray, jumps: np.ndarray, lys, times,
            cfg: StepperConfig = StepperConfig()) -> tuple[np.ndarray, list[int]]:
    """The cavity-stage transit of ``rho`` for T = ``times[k]`` under H and the
    jumps ``lys[k] * jumps`` (one (n, d, d) stack), for each k, as one stack,
    and each point's step count: ``cfg.dt_steps`` if leaky, else 0.

    A point at T = 0 keeps ``rho``; one at T > 0 is leaky when ``lys[k] > 0``
    and the stack is not empty.  The lossless points run as one
    :func:`closed_form` stack and the leaky ones as one :func:`stepped` call.
    The map is linear in ``rho`` and checks nothing, so a matrix that is not
    a state (a matrix unit, say) evolves right too.  The caller checks the
    states it gets with :func:`_check_state`.
    """
    times = np.asarray(times, dtype=float)
    lys = np.asarray(lys, dtype=float)
    if (times < 0).any():
        raise PhysicsValidationError(f"total_time must be >= 0, got {times.min()}")
    if not (lys >= 0).all():
        raise PhysicsValidationError(f"leak coefficient must be >= 0, got {lys.min()}")
    mats = np.empty((len(times),) + rho.shape, dtype=complex)
    still = times == 0
    leaky = ~still & (lys > 0) & (len(jumps) > 0)
    closed = ~still & ~leaky
    mats[still] = rho
    if closed.any():
        mats[closed] = closed_form(rho, h, times[closed])
    if leaky.any():
        mats[leaky] = stepped(rho, h, jumps, lys[leaky], times[leaky], cfg)
    return mats, np.where(leaky, cfg.dt_steps, 0).tolist()


def evolve(rho: fock.DensityMatrix, h: np.ndarray,
           channels: Sequence[LindbladChannel], total_time: float,
           cfg: StepperConfig = StepperConfig()) -> EvolveResult:
    """Evolve the density matrix for ``total_time`` under H and the jump channels.

    The one-point case of :func:`transit` (the channels' matrices at
    coefficient 1), then the state check: a trace drift beyond
    ``StepperConfig.trace_tol``, a clearly negative eigenvalue or a
    non-finite entry raises :class:`DiagnosticError`.  With no jump channel
    the result is U rho U^dag with U = exp(-i H T), exact, so ``dt_steps``
    has no effect ("closed_form", no steps).  With jumps it is that of
    exactly ``cfg.dt_steps`` first-order steps of dt = T / dt_steps
    ("stepped").  At T = 0 the result is ``rho`` itself.
    """
    jumps = np.array([c.matrix for c in channels], complex).reshape((-1,) + rho.matrix.shape)
    mats, (n_steps,) = transit(rho.matrix, h, jumps, [1.0], [total_time], cfg)
    drift = _check_state(mats, n_steps)
    out = rho if total_time == 0 else fock.DensityMatrix(rho.space, mats[0], check=False)
    return EvolveResult(out, n_steps, float(drift[0]),
                        "stepped" if channels else "closed_form")


def stepped(rho: np.ndarray, h: np.ndarray, jumps: np.ndarray, lys, times,
            cfg: StepperConfig = StepperConfig()) -> np.ndarray:
    """Exactly ``cfg.dt_steps`` first-order steps of dt = T / dt_steps from
    ``rho`` under H and the jumps ``lys[k] * jumps``, for each T =
    ``times[k]``, as one stack; :func:`transit` runs its leaky points here.

    All points take the :func:`_sectors` of the one stack ``jumps``, on which
    each point's map is exact, so a point's numbers do not depend on the others.
    """
    h = np.asarray(h)
    dts = np.asarray(times, dtype=float) / cfg.dt_steps
    evals, evecs = _spectrum(h)
    for phase in dts * float(np.max(np.abs(evals))):  # dt * ||H|| of a Hermitian H
        if phase > 0.1:
            warnings.warn(f"step phase dt*||H|| = {phase:.3g} rad exceeds 0.1; "
                          "consider more dt_steps (--dt-steps, stepper.dt_steps)",
                          RuntimeWarning, stacklevel=3)

    point_jumps = np.asarray(lys, dtype=float)[:, None, None, None] * jumps
    half_m = 0.5 * (point_jumps.conj().swapaxes(-1, -2) @ point_jumps).sum(axis=1)
    same_block, sectors = _sectors(h, jumps)
    # U is exactly block-diagonal on these blocks; drop eigh's round-off outside
    u = np.where(same_block, _exponential(evals, evecs, dts), 0)
    return _power_by_sector(rho, u, point_jumps, half_m, dts, cfg.dt_steps, sectors)
