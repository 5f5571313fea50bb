"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with different
machinery than the code under test: the basis filtered from raw integer
tuples and the cavity-stage states from conserved per-cavity excitations
(which the tests match against closures over the package's own splitter,
Hamiltonian and leak matrices), ladder-matrix algebra instead of binomial
expansion, closed-form solutions instead of steppers.
"""

import itertools
import math

import numpy as np

G_DEFAULT = 0.1


# ---------------------------------------------------------------------------
# State-space oracle: direct filtered enumeration
# ---------------------------------------------------------------------------

def enumerate_reachable_oracle():
    """All occupation tuples allowed by the model constraints.

    Constraints: idle rails carry at most one photon, at most two excitations
    in total, and never both atoms excited (per-cavity excitation is at most
    one for every branch that enters the cavity stage).
    """
    out = set()
    for n_x1, n_x2, n_y1, n_y2, a1, a2 in itertools.product(
            range(3), range(2), range(3), range(2), range(2), range(2)):
        if n_x1 + n_x2 + n_y1 + n_y2 + a1 + a2 > 2:
            continue
        if a1 == 1 and a2 == 1:
            continue
        out.add((n_x1, n_x2, n_y1, n_y2, a1, a2))
    return out


def cavity_stage_reachable_oracle():
    """Tuples whose amplitudes can be populated while the cavities are active.

    Starting from the beamsplitter images of the four dual-rail inputs, the
    atom-field exchange conserves each cavity's excitation (rail photons plus
    its atom) and the leak only lowers it.
    """
    seeds = {(0, 1, 0, 1, 0, 0), (0, 1, 1, 0, 0, 0), (1, 0, 0, 1, 0, 0), (1, 0, 1, 0, 0, 0)}
    post_bs = set()
    for s in seeds:
        n, m = s[0], s[2]
        for j in range(n + m + 1):
            amp = two_mode_bs_matrix(n + m)[_tm_idx(j, n + m - j, n + m),
                                            _tm_idx(n, m, n + m)]
            if abs(amp) > 1e-9:  # matrix products leave ~1e-17 in exact zeros
                post_bs.add((j, s[1], n + m - j, s[3], 0, 0))
    out = set()
    for s in post_bs:
        cav_x, cav_y = s[0] + s[4], s[2] + s[5]
        for ex in range(cav_x + 1):
            for ey in range(cav_y + 1):
                for ax in range(2):
                    for ay in range(2):
                        nx, ny = ex - ax, ey - ay
                        if nx >= 0 and ny >= 0 and ax + ay < 2:
                            out.add((nx, s[1], ny, s[3], ax, ay))
    return out


# ---------------------------------------------------------------------------
# Two-mode beamsplitter via ladder-matrix algebra
# ---------------------------------------------------------------------------

def _tm_idx(na, nb, nmax):
    return na * (nmax + 1) + nb


def two_mode_bs_matrix(nmax):
    """Balanced-beamsplitter matrix on a two-mode Fock space cut at nmax.

    Built by applying the transformed creation operators as explicit matrices
    (no combinatorial formula): column (n, m) is
    [(A+ + B+)/sqrt(2)]^n [(A+ - B+)/sqrt(2)]^m |0,0> / sqrt(n! m!).
    """
    dim1 = nmax + 1
    ad = np.diag(np.sqrt(np.arange(1, dim1)), -1).astype(complex)
    eye = np.eye(dim1, dtype=complex)
    a_dag = np.kron(ad, eye)
    b_dag = np.kron(eye, ad)
    c1 = (a_dag + b_dag) / math.sqrt(2)
    c2 = (a_dag - b_dag) / math.sqrt(2)
    dim = dim1 * dim1
    out = np.zeros((dim, dim), dtype=complex)
    vac = np.zeros(dim, dtype=complex)
    vac[0] = 1.0
    for n in range(dim1):
        for m in range(dim1):
            if n + m > nmax:
                continue
            col = np.linalg.matrix_power(c1, n) @ np.linalg.matrix_power(c2, m) @ vac
            col /= math.sqrt(math.factorial(n) * math.factorial(m))
            out[:, _tm_idx(n, m, nmax)] = col
    return out


# ---------------------------------------------------------------------------
# Array Hamiltonian assembled element-wise from occupation rules
# ---------------------------------------------------------------------------

def array_hamiltonian_oracle(states, g, omega_c, omega_a):
    """Matrix elements written directly from the model definition.

    ``states`` is the ordered tuple of (n_x1, n_x2, n_y1, n_y2, a1, a2).
    """
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    h = np.zeros((dim, dim), dtype=complex)
    for i, s in enumerate(states):
        h[i, i] = omega_c * sum(s[:4]) + omega_a * (s[4] + s[5])
        for rail_pos, atom_pos in ((0, 4), (2, 5)):
            if s[rail_pos] > 0 and s[atom_pos] == 0:
                target = list(s)
                target[rail_pos] -= 1
                target[atom_pos] = 1
                j = index.get(tuple(target))
                if j is not None:
                    amp = g * math.sqrt(s[rail_pos])
                    h[j, i] += amp
                    h[i, j] += amp
    return h


# ---------------------------------------------------------------------------
# Closed-form results
# ---------------------------------------------------------------------------

def jc_survival_amplitude(n_photons, d, t_abs, g=G_DEFAULT):
    """Return amplitude of the n-photon, atom-ground component after a transit,
    relative to the empty-cavity sector (independent rederivation)."""
    delta = d * g
    omega = math.sqrt(delta ** 2 + 4 * g * g * n_photons)
    half = omega * t_abs / 2
    return np.exp(-0.5j * delta * t_abs) * (np.cos(half) + 1j * (delta / omega) * np.sin(half))


def csign_zero_leak_error(t, d, phs, g=G_DEFAULT):
    """Gate error of the lossless array in closed form.

    With no leak the pipeline stays pure, so the error is
    sqrt(1 - |overlap|^2) with the ideal output.  Tracking the four logical
    branches through splitter, cavities, compensating shifter and recombiner
    gives overlap (1 + 2*u1' - u2')/4 in terms of the shifted survival
    amplitudes.
    """
    t_abs = t * math.pi / (math.sqrt(2.0) * g)
    u1 = jc_survival_amplitude(1, d, t_abs, g)
    u2 = jc_survival_amplitude(2, d, t_abs, g)
    phi = -np.angle(u1) if (phs and abs(u1) > 1e-12) else 0.0
    ut1 = np.exp(1j * phi) * u1
    ut2 = np.exp(2j * phi) * u2
    kappa = (1.0 + 2.0 * ut1 - ut2) / 4.0
    return float(math.sqrt(max(0.0, 1.0 - abs(kappa) ** 2)))


def damped_cavity_population(t_abs, ly):
    """Mean occupation of a one-photon damped mode: exp(-ly^2 t)."""
    return math.exp(-(ly ** 2) * t_abs)


# ---------------------------------------------------------------------------
# The scalar calibration formulas in numpy arithmetic
# ---------------------------------------------------------------------------

def jc_return_amplitude_numpy(n_photons, params, t):
    """u_n of ``jc.block_amplitudes`` term by term, with numpy's exp, cos and
    sin in place of cmath's and math's."""
    if n_photons < 1:
        return 1.0 + 0.0j
    omega = math.sqrt(params.delta ** 2 + 4.0 * params.g ** 2 * n_photons)
    half = 0.5 * omega * t
    return np.exp(-0.5j * params.delta * t) * (
        np.cos(half) + 1j * (params.delta / omega) * np.sin(half))


def candidate_table_numpy(params, horizon_t):
    """``calibrate.candidate_table`` with the durations from ``np.arange`` and
    the errors from :func:`csign_zero_leak_error`."""
    unit = math.pi / (math.sqrt(2.0) * params.g)
    horizon = horizon_t * unit
    half_period = 2.0 * math.pi / math.sqrt(params.delta ** 2 + 4.0 * params.g ** 2 * 2)
    d = params.delta / params.g
    return [{"t": float(tau / unit), "delta_over_g": d,
             "residual": csign_zero_leak_error(float(tau / unit), d, 1, params.g)}
            for tau in np.arange(half_period, horizon + 1e-12 * horizon, 2.0 * half_period)]


# ---------------------------------------------------------------------------
# Brute-force partial trace
# ---------------------------------------------------------------------------

def partial_trace_atoms_oracle(matrix, states):
    """Element-wise index summation over equal atom configurations."""
    photon_states = sorted({s[:4] for s in states})
    pidx = {p: i for i, p in enumerate(photon_states)}
    out = np.zeros((len(photon_states), len(photon_states)), dtype=complex)
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            if si[4:] == sj[4:]:
                out[pidx[si[:4]], pidx[sj[:4]]] += matrix[i, j]
    return out, photon_states


# ---------------------------------------------------------------------------
# First-order master-equation step as a superoperator matrix
# ---------------------------------------------------------------------------

def first_order_step_superop(u, jumps, dt):
    """One trotter step as a d^2 x d^2 matrix acting on the column-stacked vec(rho).

    The step conjugates with U and then adds the dissipator at first order,
    rho -> rho + dt * sum_k (L_k rho L_k^dag - (L_k^dag L_k rho + rho L_k^dag L_k) / 2).
    Every term A X B is written as (B^T kron A) vec(X) (Havel, J. Math.
    Phys. 44, 534 (2003)), so n steps are the n-th matrix power.
    """
    dim = u.shape[0]
    eye = np.eye(dim)
    dissipator = np.zeros((dim * dim, dim * dim), dtype=complex)
    for jump in jumps:
        jump = np.asarray(jump, dtype=complex)
        ldl = jump.conj().T @ jump
        dissipator += np.kron(jump.conj(), jump) \
            - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return (np.eye(dim * dim) + dt * dissipator) @ np.kron(u.conj(), u)


def trotter_steps(rho, u, jumps, dt, n_steps):
    """The reference first-order stepper: ``n_steps`` explicit updates, each a
    unitary conjugation followed by the dissipator at first order in dt."""
    udag = np.ascontiguousarray(u.conj().T)
    jumps = np.asarray(jumps, dtype=complex).reshape(-1, *u.shape)
    jumps_dag = np.ascontiguousarray(jumps.conj().transpose(0, 2, 1))
    half_m = 0.5 * np.einsum("kij,kjl->il", jumps_dag, jumps)
    for _ in range(n_steps):
        rho = u @ rho @ udag
        if jumps.shape[0]:
            acc = np.zeros_like(rho)
            for k in range(jumps.shape[0]):
                acc += jumps[k] @ rho @ jumps_dag[k]
            rho = rho + dt * (acc - (half_m @ rho + rho @ half_m))
    return rho


# ---------------------------------------------------------------------------
# Exact master equation: the exponential of the dense Liouvillian
# ---------------------------------------------------------------------------

def liouvillian(h, jumps):
    """The Lindblad generator as a d^2 x d^2 matrix acting on the column-stacked vec(rho).

    d rho / dt = -i [H, rho] + sum_k (L_k rho L_k^dag
                                       - (L_k^dag L_k rho + rho L_k^dag L_k) / 2),
    with every term A X B written as (B^T kron A) vec(X) (Havel, J. Math.
    Phys. 44, 534 (2003)).
    """
    h = np.asarray(h, dtype=complex)
    eye = np.eye(h.shape[0])
    gen = -1j * (np.kron(eye, h) - np.kron(h.T, eye))
    for jump in jumps:
        jump = np.asarray(jump, dtype=complex)
        ldl = jump.conj().T @ jump
        gen += np.kron(jump.conj(), jump) - 0.5 * (np.kron(eye, ldl) + np.kron(ldl.T, eye))
    return gen


def expm(a, theta=0.5, order=18):
    """exp(a) by scaling and squaring: the Taylor series to ``order`` of
    a / 2^s, where ||a / 2^s||_1 <= theta, squared s times.  The truncation
    error theta^(order+1) / (order+1)! is below 1e-22."""
    norm = np.linalg.norm(a, 1)
    s = max(0, math.ceil(math.log2(norm / theta))) if norm > 0 else 0
    a = a / 2.0 ** s
    term = np.eye(a.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, order + 1):
        term = term @ a / k
        out += term
    for _ in range(s):
        out = out @ out
    return out


def exact_master_equation(rho, h, jumps, total):
    """rho evolved for ``total`` under the exact Lindblad master equation."""
    rho = np.asarray(rho, dtype=complex)
    vec = expm(total * liouvillian(h, jumps)) @ rho.reshape(-1, order="F")
    return vec.reshape(rho.shape, order="F")
