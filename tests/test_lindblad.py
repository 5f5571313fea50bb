import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from csign import circuit, dynamics, fock, lindblad
from csign.dynamics import PhysParams
from csign.errors import DiagnosticError, PhysicsValidationError
from csign.lindblad import LindbladChannel, StepperConfig

from conftest import random_hermitian
from oracles import (damped_cavity_population, exact_master_equation,
                     first_order_step_superop, trotter_steps)


def mode_space(dim):
    """Minimal space shim: the stepper only needs a dimension."""
    return SimpleNamespace(dim=dim)


def lowering(dim):
    return np.diag(np.sqrt(np.arange(1, dim)), 1).astype(complex)


def dm(space, mat):
    return fock.DensityMatrix(space, np.asarray(mat, dtype=complex), check=False)


class TestUnitaryStep:
    def test_zero_generator_gives_identity(self):
        u = lindblad.unitary_step_matrix(np.zeros((4, 4)), 0.37)
        assert np.allclose(u, np.eye(4), atol=1e-14)

    def test_diagonal_generator(self):
        w = np.array([0.5, -1.5, 3.0])
        u = lindblad.unitary_step_matrix(np.diag(w), 0.2)
        assert np.allclose(np.diag(u), np.exp(-1j * 0.2 * w), atol=1e-14)

    def test_jc_block_matches_closed_form(self, rng):
        # oracle: the closed-form block rotation behind the analytic evolution
        for _ in range(100):
            p = PhysParams(g=rng.uniform(0.1, 1.5), omega_c=10.0,
                           delta=rng.uniform(-2, 2))
            t = rng.uniform(0.0, 15.0)
            h = dynamics.build_jc_hamiltonian(p, frame="interaction")
            u = lindblad.unitary_step_matrix(h, t)
            psi0 = np.zeros(5, dtype=complex)
            psi0[1] = 1.0  # one photon, atom ground
            expected = dynamics.analytic_evolve((0, 1, 0), t, p)
            assert np.allclose(u @ psi0, expected, atol=1e-10)

    def test_unitarity(self, rng):
        h = random_hermitian(rng, 8)
        u = lindblad.unitary_step_matrix(h, 0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(8))) < 1e-10

    def test_rejects_non_hermitian(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(PhysicsValidationError):
            lindblad.unitary_step_matrix(h, 0.1)


class TestSpectrum:
    """Nothing caches the spectrum of H: each ``closed_form`` stack and each
    ``stepped`` call takes it once, however often the same H comes back."""

    def test_non_hermitian_raises_every_call(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        rho = fock.DensityMatrix(SimpleNamespace(dim=2), np.diag([1.0, 0.0]))
        for _ in range(2):
            with pytest.raises(PhysicsValidationError):
                lindblad.unitary_step_matrix(h, 0.1)
            with pytest.raises(PhysicsValidationError):
                lindblad.evolve(rho, h, [], 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # step phase
    def test_one_eigh_per_stack(self, space, probe, monkeypatch):
        h = dynamics.build_array_hamiltonian(space, PhysParams(delta=0.21), frame="rotating")
        bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
        rho = bs @ probe.matrix @ bs.conj().T
        jumps, lys = lindblad.leak_operators(space), [1e-3, 1e-2, 3e-2]
        times = [5.0, 40.0, 99.0]
        cfg = StepperConfig(dt_steps=200)
        calls = []
        eigh = np.linalg.eigh

        def eigh_spy(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        runs = []
        for _ in range(2):  # a first call, then the same H again
            closed = lindblad.closed_form(rho, h, times)
            assert len(calls) == 1
            leaky = lindblad.stepped(rho, h, jumps, lys, times, cfg)
            assert len(calls) == 2
            calls.clear()
            runs.append((closed, leaky))
        for first, again in zip(*runs):
            assert np.array_equal(first, again)


class TestLindbladStep:
    """One trotter update: ``evolve`` with a single step."""

    def test_no_channels_is_pure_conjugation(self, rng):
        # no jump: one exact exponential, bit for bit, with no step count and
        # no step-phase warning even at dt*||H|| of about 1e4 rad
        rho = random_hermitian(rng, 5, trace_one=True)
        h = 1e3 * random_hermitian(rng, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = lindblad.evolve(dm(mode_space(5), rho), h, [], 11.0,
                                  StepperConfig(dt_steps=1))
        u = lindblad.unitary_step_matrix(h, 11.0)
        assert np.array_equal(res.rho.matrix, u @ rho @ u.conj().T)
        assert (res.propagation, res.n_steps) == ("closed_form", 0)

    def test_trace_preserved_with_channels(self, rng):
        dim = 4
        a = lowering(dim)
        rho = np.zeros((dim, dim), dtype=complex)
        rho[2, 2] = 1.0
        out = lindblad.evolve(dm(mode_space(dim), rho), np.zeros((dim, dim)),
                              [LindbladChannel(0.3 * a, "leak")], 0.01,
                              StepperConfig(dt_steps=1)).rho.matrix
        assert out.trace().real == pytest.approx(1.0, abs=1e-12)


class TestFirstOrderOracle:
    """``evolve`` against powers of the one-step map written as a matrix on
    vec(rho), built independently in ``oracles.first_order_step_superop``."""

    def check(self, rho0, h, jumps, total, n_steps):
        dim = rho0.shape[0]
        dt = total / n_steps
        step = first_order_step_superop(lindblad.unitary_step_matrix(h, dt), jumps, dt)
        vec = np.linalg.matrix_power(step, n_steps) @ rho0.reshape(-1, order="F")
        expected = vec.reshape(rho0.shape, order="F")
        # the first-order map preserves trace and Hermiticity exactly
        assert abs(expected.trace() - rho0.trace()) <= 1e-12
        assert np.max(np.abs(expected - expected.conj().T)) <= 1e-12
        res = lindblad.evolve(dm(mode_space(dim), rho0), h,
                              [LindbladChannel(j) for j in jumps], total,
                              StepperConfig(dt_steps=n_steps))
        assert res.n_steps == (n_steps if jumps else 0)
        assert np.max(np.abs(res.rho.matrix - expected)) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_random_draws(self, rng):
        for _ in range(24):
            dim = int(rng.integers(3, 9))
            jumps = [0.1 / math.sqrt(dim) * (rng.normal(size=(dim, dim))
                                             + 1j * rng.normal(size=(dim, dim)))
                     for _ in range(int(rng.integers(0, 3)))]
            self.check(random_hermitian(rng, dim, trace_one=True),
                       random_hermitian(rng, dim), jumps,
                       rng.uniform(0.1, 2.0), int(rng.integers(1, 201)))

    def test_leak_channels_on_full_space(self, space, rng):
        params = PhysParams(g=0.1, delta=0.037)
        h = dynamics.build_array_hamiltonian(space, params, frame="rotating")
        jumps = list(3.16e-2 * params.g * lindblad.leak_operators(space))
        total = 3.0 * math.pi / (math.sqrt(2.0) * params.g)
        self.check(random_hermitian(rng, space.dim, trace_one=True), h, jumps,
                   total, 120)


def block_structured_case(rng):
    """A Hermitian H made of random blocks (shuffled: blocks need not be
    contiguous), and one or two sparse jumps that cross the blocks."""
    sizes = rng.integers(1, 4, size=int(rng.integers(2, 5)))
    dim = int(sizes.sum())
    h = np.zeros((dim, dim), dtype=complex)
    for end, size in zip(np.cumsum(sizes), sizes):
        h[end - size:end, end - size:end] = random_hermitian(rng, size)
    perm = rng.permutation(dim)
    jumps = np.zeros((int(rng.integers(1, 3)), dim, dim), dtype=complex)
    for jump in jumps:
        jump[rng.integers(0, dim, 2), rng.integers(0, dim, 2)] = 0.3
    return h[np.ix_(perm, perm)], jumps


def sector_labels(sectors, dim):
    """The sector of each entry of rho: one label for every kept sector and
    one more for its partner when it is paired; -1 where no sector holds the
    entry, and a ValueError where two do."""
    labels = np.full((dim, dim), -1)
    label = 0
    for rows, cols, paired in sectors:
        for r, c, p in zip(rows, cols, paired):
            for entries in ((r, c), (c, r)) if p else ((r, c),):
                if np.any(labels[entries] >= 0):
                    raise ValueError("an entry lies in two sectors")
                labels[entries] = label
                label += 1
    return labels


def partition_bytes(partition):
    """The bytes of every array of a :func:`lindblad._sectors` result."""
    mask, sectors = partition
    return tuple((ix.shape, ix.tobytes()) for ix in (mask, *sum(sectors, ())))


class TestReferenceStepper:
    """``evolve``, a matrix power of each sector's block of the one-step map,
    against the explicit step loop ``oracles.trotter_steps`` at the same dt.

    Both take exp(-i dt H) exactly block-diagonal on H's invariant blocks.
    In the lab frame the step phase is about 1e6 rad, and eigh of the full H
    leaves up to 1e-10 outside those blocks, which would otherwise dominate
    the comparison.
    """

    @staticmethod
    def on_blocks(h, u):
        # the states each state reaches through H, by transitive closure
        reach = (h != 0) | np.eye(len(h), dtype=bool)
        while True:
            wider = reach.astype(int) @ reach.astype(int) > 0
            if np.array_equal(wider, reach):
                return np.where(reach, u, 0)
            reach = wider

    def check(self, rho0, h, jumps, total, n_steps):
        dt = total / n_steps
        u = self.on_blocks(h, lindblad.unitary_step_matrix(h, dt))
        expected = trotter_steps(rho0, u, jumps, dt, n_steps)
        out = lindblad.evolve(dm(mode_space(rho0.shape[0]), rho0), h,
                              [LindbladChannel(j) for j in jumps], total,
                              StepperConfig(dt_steps=n_steps)).rho.matrix
        assert np.max(np.abs(out - expected)) <= 1e-12
        return out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # lab-frame step phase
    @pytest.mark.parametrize("frame", ["rotating", "lab"])
    def test_leak_channels_on_full_space(self, space, frame):
        rng = np.random.default_rng(["rotating", "lab"].index(frame) + 71)
        bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
        for draw in range(4):
            params = PhysParams(g=0.1, delta=rng.uniform(-0.6, 0.6))
            h = dynamics.build_array_hamiltonian(space, params, frame=frame)
            ly = 10.0 ** rng.uniform(-4.0, -1.0) * params.g
            jumps = list(ly * lindblad.leak_operators(space))
            if draw % 2:
                rho0 = random_hermitian(rng, space.dim, trace_one=True)
            else:  # a logical input after the first beamsplitter, as in the array
                rho0 = bs @ circuit.random_valid_input(space, rng).matrix @ bs.conj().T
            total = rng.uniform(0.5, 100.0) * math.pi / (math.sqrt(2.0) * params.g)
            self.check(rho0, h, jumps, total, int(rng.integers(1, 2001)))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_block_diagonal_generator_with_crossing_jumps(self, rng):
        for _ in range(12):
            h, jumps = block_structured_case(rng)
            assert len(lindblad._sectors(h, jumps)[1]) > 1
            self.check(random_hermitian(rng, len(h), trace_one=True), h, list(jumps),
                       rng.uniform(0.1, 5.0), int(rng.integers(1, 301)))

    def test_untouched_sectors_stay_exactly_zero(self, rng):
        # H has blocks {0..3} and {4, 5, 6} (shuffled) and the jump stays in
        # the first, so an input on the first block never reaches the second
        h = np.zeros((7, 7), dtype=complex)
        h[:4, :4] = random_hermitian(rng, 4)
        h[4:, 4:] = random_hermitian(rng, 3)
        jump = np.zeros((7, 7), dtype=complex)
        jump[:4, :4] = 0.3 * lowering(4)
        rho0 = np.zeros((7, 7), dtype=complex)
        rho0[:4, :4] = random_hermitian(rng, 4, trace_one=True)
        perm = rng.permutation(7)
        shuffle = np.ix_(perm, perm)
        out = self.check(rho0[shuffle], h[shuffle], [jump[shuffle]], 3.0, 400)
        second = np.argsort(perm)[4:]
        assert np.all(out[second, :] == 0) and np.all(out[:, second] == 0)


class TestStepperConfig:
    def test_step_bound(self):
        assert StepperConfig(dt_steps=10**8).dt_steps == lindblad.MAX_DT_STEPS
        with pytest.raises(PhysicsValidationError, match="<= 100000000"):
            StepperConfig(dt_steps=10**8 + 1)


class TestSectors:
    """The sector layout against the one-step map written out in full
    (``oracles.first_order_step_superop``)."""

    def cases(self, rng, space):
        for _ in range(12):
            yield block_structured_case(rng)
        # detuned, and resonant with a leak whose square underflows in half_m
        for delta, ly in ((0.3, 0.01), (0.479975, 0.01), (0.0, 1e-170)):
            h = dynamics.build_array_hamiltonian(space, PhysParams(delta=delta),
                                                 frame="rotating")
            yield h, ly * lindblad.leak_operators(space)

    def test_every_entry_once_and_paired_iff_partner_is_another_sector(self, rng, space):
        for h, jumps in self.cases(rng, space):
            _, sectors = lindblad._sectors(h, jumps)
            labels = sector_labels(sectors, len(h))
            assert labels.min() == 0
            sizes = [rows.shape[1] for rows, _, _ in sectors]
            assert len(set(sizes)) == len(sizes)  # one group per size
            # the transposed entries of a sector all lie in one sector, its partner
            partner = {}
            for label, image in zip(labels.ravel(), labels.T.ravel()):
                assert partner.setdefault(label, image) == image
            assert all(partner[partner[label]] == label for label in partner)
            for rows, cols, paired in sectors:
                assert rows.shape == cols.shape == paired.shape + (rows.shape[1],)
                for r, c, p in zip(rows, cols, paired):
                    assert (partner[labels[r[0], c[0]]] != labels[r[0], c[0]]) == p

    def test_map_keeps_sectors_apart_and_partner_blocks_are_conjugate(self, rng, space):
        for h, jumps in self.cases(rng, space):
            dim = len(h)
            u = lindblad.unitary_step_matrix(h, 0.37)
            step = first_order_step_superop(u, jumps, 0.37)
            same_block, sectors = lindblad._sectors(h, jumps)
            # U is block-diagonal on the blocks of the mask, up to eigh's round-off
            assert np.max(np.abs(u[~same_block]), initial=0.0) <= 1e-12
            vec_of = lambda r, c: c * dim + r  # column-stacked vec(rho)
            same = sector_labels(sectors, dim).ravel(order="F")
            outside = step[same[:, None] != same[None, :]]
            assert np.max(np.abs(outside), initial=0.0) <= 1e-15
            for rows, cols, paired in sectors:
                for r, c in zip(rows[paired], cols[paired]):
                    block = step[np.ix_(vec_of(r, c), vec_of(r, c))]
                    partner = step[np.ix_(vec_of(c, r), vec_of(c, r))]
                    assert np.max(np.abs(partner - block.conj())) <= 1e-15


class TestStepped:
    """``stepped``, many points from one input, against each point alone."""

    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    def test_stacked_power_on_non_hermitian_input(self, rng):
        # the sector power of a stack of points (steps, leaks and dt apart),
        # on an input that is not Hermitian, against the explicit step loop
        for draw in range(8):
            h, pattern = block_structured_case(rng)
            dim = len(h)
            n_steps = int(rng.integers(1, 301))
            lys = rng.uniform(0.2, 2.0, size=5)
            jumps = lys[:, None, None, None] * pattern
            half_m = 0.5 * np.einsum("pkji,pkjl->pil", jumps.conj(), jumps)
            dts = rng.uniform(0.001, 0.05, size=5)
            same_block, sectors = lindblad._sectors(h, pattern)
            u = np.where(same_block, lindblad.unitary_step_matrix(h, dts), 0)
            rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            if draw % 2:  # an input that touches only some sectors
                rho[rng.random((dim, dim)) < 0.5] = 0
            out = lindblad._power_by_sector(rho, u, jumps, half_m, dts, n_steps, sectors)
            for k in range(5):
                expected = trotter_steps(rho, u[k], jumps[k], dts[k], n_steps)
                assert np.max(np.abs(out[k] - expected)) <= 1e-12

    def test_stack_matches_evolve_bit_for_bit(self, space, rng):
        # eleven points in one call, and one leak so small that its square
        # underflows: its L^dag L is 0, but the partition of the unit stack
        # is the same as its own
        h = dynamics.build_array_hamiltonian(space, PhysParams(delta=0.21), frame="rotating")
        bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
        rho = bs @ circuit.random_valid_input(space, rng, mixed=True).matrix @ bs.conj().T
        leaks = [1e-170] + list(10.0 ** rng.uniform(-5.0, -2.0, 10))
        jumps = lindblad.leak_operators(space)
        times = rng.uniform(1.0, 700.0, size=len(leaks))
        cfg = StepperConfig(dt_steps=300)
        partitions = [lindblad._sectors(h, ly * jumps) for ly in [1.0] + leaks]
        assert len({partition_bytes(partition) for partition in partitions}) == 1
        mats = lindblad.stepped(rho, h, jumps, leaks, times, cfg)
        drift = lindblad._check_state(mats, cfg.dt_steps)
        for k, (ly, total) in enumerate(zip(leaks, times)):
            channels = [LindbladChannel(j) for j in ly * jumps]
            alone = lindblad.evolve(dm(space, rho), h, channels, total, cfg)
            assert np.array_equal(mats[k], alone.rho.matrix)
            assert drift[k] == alone.trace_drift

    def test_one_matrix_power_per_touched_size_per_stack(self, space, probe, monkeypatch):
        # p_test touches sectors of six sizes: six calls for eleven points
        h = dynamics.build_array_hamiltonian(space, PhysParams(), frame="rotating")
        bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
        rho = bs @ probe.matrix @ bs.conj().T
        jumps = lindblad.leak_operators(space)
        _, sectors = lindblad._sectors(h, jumps)
        touched = {rows.shape[1] for rows, cols, _ in sectors
                   if (rho[rows, cols].any(axis=1) | rho[cols, rows].any(axis=1)).any()}
        assert len(touched) == 6
        calls = []
        power = np.linalg.matrix_power

        def power_spy(a, n):
            calls.append(a.shape[-1])
            return power(a, n)

        monkeypatch.setattr(np.linalg, "matrix_power", power_spy)
        n = 11
        lindblad.stepped(rho, h, jumps, [1e-3] * n, np.linspace(10.0, 300.0, n),
                         StepperConfig(dt_steps=200))
        assert sorted(calls) == sorted(touched)


class TestTransit:
    """``transit``: the one split of points into T = 0, lossless and leaky."""

    def test_linear_on_a_matrix_unit(self, space):
        # |11><00| from the logical block, after the first splitter: not
        # Hermitian and of trace 0, so not a state; each point (leaky,
        # lossless, t = 0) against the explicit step loop, and the step
        # count and path each point reports
        b, _, _, a = fock.computational_indices(space)
        unit = np.zeros((space.dim, space.dim), dtype=complex)
        unit[a, b] = 1.0
        bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
        rho = bs @ unit @ bs.conj().T
        h = dynamics.build_array_hamiltonian(space, PhysParams(delta=0.21), frame="rotating")
        cfg = StepperConfig(dt_steps=200)
        jumps, lys = lindblad.leak_operators(space), [1e-3, 0.0, 0.02, 0.0, 0.01]
        times = [30.0, 30.0, 12.0, 0.0, 0.0]
        mats, steps, paths = lindblad.transit(rho, h, jumps, lys, times, cfg)
        assert steps == [cfg.dt_steps, 0, cfg.dt_steps, 0, 0]
        assert paths == ["stepped", "closed_form", "stepped", "closed_form", "stepped"]
        for k, (ly, total) in enumerate(zip(lys, times)):
            n = cfg.dt_steps if total else 0
            dt = total / cfg.dt_steps
            expected = trotter_steps(rho, lindblad.unitary_step_matrix(h, dt),
                                     ly * jumps, dt, n)
            assert np.max(np.abs(mats[k] - expected)) <= 1e-12, k
        assert np.array_equal(mats[3], rho) and np.array_equal(mats[4], rho)
        assert np.max(np.abs(mats - mats.conj().swapaxes(-1, -2))) > 0.1

    @pytest.mark.parametrize("ly_over_g,t,stack,expected", [
        (0.0, 0.0, True, ("closed_form", 0)),
        (0.0, 3.0, True, ("closed_form", 0)),
        (0.01, 0.0, True, ("stepped", 0)),
        (0.01, 3.0, True, ("stepped", 200)),
        (0.01, 0.0, False, ("closed_form", 0)),
        (0.01, 3.0, False, ("closed_form", 0)),
    ])
    def test_path_rule(self, space, probe, ly_over_g, t, stack, expected):
        # a point is "stepped" when it leaks and the jump stack is not empty,
        # and takes steps only when stepped at T > 0; transit, evolve (the
        # point's own jumps as channels) and run_batch (always both leak
        # jumps) report the same path and step count
        params = circuit.SimParams(t=t, ly_over_g=ly_over_g, stepper=StepperConfig(dt_steps=200))
        ly, jumps = ly_over_g * params.g, lindblad.leak_operators(space)[:2 if stack else 0]
        h = dynamics.build_array_hamiltonian(space, params.phys, frame="rotating")
        _, steps, paths = lindblad.transit(probe.matrix, h, jumps, [ly], [params.total_time],
                                           params.stepper)
        assert (paths[0], steps[0]) == expected
        channels = [LindbladChannel(j) for j in ly * jumps] if ly else []
        alone = lindblad.evolve(probe, h, channels, params.total_time, params.stepper)
        assert (alone.propagation, alone.n_steps) == expected
        if stack:
            (report,) = circuit.run_batch(probe, [params], space)
            assert (report.propagation, report.n_steps) == expected

    def test_rejects_negative_time(self):
        rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        with pytest.raises(PhysicsValidationError, match="total_time"):
            lindblad.transit(rho0, np.zeros((3, 3)), lowering(3)[None], [0.01, 0.01],
                             [1.0, -1.0])

    @pytest.mark.parametrize("ly", [-1e-3, math.nan])
    def test_rejects_negative_leak(self, ly):
        rho0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        with pytest.raises(PhysicsValidationError, match="leak coefficient must be >= 0"):
            lindblad.transit(rho0, np.zeros((3, 3)), lowering(3)[None], [0.01, ly],
                             [1.0, 1.0])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # step phase
    def test_mixed_stack_matches_each_point_alone(self, space):
        # points at T = 0, lossless and leaky (one leak so small that its
        # square underflows), shuffled, on an input that is not Hermitian:
        # each against ``evolve`` of that point alone, bit for bit, and
        # against the explicit step loop
        rng = np.random.default_rng(2216)
        h = dynamics.build_array_hamiltonian(space, PhysParams(delta=rng.uniform(-0.5, 0.5)),
                                             frame="rotating")
        bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
        rho = bs @ circuit.random_valid_input(space, rng, mixed=True).matrix @ bs.conj().T
        noise = rng.normal(size=rho.shape) + 1j * rng.normal(size=rho.shape)
        rho += 1e-3 * (noise - np.trace(noise) / space.dim * np.eye(space.dim))
        lys = np.concatenate([[0.0, 0.0, 1e-170, 3e-3], 10.0 ** rng.uniform(-6.0, -2.5, 4)])
        times = np.concatenate([[0.0, 40.0, 90.0, 0.0], rng.uniform(1.0, 700.0, 4)])
        order = rng.permutation(len(lys))
        lys, times = lys[order], times[order]
        cfg = StepperConfig(dt_steps=int(rng.integers(50, 400)))
        jumps = lindblad.leak_operators(space)
        mats, steps, paths = lindblad.transit(rho, h, jumps, lys, times, cfg)
        assert np.max(np.abs(rho - rho.conj().T)) > 1e-4
        for k, (ly, total) in enumerate(zip(lys, times)):
            channels = [LindbladChannel(j) for j in ly * jumps] if ly else []
            alone = lindblad.evolve(dm(space, rho), h, channels, total, cfg)
            assert np.array_equal(mats[k], alone.rho.matrix), k
            assert steps[k] == alone.n_steps == (cfg.dt_steps if ly and total else 0)
            assert paths[k] == alone.propagation == ("stepped" if ly else "closed_form")
            dt = total / cfg.dt_steps
            expected = trotter_steps(rho, lindblad.unitary_step_matrix(h, dt), ly * jumps, dt,
                                     cfg.dt_steps if total else 0)
            assert np.max(np.abs(mats[k] - expected)) <= 1e-12, k


class TestEvolve:
    def test_zero_time_unchanged(self, rng):
        space = mode_space(3)
        rho = dm(space, np.diag([0.2, 0.3, 0.5]))
        res = lindblad.evolve(rho, np.zeros((3, 3)), [], 0.0)
        assert res.rho is rho
        assert res.n_steps == 0

    def test_zero_channels_matches_exact_conjugation(self, rng):
        # oracle: the Taylor exponential of the dense generator, no eigh
        dim = 6
        space = mode_space(dim)
        h = random_hermitian(rng, dim)
        rho0 = random_hermitian(rng, dim, trace_one=True)
        total = 7.3
        res = lindblad.evolve(dm(space, rho0), h, [], total,
                              StepperConfig(dt_steps=500))
        exact = exact_master_equation(rho0, h, [], total)
        assert np.max(np.abs(res.rho.matrix - exact)) < 1e-10
        assert (res.propagation, res.n_steps) == ("closed_form", 0)

    def test_closed_form_stack_is_per_matrix_conjugation(self, space, rng):
        # each matrix of the stack is u rho u^dag with the one-time exponential
        h = dynamics.build_array_hamiltonian(space, PhysParams(delta=0.17), frame="rotating")
        gmat = rng.normal(size=(space.dim,) * 2) + 1j * rng.normal(size=(space.dim,) * 2)
        rho = gmat @ gmat.conj().T
        rho /= rho.trace().real
        times = [0.5, 3.0, 41.0, 700.0]
        mats = lindblad.closed_form(rho, h, times)
        drift = lindblad._check_state(mats, 0)
        for k, total in enumerate(times):
            u = lindblad.unitary_step_matrix(h, total)
            one = u @ rho @ u.conj().T
            assert np.array_equal(mats[k], one)
            assert drift[k] == abs(one.trace().real - 1.0)

    def test_two_photon_recurrence(self):
        # resonant two-photon exchange returns at multiples of pi/(sqrt(2) g)
        p = PhysParams(g=0.1, omega_c=10.0, delta=0.0)
        h = dynamics.build_jc_hamiltonian(p, frame="interaction")
        space = mode_space(5)
        rho0 = np.zeros((5, 5), dtype=complex)
        rho0[2, 2] = 1.0  # |g,2>
        for t_int in (1, 2, 5):
            total = t_int * math.pi / (math.sqrt(2.0) * p.g)
            res = lindblad.evolve(dm(space, rho0), h, [], total,
                                  StepperConfig(dt_steps=2000))
            assert res.rho.matrix[2, 2].real == pytest.approx(1.0, abs=1e-6)

    def test_damped_cavity_exponential_decay(self):
        # closed form: starting from one photon, <n>(T) = exp(-ly^2 T)
        dim = 3
        space = mode_space(dim)
        ly = 0.25
        total = 20.0
        channel = LindbladChannel(ly * lowering(dim), "leak")
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[1, 1] = 1.0
        res = lindblad.evolve(dm(space, rho0), np.zeros((dim, dim)), [channel],
                              total, StepperConfig(dt_steps=4000))
        expected = damped_cavity_population(total, ly)
        assert res.rho.matrix[1, 1].real == pytest.approx(expected, abs=2e-4)
        assert res.rho.matrix.trace().real == pytest.approx(1.0, abs=1e-6)

    def test_first_order_error_shrinks_linearly(self):
        # halving dt must at least halve the dissipator defect
        dim = 3
        space = mode_space(dim)
        ly = 0.4
        total = 8.0
        channel = LindbladChannel(ly * lowering(dim), "leak")
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[1, 1] = 1.0
        exact = damped_cavity_population(total, ly)
        errs = []
        for steps in (200, 400, 800):
            res = lindblad.evolve(dm(space, rho0), np.zeros((dim, dim)), [channel],
                                  total, StepperConfig(dt_steps=steps))
            errs.append(abs(res.rho.matrix[1, 1].real - exact))
        assert errs[1] < 0.6 * errs[0]
        assert errs[2] < 0.6 * errs[1]

    def test_positivity_floor(self, rng):
        dim = 5
        space = mode_space(dim)
        rho0 = random_hermitian(rng, dim, trace_one=True)
        cfg = StepperConfig(dt_steps=1000)
        res = lindblad.evolve(dm(space, rho0), random_hermitian(rng, dim),
                              [LindbladChannel(0.1 * lowering(dim))], 5.0, cfg)
        assert np.linalg.eigvalsh(res.rho.matrix)[0] >= -10.0 * 5.0 / cfg.dt_steps

    def test_check_state_positivity_limit(self, rng):
        # the limit is on the lowest eigenvalue, whatever the basis
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        stack = np.stack([q @ np.diag(w) @ q.conj().T
                          for w in ([0.5, 0.3, 0.25, -0.05], [0.5, 0.3, 0.4, -0.2])])
        drift = lindblad._check_state(stack[:1], 0)
        assert drift[0] == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(DiagnosticError,
                           match=r"eigenvalue -2\.000e-01 below -0\.1 after the cavity stage"):
            lindblad._check_state(stack, 0)

    def test_check_state_non_finite_and_drift(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        bad = rho.copy()
        bad[0, 1] = np.nan
        with pytest.raises(DiagnosticError,
                           match="non-finite density matrix entries after 7 steps"):
            lindblad._check_state(np.stack([rho, bad]), 7)
        with pytest.raises(DiagnosticError, match=r"trace drift 5\.000e-01 exceeds "
                                                  r"1\.0e-03 after the cavity stage"):
            lindblad._check_state(np.stack([rho, 0.5 * rho]), 0)

    def test_blowup_raises_diagnostic_error(self):
        # a huge dissipative step drives the state far from positivity
        dim = 3
        space = mode_space(dim)
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[2, 2] = 1.0
        channel = LindbladChannel(2.0 * lowering(dim), "strong-leak")
        with pytest.raises(DiagnosticError):
            lindblad.evolve(dm(space, rho0), np.zeros((dim, dim)), [channel],
                            10.0, StepperConfig(dt_steps=2))

    def test_step_warning_for_large_phase(self, rng):
        # the step-phase warning belongs to the stepped path: the run leaks
        dim = 3
        space = mode_space(dim)
        rho0 = random_hermitian(rng, dim, trace_one=True)
        h = 50.0 * np.diag([0.0, 1.0, 2.0])
        leak = [LindbladChannel(0.01 * lowering(dim), "leak")]
        with pytest.warns(RuntimeWarning) as caught:
            lindblad.evolve(dm(space, rho0), h, leak, 1.0, StepperConfig(dt_steps=10))
        # every run is in the rotating frame, so the advice is dt_steps alone
        assert [str(w.message) for w in caught] == [
            "step phase dt*||H|| = 10 rad exceeds 0.1; "
            "consider more dt_steps (--dt-steps, stepper.dt_steps)"]

    @pytest.mark.parametrize("phase, warns", [(0.0999, False), (0.1001, True)])
    def test_step_warning_threshold(self, rng, phase, warns):
        # dt * ||H|| just below and just above 0.1 rad, on a dense H, leaky
        dim = 4
        rho0 = random_hermitian(rng, dim, trace_one=True)
        h = random_hermitian(rng, dim)
        h *= phase / (0.1 * np.linalg.norm(h, 2))
        leak = [LindbladChannel(0.01 * lowering(dim), "leak")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lindblad.evolve(dm(mode_space(dim), rho0), h, leak, 1.0,
                            StepperConfig(dt_steps=10))
        assert any(issubclass(w.category, RuntimeWarning) for w in caught) == warns

    def test_rejects_negative_time(self):
        space = mode_space(2)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(PhysicsValidationError):
            lindblad.evolve(dm(space, rho0), np.zeros((2, 2)), [], -1.0)


class TestExactMasterEquation:
    """How far the first-order leaky numbers sit from the exact master
    equation, through ``oracles.exact_master_equation`` (a dense Liouvillian
    exponential), itself checked against two closed forms first."""

    def test_oracle_matches_damped_cavity(self):
        dim, ly, total = 3, 0.3, 12.0
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[1, 1] = 1.0
        out = exact_master_equation(rho0, np.zeros((dim, dim)), [ly * lowering(dim)], total)
        assert out[1, 1].real == pytest.approx(damped_cavity_population(total, ly), abs=1e-12)
        assert out.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_oracle_matches_lossless_conjugation(self, rng):
        for _ in range(6):
            dim = int(rng.integers(3, 9))
            rho0 = random_hermitian(rng, dim, trace_one=True)
            h = random_hermitian(rng, dim)
            total = rng.uniform(0.1, 20.0)
            u = lindblad.unitary_step_matrix(h, total)
            out = exact_master_equation(rho0, h, [], total)
            assert np.max(np.abs(out - u @ rho0 @ u.conj().T)) <= 1e-12

    def test_cavity_stage_gap_is_first_order(self, space, probe):
        # the gap halves per doubling of dt_steps, and dt_steps = 20000 (the
        # default) puts it below 1e-7
        params = circuit.SimParams(t=3.0, ly_over_g=0.1)
        bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
        stage_in = dm(space, bs @ probe.matrix @ bs.conj().T)
        h = dynamics.build_array_hamiltonian(space, params.phys, frame="rotating")
        jumps = params.ly_over_g * params.g * lindblad.leak_operators(space)
        channels = [LindbladChannel(j) for j in jumps]
        exact = exact_master_equation(stage_in.matrix, h, list(jumps), params.total_time)
        gaps = []
        for n_steps in (500, 1000, 2000, 20000):
            stepped = lindblad.evolve(stage_in, h, channels, params.total_time,
                                      StepperConfig(dt_steps=n_steps))
            assert (stepped.propagation, stepped.n_steps) == ("stepped", n_steps)
            gaps.append(circuit.error_rate(exact, stepped.rho.matrix))
        assert all(1.9 <= a / b <= 2.1 for a, b in zip(gaps[:2], gaps[1:3])), gaps
        assert gaps[3] <= 1e-7, gaps


class TestChannels:
    def test_leak_channels_disabled_at_zero(self, space, probe):
        # a zero leak coefficient makes a point lossless: the closed form, no step
        h = dynamics.build_array_hamiltonian(space, PhysParams(delta=0.3), frame="rotating")
        mats, steps, paths = lindblad.transit(probe.matrix, h, lindblad.leak_operators(space),
                                              [0.0], [30.0])
        assert (steps, paths) == ([0], ["closed_form"])
        assert np.array_equal(mats, lindblad.closed_form(probe.matrix, h, [30.0]))

    def test_leak_channels_target_cavity_rails(self, space):
        jumps = lindblad.leak_operators(space)
        assert np.array_equal(jumps, np.stack([fock.annihilation_matrix("x1", space),
                                               fock.annihilation_matrix("y1", space)]))

    def test_packed_half_m_matches_einsum_bit_for_bit(self, space, monkeypatch):
        # each entry of half_m sums at most two nonzero products, so the
        # order of summation cannot change it
        seen = []
        monkeypatch.setattr(lindblad, "_power_by_sector",
                            lambda rho, u, jumps, half_m, *rest: seen.append((jumps, half_m)))
        unit = lindblad.leak_operators(space)
        lys = np.array([1e-4, 3e-3, 0.02, 0.37, 1.0]) * 0.1
        lindblad.stepped(np.eye(space.dim), np.zeros((space.dim,) * 2), unit, lys,
                         [1.0] * len(lys), StepperConfig(dt_steps=10))
        (jumps, half_m), = seen
        assert np.array_equal(jumps, [ly * unit for ly in lys])
        assert np.array_equal(half_m, 0.5 * np.einsum("pkji,pkjl->pil", jumps.conj(), jumps))
