"""The per-space and per-Hamiltonian caches change no number.

Constants that depend only on the basis (index maps, masks, the ``p_test``
probe) or only on the Hamiltonian (its spectrum, the sector partition of
the leaky map) are computed once.  These tests check that a run from cold
caches and a run from warm ones agree bit for bit, that the keys tell
inputs apart, that checks on cached inputs still fire, and that nothing a
cache hands out can be written to.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from csign import circuit, dynamics, fock, lindblad
from csign.dynamics import PhysParams
from csign.errors import PhysicsValidationError

from conftest import random_hermitian

MODULES = (fock, dynamics, circuit, lindblad)


def clear_caches():
    """Empty every ``lru_cache`` of the package, as in a fresh process."""
    for module in MODULES:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def report_bits(report):
    return (repr(report.error), repr(report.trace_drift), repr(report.atom_residual),
            repr(report.phase_shift), report.propagation, report.n_steps)


def random_points(rng, count):
    """Lossless, leaky and detuned points with p_test or random inputs."""
    points = []
    for k in range(count):
        ly = 10.0 ** rng.uniform(-4.0, -1.0) if k % 3 == 1 else 0.0
        delta = rng.uniform(-6.0, 6.0) if k % 2 else 0.0
        params = circuit.SimParams(t=rng.uniform(0.0, 100.0), delta_over_g=delta,
                                   ly_over_g=ly, phs=int(rng.integers(0, 2)))
        points.append((params, "random" if k % 4 == 3 else "p_test", k))
    return points


def run(params, selector, seed):
    space = fock.default_state_space()
    return circuit.run_array(circuit.input_state(selector, seed, space), params, space)


class TestColdEqualsWarm:
    def test_reports_bit_identical(self):
        points = random_points(np.random.default_rng(8), 12)
        cold = []
        for point in points:
            clear_caches()
            cold.append(report_bits(run(*point)))
        for point in points:  # fill the caches over the whole sequence first
            run(*point)
        warm = [report_bits(run(*point)) for point in reversed(points)][::-1]
        assert cold == warm
        assert {bits[4] for bits in cold} == {"closed_form", "stepped"}

    def test_equal_spaces_share_entries(self):
        # a separately enumerated basis is equal, hashes equal, and hits the
        # same cache entries as the default one
        space, other = fock.default_state_space(), fock.enumerate_states()
        assert other is not space and other == space and hash(other) == hash(space)
        assert circuit.p_test(other) is circuit.p_test(space)
        assert fock.photon_space(other) == fock.photon_space(space)


class TestSpectrumCache:
    def test_one_entry_apart_gives_a_different_propagator(self, rng):
        h = random_hermitian(rng, 6)
        u = lindblad.unitary_step_matrix(h, 0.7)
        h2 = h.copy()
        h2[2, 2] += 1e-3
        u2 = lindblad.unitary_step_matrix(h2, 0.7)
        assert not np.array_equal(u, u2)
        evals, evecs = np.linalg.eigh(h2)
        assert np.array_equal(u2, (evecs * np.exp(-0.7j * evals)) @ evecs.conj().T)
        assert np.array_equal(lindblad.unitary_step_matrix(h, 0.7), u)

    def test_real_generator_keeps_a_real_spectrum(self, rng):
        h = random_hermitian(rng, 5).real
        evals, evecs = lindblad._spectrum(h)
        assert evecs.dtype == np.float64
        assert lindblad._spectrum(h.astype(complex))[1].dtype == np.complex128
        assert np.array_equal(evecs, np.linalg.eigh(h)[1])

    def test_non_hermitian_raises_every_call(self):
        h = np.array([[0.0, 1.0], [0.0, 0.0]])
        rho = fock.DensityMatrix(SimpleNamespace(dim=2), np.diag([1.0, 0.0]))
        for _ in range(2):
            with pytest.raises(PhysicsValidationError):
                lindblad.unitary_step_matrix(h, 0.1)
            with pytest.raises(PhysicsValidationError):
                lindblad.evolve(rho, h, [], 1.0)


class TestPartitionCache:
    def test_follows_the_zero_pattern(self, rng):
        dim = 6
        h = np.zeros((dim, dim), dtype=complex)
        h[:3, :3] = random_hermitian(rng, 3)
        h[3:, 3:] = random_hermitian(rng, 3)
        jumps = np.zeros((1, dim, dim), dtype=complex)
        jumps[0, 0, 1] = 0.3
        half_m = 0.5 * jumps[0].conj().T @ jumps[0]

        def fresh(h):
            block = lindblad._components(h != 0)
            return block[:, None] == block, lindblad._sectors(h, half_m, jumps)

        def same(cached, expected):
            mask, sectors = cached
            assert np.array_equal(mask, expected[0])
            assert len(sectors) == len(expected[1])
            for group, group_x in zip(sectors, expected[1]):
                assert all(np.array_equal(ix, ix_x) for ix, ix_x in zip(group, group_x))

        first = lindblad._partition(h, half_m, jumps)
        same(first, fresh(h))
        # new values on the same pattern hit the entry
        assert lindblad._partition(2.0 * h, half_m, jumps) is first
        linked = h.copy()
        linked[2, 4] = linked[4, 2] = 0.5
        second = lindblad._partition(linked, half_m, jumps)
        same(second, fresh(linked))
        assert second[0].sum() > first[0].sum()
        same(lindblad._partition(h, half_m, jumps), fresh(h))
        # a stack of points is cached by the union of their zero patterns
        other = np.zeros_like(jumps)
        other[0, 4, 3] = 0.2
        other_m = 0.5 * other[0].conj().T @ other[0]
        union = lindblad._partition(h, np.stack([half_m, other_m]), np.stack([jumps, other]))
        assert union is lindblad._partition(h, half_m + other_m, jumps + other)


class TestReadOnly:
    def test_every_cached_array_is_read_only(self, space):
        h = dynamics.build_array_hamiltonian(space, PhysParams(), frame="rotating")
        jumps, half_m = lindblad._pack_channels(lindblad.leak_channels(space, 1e-3))
        mask, sectors = lindblad._partition(h, half_m, jumps)
        arrays = [
            fock.annihilation_matrix("x1", space), fock.atom_lowering_matrix("a1", space),
            fock.total_excitation_matrix(space), h,
            circuit.beamsplitter_unitary(("x1", "y1"), space),
            circuit.ideal_ns_map("x1", space), circuit.p_test(space).matrix,
            circuit._rail_occupations("x1", space), circuit._excited(space),
            *lindblad._spectrum(h), mask,
        ]
        arrays += [ix for block in fock._atom_blocks(space) for pair in block for ix in pair]
        arrays += list(fock._logical_block(space))
        arrays += [ix for group in sectors for ix in group]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]
