"""The per-space caches and the Hamiltonian cache change no number.

Constants that depend only on the basis (index maps, masks, the ``p_test``
probe) and the Hamiltonian of a parameter set are computed once; the
spectrum of H and the sector partition of the leaky map are not cached
(see ``tests/test_lindblad.py``).  These tests check that a run from cold
caches and a run from warm ones agree bit for bit, that equal bases share
entries, and that nothing a cache hands out can be written to.
"""

import numpy as np
import pytest

from csign import circuit, dynamics, fock
from csign.dynamics import PhysParams

MODULES = (fock, dynamics, circuit)


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


class TestReadOnly:
    def test_every_cached_array_is_read_only(self, space):
        h = dynamics.build_array_hamiltonian(space, PhysParams(), frame="rotating")
        arrays = [
            fock.annihilation_matrix("x1", space), fock.atom_lowering_matrix("a1", space),
            fock.total_excitation_matrix(space), h,
            circuit.beamsplitter_unitary(("x1", "y1"), space),
            circuit.ideal_ns_map("x1", space), circuit.p_test(space).matrix,
            circuit._rail_occupations("x1", space), circuit._excited(space),
        ]
        arrays += [ix for block in fock._atom_blocks(space) for pair in block for ix in pair]
        arrays += list(fock._logical_block(space))
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]
