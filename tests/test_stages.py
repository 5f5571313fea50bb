"""The array's four stages on a raw matrix: the coupling is the unit, and the
logical channel keeps each logical entry in place."""

import math

import numpy as np
import pytest

from csign import circuit, fock, jc, lindblad
from csign.circuit import SimParams
from csign.dynamics import build_array_hamiltonian
from csign.jc import PhysParams

#: the detuning of the t = 99 optimum, in units of the coupling
DETUNED = 4.79975


def stages(rho, space, t, delta_over_g, ly_over_g, g=PhysParams.g):
    """The output of the array on the raw matrix ``rho`` at the coupling ``g``,
    shifter on: the first splitter, ``lindblad.transit``, the shifter at
    ``jc.compensating_phase`` and the second splitter.  Linear in ``rho``,
    which need not be a state."""
    phys = PhysParams(g=g, delta=delta_over_g * g)
    total = t * math.pi / (math.sqrt(2.0) * g)
    bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
    h = build_array_hamiltonian(space, phys, frame="rotating")
    (mat,), _, _ = lindblad.transit(bs @ rho @ bs.conj().T, h, lindblad.leak_operators(space),
                                    [ly_over_g * g], [total])
    shift = circuit.phase_shifter(jc.compensating_phase(phys, total), space)
    return bs @ (shift[:, None] * mat * shift.conj()[None, :]) @ bs.conj().T


@pytest.mark.parametrize("g", [0.037, 0.2, 1.0])
@pytest.mark.parametrize("leaky", [False, True], ids=["lossless", "leaky"])
def test_run_at_a_coupling_is_the_unit_run_at_scaled_leak(space, probe, rng, g, leaky):
    # g enters only through the leak, kappa/g = (ly/g)^2 g, so ly/g * sqrt(g/0.1)
    # at the unit coupling is ly/g at g
    for _ in range(3):
        t = float(rng.choice([rng.uniform(0.0, 100.0), 99.0]))
        delta_over_g = float(rng.choice([0.0, DETUNED, rng.uniform(-6.0, 6.0)]))
        ly_over_g = 10.0 ** rng.uniform(-3.0, -1.0) if leaky else 0.0
        at_g = stages(probe.matrix, space, t, delta_over_g, ly_over_g, g)
        at_unit = stages(probe.matrix, space, t, delta_over_g,
                         ly_over_g * math.sqrt(g / PhysParams.g))
        assert np.max(np.abs(at_g - at_unit)) <= 1e-10, (t, delta_over_g, ly_over_g)


@pytest.fixture(scope="module", params=[(99.0, 0.0, 1e-2), (99.0, DETUNED, 1e-2),
                                        (3.0, 0.0, 1e-1)], ids=lambda p: "-".join(map(str, p)))
def channel(request, space):
    """A point (t, delta_over_g, ly_over_g) and the array's output of each
    logical matrix unit |a><b| there, as ``outs[a, b]``."""
    idx = fock.computational_indices(space)
    outs = np.empty((4, 4, space.dim, space.dim), dtype=complex)
    for a in range(4):
        for b in range(4):
            unit = np.zeros((space.dim, space.dim), dtype=complex)
            unit[idx[a], idx[b]] = 1.0
            outs[a, b] = stages(unit, space, *request.param)
    return request.param, outs


def embedded(space, block):
    """A full matrix holding the 4x4 ``block`` on the logical states."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    mat[fock._logical_block(space)] = block
    return mat


class TestLogicalChannel:
    def test_each_logical_entry_stays_in_place(self, space, channel):
        # the image of |a><b| has no logical entry but (a, b), exactly
        _, outs = channel
        for a in range(4):
            for b in range(4):
                block = outs[a, b][fock._logical_block(space)]
                assert block[a, b] != 0.0
                block[a, b] = 0.0
                assert not block.any(), (a, b)

    def test_channel_reproduces_run_array(self, space, rng, channel):
        (t, delta_over_g, ly_over_g), outs = channel
        rho = circuit.random_valid_input(space, rng, mixed=True)
        block = rho.matrix[fock._logical_block(space)]
        error = circuit.error_rate(embedded(space, circuit.ideal_csign(block)),
                                   np.einsum("ab,abij->ij", block, outs))
        params = SimParams(t=t, delta_over_g=delta_over_g, ly_over_g=ly_over_g)
        assert abs(error - circuit.run_array(rho, params, space).error) <= 1e-15

    def test_p_test_error_is_the_maximally_entangled_error(self, space, probe, channel):
        # sum_a |a>|a>/2 with a 4-level reference: 1/4 sum_ab E(|a><b|) (x) |a><b|
        (t, delta_over_g, ly_over_g), outs = channel
        units = np.eye(4)
        ideal = np.zeros((4 * space.dim, 4 * space.dim), dtype=complex)
        output = np.zeros_like(ideal)
        for a in range(4):
            for b in range(4):
                ref = np.outer(units[a], units[b]) / 4
                ideal += np.kron(embedded(space, circuit.ideal_csign(4 * ref)), ref)
                output += np.kron(outs[a, b], ref)
        params = SimParams(t=t, delta_over_g=delta_over_g, ly_over_g=ly_over_g)
        assert abs(circuit.error_rate(ideal, output)
                   - circuit.run_array(probe, params, space).error) <= 1e-15
