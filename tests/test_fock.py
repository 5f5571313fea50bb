from dataclasses import astuple

import numpy as np
import pytest

from csign import circuit, fock
from csign.dynamics import PhysParams, build_array_hamiltonian
from csign.errors import PhysicsValidationError
from csign.lindblad import leak_operators

from conftest import random_hermitian
from oracles import (cavity_stage_reachable_oracle, enumerate_reachable_oracle,
                     partial_trace_atoms_oracle)


class TestBasisState:
    def test_total_excitation(self):
        s = fock.BasisState(1, 0, 0, 0, fock.E, fock.G)
        assert s.total_excitation == 2
        assert s.photons == 1

    def test_rejects_excitation_overflow(self):
        with pytest.raises(PhysicsValidationError):
            fock.BasisState(2, 0, 1, 0, 0, 0)

    def test_rejects_idle_rail_double(self):
        with pytest.raises(PhysicsValidationError):
            fock.BasisState(0, 2, 0, 0, 0, 0)

    def test_rejects_both_atoms_excited(self):
        with pytest.raises(PhysicsValidationError):
            fock.BasisState(0, 0, 0, 0, 1, 1)

    def test_rejects_negative(self):
        with pytest.raises(PhysicsValidationError):
            fock.BasisState(-1, 0, 0, 0, 0, 0)


class TestEnumeration:
    def test_full_closure_dimension_is_23(self, space):
        # the oracle filters raw integer tuples by the model's rules, not BasisState
        expected = enumerate_reachable_oracle()
        got = {astuple(s) for s in space.states}
        assert got == expected
        assert space.dim == 23

    def test_closure_is_idempotent(self, space):
        again = fock.enumerate_states()
        assert again.states == space.states

    def test_states_sorted_lexicographically(self, space):
        assert list(space.states) == sorted(space.states)


def _pipeline_matrices(space):
    # the splitter, the cavity stage's H and its leak jumps, as the pipeline builds them
    params = PhysParams(g=0.1, delta=0.48)
    h = build_array_hamiltonian(space, params, frame="rotating")
    jumps = list(0.01 * params.g * leak_operators(space))
    return params, circuit.beamsplitter_unitary(("x1", "y1"), space), h, jumps


def _reach(start, links):
    """Indices reached from the boolean vector ``start`` along ``links[to, from]``."""
    reached = start
    while True:
        grown = reached | (links @ reached)
        if np.array_equal(grown, reached):
            return reached
        reached = grown


class TestReachability:
    """The pipeline, run on its real matrices, reaches every basis state and
    never needs one outside the basis.

    A splitter image outside the basis makes ``beamsplitter_unitary`` raise
    (and criterion 6 checks its unitarity); a leak image outside it shows in
    ``test_number_operator_identity``.
    """

    def test_seeds_close_onto_the_basis(self, space):
        _, bs, h, jumps = _pipeline_matrices(space)
        seeds = np.zeros(space.dim, dtype=bool)
        seeds[list(fock.computational_indices(space))] = True
        splitter = bs != 0
        post_bs1 = splitter @ seeds
        stage = _reach(post_bs1, (h != 0) | np.any(np.array(jumps) != 0, axis=0))
        post_bs2 = splitter @ stage
        assert (seeds | stage | post_bs2).all()
        assert {astuple(space.states[i]) for i in np.flatnonzero(stage)} == \
            cavity_stage_reachable_oracle()

    def test_exchange_is_untruncated_on_cavity_stage(self, space):
        # each cavity couples |g,n> to |e,n-1> with g sqrt(n) and |e,n> to
        # |g,n+1> with g sqrt(n+1); a coupling cut by the basis (the
        # both-excited states) would leave a column short
        params, _, h, _ = _pipeline_matrices(space)
        exchange = h - np.diag(np.diag(h))
        stage = cavity_stage_reachable_oracle()
        for i, s in enumerate(space.states):
            if astuple(s) not in stage:
                continue
            expected = sum(n if a == fock.G else n + 1
                           for n, a in ((s.n_x1, s.a1), (s.n_y1, s.a2)))
            assert np.sum(np.abs(exchange[:, i]) ** 2) == \
                pytest.approx(params.g ** 2 * expected, rel=1e-12)


class TestLadderOperators:
    def test_annihilation_amplitudes(self, space):
        a = fock.annihilation_matrix("x1", space)
        one = space.index_of(fock.BasisState(1, 0, 0, 0, 0, 0))
        two = space.index_of(fock.BasisState(2, 0, 0, 0, 0, 0))
        vac = space.index_of(fock.BasisState(0, 0, 0, 0, 0, 0))
        assert a[vac, one] == pytest.approx(1.0)
        assert a[one, two] == pytest.approx(np.sqrt(2.0))

    def test_number_operator_identity(self, space):
        for rail in fock.RAILS:
            a = fock.annihilation_matrix(rail, space)
            n = a.conj().T @ a
            expected = [s.rail_occupation(rail) for s in space.states]
            assert np.allclose(np.diag(n).real, expected, atol=1e-12)
            assert np.allclose(n, np.diag(np.diag(n)), atol=1e-12)

    def test_commutator_on_raisable_subblock(self, space):
        # [a, a+] = 1 wherever adding one photon stays representable
        for rail in fock.RAILS:
            a = fock.annihilation_matrix(rail, space)
            comm = a @ a.conj().T - a.conj().T @ a
            for i, s in enumerate(space.states):
                raised = dict(zip(fock.RAILS, s.occupations))
                raised[rail] += 1
                try:
                    target = fock.BasisState(raised["x1"], raised["x2"],
                                             raised["y1"], raised["y2"], s.a1, s.a2)
                except PhysicsValidationError:
                    continue
                if target in space:
                    assert comm[i, i] == pytest.approx(1.0, abs=1e-12)

    def test_atom_lowering(self, space):
        s_e = fock.BasisState(0, 0, 0, 0, fock.E, fock.G)
        s_g = fock.BasisState(0, 0, 0, 0, fock.G, fock.G)
        sig = fock.atom_lowering_matrix("a1", space)
        assert sig[space.index_of(s_g), space.index_of(s_e)] == pytest.approx(1.0)
        assert np.allclose(sig[:, space.index_of(s_g)], 0.0)

    def test_atom_raising_lowering_projector(self, space):
        for atom in fock.ATOMS:
            sig = fock.atom_lowering_matrix(atom, space)
            proj = sig.conj().T @ sig
            expected = [float(getattr(s, atom) == fock.E) for s in space.states]
            assert np.allclose(np.diag(proj).real, expected, atol=1e-12)
            assert np.allclose(proj, np.diag(np.diag(proj)), atol=1e-12)

    def test_total_excitation_matrix(self, space):
        n = fock.total_excitation_matrix(space)
        assert np.allclose(np.diag(n).real,
                           [s.total_excitation for s in space.states])

    def test_lowered_state_missing_from_basis_raises(self, space):
        # with the vacuum dropped, x1 and a1 lower (1,0,0,0,g,g) and
        # (0,0,0,0,e,g) out of the basis: the operator must not come back
        # silently truncated
        vacuum = fock.BasisState(0, 0, 0, 0, fock.G, fock.G)
        trimmed = fock.StateSpace(tuple(s for s in space.states if s != vacuum))
        with pytest.raises(KeyError):
            fock.annihilation_matrix("x1", trimmed)
        with pytest.raises(KeyError):
            fock.atom_lowering_matrix("a1", trimmed)


class TestDualRail:
    @pytest.mark.parametrize("qx,qy,expected", [
        (0, 0, (0, 1, 0, 1, 0, 0)),
        (1, 1, (1, 0, 1, 0, 0, 0)),
        (1, 0, (1, 0, 0, 1, 0, 0)),
        (0, 1, (0, 1, 1, 0, 0, 0)),
    ])
    def test_encoding(self, space, qx, qy, expected):
        assert astuple(fock.SEEDS[2 * qx + qy]) == expected
        idx = fock.computational_indices(space)[2 * qx + qy]
        assert astuple(space.states[idx]) == expected

    def test_rejects_state_outside_space(self):
        trimmed = fock.StateSpace(tuple(s for s in fock.default_state_space().states
                                        if s not in fock.SEEDS))
        with pytest.raises(KeyError):
            fock.computational_indices(trimmed)


class TestStateWrappers:
    def test_density_matrix_validation(self, space):
        bad = np.zeros((space.dim, space.dim), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(PhysicsValidationError):
            fock.DensityMatrix(space, bad)

    def test_density_matrix_trace_bound(self, space):
        mat = np.zeros((space.dim, space.dim), dtype=complex)
        mat[0, 0] = 1.5
        with pytest.raises(PhysicsValidationError):
            fock.DensityMatrix(space, mat)


class TestPartialTrace:
    def test_product_state_recovers_photonic_factor(self, space):
        # photon on x2 and y2, atoms ground: reduced state is the projector
        vec = np.zeros(space.dim, dtype=complex)
        vec[space.index_of(fock.BasisState(0, 1, 0, 1, 0, 0))] = 1.0
        rho = fock.DensityMatrix(space, np.outer(vec, vec.conj()))
        red = fock.partial_trace_atoms(rho)
        k = red.space.index_of((0, 1, 0, 1))
        assert red.matrix[k, k] == pytest.approx(1.0)
        assert red.trace == pytest.approx(1.0, abs=1e-12)

    def test_bell_like_reduction(self, space):
        # (|g,1> + |e,0>)/sqrt(2) in the x1 cavity -> even photon mixture
        vec = np.zeros(space.dim, dtype=complex)
        vec[space.index_of(fock.BasisState(1, 0, 0, 0, 0, 0))] = 1 / np.sqrt(2)
        vec[space.index_of(fock.BasisState(0, 0, 0, 0, 1, 0))] = 1 / np.sqrt(2)
        red = fock.partial_trace_atoms(fock.DensityMatrix(space, np.outer(vec, vec.conj())))
        i1 = red.space.index_of((1, 0, 0, 0))
        i0 = red.space.index_of((0, 0, 0, 0))
        assert red.matrix[i1, i1] == pytest.approx(0.5, abs=1e-12)
        assert red.matrix[i0, i0] == pytest.approx(0.5, abs=1e-12)
        assert red.matrix[i1, i0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_bruteforce_on_random_hermitian(self, space, rng):
        tuples = tuple(astuple(s) for s in space.states)
        for _ in range(25):
            mat = random_hermitian(rng, space.dim, trace_one=True)
            rho = fock.DensityMatrix(space, mat, check=False)
            red = fock.partial_trace_atoms(rho)
            expected, photon_states = partial_trace_atoms_oracle(mat, tuples)
            assert tuple(photon_states) == red.space.states
            assert np.allclose(red.matrix, expected, atol=1e-12)

    def test_photonic_basis_is_a_state_space_of_sorted_occupations(self, space):
        red = fock.partial_trace_atoms(fock.DensityMatrix(space, circuit.p_test(space).matrix))
        assert isinstance(red.space, fock.StateSpace)
        assert red.space.states == tuple(sorted({s.occupations for s in space.states}))
        assert red.space.dim == 13
        assert (0, 1, 0, 1) in red.space and fock.SEEDS[0] not in red.space

    def test_linear_and_trace_preserving(self, space, rng):
        a = random_hermitian(rng, space.dim, trace_one=True)
        b = random_hermitian(rng, space.dim, trace_one=True)
        red_a = fock.partial_trace_atoms(fock.DensityMatrix(space, a, check=False))
        red_b = fock.partial_trace_atoms(fock.DensityMatrix(space, b, check=False))
        mix = fock.DensityMatrix(space, 0.25 * a + 0.75 * b, check=False)
        red_mix = fock.partial_trace_atoms(mix)
        assert np.allclose(red_mix.matrix, 0.25 * red_a.matrix + 0.75 * red_b.matrix,
                           atol=1e-12)
        assert red_mix.trace == pytest.approx(mix.trace, abs=1e-12)


def test_beamsplitter_amplitude_structural_zero():
    assert circuit.beamsplitter_amplitude(1, 1, 1) == 0.0
    assert circuit.beamsplitter_amplitude(1, 1, 2) == pytest.approx(1 / np.sqrt(2))
    assert circuit.beamsplitter_amplitude(1, 1, 0) == pytest.approx(-1 / np.sqrt(2))
