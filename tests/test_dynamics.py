import math

import numpy as np
import pytest

from csign import dynamics, fock
from csign.dynamics import PhysParams
from csign.errors import PhysicsValidationError

from oracles import array_hamiltonian_oracle


def params_for(g=1.0, delta=0.0, omega_c=10.0):
    return PhysParams(g=g, omega_c=omega_c, delta=delta)


class TestPhysParams:
    def test_default_cavity_frequency(self):
        p = PhysParams()
        assert p.g == 0.1
        assert p.omega_c == pytest.approx(0.1 * (5.11 / 3.41) * 1e6)
        assert p.omega_a == p.omega_c + p.delta

    def test_omega_a_tracks_detuning(self):
        p = params_for(delta=0.3)
        assert p.omega_a == pytest.approx(10.3)

    def test_rejects_nonpositive_coupling(self):
        with pytest.raises(PhysicsValidationError):
            PhysParams(g=0.0)


class TestRabiFrequency:
    def test_resonant_ground_block(self):
        assert dynamics.rabi_frequency(0, params_for()) == pytest.approx(2.0)

    def test_resonant_second_block(self):
        assert dynamics.rabi_frequency(1, params_for()) == pytest.approx(2 * math.sqrt(2))

    def test_three_four_five(self):
        assert dynamics.rabi_frequency(0, params_for(g=2.0, delta=3.0)) == pytest.approx(5.0)

    def test_rejects_negative_block(self):
        with pytest.raises(PhysicsValidationError):
            dynamics.rabi_frequency(-1, params_for())


class TestBlockEigensystem:
    def test_resonant_splitting(self):
        d = dynamics.jc_block_eigensystem(0, params_for())
        assert d.theta == pytest.approx(math.pi / 4)
        assert d.eps_plus == pytest.approx(0.5 * 10.0 + 1.0)
        assert d.eps_minus == pytest.approx(0.5 * 10.0 - 1.0)

    def test_second_block_values(self):
        p = params_for(delta=0.7)
        d = dynamics.jc_block_eigensystem(1, p)
        omega = math.sqrt(0.7 ** 2 + 8.0)
        assert d.eps_plus == pytest.approx(1.5 * 10.0 + omega / 2)
        assert d.eps_minus == pytest.approx(1.5 * 10.0 - omega / 2)

    def test_ground_energy(self):
        p = params_for(delta=0.4)
        # the uncoupled |g,0> sits at -omega_c/2 - delta/2 in the lab frame
        h = dynamics.build_jc_hamiltonian(p, frame="lab")
        assert h[dynamics.JC_BASIS.index("g0"), dynamics.JC_BASIS.index("g0")] == \
            pytest.approx(-5.0 - 0.2)

    def test_matches_numeric_2x2_diagonalization(self, rng):
        # oracle: eigh of the explicit block matrix
        for _ in range(200):
            g = rng.uniform(0.05, 3.0)
            delta = rng.uniform(-5.0, 5.0)
            omega_c = rng.uniform(1.0, 50.0)
            n = int(rng.integers(0, 3))
            p = params_for(g=g, delta=delta, omega_c=omega_c)
            coupling = math.sqrt(n + 1) * g
            block = np.array([
                [(n + 0.5) * omega_c - delta / 2, coupling],
                [coupling, (n + 0.5) * omega_c + delta / 2],
            ])
            evals, evecs = np.linalg.eigh(block)
            d = dynamics.jc_block_eigensystem(n, p)
            assert d.eps_minus == pytest.approx(evals[0], abs=1e-12 * omega_c)
            assert d.eps_plus == pytest.approx(evals[1], abs=1e-12 * omega_c)
            plus = evecs[:, 1] * np.sign(evecs[0, 1])
            assert np.allclose([math.cos(d.theta), math.sin(d.theta)], plus, atol=1e-10)
            assert 0.0 < d.theta < math.pi / 2


class TestAnalyticEvolve:
    def test_time_zero_identity(self):
        p = params_for(delta=0.9)
        out = dynamics.analytic_evolve((0.4, 0.5, math.sqrt(1 - 0.16 - 0.25)), 0.0, p)
        assert out[0] == pytest.approx(0.4)
        assert out[1] == pytest.approx(0.5)
        assert out[3] == pytest.approx(0.0)
        assert out[4] == pytest.approx(0.0)

    def test_resonant_half_period_sign_flip(self):
        # one photon at resonance: after t = pi/g the amplitude is -1, no
        # residual atom excitation
        p = params_for(g=1.0)
        out = dynamics.analytic_evolve((0, 1, 0), math.pi, p)
        assert out[1] == pytest.approx(-1.0, abs=1e-12)
        assert abs(out[3]) == pytest.approx(0.0, abs=1e-12)

    def test_norm_preserved(self, rng):
        for _ in range(200):
            amps = rng.normal(size=3) + 1j * rng.normal(size=3)
            amps /= np.linalg.norm(amps)
            p = params_for(g=rng.uniform(0.1, 2), delta=rng.uniform(-3, 3))
            out = dynamics.analytic_evolve(amps, rng.uniform(0, 30), p)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(PhysicsValidationError):
            dynamics.analytic_evolve((1.0, 1.0, 0.0), 1.0, params_for())


class TestReturnAmplitude:
    def test_zero_photons_trivial(self):
        assert dynamics.jc_return_amplitude(0, params_for(delta=1.3), 7.7) == 1.0

    def test_matches_analytic_evolve_relative_phase(self, rng):
        # the return amplitude is the n-photon amplitude relative to the
        # empty-cavity sector of the closed-form evolution
        for _ in range(50):
            p = params_for(g=rng.uniform(0.2, 1.5), delta=rng.uniform(-2, 2))
            t = rng.uniform(0.1, 20)
            for n, idx in ((1, 1), (2, 2)):
                amps = [0.0, 0.0, 0.0]
                amps[0] = 1 / math.sqrt(2)
                amps[n] = 1 / math.sqrt(2)
                out = dynamics.analytic_evolve(tuple(amps), t, p)
                relative = out[idx] / out[0]
                assert dynamics.jc_return_amplitude(n, p, t) == pytest.approx(
                    relative, abs=1e-12)


class TestSingleCavityHamiltonian:
    def test_block_structure_exact(self):
        # cross-block entries are structural zeros in both frames
        for frame in ("interaction", "lab"):
            h = dynamics.build_jc_hamiltonian(params_for(delta=0.3), frame=frame)
            blocks = {("g0",): 0, ("g1", "e0"): 1, ("g2", "e1"): 2}
            names = list(dynamics.JC_BASIS)
            for i, a in enumerate(names):
                for j, b in enumerate(names):
                    same_block = any(a in grp and b in grp for grp in blocks)
                    if not same_block:
                        assert h[i, j] == 0.0

    def test_lab_eigenvalues_match_blocks(self):
        p = params_for(delta=-0.8)
        h = dynamics.build_jc_hamiltonian(p, frame="lab")
        evals = np.sort(np.linalg.eigvalsh(h))
        expected = [-0.5 * p.omega_c - 0.5 * p.delta]  # uncoupled |g,0>
        for n in (0, 1):
            d = dynamics.jc_block_eigensystem(n, p)
            expected += [d.eps_minus, d.eps_plus]
        assert np.allclose(evals, np.sort(expected), atol=1e-12)


class TestArrayHamiltonian:
    def test_hermitian(self, space):
        h = dynamics.build_array_hamiltonian(space, PhysParams())
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12

    def test_idle_photons_diagonal_element(self, space):
        p = params_for(g=0.1, omega_c=17.0, delta=0.0)
        h = dynamics.build_array_hamiltonian(space, p)
        i = space.index_of(fock.BasisState(0, 1, 0, 1, 0, 0))
        assert h[i, i] == pytest.approx(2 * 17.0)

    def test_coupling_element_is_g(self, space):
        p = params_for(g=0.37, omega_c=5.0)
        h = dynamics.build_array_hamiltonian(space, p)
        g1 = space.index_of(fock.BasisState(1, 0, 0, 0, 0, 0))
        e0 = space.index_of(fock.BasisState(0, 0, 0, 0, 1, 0))
        assert h[e0, g1] == pytest.approx(0.37)

    def test_matches_elementwise_oracle(self, space, rng):
        for _ in range(25):
            p = params_for(g=rng.uniform(0.05, 2), delta=rng.uniform(-3, 3),
                           omega_c=rng.uniform(1, 40))
            h = dynamics.build_array_hamiltonian(space, p)
            oracle = array_hamiltonian_oracle(
                tuple(s.as_tuple() for s in space.states), p.g, p.omega_c, p.omega_a)
            assert np.allclose(h, oracle, atol=1e-12)

    def test_commutes_with_total_excitation(self, space, rng):
        n_op = fock.total_excitation_matrix(space)
        for _ in range(50):
            p = params_for(g=rng.uniform(0.05, 2), delta=rng.uniform(-3, 3),
                           omega_c=rng.uniform(1, 40))
            for frame in ("lab", "rotating"):
                h = dynamics.build_array_hamiltonian(space, p, frame=frame)
                comm = h @ n_op - n_op @ h
                assert np.max(np.abs(comm)) <= 1e-12 * max(1.0, p.omega_c)

    def test_rotating_frame_subtracts_excitation_term(self, space):
        p = params_for(g=0.4, delta=0.9, omega_c=25.0)
        lab = dynamics.build_array_hamiltonian(space, p, frame="lab")
        rot = dynamics.build_array_hamiltonian(space, p, frame="rotating")
        n_op = fock.total_excitation_matrix(space)
        assert np.allclose(rot, lab - p.omega_c * n_op, atol=1e-10)

    def test_unknown_frame_rejected(self, space):
        with pytest.raises(PhysicsValidationError):
            dynamics.build_array_hamiltonian(space, PhysParams(), frame="galilean")
