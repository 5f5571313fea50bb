import math
from dataclasses import astuple

import numpy as np
import pytest

from csign import dynamics, fock, jc, lindblad
from csign.errors import PhysicsValidationError
from csign.jc import PhysParams

from oracles import array_hamiltonian_oracle, expm, jc_survival_amplitude


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

    def test_rejects_overflowing_rabi_frequency(self):
        # finite inputs whose squares overflow; just below, the largest
        # block's Rabi frequency stays finite
        for g, delta in ((0.1, 1e200), (0.1, -1e155), (1e160, 0.0)):
            with pytest.raises(PhysicsValidationError, match="overflow"):
                PhysParams(g=g, omega_c=1.0, delta=delta)
        assert math.isfinite(jc.rabi_frequency(1, PhysParams(g=0.1, delta=1e153)))
        # a g whose square underflows to 0 leaves the lowest block's Rabi
        # frequency 0 at resonance; a detuning or a larger g keeps it positive
        with pytest.raises(PhysicsValidationError, match="underflow"):
            PhysParams(g=1e-310, omega_c=1.0)
        for g, delta in ((1e-310, 1e-150), (1e-160, 0.0)):
            params = PhysParams(g=g, omega_c=1.0, delta=delta)
            assert jc.rabi_frequency(0, params) > 0
            assert all(math.isfinite(abs(a)) for a in jc.block_amplitudes(1, params, 1.0))


class TestRabiFrequency:
    def test_resonant_ground_block(self):
        assert jc.rabi_frequency(0, params_for()) == pytest.approx(2.0)

    def test_resonant_second_block(self):
        assert jc.rabi_frequency(1, params_for()) == pytest.approx(2 * math.sqrt(2))

    def test_three_four_five(self):
        assert jc.rabi_frequency(0, params_for(g=2.0, delta=3.0)) == pytest.approx(5.0)

    def test_rejects_negative_block(self):
        with pytest.raises(PhysicsValidationError):
            jc.rabi_frequency(-1, params_for())


class TestBlockEigensystem:
    """Each invariant block (|g,n+1>, |e,n>) of the interaction-frame
    Hamiltonian, diagonalized numerically, against the Rabi frequency, and
    :func:`dynamics.analytic_evolve` at half a Rabi cycle against the dressed
    mixing angle of its eigenvectors."""

    def test_matches_numeric_2x2_diagonalization(self, rng):
        for _ in range(200):
            p = params_for(g=rng.uniform(0.05, 3.0), delta=rng.uniform(-5.0, 5.0))
            n = int(rng.integers(0, 2))
            rows = [dynamics.JC_BASIS.index(f"g{n + 1}"), dynamics.JC_BASIS.index(f"e{n}")]
            block = dynamics.build_jc_hamiltonian(p)[np.ix_(rows, rows)]
            evals, evecs = np.linalg.eigh(block)
            omega = jc.rabi_frequency(n, p)
            assert np.allclose(evals, [-omega / 2, omega / 2], atol=1e-12 * omega)
            cos_t, sin_t = evecs[:, 1] * np.sign(evecs[0, 1])
            assert 0.0 < sin_t and 0.0 < cos_t  # theta in (0, pi/2)
            # half a Rabi cycle: |g,n+1> -> -i cos(2 theta) |g,n+1> - i sin(2 theta) |e,n>
            amps = [0.0, 0.0, 0.0]
            amps[n + 1] = 1.0
            out = dynamics.analytic_evolve(tuple(amps), math.pi / omega, p)
            expected = -1j * np.array([cos_t ** 2 - sin_t ** 2, 2 * sin_t * cos_t])
            assert np.allclose(out[rows], expected, atol=1e-10)


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


class TestBlockAmplitudes:
    def test_zero_photons_rejected(self):
        with pytest.raises(PhysicsValidationError, match="photon number"):
            jc.block_amplitudes(0, params_for(delta=1.3), 7.7)

    def test_matches_independent_references(self, rng):
        # u against the rederived survival amplitude, u and v against the
        # numeric exponential of the 2x2 block of the interaction-frame
        # Hamiltonian, relative to the empty cavity's phase exp(-i H[g0, g0] t)
        for _ in range(50):
            p = params_for(g=rng.uniform(0.2, 1.5), delta=rng.uniform(-2, 2))
            t = rng.uniform(0.1, 20)
            h = dynamics.build_jc_hamiltonian(p)
            for n in (1, 2):
                u, v = jc.block_amplitudes(n, p, t)
                assert abs(u - jc_survival_amplitude(n, p.delta / p.g, t, p.g)) <= 1e-12
                rows = [dynamics.JC_BASIS.index(f"g{n}"), dynamics.JC_BASIS.index(f"e{n - 1}")]
                block = expm(-1j * t * h[np.ix_(rows, rows)]) / np.exp(-1j * t * h[0, 0])
                assert np.max(np.abs(block[:, 0] - [u, v])) <= 1e-12
                assert abs(u) ** 2 + abs(v) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestSingleCavityHamiltonian:
    def test_block_structure_exact(self):
        # cross-block entries are structural zeros
        h = dynamics.build_jc_hamiltonian(params_for(delta=0.3))
        blocks = {("g0",): 0, ("g1", "e0"): 1, ("g2", "e1"): 2}
        names = list(dynamics.JC_BASIS)
        for i, a in enumerate(names):
            for j, b in enumerate(names):
                same_block = any(a in grp and b in grp for grp in blocks)
                if not same_block:
                    assert h[i, j] == 0.0

    def test_only_interaction_frame(self):
        # the lab frame is not built: only the interaction frame is checked
        # against the closed form
        with pytest.raises(PhysicsValidationError):
            dynamics.build_jc_hamiltonian(params_for(), frame="lab")


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
                tuple(astuple(s) for s in space.states), p.g, p.omega_c, p.omega_a)
            assert np.allclose(h, oracle, atol=1e-12)

    def test_commutes_with_total_excitation(self, space, rng):
        # with H_lab - H_rot = omega_c N (next test) these make the rotating
        # frame exact: N commutes with H and with each L^dag L, and each leak
        # jump lowers N by one, so its frame phases cancel in L rho L^dag
        n_op = fock.total_excitation_matrix(space)
        for _ in range(50):
            p = params_for(g=rng.uniform(0.05, 2), delta=rng.uniform(-3, 3),
                           omega_c=rng.uniform(1, 40))
            for frame in ("lab", "rotating"):
                h = dynamics.build_array_hamiltonian(space, p, frame=frame)
                comm = h @ n_op - n_op @ h
                assert np.max(np.abs(comm)) <= 1e-12 * max(1.0, p.omega_c)
        jumps = rng.uniform(0.01, 1.0) * lindblad.leak_operators(space)
        assert len(jumps) == 2
        for jump in jumps:
            decay = jump.conj().T @ jump
            assert np.max(np.abs(n_op @ decay - decay @ n_op)) <= 1e-12
            assert np.max(np.abs(n_op @ jump - jump @ n_op + jump)) <= 1e-12

    def test_rotating_frame_subtracts_excitation_term(self, space):
        p = params_for(g=0.4, delta=0.9, omega_c=25.0)
        lab = dynamics.build_array_hamiltonian(space, p, frame="lab")
        rot = dynamics.build_array_hamiltonian(space, p, frame="rotating")
        n_op = fock.total_excitation_matrix(space)
        assert np.allclose(rot, lab - p.omega_c * n_op, atol=1e-10)

    def test_unknown_frame_rejected(self, space):
        with pytest.raises(PhysicsValidationError):
            dynamics.build_array_hamiltonian(space, PhysParams(), frame="galilean")
