import json
import math
import warnings

import numpy as np
import pytest

from csign import circuit, fock, lindblad
from csign.circuit import SimParams
from csign.dynamics import build_array_hamiltonian
from csign.errors import PhysicsValidationError
from csign.lindblad import StepperConfig

from conftest import random_hermitian
from oracles import csign_zero_leak_error, two_mode_bs_matrix, _tm_idx

FAST = StepperConfig(dt_steps=400)


def pair_state(space, n_x1, n_y1, **rest):
    return space.index_of(fock.BasisState(n_x1, rest.get("n_x2", 0), n_y1,
                                          rest.get("n_y2", 0), 0, 0))


class TestBeamsplitter:
    def test_single_photon_split(self, space):
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        col = b[:, pair_state(space, 1, 0, n_y2=1)]
        plus = pair_state(space, 1, 0, n_y2=1)
        minus = pair_state(space, 0, 1, n_y2=1)
        assert col[plus] == pytest.approx(1 / math.sqrt(2))
        assert col[minus] == pytest.approx(1 / math.sqrt(2))
        assert np.sum(np.abs(col) ** 2) == pytest.approx(1.0)

    def test_vacuum_invariant(self, space):
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        vac = space.index_of(fock.BasisState(0, 0, 0, 0, 0, 0))
        col = b[:, vac]
        assert col[vac] == pytest.approx(1.0)

    def test_hong_ou_mandel(self, space):
        # both photons bunch: |1,1> -> (|2,0> - |0,2>)/sqrt(2)
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        col = b[:, pair_state(space, 1, 1)]
        assert col[pair_state(space, 2, 0)] == pytest.approx(1 / math.sqrt(2))
        assert col[pair_state(space, 0, 2)] == pytest.approx(-1 / math.sqrt(2))
        assert col[pair_state(space, 1, 1)] == 0.0

    def test_unitary_and_involutive(self, space):
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        eye = np.eye(space.dim)
        assert np.max(np.abs(b @ b.conj().T - eye)) < 1e-12
        assert np.max(np.abs(b @ b - eye)) < 1e-12

    def test_matches_ladder_matrix_oracle(self, space):
        # oracle: two-mode matrix built by applying transformed creation ops
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        oracle = two_mode_bs_matrix(2)
        for n in range(3):
            for m in range(3 - n):
                try:
                    col = pair_state(space, n, m)
                except KeyError:
                    continue
                for j in range(n + m + 1):
                    expected = oracle[_tm_idx(j, n + m - j, 2), _tm_idx(n, m, 2)]
                    got = b[pair_state(space, j, n + m - j), col]
                    assert got == pytest.approx(expected, abs=1e-12)

    def test_identity_on_atoms(self, space):
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        i = space.index_of(fock.BasisState(0, 1, 0, 0, 0, 1))
        assert b[i, i] == pytest.approx(1.0)

    def test_rejects_bad_pair(self, space):
        with pytest.raises(PhysicsValidationError):
            circuit.beamsplitter_unitary(("x1", "x1"), space)


class TestPhaseShifter:
    def test_zero_angle_identity(self, space):
        u = circuit.phase_shifter_unitary("x1", 0.0, space)
        assert np.allclose(u, np.eye(space.dim), atol=1e-15)

    def test_pi_on_single_photon(self, space):
        u = circuit.phase_shifter_unitary("x1", math.pi, space)
        one = space.index_of(fock.BasisState(1, 0, 0, 0, 0, 0))
        two = space.index_of(fock.BasisState(2, 0, 0, 0, 0, 0))
        assert u[one, one] == pytest.approx(-1.0)
        assert u[two, two] == pytest.approx(1.0)  # e^{2 i pi}


class TestIdealGates:
    def test_ns_diagonal(self, space):
        ns = circuit.ideal_ns_map("x1", space)
        one = space.index_of(fock.BasisState(1, 0, 0, 0, 0, 0))
        two = space.index_of(fock.BasisState(2, 0, 0, 0, 0, 0))
        assert ns[one, one] == pytest.approx(1.0)
        assert ns[two, two] == pytest.approx(-1.0)

    def test_ns_involution(self, space):
        ns = circuit.ideal_ns_map("y1", space)
        assert np.allclose(ns @ ns, np.eye(space.dim), atol=1e-15)

    def test_csign_flips_only_11(self):
        rho = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
        assert np.allclose(circuit.ideal_csign(rho), rho)  # sign cancels
        plus = np.full((4, 4), 0.25, dtype=complex)
        out = circuit.ideal_csign(plus)
        vec = np.array([1, 1, 1, -1]) / 2
        assert np.allclose(out, np.outer(vec, vec))

    def test_csign_equals_splitter_ns_splitter(self, space):
        # oracle: compose the three full-space ideal matrices and compare on
        # all 16 logical matrix units
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        ns = circuit.ideal_ns_map("x1", space) @ circuit.ideal_ns_map("y1", space)
        pipeline = b @ ns @ b
        idx = fock.computational_indices(space)
        for a in range(4):
            for c in range(4):
                unit = np.zeros((4, 4), dtype=complex)
                unit[a, c] = 1.0
                full = np.zeros((space.dim, space.dim), dtype=complex)
                full[np.ix_(idx, idx)] = unit
                composed = pipeline @ full @ pipeline.conj().T
                expected = circuit.ideal_csign(unit)
                assert np.allclose(composed[np.ix_(idx, idx)], expected, atol=1e-12)
                off = composed.copy()
                off[np.ix_(idx, idx)] = 0.0
                assert np.max(np.abs(off)) < 1e-12

    def test_csign_rejects_wrong_shape(self):
        with pytest.raises(PhysicsValidationError):
            circuit.ideal_csign(np.eye(3))


class TestPTest:
    def test_projector_properties(self, probe):
        assert probe.trace == pytest.approx(1.0, abs=1e-12)
        m = probe.matrix
        assert np.max(np.abs(m @ m - m)) < 1e-12
        assert np.linalg.matrix_rank(m, tol=1e-9) == 1

    def test_uniform_logical_entries(self, space, probe):
        idx = fock.computational_indices(space)
        block = probe.matrix[np.ix_(idx, idx)]
        assert np.allclose(block, 0.25)


class TestErrorRate:
    def test_identical_is_zero(self, rng):
        m = random_hermitian(rng, 6, trace_one=True)
        assert circuit.error_rate(m, m) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_example(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.9, 0.1]).astype(complex)
        assert circuit.error_rate(a, b) == pytest.approx(0.1)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert circuit.error_rate(a, b) == pytest.approx(1.0)

    def test_metric_axioms(self, rng):
        for _ in range(200):
            a = random_hermitian(rng, 5, trace_one=True)
            b = random_hermitian(rng, 5, trace_one=True)
            c = random_hermitian(rng, 5, trace_one=True)
            dab = circuit.error_rate(a, b)
            assert dab == pytest.approx(circuit.error_rate(b, a), abs=1e-13)
            assert dab >= 0.0
            assert circuit.error_rate(a, c) <= dab + circuit.error_rate(b, c) + 1e-12

    def test_unitary_invariance(self, rng):
        # frame invariance underwrites stepping in the rotating frame
        a = random_hermitian(rng, 6, trace_one=True)
        b = random_hermitian(rng, 6, trace_one=True)
        h = random_hermitian(rng, 6)
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(1j * w)) @ v.conj().T
        assert circuit.error_rate(u @ a @ u.conj().T, u @ b @ u.conj().T) == \
            pytest.approx(circuit.error_rate(a, b), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(PhysicsValidationError):
            circuit.error_rate(np.eye(2), np.eye(3))


class TestRunArray:
    # a few cases intentionally use coarse steps at long durations, which is
    # exact at zero leak but trips the step-phase advisory
    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    def test_matches_closed_form_zero_leak(self, space, probe):
        # oracle: pure-overlap error of the lossless pipeline
        cases = [(3, 0.0, 1), (7, 0.0, 1), (7, 0.0, 0), (4.3, 1.7, 1),
                 (2.5, -2.2, 0), (10, 4.8, 1)]
        for t, d, phs in cases:
            params = SimParams(t=t, delta_over_g=d, phs=phs, stepper=FAST)
            report = circuit.run_array(probe, params, space)
            expected = csign_zero_leak_error(t, d, phs)
            assert report.error == pytest.approx(expected, abs=1e-9), (t, d, phs)

    def test_detuning_sign_symmetric(self, space, probe):
        # the error landscape is even in the detuning
        for t, d in ((5.5, 1.25), (9, 4.0)):
            plus = circuit.run_array(probe, SimParams(t=t, delta_over_g=d,
                                                      stepper=FAST), space)
            minus = circuit.run_array(probe, SimParams(t=t, delta_over_g=-d,
                                                       stepper=FAST), space)
            assert plus.error == pytest.approx(minus.error, abs=1e-9)

    def test_ideal_ns_substitution_reproduces_csign(self, space, probe, rng):
        report = circuit.run_array(probe, SimParams(t=5.0), space, use_ideal_ns=True)
        assert report.error <= 1e-9
        for _ in range(20):
            state = circuit.random_valid_input(space, rng, mixed=bool(rng.integers(2)))
            rep = circuit.run_array(state, SimParams(t=1.0), space, use_ideal_ns=True)
            assert rep.error <= 1e-9

    def test_zero_duration(self, space, probe):
        # no cavity action: the two splitters cancel, only the sign is missing
        report = circuit.run_array(probe, SimParams(t=0.0), space)
        assert report.error == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-9)

    def test_lab_frame_agrees_with_rotating(self, space, probe):
        # zero leak makes the stepping exact in either frame
        params_rot = SimParams(t=2.0, delta_over_g=1.1, stepper=FAST)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            params_lab = SimParams(t=2.0, delta_over_g=1.1,
                                   stepper=StepperConfig(dt_steps=400, frame="lab"))
            lab = circuit.run_array(probe, params_lab, space)
        rot = circuit.run_array(probe, params_rot, space)
        assert lab.error == pytest.approx(rot.error, abs=1e-8)
        assert np.allclose(lab.rho_out.matrix, rot.rho_out.matrix, atol=1e-8)

    def test_leak_degrades_gate(self, space, probe):
        clean = circuit.run_array(probe, SimParams(t=3.0, stepper=FAST), space)
        leaky = circuit.run_array(probe, SimParams(t=3.0, ly_over_g=0.05,
                                                   stepper=FAST), space)
        assert leaky.error > clean.error
        assert leaky.rho_out.trace == pytest.approx(1.0, abs=1e-9)

    def test_trace_order_commutes_for_photonic_output(self, space, probe):
        # tracing atoms before or after the output splitter gives the same
        # reduced state
        params = SimParams(t=2.7, delta_over_g=0.8, stepper=FAST)
        report = circuit.run_array(probe, params, space)

        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        mat = b @ probe.matrix @ b.conj().T
        from csign.dynamics import build_array_hamiltonian
        from csign.lindblad import evolve
        h = build_array_hamiltonian(space, params.phys, frame="rotating")
        res = evolve(fock.DensityMatrix(space, mat, check=False), h, [],
                     params.total_time, FAST)
        mat = np.array(res.rho.matrix)
        phi = circuit.compensating_phase(params)
        shift = circuit.phase_shifter_unitary("x1", phi, space) @ \
            circuit.phase_shifter_unitary("y1", phi, space)
        mat = shift @ mat @ shift.conj().T
        reduced_first = fock.partial_trace_atoms(
            fock.DensityMatrix(space, mat, check=False))
        # apply the splitter on the reduced photonic basis
        pspace = reduced_first.space
        bp = np.zeros((pspace.dim, pspace.dim), dtype=complex)
        for col, occ in enumerate(pspace.states):
            n, m = occ[0], occ[2]
            for j in range(n + m + 1):
                amp = fock.beamsplitter_amplitude(n, m, j)
                if amp:
                    bp[pspace.index_of((j, occ[1], n + m - j, occ[3])), col] = amp
        alt = bp @ reduced_first.matrix @ bp.conj().T
        assert np.allclose(alt, report.rho_out.matrix, atol=1e-10)

    def test_rejects_input_off_logical_subspace(self, space):
        vec = np.zeros(space.dim, dtype=complex)
        vec[space.index_of(fock.BasisState(2, 0, 0, 0, 0, 0))] = 1.0
        bad = fock.PureState(space, vec).density_matrix()
        with pytest.raises(PhysicsValidationError):
            circuit.run_array(bad, SimParams(t=1.0, stepper=FAST), space)

    def test_report_serializes(self, space, probe):
        report = circuit.run_array(probe, SimParams(t=1.0, stepper=FAST), space)
        payload = json.loads(report.to_json())
        assert payload["params"]["t"] == 1.0
        assert 0.0 <= payload["error"] <= 1.0
        assert payload["diagnostics"]["dim"] == space.dim
        assert payload["diagnostics"]["propagation"] == "closed_form"
        assert payload["diagnostics"]["n_steps"] == 0

    def test_atom_residual_positive_at_bad_duration(self, space, probe):
        report = circuit.run_array(probe, SimParams(t=2.5, stepper=FAST), space)
        assert report.atom_residual > 1e-3


class TestClosedFormTransit:
    """The lossless closed form against the reference trotter stepper."""

    # the reference stepper's coarse steps trip its step-phase advisory
    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    @staticmethod
    def stepped_stage(rho, params):
        frame = params.stepper.frame
        h = build_array_hamiltonian(rho.space, params.phys, frame=frame)
        return lindblad.evolve(rho, h, [], params.total_time,
                               StepperConfig(dt_steps=2000, frame=frame)), "stepped"

    @staticmethod
    def draws():
        rng = np.random.default_rng(1506)
        cases = [SimParams(t=0.0, delta_over_g=0.0, phs=1),
                 # the stepper's lab-frame round-off grows with the optical phase
                 SimParams(t=1.0, delta_over_g=1.1, phs=0,
                           stepper=StepperConfig(frame="lab"))]
        for _ in range(22):
            cases.append(SimParams(t=float(rng.uniform(0.0, 100.0)),
                                   delta_over_g=float(rng.uniform(-6.0, 6.0)),
                                   phs=int(rng.integers(2))))
        return cases

    def test_matches_stepper_on_random_draws(self, space, probe, monkeypatch):
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        stage_in = fock.DensityMatrix(space, b @ probe.matrix @ b.conj().T, check=False)
        for params in self.draws():
            closed, path = circuit.cavity_stage(stage_in, params)
            stepped, _ = self.stepped_stage(stage_in, params)
            assert path == "closed_form" and closed.n_steps == 0
            assert np.max(np.abs(closed.rho.matrix - stepped.rho.matrix)) <= 1e-9, params
            report = circuit.run_array(probe, params, space)
            with monkeypatch.context() as patch:
                patch.setattr(circuit, "cavity_stage", self.stepped_stage)
                reference = circuit.run_array(probe, params, space)
            assert abs(report.error - reference.error) <= 1e-9, params
            assert np.max(np.abs(report.rho_out.matrix
                                 - reference.rho_out.matrix)) <= 1e-9, params
            assert report.trace_drift <= 1e-12

    def test_leaky_run_is_stepped(self, space, probe, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[3])
            return lindblad.evolve(*args, **kwargs)

        monkeypatch.setattr(circuit, "evolve", spy)
        params = SimParams(t=3.0, ly_over_g=0.01, stepper=FAST)
        report = circuit.run_array(probe, params, space)
        assert calls == [params.total_time]
        assert (report.propagation, report.n_steps) == ("stepped", 400)
        assert circuit.run_array(probe, SimParams(t=3.0), space).propagation == "closed_form"
        assert calls == [params.total_time]


class TestRandomInputAgreement:
    def test_p_test_tracks_random_inputs(self, space, rng):
        # soft regression check: the probe error should be representative of
        # the worst case over random valid inputs (about a factor of two)
        params = SimParams(t=7.0, stepper=FAST)
        base = circuit.run_array(circuit.p_test(space), params, space).error
        worst = 0.0
        for _ in range(30):
            state = circuit.random_valid_input(space, rng, mixed=bool(rng.integers(2)))
            worst = max(worst, circuit.run_array(state, params, space).error)
        ratio = worst / base
        if not (0.5 <= ratio <= 2.0):
            warnings.warn(f"probe-vs-random error ratio {ratio:.2f} outside [0.5, 2]",
                          stacklevel=1)
        assert ratio < 5.0


class TestSimParams:
    def test_duration_conversion(self):
        p = SimParams(t=99.0)
        assert p.total_time == pytest.approx(99 * math.pi / (math.sqrt(2) * 0.1))

    def test_validation(self):
        with pytest.raises(PhysicsValidationError):
            SimParams(t=-1.0)
        with pytest.raises(PhysicsValidationError):
            SimParams(t=1.0, phs=2)
        with pytest.raises(PhysicsValidationError):
            SimParams(t=1.0, ly_over_g=-0.5)

    def test_compensating_phase_zero_leak_resonant(self):
        # at resonance the one-photon amplitude is real: the compensator is
        # 0 or pi depending on its sign
        phi3 = circuit.compensating_phase(SimParams(t=3.0))
        phi7 = circuit.compensating_phase(SimParams(t=7.0))
        assert phi3 == pytest.approx(0.0, abs=1e-12)
        assert abs(phi7) == pytest.approx(math.pi, abs=1e-12)
