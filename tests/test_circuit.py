import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from csign import circuit, fock, jc, lindblad
from csign.circuit import SimParams
from csign.dynamics import build_array_hamiltonian
from csign.errors import DiagnosticError, PhysicsValidationError
from csign.lindblad import StepperConfig

from conftest import random_hermitian
from oracles import csign_zero_leak_error, trotter_steps, two_mode_bs_matrix, _tm_idx

FAST = StepperConfig(dt_steps=400)


def ideal_ns(space, *rails):
    """The ideal nonlinear sign on each of ``rails``, occupations (0, 1, 2) ->
    (1, 1, -1), as a dense diagonal over the basis."""
    signs = [(-1.0) ** sum(s.rail_occupation(rail) == 2 for rail in rails)
             for s in space.states]
    return np.diag(signs).astype(complex)


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
        # a splitter on an idle rail bunches two photons there, outside the
        # basis; the error names the pair
        for pair in (("x1", "x1"), ("x1", "x2"), ("x2", "y2"), ("y1", "y2")):
            with pytest.raises(PhysicsValidationError, match=re.escape(str(pair))):
                circuit.beamsplitter_unitary(pair, space)


class TestPhaseShifter:
    def test_zero_angle_identity(self, space):
        assert np.array_equal(circuit.phase_shifter(0.0, space), np.ones(space.dim))

    def test_pi_on_single_photon(self, space):
        shift = circuit.phase_shifter(math.pi, space)
        for photons, phase in (((1, 0), -1.0), ((2, 0), 1.0), ((0, 1), -1.0),
                               ((1, 1), 1.0)):  # e^{i pi n} over both rails
            idx = space.index_of(fock.BasisState(photons[0], 0, photons[1], 0, 0, 0))
            assert shift[idx] == pytest.approx(phase)

    def test_angles_give_one_diagonal_each(self, space):
        angles = np.array([0.3, -1.2, 2.0])
        stack = circuit.phase_shifter(angles, space)
        assert stack.shape == (3, space.dim)
        for angle, row in zip(angles, stack):
            assert np.array_equal(row, circuit.phase_shifter(angle, space))


class TestIdealGates:
    def test_ns_diagonal(self, space):
        ns = ideal_ns(space, "x1")
        one = space.index_of(fock.BasisState(1, 0, 0, 0, 0, 0))
        two = space.index_of(fock.BasisState(2, 0, 0, 0, 0, 0))
        assert ns[one, one] == pytest.approx(1.0)
        assert ns[two, two] == pytest.approx(-1.0)

    def test_ns_involution(self, space):
        ns = ideal_ns(space, "y1")
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
        ns = ideal_ns(space, "x1", "y1")
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

    def test_stack_is_scored_per_matrix(self, rng):
        a = random_hermitian(rng, 6, trace_one=True)
        stack = np.stack([random_hermitian(rng, 6, trace_one=True) for _ in range(5)])
        errors = circuit.error_rate(a, stack)
        assert errors.shape == (5,)
        assert [float(e) for e in errors] == [circuit.error_rate(a, m) for m in stack]
        with pytest.raises(PhysicsValidationError):
            circuit.error_rate(np.eye(2), np.stack([np.eye(3)] * 2))


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
        # the cavity stage runs in the rotating frame; the lab frame, which
        # resolves the optical frequency, must give the same state
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        stage_in = fock.DensityMatrix(space, b @ probe.matrix @ b.conj().T, check=False)
        for ly_over_g in (0.0, 0.1):
            params = SimParams(t=2.0, delta_over_g=1.1, ly_over_g=ly_over_g)
            jumps = params.ly_over_g * params.g * lindblad.leak_operators(space)
            channels = [lindblad.LindbladChannel(j) for j in jumps] if ly_over_g else []
            lab, rot = (lindblad.evolve(
                stage_in, build_array_hamiltonian(space, params.phys, frame=frame),
                channels, params.total_time, FAST).rho.matrix
                for frame in ("lab", "rotating"))
            assert np.max(np.abs(lab - rot)) <= 1e-8, ly_over_g

    def test_leak_degrades_gate(self, space, probe):
        clean = circuit.run_array(probe, SimParams(t=3.0, stepper=FAST), space)
        leaky = circuit.run_array(probe, SimParams(t=3.0, ly_over_g=0.05,
                                                   stepper=FAST), space)
        assert leaky.error > clean.error
        assert leaky.trace_drift <= 1e-9

    def test_trace_order_commutes_for_photonic_output(self, space, probe):
        # tracing atoms before or after the output splitter gives the same
        # reduced state
        params = SimParams(t=2.7, delta_over_g=0.8, stepper=FAST)
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        mat = b @ probe.matrix @ b.conj().T
        h = build_array_hamiltonian(space, params.phys, frame="rotating")
        res = lindblad.evolve(fock.DensityMatrix(space, mat, check=False), h, [],
                              params.total_time, FAST)
        phi = jc.compensating_phase(params.phys, params.total_time)
        shift = circuit.phase_shifter(phi, space)
        mat = shift[:, None] * res.rho.matrix * shift.conj()[None, :]
        reduced_first = fock.partial_trace_atoms(
            fock.DensityMatrix(space, mat, check=False))
        reduced_last = fock.partial_trace_atoms(
            fock.DensityMatrix(space, b @ mat @ b.conj().T, check=False))
        # apply the splitter on the reduced photonic basis
        pspace = reduced_first.space
        bp = np.zeros((pspace.dim, pspace.dim), dtype=complex)
        for col, occ in enumerate(pspace.states):
            n, m = occ[0], occ[2]
            for j in range(n + m + 1):
                amp = circuit.beamsplitter_amplitude(n, m, j)
                if amp:
                    bp[pspace.index_of((j, occ[1], n + m - j, occ[3])), col] = amp
        alt = bp @ reduced_first.matrix @ bp.conj().T
        assert np.max(np.abs(alt - reduced_last.matrix)) <= 1e-10

    def test_rejects_input_off_logical_subspace(self, space):
        vec = np.zeros(space.dim, dtype=complex)
        vec[space.index_of(fock.BasisState(2, 0, 0, 0, 0, 0))] = 1.0
        bad = fock.DensityMatrix(space, np.outer(vec, vec.conj()))
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

    def test_report_fields_are_what_the_json_reports(self, space, probe):
        # a per-point field that no output reads fails here
        report = circuit.run_array(probe, SimParams(t=1.0), space)
        payload = json.loads(report.to_json())
        # in field order: a new field shows up in the JSON where it is declared
        names = [f.name for f in dataclasses.fields(circuit.GateReport)]
        assert list(payload) == ["params", "error", "diagnostics"]
        assert names == ["params", "error", *payload["diagnostics"]]

    def test_atom_residual_positive_at_bad_duration(self, space, probe):
        report = circuit.run_array(probe, SimParams(t=2.5, stepper=FAST), space)
        assert report.atom_residual > 1e-3


class TestClosedFormTransit:
    """The lossless closed form against the explicit step loop
    ``oracles.trotter_steps`` with no jumps."""

    REFERENCE_STEPS = 2000

    @classmethod
    def stepped(cls, rho, h, total_time):
        dt = total_time / cls.REFERENCE_STEPS
        return trotter_steps(rho, lindblad.unitary_step_matrix(h, dt), [], dt,
                             cls.REFERENCE_STEPS)

    @classmethod
    def stepped_transits(cls, rho, h, times):
        # stands in for ``lindblad.closed_form`` in ``run_batch``
        return np.stack([cls.stepped(rho, h, total_time) for total_time in times])

    @staticmethod
    def draws():
        rng = np.random.default_rng(1506)
        cases = [SimParams(t=0.0, delta_over_g=0.0, phs=1),
                 SimParams(t=1.0, delta_over_g=1.1, phs=0)]
        for _ in range(22):
            cases.append(SimParams(t=float(rng.uniform(0.0, 100.0)),
                                   delta_over_g=float(rng.uniform(-6.0, 6.0)),
                                   phs=int(rng.integers(2))))
        return cases

    def test_matches_stepper_on_random_draws(self, space, probe, monkeypatch):
        b = circuit.beamsplitter_unitary(("x1", "y1"), space)
        stage_in = fock.DensityMatrix(space, b @ probe.matrix @ b.conj().T, check=False)
        for params in self.draws():
            h = build_array_hamiltonian(space, params.phys, frame="rotating")
            closed = lindblad.evolve(stage_in, h, [], params.total_time)
            stepped = self.stepped(stage_in.matrix, h, params.total_time)
            assert (closed.propagation, closed.n_steps) == ("closed_form", 0)
            assert np.max(np.abs(closed.rho.matrix - stepped)) <= 1e-9, params
            report = circuit.run_array(probe, params, space)
            assert (report.propagation, report.n_steps) == ("closed_form", 0)
            with monkeypatch.context() as patch:
                patch.setattr(lindblad, "closed_form", self.stepped_transits)
                reference = circuit.run_array(probe, params, space)
            assert abs(report.error - reference.error) <= 1e-9, params
            assert report.trace_drift <= 1e-12

    def test_leaky_run_is_stepped(self, space, probe, monkeypatch):
        # every non-ideal run makes exactly one cavity-stage call: a one-point
        # ``stepped`` stack when leaky, a one-point ``closed_form`` stack when
        # lossless
        calls = []
        stepped, closed_form = lindblad.stepped, lindblad.closed_form

        def stepped_spy(rho, h, jumps, lys, times, cfg):
            calls.append(("stepped", len(jumps), list(lys), list(times)))
            return stepped(rho, h, jumps, lys, times, cfg)

        def closed_form_spy(rho, h, times):
            calls.append(("closed_form", list(times)))
            return closed_form(rho, h, times)

        monkeypatch.setattr(lindblad, "stepped", stepped_spy)
        monkeypatch.setattr(lindblad, "closed_form", closed_form_spy)
        params = SimParams(t=3.0, ly_over_g=0.01, stepper=FAST)
        report = circuit.run_array(probe, params, space)
        leak = [params.ly_over_g * params.g]
        assert calls == [("stepped", 2, leak, [params.total_time])]
        assert (report.propagation, report.n_steps) == ("stepped", 400)
        lossless = circuit.run_array(probe, SimParams(t=3.0, stepper=FAST), space)
        assert (lossless.propagation, lossless.n_steps) == ("closed_form", 0)
        assert calls == [("stepped", 2, leak, [params.total_time]),
                         ("closed_form", [params.total_time])]
        circuit.run_array(probe, params, space, use_ideal_ns=True)
        assert len(calls) == 2


def report_bits(report):
    """Everything a report says except its wall time, floats by their repr."""
    payload = json.loads(report.to_json())
    del payload["diagnostics"]["wall_ms"]
    return json.dumps(payload)


class TestRunBatch:
    """``run_batch`` is ``run_array`` over many points, to the last bit."""

    pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

    @staticmethod
    def mixed_points():
        # more than BATCH_SLICE points at one Hamiltonian, so a slice boundary
        # falls inside it, and a few at two other detunings
        rng = np.random.default_rng(1506)
        deltas = [0.0] * (circuit.BATCH_SLICE + 8) + [1.3] * 6 + [-2.2] * 6
        rng.shuffle(deltas)
        return [SimParams(t=0.0 if k % 17 == 3 else float(rng.uniform(0.0, 100.0)),
                          delta_over_g=delta, ly_over_g=0.02 if k % 9 == 4 else 0.0,
                          phs=int(rng.integers(2)), stepper=FAST)
                for k, delta in enumerate(deltas)]

    def test_matches_run_array_bit_for_bit(self, space, probe):
        points = self.mixed_points()
        assert sum(p.delta_over_g == 0.0 for p in points) > circuit.BATCH_SLICE
        mixed = circuit.random_valid_input(space, np.random.default_rng(7), mixed=True)
        for state in (probe, mixed):
            batch = circuit.run_batch(state, points, space)
            assert len(batch) == len(points)
            paths = {report.propagation for report in batch}
            assert paths == {"closed_form", "stepped"}
            for params, report in zip(points, batch):
                alone = circuit.run_array(state, params, space)
                assert report.params is params
                assert report_bits(report) == report_bits(alone), params

    def test_leaky_slice_matches_run_array_bit_for_bit(self, space, probe, monkeypatch):
        # one Hamiltonian: leaky points at several leaks (one so small that
        # its square underflows to 0 in half_m) and two step counts, more
        # than eight of one count, among lossless points and points at t = 0
        rng = np.random.default_rng(1408)
        slow = StepperConfig(dt_steps=250)
        leaks = [0.0, 1e-169, 1e-4, 3e-3, 0.02, 0.1]
        points = [SimParams(t=0.0 if k % 7 == 5 else float(rng.uniform(0.5, 100.0)),
                            ly_over_g=leaks[k % len(leaks)], phs=int(rng.integers(2)),
                            stepper=slow if k % 4 == 1 else FAST)
                  for k in range(25)]
        calls = []
        stepped = lindblad.stepped

        def stepped_spy(rho, h, jumps, lys, times, cfg):
            calls.append((cfg.dt_steps, len(times)))
            return stepped(rho, h, jumps, lys, times, cfg)

        monkeypatch.setattr(lindblad, "stepped", stepped_spy)
        for state in (probe, circuit.random_valid_input(space, rng, mixed=True)):
            calls.clear()
            batch = circuit.run_batch(state, points, space)
            leaky = [p for p in points if p.ly_over_g and p.t]
            # one stepped call per step count
            assert sorted(calls) == [(slow.dt_steps, sum(p.stepper == slow for p in leaky)),
                                     (FAST.dt_steps, sum(p.stepper == FAST for p in leaky))]
            assert max(n for _, n in calls) > 8
            assert {(r.propagation, r.n_steps) for r in batch} == {
                ("closed_form", 0), ("stepped", 0), ("stepped", 250), ("stepped", 400)}
            for params, report in zip(points, batch):
                assert report_bits(report) == \
                    report_bits(circuit.run_array(state, params, space)), params

    def test_one_stack_per_hamiltonian_slice(self, space, probe, monkeypatch):
        calls = []
        closed_form = lindblad.closed_form

        def closed_form_spy(rho, h, times):
            calls.append(len(times))
            return closed_form(rho, h, times)

        monkeypatch.setattr(lindblad, "closed_form", closed_form_spy)
        points = [SimParams(t=1.0 + k) for k in range(circuit.BATCH_SLICE + 6)]
        points += [SimParams(t=2.0, delta_over_g=1.0), SimParams(t=0.0)]
        circuit.run_batch(probe, points, space)
        # a point at t = 0 keeps its input and makes no call
        assert calls == [circuit.BATCH_SLICE, 6, 1]

    def test_leaky_stack_is_bounded_by_the_slice(self, space, probe, monkeypatch):
        # BATCH_SLICE + 3 leaky points at one Hamiltonian and one step count:
        # one stepped call per slice, each with one matrix power per touched
        # sector size, whatever its point count
        calls = []
        stepped, power = lindblad.stepped, np.linalg.matrix_power

        def stepped_spy(rho, h, jumps, lys, times, cfg):
            calls.append((len(times), []))
            return stepped(rho, h, jumps, lys, times, cfg)

        def power_spy(a, n):
            calls[-1][1].append(a.shape[-1])
            return power(a, n)

        monkeypatch.setattr(lindblad, "stepped", stepped_spy)
        monkeypatch.setattr(np.linalg, "matrix_power", power_spy)
        points = [SimParams(t=1.0 + k, ly_over_g=1e-3, stepper=FAST)
                  for k in range(circuit.BATCH_SLICE + 3)]
        circuit.run_batch(probe, points, space)
        assert [n for n, _ in calls] == [circuit.BATCH_SLICE, 3]
        for _, sizes in calls:
            assert sorted(sizes) == sorted(set(sizes)) and len(sizes) == 6

    def test_one_phys_params_per_slice(self, space, probe, monkeypatch):
        # the Hamiltonian and the shifter angle of a slice share one
        # PhysParams (each point also builds one when it is made, to check it)
        built = []

        class CountedPhysParams(jc.PhysParams):
            def __post_init__(self):
                built.append(self.delta)
                super().__post_init__()

        points = [SimParams(t=1.0 + k, ly_over_g=0.01 if k % 5 == 2 else 0.0, stepper=FAST)
                  for k in range(circuit.BATCH_SLICE + 6)]
        points.insert(3, SimParams(t=2.0, delta_over_g=1.0))
        monkeypatch.setattr(circuit, "PhysParams", CountedPhysParams)
        batch = circuit.run_batch(probe, points, space)
        assert all(isinstance(report, circuit.GateReport) for report in batch)
        assert sorted(built) == [0.0, 0.0, 0.1]
        built.clear()
        circuit.run_batch(probe, points, space, use_ideal_ns=True)
        assert built == []

    def test_failing_point_fails_alone(self, space, probe):
        bad = SimParams(t=150.0, ly_over_g=1.0, stepper=StepperConfig(dt_steps=1))
        good = [SimParams(t=3.0), SimParams(t=7.0, ly_over_g=0.01, stepper=FAST),
                SimParams(t=17.0)]
        batch = circuit.run_batch(probe, [good[0], bad, *good[1:]], space)
        with pytest.raises(DiagnosticError) as alone:
            circuit.run_array(probe, bad, space)
        assert type(batch[1]) is DiagnosticError
        assert str(batch[1]) == str(alone.value)
        for params, report in zip(good, batch[:1] + batch[2:]):
            assert report_bits(report) == report_bits(circuit.run_array(probe, params, space))

    @pytest.fixture
    def checks(self, monkeypatch):
        """(stack size, message or None) of each state check of the pipeline."""
        calls = []
        check_state = circuit._check_state

        def check_spy(mats, n_steps):
            calls.append((len(mats), None))
            try:
                return check_state(mats, n_steps)
            except DiagnosticError as exc:
                calls[-1] = (len(mats), str(exc))
                raise

        monkeypatch.setattr(circuit, "_check_state", check_spy)
        return calls

    def test_failing_point_fails_the_stack(self, space, probe, checks):
        # the slice's one state check raises and names the step count; the
        # slice then reruns point by point, one check per point
        slow = StepperConfig(dt_steps=2)
        points = [SimParams(t=3.0, ly_over_g=1e-3, stepper=slow),
                  SimParams(t=150.0, ly_over_g=1.0, stepper=slow), SimParams(t=7.0, stepper=slow)]
        batch = circuit.run_batch(probe, points, space)
        assert [n for n, _ in checks] == [3, 1, 1, 1]
        assert [message is None for _, message in checks] == [False, True, False, True]
        assert "below -0.1 after 2 steps" in checks[0][1]
        assert type(batch[1]) is DiagnosticError
        assert str(batch[1]) == checks[2][1]
        assert [r.n_steps for r in batch[::2]] == [2, 0]

    def test_one_state_check_per_slice(self, space, probe, checks):
        # lossless, leaky and t = 0 points of one slice, then ideal-sign
        # points: one check each
        points = [SimParams(t=3.0, stepper=FAST), SimParams(t=7.0, ly_over_g=0.01, stepper=FAST),
                  SimParams(t=0.0, stepper=FAST), SimParams(t=0.0, ly_over_g=0.01, stepper=FAST),
                  SimParams(t=17.0, ly_over_g=0.02, stepper=FAST)]
        batch = circuit.run_batch(probe, points, space)
        assert checks == [(5, None)]
        assert [(r.propagation, r.n_steps) for r in batch] == [
            ("closed_form", 0), ("stepped", 400), ("closed_form", 0), ("stepped", 0),
            ("stepped", 400)]
        ideal = circuit.run_batch(probe, points, space, use_ideal_ns=True)
        assert checks == [(5, None)] * 2
        assert {r.propagation for r in ideal} == {"ideal_ns"}

    def test_ideal_ns_trace_drift_is_measured(self, space, rng):
        # the ideal-sign stage's own drift, not a hard-coded 0
        bs = circuit.beamsplitter_unitary(("x1", "y1"), space)
        ns = ideal_ns(space, "x1", "y1")
        drifts = []
        for state in [circuit.random_valid_input(space, rng, mixed=True) for _ in range(8)]:
            report = circuit.run_array(state, SimParams(t=1.0), space, use_ideal_ns=True)
            stage = ns @ (bs @ state.matrix @ bs.conj().T) @ ns.conj().T
            assert report.trace_drift == abs(np.trace(stage).real - 1.0)
            drifts.append(report.trace_drift)
        assert max(drifts) > 0.0

    def test_stacked_stage_failure_reruns_the_slice(self, space, probe, monkeypatch):
        # a stage that runs once per slice raises for one point: the slice
        # reruns point by point, and only that point fails
        phase = circuit.compensating_phase

        def failing_phase(phys, total_time):
            if total_time == SimParams(t=7.0).total_time:
                raise PhysicsValidationError("no phase at t = 7")
            return phase(phys, total_time)

        monkeypatch.setattr(circuit, "compensating_phase", failing_phase)
        points = [SimParams(t=t) for t in (3.0, 7.0, 17.0)]
        batch = circuit.run_batch(probe, points, space)
        assert str(batch[1]) == "no phase at t = 7"
        monkeypatch.undo()
        for k in (0, 2):
            assert report_bits(batch[k]) == \
                report_bits(circuit.run_array(probe, points[k], space))

    def test_bad_input_fails_every_point(self, space):
        vec = np.zeros(space.dim, dtype=complex)
        vec[space.index_of(fock.BasisState(2, 0, 0, 0, 0, 0))] = 1.0
        bad = fock.DensityMatrix(space, np.outer(vec, vec.conj()))
        batch = circuit.run_batch(bad, [SimParams(t=1.0), SimParams(t=2.0)], space)
        assert all(isinstance(outcome, PhysicsValidationError) for outcome in batch)
        assert circuit.run_batch(bad, [], space) == []


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
        phi3, phi7 = (jc.compensating_phase(p.phys, p.total_time)
                      for p in (SimParams(t=3.0), SimParams(t=7.0)))
        assert phi3 == pytest.approx(0.0, abs=1e-12)
        assert abs(phi7) == pytest.approx(math.pi, abs=1e-12)
