import concurrent.futures
import functools
import json
import math
import multiprocessing
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from csign import circuit, cli, sweep
from csign.circuit import SimParams
from csign.errors import PhysicsValidationError
from csign.lindblad import StepperConfig
from csign.runio import atomic_write
from csign.sweep import Axis, SweepRecord, SweepSpec

from oracles import csign_zero_leak_error

# coarse leaky steps are intentional here (lossless runs take no steps);
# silence the step-phase advisory
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
FAST_BASE = SimParams(t=1.0, stepper=StepperConfig(dt_steps=300))


def record(t, error, delta=0.0, status="ok"):
    return SweepRecord(t=t, delta_over_g=delta, ly_over_g=0.0, phs=1,
                       error=error, trace_drift=0.0, atom_residual=0.0,
                       wall_ms=1.0, status=status)


class TestAxis:
    def test_from_range_inclusive(self):
        axis = Axis.from_range("t", 2.0, 4.0, 0.5)
        assert axis.values == (2.0, 2.5, 3.0, 3.5, 4.0)

    def test_range_values_have_no_float_drift(self):
        cfg = cli._load_config(os.path.join(CONFIGS, "error_vs_duration.yaml"))
        t_axis = next(a for a in cli._sweep_axes(cfg) if a.name == "t")
        assert t_axis.values == tuple(k / 20 for k in range(40, 2001))
        assert Axis.from_range("delta_over_g", 4.7897, 4.8097, 0.0005).values[8] == 4.7937

    def test_domain_validation(self):
        with pytest.raises(PhysicsValidationError):
            Axis("t", (250.0,))
        with pytest.raises(PhysicsValidationError):
            Axis("ly_over_g", (-0.1,))
        with pytest.raises(PhysicsValidationError):
            Axis("phs", (0.5,))
        with pytest.raises(PhysicsValidationError):
            Axis("coupling", (1.0,))

    def test_empty_axis_allowed(self):
        assert Axis("t", ()).values == ()

    @pytest.mark.parametrize("step", [0.002, 1.0e-9, 5e-324])
    def test_over_fine_range_rejected_before_building(self, step):
        # 200 / 0.002 gives 100_001 values; the others would hang or overflow
        with pytest.raises(PhysicsValidationError, match="more than 100000 values"):
            Axis.from_range("t", 0.0, 200.0, step)

    def test_bounds_at_the_limit(self, monkeypatch):
        monkeypatch.setattr(sweep, "MAX_POINTS", 10)
        assert len(Axis.from_range("t", 0.0, 4.5, 0.5).values) == 10
        with pytest.raises(PhysicsValidationError, match="more than 10 values"):
            Axis.from_range("t", 0.0, 5.0, 0.5)
        axes = [Axis("t", (1.0, 2.0, 3.0, 4.0, 5.0)), Axis("phs", (0.0, 1.0))]
        assert len(SweepSpec(axes=tuple(axes), base=FAST_BASE).grid()) == 10
        axes[0] = Axis("t", (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
        with pytest.raises(PhysicsValidationError, match="12 points, more than 10"):
            SweepSpec(axes=tuple(axes), base=FAST_BASE)


class TestSweepSpec:
    def test_rejects_three_axes(self):
        with pytest.raises(PhysicsValidationError):
            SweepSpec(axes=(Axis("t", (1.0,)), Axis("delta_over_g", (0.0,)),
                            Axis("ly_over_g", (0.0,))), base=FAST_BASE)

    def test_rejects_duplicate_axes(self):
        with pytest.raises(PhysicsValidationError):
            SweepSpec(axes=(Axis("t", (1.0,)), Axis("t", (2.0,))), base=FAST_BASE)

    def test_grid_order_row_major(self):
        spec = SweepSpec(axes=(Axis("t", (1.0, 2.0)), Axis("phs", (0.0, 1.0))),
                         base=FAST_BASE)
        grid = spec.grid()
        assert grid == [{"t": 1.0, "phs": 0.0}, {"t": 1.0, "phs": 1.0},
                        {"t": 2.0, "phs": 0.0}, {"t": 2.0, "phs": 1.0}]

    def test_degenerate_axis_gives_empty_grid(self):
        spec = SweepSpec(axes=(Axis("t", ()),), base=FAST_BASE)
        assert spec.grid() == []
        assert sweep.run_sweep(spec) == []

    def test_spec_hash_stable(self):
        spec = SweepSpec(axes=(Axis("t", (1.0,)),), base=FAST_BASE)
        again = SweepSpec(axes=(Axis("t", (1.0,)),), base=FAST_BASE)
        assert spec.sha256() == again.sha256()

    def test_spec_hash_is_pinned(self):
        # the manifest's spec_sha256: a change to the spec's canonical JSON or
        # its hash shows here, not only as a digest that differs from itself
        spec = SweepSpec(axes=(Axis("t", (1.0,)),), base=FAST_BASE)
        assert spec.sha256() == \
            "d74ee5a3e0a903dca1e23fbf61ca806178d21eac491685e14be2347c6db19719"


class TestRunSweep:
    def test_single_point_matches_direct_run(self):
        spec = SweepSpec(axes=(Axis("t", (3.0,)),), base=FAST_BASE)
        records = sweep.run_sweep(spec)
        assert len(records) == 1
        rec = records[0]
        assert rec.status == "ok"
        assert rec.error == pytest.approx(csign_zero_leak_error(3.0, 0.0, 1), abs=1e-9)

    def test_integer_grid_local_minima(self):
        # resonant integer durations: 3 and 7 are local minima of the error
        spec = SweepSpec(axes=(Axis("t", tuple(float(k) for k in range(2, 11))),),
                         base=FAST_BASE)
        errors = [r.error for r in sweep.run_sweep(spec)]
        assert errors[1] < errors[0] and errors[1] < errors[2]   # t = 3
        assert errors[5] < errors[4] and errors[5] < errors[6]   # t = 7

    def test_deterministic_records(self):
        spec = SweepSpec(axes=(Axis("t", (1.0, 2.0, 3.0)),), base=FAST_BASE)
        a = sweep.run_sweep(spec)
        b = sweep.run_sweep(spec)
        assert [r.csv_row() for r in a] == [r.csv_row() for r in b]

    def test_random_input_seeded(self):
        spec1 = SweepSpec(axes=(Axis("t", (2.0,)),), base=FAST_BASE,
                          input_state="random", seed=7)
        spec2 = SweepSpec(axes=(Axis("t", (2.0,)),), base=FAST_BASE,
                          input_state="random", seed=7)
        spec3 = SweepSpec(axes=(Axis("t", (2.0,)),), base=FAST_BASE,
                          input_state="random", seed=8)
        e1 = sweep.run_sweep(spec1)[0].error
        e2 = sweep.run_sweep(spec2)[0].error
        e3 = sweep.run_sweep(spec3)[0].error
        assert e1 == e2
        assert e1 != e3

    def test_negative_seed_rejected(self, space):
        with pytest.raises(PhysicsValidationError, match="seed must be >= 0"):
            SweepSpec(axes=(Axis("t", (2.0,)),), base=FAST_BASE,
                      input_state="random", seed=-1)
        with pytest.raises(PhysicsValidationError, match="seed must be >= 0"):
            circuit.input_state("random", -1, space)

    def test_point_failure_recorded_not_raised(self):
        # an enormous dissipative step blows past the positivity floor
        base = SimParams(t=150.0, ly_over_g=1.0,
                         stepper=StepperConfig(dt_steps=1))
        spec = SweepSpec(axes=(Axis("t", (150.0,)),), base=base)
        records = sweep.run_sweep(spec)
        assert records[0].status == "failed"
        assert math.isnan(records[0].error)
        assert "DiagnosticError" in records[0].message

    def test_workers_do_not_change_results(self):
        spec = SweepSpec(axes=(Axis("t", (1.0, 2.0, 3.0, 4.0)),), base=FAST_BASE)
        serial = sweep.run_sweep(spec, workers=1)
        parallel = sweep.run_sweep(spec, workers=2)
        assert [r.csv_row() for r in serial] == [r.csv_row() for r in parallel]

    def test_crashed_worker_fails_only_lost_points(self, monkeypatch):
        spec = SweepSpec(axes=(Axis("t", tuple(float(t) for t in range(1, 17))),),
                         base=FAST_BASE)
        serial = sweep.run_sweep(spec, workers=1)
        run_batch = circuit.run_batch
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", functools.partial(
            concurrent.futures.ProcessPoolExecutor,
            mp_context=multiprocessing.get_context("fork")))
        # the last point, and an early one whose crash breaks the pool
        # while most chunks are still pending
        for crash_t in (16.0, 2.0):
            def crash_at(rho, params_seq, space, crash_t=crash_t):
                if any(params.t == crash_t for params in params_seq):
                    os._exit(1)
                return run_batch(rho, params_seq, space)

            monkeypatch.setattr(circuit, "run_batch", crash_at)
            records = sweep.run_sweep(spec, workers=2)
            assert [r.t for r in records] == [r.t for r in serial]
            failed = [r for r in records if r.status == "failed"]
            assert [r.t for r in failed] == [crash_t]
            assert "BrokenProcessPool" in failed[0].message
            assert all(r.csv_row() == s.csv_row()
                       for r, s in zip(records, serial) if r.t != crash_t)

    @pytest.mark.parametrize("workers,pool_size", [(64, 13), (2, 2)])
    def test_pool_capped_at_chunk_count(self, monkeypatch, workers, pool_size):
        # a fork pool starts every worker up front: none may be left without
        # a chunk; the inline pool starts no process, whatever it is asked for
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        spec = SweepSpec(axes=(Axis("t", tuple(float(t) for t in range(1, 14))),),
                         base=FAST_BASE)
        serial = sweep.run_sweep(spec, workers=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        records = sweep.run_sweep(spec, workers=workers)
        assert sizes == [pool_size]
        assert [r.csv_row() for r in records] == [r.csv_row() for r in serial]

    def test_errors_in_unit_interval(self):
        spec = SweepSpec(axes=(Axis("t", (0.5, 1.5, 2.5)),
                               Axis("delta_over_g", (0.0, 2.0))), base=FAST_BASE)
        for rec in sweep.run_sweep(spec):
            assert rec.status == "ok"
            assert 0.0 <= rec.error <= 1.0 + 1e-9


class TestOptimalSet:
    def test_running_minimum_keeps_first(self):
        records = [record(1, 0.5), record(2, 0.3), record(3, 0.4), record(4, 0.1)]
        kept = sweep.extract_optimal_set(records)
        assert kept.t_values() == (1, 2, 4)

    def test_constant_errors_keep_only_first(self):
        records = [record(t, 0.25) for t in (1, 2, 3)]
        assert sweep.extract_optimal_set(records).t_values() == (1,)

    def test_baseline_excluded_mode(self):
        records = [record(1, 0.5), record(2, 0.3), record(3, 0.4), record(4, 0.1)]
        kept = sweep.extract_optimal_set(records, keep_first=False)
        assert kept.t_values() == (2, 4)

    def test_permutation_invariant(self, rng):
        records = [record(t, e) for t, e in
                   ((1, 0.9), (2, 0.8), (3, 0.85), (4, 0.2), (5, 0.4))]
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert sweep.extract_optimal_set(shuffled).entries == \
            sweep.extract_optimal_set(records).entries

    def test_failed_records_skipped(self):
        records = [record(1, 0.5), record(2, float("nan"), status="failed"),
                   record(3, 0.2)]
        assert sweep.extract_optimal_set(records).t_values() == (1, 3)

    def test_entries_strictly_improving(self):
        records = [record(t, e) for t, e in
                   ((1, 0.9), (2, 0.7), (3, 0.7), (4, 0.1))]
        kept = sweep.extract_optimal_set(records)
        errors = [e for _, _, e in kept.entries]
        assert errors == sorted(errors, reverse=True)
        assert len(errors) == len(set(errors))

    def test_duplicate_durations_reduced_to_best(self):
        # two detunings per duration: the per-duration minimum competes
        records = [record(1, 0.6, delta=0.0), record(1, 0.5, delta=1.0),
                   record(2, 0.7, delta=0.0), record(2, 0.2, delta=2.0)]
        kept = sweep.extract_optimal_set(records)
        assert kept.entries == ((1, 1.0, 0.5), (2, 2.0, 0.2))
        assert kept.t_values() == (1, 2)


class TestDetunedOptimum:
    def test_zero_detuning_range_reduces_to_plain_minimum(self):
        t_vals = (2.0, 3.0, 4.0)
        t_star, d_star, err = sweep.find_detuned_optimum(
            t_vals, (0.0,), base=FAST_BASE, rounds=0)
        assert d_star == 0.0
        assert t_star == 3.0
        assert err == pytest.approx(csign_zero_leak_error(3.0, 0.0, 1), abs=1e-9)

    def test_detuning_beats_resonance_near_t_four(self):
        t_star, d_star, err = sweep.find_detuned_optimum(
            (4.0,), tuple(np.arange(0.0, 5.0001, 0.5)), base=FAST_BASE, rounds=1)
        resonant = csign_zero_leak_error(4.0, 0.0, 1)
        assert d_star > 0.0
        assert err < resonant

    def test_refinement_improves_on_coarse_grid(self):
        coarse = sweep.find_detuned_optimum((4.0,), (0.0, 1.0, 2.0),
                                            base=FAST_BASE, rounds=0)
        refined = sweep.find_detuned_optimum((4.0,), (0.0, 1.0, 2.0),
                                             base=FAST_BASE, rounds=2)
        assert refined[2] <= coarse[2]

    def test_local_rescans_have_no_duplicate_points(self, monkeypatch):
        # the refinement window is clipped at the detuning domain edge
        grids = []
        real_run_sweep = sweep.run_sweep

        def recording(spec, workers=1):
            grids.append([(p["t"], p["delta_over_g"]) for p in spec.grid()])
            return real_run_sweep(spec, workers=workers)

        monkeypatch.setattr(sweep, "run_sweep", recording)
        sweep.find_detuned_optimum((4.0, 4.5), (8.0, 10.0), base=FAST_BASE,
                                   rounds=2)
        assert len(grids) == 5
        for grid in grids:
            assert len(grid) == len(set(grid)), grid


class TestRobustness:
    @staticmethod
    def detuning_profile(t, delta_opt, base, offsets):
        # detuning offsets around one optimum, as the detuned-optimum
        # robustness config sweeps them
        axis = Axis("delta_over_g", tuple(delta_opt + off for off in offsets))
        return sweep.run_sweep(SweepSpec(axes=(axis,), base=replace(base, t=t)))

    def test_zero_offset_reproduces_optimum(self):
        records = self.detuning_profile(3.0, 0.0, FAST_BASE, (0.0,))
        assert records[0].error == pytest.approx(
            csign_zero_leak_error(3.0, 0.0, 1), abs=1e-9)

    def test_leak_profile_monotone(self):
        records = sweep.robustness_profile(
            3.0, 0.0, FAST_BASE, ly_values=tuple(np.logspace(-3, -1, 5)))
        errors = [r.error for r in records]
        assert all(b >= a - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_detuned_optimum_not_more_fragile_than_resonant(self):
        # a miscalibrated detuning setting hurts the detuned optimum no more
        # than it hurts the resonant one at the same duration
        base = SimParams(t=99.0, stepper=StepperConfig(dt_steps=2000))
        d_opt = 4.7997
        offsets = (-3e-3, -1e-3, -3e-4, 3e-4, 1e-3, 3e-3)
        detuned = self.detuning_profile(99.0, d_opt, base, offsets)
        resonant = self.detuning_profile(99.0, 0.0, base, offsets)
        for det, res in zip(detuned, resonant):
            assert det.error <= res.error + 1e-6

    def test_detuned_optimum_not_more_leak_fragile(self):
        base = SimParams(t=99.0, stepper=StepperConfig(dt_steps=2000))
        lys = (1e-3, 1e-2)
        detuned = sweep.robustness_profile(99.0, 4.7997, base, ly_values=lys)
        resonant = sweep.robustness_profile(99.0, 0.0, base, ly_values=lys)
        for det, res in zip(detuned, resonant):
            assert det.error <= res.error + 1e-6


class TestSerialization:
    def test_csv_deterministic_and_atomic(self, tmp_path):
        spec = SweepSpec(axes=(Axis("t", (1.0, 2.0)),), base=FAST_BASE)
        records = sweep.run_sweep(spec)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep.write_records_csv(records, str(p1))
        sweep.write_records_csv(sweep.run_sweep(spec), str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "t,delta_over_g,ly_over_g,phs,error,trace_drift"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_output_mode_matches_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            atomic_write(str(tmp_path / "atomic.csv"), "x\n")
            with open(tmp_path / "plain.csv", "w") as handle:
                handle.write("x\n")
        finally:
            os.umask(old)
        modes = [stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("atomic.csv", "plain.csv")]
        assert modes[0] == modes[1] == 0o666 & ~umask

    def test_failed_record_row_is_nan(self):
        row = record(1.0, float("nan"), status="failed").csv_row()
        assert row.split(",")[4] == "nan"

    def test_manifest_contents(self, tmp_path):
        spec = SweepSpec(axes=(Axis("t", (1.0,)),), base=FAST_BASE)
        path = tmp_path / "manifest.json"
        sweep.write_manifest(spec, str(path), engine_version="9.9.9",
                             csv_paths=["out/sweep.csv"])
        payload = json.loads(path.read_text())
        assert payload["spec_sha256"] == spec.sha256()
        assert payload["engine_version"] == "9.9.9"
        assert payload["outputs"] == ["sweep.csv"]
