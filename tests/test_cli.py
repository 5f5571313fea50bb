import glob
import json
import math
import os
from dataclasses import fields

import pytest

from csign import cli
from csign.circuit import SimParams
from csign.lindblad import StepperConfig

from oracles import csign_zero_leak_error

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestHelp:
    def test_help_lists_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in ("--t", "--delta-over-g", "--ly-over-g", "--phs",
                     "--dt-steps", "--seed", "--out", "--config", "--input"):
            assert flag in out

    def test_sweep_help_has_workers(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--help"])
        assert "--workers" in capsys.readouterr().out


class TestSimulate:
    def test_json_report_on_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--t", "3", "--dt-steps", "300")
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["t"] == 3.0
        assert payload["params"]["phs"] == 1
        assert payload["error"] == pytest.approx(
            csign_zero_leak_error(3.0, 0.0, 1), abs=1e-9)

    def test_report_names_propagation_path(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--t", "3", "--dt-steps", "300")
        diagnostics = json.loads(out)["diagnostics"]
        assert (diagnostics["propagation"], diagnostics["n_steps"]) == ("closed_form", 0)
        assert {"trace_drift", "atom_residual", "phase_shift", "dim",
                "wall_ms"} <= set(diagnostics)
        _, out, _ = run_cli(capsys, "simulate", "--t", "3", "--dt-steps", "300",
                            "--ly-over-g", "0.01")
        diagnostics = json.loads(out)["diagnostics"]
        assert (diagnostics["propagation"], diagnostics["n_steps"]) == ("stepped", 300)

    def test_zero_duration_run(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--t", "0")
        assert code == 0
        assert json.loads(out)["error"] == pytest.approx(math.sqrt(3) / 2, abs=1e-9)

    def test_headline_run_at_default_resolution(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--t", "99",
                               "--delta-over-g", "0", "--ly-over-g", "0",
                               "--phs", "1")
        assert code == 0
        assert abs(json.loads(out)["error"] - 0.008) <= 0.004

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "simulate", "--t", "1", "--dt-steps", "200",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["params"]["t"] == 1.0

    def test_random_input_seeded(self, capsys):
        _, out1, _ = run_cli(capsys, "simulate", "--t", "2", "--dt-steps", "200",
                             "--input", "random", "--seed", "5")
        _, out2, _ = run_cli(capsys, "simulate", "--t", "2", "--dt-steps", "200",
                             "--input", "random", "--seed", "5")
        assert json.loads(out1)["error"] == json.loads(out2)["error"]


class TestExitCodes:
    def test_unknown_config_key_exits_2_and_names_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("physics:\n  t: 1.0\n  warp_speed: 9\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert "warp_speed" in err

    @pytest.mark.parametrize("section,key,value", [
        pytest.param("stepper", "backend", "numba", id="backend-numba"),
        pytest.param("stepper", "renormalize", "1", id="renormalize-1"),
        pytest.param("stepper", "trace_tol", "0.001", id="trace_tol-0.001"),
        pytest.param("physics", "atom_decay_over_g", "0.1", id="atom_decay_over_g-0.1"),
    ])
    def test_removed_stepper_key_exits_2_and_names_key(self, capsys, tmp_path,
                                                       section, key, value):
        cfg = tmp_path / "old.yaml"
        cfg.write_text(f"{section}:\n  {key}: {value}\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert key in err

    @pytest.mark.parametrize("section,key,value", [
        ("physics", "t", "fast"),
        ("physics", "t", "[1, 2]"),
        ("physics", "phs", "0.7"),
        ("physics", "phs", "true"),
        ("stepper", "dt_steps", "2.9"),
    ])
    def test_malformed_config_value_exits_2_and_names_key(self, capsys, tmp_path,
                                                          section, key, value):
        cfg = tmp_path / "typo.yaml"
        cfg.write_text(f"{section}:\n  {key}: {value}\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2
        assert f"{section}.{key}" in err

    def test_malformed_axis_value_exits_2_and_names_key(self, capsys, tmp_path):
        cfg = tmp_path / "axis.yaml"
        cfg.write_text("sweep:\n  axes:\n    - name: t\n      values: [1.0, abc]\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert "sweep.axes" in err and "'t'" in err

    @pytest.mark.parametrize("axis,name", [
        ("name: phs\n      values: [true, false]", "phs"),
        ("name: t\n      values: ['0.5']", "t"),
        ("name: t\n      start: '1'\n      stop: 2.0\n      step: 0.5", "t"),
    ], ids=["bool-values", "string-value", "string-start"])
    def test_axis_value_follows_float_key_rule(self, capsys, tmp_path, axis, name):
        cfg = tmp_path / "axis.yaml"
        cfg.write_text(f"sweep:\n  axes:\n    - {axis}\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                               "--out", str(tmp_path / "out"))
        assert code == 2
        assert "sweep.axes" in err and f"'{name}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unknown_input_selector_exits_3(self, capsys, tmp_path, command):
        cfg = tmp_path / "input.yaml"
        cfg.write_text("sweep:\n  input: randm\n  axes:\n    - name: t\n"
                       "      values: [0.0]\n")
        extra = ["--workers", "1"] if command == "sweep" else []
        code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra,
                                 "--out", str(tmp_path / "out"))
        assert code == 3
        assert "randm" in err and not out

    def test_unparsable_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("physics: [unclosed\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "/nope/none.yaml")
        assert code == 2

    def test_physics_validation_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--t", "-1")
        assert code == 3
        assert "t" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_blowup_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--t", "150",
                               "--ly-over-g", "1.0", "--dt-steps", "1")
        assert code == 4


class TestPrecedence:
    def test_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("physics:\n  t: 1.0\nstepper:\n  dt_steps: 200\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg), "--t", "3")
        params = json.loads(out)["params"]
        assert (params["t"], params["dt_steps"]) == (3.0, 200)

    def test_config_used_when_no_override(self, capsys, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("physics:\n  t: 1.5\n  phs: 0\nstepper:\n  dt_steps: 150\n")
        code, out, _ = run_cli(capsys, "simulate", "--config", str(cfg))
        payload = json.loads(out)
        assert payload["params"]["t"] == 1.5
        assert payload["params"]["phs"] == 0
        assert payload["params"]["dt_steps"] == 150

    def test_environment_is_not_read(self, capsys, monkeypatch):
        monkeypatch.setenv("CSIGN_T", "5")
        code, out, _ = run_cli(capsys, "simulate")
        assert code == 0
        assert json.loads(out)["params"]["t"] == 0.0


class TestSingleSource:
    def test_defaults_are_the_dataclass_defaults(self, capsys):
        _, out, _ = run_cli(capsys, "simulate", "--t", "1")
        assert json.loads(out)["params"] == SimParams(t=1.0).as_dict()

    def test_schema_keys_are_dataclass_fields(self):
        assert set(cli.CONFIG_SCHEMA["physics"]) <= {f.name for f in fields(SimParams)}
        assert set(cli.CONFIG_SCHEMA["stepper"]) <= {f.name for f in fields(StepperConfig)}

    @pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(CONFIGS, "*.yaml"))),
                             ids=os.path.basename)
    def test_shipped_configs_load(self, path):
        args = cli.build_parser().parse_args(["sweep", "--config", path])
        config = cli._load_config(path)
        assert cli._sweep_axes(config)
        assert isinstance(cli._sim_params(args, config), SimParams)


class TestSweepCommand:
    def write_config(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            "physics:\n  delta_over_g: 0.0\n"
            "stepper:\n  dt_steps: 200\n"
            "sweep:\n  axes:\n    - name: t\n      values: [2.0, 3.0, 4.0]\n")
        return cfg

    def test_writes_csv_and_manifest(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                               "--workers", "1", "--out", str(out_dir))
        assert code == 0
        csv_text = (out_dir / "sweep.csv").read_text()
        assert csv_text.startswith("t,delta_over_g,ly_over_g,phs,error,trace_drift\n")
        assert len(csv_text.strip().splitlines()) == 4
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["outputs"] == ["sweep.csv", "optimal_set.csv"]

    def test_duration_sweep_writes_optimal_set(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out_dir = tmp_path / "out"
        run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                "--out", str(out_dir))
        lines = (out_dir / "optimal_set.csv").read_text().strip().splitlines()
        assert lines[0] == "t,delta_over_g,error"
        # over t = 2, 3, 4 only t = 3 improves on the baseline
        kept = [float(line.split(",")[0]) for line in lines[1:]]
        assert kept == [3.0]

    def test_no_optimal_set_without_duration_axis(self, capsys, tmp_path):
        cfg = tmp_path / "leak.yaml"
        cfg.write_text(
            "physics:\n  t: 3.0\nstepper:\n  dt_steps: 200\n"
            "sweep:\n  axes:\n    - name: ly_over_g\n      values: [0.0, 0.01]\n")
        out_dir = tmp_path / "out2"
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--workers", "1", "--out", str(out_dir))
        assert code == 0
        assert not (out_dir / "optimal_set.csv").exists()

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        d1, d2 = tmp_path / "o1", tmp_path / "o2"
        run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                "--out", str(d1))
        run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                "--out", str(d2))
        for name in ("sweep.csv", "optimal_set.csv", "manifest.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_worker_count_does_not_change_files(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(
            "physics:\n  ly_over_g: 0.01\nstepper:\n  dt_steps: 400\n"
            "sweep:\n  axes:\n    - name: t\n      values: [2.0, 3.0, 4.0]\n"
            "    - name: delta_over_g\n      values: [0.0, 1.5]\n")
        outs = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            run_cli(capsys, "sweep", "--config", str(cfg), "--workers", workers,
                    "--out", str(out_dir))
            outs.append([(out_dir / name).read_bytes()
                         for name in ("sweep.csv", "manifest.json")])
        assert outs[0] == outs[1]

    def test_sweep_without_axes_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "empty.yaml"
        cfg.write_text("physics:\n  t: 1.0\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2


class TestCalibrateCommand:
    def test_candidate_table_running_min(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--horizon-t", "100.5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,delta_over_g,residual"
        rows = [line.split(",") for line in lines[1:]]
        best = float("inf")
        improving = []
        for i, row in enumerate(rows):
            residual = float(row[2])
            if residual < best:
                if i > 0:
                    improving.append(round(float(row[0])))
                best = residual
        assert improving == [3, 7, 17, 41, 99]

    def test_ratio_table(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--ratios", "5/7", "14/15")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,d,roundtrip_residual"
        assert all(float(line.split(",")[2]) < 1e-12 for line in lines[1:])

    def test_empty_horizon_empty_table(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--horizon-t", "0")
        assert code == 0
        assert out.strip() == "t,delta_over_g,residual"

    def test_table_to_file(self, capsys, tmp_path):
        target = tmp_path / "cand.csv"
        code, _, _ = run_cli(capsys, "calibrate", "--horizon-t", "10",
                             "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("t,delta_over_g,residual")

    def test_bad_ratio_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--ratios", "one-half")
        assert code == 2
