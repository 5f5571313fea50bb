import gc
import glob
import json
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import fields

import pytest

from csign import cli
from csign.circuit import SimParams
from csign.errors import ConfigError
from csign.lindblad import StepperConfig

from oracles import csign_zero_leak_error

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
SHIPPED = sorted(glob.glob(os.path.join(CONFIGS, "*.yaml")))
#: the stderr line of simulate on any shipped config: each one is a sweep
SWEEP_ONLY = "config error: simulate does not read config keys sweep.axes, output.dir\n"
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
RUN_FLAGS = {"--config", "--t", "--delta-over-g", "--ly-over-g", "--phs",
             "--dt-steps", "--seed", "--input", "--out"}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def help_flags(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    return set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}


class TestHelp:
    # each subcommand takes exactly the flags it reads
    def test_help_lists_every_flag(self, capsys):
        assert help_flags(capsys, "simulate") == RUN_FLAGS
        assert help_flags(capsys, "calibrate") == {"--config", "--delta-over-g", "--out",
                                                   "--horizon-t", "--ratios"}

    def test_sweep_help_has_workers(self, capsys):
        assert help_flags(capsys, "sweep") == RUN_FLAGS | {"--workers"}

    @pytest.mark.parametrize("argv", [
        ["simulate", "--frame", "lab"], ["sweep", "--frame", "rotating"],
        ["calibrate", "--t", "3"], ["calibrate", "--ly-over-g", "0.01"],
        ["calibrate", "--phs", "0"], ["calibrate", "--dt-steps", "300"],
        ["calibrate", "--seed", "5"], ["calibrate", "--input", "random"],
    ], ids=" ".join)
    def test_flag_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    def test_readme_command_lines_parse(self):
        # guards the README against flags the CLI no longer takes
        with open(README) as handle:
            blocks = re.findall(r"^```[a-z]*\n(.*?)^```", handle.read(), re.M | re.S)
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("csign ")]
        assert lines
        parser = cli.build_parser()
        for line in lines:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")


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

    @pytest.mark.parametrize("argv", [["--t", "99"], ["--t", "0", "--ly-over-g", "0.1"]],
                             ids=" ".join)
    def test_zero_phase_shift_is_positive(self, capsys, argv):
        # -arg(u1) at arg(u1) = 0 would report -0.0
        code, out, _ = run_cli(capsys, "simulate", *argv)
        phase = json.loads(out)["diagnostics"]["phase_shift"]
        assert (code, phase, math.copysign(1.0, phase)) == (0, 0.0, 1.0)

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

    @pytest.mark.parametrize("command", [["simulate", "--t", "1"],
                                         ["calibrate", "--horizon-t", "10"]],
                             ids=lambda argv: argv[0])
    def test_out_creates_missing_directory(self, capsys, tmp_path, command):
        # both subcommands write through the same atomic writer
        target = tmp_path / "new" / "dir" / "out.txt"
        code, out, _ = run_cli(capsys, *command, "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text().endswith("\n")
        assert os.listdir(target.parent) == ["out.txt"]  # no temporary file left

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
        pytest.param("stepper", "frame", "lab", id="frame-lab"),
        pytest.param("physics", "atom_decay_over_g", "0.1", id="atom_decay_over_g-0.1"),
        pytest.param("output", "csv_name", "x.csv", id="csv_name-x.csv"),
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
    @pytest.mark.parametrize("text,keys", [
        ("calibrate:\n  horizon_t: 10.0\n", "calibrate.horizon_t"),
        ("calibrate:\n  horizon_t: 10.0\n  ratios: [14/15]\nwarp: 9\n",
         "calibrate.horizon_t, calibrate.ratios, warp"),
        ("warp:\n  speed: 9\nphysics:\n  t: 1.0\n  warp: 9\nstepper:\n",
         "warp.speed, physics.warp"),
        ("calibrate:\n", "calibrate"),
        ("physics:\n  t: fast\n  warp: 9\n", "physics.warp"),
    ], ids=["calibrate-key", "calibrate-keys-and-section", "unknown-section",
            "empty-calibrate-section", "before-type-check"])
    def test_key_not_read_exits_2_and_names_it_once(self, capsys, tmp_path, command,
                                                     text, keys):
        cfg = tmp_path / "run.yaml"
        axes = "sweep:\n  axes:\n    - name: ly_over_g\n      values: [0.0]\n"
        cfg.write_text((axes if command == "sweep" else "") + text)
        code, out, err = run_cli(capsys, command, "--config", str(cfg),
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == f"config error: {command} does not read config keys {keys}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys", [
        ["values", "start", "stop", "step"],
        ["values", "step"],
        ["start", "stop"],
        ["step"],
        [],
        ["start", "stop", "step", "num"],
        ["values", "num"],
    ], ids=lambda keys: "-".join(keys) or "name-only")
    def test_axis_shape_exits_2(self, capsys, tmp_path, keys):
        # an axis takes values or a range: no key of it is dropped silently
        given = {"values": "[3.0, 7.0]", "start": "1.0", "stop": "2.0", "step": "0.5",
                 "num": "3"}
        cfg = tmp_path / "axis.yaml"
        cfg.write_text("sweep:\n  axes:\n    - name: t\n"
                       + "".join(f"      {key}: {given[key]}\n" for key in keys))
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == (f"config error: sweep.axes: axis 't' takes values or start, "
                       f"stop and step, got keys {keys}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,physics", [
        (["--t", "50"], ""),
        ([], "physics:\n  t: 50.0\n"),
        (["--delta-over-g", "1.0", "--t", "50"], "physics:\n  delta_over_g: 0.5\n"),
    ], ids=["flag", "config", "flag-and-config"])
    def test_swept_value_set_exits_2(self, capsys, tmp_path, flags, physics):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text(physics + "sweep:\n  axes:\n    - name: t\n      values: [3.0, 7.0]\n"
                       "    - name: delta_over_g\n      values: [0.0]\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), *flags,
                                 "--workers", "1", "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        swept = "t, delta_over_g" if "delta_over_g" in physics else "t"
        assert err == (f"config error: sweep.axes sweeps {swept}: a swept value takes "
                       f"no flag or physics key\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [[], ["--t", "99"]], ids=["config", "t-flag"])
    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_simulate_names_sweep_only_keys(self, capsys, tmp_path, path, flags):
        # simulate runs one point: it would drop a config's axes and output directory
        code, out, err = run_cli(capsys, "simulate", "--config", path, *flags,
                                 "--out", str(tmp_path / "out"))
        assert (code, out, err) == (2, "", SWEEP_ONLY)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("keys,argv", [
        ("axes", ["--t", "3"]), ("output", ["--t", "3"]), ("axes", []),
    ], ids=["axes", "output", "axes-no-duration"])
    def test_simulate_names_one_sweep_only_key(self, capsys, tmp_path, keys, argv):
        entries = {"axes": "sweep:\n  axes:\n    - name: t\n      values: [3.0, 7.0]\n",
                   "output": "output:\n  dir: elsewhere\n"}
        cfg = tmp_path / "run.yaml"
        cfg.write_text("physics:\n  delta_over_g: 0.0\n" + entries[keys])
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), *argv)
        name = "sweep.axes" if keys == "axes" else "output.dir"
        assert (code, out, err) == (2, "", f"config error: simulate does not read "
                                           f"config keys {name}\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_unknown_input_selector_exits_3(self, capsys, tmp_path, command):
        cfg = tmp_path / "input.yaml"
        axes = "  axes:\n    - name: t\n      values: [0.0]\n" if command == "sweep" else ""
        cfg.write_text("sweep:\n  input: randm\n" + axes)
        extra = ["--workers", "1"] if command == "sweep" else ["--t", "1"]
        code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra,
                                 "--out", str(tmp_path / "out"))
        assert code == 3
        assert "randm" in err and not out

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_3(self, capsys, tmp_path, command, where):
        cfg = tmp_path / "seed.yaml"
        seed = "  seed: -1\n" if where == "config" else ""
        axes = "  axes:\n    - name: t\n      values: [1.0]\n" if command == "sweep" else ""
        cfg.write_text(f"sweep:\n  input: random\n{seed}{axes}")
        extra = ["--workers", "1"] if command == "sweep" else ["--t", "1"]
        extra += ["--seed=-1"] if where == "flag" else []
        code, out, err = run_cli(capsys, command, "--config", str(cfg), *extra,
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert "seed must be >= 0, got -1" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, capsys, tmp_path, workers):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("sweep:\n  axes:\n    - name: t\n      values: [1.0]\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg),
                                 f"--workers={workers}", "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert f"--workers must be >= 1, got {workers}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["simulate", "--t", "1"],
                                         ["calibrate", "--horizon-t", "5"]],
                             ids=lambda argv: argv[0])
    def test_out_is_a_directory_exits_2(self, capsys, tmp_path, command):
        target = tmp_path / "taken"
        target.mkdir()
        code, out, err = run_cli(capsys, *command, "--out", str(target))
        assert (code, out) == (2, "")
        assert f"cannot write output {target}" in err
        assert os.listdir(target) == [] and os.listdir(tmp_path) == ["taken"]

    def test_sweep_out_is_a_file_exits_2_before_any_point(self, capsys, tmp_path,
                                                          monkeypatch):
        from csign import sweep

        def run_sweep(spec, workers=1):
            raise AssertionError("a point ran before the output was checked")

        monkeypatch.setattr(sweep, "run_sweep", run_sweep)
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("sweep:\n  axes:\n    - name: t\n      values: [1.0]\n")
        target = tmp_path / "taken"
        target.write_text("kept\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                                 "--out", str(target))
        assert (code, out) == (2, "")
        assert f"cannot write output {target}" in err
        assert target.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["sweep.yaml", "taken"]

    @pytest.mark.parametrize("affinity,expected", [({0}, 1), (None, 2)],
                             ids=["affinity", "no-affinity"])
    def test_default_workers_are_the_usable_cpus(self, capsys, tmp_path, monkeypatch,
                                                 affinity, expected):
        # pinned to one of two CPUs, the default starts one worker
        from csign import sweep

        seen = []
        monkeypatch.setattr(sweep, "run_sweep",
                            lambda spec, workers=1: seen.append(workers) or [])
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("sweep:\n  axes:\n    - name: delta_over_g\n      values: [0.0]\n")
        code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg),
                             "--out", str(tmp_path / "out"))
        assert (code, seen) == (0, [expected])

    @pytest.mark.parametrize("text", ["", "# nothing set\n", "physics:\ncalibrate:\n"],
                             ids=["empty", "comment", "empty-sections"])
    def test_empty_config_reads_as_none(self, capsys, tmp_path, text):
        cfg = tmp_path / "cal.yaml"
        cfg.write_text(text)
        assert run_cli(capsys, "calibrate", "--config", str(cfg), "--horizon-t", "10") == \
            run_cli(capsys, "calibrate", "--horizon-t", "10")

    @pytest.mark.parametrize("text,message", [
        ("- physics\n", "config root must be a mapping, got list"),
        ("physics: 0.1\n", "config section 'physics' must be a mapping"),
    ], ids=["root", "section"])
    def test_config_not_a_mapping_exits_2(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "cal.yaml"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "calibrate", "--config", str(cfg),
                                 "--horizon-t", "10")
        assert (code, out, err) == (2, "", f"config error: {message}\n")

    @pytest.mark.parametrize("axis,message", [
        ("values: [1.0]", "sweep axis entries need a name: {'values': [1.0]}"),
        ("name: t\n      values: 3",
         "sweep.axes: axis 't': bad value: 'int' object is not iterable"),
    ], ids=["no-name", "values-scalar"])
    def test_axis_entry_exits_2(self, capsys, tmp_path, axis, message):
        cfg = tmp_path / "axis.yaml"
        cfg.write_text(f"sweep:\n  axes:\n    - {axis}\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                                 "--out", str(tmp_path / "out"))
        assert (code, out, err) == (2, "", f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("step", ["0.0", "-0.5"])
    def test_range_step_not_positive_exits_3(self, capsys, tmp_path, step):
        cfg = tmp_path / "axis.yaml"
        cfg.write_text("sweep:\n  axes:\n    - name: t\n      start: 1.0\n"
                       f"      stop: 2.0\n      step: {step}\n")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert err == "physics validation error: axis t: step must be positive\n"
        assert not (tmp_path / "out").exists()

    def test_unparsable_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("physics: [unclosed\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 2

    def test_missing_config_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--config", "/nope/none.yaml")
        assert code == 2

    @pytest.mark.parametrize("kind", ["directory", "not-text", "no-permission"])
    def test_unreadable_config_exits_2_and_names_it(self, capsys, tmp_path, kind):
        cfg = tmp_path / "cal.yaml"
        if kind == "directory":
            cfg.mkdir()
        elif kind == "not-text":
            cfg.write_bytes(b"\xff\xfephysics:\n  g: 0.1\n")
        else:
            if os.geteuid() == 0:
                pytest.skip("root reads a file whatever its permission bits")
            cfg.write_text("physics:\n  g: 0.1\n")
            cfg.chmod(0)
        code, out, err = run_cli(capsys, "calibrate", "--config", str(cfg),
                                 "--horizon-t", "3")
        assert (code, out) == (2, "")
        assert f"cannot read config file {cfg}" in err

    def test_physics_validation_exits_3(self, capsys, tmp_path):
        tiny_g = tmp_path / "tiny_g.yaml"
        tiny_g.write_text("physics:\n  g: 1.0e-310\n")
        tiny_g_sweep = tmp_path / "tiny_g_sweep.yaml"
        tiny_g_sweep.write_text(tiny_g.read_text() + "sweep:\n  axes:\n"
                                "    - name: t\n      values: [1.0, 3.0]\n")
        zero_g = tmp_path / "zero_g.yaml"
        zero_g.write_text("physics:\n  g: 0.0\n")
        huge_g = tmp_path / "huge_g.yaml"
        huge_g.write_text("physics:\n  g: 2.0e+153\n  t: 1.0\nsweep:\n  axes:\n"
                          "    - name: delta_over_g\n      values: [0.0, 10.0]\n")
        out_path = tmp_path / "out"
        for argv, name in (
                (["simulate", "--t", "-1"], "t"),
                (["simulate", "--t", "3", "--dt-steps", "0"], "dt_steps must be >= 1"),
                # checked before the total time divides by g
                (["simulate", "--t", "3", "--config", str(zero_g)], "g must be positive"),
                # finite, but the Rabi frequency sqrt(delta^2 + 8 g^2) overflows
                (["calibrate", "--horizon-t", "10", "--delta-over-g", "1e200"], "delta"),
                (["simulate", "--t", "3", "--delta-over-g", "1e200"], "delta"),
                # finite, but the leak rate (ly_over_g g)^2 overflows
                (["simulate", "--t", "99", "--ly-over-g", "1e160"], "ly_over_g"),
                # finite, but the total time t pi / (sqrt(2) g) overflows
                (["simulate", "--t", "1e308"], "total time"),
                (["calibrate", "--horizon-t", "1e307"], "candidates"),
                # g^2 underflows, so the lowest Rabi frequency is 0
                (["simulate", "--config", str(tiny_g), "--t", "1"], "underflow"),
                (["sweep", "--config", str(tiny_g_sweep), "--workers", "1"], "underflow"),
                # the base is valid, but delta_over_g = 10 overflows the Rabi frequency
                (["sweep", "--config", str(huge_g), "--workers", "1"], "Rabi"),
                (["sweep", "--config", str(huge_g), "--workers", "2"], "Rabi")):
            code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
            assert (code, out) == (3, ""), argv
            assert name in err and len(err.splitlines()) == 1, argv
            assert not out_path.exists(), argv

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv", [
        ["calibrate", "--horizon-t"], ["calibrate", "--delta-over-g"],
        ["simulate", "--t"], ["simulate", "--delta-over-g"], ["simulate", "--ly-over-g"],
    ], ids=" ".join)
    def test_non_finite_flag_exits_3(self, capsys, argv, value):
        command, flag = argv  # "--t=-inf": argparse reads a bare -inf as a flag
        code, out, err = run_cli(capsys, command, f"{flag}={value}")
        assert (code, out) == (3, "")
        assert "must be finite" in err

    @pytest.mark.parametrize("command,entry", [
        ("simulate", "physics:\n  t: .nan"),
        ("simulate", "physics:\n  g: .inf"),
        ("sweep", "sweep:\n  axes:\n    - name: t\n      start: 1.0\n"
                  "      stop: .inf\n      step: 0.5"),
        ("calibrate", "calibrate:\n  horizon_t: .inf"),
        ("calibrate", "physics:\n  delta_over_g: -.inf"),
    ], ids=["t", "g", "axis-stop", "horizon_t", "delta_over_g"])
    def test_non_finite_config_value_exits_3(self, capsys, tmp_path, command, entry):
        cfg = tmp_path / "nonfinite.yaml"
        cfg.write_text(entry + "\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg),
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert "must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("axes", [
        "    - name: t\n      start: 0.0\n      stop: 200.0\n      step: 1.0e-9\n",
        # 400 x 321 values: each axis is small, the grid is not
        "    - name: t\n      start: 0.0\n      stop: 199.5\n      step: 0.5\n"
        "    - name: delta_over_g\n      start: -10.0\n      stop: 10.0\n"
        "      step: 0.0625\n",
    ], ids=["axis", "grid"])
    def test_oversized_sweep_exits_3(self, capsys, tmp_path, axes):
        cfg = tmp_path / "huge.yaml"
        cfg.write_text("sweep:\n  axes:\n" + axes)
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--workers", "1",
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (3, "")
        assert "more than 100000" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("leak", [[], ["--ly-over-g", "0.1"]], ids=["lossless", "leaky"])
    def test_too_many_steps_exits_3(self, capsys, leak):
        code, out, err = run_cli(capsys, "simulate", "--t", "3",
                                 "--dt-steps", "100000000000000000000", *leak)
        assert (code, out) == (3, "")
        [line] = err.splitlines()
        assert "dt_steps must be <= 100000000" in line

    def test_step_bound_runs(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--t", "3", "--ly-over-g", "0.1",
                               "--dt-steps", "100000000")
        assert code == 0
        assert json.loads(out)["diagnostics"]["n_steps"] == 10**8

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
        for schema in cli.CONFIG_SCHEMA.values():
            assert set(schema.get("physics", ())) <= {f.name for f in fields(SimParams)}
            assert set(schema.get("stepper", ())) <= {f.name for f in fields(StepperConfig)}

    @pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
    def test_shipped_configs_load(self, path):
        # each shipped config is a sweep, whose keys simulate does not read
        with pytest.raises(ConfigError) as exc:
            cli._load_config(path, "simulate")
        assert f"config error: {exc.value}\n" == SWEEP_ONLY
        args = cli.build_parser().parse_args(["sweep", "--config", path])
        config = cli._load_config(path, "sweep")
        assert isinstance(cli._sim_params(args, config), SimParams)
        assert cli._sweep_axes(config)


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

    @pytest.mark.parametrize("ratio,message", [
        ("1e400", "must lie in (1/sqrt(2), 1), got 1e400"),
        ("0." + "9" * 400, "lies too close to 1: its detuning overflows a float"),
        ("-0.8", "must lie in (1/sqrt(2), 1), got -0.8"),
        ("0.5", "must lie in (1/sqrt(2), 1), got 0.5"),
    ], ids=["huge", "near-1", "negative", "half"])
    def test_out_of_range_ratio_exits_3(self, ratio, message):
        # the message names the ratio as it was typed
        done = run_process("calibrate", "--ratios", ratio)
        assert (done.returncode, done.stdout) == (3, "")
        [line] = done.stderr.splitlines()  # one line, no traceback
        assert line == f"physics validation error: ratio {message}"

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

    def test_config_key_not_read_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("physics:\n  t: 5.0\n  ly_over_g: 0.5\n  phs: 0\n"
                       "stepper:\n  dt_steps: 3\nsweep:\n  input: random\n  seed: 9\n"
                       "output:\n  dir: elsewhere\n")
        code, out, err = run_cli(capsys, "calibrate", "--config", str(cfg),
                                 "--horizon-t", "100.5")
        assert (code, out) == (2, "")
        for key in ("physics.t", "physics.ly_over_g", "physics.phs", "stepper.dt_steps",
                    "sweep.input", "sweep.seed", "output.dir"):
            assert key in err

    def test_config_keys_read(self, capsys, tmp_path):
        cfg = tmp_path / "cal.yaml"
        cfg.write_text("physics:\n  g: 0.1\n  delta_over_g: 0.0\n"
                       "calibrate:\n  horizon_t: 100.5\n")
        code, out, _ = run_cli(capsys, "calibrate", "--config", str(cfg))
        assert code == 0
        assert out == run_cli(capsys, "calibrate", "--horizon-t", "100.5")[1]

    def test_endless_horizon_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "calibrate", "--horizon-t", "1e300")
        assert (code, out) == (3, "")
        assert "candidates" in err

    @pytest.mark.parametrize("config,flags", [
        ("", ["--horizon-t", "10", "--ratios", "14/15"]),
        ("calibrate:\n  horizon_t: 10.0\n  ratios: [14/15]\n", []),
        ("calibrate:\n  horizon_t: 10.0\n", ["--ratios", "14/15"]),
    ], ids=["flags", "config", "both"])
    def test_horizon_and_ratios_exit_2(self, capsys, tmp_path, config, flags):
        # two tables asked for: neither is dropped silently
        cfg = tmp_path / "cal.yaml"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] if config else []
        code, out, err = run_cli(capsys, "calibrate", *argv, *flags)
        assert (code, out) == (2, "")
        assert "calibrate.horizon_t" in err and "calibrate.ratios" in err

    @pytest.mark.parametrize("config,flags,given", [
        ("", ["--delta-over-g", "3"], "physics.delta_over_g"),
        # checked before the physics: a detuning that overflows exits 2, not 3
        ("", ["--delta-over-g", "1e200"], "physics.delta_over_g"),
        ("", ["--horizon-t", "10"], "calibrate.horizon_t"),
        ("physics:\n  g: 0.1\n", [], "physics.g"),
        ("physics:\n  g: 0.1\n", ["--delta-over-g", "3", "--horizon-t", "10"],
         "calibrate.horizon_t, physics.g, physics.delta_over_g"),
    ], ids=["delta-flag", "delta-overflow", "horizon-flag", "g-config", "all"])
    def test_ratios_take_no_other_setting(self, capsys, tmp_path, config, flags, given):
        # the detuning table depends on the ratios alone: no setting is dropped silently
        cfg = tmp_path / "cal.yaml"
        cfg.write_text(config)
        argv = ["--config", str(cfg)] if config else []
        code, out, err = run_cli(capsys, "calibrate", "--ratios", "14/15", *argv, *flags,
                                 "--out", str(tmp_path / "out"))
        assert (code, out) == (2, "")
        assert err == ("config error: calibrate.ratios (--ratios) takes no other "
                       f"setting, got {given}\n")
        assert not (tmp_path / "out").exists()

    def test_bad_ratio_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--ratios", "one-half")
        assert code == 2


#: the costly imports the start-up tests watch: the third-party packages,
#: OpenSSL (``_hashlib``, under ``hashlib``) and the sweep engine
WATCHED = ("numpy", "yaml", "_hashlib", "csign.sweep")

#: the standard-library modules only some paths need: ``tempfile`` (with
#: ``shutil`` and ``random``) to write a file, ``fractions`` for ratios
LAZY_STDLIB = ("tempfile", "fractions")

SRC = os.path.dirname(os.path.dirname(cli.__file__))


def modules_after_script(code: str, *argv, watched=WATCHED) -> list[str]:
    """Which of ``watched`` a fresh interpreter holds after running ``code``.

    The interpreter runs with ``-S`` on this one's ``sys.path``: a ``.pth``
    file in a site directory may run start-up code whose imports (``tempfile``,
    through ``importlib.resources``) are not csign's.
    """
    code += ("import json, sys\n"
             f"print(json.dumps([m for m in {watched!r} if m in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, *filter(None, sys.path)]))
    done = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def modules_after(*argv, watched=WATCHED) -> list[str]:
    """Which of ``watched`` a fresh interpreter holds after ``import csign``
    and, if ``argv`` is given, ``cli.main(argv)``."""
    return modules_after_script(
        "import contextlib, io, sys\n"
        "import csign\n"
        "if sys.argv[1:]:\n"
        "    from csign import cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(sys.argv[1:]) == 0\n", *argv, watched=watched)


class TestStartupImports:
    """Each command imports only what it runs: numpy only for simulate and
    sweep, yaml only with --config, OpenSSL only to hash a sweep manifest,
    the sweep engine only for a sweep, tempfile only to write a file and
    fractions only for ratios."""

    def test_package_import_is_bare(self):
        assert modules_after() == []

    @pytest.mark.parametrize("argv", [
        ["--horizon-t", "100.5"], ["--ratios", "5/7", "14/15"], ["--out", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_calibrate_loads_neither(self, tmp_path, argv):
        argv = [arg.format(out=tmp_path / "table.csv") for arg in argv]
        assert modules_after("calibrate", *argv) == []

    def test_config_loads_yaml_only(self, tmp_path):
        cfg = tmp_path / "cal.yaml"
        cfg.write_text("calibrate:\n  horizon_t: 10.0\n")
        assert modules_after("calibrate", "--config", str(cfg)) == ["yaml"]

    def test_simulate_loads_yaml_only_with_config(self, tmp_path):
        cfg = tmp_path / "run.yaml"
        cfg.write_text("physics:\n  t: 1.0\n")
        assert modules_after("simulate", "--t", "1") == ["numpy"]
        assert modules_after("simulate", "--config", str(cfg)) == ["numpy", "yaml"]

    def test_sweep_loads_openssl_for_its_manifest(self, tmp_path):
        cfg = tmp_path / "sweep.yaml"
        cfg.write_text("sweep:\n  axes:\n    - name: t\n      values: [1.0]\n")
        assert modules_after("sweep", "--config", str(cfg), "--workers", "1",
                             "--out", str(tmp_path / "out")) == list(WATCHED)
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_run_sweep_without_manifest_skips_openssl(self):
        code = ("from csign import circuit, sweep\n"
                "spec = sweep.SweepSpec(axes=(sweep.Axis('t', (1.0, 3.0)),),\n"
                "                       base=circuit.SimParams(t=1.0))\n"
                "assert [r.status for r in sweep.run_sweep(spec, workers=1)] == ['ok'] * 2\n")
        assert modules_after_script(code) == ["numpy", "csign.sweep"]

    @pytest.mark.parametrize("argv,loaded", [
        (["calibrate", "--horizon-t", "100.5"], []),
        (["simulate", "--t", "1"], []),
        (["calibrate", "--ratios", "5/7", "14/15"], ["fractions"]),
        (["calibrate", "--horizon-t", "10", "--out", "{out}"], ["tempfile"]),
    ], ids=["horizon", "simulate", "ratios", "out"])
    def test_stdlib_loads_where_it_runs(self, tmp_path, argv, loaded):
        argv = [arg.format(out=tmp_path / "table.csv") for arg in argv]
        assert modules_after(*argv, watched=LAZY_STDLIB) == loaded


def run_process(*argv) -> subprocess.CompletedProcess:
    """``python -m csign.cli argv`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "csign.cli", *argv], env=env,
                          capture_output=True, text=True)


class TestProcessEntry:
    """``process_main`` runs the start-up with the collector off and freezes
    its heap; ``main`` in-process leaves the collector as it found it."""

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--horizon-t", "10"], ["calibrate", "--ratios", "14/15"],
        ["simulate", "--t", "1"], ["sweep", "--workers", "1"],
    ], ids=" ".join)
    def test_main_leaves_collector_alone(self, capsys, tmp_path, argv):
        if argv[0] == "sweep":
            cfg = tmp_path / "sweep.yaml"
            cfg.write_text("sweep:\n  axes:\n    - name: t\n      values: [1.0]\n")
            argv = argv + ["--config", str(cfg), "--out", str(tmp_path / "out")]
        before = gc.isenabled(), gc.get_freeze_count()
        assert run_cli(capsys, *argv)[0] == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == before

    @pytest.mark.parametrize("argv", [
        ["calibrate", "--horizon-t", "10"], ["simulate", "--t", "1"],
    ], ids=lambda argv: argv[0])
    def test_process_freezes_start_up_heap(self, argv):
        code = ("import contextlib, gc, io, sys\n"
                "from csign import cli\n"
                "sys.argv[1:] = %r\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert cli.process_main() == 0\n"
                "print(gc.isenabled(), gc.get_freeze_count() > 0)\n" % argv)
        done = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, check=True)
        assert done.stdout.split() == ["True", "True"]

    def test_process_prints_the_in_process_report(self, capsys):
        def lines(out):
            return [line for line in out.splitlines() if '"wall_ms"' not in line]

        done = run_process("simulate", "--t", "99")
        assert (done.returncode, done.stderr) == (0, "")
        assert lines(done.stdout) == lines(run_cli(capsys, "simulate", "--t", "99")[1])

    def test_warning_is_one_line(self):
        done = run_process("simulate", "--t", "3", "--dt-steps", "7",
                           "--ly-over-g", "0.3")
        assert done.returncode == 0
        [line] = done.stderr.splitlines()
        assert line.startswith("csign: warning: step phase")
        assert ".py:" not in line
