"""Command-line front end: single runs, sweeps, and calibration tables.

Configuration is a YAML key-value tree with sections ``physics``, ``stepper``,
``sweep``, ``calibrate`` and ``output``; unknown keys are rejected.  Flags
override environment variables (prefix ``CSIGN_``), which override the config
file.  Exit codes: 0 ok, 2 config error, 3 physics validation error,
4 numerical diagnostic error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

import numpy as np
import yaml

from . import __version__, calibrate, circuit, fock, sweep
from .dynamics import PhysParams
from .errors import ConfigError, DiagnosticError, PhysicsValidationError
from .lindblad import StepperConfig

ENV_PREFIX = "CSIGN_"

CONFIG_SCHEMA = {
    "physics": {"t", "delta_over_g", "ly_over_g", "phs", "atom_decay_over_g", "g"},
    "stepper": {"dt_steps", "trace_tol", "frame"},
    "sweep": {"axes", "input", "seed"},
    "calibrate": {"horizon_t", "ratios"},
    "output": {"dir", "csv_name"},
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as handle:
            data = yaml.safe_load(handle)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    for section, keys in data.items():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if keys is None:
            continue
        if not isinstance(keys, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        for key in keys:
            if key not in CONFIG_SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key!r} in config")
    return data


def _env(name: str, cast):
    raw = os.environ.get(ENV_PREFIX + name.upper())
    if raw is None or raw == "":
        return None
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {ENV_PREFIX}{name.upper()}: {raw!r}") from exc


def _pick(flag_value, env_name, cast, config, section, key, default):
    """Precedence: command-line flag, then environment, then config file."""
    if flag_value is not None:
        return flag_value
    env_value = _env(env_name, cast)
    if env_value is not None:
        return env_value
    section_map = config.get(section) or {}
    if key in section_map and section_map[key] is not None:
        return cast(section_map[key])
    return default


def _sim_params(args, config) -> circuit.SimParams:
    stepper = StepperConfig(
        dt_steps=_pick(args.dt_steps, "dt_steps", int, config, "stepper", "dt_steps", 20000),
        trace_tol=_pick(None, "trace_tol", float, config, "stepper", "trace_tol", 1e-3),
        frame=_pick(args.frame, "frame", str, config, "stepper", "frame", "rotating"),
    )
    return circuit.SimParams(
        t=_pick(args.t, "t", float, config, "physics", "t", 0.0),
        delta_over_g=_pick(args.delta_over_g, "delta_over_g", float,
                           config, "physics", "delta_over_g", 0.0),
        ly_over_g=_pick(args.ly_over_g, "ly_over_g", float,
                        config, "physics", "ly_over_g", 0.0),
        phs=_pick(args.phs, "phs", int, config, "physics", "phs", 1),
        atom_decay_over_g=_pick(None, "atom_decay_over_g", float,
                                config, "physics", "atom_decay_over_g", 0.0),
        g=_pick(None, "g", float, config, "physics", "g", 0.1),
        stepper=stepper,
    )


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    params = _sim_params(args, config)
    space = fock.default_state_space()
    seed = _pick(args.seed, "seed", int, config, "sweep", "seed", 0)
    selector = _pick(args.input, "input", str, config, "sweep", "input", "p_test")
    if selector == "random":
        state = circuit.random_valid_input(space, np.random.default_rng(seed))
    else:
        state = circuit.p_test(space)
    report = circuit.run_array(state, params, space)
    text = report.to_json(indent=2)
    if args.out and args.out != "-":
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def _sweep_axes(config) -> tuple[sweep.Axis, ...]:
    section = config.get("sweep") or {}
    axes_cfg = section.get("axes")
    if not axes_cfg:
        raise ConfigError("sweep requires sweep.axes in the config file")
    axes = []
    for entry in axes_cfg:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(f"sweep axis entries need a name: {entry!r}")
        extra = set(entry) - {"name", "values", "start", "stop", "step"}
        if extra:
            raise ConfigError(f"unknown axis keys {sorted(extra)}")
        name = entry["name"]
        if "values" in entry:
            axes.append(sweep.Axis(name, tuple(float(v) for v in entry["values"])))
        else:
            try:
                axes.append(sweep.Axis.from_range(name, float(entry["start"]),
                                                  float(entry["stop"]),
                                                  float(entry["step"])))
            except KeyError as exc:
                raise ConfigError(f"axis {name!r} needs values or start/stop/step") from exc
    return tuple(axes)


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    base = _sim_params(args, config)
    spec = sweep.SweepSpec(
        axes=_sweep_axes(config),
        base=base,
        input_state=_pick(args.input, "input", str, config, "sweep", "input", "p_test"),
        seed=_pick(args.seed, "seed", int, config, "sweep", "seed", 0),
    )
    # workers is a runtime knob, not part of the sweep identity: flag or env only
    workers = args.workers if args.workers is not None else _env("workers", int)
    if workers is None:
        workers = os.cpu_count() or 1
    out_dir = _pick(args.out, "out", str, config, "output", "dir", "sweep_out")
    csv_name = _pick(None, "csv_name", str, config, "output", "csv_name", "sweep.csv")

    records = sweep.run_sweep(spec, workers=workers)
    csv_path = os.path.join(out_dir, csv_name)
    sweep.write_records_csv(records, csv_path)
    outputs = [csv_path]
    if any(axis.name == "t" for axis in spec.axes):
        # strictly-improving durations; the smallest one only seeds the baseline
        optimal = sweep.extract_optimal_set(records, keep_first=False)
        optimal_path = os.path.join(out_dir, "optimal_set.csv")
        sweep.write_optimal_csv(optimal, optimal_path)
        outputs.append(optimal_path)
    sweep.write_manifest(spec, os.path.join(out_dir, "manifest.json"),
                         engine_version=__version__, csv_paths=outputs)
    failed = sum(1 for r in records if r.status != "ok")
    print(f"wrote {len(records)} records ({failed} failed) to {csv_path}")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_config(args.config)
    section = config.get("calibrate") or {}
    horizon_t = _pick(args.horizon_t, "horizon_t", float, config, "calibrate",
                      "horizon_t", 0.0)
    delta_over_g = _pick(args.delta_over_g, "delta_over_g", float,
                         config, "physics", "delta_over_g", 0.0)
    g = _pick(None, "g", float, config, "physics", "g", 0.1)
    ratios = args.ratios if args.ratios is not None else section.get("ratios")

    lines = []
    if ratios:
        try:
            fracs = [Fraction(str(r)) for r in ratios]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad ratio list {ratios!r}: {exc}") from exc
        lines.append("r,d,roundtrip_residual")
        for row in calibrate.detuning_table(fracs):
            lines.append(f"{row['r']},{row['d']!r},{row['roundtrip_residual']!r}")
    else:
        params = PhysParams(g=g, delta=delta_over_g * g)
        unit = np.pi / (np.sqrt(2.0) * g)
        lines.append("t,delta_over_g,residual")
        for row in calibrate.candidate_table(params, horizon_t * unit):
            lines.append(f"{row['t']!r},{row['delta_over_g']!r},{row['residual']!r}")

    text = "\n".join(lines) + "\n"
    if args.out and args.out != "-":
        sweep._atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csign",
        description="Simulate and calibrate the cavity-based C-Sign gate array.")
    parser.add_argument("--version", action="version", version=f"csign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--t", type=float, help="gate duration in sqrt(2)g/pi units")
        p.add_argument("--delta-over-g", dest="delta_over_g", type=float,
                       help="detuning in units of the coupling")
        p.add_argument("--ly-over-g", dest="ly_over_g", type=float,
                       help="photon-leak coefficient in units of the coupling")
        p.add_argument("--phs", type=int, choices=(0, 1),
                       help="enable the compensating phase shifter")
        p.add_argument("--dt-steps", dest="dt_steps", type=int,
                       help="trotter steps per gate duration; used only when a "
                            "leak or decay channel is on (lossless runs are exact)")
        p.add_argument("--frame", choices=("rotating", "lab"),
                       help="stepping frame (lab resolves the optical frequency)")
        p.add_argument("--seed", type=int, help="seed for random valid inputs")
        p.add_argument("--input", choices=("p_test", "random"),
                       help="input state selector (default p_test)")
        p.add_argument("--out", help="output path (simulate/calibrate) or directory (sweep)")

    p_sim = sub.add_parser("simulate", help="run the array once, print a JSON report")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV + manifest")
    common(p_sweep)
    p_sweep.add_argument("--workers", type=int,
                         help="parallel worker processes (default: all cores)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="emit calibration candidate tables")
    common(p_cal)
    p_cal.add_argument("--horizon-t", dest="horizon_t", type=float,
                       help="largest duration (t units) to tabulate")
    p_cal.add_argument("--ratios", nargs="+",
                       help="rational ratios p/q for commensurable detunings")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PhysicsValidationError as exc:
        print(f"physics validation error: {exc}", file=sys.stderr)
        return 3
    except DiagnosticError as exc:
        print(f"numerical diagnostic error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
