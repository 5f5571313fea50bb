"""Command-line front end: single runs, sweeps, and calibration tables.

Configuration is a YAML key-value tree with sections ``physics``, ``stepper``,
``sweep``, ``calibrate`` and ``output``; unknown keys and wrongly typed values
are rejected.  Flags override the config file; the physics and stepper
defaults are those of :class:`~csign.circuit.SimParams` and
:class:`~csign.lindblad.StepperConfig`.  Exit codes: 0 ok, 2 config error,
3 physics validation error, 4 numerical diagnostic error.

Each command imports only what it runs: yaml only with ``--config``, numpy
(through circuit, fock and lindblad) only in ``simulate`` and ``sweep``, and
the sweep engine, with OpenSSL for its manifest hash, only in ``sweep``;
``calibrate`` runs on the standard library, with ``fractions`` only for
``--ratios``, and ``tempfile`` loads only to write an ``--out`` file.

:func:`process_main` is the entry of a ``csign`` process, the console script
and ``python -m csign.cli`` alike; :func:`main` runs one command in-process
and leaves the garbage collector and the warning display as they are.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from contextlib import contextmanager
from typing import TYPE_CHECKING

from . import __version__, calibrate
from .errors import ConfigError, DiagnosticError, PhysicsValidationError
from .jc import PhysParams
from .runio import INPUT_SELECTORS, atomic_write

if TYPE_CHECKING:
    from . import circuit, sweep

# each key with the type its value must have; a float key also takes a YAML int
CONFIG_SCHEMA = {
    "physics": {"t": float, "delta_over_g": float, "ly_over_g": float, "phs": int,
                "g": float},
    "stepper": {"dt_steps": int},
    "sweep": {"axes": list, "input": str, "seed": int},
    "calibrate": {"horizon_t": float, "ratios": list},
    "output": {"dir": str},
}

#: the config keys ``calibrate`` reads; it rejects every other key
CALIBRATE_KEYS = {"physics": ("g", "delta_over_g"), "calibrate": ("horizon_t", "ratios")}


def _float(value, where: str) -> float:
    # a YAML int or float; exact types, since a YAML bool is an int subclass
    if type(value) not in (int, float):
        raise ConfigError(f"{where} must be float, got {value!r}")
    return float(value)


def _checked(section: str, key: str, value):
    kind = CONFIG_SCHEMA[section].get(key)
    if kind is None:
        raise ConfigError(f"unknown key {section}.{key!r} in config")
    if kind is float:
        return _float(value, f"{section}.{key}")
    if type(value) is not kind:  # exact type: a YAML bool is not an int
        raise ConfigError(f"{section}.{key} must be {kind.__name__}, got {value!r}")
    return value


def _load_config(path: str | None) -> dict:
    """The config file as ``{section: {key: value}}``, every value type-checked."""
    if path is None:
        return {}
    import yaml  # only a run with a config file pays for it

    try:
        with open(path) as handle:
            data = yaml.safe_load(handle)
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, not text
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    config = {}
    for section, keys in data.items():
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"unknown config section {section!r}")
        if keys is None:
            continue
        if not isinstance(keys, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        config[section] = {key: _checked(section, key, value)
                           for key, value in keys.items()}
    return config


def _settings(args, config, section: str) -> dict:
    """A config section with every flag given under the same name written over it."""
    values = dict(config.get(section, {}))
    for key in CONFIG_SCHEMA[section]:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _sim_params(args, config) -> circuit.SimParams:
    from .circuit import SimParams  # numpy: simulate and sweep only
    from .lindblad import StepperConfig

    # t is the one physics value without a SimParams default
    return SimParams(**{"t": 0.0, **_settings(args, config, "physics")},
                     stepper=StepperConfig(**_settings(args, config, "stepper")))


def _start_collector():
    """Turn the garbage collector on, with every object alive now frozen.

    :func:`process_main` runs the imports with the collector off.  What they
    built, numpy's and csign's modules among it, lives until exit, so no
    collection needs to walk it: neither those during the run nor the one at
    interpreter exit.  A sweep worker forked later shares the frozen heap.
    An in-process caller keeps its collector on, so this does nothing then.
    """
    if not gc.isenabled():
        gc.freeze()
        gc.enable()


def cmd_simulate(args) -> int:
    from . import circuit, fock

    config = _load_config(args.config)
    params = _sim_params(args, config)
    space = fock.default_state_space()
    run = _settings(args, config, "sweep")
    state = circuit.input_state(run.get("input", "p_test"), run.get("seed", 0), space)
    _start_collector()
    report = circuit.run_array(state, params, space)
    _write_output(args.out, report.to_json(indent=2) + "\n")
    return 0


def _write_output(out: str | None, text: str):
    """``text`` to the file ``out`` atomically, or to stdout if ``out`` is unset or "-"."""
    if out and out != "-":
        with _writing(out):
            atomic_write(out, text)
    else:
        sys.stdout.write(text)


@contextmanager
def _writing(path: str):
    """An OSError from writing the output ``path`` as a ConfigError naming it."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write output {path}: {exc.strerror or exc}") from exc


def _sweep_axes(config) -> tuple[sweep.Axis, ...]:
    from . import sweep

    axes_cfg = config.get("sweep", {}).get("axes")
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
        where = f"sweep.axes: axis {name!r}"
        try:
            if "values" in entry:
                axes.append(sweep.Axis(name, tuple(_float(v, f"{where} value")
                                                   for v in entry["values"])))
            else:
                axes.append(sweep.Axis.from_range(
                    name, *(_float(entry[key], f"{where} {key}")
                            for key in ("start", "stop", "step"))))
        except KeyError as exc:
            raise ConfigError(f"axis {name!r} needs values or start/stop/step") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: bad value: {exc}") from exc
    return tuple(axes)


def cmd_sweep(args) -> int:
    from . import sweep

    # workers is a runtime knob, not part of the sweep identity: flag only;
    # by default one per CPU this process may run on
    usable = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    workers = args.workers if args.workers is not None else len(usable(0))
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    config = _load_config(args.config)
    run = _settings(args, config, "sweep")
    spec = sweep.SweepSpec(
        axes=_sweep_axes(config),
        base=_sim_params(args, config),
        input_state=run.get("input", "p_test"),
        seed=run.get("seed", 0),
    )
    output = config.get("output", {})
    out_dir = args.out if args.out is not None else output.get("dir", "sweep_out")
    with _writing(out_dir):  # before any point runs
        os.makedirs(out_dir, exist_ok=True)

    _start_collector()
    records = sweep.run_sweep(spec, workers=workers)
    csv_path = os.path.join(out_dir, "sweep.csv")
    outputs = [csv_path]
    with _writing(out_dir):
        sweep.write_records_csv(records, csv_path)
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
    unread = [f"{section}.{key}" for section, keys in config.items() for key in keys
              if key not in CALIBRATE_KEYS.get(section, ())]
    if unread:
        raise ConfigError(f"calibrate does not read config keys {', '.join(unread)}")
    physics = _settings(args, config, "physics")
    g = physics.get("g", PhysParams.g)
    params = PhysParams(g=g, delta=physics.get("delta_over_g", 0.0) * g)
    section = _settings(args, config, "calibrate")
    ratios = section.get("ratios")
    if ratios and "horizon_t" in section:
        raise ConfigError("calibrate takes calibrate.horizon_t (--horizon-t) or "
                          "calibrate.ratios (--ratios), not both")

    lines = []
    if ratios:
        from fractions import Fraction  # only the ratio table needs it

        try:
            fracs = [Fraction(str(r)) for r in ratios]
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad ratio list {ratios!r}: {exc}") from exc
        lines.append("r,d,roundtrip_residual")
        _start_collector()
        for row in calibrate.detuning_table(fracs):
            lines.append(f"{row['r']},{row['d']!r},{row['roundtrip_residual']!r}")
    else:
        lines.append("t,delta_over_g,residual")
        _start_collector()
        for row in calibrate.candidate_table(params, section.get("horizon_t", 0.0)):
            lines.append(f"{row['t']!r},{row['delta_over_g']!r},{row['residual']!r}")

    _write_output(args.out, "\n".join(lines) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csign",
        description="Simulate and calibrate the cavity-based C-Sign gate array.")
    parser.add_argument("--version", action="version", version=f"csign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_help):
        # the flags every subcommand reads
        p.add_argument("--config", help="YAML config file")
        p.add_argument("--delta-over-g", dest="delta_over_g", type=float,
                       help="detuning in units of the coupling")
        p.add_argument("--out", help=out_help)

    def run_flags(p):
        # the flags of one gate-array run, read by simulate and sweep
        p.add_argument("--t", type=float, help="gate duration in sqrt(2)g/pi units")
        p.add_argument("--ly-over-g", dest="ly_over_g", type=float,
                       help="photon-leak coefficient in units of the coupling")
        p.add_argument("--phs", type=int, choices=(0, 1),
                       help="enable the compensating phase shifter")
        p.add_argument("--dt-steps", dest="dt_steps", type=int,
                       help="first-order trotter steps per gate duration; used "
                            "only when the leak is on (lossless runs are exact); "
                            "fixes the numbers but costs only about "
                            "log2(dt-steps) small matrix products")
        p.add_argument("--seed", type=int, help="seed for random valid inputs")
        p.add_argument("--input", choices=INPUT_SELECTORS,
                       help="input state selector (default p_test)")

    p_sim = sub.add_parser("simulate", help="run the array once, print a JSON report")
    common(p_sim, "output path (default stdout)")
    run_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV + manifest")
    common(p_sweep, "output directory (default output.dir, else sweep_out)")
    run_flags(p_sweep)
    p_sweep.add_argument("--workers", type=int,
                         help="parallel worker processes (default: the usable CPUs); "
                              "never more than the chunks of grid points")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="emit calibration candidate tables")
    common(p_cal, "output path (default stdout)")
    p_cal.add_argument("--horizon-t", dest="horizon_t", type=float,
                       help="largest duration (t units) to tabulate")
    p_cal.add_argument("--ratios", nargs="+",
                       help="rational ratios p/q for commensurable detunings")
    p_cal.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    """Run one command in this process; the exit code, or SystemExit from
    argument parsing."""
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


def _format_warning(message, category, filename, lineno, line=None) -> str:
    # the message alone: a source line inside the package names no flag
    return f"csign: warning: {message}\n"


def process_main() -> int:
    """The entry of a ``csign`` process: :func:`main` on ``sys.argv`` with the
    collector off until the command has imported what it runs (see
    :func:`_start_collector`) and each warning shown as one line."""
    gc.disable()
    warnings.formatwarning = _format_warning
    return main()


if __name__ == "__main__":
    sys.exit(process_main())
