"""Command-line front end: single runs, sweeps, and calibration tables.

Configuration is a YAML key-value tree of sections.  Each command accepts
only the keys it applies (:data:`CONFIG_SCHEMA`): ``simulate`` reads
``physics``, ``stepper``, ``sweep.input`` and ``sweep.seed``, ``sweep`` also
``sweep.axes`` and ``output.dir``, and ``calibrate`` ``physics.g``,
``physics.delta_over_g`` and ``calibrate``.  Any other key, a wrongly typed
value, a swept value set by a flag or physics key, and ``calibrate.ratios``
with any other setting are config errors.  A sweep axis takes ``values`` or
``start``/``stop``/``step``.  Flags override the config file; the physics
and stepper defaults are those of :class:`~csign.circuit.SimParams` and
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

# per command, each config key it applies with the type its value must have (a
# float key also takes a YAML int); sweep also reads its axes and output directory
_RUN = {"physics": {"t": float, "delta_over_g": float, "ly_over_g": float, "phs": int,
                    "g": float},
        "stepper": {"dt_steps": int}, "sweep": {"input": str, "seed": int}}
CONFIG_SCHEMA = {
    "simulate": _RUN,
    "sweep": {**_RUN, "sweep": {"axes": list, **_RUN["sweep"]}, "output": {"dir": str}},
    "calibrate": {"physics": {"g": float, "delta_over_g": float},
                  "calibrate": {"horizon_t": float, "ratios": list}},
}


def _checked(value, kind: type, where: str):
    # exact types, since a YAML bool is an int subclass; a float also takes an int
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"{where} must be {kind.__name__}, got {value!r}")
    return value


def _load_config(path: str | None, command: str) -> dict:
    """The config file as ``{section: {key: value}}``, every value type-checked.

    Every key must be one ``command`` reads (see :data:`CONFIG_SCHEMA`): one
    ConfigError names all the others, each as ``section.key``, or a section
    alone when it holds no key."""
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
    schema = CONFIG_SCHEMA[command]
    unread = []
    for section, keys in data.items():
        if isinstance(keys, dict) and keys:
            unread += [f"{section}.{key}" for key in keys if key not in schema.get(section, ())]
        elif section not in schema:
            unread.append(str(section))
    if unread:
        raise ConfigError(f"{command} does not read config keys {', '.join(unread)}")
    config = {}
    for section, keys in data.items():
        if keys is None:
            continue
        if not isinstance(keys, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        config[section] = {key: _checked(value, schema[section][key], f"{section}.{key}")
                           for key, value in keys.items()}
    return config


def _settings(args, config, section: str) -> dict:
    """A config section with every flag given under the same name written over it."""
    values = dict(config.get(section, {}))
    for key in CONFIG_SCHEMA[args.command][section]:
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

    config = _load_config(args.config, args.command)
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
        name = entry["name"]
        where = f"sweep.axes: axis {name!r}"
        shape = [key for key in entry if key != "name"]
        if set(shape) not in ({"values"}, {"start", "stop", "step"}):
            raise ConfigError(f"{where} takes values or start, stop and step, "
                              f"got keys {shape}")
        try:
            if "values" in entry:
                axes.append(sweep.Axis(name, tuple(_checked(v, float, f"{where} value")
                                                   for v in entry["values"])))
            else:
                axes.append(sweep.Axis.from_range(
                    name, *(_checked(entry[key], float, f"{where} {key}")
                            for key in ("start", "stop", "step"))))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: bad value: {exc}") from exc
    return tuple(axes)


def cmd_sweep(args) -> int:
    from . import sweep

    # workers is a runtime knob, not part of the sweep identity: flag only;
    # by default one per CPU this process may run on
    workers = args.workers if args.workers is not None else sweep.usable_cpus()
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    config = _load_config(args.config, args.command)
    axes = _sweep_axes(config)
    fixed = _settings(args, config, "physics")
    swept = [axis.name for axis in axes if axis.name in fixed]
    if swept:
        raise ConfigError(f"sweep.axes sweeps {', '.join(swept)}: a swept value "
                          f"takes no flag or physics key")
    run = _settings(args, config, "sweep")
    spec = sweep.SweepSpec(
        axes=axes,
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
    config = _load_config(args.config, args.command)
    section = _settings(args, config, "calibrate")
    ratios = section.pop("ratios", None)
    physics = _settings(args, config, "physics")
    given = [f"calibrate.{key}" for key in section] + [f"physics.{key}" for key in physics]
    if ratios and given:  # the detuning table depends on the ratios alone
        raise ConfigError(f"calibrate.ratios (--ratios) takes no other setting, got "
                          f"{', '.join(given)}")

    lines = []
    if ratios:
        from fractions import Fraction  # only the ratio table needs it

        texts = [str(r) for r in ratios]  # calibrate names a bad ratio as it was typed
        try:
            for text in texts:
                Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad ratio list {ratios!r}: {exc}") from exc
        lines.append("r,d,roundtrip_residual")
        _start_collector()
        for row in calibrate.detuning_table(texts):
            lines.append(f"{row['r']},{row['d']!r},{row['roundtrip_residual']!r}")
    else:
        g = physics.get("g", PhysParams.g)
        params = PhysParams(g=g, delta=physics.get("delta_over_g", 0.0) * g)
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
                            "log2(dt-steps) small matrix products; round-off "
                            "makes accuracy peak near 10**6 to 10**7 steps; "
                            "at most 10**8")
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
                              "never more than the usable CPUs or the chunks of "
                              "grid points")
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
