"""One fresh workload process of the csign benchmark.

    child.py probe                      set up once, report the set-up time
    child.py sweep SPEC [SPANS]         set up, run one serial sweep
    child.py cli SPANS ARG...           run one traced ``csign`` command

Each process starts with cold csign caches.  Set-up is timed from before
``import csign`` (numpy included) through enumerating the state space and
building the first Hamiltonian and beamsplitter.  With a SPANS path the
process traces its calls into csign and writes the spans there on exit.
The result is one JSON line on stdout.
"""

import json
import sys
import time


def setup(tracer=None) -> float:
    started = time.perf_counter()
    import csign  # noqa: F401
    from csign import circuit, dynamics, fock

    if tracer is not None:
        tracer.install()
    space = fock.default_state_space()
    dynamics.build_array_hamiltonian(space, dynamics.PhysParams(), frame="rotating")
    circuit.beamsplitter_unitary(("x1", "y1"), space)
    return time.perf_counter() - started


def _tracer(spans_path):
    if spans_path is None:
        return None
    import spans
    return spans.Tracer()


def run_sweep(spec_path: str, spans_path: str = None) -> dict:
    tracer = _tracer(spans_path)
    setup_s = setup(tracer)
    from csign import circuit, lindblad, sweep

    with open(spec_path) as handle:
        spec_in = json.load(handle)
    spec = sweep.SweepSpec(
        axes=tuple(sweep.Axis(name, tuple(values)) for name, values in spec_in["axes"]),
        base=circuit.SimParams(**spec_in["base"]))
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    records = sweep.run_sweep(spec, workers=1)
    wall_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.dump(spans_path)
    return {
        "setup_s": setup_s, "wall_s": wall_s, "cpu_s": cpu_s,
        "trace_tol": lindblad.StepperConfig().trace_tol,
        "records": [{"t": r.t, "delta_over_g": r.delta_over_g,
                     "ly_over_g": r.ly_over_g, "error": r.error,
                     "trace_drift": r.trace_drift, "status": r.status,
                     "message": r.message} for r in records],
    }


def run_cli(spans_path: str, argv: list) -> int:
    import spans
    tracer = spans.Tracer()
    tracer.install()
    from csign import cli
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


def main() -> int:
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        return run_cli(rest[0], rest[1:])
    if mode == "probe":
        result = {"setup_s": setup()}
    elif mode == "sweep":
        result = run_sweep(*rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
