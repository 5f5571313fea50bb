"""Span tracing at csign's module boundaries, from outside the package.

``Tracer.install`` replaces each public function listed in ``TARGETS`` with a
wrapper, in every csign module namespace that holds it, so calls between
modules (and a module's calls to its own globals) pass through the wrapper.
A span is ``[name, start, end, parent, attrs]``; spans stay in memory and are
written out once, at the end of the process.  Only the installing process
records: forked sweep workers run the wrappers but keep no spans.

``layer_metrics`` turns the spans of one workload repetition into the
per-layer metrics of the benchmark.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

TARGETS = {
    "csign.fock": ("enumerate_states", "partial_trace_atoms"),
    "csign.dynamics": ("build_array_hamiltonian",),
    "csign.lindblad": ("evolve", "unitary_step_matrix"),
    "csign.circuit": ("run_array", "error_rate"),
    "csign.sweep": ("run_sweep", "write_records_csv", "write_optimal_csv",
                    "write_manifest"),
    "csign.calibrate": ("candidate_table", "detuning_table"),
    "csign.cli": ("main",),
}

WRITERS = ("sweep.write_records_csv", "sweep.write_optimal_csv",
           "sweep.write_manifest")


def _span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{func}"


def _evolve_attrs(args, kwargs, result) -> dict:
    return {"steps": result.n_steps}


def _sweep_attrs(args, kwargs, result) -> dict:
    workers = kwargs.get("workers", args[1] if len(args) > 1 else 1)
    return {"workers": max(1, int(workers)), "points": len(result),
            "point_ms": sum(r.wall_ms for r in result)}


ATTRS = {"lindblad.evolve": _evolve_attrs, "sweep.run_sweep": _sweep_attrs}


class Tracer:
    """In-memory span recorder for the process that creates it."""

    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        attrs_of = ATTRS.get(name)

        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    span[4] = attrs_of(args, kwargs, result)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        """Import every target module and route its listed functions through
        span wrappers, wherever a csign module has bound them."""
        for module_name, funcs in TARGETS.items():
            module = importlib.import_module(module_name)
            for func in funcs:
                original = getattr(module, func)
                name = _span_name(module_name, func)
                self.originals[name] = original
                wrapper = self._wrap(name, original)
                for loaded in [m for k, m in sys.modules.items()
                               if k == "csign" or k.startswith("csign.")]:
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)

    def cache_stats(self) -> dict:
        info = self.originals["dynamics.build_array_hamiltonian"].cache_info()
        return {"hits": info.hits, "misses": info.misses}

    def dump(self, path: str):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "cache": self.cache_stats()}, handle)


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(processes: list[dict]) -> dict:
    """Per-layer metrics of one repetition from its traced processes.

    Stage times (``*_ms`` of lindblad, dynamics, circuit and fock stages)
    are ms per point, where a point is one ``circuit.run_array`` call and
    only calls made inside one count.  ``sweep.*`` come from ``run_sweep``
    wall time against the summed ``wall_ms`` of its records, times the
    worker count.  Writer and calibration-table times are per repetition,
    ``cli.self_ms`` per command and ``fock.enumerate_ms`` per call.
    """
    total = {}
    count = {}
    steps = points = 0
    ra_ms = ra_child_ms = 0.0
    sweep_core_ms = sweep_point_ms = 0.0
    sweep_points = 0
    cli_self = []
    hits = misses = 0
    for proc in processes:
        spans = proc["spans"]
        hits += proc["cache"]["hits"]
        misses += proc["cache"]["misses"]
        children_ms = [0.0] * len(spans)
        under_ra = [False] * len(spans)
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            if parent is not None:
                children_ms[parent] += (end - start) * 1e3
                under_ra[i] = under_ra[parent] or spans[parent][0] == "circuit.run_array"
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            ms = (end - start) * 1e3
            key = name + ("@point" if under_ra[i] else "")
            total[key] = total.get(key, 0.0) + ms
            count[key] = count.get(key, 0) + 1
            if name == "circuit.run_array":
                points += 1
                ra_ms += ms
                ra_child_ms += children_ms[i]
            elif name == "lindblad.evolve" and under_ra[i]:
                steps += attrs["steps"]
            elif name == "sweep.run_sweep":
                sweep_core_ms += ms * attrs["workers"]
                sweep_point_ms += attrs["point_ms"]
                sweep_points += attrs["points"]
            elif name == "cli.main":
                cli_self.append(ms - children_ms[i])

    def per_point(name):
        return _ratio(total.get(name + "@point", 0.0), points)

    evolve_ms = total.get("lindblad.evolve@point", 0.0)
    return {
        "lindblad.evolve_ms": (per_point("lindblad.evolve"), "ms"),
        "lindblad.steps_per_point": (_ratio(steps, points), "count"),
        "lindblad.step_rate": (_ratio(steps, evolve_ms / 1e3), "1/s"),
        "lindblad.propagator_ms": (per_point("lindblad.unitary_step_matrix"), "ms"),
        "lindblad.propagator_calls": (
            _ratio(count.get("lindblad.unitary_step_matrix@point", 0), points), "count"),
        "dynamics.hamiltonian_ms": (per_point("dynamics.build_array_hamiltonian"), "ms"),
        "dynamics.hamiltonian_builds": (_ratio(misses, points), "count"),
        "dynamics.hamiltonian_hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "circuit.run_array_ms": (_ratio(ra_ms, points), "ms"),
        "circuit.self_ms": (_ratio(ra_ms - ra_child_ms, points), "ms"),
        "circuit.error_metric_ms": (per_point("circuit.error_rate"), "ms"),
        "circuit.evolve_share": (_ratio(evolve_ms, ra_ms), "ratio"),
        "circuit.child_coverage": (_ratio(ra_child_ms, ra_ms), "ratio"),
        "fock.partial_trace_ms": (per_point("fock.partial_trace_atoms"), "ms"),
        "sweep.dispatch_overhead_ms": (
            _ratio(sweep_core_ms - sweep_point_ms, sweep_points), "ms"),
        "sweep.parallel_efficiency": (_ratio(sweep_point_ms, sweep_core_ms), "ratio"),
        "sweep.write_ms": (sum(total.get(w, 0.0) for w in WRITERS), "ms"),
        "calibrate.candidate_table_ms": (total.get("calibrate.candidate_table", 0.0), "ms"),
        "calibrate.detuning_table_ms": (total.get("calibrate.detuning_table", 0.0), "ms"),
        "cli.self_ms": (_ratio(sum(cli_self), len(cli_self)), "ms"),
        "fock.enumerate_ms": (
            _ratio(total.get("fock.enumerate_states", 0.0)
                   + total.get("fock.enumerate_states@point", 0.0),
                   count.get("fock.enumerate_states", 0)
                   + count.get("fock.enumerate_states@point", 0)), "ms"),
    }
