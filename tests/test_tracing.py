"""The benchmark's tracer wraps csign functions by name, so every name it
lists must still resolve to a function in the package."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, funcs in spans.TARGETS.items():
        module = importlib.import_module(module_name)
        for func in funcs:
            assert callable(getattr(module, func, None)), f"{module_name}.{func}"
