"""The dependencies declared in pyproject.toml are the third-party modules
the package imports, no more and no fewer."""

import ast
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: distributions whose import name differs from the distribution name
IMPORT_NAMES = {"PyYAML": "yaml"}


def declared_imports():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        requirements = tomllib.load(handle)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group(0) for req in requirements}
    return {IMPORT_NAMES.get(name, name) for name in names}


def third_party_imports():
    modules = set()
    for path in sorted((ROOT / "src" / "csign").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return modules - set(sys.stdlib_module_names)


def test_declared_dependencies_match_imports():
    assert declared_imports() == third_party_imports() == {"numpy", "yaml"}
