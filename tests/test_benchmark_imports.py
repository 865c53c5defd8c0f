"""The benchmark's imports from mooredual still resolve.

The benchmark lives outside the tests and runs only on its own, so a name
the library drops would otherwise go unnoticed until the next benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def benchmark_imports():
    """(file, module, name) for every mooredual import in perfbench/*.py;
    name is None for a plain ``import mooredual.x``."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mooredual":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == "mooredual"]
    return found


def test_benchmark_imports_are_found():
    modules = {module for _, module, _ in benchmark_imports()}
    assert {"mooredual", "mooredual.substitution", "mooredual.cli"} <= modules


@pytest.mark.parametrize("source, module, name", benchmark_imports())
def test_benchmark_import_resolves(source, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), "%s imports %s from %s" % (source, name, module)
