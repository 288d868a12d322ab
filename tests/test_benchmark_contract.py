"""The package functions the benchmark in perfbench/ relies on by name.

perfbench traces the (module, function) pairs of spantrace.TRACED and builds
its group workloads through cli.circuit_gate_group. A function that moves or
is renamed would drop out of its traces silently, so the names are checked
here, as is every name that perfbench/workloads.py imports from the package
and every keyword argument it passes to one, so that removing or renaming one
fails here rather than in a benchmark run. TRACED, the imports and the calls
are read from the source text, without importing perfbench.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANTRACE = PERFBENCH / "spantrace.py"


def _traced() -> list[tuple[str, str]]:
    tree = ast.parse(SPANTRACE.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in n.targets))
    return list(ast.literal_eval(node.value))


def _workload_imports() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    return [(n.module, a.name) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
            and (n.module or "").split(".")[0] == "charforge" for a in n.names]


def _workload_keywords() -> list[tuple[str, str, str]]:
    """(module, name, keyword) of each keyword argument in a call of a name
    that perfbench/workloads.py imports from the package, once each."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    imported = {a.asname or a.name: (n.module, a.name) for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                and (n.module or "").split(".")[0] == "charforge" for a in n.names}
    return sorted({(*imported[n.func.id], k.arg) for n in ast.walk(tree) if isinstance(n, ast.Call)
                   and isinstance(n.func, ast.Name) and n.func.id in imported for k in n.keywords if k.arg})


@pytest.mark.parametrize("module, function", _traced())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"charforge.{module}"), function, None))


@pytest.mark.parametrize("module, name", _workload_imports())
def test_workload_import_exists(module, name):
    package = importlib.import_module(module)
    if not hasattr(package, name):  # a submodule, as in `from charforge import cli`
        importlib.import_module(f"{module}.{name}")


@pytest.mark.parametrize("module, name, keyword", _workload_keywords())
def test_workload_keyword_names_a_parameter(module, name, keyword):
    assert keyword in inspect.signature(getattr(importlib.import_module(module), name)).parameters


def test_circuit_gate_group_keeps_its_signature():
    from charforge.cli import circuit_gate_group
    assert list(inspect.signature(circuit_gate_group).parameters) == ["c", "cfg"]
