"""The package functions the benchmark in perfbench/ relies on by name.

perfbench traces the (module, function) pairs of spantrace.TRACED and builds
its group workloads through cli.circuit_gate_group. A function that moves or
is renamed would drop out of its traces silently, so the names are checked
here. TRACED is read from the source text, without importing perfbench.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SPANTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "spantrace.py"


def _traced() -> list[tuple[str, str]]:
    tree = ast.parse(SPANTRACE.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in n.targets))
    return list(ast.literal_eval(node.value))


@pytest.mark.parametrize("module, function", _traced())
def test_traced_function_exists(module, function):
    assert callable(getattr(importlib.import_module(f"charforge.{module}"), function, None))


def test_circuit_gate_group_keeps_its_signature():
    from charforge.cli import circuit_gate_group
    assert list(inspect.signature(circuit_gate_group).parameters) == ["c", "cfg"]
