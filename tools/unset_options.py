"""Print every option of src/charforge that no caller sets.

    python3 tools/unset_options.py

An option is a parameter with a default of a function or method in
`src/charforge`, or a field with a default of a frozen dataclass there. Every
call in `src/`, `perfbench/` and `tools/` is matched to the options by the
callee's name alone (`f(...)`, `obj.f(...)`, `Cls(...)`): a keyword sets the
option of that name, a positional argument the option at its place, and `*args`
or `**kwargs` every option of the callee. `dataclasses.replace(obj, name=...)`
sets the field `name` of every frozen dataclass. One line is printed per option
that no call sets, as `module.function(name)` or `module.Class.name`, so an
option set only by the tests is printed, and nothing when every option is set.
Matching by name may take a call of another function of the same name for a
setter, so an option can go unprinted, never be printed wrongly.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charforge"
CALLERS = ("src", "perfbench", "tools")


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and getattr(d.func, "id", getattr(d.func, "attr", None)) == "dataclass"
               and any(k.arg == "frozen" and getattr(k.value, "value", False) is True for k in d.keywords)
               for d in node.decorator_list)


def _callables(tree: ast.Module, module: str):
    """(callee name, label, "function" or "field", {option name: its positional place, None for a
    keyword-only one}) for every function, method and frozen dataclass of the module."""
    out = []

    def visit(node, owner: ast.ClassDef | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                static = any(getattr(d, "id", None) == "staticmethod" for d in child.decorator_list)
                if owner is not None and not static:
                    positional = positional[1:]  # self or cls is not passed in the call
                options = {p.arg: positional.index(p.arg) if p.arg in positional else None
                           for p in (a.posonlyargs + a.args)[len(a.posonlyargs + a.args) - len(a.defaults):]}
                options |= {p.arg: None for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None}
                label = f"{module}.{owner.name + '.' if owner else ''}{child.name}"
                out.append((child.name, label, "function", options))
                visit(child, None)
            elif isinstance(child, ast.ClassDef):
                if _is_frozen_dataclass(child):
                    fields = [s for s in child.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                    options = {s.target.id: i for i, s in enumerate(fields) if s.value is not None}
                    out.append((child.name, f"{module}.{child.name}", "field", options))
                visit(child, child)

    visit(tree, None)
    return out


def _calls(paths):
    """(callee name, positional argument count or None for *args, keyword names or None for **kwargs)."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            npos = None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            keys = None if any(k.arg is None for k in node.keywords) else {k.arg for k in node.keywords}
            yield name, npos, keys


def unset_options() -> list[str]:
    """The options no call sets, as printed: `module.function(name)` or `module.Class.name`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += _callables(ast.parse(path.read_text(), str(path)), path.stem)
    by_name: dict[str, list] = {}
    for name, label, form, options in found:
        by_name.setdefault(name, []).append((label, form, options, set()))
    replaced: set[str] = set()
    for name, npos, keys in _calls(p for d in CALLERS for p in sorted((ROOT / d).rglob("*.py"))):
        if name == "replace" and keys is not None:
            replaced |= keys
        for _, _, options, set_ in by_name.get(name, ()):
            set_ |= {o for o, place in options.items()
                     if npos is None or keys is None or o in keys or (place is not None and place < npos)}
    return [f"{label}.{o}" if form == "field" else f"{label}({o})"
            for entries in by_name.values() for label, form, options, set_ in entries
            for o in options if o not in set_ and not (form == "field" and o in replaced)]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    for line in unset_options():
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
