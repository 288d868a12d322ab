"""Print the statements of src/charforge that no command and no workload runs.

    python3 tools/user_paths.py [--seed 7001]

Under a `sys.settrace` line tracer (stdlib only), it runs every `charforge`
subcommand in process on small inputs (`group`, `chartab` and `decompose`
from a fixture and from a circuit file, `optimize`, `equiv`, `simulate` on
both engines, `claims`, `cost` in all three cases and a one-row `bench`), and
`simulate` on a refused circuit file, which must exit 2; then one cycle of
each perfbench workload, as `perfbench/workloads.py` builds it at `--seed`,
with each operation's output check. The tracer starts before
charforge is imported, so import-time lines count as run.

For each module it then prints the statements that never ran: raise
statements are left out, a statement is listed without the statements inside
it, and a function whose body never ran is one `never called` row. The total
wall time goes to stderr, with any operation whose check failed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "charforge"
WORKLOADS = ("optimize-suites", "verify-wide", "stabilizer-wide", "analyze-groups")
# statements that compile to no bytecode, so no line event can mark them run
NO_CODE = (ast.Pass, ast.Global, ast.Nonlocal)


class LineTracer:
    """Records (file, line) for every line run in a frame of the package. A
    code object stops being traced once each of its lines has run."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.lines: dict[str, set[int]] = defaultdict(set)
        self._left: dict = {}
        self._done: set = set()

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code in self._done or not code.co_filename.startswith(self.prefix):
            return None
        return self._line

    def _line(self, frame, event, arg):
        if event != "line":
            return self._line
        code = frame.f_code
        self.lines[code.co_filename].add(frame.f_lineno)
        left = self._left.get(code)
        if left is None:
            left = self._left[code] = {ln for _, _, ln in code.co_lines() if ln is not None}
            if code.co_name != "<module>":
                left.discard(code.co_firstlineno)  # the def line runs in the enclosing frame
        left.discard(frame.f_lineno)
        if not left:
            self._done.add(code)
            return None
        return self._line

    def __enter__(self):
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(None)


def run_commands(tmp: Path) -> None:
    from charforge.cli import main

    bell, hh, refused = tmp / "bell.circ", tmp / "hh.circ", tmp / "refused.circ"
    bell.write_text("qubits 2\nh 0\ncx 0 1\nmeasure 0\nmeasure 1\n")
    hh.write_text("qubits 1\nh 0\nx 0\nh 0\nmeasure 0\n")
    refused.write_text("qubits 2\nh 0\ncx 1 1\nmeasure 0\n")  # a data error: exit 2
    out = str(tmp / "out")
    cost = ["--k", "4", "--m", "10", "--order", "8", "--dmax", "2"]
    commands = [
        ["group", "--fixture", "d4"], ["group", "--in", str(bell)],
        ["chartab", "--fixture", "q8"], ["chartab", "--in", str(bell)],
        ["decompose", "--fixture", "d4"], ["decompose", "--in", str(bell)],
        ["optimize", "--in", str(hh), "--out", out, "--report", str(tmp / "report.json")],
        ["equiv", "--a", str(bell), "--b", str(hh), "--shots", "2000"],
        ["simulate", "--in", str(bell), "--engine", "sv", "--shots", "1000"],
        ["simulate", "--in", str(bell), "--engine", "tableau", "--shots", "1000"],
        ["claims", "--out", out],
        ["cost", "--case", "abelian", *cost], ["cost", "--case", "symmetric", "--n", "2", *cost],
        ["cost", "--case", "general", "--g-cost", "3", *cost],
        ["bench", "--suites", "bv", "--n-min", "2", "--n-max", "2", "--repeats", "1",
         "--shots", "1000", "--out-dir", str(tmp / "bench")],
        ["simulate", "--in", str(refused)],
    ]
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if code != (2 if str(refused) in argv else 0):
            print(f"charforge {' '.join(argv)} exited {code}: {err.getvalue().strip()}", file=sys.stderr)


def run_workloads(seed: int) -> None:
    """One cycle of each workload and the output checks, as perfbench/run.py
    runs them; a failed check is reported, never fatal."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in WORKLOADS:
        for op in workloads.WORKLOADS[name].build(seed, 1):
            try:
                out = op.run()
            except Exception as exc:  # an op that raises is a result, as in run.py
                if not (op.expect_error and isinstance(exc, op.expect_error)):
                    print(f"{name} {op.kind}: raised {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            reason = op.check(out)
            op.counts(out)
            if reason is not None:
                print(f"{name} {op.kind}: check failed: {reason}", file=sys.stderr)


def _body(stmts: list[ast.stmt]) -> list[ast.stmt]:
    """The statements that can produce a line event: no docstring, no
    annotation without a value, no pass."""
    if stmts and isinstance(stmts[0], ast.Expr) and isinstance(stmts[0].value, ast.Constant) \
            and isinstance(stmts[0].value.value, str):
        stmts = stmts[1:]
    return [s for s in stmts if not isinstance(s, NO_CODE)
            and not (isinstance(s, ast.AnnAssign) and s.value is None)]


def _first_line(s: ast.stmt) -> int:
    return min([s.lineno] + [d.lineno for d in getattr(s, "decorator_list", [])])


def _ran(s: ast.stmt, run: set[int]) -> bool:
    return any(ln in run for ln in range(_first_line(s), s.end_lineno + 1))


def _children(s: ast.stmt) -> list[list[ast.stmt]]:
    blocks = [getattr(s, f, []) for f in ("body", "orelse", "finalbody")]
    blocks += [h.body for h in getattr(s, "handlers", [])]
    return [b for b in blocks if b and isinstance(b[0], ast.stmt)]


def not_run(stmts: list[ast.stmt], run: set[int], scope: str, source: list[str]) -> tuple[int, list]:
    """(count of statements, rows (line, scope, text)) for the statements
    that never ran, raise statements left out."""
    total, rows = 0, []
    for s in _body(stmts):
        if isinstance(s, ast.Raise):
            continue
        total += 1
        inner = f"{scope}.{s.name}" if isinstance(s, (ast.FunctionDef, ast.ClassDef)) else scope
        if not _ran(s, run):
            rows.append((_first_line(s), scope, source[_first_line(s) - 1].strip()))
            continue
        if isinstance(s, ast.FunctionDef) and not any(_ran(b, run) for b in _body(s.body)):
            rows.append((s.lineno, inner.lstrip("."), "never called"))
            continue
        for block in _children(s):
            n, sub = not_run(block, run, inner, source)
            total, rows = total + n, rows + sub
    return total, rows


def report(lines: dict[str, set[int]]) -> str:
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        total, rows = not_run(ast.parse(source).body, lines.get(str(path), set()), "", source.splitlines())
        out.append(f"{path.relative_to(ROOT)}: {len(rows)} of {total} statements not run")
        out += [f"  {ln:4d}  {scope.lstrip('.') or '<module>'}: {text}" for ln, scope, text in rows]
    return "\n".join(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7001, help="workload seed (default 7001)")
    args = p.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    with LineTracer(str(PACKAGE)) as tracer, tempfile.TemporaryDirectory() as tmp:
        run_commands(Path(tmp))
        run_workloads(args.seed)
    print(f"traced in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(report(tracer.lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
