"""charforge command line: group dumps, character tables, decomposition
reports, circuit optimization, equivalence checks, simulation, claims, cost
estimates, and the benchmark harness.

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .algebra import decomposition_report_json, delta
from .bench import BenchConfig, emit_outputs, run_bench
from .characters import (central_idempotents, character_table,
                         character_table_csv, isotypic_projectors)
from .circuits import (Circuit, GateInstance, circuit_unitary, gate_generators,
                       parse_circuit, serialize_circuit)
from .claims import run_claims
from .complexity import CostParams, estimate_cost
from .errors import CharforgeError
from .fixtures import FIXTURE_NAMES, fixture_group
from .groups import (ClosureConfig, FiniteMatrixGroup, close_group,
                     element_of, group_to_json)
from .histogram import histogram_csv
from .optimize import OptimizeConfig, equivalence_check, optimize
from .statevector import sv_run
from .tableau import tableau_run


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def circuit_gate_group(c: Circuit, cfg: ClosureConfig) -> tuple[FiniteMatrixGroup, tuple[int, ...], Circuit]:
    """Close the circuit's distinct gate unitaries, embedded over the
    circuit's qubit support. Returns (group, support, compacted circuit)."""
    body, _ = c.body_and_suffix()
    support = tuple(sorted({q for g in body for q in g.qubits})) or (0,)
    pos = {q: i for i, q in enumerate(support)}
    compact = Circuit(
        len(support),
        tuple(GateInstance(g.kind, tuple(pos[q] for q in g.qubits), g.angle) for g in body),
        name=c.name)
    mats = gate_generators(body, support)[0] or [np.eye(1 << len(support), dtype=complex)]
    return close_group(mats, cfg), support, compact


def _read_circuit(path: str) -> Circuit:
    return parse_circuit(Path(path).read_text(), name=Path(path).stem)


def _group_from_args(args) -> FiniteMatrixGroup:
    cfg = ClosureConfig(max_order=args.max_order)
    if args.fixture:
        return fixture_group(args.fixture, cfg)
    return circuit_gate_group(_read_circuit(args.infile), cfg)[0]


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _add_group_source(p: _Parser) -> None:
    p.add_argument("--in", dest="infile", help="circuit file in the text format")
    p.add_argument("--fixture", choices=FIXTURE_NAMES, help="named fixture group")
    p.add_argument("--max-order", type=int, default=20000)


def build_parser() -> _Parser:
    parser = _Parser(prog="charforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, out: bool = True) -> _Parser:
        # a command without --out must not read it as an abbreviation
        p = sub.add_parser(name, help=help_text, allow_abbrev=out)
        p.add_argument("--seed", type=int, default=42)
        if out:
            p.add_argument("--out", help="output path (default: stdout)")
        return p

    p = add("group", "close a gate set and dump the group as JSON")
    _add_group_source(p)

    p = add("chartab", "character table as CSV")
    _add_group_source(p)

    p = add("decompose", "character decomposition report for a circuit's unitary")
    _add_group_source(p)

    p = add("optimize", "run the three-pass optimization pipeline")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--max-order", type=int, default=20000)
    p.add_argument("--report", help="write the pass report JSON here")
    p.add_argument("--phase-sensitive", action="store_true",
                   help="disable global-phase-insensitive matching")

    p = add("equiv", "operational equivalence of two circuits")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--tv-tol", type=float, default=0.02)
    p.add_argument("--obs-tol", type=float, default=1e-7)

    p = add("simulate", "run a circuit and emit the histogram CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--engine", choices=("sv", "tableau"), default="sv")
    p.add_argument("--shots", type=int, default=100_000)

    p = add("claims", "evaluate the registered formula claims on the fixtures")

    p = add("cost", "evaluate the runtime-cost model")
    p.add_argument("--case", choices=("abelian", "symmetric", "general"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--g-cost", type=float)

    p = add("bench", "benchmark original vs optimized circuits", out=False)
    p.add_argument("--suites", default="bv,qft,grover,vqe")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--shots", type=int, default=100_000)
    p.add_argument("--out-dir", default="bench_out")

    return parser


def _cmd_group(args) -> None:
    group = _group_from_args(args)
    _write_or_print(json.dumps(group_to_json(group), indent=2) + "\n", args.out)


def _cmd_chartab(args) -> None:
    group = _group_from_args(args)
    _write_or_print(character_table_csv(character_table(group, seed=args.seed)), args.out)


def _cmd_decompose(args) -> None:
    cfg = ClosureConfig(max_order=args.max_order)
    if args.fixture:
        group = fixture_group(args.fixture, cfg)
        element = 0
    else:
        group, _, compact = circuit_gate_group(_read_circuit(args.infile), cfg)
        u = circuit_unitary(compact)
        found = element_of(group, u)
        if found is None:
            raise CharforgeError("circuit unitary is not an element of its gate group")
        element = found
    table = character_table(group, seed=args.seed)
    idem = central_idempotents(group, table)
    projs = isotypic_projectors(group, table)
    report = decomposition_report_json(delta(group, element), table, idem, projs)
    _write_or_print(json.dumps(report, indent=2) + "\n", args.out)


def _cmd_optimize(args) -> None:
    circuit = _read_circuit(args.infile)
    cfg = OptimizeConfig(
        max_order=args.max_order,
        phase_insensitive=not args.phase_sensitive,
        equiv_seed=args.seed,
    )
    optimized, report = optimize(circuit, cfg)
    _write_or_print(serialize_circuit(optimized), args.out)
    if args.report:
        _write_or_print(json.dumps(report.to_json(), indent=2) + "\n", args.report)


def _cmd_equiv(args) -> None:
    verdict = equivalence_check(
        _read_circuit(args.a), _read_circuit(args.b),
        shots=args.shots, seed=args.seed,
        tv_tol=args.tv_tol, obs_tol=args.obs_tol)
    _write_or_print(json.dumps(verdict.to_json(), indent=2) + "\n", args.out)


def _cmd_simulate(args) -> None:
    circuit = _read_circuit(args.infile)
    run = sv_run if args.engine == "sv" else tableau_run
    hist = run(circuit, shots=args.shots, seed=args.seed)
    _write_or_print(histogram_csv(hist), args.out)


def _cmd_claims(args) -> None:
    _write_or_print(run_claims(seed=args.seed).to_json_text(), args.out)


def _cmd_cost(args) -> None:
    params = CostParams(case=args.case, k=args.k, m=args.m, n=args.n,
                        order=args.order, dmax=args.dmax, g_cost=args.g_cost)
    est = estimate_cost(params)
    _write_or_print(f"{est.value:g}\n{est.formula_text}\n", args.out)


def _cmd_bench(args) -> None:
    cfg = BenchConfig(
        suites=tuple(s.strip() for s in args.suites.split(",") if s.strip()),
        n_min=args.n_min, n_max=args.n_max,
        repeats=args.repeats, shots=args.shots, seed=args.seed)
    results = run_bench(cfg)
    for suite, n, msg in results.failures:
        print(f"row failed: {suite} n={n}: {msg}", file=sys.stderr)
    out_dir = Path(args.out_dir)
    written = emit_outputs(results, out_dir / "bench.csv", out_dir / "bench.svg",
                           out_dir / "histograms")
    for p in written:
        print(p)


_COMMANDS = {
    "group": _cmd_group,
    "chartab": _cmd_chartab,
    "decompose": _cmd_decompose,
    "optimize": _cmd_optimize,
    "equiv": _cmd_equiv,
    "simulate": _cmd_simulate,
    "claims": _cmd_claims,
    "cost": _cmd_cost,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "infile", None) is None and getattr(args, "fixture", None) is None \
            and args.command in ("group", "chartab", "decompose"):
        parser.error(f"{args.command} needs --in or --fixture")
    try:
        _COMMANDS[args.command](args)
    except (CharforgeError, OSError, ValueError) as exc:
        print(f"charforge {args.command}: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
