"""Print one digest of the optimizer's output over the bench rows, then the
number of close_group calls in each phase mode.

    PYTHONPATH=src python3 tools/rows_digest.py

For each phase mode (insensitive, then sensitive), each suite (bv, qft,
grover, vqe) and each n = 2..6 with seed 0, the bench circuit is optimized
as `run_bench` optimizes it. A sha256 is fed the optimized circuit text, the
JSON of the report's segments and the repr of the `cost_model` value. The
first 16 hex digits are printed; a refactor that keeps them keeps every
rewrite, segment record and cost of the 20 rows in both modes. The next two
lines count the closures the optimizer and `cost_model` build in each mode:
the close_group calls, one per local key (a gate set on other qubits of the
same pattern is a cache hit) in each `optimize` and `cost_model` call, and
again for a part first refused under the bound the other parts leave. A
gate set that the coset count of its base refutes before any BFS counts as a
call.

The last line digests the closures the group commands build: for the gate
sets of the analyze-groups workload in perfbench/workloads.py, each closed by
`cli.circuit_gate_group` on its qubits as listed, then for every fixture, a
sha256 is fed the group's `mats` and `right` and its seed-0 character table
CSV, and its first 16 hex digits are printed.

The line after it digests what `charforge decompose --in` and `charforge
claims` print, through `cli.main` with the default seed: a sha256 is fed the
decompose report of one circuit per analyze-groups gate set (its gates once
each, as listed), then of (cp(2.094395102) 0 1, x 0, x 1) ten times and one
more cp, then the claims JSON.

The line after it digests dense convolution: on clifford1 and on the
order-512 closure of {h 0, cx 0 1, cx 1 2}, a sha256 is fed the coefficients
of convolve(a, b) for two random_element draws a, b from the seed-0 generator.

The last line digests the stabilizer sampler: a sha256 is fed the
(outcome, count) sequence, key order included, of `tableau_run` on seeded
`random_clifford_circuit`s at n = 12 (100,000 shots), 40 and 100, then on
all-h circuits at 16 and 70 qubits (2,000 shots each), run i with seed i.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from charforge import cli
from charforge.algebra import convolve, random_element
from charforge.bench import SUITES, _cost_for, _spec_for
from charforge.characters import character_table, character_table_csv
from charforge.circuits import Circuit, build_benchmark, gate, random_clifford_circuit, serialize_circuit
from charforge.fixtures import FIXTURE_NAMES, fixture_group
from charforge.groups import ClosureConfig
from charforge.optimize import OptimizeConfig, optimize
from charforge.tableau import tableau_run

ROOT = Path(__file__).resolve().parent.parent

# the package exports the optimize function under the module's name
optimize_module = importlib.import_module("charforge.optimize")


def rows_digest() -> tuple[str, dict[bool, int]]:
    """The digest and the close_group calls by phase_insensitive."""
    h, calls, count, close_group = hashlib.sha256(), {}, [0], optimize_module.close_group

    def counted(*args, **kwargs):
        count[0] += 1
        return close_group(*args, **kwargs)

    optimize_module.close_group = counted
    try:
        for phase_insensitive in (True, False):
            count[0] = 0
            cfg = OptimizeConfig(phase_insensitive=phase_insensitive, run_equivalence=False)
            for suite in SUITES:
                for n in range(2, 7):
                    circuit = build_benchmark(_spec_for(suite, n, 0))
                    out, report = optimize(circuit, cfg)
                    h.update(serialize_circuit(out).encode())
                    h.update(json.dumps(report.to_json()["segments"]).encode())
                    h.update(repr(_cost_for(report, circuit, cfg)).encode())
            calls[phase_insensitive] = count[0]
    finally:
        optimize_module.close_group = close_group
    return h.hexdigest()[:16], calls


def gate_set_circuits() -> list[Circuit]:
    """One circuit per analyze-groups gate set, its gates once each, as listed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return [Circuit(n, tuple(gate(kind, *qs) for kind, *qs in gates)) for n, gates, _, _ in workloads.GATE_SETS]


def closures_digest() -> str:
    """The digest of the analyze-groups gate sets' and the fixtures' closures."""
    groups = [cli.circuit_gate_group(c, ClosureConfig())[0] for c in gate_set_circuits()]
    groups += [fixture_group(name) for name in FIXTURE_NAMES]
    h = hashlib.sha256()
    for group in groups:
        h.update(group.mats.tobytes())
        h.update(group.right.tobytes())
        h.update(character_table_csv(character_table(group, seed=0)).encode())
    return h.hexdigest()[:16]


def commands_digest() -> str:
    """The digest of the decompose reports and the claims JSON the CLI writes."""
    texts = [serialize_circuit(c) for c in gate_set_circuits()]
    texts.append("qubits 2\n" + "cp(2.094395102) 0 1\nx 0\nx 1\n" * 10 + "cp(2.094395102) 0 1\n")
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        circ, out = Path(tmp) / "in.circ", Path(tmp) / "out"

        def written(*argv: str) -> bytes:
            if cli.main([*argv, "--out", str(out)]) != 0:
                raise SystemExit(f"charforge {' '.join(argv)} failed")
            return out.read_bytes()

        for text in texts:
            circ.write_text(text)
            h.update(written("decompose", "--in", str(circ)))
        h.update(written("claims"))
    return h.hexdigest()[:16]


def convolve_digest() -> str:
    """The digest of dense-by-dense convolutions on clifford1 and on the
    order-512 closure of {h 0, cx 0 1, cx 1 2}."""
    h3 = Circuit(3, (gate("h", 0), gate("cx", 0, 1), gate("cx", 1, 2)))
    h = hashlib.sha256()
    for group in (fixture_group("clifford1"), cli.circuit_gate_group(h3, ClosureConfig())[0]):
        rng = np.random.default_rng(0)
        a, b = random_element(group, rng), random_element(group, rng)
        h.update(convolve(a, b).coeffs.tobytes())
    return h.hexdigest()[:16]



def tableau_digest() -> str:
    """The digest of tableau_run histograms on fixed Clifford and all-h circuits."""
    runs = [(random_clifford_circuit(n, 10 * n, seed=n), 100_000 if n == 12 else 2000) for n in (12, 40, 100)]
    runs += [(Circuit(n, tuple(gate("h", q) for q in range(n))), 2000) for n in (16, 70)]
    h = hashlib.sha256()
    for seed, (c, shots) in enumerate(runs):
        h.update("".join(f"{k}:{v};" for k, v in tableau_run(c, shots, seed).counts.items()).encode())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    digest, calls = rows_digest()
    print(digest)
    for phase_insensitive, n in calls.items():
        print(f"close_group calls, {'phase-insensitive' if phase_insensitive else 'phase-sensitive'}: {n}")
    print(f"group-command closures: {closures_digest()}")
    print(f"decompose reports and claims: {commands_digest()}")
    print(f"dense convolutions: {convolve_digest()}")
    print(f"tableau histograms: {tableau_digest()}")
