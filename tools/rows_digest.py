"""Print one digest of the optimizer's output over the bench rows.

    PYTHONPATH=src python3 tools/rows_digest.py

For each phase mode (insensitive, then sensitive), each suite (bv, qft,
grover, vqe) and each n = 2..6 with seed 0, the bench circuit is optimized
as `run_bench` optimizes it. A sha256 is fed the optimized circuit text, the
JSON of the report's segments and the repr of the `cost_model` value. The
first 16 hex digits are printed; a refactor that keeps them keeps every
rewrite, segment record and cost of the 20 rows in both modes.
"""

from __future__ import annotations

import hashlib
import json

from charforge.bench import SUITES, _cost_for, _spec_for
from charforge.circuits import build_benchmark, serialize_circuit
from charforge.optimize import OptimizeConfig, optimize


def rows_digest() -> str:
    h = hashlib.sha256()
    for phase_insensitive in (True, False):
        cfg = OptimizeConfig(phase_insensitive=phase_insensitive, run_equivalence=False)
        for suite in SUITES:
            for n in range(2, 7):
                circuit = build_benchmark(_spec_for(suite, n, 0))
                out, report = optimize(circuit, cfg)
                h.update(serialize_circuit(out).encode())
                h.update(json.dumps(report.to_json()["segments"]).encode())
                h.update(repr(_cost_for(report, circuit, cfg)).encode())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    print(rows_digest())
