"""Print one digest of the optimizer's output over the bench rows, then the
number of close_group calls in each phase mode.

    PYTHONPATH=src python3 tools/rows_digest.py

For each phase mode (insensitive, then sensitive), each suite (bv, qft,
grover, vqe) and each n = 2..6 with seed 0, the bench circuit is optimized
as `run_bench` optimizes it. A sha256 is fed the optimized circuit text, the
JSON of the report's segments and the repr of the `cost_model` value. The
first 16 hex digits are printed; a refactor that keeps them keeps every
rewrite, segment record and cost of the 20 rows in both modes. The next two
lines count the closures the optimizer and `cost_model` build in each mode.
"""

from __future__ import annotations

import hashlib
import importlib
import json

from charforge.bench import SUITES, _cost_for, _spec_for
from charforge.circuits import build_benchmark, serialize_circuit
from charforge.optimize import OptimizeConfig, optimize

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


if __name__ == "__main__":
    digest, calls = rows_digest()
    print(digest)
    for phase_insensitive, n in calls.items():
        print(f"close_group calls, {'phase-insensitive' if phase_insensitive else 'phase-sensitive'}: {n}")
