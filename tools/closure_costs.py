"""Print what `close_group` costs on a few closures the optimizer builds.

    PYTHONPATH=src python3 tools/closure_costs.py [--repeats 11]

One line per closure: its gates, the matrix dimension d, the form its
elements take in the BFS (rows when every generator and every element of the
base is monomial, else dense matrices), the median wall-clock ms of one
`close_group` call, the `ElementLookup.find` calls one closure makes, and its
element count. A closure that passes its cap stops there and says so; its
count is the elements it had found. The generators come
from `gate_generators` over the gates' qubits, as the optimizer makes them.
The last closure is seeded: it extends the closure of its first gates, which
is built once outside the timing, and counts that group's cosets first.
Timings are wall clock; compare them only within one run.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from charforge.circuits import gate, gate_generators
from charforge.errors import OrderCapExceeded
from charforge.groups import ClosureConfig, ElementLookup, _rows_of, close_group

CAP = 2896  # the optimizer's cap at d <= 16: an order² int16 Cayley table within its byte budget

# (name, gates, max_order, the number of leading gates whose closure seeds it: 0 for none)
CLOSURES = [
    ("x2 h2 h0 cx02", [gate("x", 2), gate("h", 2), gate("h", 0), gate("cx", 0, 2)], 20000, 0),
    ("h0 cx01 cx12", [gate("h", 0), gate("cx", 0, 1), gate("cx", 1, 2)], 20000, 0),
    ("h0 cp01(pi/2) h1", [gate("h", 0), gate("cp", 0, 1, angle=math.pi / 2), gate("h", 1)], CAP, 0),
    ("h0 t0", [gate("h", 0), gate("t", 0)], CAP, 0),
    ("cx01 cx12 cx23 cx34", [gate("cx", q, q + 1) for q in range(4)], 20000, 0),
    ("t0 cx01 cp12(pi/4) cx23 swap34", [gate("t", 0), gate("cx", 0, 1), gate("cp", 1, 2, angle=math.pi / 4),
                                        gate("cx", 2, 3), gate("swap", 3, 4)], 20000, 0),
    ("s0 h0 cx01 from s0 h0", [gate("s", 0), gate("h", 0), gate("cx", 0, 1)], 20000, 2),
]


def _close(gens, cap: int, base) -> int | None:
    """The order of the closure, None past the cap."""
    try:
        return close_group(gens, ClosureConfig(max_order=cap), base).order
    except OrderCapExceeded:
        return None


def closure_costs(repeats: int) -> list[tuple[str, int, str, float, int, int, bool]]:
    """(name, d, form, median ms, find calls, elements, passed the cap) per closure."""
    rows, find = [], ElementLookup.find
    for name, gates, cap, k in CLOSURES:
        gens = gate_generators(gates, tuple(sorted({q for g in gates for q in g.qubits})))[0]
        base = close_group(gens[:k]) if k else None
        monomial = _rows_of(np.stack(gens)) is not None and (base is None or _rows_of(base.mats) is not None)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _close(gens, cap, base)
            times.append(time.perf_counter() - t0)
        calls, elements = [0], [0]

        def counting(self, batch, max_order=None):
            calls[0] += 1
            out = find(self, batch, max_order)
            elements[0] = self.count
            return out

        ElementLookup.find = counting
        try:
            order = _close(gens, cap, base)
        finally:
            ElementLookup.find = find
        rows.append((name, len(gens[0]), "rows" if monomial else "dense", 1e3 * float(np.median(times)), calls[0],
                     elements[0] if order is None else order, order is None))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=11)
    args = ap.parse_args(argv)
    print(f"close_group ms, median of {args.repeats}")
    for name, dim, form, ms, calls, elements, capped in closure_costs(args.repeats):
        print(f"{name:<30s} d={dim:<3d} {form:<5s} {ms:8.2f} ms  finds {calls:4d}  "
              f"elements {elements}{' (passed the cap)' if capped else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
