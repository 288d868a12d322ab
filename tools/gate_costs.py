"""Print what the state-vector gate kernel costs, per gate kind and qubit.

    PYTHONPATH=src python3 tools/gate_costs.py [--n 20] [--repeats 5]

The first table has one row per gate kind and one column per target qubit q:
the median wall-clock ms of one `apply_matrix` call on a 2^n state. A
two-qubit gate targets q from qubit (q + 1) mod n; cp takes the angle pi/4.
This is the kernel alone: inside the gate loop x, y and z only update the
Pauli frame. Then two lines for each seeded random Clifford circuit of depth
400 on n qubits (seeds 1, 2 and 3): the median µs per gate of `run_gates`,
frame included, from |0...0> and from an explicit `zero_state` initial. The
first skips what leaves |0> alone on a register of the qubits the gates have
taken out of it, the second runs every gate on the full state, so skipped
work and kernel cost show apart. Timings are wall clock; compare them only
within one run.
"""

from __future__ import annotations

import argparse
import math
import time

import numpy as np

from charforge.circuits import GATE_ARITY, apply_matrix, gate_matrix, random_clifford_circuit
from charforge.statevector import run_gates, zero_state

KINDS = [k for k in GATE_ARITY if k != "measure"]
SEEDS = (1, 2, 3)
DEPTH = 400


def _median_s(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def gate_costs(n: int, repeats: int) -> dict[str, list[float]]:
    """kind -> median ms per target qubit 0..n-1; two-qubit kinds need n >= 2."""
    rng = np.random.default_rng(0)
    psi = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    psi /= np.linalg.norm(psi)
    scratch = np.empty(psi.size // 2, dtype=complex)
    out = {}
    for kind in KINDS:
        if GATE_ARITY[kind] > n:
            continue
        mat = gate_matrix(kind, math.pi / 4 if kind == "cp" else None)
        qubits = [(q,) if GATE_ARITY[kind] == 1 else ((q + 1) % n, q) for q in range(n)]
        out[kind] = [1e3 * _median_s(lambda: apply_matrix(psi, mat, qs, n, scratch), repeats)
                     for qs in qubits]
    return out


def circuit_costs(n: int, repeats: int) -> dict[int, tuple[float, float]]:
    """seed -> median µs per gate of run_gates on its depth-400 Clifford circuit,
    from |0...0> and from an explicit zero_state initial."""
    out = {}
    for seed in SEEDS:
        c = random_clifford_circuit(n, DEPTH, seed, measured=False)
        out[seed] = tuple(1e6 * _median_s(lambda: run_gates(c, initial), repeats) / DEPTH
                          for initial in (None, zero_state(n)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=20)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    print(f"ms per gate at n={args.n}, median of {args.repeats}")
    print("kind  " + " ".join(f"q{q:<5d}" for q in range(args.n)))
    for kind, ms in gate_costs(args.n, args.repeats).items():
        print(f"{kind:<5s} " + " ".join(f"{t:6.2f}" for t in ms))
    for seed, us in circuit_costs(args.n, args.repeats).items():
        for start, t in zip(("zero", "initial"), us):
            print(f"run_gates clifford n={args.n} depth={DEPTH} seed={seed} from={start}: {t:.1f} us/gate")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
