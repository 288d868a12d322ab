"""Stabilizer tableau simulator for Clifford circuits.

The tableau keeps 2n generators (n destabilizers, then n stabilizers) as
X/Z bit rows plus a phase exponent r in {0,1,2,3} (power of i; generator
rows always hold 0 or 2, i.e. +/-1).

Because measure gates form a trailing suffix, the whole measurement layer is
resolved symbolically in one pass: which rows anticommute and which row
multiplications happen depend only on the X/Z bits, never on outcomes, so
each outcome bit is an affine function over GF(2) of the fair coins spent on
random-outcome measurements. Row signs' dependence on the coins is a (2n, n)
bit matrix `lin` beside `x` and `z`: a random measurement of qubit q spends
one coin and leaves +/-Z_q a stabilizer, so q's later measurements are
deterministic and there are at most n coins. A measurement multiplies rows
a whole column at a time, and sampling any number of shots is a bit-matrix
product over the distinct coin draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CLIFFORD_KINDS, Circuit
from .errors import NonCliffordGate
from .histogram import MeasurementHistogram, check_shots


@dataclass
class StabilizerTableau:
    n: int
    x: np.ndarray    # (2n, n) uint8
    z: np.ndarray    # (2n, n) uint8
    r: np.ndarray    # (2n,) uint8, phase exponent of i, mod 4
    lin: np.ndarray  # (2n, n) uint8: row sign flips with each set coin

    @staticmethod
    def zeros(n: int) -> "StabilizerTableau":
        x = np.eye(2 * n, n, dtype=np.uint8)        # destabilizer i is X_i
        z = np.eye(2 * n, n, k=-n, dtype=np.uint8)  # stabilizer i is Z_i
        return StabilizerTableau(n, x, z, np.zeros(2 * n, dtype=np.uint8),
                                 np.zeros((2 * n, n), dtype=np.uint8))


def _g_exponents(x1, z1, x2, z2):
    """Per-qubit exponent of i, in {-1, 0, 1}, when multiplying Pauli
    (x1,z1) by (x2,z2)."""
    x1 = x1.astype(np.int8); z1 = z1.astype(np.int8)
    x2 = x2.astype(np.int8); z2 = z2.astype(np.int8)
    return (x1 * z1 * (z2 - x2)
            + x1 * (1 - z1) * z2 * (2 * x2 - 1)
            + (1 - x1) * z1 * x2 * (1 - 2 * z2))


def apply_gate(tab: StabilizerTableau, kind: str, qubits: tuple[int, ...]) -> None:
    x, z, r = tab.x, tab.z, tab.r
    if kind == "h":
        q = qubits[0]
        r[:] = (r + 2 * (x[:, q] & z[:, q])) % 4
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif kind == "s":
        q = qubits[0]
        r[:] = (r + 2 * (x[:, q] & z[:, q])) % 4
        z[:, q] ^= x[:, q]
    elif kind == "sdg":
        q = qubits[0]
        r[:] = (r + 2 * (x[:, q] & (1 ^ z[:, q]))) % 4
        z[:, q] ^= x[:, q]
    elif kind == "x":
        q = qubits[0]
        r[:] = (r + 2 * z[:, q]) % 4
    elif kind == "z":
        q = qubits[0]
        r[:] = (r + 2 * x[:, q]) % 4
    elif kind == "y":
        q = qubits[0]
        r[:] = (r + 2 * (x[:, q] ^ z[:, q])) % 4
    elif kind == "cx":
        c, t = qubits
        r[:] = (r + 2 * (x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1))) % 4
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif kind == "cz":
        c, t = qubits  # the h(t) cx(c, t) h(t) update, in one step
        r[:] = (r + 2 * (x[:, c] & x[:, t] & (z[:, c] ^ z[:, t]))) % 4
        z[:, c] ^= x[:, t]
        z[:, t] ^= x[:, c]
    else:
        raise NonCliffordGate(f"gate {kind!r} is not in the Clifford subset")


def measure_symbolic(tab: StabilizerTableau, q: int, next_coin: int) -> tuple[int, np.ndarray, int]:
    """Collapse qubit q; outcome = const XOR parity(coins AND mask).

    Returns (const, mask, next_coin), mask an (n,) 0/1 row over the coins.
    Spends one fresh coin when the outcome is random.
    """
    n = tab.n
    x, z, r, lin = tab.x, tab.z, tab.r, tab.lin
    anticommuting = np.nonzero(x[n:, q])[0]
    if anticommuting.size > 0:
        p = n + int(anticommuting[0])
        # multiply every other row with X on q by row p; row p is not among
        # them, so it stays fixed while they change
        rows = np.nonzero(x[:, q])[0]
        rows = rows[rows != p]
        r[rows] = (r[rows] + r[p] + _g_exponents(x[p], z[p], x[rows], z[rows]).sum(axis=1)) % 4
        lin[rows] ^= lin[p]
        x[rows] ^= x[p]
        z[rows] ^= z[p]
        for a in (x, z, r, lin):
            a[p - n] = a[p]
            a[p] = 0
        z[p, q] = 1
        lin[p, next_coin] = 1
        return 0, lin[p].copy(), next_coin + 1

    # deterministic: multiply the stabilizers flagged by the destabilizers;
    # before each product the accumulator is the XOR of the rows before it
    rows = n + np.nonzero(x[:n, q])[0]
    xs, zs = x[rows], z[rows]
    x_acc = np.bitwise_xor.accumulate(xs, axis=0) ^ xs
    z_acc = np.bitwise_xor.accumulate(zs, axis=0) ^ zs
    r_acc = int(r[rows].sum(dtype=np.int64) + _g_exponents(xs, zs, x_acc, z_acc).sum()) % 4
    if r_acc not in (0, 2):
        raise AssertionError(f"deterministic measurement phase {r_acc} is not +/-1")
    return (1 if r_acc == 2 else 0, np.bitwise_xor.reduce(lin[rows], axis=0), next_coin)


def tableau_run(c: Circuit, shots: int, seed: int) -> MeasurementHistogram:
    """Run a Clifford circuit and sample its measured qubits.

    Raises NonCliffordGate naming the offending gate and its position.
    """
    check_shots(shots)
    body, suffix = c.body_and_suffix()
    for pos, g in enumerate(body):
        if g.kind not in CLIFFORD_KINDS:
            raise NonCliffordGate(f"gate {g.kind!r} at position {pos} is not Clifford")
    tab = StabilizerTableau.zeros(c.n_qubits)
    for g in body:
        apply_gate(tab, g.kind, g.qubits)

    measured = [g.qubits[0] for g in suffix] if suffix else list(range(c.n_qubits))
    exprs: dict[int, tuple[int, np.ndarray]] = {}
    coins = 0
    for q in measured:
        const, mask, coins = measure_symbolic(tab, q, coins)
        exprs[q] = (const, mask)

    order = sorted(measured)  # histogram bit j = j-th smallest measured qubit
    k = len(order)
    consts = np.array([exprs[q][0] for q in order])
    # float32 puts the product below in BLAS; its sums count at most n coins, so exact
    a = np.array([exprs[q][1][:coins] for q in order], dtype=np.float32)

    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 2, size=(shots, coins), dtype=np.uint8)
    # key each draw by one uint16 word per 16 coins, which lexsort sorts by
    # radix; each random outcome is its own coin, so distinct draws give
    # distinct outcomes
    weights = np.uint16(1) << np.arange(16, dtype=np.uint16)
    words = np.stack([d @ weights[:d.shape[1]]
                      for d in np.split(draws, range(16, coins, 16), axis=1)])
    by_key = np.lexsort(words)
    words = words[:, by_key]
    starts = np.flatnonzero(np.concatenate([[True], np.any(words[:, 1:] != words[:, :-1], axis=0)]))
    counts = np.diff(np.append(starts, shots))
    bits = ((draws[by_key[starts]] @ a.T).astype(np.int64) + consts) & 1
    # outcome strings put bit k-1 first; they sort in the order of their values
    strings = (bits[:, ::-1] + ord("0")).astype(np.uint8).view(f"S{k}").ravel()
    return MeasurementHistogram(
        shots=shots,
        counts={strings[i].decode(): int(counts[i]) for i in np.argsort(strings)},
    )


def validate_tableau(tab: StabilizerTableau) -> None:
    """Check the symplectic invariants: destabilizer i anticommutes with
    stabilizer i, and every other pair of rows commutes. Rows with that
    commutation matrix form a symplectic basis, so their rank over GF(2) is 2n
    and the stabilizers pairwise commute."""
    n = tab.n
    anti = (tab.x @ tab.z.T + tab.z @ tab.x.T) % 2  # uint8 sums wrap mod 256, keeping parity
    if not np.array_equal(anti, np.roll(np.eye(2 * n, dtype=np.uint8), n, axis=1)):
        raise AssertionError("tableau rows are not a symplectic basis")
