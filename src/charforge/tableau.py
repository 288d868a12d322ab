"""Stabilizer tableau simulator for Clifford circuits.

The tableau keeps 2n generators (n destabilizers, then n stabilizers) as
X/Z bit rows plus a phase exponent r in {0,1,2,3} (power of i; generator
rows always hold 0 or 2, i.e. +/-1).

Because measure gates form a trailing suffix, the whole measurement layer is
resolved symbolically in one pass: which rows anticommute and which row
multiplications happen depend only on the X/Z bits, never on outcomes, so
each outcome bit is an affine function over GF(2) of the fair coins spent on
random-outcome measurements. Each row carries a coin bitmask alongside its
phase; sampling any number of shots is then a single bit-matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CLIFFORD_KINDS, Circuit
from .errors import NonCliffordGate, TooWide
from .histogram import MeasurementHistogram


@dataclass
class StabilizerTableau:
    n: int
    x: np.ndarray    # (2n, n) uint8
    z: np.ndarray    # (2n, n) uint8
    r: np.ndarray    # (2n,) uint8, phase exponent of i, mod 4
    lin: np.ndarray  # (2n,) uint64 coin bitmask: sign flips per set coin

    @staticmethod
    def zeros(n: int) -> "StabilizerTableau":
        x = np.zeros((2 * n, n), dtype=np.uint8)
        z = np.zeros((2 * n, n), dtype=np.uint8)
        for i in range(n):
            x[i, i] = 1
            z[n + i, i] = 1
        return StabilizerTableau(n, x, z, np.zeros(2 * n, dtype=np.uint8),
                                 np.zeros(2 * n, dtype=np.uint64))


def _g_exponents(x1, z1, x2, z2):
    """Per-qubit exponent of i when multiplying Pauli (x1,z1) by (x2,z2)."""
    x1 = x1.astype(np.int64); z1 = z1.astype(np.int64)
    x2 = x2.astype(np.int64); z2 = z2.astype(np.int64)
    return (x1 * z1 * (z2 - x2)
            + x1 * (1 - z1) * z2 * (2 * x2 - 1)
            + (1 - x1) * z1 * x2 * (1 - 2 * z2))


def _rowsum(tab: StabilizerTableau, h: int, i: int) -> None:
    """row h := row i times row h, with exact phase and coin tracking."""
    total = int(np.sum(_g_exponents(tab.x[i], tab.z[i], tab.x[h], tab.z[h])))
    tab.r[h] = (int(tab.r[h]) + int(tab.r[i]) + total) % 4
    tab.lin[h] ^= tab.lin[i]
    tab.x[h] ^= tab.x[i]
    tab.z[h] ^= tab.z[i]


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
        c, t = qubits
        apply_gate(tab, "h", (t,))
        apply_gate(tab, "cx", (c, t))
        apply_gate(tab, "h", (t,))
    else:
        raise NonCliffordGate(f"gate {kind!r} is not in the Clifford subset")


def measure_symbolic(tab: StabilizerTableau, q: int, next_coin: int) -> tuple[int, int, int]:
    """Collapse qubit q; outcome = const XOR parity(coins AND mask).

    Returns (const, mask, next_coin). Spends one fresh coin when the outcome
    is random; raises TooWide past 64 random outcomes.
    """
    n = tab.n
    anticommuting = np.nonzero(tab.x[n:, q])[0]
    if anticommuting.size > 0:
        if next_coin >= 64:
            raise TooWide("more than 64 random measurement outcomes; coin masks are 64-bit")
        p = n + int(anticommuting[0])
        for i in range(2 * n):
            if i != p and tab.x[i, q]:
                _rowsum(tab, i, p)
        tab.x[p - n] = tab.x[p]
        tab.z[p - n] = tab.z[p]
        tab.r[p - n] = tab.r[p]
        tab.lin[p - n] = tab.lin[p]
        tab.x[p] = 0
        tab.z[p] = 0
        tab.z[p, q] = 1
        tab.r[p] = 0
        tab.lin[p] = np.uint64(1 << next_coin)
        return 0, 1 << next_coin, next_coin + 1

    # deterministic: multiply the stabilizers flagged by the destabilizers
    r_acc = 0
    lin_acc = 0
    x_acc = np.zeros(n, dtype=np.uint8)
    z_acc = np.zeros(n, dtype=np.uint8)
    for i in range(n):
        if tab.x[i, q]:
            srow = n + i
            r_acc = (r_acc + int(tab.r[srow])
                     + int(np.sum(_g_exponents(tab.x[srow], tab.z[srow], x_acc, z_acc)))) % 4
            lin_acc ^= int(tab.lin[srow])
            x_acc ^= tab.x[srow]
            z_acc ^= tab.z[srow]
    if r_acc not in (0, 2):
        raise AssertionError(f"deterministic measurement phase {r_acc} is not +/-1")
    return (1 if r_acc == 2 else 0, lin_acc, next_coin)


def tableau_run(c: Circuit, shots: int, seed: int) -> MeasurementHistogram:
    """Run a Clifford circuit and sample its measured qubits.

    Raises NonCliffordGate naming the offending gate and its position.
    """
    body, suffix = c.body_and_suffix()
    for pos, g in enumerate(body):
        if g.kind not in CLIFFORD_KINDS:
            raise NonCliffordGate(f"gate {g.kind!r} at position {pos} is not Clifford")
    tab = StabilizerTableau.zeros(c.n_qubits)
    for g in body:
        apply_gate(tab, g.kind, g.qubits)

    measured = [g.qubits[0] for g in suffix] if suffix else list(range(c.n_qubits))
    exprs: dict[int, tuple[int, int]] = {}
    coins = 0
    for q in measured:
        const, mask, coins = measure_symbolic(tab, q, coins)
        exprs[q] = (const, mask)

    order = sorted(measured)  # histogram bit j = j-th smallest measured qubit
    k = len(order)
    consts = np.array([exprs[q][0] for q in order], dtype=np.int64)
    coin_bits = np.arange(coins, dtype=np.uint64)
    masks = np.array([exprs[q][1] for q in order], dtype=np.uint64)
    a = ((masks[:, None] >> coin_bits) & np.uint64(1)).astype(np.int64)

    rng = np.random.default_rng(seed)
    draws = rng.integers(0, 2, size=(shots, coins), dtype=np.uint8)
    # at most 64 coins, so one uint64 holds a shot's draw; each random
    # outcome is its own coin, so distinct draws give distinct outcomes
    keys, counts = np.unique(draws @ (np.uint64(1) << coin_bits), return_counts=True)
    bits = (((keys[:, None] >> coin_bits) & np.uint64(1)).astype(np.int64) @ a.T + consts) % 2
    # outcome strings put bit k-1 first; they sort in the order of their values
    strings = (bits[:, ::-1] + ord("0")).astype(np.uint8).view(f"S{k}").ravel()
    return MeasurementHistogram(
        shots=shots,
        counts={strings[i].decode(): int(counts[i]) for i in np.argsort(strings)},
    )


def gf2_rank(rows: np.ndarray) -> int:
    m = rows.copy().astype(np.uint8)
    rank = 0
    n_cols = m.shape[1]
    for col in range(n_cols):
        pivot = None
        for row in range(rank, m.shape[0]):
            if m[row, col]:
                pivot = row
                break
        if pivot is None:
            continue
        m[[rank, pivot]] = m[[pivot, rank]]
        for row in range(m.shape[0]):
            if row != rank and m[row, col]:
                m[row] ^= m[rank]
        rank += 1
    return rank


def validate_tableau(tab: StabilizerTableau) -> None:
    """Check the symplectic invariants: full rank 2n over GF(2) and pairwise
    commuting stabilizer rows."""
    n = tab.n
    full = np.concatenate([tab.x, tab.z], axis=1)
    rank = gf2_rank(full)
    if rank != 2 * n:
        raise AssertionError(f"tableau rank {rank} != {2 * n}")
    sx, sz = tab.x[n:], tab.z[n:]
    sym = (sx @ sz.T + sz @ sx.T) % 2
    if np.any(sym):
        raise AssertionError("stabilizer rows do not pairwise commute")
