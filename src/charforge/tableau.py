"""Stabilizer tableau simulator for Clifford circuits.

The tableau keeps 2n generators (n destabilizers, then n stabilizers) as
X/Z bits plus a phase exponent r in {0,1,2,3} (power of i). Gates act on
`PackedTableau`, qubit-major Python-int bitsets of the rows with X and with Z
on each qubit and of the rows with r = 2 (before measurement r is 0 or 2), as
in Stim (Gidney, arXiv:2103.02202): each update is a few int operations, in one
loop over the body. `tableau_run` runs that loop on a Circuit's body, which the
Circuit has checked; `apply_gate` checks its one gate as a one-gate Circuit first.

Measure gates form a trailing suffix, which `measure_layer` resolves in one
GF(2) elimination of the stabilizer rows (Aaronson-Gottesman, quant-ph/0406196;
Garcia, Markov & Cross, arXiv:1210.6646). With Z on the measured qubits as the
lowest bits, in measurement order, a basis row whose top bit is measured
position j is +/-Z_{q_j} times Z on earlier measured qubits, which fixes that
outcome; every other measured position spends a fresh fair coin. Each outcome
is thus an affine function over GF(2) of at most n coins, fixed by the state
and the measurement order alone. Sampling takes its coins from raw bits, keys the distinct
draws by a float32 product and writes each outcome bit, the parity of one more, into the
outcome strings. `measure_symbolic`, the per-qubit update on unpacked uint8 rows, is the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, GateInstance, check_circuit
from .errors import InvalidSpec, NonCliffordGate
from .histogram import MeasurementHistogram, check_seed, check_shots


@dataclass
class StabilizerTableau:
    n: int
    x: np.ndarray    # (2n, n) uint8
    z: np.ndarray    # (2n, n) uint8
    r: np.ndarray    # (2n,) uint8, phase exponent of i, mod 4
    lin: np.ndarray  # (2n, n) uint8: row sign flips with each set coin


def _to_bits(values: list[int], width: int) -> np.ndarray:
    """(len(values), width) uint8 0/1 array whose row j holds bits 0..width-1 of values[j]."""
    size = (width + 7) // 8
    raw = b"".join(v.to_bytes(size, "little") for v in values)
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(values), size),
                         axis=1, count=width, bitorder="little")


@dataclass
class PackedTableau:
    n: int
    xs: list[int]  # per qubit, bit i set when row i has an X on it
    zs: list[int]  # per qubit, bit i set when row i has a Z on it
    signs: int     # bit i set when row i has r = 2

    @staticmethod
    def zeros(n: int) -> "PackedTableau":  # |0...0>: destabilizer i is X_i, stabilizer i is Z_i
        return PackedTableau(n, [1 << q for q in range(n)], [1 << (n + q) for q in range(n)], 0)

    def unpack(self) -> StabilizerTableau:
        n = self.n
        bits = _to_bits([*self.xs, *self.zs, self.signs], 2 * n)  # row j: bitset j's 2n bits
        return StabilizerTableau(n, bits[:n].T.copy(), bits[n:-1].T.copy(),
                                 2 * bits[-1], np.zeros((2 * n, n), dtype=np.uint8))


def _g_exponents(x1, z1, x2, z2):
    """Per-qubit exponent of i, in {-1, 0, 1}, when multiplying Pauli
    (x1,z1) by (x2,z2)."""
    x1 = x1.astype(np.int8); z1 = z1.astype(np.int8)
    x2 = x2.astype(np.int8); z2 = z2.astype(np.int8)
    return (x1 * z1 * (z2 - x2)
            + x1 * (1 - z1) * z2 * (2 * x2 - 1)
            + (1 - x1) * z1 * x2 * (1 - 2 * z2))


def _apply_gates(tab: PackedTableau, gates: tuple[GateInstance, ...]) -> None:
    """Each gate's Aaronson-Gottesman update on a checked Circuit's gates, in one loop over the
    bitsets in local names, the commonest kinds first; `signs ^= rows` adds 2 to their r.
    Raises NonCliffordGate naming the first other gate and its position."""
    xs, zs, signs = tab.xs, tab.zs, tab.signs
    for g in gates:
        kind, q = g.kind, g.qubits[0]
        if kind == "cz":  # the h(t) cx(q, t) h(t) update, in one step
            t = g.qubits[1]
            signs ^= xs[q] & xs[t] & (zs[q] ^ zs[t])
            zs[q] ^= xs[t]
            zs[t] ^= xs[q]
        elif kind == "cx":
            t = g.qubits[1]
            signs ^= xs[q] & zs[t] & ~(xs[t] ^ zs[q])
            xs[t] ^= xs[q]
            zs[q] ^= zs[t]
        elif kind == "h":
            signs ^= xs[q] & zs[q]
            xs[q], zs[q] = zs[q], xs[q]
        elif kind == "x":
            signs ^= zs[q]
        elif kind == "s":
            signs ^= xs[q] & zs[q]
            zs[q] ^= xs[q]
        elif kind == "sdg":
            signs ^= xs[q] & ~zs[q]
            zs[q] ^= xs[q]
        elif kind == "y":
            signs ^= xs[q] ^ zs[q]
        elif kind == "z":
            signs ^= xs[q]
        elif kind == "swap":  # X and Z move between the qubits and keep their signs
            t = g.qubits[1]
            xs[q], xs[t], zs[q], zs[t] = xs[t], xs[q], zs[t], zs[q]
        else:  # an equal gate earlier would have raised, so index finds this one
            tab.signs = signs
            raise NonCliffordGate(f"gate {kind!r} at position {gates.index(g)} is not Clifford")
    tab.signs = signs


def apply_gate(tab: PackedTableau, kind: str, qubits: tuple[int, ...]) -> None:
    """Apply one gate, checked first as a one-gate Circuit on tab.n qubits (InvalidSpec,
    QubitOutOfRange or AngleMissing); NonCliffordGate for a gate outside the Clifford subset."""
    _apply_gates(tab, Circuit(tab.n, (GateInstance(kind, tuple(qubits)),)).gates)


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


def _bits(v: int):  # indices of the set bits of v, lowest first
    while v:
        yield (v & -v).bit_length() - 1
        v &= v - 1


def measure_layer(tab: PackedTableau, measured: list[int]) -> tuple[list[tuple[int, int]], int]:
    """Measure `measured` in order: (const, mask) per qubit, outcome = const XOR
    parity(coins AND mask) with mask a bitset over the coins, and the coin count."""
    n, k = tab.n, len(measured)
    perm = measured + sorted(set(range(n)) - set(measured))
    cols = _to_bits([tab.zs[q] >> n for q in perm] + [tab.xs[q] >> n for q in perm], n)
    rows = [int.from_bytes(r.tobytes(), "little") for r in np.packbits(cols.T, axis=1, bitorder="little")]
    body, basis = (1 << 2 * n) - 1, {}
    for i, row in enumerate(rows):  # the rows are independent, so none vanishes
        v = row | 1 << (2 * n + i)
        while (top := (v & body).bit_length() - 1) in basis:
            v ^= basis[top]
        basis[top] = v
    signs, low = tab.signs >> n, (1 << n) - 1
    exprs, coins = [], 0
    for j in range(k):
        if j not in basis:  # Z on measured position j is independent of the earlier ones
            exprs.append((0, 1 << coins))
            coins += 1
            continue
        x = z = e = 0  # +/-Z_{q_j} Z_v: multiply out its original rows for the sign
        for i in _bits(basis[j] >> 2 * n):
            x2, z2 = rows[i] >> n, rows[i] & low
            e += (2 * (signs >> i & 1) + (x & z).bit_count() + (x2 & z2).bit_count()
                  + 2 * (z & x2).bit_count() - ((x ^ x2) & (z ^ z2)).bit_count())
            x, z = x ^ x2, z ^ z2
        if e % 4 not in (0, 2):
            raise AssertionError(f"deterministic measurement phase {e % 4} is not +/-1")
        const, mask = e % 4 // 2, 0
        for i in _bits(basis[j] & ((1 << j) - 1)):
            const, mask = const ^ exprs[i][0], mask ^ exprs[i][1]
        exprs.append((const, mask))
    return exprs, coins


# the most bytes the sampling of one tableau_run may hold at once: 1 GiB, against
# 3.4 MB for 100,000 shots of 12 coins on 12 measured qubits
SAMPLE_BYTES = 2 ** 30


def _sample_bytes(shots: int, coins: int, k: int) -> int:
    """A bound on the bytes tableau_run's sampling holds at once, as tracemalloc counts
    them: the coins (one byte each), the int64 sort index and the uint16 keys of `shots`
    draws and the first index and count of their at most 2^coins distinct draws, kept
    throughout; then the most of three steps: keying (the keys' chunks, the float32 draws
    and products of one chunk, the compare of sorted keys), the outcome bits (the distinct
    draws, their float32 copy, the float32 products and their int32 copy, the masks) and
    the histogram (each outcome's bytes and str, its count and dict entry)."""
    w, m, chunk = (coins + 15) // 16 or 1, min(shots, 1 << coins), min(shots, 8192)
    kept = shots * (coins + 8 + 2 * w) + 16 * m
    keying = 2 * shots * w + 4 * chunk * (coins + w) + shots * (w + 2)
    outcomes = m * (5 * coins + 8 * k) + 4 * k * coins
    histogram = m * (2 * k + 250)
    return kept + max(keying, outcomes, histogram)


def _coins(seed: int, shots: int, coins: int) -> np.ndarray:
    """integers(0, 2, (shots, coins), dtype=np.uint8) of default_rng(seed) from raw bits: coin i is bit 7
    of byte i of the uint32 stream (Lemire, range 2), which PCG64 yields as each uint64's low, then high half."""
    draws = np.random.default_rng(seed).bit_generator.random_raw((shots * coins + 7) // 8)
    draws = draws.astype("<u8", copy=False).view(np.uint8)[:shots * coins].reshape(shots, coins)
    return np.right_shift(draws, 7, out=draws)


def tableau_run(c: Circuit, shots: int, seed: int) -> MeasurementHistogram:
    """Run a Clifford circuit and sample its measured qubits. Raises NonCliffordGate
    naming the offending gate and its position, and InvalidSpec, before sampling,
    when the sampling would hold more than SAMPLE_BYTES."""
    check_circuit(c)
    check_shots(shots)
    check_seed(seed)
    body, suffix = c.body_and_suffix()
    packed = PackedTableau.zeros(int(c.n_qubits))
    _apply_gates(packed, body)
    measured = [g.qubits[0] for g in suffix] if suffix else list(range(packed.n))
    exprs, coins = measure_layer(packed, measured)
    if (size := _sample_bytes(shots, coins, len(measured))) > SAMPLE_BYTES:
        raise InvalidSpec(f"{shots} shots of {coins} coins need {size} bytes of samples, "
                          f"past the {SAMPLE_BYTES}-byte budget")
    # character i of an outcome is the (k-1-i)-th smallest of k measured qubits: strings sort by value
    exprs = [exprs[i] for i in np.argsort(measured)[::-1]]

    draws = _coins(seed, shots, coins)
    # key each draw by one uint16 word per 16 coins, which lexsort sorts by radix; as
    # each random outcome is its own coin, distinct draws give distinct outcomes. A word
    # sums distinct powers up to 2^15, exact in float32, so the words are BLAS products,
    # of 8192 draws at a time to bound the float32 copy of the draws that each one makes
    weights = np.zeros((coins, (coins + 15) // 16 or 1), dtype=np.float32)
    weights[np.arange(coins), np.arange(coins) // 16] = 2.0 ** (np.arange(coins) % 16)
    words = np.concatenate([(d @ weights).astype(np.uint16) for d in np.split(draws, range(8192, shots, 8192))])
    by_key = np.lexsort(words.T)
    words = words[by_key]
    starts = np.flatnonzero(np.concatenate([[True], np.any(words[1:] != words[:-1], axis=1)]))
    counts = np.diff(np.append(starts, shots))
    # every outcome bit is one float32 product over the coins, whose sums count at most
    # n coins, so exact; a wrapping cast to uint8 keeps their parity
    masks = _to_bits([mask for _, mask in exprs], coins).astype(np.float32)
    consts = np.array([const for const, _ in exprs], dtype=np.uint8)
    sums = (draws[by_key[starts]] @ masks.T).astype(np.int32).astype(np.uint8)
    strings = ((sums ^ consts) & 1 | ord("0")).view(f"S{len(exprs)}").ravel()
    idx = np.argsort(strings)
    return MeasurementHistogram(
        shots=shots, counts=dict(zip(map(bytes.decode, strings[idx].tolist()), counts[idx].tolist())))


def validate_tableau(tab: StabilizerTableau) -> None:
    """Check the symplectic invariants: destabilizer i anticommutes with
    stabilizer i, and every other pair of rows commutes. Rows with that
    commutation matrix form a symplectic basis, so their rank over GF(2) is 2n
    and the stabilizers pairwise commute."""
    n = tab.n
    anti = (tab.x @ tab.z.T + tab.z @ tab.x.T) % 2  # uint8 sums wrap mod 256, keeping parity
    if not np.array_equal(anti, np.roll(np.eye(2 * n, dtype=np.uint8), n, axis=1)):
        raise AssertionError("tableau rows are not a symplectic basis")
