"""Independent dense reference for the benchmark's output checks.

Gate matrices and the state/unitary evolution are written here from scratch
rather than taken from charforge, so a defect in the package's own kernels
cannot hide behind itself. Conventions match the package's text format:
qubit 0 is the least significant bit of a basis index, two-qubit gates list
control first, gates apply left to right.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_R = 1.0 / math.sqrt(2.0)
_ONE_Q = {
    "h": [[_R, _R], [_R, -_R]],
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
    "s": [[1, 0], [0, 1j]],
    "sdg": [[1, 0], [0, -1j]],
    "t": [[1, 0], [0, cmath.exp(1j * math.pi / 4)]],
    "tdg": [[1, 0], [0, cmath.exp(-1j * math.pi / 4)]],
}


def gate_tensor(kind: str, angle: float | None) -> np.ndarray:
    """Gate as a tensor with output axes first; for two-qubit gates the
    axis order is (out_a, out_b, in_a, in_b) with a = the first qubit."""
    if kind in _ONE_Q:
        return np.array(_ONE_Q[kind], dtype=complex)
    t = np.zeros((2, 2, 2, 2), dtype=complex)
    for a in (0, 1):
        for b in (0, 1):
            if kind == "cx":
                t[a, b ^ a, a, b] = 1.0
            elif kind == "cz":
                t[a, b, a, b] = -1.0 if a and b else 1.0
            elif kind == "cp":
                t[a, b, a, b] = cmath.exp(1j * angle) if a and b else 1.0
            elif kind == "swap":
                t[b, a, a, b] = 1.0
            else:
                raise ValueError(f"oracle has no gate {kind!r}")
    return t


def evolve(gates, n: int, columns: np.ndarray) -> np.ndarray:
    """Apply measure-free gates to a (2^n, m) block of column states."""
    m = columns.shape[1]
    psi = np.array(columns, dtype=complex).reshape([2] * n + [m])
    for g in gates:
        if g.kind == "measure":
            continue
        u = gate_tensor(g.kind, g.angle)
        axes = [n - 1 - q for q in g.qubits]  # qubit q is tensor axis n-1-q
        k = len(axes)
        psi = np.tensordot(u, psi, axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(psi, list(range(k)), axes)
    return psi.reshape(1 << n, m)


def unitary(gates, n: int) -> np.ndarray:
    return evolve(gates, n, np.eye(1 << n, dtype=complex))


def zero_state_probs(gates, n: int) -> np.ndarray:
    col = np.zeros((1 << n, 1), dtype=complex)
    col[0, 0] = 1.0
    return np.abs(evolve(gates, n, col)[:, 0]) ** 2


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float) -> bool:
    """a == e^{i phi} b within tol, with the phase fixed on b's largest entry."""
    i = int(np.argmax(np.abs(b)))
    if abs(b.flat[i]) < 1e-12:
        return float(np.max(np.abs(a))) <= tol
    phase = a.flat[i] / b.flat[i]
    if abs(abs(phase) - 1.0) > tol:
        return False
    return float(np.max(np.abs(a - phase * b))) <= tol


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(p - q)))


def histogram_tv(a, b, low_bits: int | None = None) -> float:
    """Total variation between two outcome -> count histograms, optionally
    of their marginals on the lowest `low_bits` bits."""
    def freqs(h):
        out: dict[str, float] = {}
        for key, count in h.counts.items():
            key = key[-low_bits:] if low_bits else key
            out[key] = out.get(key, 0.0) + count / h.shots
        return out

    fa, fb = freqs(a), freqs(b)
    return 0.5 * sum(abs(fa.get(k, 0.0) - fb.get(k, 0.0)) for k in set(fa) | set(fb))


def bit_frequencies(hist) -> np.ndarray:
    """Frequency of outcome 1 per histogram bit; bit j is the j-th character
    from the right of each outcome string."""
    k = len(next(iter(hist.counts)))
    ones = np.zeros(k)
    for key, count in hist.counts.items():
        ones += count * (np.frombuffer(key.encode(), dtype=np.uint8)[::-1] == ord("1"))
    return ones / hist.shots
