"""Reference implementations the state-vector engine is held to.

`apply_dense` applies a gate by gather, matmul and scatter: any local matrix,
one BLAS call. The library's kernel (`circuits.apply_matrix`) moves slices and
runs a butterfly instead. `apply_frame_per_qubit` applies the Pauli frame with
one kernel call per qubit, where the library makes one pass
(`circuits._apply_frame`), `marginal_by_bits` builds the outcome index of a
marginal bit by bit, where the library broadcasts it, and `pauli_dense` builds
an observable's matrix by Kronecker products, where the library applies its
letters as gates.
"""

import numpy as np

from charforge.circuits import _BASE_1Q, apply_matrix

_XZ = {(0, 0): np.eye(2), (1, 0): _BASE_1Q["x"], (0, 1): _BASE_1Q["z"], (1, 1): -1j * _BASE_1Q["y"]}  # X^i Z^j


def apply_dense(psi: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int) -> None:
    """Apply `mat` (local bit j = qubits[j]) in place to a C-ordered (2^n, B)
    block or one (2^n,) state. With the column axis first and the gate's axes
    last, matmul runs per column on the operand of a run of that column alone,
    so it gives the same bits; adding 0.0 turns a BLAS kernel's -0.0 to +0.0."""
    k = len(qubits)
    src = (n,) + tuple(n - 1 - q for q in reversed(qubits))  # (column, bit_{k-1}, ..., bit_0)
    dst = (0,) + tuple(range(n + 1 - k, n + 1))
    t = np.moveaxis(psi.reshape([2] * n + [-1]), src, dst)
    gathered = np.ascontiguousarray(t).reshape(t.shape[0], -1, 1 << k)
    product = np.matmul(gathered, mat.T)
    np.add(product, 0.0, out=product)
    np.copyto(t, product.reshape(t.shape))


def apply_frame_per_qubit(psi: np.ndarray, on: int, x: int, z: int, k: int, n: int) -> np.ndarray:
    """i^k X^x Z^z psi as the gate loop once applied it: X^x_q Z^z_q on each
    qubit in the frame (Z fixes |0>, so not off the register), the first call
    times i^k, and an X qubit off the register joining it as a zero half; then
    the register is scattered into a 2^n state if some qubit stays off. psi
    holds the qubits in `on`, as in `circuits._apply_frame`, and a full
    register is changed in place."""
    scratch = np.empty(max(psi.size, 1 << n) // 2, dtype=complex)

    def apply(mat, q):  # qubit q is bit p of the register, p its qubits below q
        nonlocal psi, on
        if not on >> q & 1:  # it joins as a zero half, by one copy
            old, p, on = psi, (on & (1 << q) - 1).bit_count(), on | 1 << q
            psi = np.zeros(2 * old.size, dtype=complex)
            psi.reshape(-1, 2, 1 << p)[:, 0] = old.reshape(-1, 1 << p)
        apply_matrix(psi, mat, ((on & (1 << q) - 1).bit_count(),), on.bit_count(), scratch)

    phase, top = (1, 1j, -1, -1j)[k % 4], max((on | x).bit_length() - 1, 0)
    for q in range(n):
        if (x | z & on) >> q & 1 or q == top and phase != 1:
            apply(phase * _XZ[x >> q & 1, z >> q & 1], q)
            phase = 1
    if on == (1 << n) - 1:
        return psi
    full = np.zeros(1 << n, dtype=complex)
    keep = tuple(slice(None) if on >> q & 1 else 0 for q in reversed(range(n)))  # qubit q is axis n-1-q
    full.reshape((2,) * n)[keep] = psi.reshape((2,) * on.bit_count())
    return full


def marginal_by_bits(psi: np.ndarray, measured: list[int]) -> np.ndarray:
    """The marginal over `measured` (outcome bit j is measured[j]) with its
    outcome index built from the basis index, bit by bit."""
    probs = np.abs(psi) ** 2
    idx = np.arange(probs.size)
    out_idx = np.zeros(probs.size, dtype=np.int64)
    for j, q in enumerate(measured):
        out_idx |= ((idx >> q) & 1) << j
    marg = np.bincount(out_idx, weights=probs, minlength=1 << len(measured))
    return marg / marg.sum()


def pauli_dense(obs) -> np.ndarray:
    """The 2^n x 2^n matrix of a Pauli string, leftmost letter first in the
    Kronecker product, so the rightmost acts on qubit 0."""
    m = np.ones((1, 1), dtype=complex)
    for ch in obs.pauli:
        m = np.kron(m, np.eye(2) if ch == "I" else _BASE_1Q[ch.lower()])
    return m


def signed_zero_block(n: int, b: int, seed: int) -> np.ndarray:
    """Gaussian amplitudes with a third of the components +0.0 or -0.0; one
    (2^n,) state when b is 1."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((1 << n, b, 2))
    parts[rng.random(parts.shape) < 1 / 3] = 0.0
    parts[rng.random(parts.shape) < 1 / 6] *= -1.0
    block = parts.view(complex)[..., 0].copy()
    return block[:, 0].copy() if b == 1 else block
