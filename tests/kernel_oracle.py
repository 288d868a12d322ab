"""A gate applied by gather, matmul and scatter: any local matrix, one BLAS call.

The library's kernel (`circuits.apply_matrix`) moves slices and runs a
butterfly instead; this is the reference the tests hold it to.
"""

import numpy as np


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
