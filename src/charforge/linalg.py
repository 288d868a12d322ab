"""Small dense linear-algebra helpers used throughout the package."""

from __future__ import annotations

import numpy as np

from .errors import NotUnitary


def max_abs(m: np.ndarray) -> float:
    """Largest entry magnitude, 0.0 for empty arrays."""
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(m)))


def unitarity_defect(m: np.ndarray) -> float:
    """max-abs entry of U U^dag - I."""
    d = m.shape[0]
    return max_abs(m @ m.conj().T - np.eye(d))


def check_unitary(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Validate and return a square complex matrix that is unitary within tol."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NotUnitary(f"expected a square matrix, got shape {m.shape}")
    defect = unitarity_defect(m)
    if not defect <= tol:  # also rejects NaN entries
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds tol {tol:.3e}")
    return m


def canonical_keys(mats: np.ndarray, round_digits: int = 9) -> list[bytes]:
    """Canonical hash key of each matrix in a (k, d, d) stack: entries
    rounded to `round_digits` decimals, row-major.

    Adding complex zero after rounding collapses -0.0 into +0.0 so that the
    byte representation is canonical.
    """
    r = np.array(mats, dtype=complex, order="C")
    np.round(r, round_digits, out=r)
    r += 0.0
    rows = r.reshape(r.shape[0], -1)
    return rows.view(np.dtype((np.void, rows.shape[1] * r.itemsize))).ravel().tolist()


def phase_canonical(m: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rescale by a global phase so the first entry with magnitude > tol is
    positive real. Zero matrices are returned unchanged. A (..., d, d) stack
    is rescaled matrix by matrix."""
    flat = m.reshape(m.shape[:-2] + (-1,))
    # np.hypot is what abs() of one complex scalar computes; np.abs of an
    # array can differ from it in the last bit
    big = np.hypot(flat.real, flat.imag) > tol
    found = big.any(axis=-1, keepdims=True)
    v = np.take_along_axis(flat, np.argmax(big, axis=-1)[..., None], axis=-1)
    v = np.where(found, v, 1.0)
    return np.where(found[..., None], m * (np.hypot(v.real, v.imag) / v)[..., None], m)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    if a.shape != b.shape:
        return False
    return max_abs(phase_canonical(a) - phase_canonical(b)) <= tol
