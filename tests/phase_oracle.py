"""Comparison of matrices up to a global phase.

The library merges elements by max-abs distance only; these helpers are the
phase-blind oracles the tests check optimized circuits and phase classes with.
"""

import numpy as np

from charforge.linalg import max_abs


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
