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
    """Validate and return a square complex matrix that is unitary within tol,
    the max-abs entry of U U^dag - I. The default is ten times below
    groups.TOL because the two bound different things: TOL is how far apart
    two matrices may be and still be one element, while a defect d lets a
    product of m generators drift by about m d from unitary, so 1e-9 keeps
    words of up to 10 generators within TOL."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise NotUnitary(f"expected a square complex matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NotUnitary(f"expected a square matrix, got shape {m.shape}")
    defect = unitarity_defect(m)
    if not defect <= tol:  # also rejects NaN entries
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds tol {tol:.3e}")
    return m
