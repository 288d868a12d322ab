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
    """max-abs entry of U U^dag - I, over every U of a (k, d, d) stack."""
    return max_abs(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1]))


# check_unitary's bound on the unitarity defect, ten times below groups.TOL: TOL is how far
# apart two matrices may be and still be one element, while a defect d lets a product of m
# generators drift by about m d from unitary, so 1e-9 keeps words of up to 10 generators within TOL
UNITARY_TOL = 1e-9


def check_unitary(m: np.ndarray) -> np.ndarray:
    """Validate and return a square complex matrix that is unitary within
    UNITARY_TOL, the max-abs entry of U U^dag - I."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise NotUnitary(f"expected a square complex matrix: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise NotUnitary(f"expected a square matrix, got shape {m.shape}")
    defect = unitarity_defect(m)
    if not defect <= UNITARY_TOL:  # also rejects NaN entries
        raise NotUnitary(f"unitarity defect {defect:.3e} exceeds tol {UNITARY_TOL:.3e}")
    return m
