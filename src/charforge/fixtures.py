"""Reference gate matrices and the standard fixture groups.

The fixture list deliberately spans abelian and non-abelian structure at
desk scale: trivial, C2, C2xC2, S3 (as permutation matrices), the order-8
dihedral group <X,Z>, the quaternion group <iX,iY>, the 16-element
single-qubit Pauli group <X,Z,iI>, and the order-192 single-qubit Clifford
matrix group <H,S>.
"""

from __future__ import annotations

import numpy as np

from .circuits import gate_matrix
from .errors import InvalidSpec
from .groups import ClosureConfig, FiniteMatrixGroup, close_group

I2 = np.eye(2, dtype=complex)
X, Y, Z, H, S = (gate_matrix(k) for k in "xyzhs")


def _perm_matrix(perm: tuple[int, ...]) -> np.ndarray:
    n = len(perm)
    m = np.zeros((n, n), dtype=complex)
    for src, dst in enumerate(perm):
        m[dst, src] = 1.0
    return m


def fixture_generators() -> dict[str, list[np.ndarray]]:
    return {
        "trivial": [I2],
        "c2": [X],
        "c2xc2": [np.kron(I2, X), np.kron(X, I2)],
        "s3": [_perm_matrix((1, 0, 2)), _perm_matrix((1, 2, 0))],
        "d4": [X, Z],
        "q8": [1j * X, 1j * Y],
        "pauli1": [X, Z, 1j * I2],
        "clifford1": [H, S],
    }


FIXTURE_NAMES = tuple(fixture_generators().keys())


def fixture_group(name: str, cfg: ClosureConfig | None = None) -> FiniteMatrixGroup:
    gens = fixture_generators()
    if name not in gens:
        raise InvalidSpec(f"unknown fixture {name!r}; choose from {sorted(gens)}")
    return close_group(gens[name], cfg)


def all_fixture_groups() -> dict[str, FiniteMatrixGroup]:
    return {name: fixture_group(name) for name in FIXTURE_NAMES}
