"""Observables: dense Hermitian matrices or Pauli strings with a real weight.

Pauli strings follow the bitstring convention: the rightmost letter acts on
qubit 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import gate_matrix
from .errors import InvalidSpec, NotHermitian
from .linalg import max_abs

_PAULI_1Q = {"I": np.eye(2, dtype=complex), **{k.upper(): gate_matrix(k) for k in "xyz"}}


@dataclass(frozen=True)
class Observable:
    matrix: np.ndarray | None = None
    pauli: str | None = None
    coeff: float = 1.0

    @staticmethod
    def from_matrix(m: np.ndarray) -> "Observable":
        m = np.asarray(m, dtype=complex)
        defect = max_abs(m - m.conj().T)
        if defect > 1e-9:
            raise NotHermitian(f"hermiticity defect {defect:.3e}")
        return Observable(matrix=m)

    @staticmethod
    def from_pauli(letters: str, coeff: float = 1.0) -> "Observable":
        if not isinstance(letters, str) or not letters or any(ch not in _PAULI_1Q for ch in letters.upper()):
            raise InvalidSpec(f"pauli string must use I/X/Y/Z, got {letters!r}")
        if not isinstance(coeff, (int, float, np.integer, np.floating)) or not math.isfinite(coeff):
            raise InvalidSpec(f"pauli coefficient must be a finite real, got {coeff!r}")
        return Observable(pauli=letters.upper(), coeff=float(coeff))

    def letter_for(self, qubit: int) -> str:
        return self.pauli[len(self.pauli) - 1 - qubit]

    def dense(self) -> np.ndarray:
        if self.matrix is not None:
            return self.coeff * self.matrix if self.coeff != 1.0 else self.matrix
        m = np.array([[self.coeff]], dtype=complex)
        for ch in self.pauli:
            m = np.kron(m, _PAULI_1Q[ch])
        return m


def z_on_qubit(qubit: int, n: int) -> Observable:
    letters = ["I"] * n
    letters[n - 1 - qubit] = "Z"
    return Observable.from_pauli("".join(letters))


def random_pauli(n: int, rng: np.random.Generator) -> Observable:
    letters = "".join(rng.choice(list("IXYZ")) for _ in range(n))
    return Observable.from_pauli(letters)
