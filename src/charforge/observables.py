"""Observables: Pauli strings with a real weight, the one form every command,
claim and workload builds.

Pauli strings follow the bitstring convention: the rightmost letter acts on
qubit 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec
from .histogram import _is_real


@dataclass(frozen=True)
class Observable:
    pauli: str
    coeff: float = 1.0

    @staticmethod
    def from_pauli(letters: str, coeff: float = 1.0) -> "Observable":
        if not isinstance(letters, str) or not letters or any(ch not in "IXYZ" for ch in letters.upper()):
            raise InvalidSpec(f"pauli string must use I/X/Y/Z, got {letters!r}")
        if not _is_real(coeff):
            raise InvalidSpec(f"pauli coefficient must be a finite real, got {coeff!r}")
        return Observable(pauli=letters.upper(), coeff=float(coeff))

    def letter_for(self, qubit: int) -> str:
        return self.pauli[len(self.pauli) - 1 - qubit]


def z_on_qubit(qubit: int, n: int) -> Observable:
    letters = ["I"] * n
    letters[n - 1 - qubit] = "Z"
    return Observable.from_pauli("".join(letters))


def random_pauli(n: int, rng: np.random.Generator) -> Observable:
    letters = "".join("IXYZ"[i] for i in rng.integers(4, size=n))  # the draws of n rng.choice calls
    return Observable.from_pauli(letters)
