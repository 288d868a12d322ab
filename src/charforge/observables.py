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
    """Checked when it is built: the letters are upper case I/X/Y/Z, at least
    one, and the weight is a finite real."""

    pauli: str
    coeff: float = 1.0

    def __post_init__(self):
        if not isinstance(self.pauli, str) or not self.pauli or not set(self.pauli) <= set("IXYZ"):
            raise InvalidSpec(f"pauli string must use I/X/Y/Z, got {self.pauli!r}")
        if not _is_real(self.coeff):
            raise InvalidSpec(f"pauli coefficient must be a finite real, got {self.coeff!r}")

    @staticmethod
    def from_pauli(letters: str, coeff: float = 1.0) -> "Observable":
        """The observable of `letters` in either case, its weight as a float."""
        return Observable(letters.upper() if isinstance(letters, str) else letters,
                          float(coeff) if _is_real(coeff) else coeff)

    def letter_for(self, qubit: int) -> str:
        return self.pauli[len(self.pauli) - 1 - qubit]


def z_on_qubit(qubit: int, n: int) -> Observable:
    letters = ["I"] * n
    letters[n - 1 - qubit] = "Z"
    return Observable.from_pauli("".join(letters))


def random_pauli(n: int, rng: np.random.Generator) -> Observable:
    letters = "".join("IXYZ"[i] for i in rng.integers(4, size=n))  # the draws of n rng.choice calls
    return Observable.from_pauli(letters)
