"""Observables: Pauli strings, the one form every command, claim and workload
builds; an observable is its letters.

Pauli strings follow the bitstring convention: the rightmost letter acts on
qubit 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, QubitOutOfRange
from .histogram import _is_int, check_type


@dataclass(frozen=True)
class Observable:
    """Checked when it is built: the letters are upper case I/X/Y/Z, at least one."""

    pauli: str

    def __post_init__(self):
        if not isinstance(self.pauli, str) or not self.pauli or not set(self.pauli) <= set("IXYZ"):
            raise InvalidSpec(f"pauli string must use I/X/Y/Z, got {self.pauli!r}")

    @staticmethod
    def from_pauli(letters: str) -> "Observable":
        """The observable of `letters` in either case."""
        return Observable(letters.upper() if isinstance(letters, str) else letters)

    def letter_for(self, qubit: int) -> str:
        """The letter on `qubit`: InvalidSpec unless it is an integer,
        QubitOutOfRange outside [0, len(pauli))."""
        if not _is_int(qubit):
            raise InvalidSpec(f"qubit must be an integer, got {qubit!r}")
        if not 0 <= qubit < len(self.pauli):
            raise QubitOutOfRange(f"qubit {qubit} outside [0, {len(self.pauli)})")
        return self.pauli[len(self.pauli) - 1 - qubit]


def z_on_qubit(qubit: int, n: int) -> Observable:
    """Z on `qubit` of an n-qubit register: InvalidSpec unless n is an integer
    >= 1 and qubit an integer, QubitOutOfRange unless 0 <= qubit < n."""
    if not _is_int(n) or n < 1 or not _is_int(qubit):
        raise InvalidSpec(f"qubit must be an integer and n an integer >= 1, got qubit={qubit!r}, n={n!r}")
    if not 0 <= qubit < n:
        raise QubitOutOfRange(f"qubit {qubit} outside [0, {n})")
    letters = ["I"] * n
    letters[n - 1 - qubit] = "Z"
    return Observable.from_pauli("".join(letters))


def random_pauli(n: int, rng: np.random.Generator) -> Observable:
    """n letters drawn by `rng`: InvalidSpec unless n is an integer >= 1 and rng a numpy Generator."""
    if not _is_int(n) or n < 1:
        raise InvalidSpec(f"n must be an integer >= 1, got {n!r}")
    check_type("rng", rng, np.random.Generator)
    letters = "".join("IXYZ"[i] for i in rng.integers(4, size=n))  # the draws of n rng.choice calls
    return Observable.from_pauli(letters)
