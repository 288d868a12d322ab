"""Expectation values through the group-decomposition route.

circuit_element finds a circuit's unitary in its group. The closed-form
value |G|^2 <psi|O|psi> sum_i |chi_i(U)|^2 / d_i^2 is computed verbatim and
returned together with its deviation from the state-vector oracle. No
agreement is asserted; the deviation feeds the claims report.
"""

from __future__ import annotations

import numpy as np

from .characters import CharacterTable
from .circuits import Circuit, circuit_unitary
from .errors import ElementNotInGroup
from .groups import FiniteMatrixGroup, element_of
from .observables import Observable
from .statevector import expectation_of_state, sv_expectation, zero_state


def circuit_element(c: Circuit, group: FiniteMatrixGroup) -> tuple[np.ndarray, int]:
    """The unitary of the circuit's measure-free body and its element index in
    `group`. Raises ElementNotInGroup when the unitary is not an element."""
    body, _ = c.body_and_suffix()
    u = circuit_unitary(Circuit(c.n_qubits, body, name=c.name))
    g = element_of(group, u)
    if g is None:
        raise ElementNotInGroup(
            f"circuit unitary of {c.name or '<circuit>'} is not an element of the group")
    return u, g


def paper_expectation_formula(
    c: Circuit,
    obs: Observable,
    table: CharacterTable,
    group: FiniteMatrixGroup,
) -> tuple[float, float]:
    """Closed-form value |G|^2 <psi0|O|psi0> sum_i |chi_i(U)|^2 / d_i^2 and
    its absolute deviation from the state-vector oracle."""
    _, g = circuit_element(c, group)
    chars = table.values[:, group.class_of[g]]
    degrees = table.degrees.astype(np.float64)
    total = float(np.sum(np.abs(chars) ** 2 / degrees ** 2))
    base = expectation_of_state(zero_state(c.n_qubits), obs, c.n_qubits)
    value = (table.group_order ** 2) * base * total
    oracle = sv_expectation(c, obs)
    return value, abs(value - oracle)


def degree_square_sum(table: CharacterTable) -> float:
    """sum_i d_i^2 / |G|; exactly 1 after integer rounding of degrees."""
    return float(np.sum(table.degrees.astype(np.int64) ** 2)) / table.group_order
