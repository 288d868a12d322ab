"""Expectation values through the group-decomposition route.

circuit_element walks a circuit's gates through its group's tables, exact in
the closed group: a circuit is an element when each of its gates is. The
closed-form value |G|^2 <psi|O|psi> sum_i |chi_i(U)|^2 / d_i^2 is computed
verbatim and returned together with its deviation from the state-vector
oracle. No agreement is asserted; the deviation feeds the claims report.
"""

from __future__ import annotations

import numpy as np

from .characters import CharacterTable, _check_table_of, check_table
from .circuits import Circuit, check_circuit, gate_generators
from .errors import DimensionMismatch, ElementNotInGroup
from .groups import FiniteMatrixGroup, check_group, element_of, walk
from .histogram import check_type
from .observables import Observable
from .statevector import expectation_of_state, sv_expectation, zero_state


def circuit_element(c: Circuit, group: FiniteMatrixGroup) -> int:
    """Element index in `group` of the circuit's measure-free body. Raises DimensionMismatch
    unless group.dim is 2**n, and ElementNotInGroup when a gate is not an element."""
    check_circuit(c)
    check_group(group)
    if group.dim != 1 << c.n_qubits:
        raise DimensionMismatch(f"a {c.n_qubits}-qubit circuit in a group of dimension {group.dim}")
    body = c.body_and_suffix()[0]
    mats, slots = gate_generators(body, tuple(range(c.n_qubits)))
    if None in (elements := [element_of(group, m) for m in mats]):
        g = body[slots.index(elements.index(None))]
        raise ElementNotInGroup(f"{c.name or '<circuit>'}: gate {g.kind} {list(g.qubits)} is not in the group")
    return walk(group.columns(elements).T, slots)


def paper_expectation_formula(
    c: Circuit,
    obs: Observable,
    table: CharacterTable,
    group: FiniteMatrixGroup,
) -> tuple[float, float]:
    """Closed-form value |G|^2 <psi0|O|psi0> sum_i |chi_i(U)|^2 / d_i^2 and
    its absolute deviation from the state-vector oracle. Raises GroupMismatch
    if the table's order, k or class sizes are not the group's."""
    check_type("obs", obs, Observable)
    _check_table_of(group, table)
    g = circuit_element(c, group)
    chars = table.values[:, group.class_of[g]]
    degrees = table.degrees.astype(np.float64)
    total = float(np.sum(np.abs(chars) ** 2 / degrees ** 2))
    base = expectation_of_state(zero_state(c.n_qubits), obs, c.n_qubits)
    value = (table.group_order ** 2) * base * total
    oracle = sv_expectation(c, obs)
    return value, abs(value - oracle)


def degree_square_sum(table: CharacterTable) -> float:
    """sum_i d_i^2 / |G|; exactly 1 after integer rounding of degrees."""
    check_table(table)
    return float(np.sum(table.degrees.astype(np.int64) ** 2)) / table.group_order
