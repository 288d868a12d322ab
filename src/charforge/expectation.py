"""Expectation values through the group-decomposition route.

Two paths live here:

* decomp_expectation replaces the circuit unitary U by sum_i P_i U, the
  exact isotypic split of U in the defining representation. Since the
  projectors resolve the identity, this must agree with the state-vector
  oracle and is asserted against it in the tests.

* the closed-form value |G|^2 <psi|O|psi> sum_i |chi_i(U)|^2 / d_i^2 is
  computed verbatim and returned together with its deviation from the
  oracle. No agreement is asserted; the deviation feeds the claims report.
"""

from __future__ import annotations

import numpy as np

from .characters import CharacterTable
from .circuits import Circuit, circuit_unitary
from .errors import ElementNotInGroup, GroupMismatch
from .groups import FiniteMatrixGroup, element_of
from .observables import Observable
from .statevector import expectation_of_state, sv_expectation, zero_state


def _group_element_for(c: Circuit, group: FiniteMatrixGroup) -> tuple[np.ndarray, int]:
    body, _ = c.body_and_suffix()
    u = circuit_unitary(Circuit(c.n_qubits, body, name=c.name))
    g = element_of(group, u)
    if g is None:
        raise ElementNotInGroup(
            f"circuit unitary of {c.name or '<circuit>'} is not an element of the group")
    return u, g


def decomp_expectation(
    c: Circuit,
    obs: Observable,
    group: FiniteMatrixGroup,
    projectors: np.ndarray,
) -> float:
    """<psi0| U^dag O U |psi0> with U replaced by its isotypic resolution
    sum_i P_i U over the (k, dim, dim) projectors. Raises GroupMismatch if
    they are another group's."""
    if projectors.shape[1:] != (group.dim, group.dim):
        raise GroupMismatch("projectors belong to a different group")
    u, _ = _group_element_for(c, group)
    u_rec = np.sum([p @ u for p in projectors], axis=0)
    psi = u_rec @ zero_state(c.n_qubits)
    return expectation_of_state(psi, obs, c.n_qubits)


def paper_expectation_formula(
    c: Circuit,
    obs: Observable,
    table: CharacterTable,
    group: FiniteMatrixGroup,
) -> tuple[float, float]:
    """Closed-form value |G|^2 <psi0|O|psi0> sum_i |chi_i(U)|^2 / d_i^2 and
    its absolute deviation from the state-vector oracle."""
    _, g = _group_element_for(c, group)
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
