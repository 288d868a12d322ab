import re

import numpy as np
import pytest

from charforge.characters import character_table, isotypic_projectors
from charforge.circuits import Circuit, gate, parse_circuit
from charforge.errors import ElementNotInGroup, GroupMismatch, InvalidSpec
from charforge.expectation import (decomp_expectation, degree_square_sum,
                                   paper_expectation_formula)
from charforge.fixtures import H
from charforge.groups import close_group
from charforge.observables import Observable, random_pauli, z_on_qubit
from charforge.statevector import sv_expectation


def test_identity_and_x_in_c2(groups, tables):
    g, t = groups["c2"], tables["c2"]
    projs = isotypic_projectors(g, t)
    z = z_on_qubit(0, 1)
    assert decomp_expectation(parse_circuit("qubits 1\n"), z, g, projs) == pytest.approx(1.0)
    assert decomp_expectation(parse_circuit("qubits 1\nx 0\n"), z, g, projs) == pytest.approx(-1.0)


def test_decomposition_path_matches_oracle_on_clifford1(groups, tables):
    g, t = groups["clifford1"], tables["clifford1"]
    projs = isotypic_projectors(g, t)
    rng = np.random.default_rng(17)
    kinds = ("h", "s", "sdg", "x", "z")
    for trial in range(10):
        word = [gate(kinds[rng.integers(len(kinds))], 0) for _ in range(8)]
        c = Circuit(1, tuple(word), name=f"w{trial}")
        obs = random_pauli(1, rng)
        assert abs(decomp_expectation(c, obs, g, projs) - sv_expectation(c, obs)) <= 1e-8


def test_element_not_in_group(groups, tables):
    g, t = groups["c2"], tables["c2"]
    projs = isotypic_projectors(g, t)
    with pytest.raises(ElementNotInGroup):
        decomp_expectation(parse_circuit("qubits 1\nh 0\n"), z_on_qubit(0, 1), g, projs)


def test_projectors_of_another_group_are_rejected(groups, tables):
    projs = isotypic_projectors(groups["c2xc2"], tables["c2xc2"])
    with pytest.raises(GroupMismatch, match="projectors belong to a different group"):
        decomp_expectation(parse_circuit("qubits 1\nx 0\n"), z_on_qubit(0, 1), groups["d4"], projs)


def test_closed_form_trivial_group(groups, tables):
    value, dev = paper_expectation_formula(
        parse_circuit("qubits 1\n"), z_on_qubit(0, 1), tables["trivial"], groups["trivial"])
    assert value == pytest.approx(1.0, abs=1e-12)
    assert dev == pytest.approx(0.0, abs=1e-12)


def test_closed_form_x_gate_hand_value(groups, tables):
    # |G|^2 <0|Z|0> sum_i |chi_i(X)|^2 = 4 * 1 * 2 = 8, oracle is -1
    value, dev = paper_expectation_formula(
        parse_circuit("qubits 1\nx 0\n"), z_on_qubit(0, 1), tables["c2"], groups["c2"])
    assert value == pytest.approx(8.0, abs=1e-9)
    assert dev == pytest.approx(9.0, abs=1e-9)


def test_closed_form_h_gate_logged_deviation():
    g = close_group([H])
    t = character_table(g, seed=0)
    value, dev = paper_expectation_formula(
        parse_circuit("qubits 1\nh 0\n"), Observable.from_pauli("X"), t, g)
    # formula: 4 * <0|X|0> * 2 = 0; oracle: <+|X|+> = 1
    assert value == pytest.approx(0.0, abs=1e-9)
    assert dev == pytest.approx(1.0, abs=1e-9)


def test_degree_square_sum_is_one(tables):
    for t in tables.values():
        assert degree_square_sum(t) == 1.0


def test_character_multiplicativity_both_directions(groups, tables):
    g, t = groups["d4"], tables["d4"]
    per_elem = t.values[:, g.class_of]
    rng = np.random.default_rng(23)
    pairs = rng.integers(0, g.order, size=(30, 2))
    for i in range(t.k):
        chi = per_elem[i]
        devs = [abs(chi[g.cayley[a, b]] - chi[a] * chi[b]) for a, b in pairs]
        if t.degrees[i] == 1:
            assert max(devs) <= 1e-8
    # the 2-dim irrep fails on some pair (X with itself: chi(I)=2, chi(X)^2=0)
    two_dim = int(np.argmax(t.degrees))
    chi = per_elem[two_dim]
    violations = [abs(chi[g.cayley[a, b]] - chi[a] * chi[b])
                  for a in range(g.order) for b in range(g.order)]
    assert max(violations) > 0.1


@pytest.mark.parametrize("letters, coeff, match", [
    (5, 1.0, "pauli string must use I/X/Y/Z, got 5"),
    ("XQ", 1.0, "pauli string must use I/X/Y/Z, got 'XQ'"),
    ("", 1.0, "pauli string must use I/X/Y/Z, got ''"),
    ("XZ", "a", "pauli coefficient must be a finite real, got 'a'"),
    ("XZ", np.nan, "pauli coefficient must be a finite real, got nan"),
    ("XZ", -np.inf, "pauli coefficient must be a finite real, got -inf"),
    ("XZ", 1j, "pauli coefficient must be a finite real, got 1j"),
])
def test_from_pauli_rejects_bad_letters_and_coefficients(letters, coeff, match):
    with pytest.raises(InvalidSpec, match=f"^{re.escape(match)}$"):
        Observable.from_pauli(letters, coeff=coeff)


def test_from_pauli_takes_either_case_and_a_numpy_real():
    obs = Observable.from_pauli("xZi", coeff=np.float32(0.5))
    assert (obs.pauli, obs.coeff, type(obs.coeff)) == ("XZI", 0.5, float)
    assert Observable.from_pauli("Y", coeff=np.int64(-2)).coeff == -2.0
