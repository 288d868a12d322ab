import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from charforge import cli
from charforge.characters import character_table, isotypic_projectors
from charforge.circuits import GATE_ARITY, Circuit, circuit_unitary, gate, parse_circuit
from charforge.errors import DimensionMismatch, ElementNotInGroup, InvalidSpec, OrderCapExceeded
from charforge.expectation import circuit_element, degree_square_sum, paper_expectation_formula
from charforge.fixtures import H, X, all_fixture_groups
from charforge.groups import ClosureConfig, close_group, element_of
from charforge.observables import Observable, random_pauli, z_on_qubit
from charforge.statevector import expectation_of_state, sv_expectation, zero_state


def _resolved(c, group, projs):
    """sum_i P_i U |0> for the circuit's unitary U, and U |0>."""
    u = circuit_unitary(Circuit(c.n_qubits, c.body_and_suffix()[0]))
    psi = zero_state(c.n_qubits)
    return np.sum(projs @ u, axis=0) @ psi, u @ psi


@pytest.mark.parametrize("name", ["c2", "clifford1"])
def test_projectors_resolve_the_identity(groups, tables, name):
    projs = isotypic_projectors(groups[name], tables[name])
    assert np.max(np.abs(np.sum(projs, axis=0) - np.eye(groups[name].dim))) <= 1e-12


def test_identity_and_x_in_c2(groups, tables):
    g, t = groups["c2"], tables["c2"]
    projs = isotypic_projectors(g, t)
    z = z_on_qubit(0, 1)
    for text, value in (("qubits 1\n", 1.0), ("qubits 1\nx 0\n", -1.0)):
        resolved, psi = _resolved(parse_circuit(text), g, projs)
        assert np.allclose(resolved, psi, atol=1e-12)
        assert expectation_of_state(resolved, z, 1) == pytest.approx(value)


def test_decomposition_path_matches_oracle_on_clifford1(groups, tables):
    g, t = groups["clifford1"], tables["clifford1"]
    projs = isotypic_projectors(g, t)
    rng = np.random.default_rng(17)
    kinds = ("h", "s", "sdg", "x", "z")
    for trial in range(10):
        word = [gate(kinds[rng.integers(len(kinds))], 0) for _ in range(8)]
        c = Circuit(1, tuple(word), name=f"w{trial}")
        obs = random_pauli(1, rng)
        resolved, _ = _resolved(c, g, projs)
        assert abs(expectation_of_state(resolved, obs, 1) - sv_expectation(c, obs)) <= 1e-8


def test_element_not_in_group(groups):
    g = groups["c2"]
    with pytest.raises(ElementNotInGroup):
        circuit_element(parse_circuit("qubits 1\nh 0\n"), g)
    with pytest.raises(ElementNotInGroup, match=r"^hx: gate h \[0\] is not in the group$"):
        circuit_element(parse_circuit("qubits 1\nx 0\nh 0\nmeasure 0\n", name="hx"), g)
    assert circuit_element(parse_circuit("qubits 1\nx 0\nmeasure 0\n"), g) == element_of(g, X)


def test_a_gate_outside_the_group_is_refused_even_when_the_product_is_in_it(groups):
    # h h is the identity, but h is no element of c2: membership is gate by gate
    c = parse_circuit("qubits 1\nh 0\nh 0\n", name="hh")
    assert element_of(groups["c2"], circuit_unitary(c)) == 0
    with pytest.raises(ElementNotInGroup, match=r"^hh: gate h \[0\] is not in the group$"):
        circuit_element(c, groups["c2"])


@pytest.mark.parametrize("text", ["qubits 2\n", "qubits 2\nx 0\n"], ids=["empty", "x0"])
def test_a_circuit_of_another_width_is_a_dimension_mismatch(groups, text):
    with pytest.raises(DimensionMismatch, match="^a 2-qubit circuit in a group of dimension 2$"):
        circuit_element(parse_circuit(text), groups["c2"])


# -- the walk against the dense lookup -------------------------------------------

_CLIFFORD = ("h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap")
_CLIFFORD_T = _CLIFFORD + ("t", "tdg")
_FIXTURE_GROUPS = {name: g for name, g in all_fixture_groups().items() if g.dim & (g.dim - 1) == 0}


def _gates(n, kinds):
    """Every gate of `kinds` on an n-qubit register."""
    return [gate(kind, *qs) for kind in kinds
            for qs in np.ndindex(*[n] * GATE_ARITY[kind]) if len(set(qs)) == len(qs)]


@st.composite
def _closed_words(draw):
    """A random word and its group: a few gates from a Clifford or a
    Clifford+T pool on 1-3 qubits closed as the CLI closes them, or the gates
    of a fixture group of qubit dimension, empty for trivial and q8."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 3))
        pool = _gates(n, draw(st.sampled_from([_CLIFFORD, _CLIFFORD_T])))
        gens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        word = draw(st.lists(st.sampled_from(gens), max_size=16))
        try:
            group, _, compact = cli.circuit_gate_group(Circuit(n, tuple(gens + word)), ClosureConfig(3072))
        except OrderCapExceeded:
            assume(False)
        return group, compact
    group = _FIXTURE_GROUPS[draw(st.sampled_from(sorted(_FIXTURE_GROUPS)))]
    n = group.dim.bit_length() - 1
    pool = [g for g in _gates(n, _CLIFFORD_T) if element_of(group, circuit_unitary(Circuit(n, (g,)))) is not None]
    return group, Circuit(n, tuple(draw(st.lists(st.sampled_from(pool), max_size=16)) if pool else ()))


@settings(max_examples=120, deadline=None)
@given(_closed_words())
def test_the_walk_finds_the_dense_products_element(case):
    group, c = case
    assert circuit_element(c, group) == element_of(group, circuit_unitary(c))


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


BAD_OBSERVABLES = [
    (5, "pauli string must use I/X/Y/Z, got 5"),
    ("XQ", "pauli string must use I/X/Y/Z, got 'XQ'"),
    ("", "pauli string must use I/X/Y/Z, got ''"),
]


@pytest.mark.parametrize("letters, match", BAD_OBSERVABLES)
def test_from_pauli_rejects_bad_letters(letters, match):
    with pytest.raises(InvalidSpec, match=f"^{re.escape(match)}$"):
        Observable.from_pauli(letters)


@pytest.mark.parametrize("letters, match", BAD_OBSERVABLES + [
    ("Q", "pauli string must use I/X/Y/Z, got 'Q'"),
    ("xz", "pauli string must use I/X/Y/Z, got 'xz'"),  # only from_pauli upper-cases
])
def test_an_observable_is_checked_when_it_is_built(letters, match):
    # Observable("Q") reached the gate loop and raised a raw ValueError there
    with pytest.raises(InvalidSpec, match=f"^{re.escape(match)}$"):
        Observable(letters)


def test_from_pauli_takes_either_case():
    assert Observable.from_pauli("xZi").pauli == "XZI"
