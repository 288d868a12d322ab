import copy
import hashlib
import json

import numpy as np
import pytest

import charforge as cf
from charforge import characters
from charforge.characters import (CharacterTable, central_idempotents,
                                  character_table, character_table_csv,
                                  class_matrices, isotypic_projectors,
                                  verify_orthogonality)
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_oracle import conjugacy_classes_from_cayley, inverses_from_cayley
from conftest import traced_peak
from charforge.algebra import decomposition_report_json, delta
from charforge.circuits import GATE_ARITY, embed_gate, gate_matrix
from charforge.errors import (GroupMismatch, InvalidSpec, NonIntegralDegree, NonIntegralMultiplicity,
                              OrderCapExceeded, OrthogonalityViolation)
from charforge.fixtures import FIXTURE_NAMES, fixture_group
from charforge.groups import ClosureConfig, FiniteMatrixGroup, close_group


def _gate_set_group(n, gates):
    return close_group([embed_gate(gate_matrix(kind), tuple(qs), n) for kind, *qs in gates])


def test_order_two_table_is_canonical(groups):
    t = character_table(groups["c2"], seed=1)
    assert t.degrees.tolist() == [1, 1]
    assert np.allclose(t.values, [[1, 1], [1, -1]])


def test_s3_degrees(groups):
    t = character_table(groups["s3"], seed=42)
    assert sorted(t.degrees.tolist()) == [1, 1, 2]
    assert int(np.sum(t.degrees ** 2)) == 6


def test_q8_degrees(groups):
    t = character_table(groups["q8"], seed=42)
    assert t.degrees.tolist() == [1, 1, 1, 1, 2]


@pytest.mark.parametrize("name", ["trivial", "c2", "c2xc2", "s3", "d4", "q8", "pauli1", "clifford1"])
def test_orthogonality_and_degree_sum(name, groups, tables):
    t = tables[name]
    rep = verify_orthogonality(t)
    assert rep.row_residual <= 1e-8
    assert rep.col_residual <= 1e-8
    assert rep.degree_sum_residual == 0.0
    assert int(np.sum(t.degrees ** 2)) == t.group_order
    # chi_i on the identity class equals the degree
    assert np.allclose(t.values[:, 0], t.degrees)


def test_corrupted_table_detected(tables):
    t = tables["d4"]
    bad = CharacterTable(t.k, t.degrees, t.values.copy(), t.class_sizes, t.group_order)
    bad.values[1, 1] += 0.1
    assert verify_orthogonality(bad).row_residual >= 0.01


def perturbed_class_matrices(monkeypatch, eps, j=2):
    """Make character_table read structure constants plus eps times a seeded
    dense matrix N on M_j, which moves the eigenvectors and so every value:
    its draw sum_j r_j M_j gains r_j eps N."""
    exact = characters._class_structure

    def perturbed(group):
        draw, powers = exact(group)
        noise = eps * np.random.default_rng(0).standard_normal((len(group.classes),) * 2)
        return (lambda r: draw(r) + r[j] * noise), powers

    monkeypatch.setattr(characters, "_class_structure", perturbed)


@pytest.mark.parametrize("name, eps, error", [
    ("d4", 1e-8, None), ("d4", 1e-6, None), ("clifford1", 1e-8, None), ("clifford1", 1e-6, None),
    # values off by about 1e-4 that still round to the right degrees
    ("d4", 3e-5, NonIntegralMultiplicity),
    ("d4", 1e-4, NonIntegralDegree),
])
def test_perturbed_class_matrices_snap_back_or_raise(monkeypatch, groups, name, eps, error):
    """Within the rounding margin the snap to sums of roots of unity returns
    the intact table; past it the multiplicity or degree check raises."""
    intact = character_table_csv(character_table(groups[name]))
    perturbed_class_matrices(monkeypatch, eps)
    if error is None:
        assert character_table_csv(character_table(groups[name])) == intact
    else:
        with pytest.raises(error, match="off non-negative integers|not within 1e-4"):
            character_table(groups[name])


def corrupted_powers(monkeypatch, corrupt):
    """Make character_table read powers[l, c] = u_c^l that `corrupt(group,
    powers)` has changed in place; the class matrices stay exact."""
    exact = characters._class_structure

    def corrupted(group):
        draw, powers = exact(group)
        corrupt(group, powers)
        return draw, powers

    monkeypatch.setattr(characters, "_class_structure", corrupted)


def test_a_walk_that_is_no_power_map_fails_the_multiplicity_check(monkeypatch, groups):
    def square_is_itself(group, powers):  # u_1 has order 4; read u_1^2 as u_1
        powers[2, 1] = powers[1, 1]

    corrupted_powers(monkeypatch, square_is_itself)
    with pytest.raises(NonIntegralMultiplicity, match=r"order-4 roots of unity are 0\.5 off"):
        character_table(groups["q8"])


def test_a_power_walk_that_never_returns_is_bounded(groups):
    g = groups["clifford1"]
    bad, u = copy.copy(g), g.classes[1][0]

    def columns(zs):  # the count's column of u_1 sends u_1 to itself, so its walk sticks there
        cols = g.columns(zs)
        if list(zs) == [c[0] for c in g.classes]:
            cols[1, u] = u
        return cols

    bad.columns = columns
    with pytest.raises(AssertionError, match="power walk misses the identity"):
        class_matrices(bad)


def test_character_table_checks_its_own_orthogonality(monkeypatch, groups):
    """Exact multiplicities leave the orthogonality check as a backstop. Two
    classes that swap power walks give integral multiplicities but the wrong
    values, and only it catches them."""
    def swap(group, powers):
        powers[:, [2, 3]] = powers[:, [3, 2]]

    corrupted_powers(monkeypatch, swap)
    with pytest.raises(OrthogonalityViolation, match="orthogonality residual 8 exceeds 1e-08"):
        character_table(groups["clifford1"])


def test_class_matrix_counting_identity(groups):
    rng = np.random.default_rng(3)
    for name in ("d4", "s3", "clifford1"):
        g = groups[name]
        cms = class_matrices(g)
        sizes = np.array([len(c) for c in g.classes])
        k = len(sizes)
        for _ in range(5):
            j, l = rng.integers(k), rng.integers(k)
            assert int(np.sum(cms[j, l] * sizes)) == sizes[j] * sizes[l]


def test_d4_x_class_times_itself(groups):
    g = groups["d4"]
    # class of X times itself covers {I} and {-I}, multiplicities summing to 4
    x_cls = int(g.class_of[1])  # element 1 is the generator X
    id_cls = 0
    minus_id = [i for i in range(8) if np.allclose(g.mats[i], -np.eye(2))][0]
    minus_cls = int(g.class_of[minus_id])
    a = class_matrices(g)[x_cls]
    assert a[x_cls, id_cls] + a[x_cls, minus_cls] == 4
    assert a[x_cls, id_cls] == 2 and a[x_cls, minus_cls] == 2


def test_order_two_idempotents_by_hand(groups, tables):
    es = central_idempotents(groups["c2"], tables["c2"])
    assert np.allclose(es[0], [0.5, 0.5])
    assert np.allclose(es[1], [0.5, -0.5])


def test_idempotent_coeffs_constant_on_classes(groups, tables):
    for name in ("d4", "q8", "clifford1"):
        g, t = groups[name], tables[name]
        for e in central_idempotents(g, t):
            for cls in g.classes:
                vals = e[list(cls)]
                assert np.max(np.abs(vals - vals[0])) <= 1e-10


@pytest.mark.parametrize("name", ["trivial", "c2", "c2xc2", "s3", "d4", "q8", "pauli1", "clifford1"])
def test_idempotent_norm_is_degree_over_root_order(name, groups, tables):
    # ||e_i||^2 = (d_i/|G|)^2 sum_j |C_j| |chi_i(C_j)|^2 = d_i^2/|G| by row
    # orthogonality, so the norm carries nothing beyond the degree
    g, t = groups[name], tables[name]
    for i, e in enumerate(central_idempotents(g, t)):
        expected = t.degrees[i] / np.sqrt(t.group_order)
        assert abs(np.linalg.norm(e) - expected) <= 1e-12


def test_projector_examples(groups, tables):
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    projs = isotypic_projectors(groups["c2"], tables["c2"])
    assert np.allclose(projs[0], plus)
    assert np.allclose(projs[1], np.eye(2) - plus)

    projs = isotypic_projectors(groups["d4"], tables["d4"])
    nonzero = [p for p in projs if np.max(np.abs(p)) > 1e-8]
    assert len(nonzero) == 1
    assert np.allclose(nonzero[0], np.eye(2), atol=1e-10)


@pytest.mark.parametrize("name", ["c2", "s3", "d4", "q8", "pauli1", "clifford1"])
def test_projector_invariants(name, groups, tables):
    g, t = groups[name], tables[name]
    projs = isotypic_projectors(g, t)
    total = np.sum(projs, axis=0)
    assert np.max(np.abs(total - np.eye(g.dim))) <= 1e-8
    for i, p in enumerate(projs):
        assert np.max(np.abs(p @ p - p)) <= 1e-8
        for q in projs[i + 1:]:
            assert np.max(np.abs(p @ q)) <= 1e-8
        for a in range(g.order):
            assert np.max(np.abs(p @ g.mats[a] - g.mats[a] @ p)) <= 1e-8


def test_degree_bound_and_abelian_iff(groups, tables):
    from charforge.groups import center_and_abelian
    for name, g in groups.items():
        t = tables[name]
        assert all(d <= np.sqrt(g.order) for d in t.degrees)
        assert np.max(np.abs(t.values)) <= max(t.degrees) + 1e-8
        _, abelian = center_and_abelian(g)
        assert abelian == all(d == 1 for d in t.degrees) == (t.k == g.order)
        # |chi_i(C_j)| <= d_i per row
        for i in range(t.k):
            assert np.max(np.abs(t.values[i])) <= t.degrees[i] + 1e-8


def test_seed_determinism_and_canonical_order(groups):
    g = groups["clifford1"]
    a = character_table(g, seed=42)
    b = character_table(g, seed=42)
    c = character_table(g, seed=123)
    assert np.array_equal(a.values, b.values)
    assert a.degrees.tolist() == c.degrees.tolist()
    assert np.allclose(a.values, c.values, atol=1e-9)


def test_csv_format(tables):
    csv = character_table_csv(tables["c2"])
    lines = csv.strip().splitlines()
    assert lines[0] == "class_size,1,1"
    assert lines[1] == "1,1.000000000+0.000000000i,1.000000000+0.000000000i"
    assert lines[2] == "1,1.000000000+0.000000000i,-1.000000000+0.000000000i"


def test_trivial_group_table():
    t = character_table(fixture_group("trivial"), seed=0)
    assert t.k == 1 and t.degrees.tolist() == [1]
    assert np.allclose(t.values, [[1.0]])


@pytest.mark.parametrize("seed", [-1, 0.5])
def test_character_table_rejects_a_bad_seed(groups, seed):
    with pytest.raises(InvalidSpec, match="seed"):
        character_table(groups["c2"], seed=seed)


def _d4_args():
    g = fixture_group("d4")
    t = character_table(g)
    return g, t, cf.delta(g, 1), central_idempotents(g, t)


_CIRCUIT = cf.parse_circuit("qubits 1\nx 0\n")
_HISTOGRAM = cf.MeasurementHistogram(1, {"0": 1})
# every public function that takes a group, a character table, an algebra element, the
# idempotent and projector arrays, a histogram, cost parameters, a numpy Generator, an
# observable or a benchmark spec, with `bad` in one of those places; a wrong type raised
# a raw AttributeError in all but the first three
_WRONG_TYPE_CALLS = {
    "build_word_table": ("group", lambda g, t, u, e, bad: cf.build_word_table(bad)),
    "character_table": ("group", lambda g, t, u, e, bad: character_table(bad)),
    "element_of": ("group", lambda g, t, u, e, bad: cf.element_of(bad, np.eye(2))),
    "class_matrices": ("group", lambda g, t, u, e, bad: class_matrices(bad)),
    "central_idempotents-group": ("group", lambda g, t, u, e, bad: central_idempotents(bad, t)),
    "isotypic_projectors-group": ("group", lambda g, t, u, e, bad: isotypic_projectors(bad, t)),
    "center_and_abelian": ("group", lambda g, t, u, e, bad: cf.center_and_abelian(bad)),
    "group_to_json": ("group", lambda g, t, u, e, bad: cf.group_to_json(bad)),
    "delta": ("group", lambda g, t, u, e, bad: delta(bad, 0)),
    "random_element": ("group", lambda g, t, u, e, bad: cf.random_element(bad, np.random.default_rng(0))),
    "AlgebraElement": ("group", lambda g, t, u, e, bad: cf.AlgebraElement(bad, u.coeffs)),
    "classify_group": ("group", lambda g, t, u, e, bad: cf.classify_group(bad)),
    "circuit_element": ("group", lambda g, t, u, e, bad: cf.circuit_element(_CIRCUIT, bad)),
    "central_idempotents-table": ("table", lambda g, t, u, e, bad: central_idempotents(g, bad)),
    "isotypic_projectors-table": ("table", lambda g, t, u, e, bad: isotypic_projectors(g, bad)),
    "verify_orthogonality": ("table", lambda g, t, u, e, bad: verify_orthogonality(bad)),
    "character_table_csv": ("table", lambda g, t, u, e, bad: character_table_csv(bad)),
    "degree_square_sum": ("table", lambda g, t, u, e, bad: cf.degree_square_sum(bad)),
    "characters_of-table": ("table", lambda g, t, u, e, bad: cf.characters_of(u, bad)),
    "statement_formula_residual-table": ("table", lambda g, t, u, e, bad: cf.statement_formula_residual(u, bad, e)),
    "paper_expectation_formula": ("table", lambda g, t, u, e, bad: cf.paper_expectation_formula(
        _CIRCUIT, cf.Observable.from_pauli("Z"), bad, fixture_group("c2"))),
    "convolve-left": ("element", lambda g, t, u, e, bad: cf.convolve(bad, u)),
    "convolve-right": ("element", lambda g, t, u, e, bad: cf.convolve(u, bad)),
    "to_matrix": ("element", lambda g, t, u, e, bad: cf.to_matrix(bad)),
    "characters_of-element": ("element", lambda g, t, u, e, bad: cf.characters_of(bad, t)),
    "statement_formula_residual-element": ("element", lambda g, t, u, e, bad: cf.statement_formula_residual(
        bad, t, e)),
    "decompose_element-element": ("element", lambda g, t, u, e, bad: cf.decompose_element(bad, e)),
    "decompose_element-idempotents": ("arrays", lambda g, t, u, e, bad: cf.decompose_element(u, bad)),
    "decompose_element-projectors": ("arrays", lambda g, t, u, e, bad: cf.decompose_element(u, e, bad)),
    "tv_distance-left": ("histogram", lambda g, t, u, e, bad: cf.tv_distance(bad, _HISTOGRAM)),
    "tv_distance-right": ("histogram", lambda g, t, u, e, bad: cf.tv_distance(_HISTOGRAM, bad)),
    "histogram_csv": ("histogram", lambda g, t, u, e, bad: cf.histogram_csv(bad)),
    "estimate_cost": ("params", lambda g, t, u, e, bad: cf.estimate_cost(bad)),
    "random_element-rng": ("rng", lambda g, t, u, e, bad: cf.random_element(g, bad)),
    "sv_expectation": ("obs", lambda g, t, u, e, bad: cf.sv_expectation(_CIRCUIT, bad)),
    "paper_expectation_formula-obs": ("obs", lambda g, t, u, e, bad: cf.paper_expectation_formula(
        _CIRCUIT, bad, t, g)),
    "build_benchmark": ("spec", lambda g, t, u, e, bad: cf.build_benchmark(bad)),
}


@pytest.mark.parametrize("role, call", _WRONG_TYPE_CALLS.values(), ids=_WRONG_TYPE_CALLS.keys())
def test_an_entry_point_refuses_a_wrong_argument_type(role, call):
    g, t, u, e = _d4_args()
    wrong = {"group": ["x", None, 3, np.eye(2), t], "table": ["x", None, g], "element": ["x", g],
             "arrays": ["x", e.tolist()], "histogram": ["x", None, {"0": 1}], "params": ["x", None],
             "rng": ["x", None, 0], "obs": ["x", None], "spec": ["x", None]}
    expected = {"group": "group must be a FiniteMatrixGroup, got {}",
                "table": "table must be a CharacterTable, got {}",
                "element": "expected an AlgebraElement, got {}",
                "arrays": "idempotents and projectors must be numpy arrays",
                "histogram": "histogram must be a MeasurementHistogram, got {}",
                "params": "params must be a CostParams, got {}",
                "rng": "rng must be a Generator, got {}",
                "obs": "obs must be an Observable, got {}",
                "spec": "spec must be a BenchmarkSpec, got {}"}
    for bad in wrong[role]:
        with pytest.raises(InvalidSpec, match=f"^{expected[role].format(type(bad).__name__)}$"):
            call(g, t, u, e, bad)


# -- class matrices against the per-element definition ------------------------

def _class_matrices_by_element(g):
    """a_jlm from every product: #{(x, y) in C_j x C_l : xy = z}, summed over
    all z in C_m, is a_jlm |C_m|. O(|G|^2); the oracle for class_matrices."""
    k = len(g.classes)
    sizes = np.array([len(c) for c in g.classes], dtype=np.int64)
    counts = np.zeros((k, k, k), dtype=np.int64)
    for x in range(g.order):
        flat = np.bincount(g.class_of * k + g.class_of[g.cayley[x]], minlength=k * k)
        counts[g.class_of[x]] += flat.reshape(k, k)
    assert np.all(counts % sizes == 0)
    return counts // sizes


@pytest.fixture(scope="module")
def h0_cx01_cx12():
    return _gate_set_group(3, [("h", 0), ("cx", 0, 1), ("cx", 1, 2)])


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "h0-cx01-cx12"])
def test_class_matrices_match_the_per_element_count(name, groups, h0_cx01_cx12):
    g = groups.get(name, h0_cx01_cx12)
    a = class_matrices(g)
    assert a.dtype.kind == "i"
    assert np.array_equal(a, _class_matrices_by_element(g))


# (fixture, generator slot, two rows): swapping two entries of one column of
# `right` leaves it a permutation; the recount at a second class member catches it
@pytest.mark.parametrize("name, slot, a, b", [("d4", 1, 7, 4), ("clifford1", 1, 98, 121)])
def test_swapped_right_entries_are_detected(groups, name, slot, a, b):
    g = groups[name]
    # the classes and inverses come from the intact tables; a shallow copy
    # keeps them and walks its columns along a corrupted right
    g.classes, g.inverses
    bad = copy.copy(g)
    bad.right = g.right.copy()
    bad.right[[a, b], slot] = bad.right[[b, a], slot]
    assert bad.classes is g.classes and bad.inverses is g.inverses
    with pytest.raises(AssertionError, match="generator table `right` is corrupt"):
        class_matrices(bad)


def test_recount_catches_seeded_right_swaps(groups):
    """Over 50 seeded swaps within a column of clifford1's `right`, the recount
    raises on every one."""
    g, rng, caught = groups["clifford1"], np.random.default_rng(0), 0
    g.classes, g.inverses
    for _ in range(50):
        slot, (a, b) = int(rng.integers(g.right.shape[1])), rng.choice(g.order, 2, replace=False)
        bad = copy.copy(g)
        bad.right = g.right.copy()
        bad.right[[a, b], slot] = bad.right[[b, a], slot]
        try:
            class_matrices(bad)
        except AssertionError:
            caught += 1
    assert caught == 50


def test_seeded_right_swaps_on_d4_never_give_a_wrong_table(groups):
    """Over 50 seeded swaps within a column of d4's `right`, the recount misses
    8; character_table then raises NonIntegralDegree on 4 and returns the
    intact table on the other 4, and never a wrong table."""
    g, rng, outcomes = groups["d4"], np.random.default_rng(0), []
    intact = character_table_csv(character_table(g))
    g.classes, g.inverses
    for _ in range(50):
        slot, (a, b) = int(rng.integers(g.right.shape[1])), rng.choice(g.order, 2, replace=False)
        bad = copy.copy(g)
        bad.right = g.right.copy()
        bad.right[[a, b], slot] = bad.right[[b, a], slot]
        try:
            outcomes.append("intact" if character_table_csv(character_table(bad)) == intact else "wrong")
        except (AssertionError, NonIntegralDegree) as exc:
            outcomes.append(type(exc).__name__)
    assert {o: outcomes.count(o) for o in set(outcomes)} == {
        "AssertionError": 42, "NonIntegralDegree": 4, "intact": 4}


@pytest.mark.parametrize("row, value", [(0, 1e-11), (0, 1e-3), (3, 1e6), (4, -1e12)])
def test_a_corrupt_eigenvector_fails_the_degree_rule_below_the_square_root_bound(monkeypatch, groups, row, value):
    """omega = right / right[0] is 1 on the identity class, so each raw degree
    sqrt(|G| / sum_j |omega_ji|^2 / s_j) is at most sqrt(|G|): a corrupt
    eigenvector is named by its raw degree, and the sum of squared degrees
    never sees a huge one."""
    g, eig = groups["d4"], np.linalg.eig

    def corrupt(m):
        evals, right = eig(m)
        right[row, 1] = value
        return evals, right

    monkeypatch.setattr(characters.np.linalg, "eig", corrupt)
    with pytest.raises(NonIntegralDegree, match="raw degree") as info:
        character_table(g)
    raw = float(str(info.value).split()[2])
    assert 0 < raw <= np.sqrt(g.order)


def test_a_rescaled_eigenvector_gives_the_intact_table(monkeypatch, groups):
    g, eig = groups["d4"], np.linalg.eig
    intact = character_table_csv(character_table(g))
    monkeypatch.setattr(characters.np.linalg, "eig", lambda m: (eig(m)[0], eig(m)[1] * 1e-9))
    assert character_table_csv(character_table(g)) == intact


@st.composite
def _clifford_pauli_gate_sets(draw):
    """(n, [(kind, qubits), ...]): 1 to 4 Clifford or Pauli gates on n <= 3 qubits."""
    n = draw(st.integers(1, 3))
    kinds = [k for k in ("x", "y", "z", "h", "s", "sdg", "cx", "cz", "swap") if GATE_ARITY[k] <= n]
    return n, [(kind, tuple(draw(st.permutations(range(n)))[:GATE_ARITY[kind]]))
               for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))]


@settings(max_examples=30, deadline=None)
@given(_clifford_pauli_gate_sets())
def test_tables_from_generators_match_the_cayley_oracle(case):
    """On random Clifford and Pauli gate sets of up to 3 qubits, closed from the
    identity and seeded with the closure of the first gate, the classes,
    inverses and class matrices built from `right` equal those read off the
    full Cayley table."""
    n, gates = case
    mats, cfg = [embed_gate(gate_matrix(kind), qs, n) for kind, qs in gates], ClosureConfig(max_order=1536)
    try:
        fresh = close_group(mats, cfg)
    except OrderCapExceeded:
        return
    for g in (fresh, close_group(mats, cfg, base=close_group(mats[:1], cfg))):
        inverses = inverses_from_cayley(g.cayley)
        classes, class_of = conjugacy_classes_from_cayley(g.cayley, inverses)
        assert np.array_equal(g.inverses, inverses)
        assert g.classes == classes and np.array_equal(g.class_of, class_of)
        assert np.array_equal(class_matrices(g),
                              _class_matrices_by_element(g))


def test_decomposition_builds_no_cayley_table(monkeypatch):
    def forbidden(self):
        raise AssertionError("the Cayley table was built")

    monkeypatch.setattr(FiniteMatrixGroup, "cayley", property(forbidden))
    g = _gate_set_group(3, [("h", 0), ("cx", 0, 1), ("cx", 1, 2)])
    t = character_table(g, seed=0)
    idem = central_idempotents(g, t)
    projs = isotypic_projectors(g, t)
    report = decomposition_report_json(delta(g, 77), t, idem, projs)
    assert g.order == 512 and report["k"] == t.k == len(idem) == len(projs)
    assert report["reconstruction_residual"] <= 1e-12 and report["matrix_residual"] <= 1e-12
    assert "cayley" not in g.__dict__


# (element, then sha256 prefixes of the decompose report JSON and of the
# idempotent and projector bytes) at table seed 0, recorded once the values
# were snapped to exact sums of roots of unity
DECOMPOSITION_PINS = {
    "d4": (5, "f1b5922cca5a0387", "39c0f6aec055c0ba", "37809f652b44d71a"),
    "clifford1": (77, "fd51dbda41ab0775", "fd59b806cf73eb45", "cb34f8dc9ed32b59"),
    "h0-cx01-cx12": (77, "051677950e2bd95c", "39110b60d399c2bd", "7960d724020cfc40"),
}


@pytest.mark.parametrize("name", DECOMPOSITION_PINS)
def test_decomposition_outputs_are_pinned(name, groups, h0_cx01_cx12):
    g = groups.get(name, h0_cx01_cx12)
    element, *pins = DECOMPOSITION_PINS[name]
    t = character_table(g, seed=0)
    idem, projs = central_idempotents(g, t), isotypic_projectors(g, t)
    assert idem.shape == (t.k, g.order) and projs.shape == (t.k, g.dim, g.dim)
    report = decomposition_report_json(delta(g, element), t, idem, projs)
    got = [json.dumps(report, indent=2).encode(), idem.tobytes(), projs.tobytes()]
    assert [hashlib.sha256(b).hexdigest()[:16] for b in got] == pins


def test_order_3072_table_is_pinned():
    g = _gate_set_group(2, [("h", 0), ("s", 0), ("cx", 0, 1)])
    t = character_table(g, seed=0)
    assert (g.order, t.k) == (3072, 184)
    assert int(np.sum(t.degrees ** 2)) == 3072
    assert verify_orthogonality(t).max_residual() <= 1e-8
    # recorded from the per-element class matrices and per-irrep Rayleigh loop
    assert hashlib.sha256(character_table_csv(t).encode()).hexdigest() == \
        "b6cb95baba7df4026afd994671afa36e4d4596902f41906188187ef5c1c0e20b"


# the analyze-groups gate sets of perfbench/workloads.py, orders 16 to 9216
GATE_SETS = {
    "h0-z0": (1, [("h", 0), ("z", 0)]),
    "h0-s0": (1, [("h", 0), ("s", 0)]),
    "x0-z1-cx01-h1": (2, [("x", 0), ("z", 1), ("cx", 0, 1), ("h", 1)]),
    "h0-cx01-cx12": (3, [("h", 0), ("cx", 0, 1), ("cx", 1, 2)]),
    "z0-x1-cx02-swap01": (3, [("z", 0), ("x", 1), ("cx", 0, 2), ("swap", 0, 1)]),
    "h0-h1-cz01": (2, [("h", 0), ("h", 1), ("cz", 0, 1)]),
    "h0-s0-cx01": (2, [("h", 0), ("s", 0), ("cx", 0, 1)]),
    "h0-h1-s1-swap01": (2, [("h", 0), ("h", 1), ("s", 1), ("swap", 0, 1)]),
}
# sha256 of character_table_csv, recorded before the values were snapped to
# exact sums of roots of unity (eigenvectors and two-sided Rayleigh quotients)
CSV_PINS = {
    "trivial": "bc79d1f4d920d7911eb013dc44ac5edd12af17b36e1ff0dba666a485b505b258",
    "c2": "c953268108be60b15acdbafa7ca1c1e290fd82e6c8f3bc8a3abe8333f5c6e92c",
    "c2xc2": "7a2a541e000e4bff27d215c13c5648b02c7146d728507224863f678ebea95c89",
    "s3": "b3d4c8551c1a7fed4911c9b2ad734c4126151911c156cc74fb240cc65103b1e3",
    "d4": "16d59c39417bc7d1a3fe25e392dc18264c44550351f1e89ec43ba8843f2c1839",
    "q8": "8def67764aadacfb9e644b602cd7a2a7978a099812d279e003bbbdedac1c7ee2",
    "pauli1": "c6e80c09c9e55e5526a01f004a01f1fb0a939c4c5c634b1b08baa58a8adba44b",
    "clifford1": "0462667f81c63023b8cf3e02e6b3df573901296c840c69401ef808763715a8a4",
    "h0-z0": "92691c295f40e86e659989826eaf7777a74251a865232b3c7530756281a13108",
    "h0-s0": "0462667f81c63023b8cf3e02e6b3df573901296c840c69401ef808763715a8a4",
    "x0-z1-cx01-h1": "61a9c9b8316e309a6db4d962b55240bd42ea668330712a55b704bf0412b7bd6a",
    "h0-cx01-cx12": "3acc09a5cd165f6b1f4d3380b95b43ee512ea1c7ea5cbed12cfa06569f1a5ffb",
    "z0-x1-cx02-swap01": "2c4e933c5d6606dfbd3cdf5fdc9262a88af8409923efd0aa38a618f5707320c1",
    "h0-h1-cz01": "95368a444c27627c02ba3157ba5a2f2bcaf8f0fc6f5bdfe2fac4eb5335d22345",
    "h0-s0-cx01": "b6cb95baba7df4026afd994671afa36e4d4596902f41906188187ef5c1c0e20b",
    "h0-h1-s1-swap01": "96734d82f5aa4a88aa0d101de93f61743057645f60b2b894560b94bec1257267",
}


@pytest.fixture(scope="module")
def gate_set_groups():
    return {}


# seed 0 on every group, and seed 7 too below order 3072
@pytest.mark.parametrize("name, seed", [(name, seed) for name in CSV_PINS for seed in (
    (0,) if name in ("h0-s0-cx01", "h0-h1-s1-swap01") else (0, 7))])
def test_chartab_csv_is_pinned(groups, gate_set_groups, name, seed):
    if name in GATE_SETS and name not in gate_set_groups:
        gate_set_groups[name] = _gate_set_group(*GATE_SETS[name])
    g = groups[name] if name in groups else gate_set_groups[name]
    csv = character_table_csv(character_table(g, seed=seed))
    assert hashlib.sha256(csv.encode()).hexdigest() == CSV_PINS[name]


def test_a_table_of_512_classes_is_drawn_without_the_class_tensor():
    """<t0, t1, t2> is abelian of order 512, so its (k, k, k) int64 class tensor
    alone would take 1 GiB; the draw is counted from the k class columns instead."""
    g = _gate_set_group(3, [("t", 0), ("t", 1), ("t", 2)])
    with traced_peak() as traced:
        t = character_table(g)
    assert (g.order, t.k) == (512, 512)
    assert traced.peak < 64 << 20, traced.peak
    assert hashlib.sha256(character_table_csv(t).encode()).hexdigest() == \
        "ce38577fd9f9e2d12f3a7a8ad4ae49da57255a3b6973818e65a5f0cabae7aff6"


def test_the_decompose_sequence_peaks_below_two_and_a_half_idempotent_arrays():
    """The CLI's decompose calls on an order-3072 group of 184 classes hold the
    complex (k, |G|) idempotents, one more (k, |G|) array at a time and
    O(|G|) beside them."""
    g = _gate_set_group(2, [("h", 0), ("s", 0), ("cx", 0, 1)])
    with traced_peak() as traced:
        t = character_table(g, seed=0)
        idem = central_idempotents(g, t)
        projs = isotypic_projectors(g, t)
        decomposition_report_json(delta(g, 77), t, idem, projs)
    assert (g.order, t.k, idem.dtype) == (3072, 184, complex)
    assert traced.peak < 2.5 * idem.nbytes, traced.peak / idem.nbytes


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_central_characters_satisfy_the_class_algebra(name, groups, tables):
    # omega_ij = |C_j| chi_i(C_j) / d_i is a character of the class-sum
    # algebra: omega_ij omega_il = sum_m a_jlm omega_im
    t = tables[name]
    a = class_matrices(groups[name]).astype(np.float64)
    omega = t.class_sizes[None, :] * t.values / t.degrees[:, None]
    for w in omega:
        assert np.max(np.abs(np.outer(w, w) - a @ w)) <= 1e-9


# -- tables of another group --------------------------------------------------

@pytest.mark.parametrize("group_name, table_name", [
    ("s3", "c2"), ("c2", "s3"),
    ("d4", "q8"),  # same order and k, class sizes in another order
])
def test_a_table_of_another_group_is_rejected(groups, tables, group_name, table_name):
    with pytest.raises(GroupMismatch):
        central_idempotents(groups[group_name], tables[table_name])
    with pytest.raises(GroupMismatch):
        isotypic_projectors(groups[group_name], tables[table_name])
