import copy
import hashlib

import numpy as np
import pytest

from charforge import characters
from charforge.characters import (ORTH_RESIDUAL_MAX, CharacterTable, central_idempotents,
                                  character_table, character_table_csv,
                                  class_matrices, isotypic_projectors,
                                  verify_orthogonality)
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley_oracle import conjugacy_classes_from_cayley, inverses_from_cayley
from charforge.algebra import decomposition_report_json, delta
from charforge.circuits import GATE_ARITY, embed_gate, gate_matrix
from charforge.errors import GroupMismatch, InvalidSpec, OrderCapExceeded, OrthogonalityViolation
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


def perturbed_class_matrices(monkeypatch, eps=1e-6):
    """Make character_table read structure constants off by eps on one
    diagonal: the degrees still round to integers that sum to |G| in
    squares, and only the orthogonality residual (about 4 eps) shows it."""
    def perturbed(group):
        cms = class_matrices(group)
        cms[1].entries = cms[1].entries + eps * np.eye(len(cms))
        return cms

    monkeypatch.setattr(characters, "class_matrices", perturbed)


def test_character_table_checks_its_own_orthogonality(monkeypatch, groups):
    perturbed_class_matrices(monkeypatch)
    with pytest.raises(OrthogonalityViolation, match="orthogonality residual"):
        character_table(groups["d4"])
    # below the pin the same perturbation passes
    perturbed_class_matrices(monkeypatch, eps=ORTH_RESIDUAL_MAX / 100)
    assert verify_orthogonality(character_table(groups["d4"])).max_residual() > 1e-12


def test_class_matrix_counting_identity(groups):
    rng = np.random.default_rng(3)
    for name in ("d4", "s3", "clifford1"):
        g = groups[name]
        cms = class_matrices(g)
        sizes = np.array([len(c) for c in g.classes])
        k = len(sizes)
        for _ in range(5):
            j, l = rng.integers(k), rng.integers(k)
            assert int(np.sum(cms[j].entries[l] * sizes)) == sizes[j] * sizes[l]


def test_d4_x_class_times_itself(groups):
    g = groups["d4"]
    # class of X times itself covers {I} and {-I}, multiplicities summing to 4
    x_cls = int(g.class_of[1])  # element 1 is the generator X
    id_cls = 0
    minus_id = [i for i in range(8) if np.allclose(g.mats[i], -np.eye(2))][0]
    minus_cls = int(g.class_of[minus_id])
    a = class_matrices(g)[x_cls].entries
    assert a[x_cls, id_cls] + a[x_cls, minus_cls] == 4
    assert a[x_cls, id_cls] == 2 and a[x_cls, minus_cls] == 2


def test_order_two_idempotents_by_hand(groups, tables):
    es = central_idempotents(groups["c2"], tables["c2"])
    assert np.allclose(es[0].coeffs, [0.5, 0.5])
    assert np.allclose(es[1].coeffs, [0.5, -0.5])


def test_idempotent_coeffs_constant_on_classes(groups, tables):
    for name in ("d4", "q8", "clifford1"):
        g, t = groups[name], tables[name]
        for e in central_idempotents(g, t):
            for cls in g.classes:
                vals = e.coeffs[list(cls)]
                assert np.max(np.abs(vals - vals[0])) <= 1e-10


@pytest.mark.parametrize("name", ["trivial", "c2", "c2xc2", "s3", "d4", "q8", "pauli1", "clifford1"])
def test_idempotent_norm_is_degree_over_root_order(name, groups, tables):
    # ||e_i||^2 = (d_i/|G|)^2 sum_j |C_j| |chi_i(C_j)|^2 = d_i^2/|G| by row
    # orthogonality, so the norm carries nothing beyond the degree
    g, t = groups[name], tables[name]
    for e in central_idempotents(g, t):
        expected = t.degrees[e.irrep] / np.sqrt(t.group_order)
        assert abs(np.linalg.norm(e.coeffs) - expected) <= 1e-12


def test_projector_examples(groups, tables):
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    projs = isotypic_projectors(groups["c2"], tables["c2"])
    assert np.allclose(projs[0].matrix, plus)
    assert np.allclose(projs[1].matrix, np.eye(2) - plus)

    projs = isotypic_projectors(groups["d4"], tables["d4"])
    nonzero = [p for p in projs if np.max(np.abs(p.matrix)) > 1e-8]
    assert len(nonzero) == 1
    assert np.allclose(nonzero[0].matrix, np.eye(2), atol=1e-10)


@pytest.mark.parametrize("name", ["c2", "s3", "d4", "q8", "pauli1", "clifford1"])
def test_projector_invariants(name, groups, tables):
    g, t = groups[name], tables[name]
    projs = isotypic_projectors(g, t)
    total = np.sum([p.matrix for p in projs], axis=0)
    assert np.max(np.abs(total - np.eye(g.dim))) <= 1e-8
    for i, p in enumerate(projs):
        assert np.max(np.abs(p.matrix @ p.matrix - p.matrix)) <= 1e-8
        for q in projs[i + 1:]:
            assert np.max(np.abs(p.matrix @ q.matrix)) <= 1e-8
        for a in range(g.order):
            assert np.max(np.abs(p.matrix @ g.mats[a] - g.mats[a] @ p.matrix)) <= 1e-8


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
    a = np.stack([cm.entries for cm in class_matrices(g)])
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
        assert np.array_equal(np.stack([cm.entries for cm in class_matrices(g)]),
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


def test_order_3072_table_is_pinned():
    g = _gate_set_group(2, [("h", 0), ("s", 0), ("cx", 0, 1)])
    t = character_table(g, seed=0)
    assert (g.order, t.k) == (3072, 184)
    assert int(np.sum(t.degrees ** 2)) == 3072
    assert verify_orthogonality(t).max_residual() <= 1e-8
    # recorded from the per-element class matrices and per-irrep Rayleigh loop
    assert hashlib.sha256(character_table_csv(t).encode()).hexdigest() == \
        "b6cb95baba7df4026afd994671afa36e4d4596902f41906188187ef5c1c0e20b"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_central_characters_satisfy_the_class_algebra(name, groups, tables):
    # omega_ij = |C_j| chi_i(C_j) / d_i is a character of the class-sum
    # algebra: omega_ij omega_il = sum_m a_jlm omega_im
    t = tables[name]
    a = np.stack([cm.entries for cm in class_matrices(groups[name])]).astype(np.float64)
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
