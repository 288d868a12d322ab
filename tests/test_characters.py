import numpy as np
import pytest

from charforge.characters import (CharacterTable, central_idempotents,
                                  character_table, character_table_csv,
                                  class_matrices, isotypic_projectors,
                                  verify_orthogonality)
from charforge.fixtures import fixture_group


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
