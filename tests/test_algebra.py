import numpy as np
import pytest

from charforge import algebra, claims
from charforge.algebra import (AlgebraElement, characters_of, convolve,
                               decompose_element, delta, random_element,
                               statement_formula_residual, to_matrix)
from charforge.characters import central_idempotents, character_table, isotypic_projectors
from charforge.claims import run_claims
from charforge.errors import GroupMismatch, InvalidSpec
from charforge.fixtures import X, Z, fixture_group
from charforge.groups import FiniteMatrixGroup, element_of


def brute_force_convolution(g, a, b):
    out = np.zeros(g.order, dtype=complex)
    for g1 in range(g.order):
        for g2 in range(g.order):
            out[g.cayley[g1, g2]] += a[g1] * b[g2]
    return out


def test_delta_identity_is_unit(groups):
    g = groups["d4"]
    rng = np.random.default_rng(0)
    u = random_element(g, rng)
    assert np.allclose(convolve(delta(g, 0), u).coeffs, u.coeffs)
    assert np.allclose(convolve(u, delta(g, 0)).coeffs, u.coeffs)


@pytest.mark.parametrize("g", [-1, 8, 10 ** 6, 1.5, True, "0", None, np.float64(1.0)])
def test_delta_refuses_an_index_outside_the_group(groups, g):
    with pytest.raises(InvalidSpec, match=r"element index must be an integer in 0\.\.7"):
        delta(groups["d4"], g)


def test_delta_takes_a_numpy_integer(groups):
    assert delta(groups["d4"], np.int64(7)).coeffs.tolist() == [0] * 7 + [1]


def test_delta_convolutions_match_group_product(groups):
    g2 = groups["c2"]
    assert np.allclose(convolve(delta(g2, 1), delta(g2, 1)).coeffs, delta(g2, 0).coeffs)

    g = groups["d4"]
    xz = element_of(g, X @ Z)
    got = convolve(delta(g, element_of(g, X)), delta(g, element_of(g, Z)))
    assert np.allclose(got.coeffs, delta(g, xz).coeffs)


def test_convolution_matches_brute_force_oracle(groups):
    g = groups["s3"]
    rng = np.random.default_rng(7)
    a, b = random_element(g, rng), random_element(g, rng)
    assert np.max(np.abs(convolve(a, b).coeffs - brute_force_convolution(g, a.coeffs, b.coeffs))) <= 1e-12


# (fixture, element, side): a scaled delta on either side takes one column
@pytest.mark.parametrize("name, x, side", [("clifford1", 137, "a"), ("clifford1", 61, "b"),
                                           ("q8", 5, "a"), ("q8", 6, "b")])
def test_single_support_convolution_matches_brute_force_oracle(groups, name, x, side):
    g = groups[name]
    dense, single = random_element(g, np.random.default_rng(7)), AlgebraElement(g, (2.5 - 1j) * delta(g, x).coeffs)
    a, b = (single, dense) if side == "a" else (dense, single)
    assert np.max(np.abs(convolve(a, b).coeffs - brute_force_convolution(g, a.coeffs, b.coeffs))) <= 1e-12


def test_decomposed_delta_components_match_brute_force(groups, tables):
    g, t = groups["clifford1"], tables["clifford1"]
    es = central_idempotents(g, t)
    dec = decompose_element(delta(g, 150), es)
    for e, c in zip(es, dec.components):
        assert np.max(np.abs(c.coeffs - brute_force_convolution(g, e, delta(g, 150).coeffs))) <= 1e-12


def test_convolution_associative_on_random_triples(groups):
    for name in ("s3", "d4", "q8"):
        g = groups[name]
        rng = np.random.default_rng(11)
        a, b, c = (random_element(g, rng) for _ in range(3))
        left = convolve(convolve(a, b), c).coeffs
        right = convolve(a, convolve(b, c)).coeffs
        assert np.max(np.abs(left - right)) <= 1e-10


@pytest.mark.parametrize("coeffs", [[np.nan, 0], [0, np.inf]])
def test_non_finite_coefficients_are_invalid(groups, coeffs):
    with pytest.raises(InvalidSpec, match="coefficients must be finite"):
        AlgebraElement(groups["c2"], coeffs)


@pytest.mark.parametrize("coeffs", [["a", 0], [None, {}], "ab"])
def test_non_numeric_coefficients_are_invalid(groups, coeffs):
    with pytest.raises(InvalidSpec, match="coefficients must be numbers"):
        AlgebraElement(groups["c2"], coeffs)


def test_group_mismatch_raises(groups):
    with pytest.raises(GroupMismatch):
        convolve(delta(groups["c2"], 0), delta(groups["d4"], 0))


def test_decompose_rejects_arrays_of_another_group(groups, tables):
    g = groups["d4"]
    es = central_idempotents(g, tables["d4"])
    with pytest.raises(GroupMismatch, match="projectors belong to a different group"):
        decompose_element(delta(g, 1), es, isotypic_projectors(groups["c2xc2"], tables["c2xc2"]))
    with pytest.raises(GroupMismatch, match="idempotents belong to a different group"):
        decompose_element(delta(g, 1), central_idempotents(groups["c2xc2"], tables["c2xc2"]))


def test_matrix_map_intertwines_convolution(groups):
    # mapping u to sum_g u[g] U(g) turns convolution into matrix product
    for name in ("d4", "s3"):
        g = groups[name]
        rng = np.random.default_rng(13)
        a, b = random_element(g, rng), random_element(g, rng)
        lhs = to_matrix(convolve(a, b))
        rhs = to_matrix(a) @ to_matrix(b)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_decompose_idempotent_itself(groups, tables):
    g, t = groups["d4"], tables["d4"]
    es = central_idempotents(g, t)
    dec = decompose_element(AlgebraElement(g, es[1]), es)
    for i, comp in enumerate(dec.components):
        target = es[1] if i == 1 else np.zeros(g.order)
        assert np.max(np.abs(comp.coeffs - target)) <= 1e-10


def test_decompose_reconstructs_random_elements(groups, tables):
    g, t = groups["s3"], tables["s3"]
    es = central_idempotents(g, t)
    rng = np.random.default_rng(21)
    for _ in range(10):
        dec = decompose_element(random_element(g, rng), es)
        assert dec.reconstruction_residual <= 1e-8


def test_decompose_components_are_eigen(groups, tables):
    g, t = groups["q8"], tables["q8"]
    es = central_idempotents(g, t)
    rng = np.random.default_rng(2)
    dec = decompose_element(random_element(g, rng), es)
    for i, e in enumerate(es):
        for j, comp in enumerate(dec.components):
            target = comp.coeffs if i == j else 0.0
            got = convolve(AlgebraElement(g, e), comp).coeffs
            assert np.max(np.abs(got - target)) <= 1e-8


def test_matrix_components_sum_to_unitary(groups, tables):
    g, t = groups["clifford1"], tables["clifford1"]
    es = central_idempotents(g, t)
    projs = isotypic_projectors(g, t)
    dec = decompose_element(delta(g, 17), es, projs)
    assert dec.matrix_residual <= 1e-8
    total = np.sum(dec.matrix_components, axis=0)
    assert np.max(np.abs(total - g.mats[17])) <= 1e-8


def test_characters_of_examples(groups, tables):
    g, t = groups["d4"], tables["d4"]
    assert np.allclose(characters_of(delta(g, 0), t), t.degrees)
    for idx in (1, 3, 5):
        col = t.values[:, g.class_of[idx]]
        assert np.allclose(characters_of(delta(g, idx), t), col)
    es = central_idempotents(g, t)
    for i, e in enumerate(es):
        chars = characters_of(AlgebraElement(g, e), t)
        target = np.zeros(t.k)
        target[i] = t.degrees[i]
        assert np.max(np.abs(chars - target)) <= 1e-8


def test_statement_residual_hand_values(groups, tables):
    g2, t2 = groups["c2"], tables["c2"]
    es2 = central_idempotents(g2, t2)
    # s_1 = dI + dX, s_2 = dI - dX, coefficients chi_i(e)/d_i * |G|/d_i = 2,
    # so the right side is 2*delta_identity and the residual is exactly 1
    assert statement_formula_residual(delta(g2, 0), t2, es2) == pytest.approx(1.0, abs=1e-12)

    gt, tt = groups["trivial"], tables["trivial"]
    assert statement_formula_residual(delta(gt, 0), tt, central_idempotents(gt, tt)) <= 1e-12

    g4, t4 = groups["d4"], tables["d4"]
    es4 = central_idempotents(g4, t4)
    x = element_of(g4, X)
    assert statement_formula_residual(delta(g4, x), t4, es4) > 0.1



def test_statement_residual_refuses_idempotents_of_another_shape(groups, tables):
    g, t = groups["d4"], tables["d4"]
    es = central_idempotents(g, t)
    for bad in (es[:2], es[:, :4], central_idempotents(groups["c2xc2"], tables["c2xc2"])[:, :4]):
        with pytest.raises(GroupMismatch, match=r"are not \(k, \|G\|\) = \(5, 8\)"):
            statement_formula_residual(delta(g, 0), t, bad)


def _forbid_the_cayley_table(monkeypatch):
    def forbidden(self):
        raise AssertionError("the Cayley table was read")

    # a property is a data descriptor, so it wins over a table already cached on a group
    monkeypatch.setattr(FiniteMatrixGroup, "cayley", property(forbidden))


def test_convolution_and_the_claims_read_no_cayley_table(monkeypatch, groups, tables):
    g = groups["clifford1"]
    es = central_idempotents(g, tables["clifford1"])
    rng = np.random.default_rng(5)
    a, b = random_element(g, rng), random_element(g, rng)
    single = AlgebraElement(g, (2.5 - 1j) * delta(g, 61).coeffs)
    sparse = AlgebraElement(g, np.where(np.isin(np.arange(g.order), [3, 77, 150]), a.coeffs, 0))
    pairs = [(a, b), (single, b), (a, single), (sparse, b)]
    expected = [brute_force_convolution(g, x.coeffs, y.coeffs) for x, y in pairs]
    report = run_claims().to_json_text()
    _forbid_the_cayley_table(monkeypatch)
    for (x, y), want in zip(pairs, expected):
        assert np.max(np.abs(convolve(x, y).coeffs - want)) <= 1e-12
    dec = decompose_element(a, es)
    assert dec.reconstruction_residual <= 1e-12
    for e, c in zip(es, dec.components):
        assert np.max(np.abs(c.coeffs - convolve(AlgebraElement(g, e), a).coeffs)) == 0.0
    assert run_claims().to_json_text() == report


def test_dense_convolution_reads_bounded_chunks_of_columns(monkeypatch):
    g = fixture_group("clifford1")
    rng = np.random.default_rng(9)
    a, b = random_element(g, rng), random_element(g, rng)
    whole = convolve(a, b).coeffs
    sizes, columns = [], FiniteMatrixGroup.columns

    def recording(self, zs):
        sizes.append(len(zs))
        return columns(self, zs)

    monkeypatch.setattr(FiniteMatrixGroup, "columns", recording)
    monkeypatch.setattr(algebra, "COLUMN_CHUNK", 7 * g.order)
    assert np.max(np.abs(convolve(a, b).coeffs - whole)) <= 1e-12
    assert sizes == [7] * (g.order // 7) + [g.order % 7]


def test_decompositions_of_several_elements_walk_the_columns_once(monkeypatch):
    # claim C1's samples of a fixture share each chunk's index table, with the same sums
    g = fixture_group("clifford1")
    es = central_idempotents(g, character_table(g, seed=0))
    rng = np.random.default_rng(4)
    us = [random_element(g, rng) for _ in range(3)]
    monkeypatch.setattr(algebra, "COLUMN_CHUNK", 7 * g.order)
    want = [decompose_element(u, es) for u in us]
    sizes, columns = [], FiniteMatrixGroup.columns

    def recording(self, zs):
        sizes.append(len(zs))
        return columns(self, zs)

    monkeypatch.setattr(FiniteMatrixGroup, "columns", recording)
    got = algebra._decompose_elements(us, es)
    assert sizes == [7] * (g.order // 7) + [g.order % 7]
    for w, d in zip(want, got):
        assert d.reconstruction_residual == w.reconstruction_residual
        assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(w.components, d.components))


def test_the_multiplicativity_check_reads_bounded_chunks_of_columns(monkeypatch):
    for name in ("d4", "q8", "clifford1"):
        g = fixture_group(name)
        table = character_table(g, seed=0)
        whole = claims._multiplicativity_residuals(g, table)
        sizes, columns = [], FiniteMatrixGroup.columns

        def recording(self, zs):
            sizes.append(len(zs))
            return columns(self, zs)

        with monkeypatch.context() as m:
            m.setattr(FiniteMatrixGroup, "columns", recording)
            m.setattr(claims, "COLUMN_CHUNK", 3 * g.order)
            _forbid_the_cayley_table(m)
            chunked = claims._multiplicativity_residuals(g, table)
        # an exhaustive max over the same products, in any chunks
        assert np.array_equal(chunked, whole)
        assert max(sizes) == 3 and sum(sizes) == g.order
        # the oracle: every pair from the dense products
        chi = table.values[:, g.class_of]
        prods = np.einsum("gab,hbc->ghac", g.mats, g.mats).reshape(-1, g.dim, g.dim)
        idx = np.array([element_of(g, m) for m in prods]).reshape(g.order, g.order)
        oracle = np.abs(chi[:, idx] - chi[:, :, None] * chi[:, None, :]).max(axis=(1, 2))
        assert np.max(np.abs(oracle - whole)) <= 1e-12
