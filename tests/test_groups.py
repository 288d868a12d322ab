import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforge.circuits import embed_gate, gate_matrix
from charforge.errors import (DimensionMismatch, InvalidSpec, KeyCollision,
                              NotUnitary, OrderCapExceeded)
from charforge.fixtures import H, I2, S, X, Y, Z, fixture_generators
from charforge.groups import (ClosureConfig, ElementLookup, center_and_abelian,
                              close_group, conjugacy_classes, element_of,
                              group_to_json)
from charforge.linalg import canonical_keys

T = np.diag([1, np.exp(1j * np.pi / 4)])


def brute_force_closure(generators, cap=100000):
    """Independent oracle: fixed-point iteration on a set of rounded keys."""
    def key(m):
        return (np.round(m, 9) + (0.0 + 0.0j)).tobytes()

    elems = {key(np.eye(generators[0].shape[0], dtype=complex)):
             np.eye(generators[0].shape[0], dtype=complex)}
    for g in generators:
        elems.setdefault(key(g), g)
    while True:
        new = {}
        mats = list(elems.values())
        for a in mats:
            for g in generators:
                p = a @ g
                k = key(p)
                if k not in elems and k not in new:
                    new[k] = p
        if not new:
            return list(elems.values())
        elems.update(new)
        if len(elems) > cap:
            raise OrderCapExceeded("oracle cap")


def test_x_closure_is_order_two():
    g = close_group([X])
    assert g.order == 2
    assert element_of(g, I2) == 0
    assert element_of(g, X) == 1


def test_xz_closure_order_eight_matches_brute_force():
    g = close_group([X, Z])
    assert g.order == len(brute_force_closure([X, Z])) == 8


def test_clifford1_closure_order_matches_brute_force():
    g = close_group([H, S])
    oracle = brute_force_closure([H, S])
    assert g.order == len(oracle) == 192
    assert sum(len(c) for c in g.classes) == 192


def test_every_oracle_element_is_found(groups):
    g = groups["d4"]
    for m in brute_force_closure([X, Z]):
        assert element_of(g, m) is not None


def test_element_of_product_is_minus_i_y():
    g = close_group([X, Z])
    idx = element_of(g, X @ Z)
    assert idx is not None
    assert np.allclose(g.mats[idx], -1j * Y, atol=1e-12)


def test_element_of_not_found_and_dim_mismatch():
    g = close_group([X])
    assert element_of(g, H) is None
    assert element_of(g, np.full((2, 2), np.nan)) is None
    with pytest.raises(DimensionMismatch):
        element_of(g, np.eye(4))
    with pytest.raises(InvalidSpec):
        element_of(g, "abc")


@pytest.mark.parametrize("kwargs", [
    dict(max_order=0), dict(max_order=-5), dict(max_order=2.5), dict(max_order="10"),
    dict(tol=float("nan")), dict(tol=float("inf")), dict(tol=0.0), dict(tol=-1e-9),
    dict(tol="1e-9")])
def test_closure_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidSpec):
        ClosureConfig(**kwargs)


def test_conjugacy_classes_against_matrix_oracle(groups):
    g = groups["d4"]
    classes = conjugacy_classes(g)
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
    # oracle: conjugate via explicit matrices
    for c in classes:
        rep = g.mats[c[0]]
        orbit = set()
        for i in range(g.order):
            m = g.mats[i] @ rep @ np.linalg.inv(g.mats[i])
            orbit.add(element_of(g, m))
        assert orbit == set(c)


def test_abelian_groups_have_singleton_classes(groups):
    for name in ("trivial", "c2", "c2xc2"):
        assert all(len(c) == 1 for c in groups[name].classes)


def test_identity_class_is_first_singleton(groups):
    for g in groups.values():
        assert g.classes[0] == (0,)


def test_center_examples(groups):
    center, abelian = center_and_abelian(groups["c2"])
    assert abelian and len(center) == 2

    center, abelian = center_and_abelian(groups["d4"])
    assert not abelian
    assert sorted(np.trace(groups["d4"].mats[z]).real for z in center) == [-2.0, 2.0]

    p = groups["pauli1"]
    assert p.order == 16
    center, abelian = center_and_abelian(p)
    assert not abelian and len(center) == 4
    # the center is exactly the phase subgroup {I, iI, -I, -iI}
    phases = {complex(np.round(p.mats[z][0, 0], 9)) for z in center}
    assert phases == {1, 1j, -1, -1j}
    for z in center:
        assert np.allclose(p.mats[z], p.mats[z][0, 0] * np.eye(2), atol=1e-9)
        for i in range(p.order):
            assert np.allclose(p.mats[z] @ p.mats[i], p.mats[i] @ p.mats[z], atol=1e-9)


def test_closure_soundness_exhaustive(groups):
    for g in groups.values():
        for a in range(g.order):
            prods = g.mats[a] @ g.mats
            assert np.max(np.abs(prods - g.mats[g.cayley[a].astype(int)])) <= 1e-9


def test_cayley_rows_are_permutations_and_inverses(groups):
    for g in groups.values():
        n = g.order
        for a in range(n):
            assert sorted(g.cayley[a].tolist()) == list(range(n))
            assert g.cayley[a, g.inverses[a]] == 0
        assert np.array_equal(g.cayley[0], np.arange(n))
        assert np.array_equal(g.cayley[:, 0], np.arange(n))


def test_class_sums_are_central(groups):
    for g in groups.values():
        for cls in g.classes:
            # sum over the class commutes with every element, via cayley
            for h in range(g.order):
                left = sorted(g.cayley[h, list(cls)].tolist())
                right = sorted(g.cayley[list(cls), h].tolist())
                assert left == right


def test_class_sizes_divide_group_order(groups):
    for g in groups.values():
        assert all(g.order % len(c) == 0 for c in g.classes)


def test_closure_is_deterministic():
    a = close_group([H, S])
    b = close_group([H, S])
    assert np.array_equal(a.mats, b.mats)
    assert np.array_equal(a.cayley, b.cayley)
    assert a.classes == b.classes


def test_order_cap_exceeded_for_h_t():
    with pytest.raises(OrderCapExceeded):
        close_group([H, T], ClosureConfig(max_order=2000))


def test_tolerance_ambiguity_is_rejected():
    from charforge.errors import KeyCollision
    # two generators 3e-9 apart land between tol and 8*tol: not resolvable
    nudged = np.exp(3e-9j) * X
    with pytest.raises(KeyCollision):
        close_group([X, nudged])


def test_generator_validation():
    with pytest.raises(NotUnitary):
        close_group([np.array([[1, 1], [0, 1]], dtype=complex)])
    with pytest.raises(DimensionMismatch):
        close_group([X, np.eye(4, dtype=complex)])
    with pytest.raises(DimensionMismatch):
        close_group([])
    with pytest.raises(NotUnitary):
        close_group([np.diag([1, np.nan]).astype(complex)])


def test_group_json_dump_shape(groups):
    d = group_to_json(groups["d4"])
    assert set(d) == {"dim", "order", "elements", "generators", "classes"}
    assert d["dim"] == 2 and d["order"] == 8
    assert len(d["elements"]) == 8 and len(d["elements"][0]) == 4
    assert sum(len(c) for c in d["classes"]) == 8


# -- closure pins ------------------------------------------------------------

def _gate_set(n, gates):
    return [embed_gate(gate_matrix(kind), tuple(qs), n) for kind, *qs in gates]


CLOSURE_INPUTS = dict(fixture_generators())
CLOSURE_INPUTS["h0-cx01-cx12"] = _gate_set(3, [("h", 0), ("cx", 0, 1), ("cx", 1, 2)])
CLOSURE_INPUTS["h0-h1-s1-swap"] = _gate_set(2, [("h", 0), ("h", 1), ("s", 1), ("swap", 0, 1)])

# sha256 prefixes of (mats, cayley, inverses, classes, generators), recorded
# from the one-product-at-a-time closure the batched engine replaced
GOLDEN_CLOSURES = {
    "trivial": (1, "7114828fb3e59a9f"),
    "c2": (2, "92f7363c4723851a"),
    "c2xc2": (4, "ac00b5832ef1e8cb"),
    "s3": (6, "f22d6c313623f027"),
    "d4": (8, "4bd09c3448bb8e1d"),
    "q8": (8, "967f8431e9c51759"),
    "pauli1": (16, "bc407c176346161c"),
    "clifford1": (192, "368e3fd7c0556c06"),
    "h0-cx01-cx12": (512, "68a4c9eb81979727"),
    "h0-h1-s1-swap": (9216, "480226484976e9e0"),
}


def closure_digest(g):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(g.mats).tobytes())
    h.update(np.ascontiguousarray(g.cayley, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(g.inverses, dtype=np.int64).tobytes())
    h.update(repr([list(map(int, c)) for c in g.classes]).encode())
    h.update(repr([int(i) for i in g.generators]).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN_CLOSURES))
def test_closure_is_byte_identical_to_golden(name):
    g = close_group(CLOSURE_INPUTS[name])
    assert (g.order, closure_digest(g)) == GOLDEN_CLOSURES[name]


def test_key_collision_mid_closure():
    # the generators are tolerance-separated; only the product X @ Z lands
    # 3e-9 from the third generator, between tol and 8*tol
    nudged_xz = np.exp(3e-9j) * (X @ Z)
    gens = [X, Z, nudged_xz]
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.max(np.abs(gens[a] - gens[b])) > 8e-9
    with pytest.raises(KeyCollision):
        close_group(gens)


@pytest.mark.parametrize("name", ["c2", "s3", "d4", "q8", "pauli1", "clifford1", "h0-cx01-cx12"])
def test_order_cap_is_exact(name):
    order = GOLDEN_CLOSURES[name][0]
    assert close_group(CLOSURE_INPUTS[name], ClosureConfig(max_order=order)).order == order
    with pytest.raises(OrderCapExceeded):
        close_group(CLOSURE_INPUTS[name], ClosureConfig(max_order=order - 1))


def test_element_of_across_a_rounding_boundary(groups):
    g = groups["clifford1"]
    h = element_of(g, H)
    # 1/sqrt(2) = 0.70710678118...: half a tolerance up crosses the 9-digit
    # rounding boundary at ...1815, so a lookup by rounded key would miss
    nudged = g.mats[h] + g.tol / 2
    assert len(set(canonical_keys(np.stack([nudged, g.mats[h]]), 9))) == 2
    assert element_of(g, nudged) == h
    assert element_of(g, g.mats[h] + 2 * g.tol) is None


@pytest.mark.parametrize("first", ["exact", "nudged"])
def test_one_batch_merges_copies_within_tol_into_its_first(first):
    tol = 1e-9
    lookup = ElementLookup(2, tol)
    lookup.find(I2[None], max_order=10)
    copies = {"exact": X.astype(complex), "nudged": X + tol / 2}
    batch = np.stack([copies[first], X, X, X + tol / 2, Z])
    found, new = lookup.find(batch, max_order=10)
    assert found.tolist() == [1, 1, 1, 1, 2] and new.tolist() == [0, 4]
    assert lookup.count == 3
    assert np.array_equal(lookup.mats[1], copies[first])
    # a later query of either copy finds the merged element
    assert lookup.find(np.stack([X, X + tol / 2, H]))[0].tolist() == [1, 1, -1]


def test_one_batch_rejects_a_pair_between_tol_and_8_tol():
    tol = 1e-9
    lookup = ElementLookup(2, tol)
    with pytest.raises(KeyCollision):
        lookup.find(np.stack([Z, X, X + 3 * tol]), max_order=10)


_POOLS = {
    2: [I2, X, Z, 1j * X, 1j * Y, 1j * I2, H, S],
    3: fixture_generators()["s3"],
    4: fixture_generators()["c2xc2"],
}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_POOLS)).flatmap(
    lambda dim: st.lists(st.sampled_from(range(len(_POOLS[dim]))), min_size=1,
                         max_size=4, unique=True).map(lambda picks: (dim, picks))))
def test_random_generator_subsets_match_oracle(case):
    dim, picks = case
    gens = [_POOLS[dim][i] for i in picks]
    g = close_group(gens)
    oracle = brute_force_closure(gens)
    assert g.order == len(oracle)
    found = {element_of(g, m) for m in oracle}
    assert None not in found and len(found) == g.order
    products = g.mats[:, None] @ g.mats[None, :]
    assert np.max(np.abs(products - g.mats[g.cayley.astype(int)])) <= g.tol
    identity = np.eye(dim)
    assert np.max(np.abs(g.mats @ g.mats[g.inverses] - identity)) <= g.tol
    assert np.max(np.abs(g.mats[g.inverses] @ g.mats - identity)) <= g.tol
