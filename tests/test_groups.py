import hashlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from charforge.circuits import GATE_ARITY, embed_gate, gate, gate_generators, gate_matrix
from charforge.errors import (DimensionMismatch, InvalidSpec, KeyCollision,
                              NotUnitary, OrderCapExceeded)
from charforge.fixtures import H, I2, S, X, Y, Z, fixture_generators, fixture_group
from charforge.groups import (TOL, ClosureConfig, ElementLookup, _rows_of, center_and_abelian,
                              close_group, element_of, group_to_json, walk)
from charforge.optimize import _Closure, _seed

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


def test_generators_within_tol_share_one_input_element():
    a, b = (np.diag([1, 1, 1, np.exp(1j * t)]) for t in (1.570796327, 1.570796326))
    g = close_group([a, b, a])
    assert g.generators == [1] and g.input_elements == [1, 1, 1]


def test_an_unknown_fixture_is_invalid():
    with pytest.raises(InvalidSpec, match="unknown fixture 'nope'; choose from "):
        fixture_group("nope")


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


@pytest.mark.parametrize("group", [None, "abc", np.eye(2)])
def test_element_of_a_group_that_is_not_a_finite_matrix_group_is_invalid(group):
    with pytest.raises(InvalidSpec, match="group must be a FiniteMatrixGroup"):
        element_of(group, X)


@pytest.mark.parametrize("base", ["abc", 5, np.eye(2)[None]])
def test_a_base_that_is_not_a_finite_matrix_group_is_invalid(base):
    with pytest.raises(InvalidSpec, match="base must be a FiniteMatrixGroup"):
        close_group([X, Z], base=base)


@pytest.mark.parametrize("zs", [[99], [8], [-1], [1.0], [True], ["1"], [[1]], [0, 99]])
def test_columns_of_an_index_outside_the_group_are_invalid(zs):
    g = close_group([X, Z])
    assert g.order == 8
    with pytest.raises(InvalidSpec, match=r"element indices in \[0, 8\)"):
        g.columns(zs)


def test_columns_take_integer_indices_of_any_kind():
    g = close_group([X, Z])
    want = g.cayley[:, [7, 0, 3]].T
    for zs in ([7, 0, 3], np.array([7, 0, 3]), np.array([7, 0, 3], dtype=np.int32), (7, 0, 3)):
        assert np.array_equal(g.columns(zs), want)
    assert g.columns([]).shape == (0, 8)


@pytest.mark.parametrize("kwargs", [
    dict(max_order=0), dict(max_order=-5), dict(max_order=2.5), dict(max_order="10")])
def test_closure_config_rejects_bad_values(kwargs):
    with pytest.raises(InvalidSpec):
        ClosureConfig(**kwargs)


def test_conjugacy_classes_against_matrix_oracle(groups):
    g = groups["d4"]
    classes = g.classes
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
    # two generators 3*TOL apart land between TOL and 8*TOL: not resolvable
    nudged = np.exp(3j * TOL) * X
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


def test_a_stack_of_generators_closes_as_their_list():
    stacked, listed = close_group(np.stack([X, Z])), close_group([X, Z])
    for table in ("mats", "right", "parent", "slot"):
        assert getattr(stacked, table).tobytes() == getattr(listed, table).tobytes()


@pytest.mark.parametrize("generators", [["ab"], [X, [["a", "b"], ["c", "d"]]], [X, None]])
def test_a_generator_that_is_not_a_matrix_of_numbers_is_not_unitary(generators):
    with pytest.raises(NotUnitary):
        close_group(generators)


@pytest.mark.parametrize("generators", [None, X, "ab", 5, np.stack([X, Z])[None]])
def test_generators_that_are_not_a_sequence_of_matrices_are_invalid(generators):
    with pytest.raises(InvalidSpec, match="generators must be a list, tuple or"):
        close_group(generators)


@pytest.mark.parametrize("cfg", [5, {"max_order": 5}, "default"])
def test_a_cfg_that_is_not_a_closure_config_is_invalid(cfg):
    with pytest.raises(InvalidSpec, match="cfg must be a ClosureConfig"):
        close_group([X], cfg)


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
# from the one-product-at-a-time closure the batched engine replaced; d4, q8
# and pauli1 re-pinned when monomial closures were first kept as rows, which
# write every zero as +0.0 (DENSE_PINS holds their earlier pins)
GOLDEN_CLOSURES = {
    "trivial": (1, "7114828fb3e59a9f"),
    "c2": (2, "92f7363c4723851a"),
    "c2xc2": (4, "ac00b5832ef1e8cb"),
    "s3": (6, "f22d6c313623f027"),
    "d4": (8, "16b9125c6889ed1d"),
    "q8": (8, "b2f00b98928f0ca2"),
    "pauli1": (16, "20c593006b08fbea"),
    "clifford1": (192, "368e3fd7c0556c06"),
    "h0-cx01-cx12": (512, "68a4c9eb81979727"),
    "h0-h1-s1-swap": (9216, "480226484976e9e0"),
}


def closure_digest(g, mats=None):
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(g.mats if mats is None else mats).tobytes())
    h.update(np.ascontiguousarray(g.cayley, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(g.inverses, dtype=np.int64).tobytes())
    h.update(repr([list(map(int, c)) for c in g.classes]).encode())
    h.update(repr([int(i) for i in g.generators]).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN_CLOSURES))
def test_closure_is_byte_identical_to_golden(name):
    g = close_group(CLOSURE_INPUTS[name])
    assert (g.order, closure_digest(g)) == GOLDEN_CLOSURES[name]


# the pins of the dense closures of d4, q8 and pauli1, whose products wrote
# some zeros as -0.0
DENSE_PINS = {"d4": "4bd09c3448bb8e1d", "q8": "967f8431e9c51759", "pauli1": "bc407c176346161c"}


def dense_products(g, gens):
    """g's elements as the dense closure wrote them: the identity and the
    generators as given, then each element its parent's matrix times its
    generator, one numpy product at a time."""
    mats = np.empty_like(g.mats)
    mats[0] = np.eye(g.dim)
    for b in range(1, g.order):
        mats[b] = gens[g.slot[b]] if b < g.bounds[1] else mats[g.parent[b]] @ gens[g.slot[b]]
    return mats


@pytest.mark.parametrize("name", sorted(DENSE_PINS))
def test_a_repinned_closure_differs_from_its_dense_pin_only_in_the_sign_of_zero(name):
    gens = CLOSURE_INPUTS[name]
    g = close_group(gens)
    dense = dense_products(g, gens)
    # the dense products and g's tables give the old pin, and its matrices equal g's under ==
    assert closure_digest(g, dense) == DENSE_PINS[name]
    assert np.array_equal(g.mats, dense)
    assert np.signbit(dense.view(np.float64)[dense.view(np.float64) == 0]).any()
    assert not np.signbit(g.mats.view(np.float64)[g.mats.view(np.float64) == 0]).any()


def test_a_ten_digit_cp_angle_closes():
    # cp(2pi/5) to the text format's 10 digits: its products drift past 1e-9,
    # within TOL
    gates = [gate("cp", 0, 1, angle=1.256637061), gate("x", 0), gate("swap", 0, 1)]
    assert close_group(gate_generators(gates, (0, 1))[0]).order == 5000


def test_key_collision_mid_closure():
    # the generators are tolerance-separated; only the product X @ Z lands
    # 3*TOL from the third generator, between TOL and 8*TOL
    nudged_xz = np.exp(3j * TOL) * (X @ Z)
    gens = [X, Z, nudged_xz]
    for a in range(3):
        for b in range(a + 1, 3):
            assert np.max(np.abs(gens[a] - gens[b])) > 8 * TOL
    with pytest.raises(KeyCollision):
        close_group(gens)


@pytest.mark.parametrize("name", ["c2", "s3", "d4", "q8", "pauli1", "clifford1", "h0-cx01-cx12"])
def test_order_cap_is_exact(name):
    order = GOLDEN_CLOSURES[name][0]
    assert close_group(CLOSURE_INPUTS[name], ClosureConfig(max_order=order)).order == order
    with pytest.raises(OrderCapExceeded):
        close_group(CLOSURE_INPUTS[name], ClosureConfig(max_order=order - 1))


@pytest.mark.parametrize("name", [*fixture_generators(), "h0-cx01-cx12"])
def test_center_matches_commuting_cayley_rows(name):
    # definition oracle: z is central iff its Cayley row equals its column
    g = close_group(CLOSURE_INPUTS[name])
    center, abelian = center_and_abelian(g)
    expected = [z for z in range(g.order) if np.array_equal(g.cayley[z, :], g.cayley[:, z])]
    assert center == expected
    assert abelian == (len(expected) == g.order)


def test_element_of_across_a_rounding_boundary(groups):
    g = groups["clifford1"]
    h = element_of(g, H)
    # 1/sqrt(2) = 0.70710678118...: half a tolerance up crosses the 9-digit
    # rounding boundary at ...1815, so a lookup by rounded key would miss
    nudged = g.mats[h] + TOL / 2
    assert not np.array_equal(np.round(nudged, 9), np.round(g.mats[h], 9))
    assert element_of(g, nudged) == h
    assert element_of(g, g.mats[h] + 2 * TOL) is None


@pytest.mark.parametrize("first", ["exact", "nudged"])
def test_one_batch_merges_copies_within_tol_into_its_first(first):
    lookup = ElementLookup(2)
    lookup.find(I2[None], max_order=10)
    copies = {"exact": X.astype(complex), "nudged": X + TOL / 2}
    batch = np.stack([copies[first], X, X, X + TOL / 2, Z])
    found, new = lookup.find(batch, max_order=10)
    assert found.tolist() == [1, 1, 1, 1, 2] and new.tolist() == [0, 4]
    assert lookup.count == 3
    assert np.array_equal(lookup.mats[1], copies[first])
    # a later query of either copy finds the merged element
    assert lookup.find(np.stack([X, X + TOL / 2, H]))[0].tolist() == [1, 1, -1]


def test_one_batch_rejects_a_pair_between_tol_and_8_tol():
    lookup = ElementLookup(2)
    with pytest.raises(KeyCollision):
        lookup.find(np.stack([Z, X, X + 3 * TOL]), max_order=10)


# -- ElementLookup.find against a one-matrix-at-a-time oracle -------------------

def _max_abs(a, b):
    return float(np.max(np.abs(a - b)))


def sequential_find(stored, batch, max_order):
    """Oracle for ElementLookup.find: the batch read one matrix at a time
    against every matrix before it, by pairwise max-abs distances. Returns
    (found, new, added) or (exception type, batch position)."""
    if max_order is None:
        return [next((j for j, s in enumerate(stored) if _max_abs(m, s) <= TOL), -1)
                for m in batch], [], []
    found, new, misses, collision, cap_at = [], [], [], None, None
    for i, m in enumerate(batch):
        hit = [j for j, s in enumerate(stored) if _max_abs(m, s) <= TOL]
        if hit:
            found.append(hit[0])
            continue
        near = [_max_abs(m, s) for s in stored] + [_max_abs(m, batch[p]) for p in misses]
        if collision is None and any(TOL < d <= 8 * TOL for d in near):
            collision = i
        copies = [p for p in misses if _max_abs(m, batch[p]) <= TOL]
        if copies:
            found.append(found[copies[0]])
        else:
            if cap_at is None and len(stored) + len(new) >= max_order:
                cap_at = i
            found.append(len(stored) + len(new))
            new.append(i)
        misses.append(i)
    if collision is not None and (cap_at is None or collision <= cap_at):
        return KeyCollision, collision
    if cap_at is not None:
        return OrderCapExceeded, cap_at
    return found, new, [batch[i] for i in new]


_KINDS = ["fresh", "stored", "stored-copy", "stored-near", "batch-copy", "batch-near"]


def _planted_case(dim, clusters, kinds, seed):
    """Stored elements in clusters 9*TOL apart along one entry, so one
    projection window holds several keys, and a batch of fresh matrices,
    stored ones, and copies within TOL or near ones between TOL and 8*TOL
    of a stored or an earlier batch matrix."""
    rng = np.random.default_rng(seed)

    def nudge(m, lo, hi):  # moves one entry by lo*TOL to hi*TOL in max-abs
        out = m.copy()
        step = rng.uniform(lo, hi) * TOL * np.exp(2j * np.pi * rng.random())
        out[rng.integers(dim), rng.integers(dim)] += step
        return out

    def fresh():
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    stored = [c + 9 * TOL * k * np.eye(dim, dtype=complex) for size in clusters for c in [fresh()]
              for k in range(size)]
    batch = []
    for kind in kinds:
        source, _, how = kind.partition("-")
        pool = {"stored": stored, "batch": batch}.get(source)
        if not pool:
            batch.append(fresh())
            continue
        anchor = pool[rng.integers(len(pool))]
        batch.append(nudge(anchor, *{"copy": (0, 0.9), "near": (1.5, 7.5)}[how]) if how else anchor.copy())
    return stored, np.array(batch).reshape(len(batch), dim, dim)


def _lookup_of(dim, stored):
    lookup = ElementLookup(dim)
    if stored:
        lookup.find(np.stack(stored), max_order=len(stored))
    assert lookup.count == len(stored)
    return lookup


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.lists(st.integers(1, 5), max_size=4),
       st.lists(st.sampled_from(_KINDS), min_size=1, max_size=12), st.integers(0, 2 ** 32 - 1))
@example(1, [], ["fresh", "batch-copy"], 0)  # a copy merged into its first
@example(2, [3, 2], ["stored-copy", "fresh", "batch-copy", "fresh", "stored", "fresh"], 1)
def test_find_matches_a_sequential_oracle(dim, clusters, kinds, seed):
    stored, batch = _planted_case(dim, clusters, kinds, seed)
    if max(clusters, default=0) > 1:  # a cluster's keys share one projection window
        lookup = _lookup_of(dim, stored)
        assert np.min(np.diff(lookup._keys)) <= lookup._w
    for max_order in [None, *range(len(stored), len(stored) + len(batch) + 2)]:
        lookup = _lookup_of(dim, stored)
        want = sequential_find(stored, batch, max_order)
        if isinstance(want[0], type):
            error, at = want
            with pytest.raises(error):
                lookup.find(batch, max_order)
            # the error is at position `at`: the batch up to it raises it, the batch before it does not
            with pytest.raises(error):
                _lookup_of(dim, stored).find(batch[:at + 1], max_order)
            _lookup_of(dim, stored).find(batch[:at], max_order)
            continue
        found, new = lookup.find(batch, max_order)
        assert found.tolist() == want[0] and new.tolist() == want[1]
        assert lookup.count == len(stored) + len(want[2])
        assert lookup.mats[:lookup.count].tobytes() == np.array(stored + want[2], dtype=complex).tobytes()


@pytest.mark.parametrize("max_order", [None, 2, 3])
def test_find_on_an_empty_batch_returns_two_empty_index_arrays(max_order):
    lookup = _lookup_of(2, [I2, X])
    keys = lookup._keys.copy()
    found, new = lookup.find(np.empty((0, 2, 2), dtype=complex), max_order)
    assert found.dtype == new.dtype == np.int64 and found.shape == new.shape == (0,)
    assert lookup.count == 2 and np.array_equal(lookup._keys, keys)
    assert lookup.find(np.stack([X, Z]), max_order=3)[0].tolist() == [1, 2]


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
    g, again = close_group(gens), close_group(gens)
    for table in ("mats", "right", "cayley"):
        assert getattr(g, table).tobytes() == getattr(again, table).tobytes()
    oracle = brute_force_closure(gens)
    assert g.order == len(oracle)
    found = {element_of(g, m) for m in oracle}
    assert None not in found and len(found) == g.order
    products = g.mats[:, None] @ g.mats[None, :]
    assert np.max(np.abs(products - g.mats[g.cayley.astype(int)])) <= TOL
    identity = np.eye(dim)
    assert np.max(np.abs(g.mats @ g.mats[g.inverses] - identity)) <= TOL
    assert np.max(np.abs(g.mats[g.inverses] @ g.mats - identity)) <= TOL


def test_repr_does_not_build_the_lazy_tables():
    g = close_group([X, Z])
    assert repr(g) == "FiniteMatrixGroup(dim=2, order=8)"
    assert not {"left", "cayley", "inverses", "classes", "class_of"} & set(g.__dict__)
    assert len(g.classes) == 5 and repr(g) == "FiniteMatrixGroup(dim=2, order=8, k=5)"


def test_class_of_read_first_matches_classes():
    g, h = close_group([X, Z]), close_group([X, Z])
    class_of = g.class_of
    assert g.classes == h.classes and np.array_equal(class_of, h.class_of)


_FIXTURES = fixture_generators()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_FIXTURES)).flatmap(
    lambda name: st.lists(st.sampled_from(range(len(_FIXTURES[name]))), min_size=1,
                          unique=True).flatmap(
        lambda picks: st.tuples(st.just([_FIXTURES[name][i] for i in picks]),
                                st.lists(st.sampled_from(range(len(picks))), max_size=12)))))
def test_right_walk_matches_cayley_walk_and_dense_product(case):
    gens, word = case
    g = close_group(gens)
    by_right, by_cayley, dense = 0, 0, np.eye(g.dim, dtype=complex)
    for j in word:
        by_right = int(g.right[by_right, j])
        by_cayley = int(g.cayley[by_cayley, g.input_elements[j]])
        dense = dense @ gens[j]
    # walk takes the last gate first: gates j_1 ... j_m applied are gens[j_m] ... gens[j_1]
    by_walk = walk(g.right, word[::-1])
    assert by_walk == walk(g.columns(g.input_elements).T, word[::-1])
    assert by_right == by_cayley == by_walk == element_of(g, dense)


# -- closures seeded with the closure of a generator prefix ---------------------

def assert_seeded_matches_fresh(seeded, fresh):
    """Same group, elements renumbered: element_of maps seeded onto fresh and
    carries right, sampled cayley rows and inverses along; classes agree in size."""
    assert seeded.order == fresh.order
    phi = np.array([element_of(fresh, m) for m in seeded.mats])
    assert sorted(phi.tolist()) == list(range(fresh.order))
    assert np.array_equal(phi[seeded.input_elements], fresh.input_elements)
    assert np.array_equal(fresh.right[phi], phi[seeded.right])
    rows = np.unique(np.linspace(0, seeded.order - 1, 12).astype(int))
    cayley = seeded.cayley[rows].astype(int)
    assert np.array_equal(fresh.cayley[phi[rows]][:, phi], phi[cayley])
    products = seeded.mats[rows][:, None] @ seeded.mats[None, :]
    assert np.max(np.abs(products - seeded.mats[cayley])) <= TOL
    assert np.array_equal(fresh.inverses[phi], phi[seeded.inverses])
    assert sorted(map(len, seeded.classes)) == sorted(map(len, fresh.classes))


_SEED_POOLS = {name: gens for name, gens in CLOSURE_INPUTS.items() if name != "h0-h1-s1-swap"}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SEED_POOLS)).flatmap(
    lambda name: st.lists(st.sampled_from(_SEED_POOLS[name]), min_size=1, max_size=5).flatmap(
        lambda gens: st.tuples(st.just(gens), st.integers(1, len(gens))))))
def test_seeded_closure_matches_fresh(case):
    gens, k = case
    assert_seeded_matches_fresh(close_group(gens, base=close_group(gens[:k])), close_group(gens))


_CLIFFORD_KINDS = ("h", "s", "x", "z", "cx", "cz", "swap")


@st.composite
def _grown_gate_lists(draw):
    """A gate list on at most two of the qubits 0..2 and a gate that adds a qubit."""
    def draw_gate(qubits):
        kind = draw(st.sampled_from([k for k in _CLIFFORD_KINDS if GATE_ARITY[k] <= len(qubits)]))
        return gate(kind, *qubits[:GATE_ARITY[kind]])

    old_qubits = draw(st.lists(st.integers(0, 2), min_size=1, max_size=2, unique=True))
    old = [draw_gate(draw(st.permutations(old_qubits))) for _ in range(draw(st.integers(1, 4)))]
    used = sorted({q for g in old for q in g.qubits})
    added = draw(st.sampled_from([q for q in range(3) if q not in used]))
    kind = draw(st.sampled_from(_CLIFFORD_KINDS))
    if GATE_ARITY[kind] == 1:
        return old, gate(kind, added)
    return old, gate(kind, *draw(st.permutations([added, draw(st.sampled_from(used))])))


@settings(max_examples=30, deadline=None)
@given(_grown_gate_lists())
def test_seeded_closure_on_a_grown_support_matches_fresh(case):
    old, last = case
    cfg = ClosureConfig(max_order=1200)
    mats, slots = gate_generators(old, tuple(sorted({q for g in old for q in g.qubits})))
    try:
        h = close_group(mats, cfg)
    except OrderCapExceeded:
        return
    support = tuple(sorted({q for g in old + [last] for q in g.qubits}))
    grown, grown_slots = gate_generators(old + [last], support)
    templates = [(old + [last])[grown_slots.index(s)] for s in range(len(grown))]
    seed = _seed(_Closure(h, templates[:len(mats)], {}), old + [last], support)
    assert seed.dim == 1 << len(support) > h.dim
    try:
        fresh = close_group(grown, cfg)
    except OrderCapExceeded:
        with pytest.raises(OrderCapExceeded):
            close_group(grown, cfg, seed)
        return
    assert_seeded_matches_fresh(close_group(grown, cfg, seed), fresh)


def _count_finds(monkeypatch):
    counted = [0]
    find = ElementLookup.find

    def counting(self, batch, max_order=None):
        counted[0] += len(batch)
        return find(self, batch, max_order)

    monkeypatch.setattr(ElementLookup, "find", counting)
    return counted


@pytest.mark.parametrize("name, k", [("d4", 1), ("pauli1", 1), ("pauli1", 2), ("clifford1", 1),
                                     ("h0-cx01-cx12", 2), ("c2", 1)])
def test_seeded_closure_finds_only_the_new_products(monkeypatch, name, k):
    gens = CLOSURE_INPUTS[name]
    h = close_group(gens[:k])
    counted = _count_finds(monkeypatch)
    g = close_group(gens, base=h)
    m = len(gens)
    assert counted[0] == h.order * (m - k) + (g.order - h.order) * m
    counted[0] = 0
    close_group(gens)
    assert counted[0] == (1 + m) + g.order * m


def test_seeded_closure_rejects_a_base_of_another_dimension():
    with pytest.raises(DimensionMismatch):
        close_group(CLOSURE_INPUTS["c2xc2"], base=close_group([X]))


@pytest.mark.parametrize("base_gens, gens", [
    ([Z], [X, Z]),             # not the first generator
    ([X, Z], [X]),             # more generators than the list
    ([X, Z], [Z, X]),          # another order
])
def test_seeded_closure_rejects_a_base_of_other_generators(base_gens, gens):
    with pytest.raises(InvalidSpec):
        close_group(gens, base=close_group(base_gens))


def test_seeded_closure_rejects_a_base_past_max_order():
    base = close_group([X, Z])
    with pytest.raises(OrderCapExceeded):
        close_group([X, Z, H], ClosureConfig(max_order=7), base=base)
    with pytest.raises(OrderCapExceeded):
        close_group([X, Z, H], ClosureConfig(max_order=7))


# -- coset counts of seeded closures ------------------------------------------

# (generators, k, |G|) with (|G| // |H|)² <= |G| for H the closure of the first
# k generators, so the count of the right cosets of H runs at caps near |G|
COSET_CASES = {
    "c2xc2-1": (CLOSURE_INPUTS["c2xc2"], 1, 4),
    "q8-1": (CLOSURE_INPUTS["q8"], 1, 8),
    "pauli1-2": (CLOSURE_INPUTS["pauli1"], 2, 16),
    "s0-h0-cx01-2": (_gate_set(2, [("s", 0), ("h", 0), ("cx", 0, 1)]), 2, 3072),
}


@pytest.mark.parametrize("name", sorted(COSET_CASES))
def test_coset_count_refutes_exactly_past_the_cap(name):
    gens, k, order = COSET_CASES[name]
    h = close_group(gens[:k])
    assert (order // h.order) ** 2 <= order
    assert close_group(gens, ClosureConfig(max_order=order), base=h).order == order
    with pytest.raises(OrderCapExceeded, match="cosets of the base group"):
        close_group(gens, ClosureConfig(max_order=order - 1), base=h)
    with pytest.raises(OrderCapExceeded):
        close_group(gens, ClosureConfig(max_order=order - 1))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SEED_POOLS)).flatmap(
    lambda name: st.lists(st.sampled_from(_SEED_POOLS[name]), min_size=2, max_size=5).flatmap(
        lambda gens: st.tuples(st.just(gens), st.integers(1, len(gens) - 1)))))
def test_seeded_closure_fails_exactly_below_the_order(case):
    gens, k = case
    h, order = close_group(gens[:k]), close_group(gens).order
    assert close_group(gens, ClosureConfig(max_order=order), base=h).order == order
    if order > 1:
        with pytest.raises(OrderCapExceeded):
            close_group(gens, ClosureConfig(max_order=order - 1), base=h)


def test_coset_count_of_a_generator_already_in_the_base_closes_normally(monkeypatch):
    h = close_group([X, Z])
    counted = _count_finds(monkeypatch)
    g = close_group([X, Z, X @ Z], ClosureConfig(max_order=8), base=h)
    # the count finds each generator (times the identity) in H, one coset in
    # all; the BFS then finds H times the new generator
    assert counted[0] == 3 + 8
    assert g.order == 8 and g.input_elements[2] == element_of(h, X @ Z)


@pytest.mark.parametrize("name", ["q8", "pauli1", "clifford1"])
def test_base_past_the_cap_raises_before_any_find(monkeypatch, name):
    gens = CLOSURE_INPUTS[name]
    h = close_group(gens)
    counted = _count_finds(monkeypatch)
    for cap in (1, h.order - 1):
        with pytest.raises(OrderCapExceeded, match=f"base group of order {h.order}"):
            close_group(gens + [gens[0]], ClosureConfig(max_order=cap), base=h)
    assert counted[0] == 0


def test_closure_costs_tool_prints_a_line_per_closure(capsys):
    spec = importlib.util.spec_from_file_location(
        "closure_costs", Path(__file__).resolve().parents[1] / "tools" / "closure_costs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "close_group ms, median of 1"
    row = re.compile(r"(.+?) +d=(\d+) +(rows|dense) +([\d.]+) ms  finds +(\d+)  elements (\d+)( \(passed the cap\))?")
    rows = [row.fullmatch(line).groups() for line in lines[1:]]
    assert [r[0] for r in rows] == [name for name, *_ in tool.CLOSURES]
    assert all(float(r[3]) >= 0 for r in rows)
    # the dimension, the form, the find calls, the elements and the cap of each closure are deterministic
    assert [(int(d), form, int(finds), int(n), bool(cap)) for _, d, form, _, finds, n, cap in rows] == [
        (4, "dense", 61, 2304, False), (8, "dense", 55, 512, False), (4, "dense", 27, 2354, True),
        (2, "dense", 31, 2530, True), (32, "rows", 49, 1024, False), (32, "rows", 136, 8192, False),
        (4, "dense", 46, 3072, False)]


# -- monomial closures kept as rows ----------------------------------------------

# the monomial gate kinds, with cp at angles 2*pi/m, whose closures are finite
_MONOMIAL_KINDS = ("x", "y", "z", "s", "sdg", "t", "tdg", "cx", "cz", "cp", "swap")
_CP_ANGLES = (np.pi, np.pi / 2, np.pi / 4, 2 * np.pi / 3, 2 * np.pi / 5)
# a fixed dense unitary: conjugating monomial generators by it makes them dense
_V = np.linalg.qr(np.random.default_rng(41).standard_normal((16, 16))
                  + 1j * np.random.default_rng(42).standard_normal((16, 16)))[0]


@st.composite
def _monomial_gate_sets(draw):
    """(n, generators) for 1 to 4 distinct monomial gates on n = 1..4 qubits."""
    n = draw(st.integers(1, 4))
    kinds = [k for k in _MONOMIAL_KINDS if GATE_ARITY[k] <= n]
    mats = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[:GATE_ARITY[kind]])
        angle = draw(st.sampled_from(_CP_ANGLES)) if kind == "cp" else None
        mats.append(embed_gate(gate_matrix(kind, angle), qubits, n))
    distinct = [m for i, m in enumerate(mats) if all(np.max(np.abs(m - p)) > 8 * TOL for p in mats[:i])]
    return n, distinct


def _closed(gens, cap, base=None):
    try:
        return close_group(gens, ClosureConfig(max_order=cap), base)
    except (OrderCapExceeded, KeyCollision) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(_monomial_gate_sets(), st.integers(0, 3), st.sampled_from([64, 512]))
def test_rows_closure_matches_the_dense_closure_of_its_conjugates(case, k, cap):
    # the conjugates V g V† are dense, so their closure keeps matrices; its
    # elements are V M V† for the rows closure's elements M, in the same order
    n, gens = case
    v = _V[:1 << n, :1 << n]
    v = np.linalg.qr(v)[0]
    conj = [v @ g @ v.conj().T for g in gens]
    assert _rows_of(np.stack(gens)) is not None and _rows_of(np.stack(conj)) is None
    k = min(k, len(gens))
    bases = (None, None) if not k else (_closed(gens[:k], cap), _closed(conj[:k], cap))
    if isinstance(bases[0], type):
        assert bases[1] is bases[0]
        return
    rows, dense = _closed(gens, cap, bases[0]), _closed(conj, cap, bases[1])
    if isinstance(rows, type):
        assert dense is rows
        return
    assert rows.order == dense.order
    for field in ("right", "parent", "slot"):
        assert np.array_equal(getattr(rows, field), getattr(dense, field))
    assert rows.bounds == dense.bounds
    assert np.max(np.abs(v @ rows.mats @ v.conj().T - dense.mats)) <= TOL
    assert not np.signbit(rows.mats.view(np.float64)[rows.mats.view(np.float64) == 0]).any()
    # the lookup made from the rows closure's matrices finds each of them
    assert element_of(rows, rows.mats[-1]) == rows.order - 1


@pytest.mark.parametrize("conjugated", [False, True])
def test_rows_and_matrices_raise_the_key_collision_alike(conjugated):
    v = np.linalg.qr(_V[:2, :2])[0] if conjugated else np.eye(2)
    gens = [v @ g @ v.conj().T for g in (X, Z, np.exp(3j * TOL) * (X @ Z))]
    assert (_rows_of(np.stack(gens)) is None) == conjugated
    with pytest.raises(KeyCollision):
        close_group(gens)


@pytest.mark.parametrize("name", ["c2xc2", "s3", "d4", "q8", "pauli1"])
def test_rows_and_matrices_pass_the_cap_at_the_same_order(name):
    gens = CLOSURE_INPUTS[name]
    v = np.linalg.qr(_V[:len(gens[0]), :len(gens[0])])[0]
    conj = [v @ g @ v.conj().T for g in gens]
    order = GOLDEN_CLOSURES[name][0]
    for form in (gens, conj):
        assert close_group(form, ClosureConfig(max_order=order)).order == order
        with pytest.raises(OrderCapExceeded):
            close_group(form, ClosureConfig(max_order=order - 1))
