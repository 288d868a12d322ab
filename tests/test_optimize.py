import hashlib
import importlib
import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforge import characters, cli, groups as groups_module, optimize as optimize_module, statevector
from charforge.bench import _spec_for
from charforge.circuits import (GATE_ARITY, Circuit, GateInstance, build_benchmark, build_bv, build_grover,
                                build_qft, circuit_unitary, gate, gate_generators, parse_circuit,
                                random_clifford_circuit, serialize_circuit)
from charforge.complexity import CostParams
from charforge.errors import InvalidSpec, KeyCollision, OrderCapExceeded
from charforge.fixtures import X, Z
from charforge.groups import TOL, ClosureConfig, ElementLookup, close_group, element_of, walk
from charforge.optimize import (OptimizeConfig, _close, _Closure, _effective_cap, _key,
                                _rewrite_segment, build_word_table, equivalence_check, optimize)
from charforge.tableau import tableau_run
from phase_oracle import equal_up_to_phase, phase_canonical

# the package exports the optimize function under the module's name
optimize_module = importlib.import_module("charforge.optimize")

FAST = OptimizeConfig(run_equivalence=False)


def exhaustive_shortest_word(generators, target, max_len):
    """Oracle: enumerate all words up to max_len over the generator matrices."""
    dim = generators[0].shape[0]
    if np.allclose(target, np.eye(dim), atol=1e-9):
        return 0
    for length in range(1, max_len + 1):
        for word in itertools.product(range(len(generators)), repeat=length):
            m = np.eye(dim, dtype=complex)
            for slot in word:
                m = m @ generators[slot]
            if np.max(np.abs(m - target)) <= 1e-9:
                return length
    return None


def body_unitary(c):
    body, _ = c.body_and_suffix()
    return circuit_unitary(Circuit(c.n_qubits, body))


# -- word tables ---------------------------------------------------------------

def test_word_table_c2(groups):
    wt = build_word_table(groups["c2"])
    assert wt.word(0) == ()
    assert wt.word(1) == (0,)


@pytest.mark.parametrize("order", [[0], [5], [1, 1], [0, 1, 2], [1.0, 0], [True, 0], ["0", "1"], "01", 1, {0, 1}])
def test_a_word_table_order_must_permute_the_input_slots(groups, order):
    with pytest.raises(InvalidSpec, match="order must be a permutation of the 2 input slots"):
        build_word_table(groups["d4"], order)


def test_a_permuted_word_table_spells_every_element(groups):
    g = groups["d4"]
    wt, swapped = build_word_table(g), build_word_table(g, [1, 0])
    assert np.array_equal(wt.word_length, swapped.word_length)
    for e in range(g.order):  # a word multiplies left to right; a walk takes a circuit's gate order
        assert walk(g.right, wt.word(e)[::-1]) == walk(g.right[:, [1, 0]], swapped.word(e)[::-1]) == e


_A, _B = (np.diag([1, 1, 1, np.exp(1j * t)]) for t in (1.570796327, 1.570796326))


@pytest.mark.parametrize("gens, reference", [
    ([X, X, Z], [X, Z]),
    ([_A, _B, _A], [_A]),  # a and b are within TOL, so they share one input element
])
def test_word_slots_index_the_input_generators(gens, reference):
    g = close_group(gens)
    h = close_group(reference)
    wt, ref = build_word_table(g), build_word_table(h)
    assert len(set(g.input_elements)) < len(g.input_elements) and g.order == h.order
    for e in range(g.order):
        m = np.eye(g.dim, dtype=complex)
        for slot in wt.word(e):
            m = m @ gens[slot]
        assert np.max(np.abs(m - g.mats[e])) <= 4 * TOL
        assert wt.word_length[e] == ref.word_length[element_of(h, g.mats[e])]


def test_word_of_minus_identity_in_d4_is_four(groups):
    g = groups["d4"]
    wt = build_word_table(g)
    minus_i = [i for i in range(8) if np.allclose(g.mats[i], -np.eye(2))][0]
    assert wt.word_length[minus_i] == 4
    assert exhaustive_shortest_word([X, Z], -np.eye(2), 4) == 4


def test_word_lengths_match_exhaustive_oracle(groups):
    g = groups["d4"]
    wt = build_word_table(g)
    for e in range(g.order):
        assert wt.word_length[e] == exhaustive_shortest_word([X, Z], g.mats[e], 5)


def test_words_compose_to_their_elements(groups):
    g = groups["clifford1"]
    wt = build_word_table(g)
    gen_mats = [g.mats[i] for i in g.generators]
    for e in (0, 17, 100, 191):
        m = np.eye(2, dtype=complex)
        for slot in wt.word(e):
            m = m @ gen_mats[slot]
        assert np.max(np.abs(m - g.mats[e])) <= 1e-8


def test_clifford1_eccentricity_matches_matrix_bfs(groups):
    from charforge.fixtures import H, S
    g = groups["clifford1"]
    wt = build_word_table(g)
    # independent oracle: frontier BFS over rounded matrix keys
    def key(m):
        return (np.round(m, 9) + (0.0 + 0.0j)).tobytes()
    seen = {key(np.eye(2, dtype=complex))}
    frontier = [np.eye(2, dtype=complex)]
    depth = 0
    while frontier:
        nxt = []
        for m in frontier:
            for gen in (H, S):
                p = m @ gen
                k = key(p)
                if k not in seen:
                    seen.add(k)
                    nxt.append(p)
        if nxt:
            depth += 1
        frontier = nxt
    assert len(seen) == 192
    assert int(wt.word_length.max()) == depth  # the eccentricity of the identity


# -- phase-equal candidates ------------------------------------------------------

def brute_force_phase_classes(group):
    """For every element p, {e : max|phase_canonical(e) - phase_canonical(p)| <= 4 TOL}.
    A chunked Gram matrix gives each pair's squared Frobenius distance; a pair
    inside the bound has it below 16 (4 TOL)^2, far under the 1e-6 prefilter,
    so the exact max-abs test on the prefiltered pairs loses no member."""
    canon = phase_canonical(group.mats).reshape(group.order, -1)
    sq = np.sum(np.abs(canon) ** 2, axis=1)
    out = []
    for lo in range(0, group.order, 1024):
        block = canon[lo:lo + 1024]
        fro2 = sq[lo:lo + 1024, None] + sq[None, :] - 2 * (block.conj() @ canon.T).real
        for p, row in zip(range(lo, lo + len(block)), fro2):
            near = np.flatnonzero(row <= 1e-6)
            dists = np.max(np.abs(canon[near] - canon[p]), axis=1)
            out.append(set(near[dists <= 4 * TOL].tolist()))
    return out


def _h0_cx01_s1_group():
    gates = list(parse_circuit("qubits 2\nh 0\ncx 0 1\ns 1\n").gates)
    mats, _ = gate_generators(gates, (0, 1))
    return close_group(mats, ClosureConfig(max_order=10000))


@pytest.mark.parametrize("make", [lambda groups: groups["clifford1"],
                                  lambda groups: _h0_cx01_s1_group()],
                         ids=["clifford1", "h0_cx01_s1"])
def test_scalar_translates_are_the_phase_equal_elements(make, groups):
    group = make(groups)
    closure = _Closure(group, [], {})
    scalars = closure.scalars
    assert 0 in scalars.tolist()
    for p, expected in enumerate(brute_force_phase_classes(group)):
        assert set(group.cayley[p, scalars].tolist()) == expected
        # the optimizer's column p of the scalars' columns
        assert set(closure.phase_equal[:, p].tolist()) == expected


# -- pipeline ------------------------------------------------------------------

def test_the_cayley_order_cap_binds_small_segments():
    # one qubit, one generator: the flop and byte caps are far larger, so the
    # cap sized for an int16 Cayley table of 2^24 bytes binds
    assert int(optimize_module.CAYLEY_ORDER_CAP) == 2896
    assert _effective_cap(2, 1, FAST) == 2896


def test_double_h_elided():
    out, rep = optimize(parse_circuit("qubits 1\nh 0\nh 0\n"), FAST)
    assert out.gates == ()
    assert rep.gates_before == 2 and rep.gates_after == 0


def test_xzxz_elided_phase_insensitive_only():
    c = parse_circuit("qubits 1\nx 0\nz 0\nx 0\nz 0\n")
    out, _ = optimize(c, FAST)
    assert out.gates == ()
    out, _ = optimize(c, OptimizeConfig(phase_insensitive=False, run_equivalence=False))
    assert len(out.gates) == 4
    assert equal_up_to_phase(body_unitary(c), body_unitary(out))


def test_redundant_clifford_word_shrinks():
    # the second run is no palindrome and h s != s h, so it pins the order of
    # the segment product
    for text in ("qubits 1\ns 0\ns 0\ns 0\ns 0\nh 0\n", "qubits 1\nh 0\ns 0\ns 0\ns 0\ns 0\ns 0\n"):
        c = parse_circuit(text)
        out, rep = optimize(c, FAST)
        assert rep.gates_after < rep.gates_before
        assert equal_up_to_phase(body_unitary(c), body_unitary(out))


def test_bv_pipeline_properties():
    c = build_bv("1011")
    out, rep = optimize(c)
    assert rep.gates_after <= rep.gates_before
    assert rep.equivalence.verdict
    assert rep.equivalence.max_tv <= 0.02
    assert equal_up_to_phase(body_unitary(c), body_unitary(out))
    # measurement suffix preserved verbatim
    _, suffix_in = c.body_and_suffix()
    _, suffix_out = out.body_and_suffix()
    assert suffix_in == suffix_out


@pytest.mark.parametrize("make", [lambda: build_qft(3), lambda: build_grover(4, marked=6)])
def test_qft_and_grover_soundness(make):
    c = make()
    out, rep = optimize(c)
    assert rep.gates_after <= rep.gates_before
    assert rep.equivalence.verdict
    assert equal_up_to_phase(body_unitary(c), body_unitary(out))


def test_idempotence_gate_counts():
    for text in ("qubits 1\nh 0\nh 0\n",
                 "qubits 1\nx 0\nz 0\nx 0\nz 0\n",
                 "qubits 2\nh 0\ncx 0 1\ns 1\nsdg 1\ncx 0 1\nh 0\n"):
        once, rep1 = optimize(parse_circuit(text), FAST)
        twice, rep2 = optimize(once, FAST)
        assert len(twice.gates) == len(once.gates)
    for make in (lambda: build_qft(3), lambda: build_bv("101")):
        once, _ = optimize(make(), FAST)
        twice, _ = optimize(once, FAST)
        assert len(twice.gates) == len(once.gates)


@st.composite
def _small_circuits(draw):
    n = draw(st.integers(1, 3))
    kinds = sorted(k for k, arity in GATE_ARITY.items() if k != "measure" and arity <= n)
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        qubits = draw(st.permutations(range(n)))[:GATE_ARITY[kind]]
        angle = draw(st.floats(-4.0, 4.0)) if kind == "cp" else None
        gates.append(gate(kind, *qubits, angle=angle))
    return Circuit(n, tuple(gates))


@settings(max_examples=40, deadline=None)
@given(_small_circuits())
def test_optimize_is_idempotent_and_verified(c):
    once, rep = optimize(c)
    assert rep.equivalence.verdict
    assert optimize(once, FAST)[0].gates == once.gates


def test_pass_log_has_four_named_passes():
    _, rep = optimize(parse_circuit("qubits 1\nh 0\nh 0\n"), FAST)
    names = [n for n, _ in rep.passes]
    assert names == ["segment-translation", "shortest-word-rewrite", "identity-elision"]


def test_segment_records_carry_analysis():
    _, rep = optimize(parse_circuit("qubits 1\nx 0\nz 0\n"), FAST)
    seg = rep.segments[0]
    assert seg.group_order == 8
    assert not {"k", "degrees", "component_norms"} & set(rep.to_json()["segments"][0])


# sha256 prefix of the optimized circuit text and the report segments of the
# bench rows bv/qft/grover/vqe at n = 2..4, seed 0, phase insensitive and not;
# recorded before closures were seeded with the closure of the segment prefix
OPTIMIZED_ROWS_DIGEST = "16df3fcc4121405e"


def test_optimized_bench_rows_are_pinned():
    h = hashlib.sha256()
    for phase_insensitive in (True, False):
        cfg = OptimizeConfig(phase_insensitive=phase_insensitive, run_equivalence=False)
        for suite, n in itertools.product(("bv", "qft", "grover", "vqe"), range(2, 5)):
            out, rep = optimize(build_benchmark(_spec_for(suite, n, 0)), cfg)
            h.update(serialize_circuit(out).encode())
            h.update(json.dumps(rep.to_json()["segments"]).encode())
    assert h.hexdigest()[:16] == OPTIMIZED_ROWS_DIGEST


def _recording_close_group(monkeypatch):
    """Patch the optimizer's close_group to count attempts and the failures
    of those that reach the BFS (the first find that may add an element), and
    keep every group it closes and the arguments of every call that raises
    before its BFS: a refutation by the coset count or by the base's order."""
    log = {"calls": 0, "failures": 0, "groups": [], "refuted": []}
    find, adds = ElementLookup.find, [False]

    def recording_find(self, batch, max_order=None):
        adds[0] |= max_order is not None
        return find(self, batch, max_order)

    def recording(*args, **kwargs):
        log["calls"] += 1
        adds[0] = False
        try:
            log["groups"].append(close_group(*args, **kwargs))
        except (OrderCapExceeded, KeyCollision):
            if adds[0]:
                log["failures"] += 1
            else:
                log["refuted"].append(args)
            raise
        return log["groups"][-1]

    monkeypatch.setattr(ElementLookup, "find", recording_find)
    monkeypatch.setattr(optimize_module, "close_group", recording)
    return log


@pytest.mark.parametrize("n, marked", [(3, 5), (4, 6)])
def test_optimize_computes_no_character_table(monkeypatch, n, marked):
    def forbidden(*args, **kwargs):
        raise AssertionError("optimize built a class structure")

    monkeypatch.setattr(characters, "class_matrices", forbidden)
    # classes, inverses and the Cayley table are all read off the left tables
    monkeypatch.setattr(groups_module.FiniteMatrixGroup, "left", property(forbidden))
    log = _recording_close_group(monkeypatch)
    _, rep = optimize(build_grover(n, marked=marked), FAST)
    assert any(s.group_order is not None for s in rep.segments)
    assert log["groups"]
    for g in log["groups"]:
        assert not {"left", "cayley", "inverses", "classes", "class_of"} & set(g.__dict__)


# (rows, close_group calls, closures that reach the BFS and fail, refutations
# before any BFS: (by the coset count, by Lagrange on new qubits, split
# segments that _grow refuses by their parts or their product order)) on the bench rows at
# seed 0. With a second cache entry for a gate set closed as a part and as a
# segment, the calls were 15, 20 and 186 and the n2-4 coset refutations 25.
# Before segments were closed part by part the three were (16, 0, (0, 2)),
# (25, 0, (3, 1)) and (190, 3, (33, 0)); before the coset count the bv-5 and
# vqe-6 triples (calls, failures, Lagrange refutations) were (16, 0, 2) and
# (23, 1, 3), and without any refutation the calls were 18 and 26 and the
# failures 2 and 4
@pytest.mark.parametrize("rows, calls, failures, refuted", [
    pytest.param([("bv", 5)], 13, 0, (0, 0, 2), id="bv-5"),
    pytest.param([("vqe", 6)], 19, 0, (0, 1, 3), id="vqe-6"),
    pytest.param(list(itertools.product(("bv", "qft", "grover", "vqe"), range(2, 5))),
                 181, 4, (24, 0, 15), id="n2-4"),
])
def test_refutations_are_exact(monkeypatch, rows, calls, failures, refuted):
    log = _recording_close_group(monkeypatch)
    outside_refuted, split_refused, refused, closing, closed_keys = [], [], {}, [None], []
    outside, close, grow = optimize_module._outside, optimize_module._close, optimize_module._grow
    counted = optimize_module.close_group

    def recording_outside(gates):
        result = outside(gates)
        if result:  # only asked when 2|H| exceeds the cap: a refutation
            outside_refuted.append(list(gates))
        return result

    def recording_close(gates, cfg, cache, base=None):
        closing[0] = _key(gates)
        return close(gates, cfg, cache, base)

    def recording_close_group(*args, **kwargs):
        closed_keys.append(closing[0])
        return counted(*args, **kwargs)

    def recording_grow(gates, parts, cfg, cache):
        result = grow(gates, parts, cfg, cache)
        if isinstance(result, str) and len(_parts(gates)) > 1:
            refused.setdefault(frozenset(g.key() for g in gates), list(gates))  # once per optimize call
        return result

    monkeypatch.setattr(optimize_module, "_outside", recording_outside)
    monkeypatch.setattr(optimize_module, "_close", recording_close)
    monkeypatch.setattr(optimize_module, "close_group", recording_close_group)
    monkeypatch.setattr(optimize_module, "_grow", recording_grow)
    for suite, n in rows:
        closed_keys.clear()
        refused.clear()
        optimize(build_benchmark(_spec_for(suite, n, 0)), FAST)
        # no (support, key set) reaches close_group twice in one optimize call
        assert len(closed_keys) == len(set(closed_keys))
        split_refused += refused.values()
    assert (log["calls"], log["failures"],
            (len(log["refuted"]), len(outside_refuted), len(split_refused))) == (calls, failures, refuted)
    # oracle: closing each refuted candidate from the identity at its cap fails
    cases = [args[:2] for args in log["refuted"]]
    for gates in outside_refuted + split_refused:
        support = tuple(sorted({q for g in gates for q in g.qubits}))
        mats, _ = gate_generators(gates, support)
        cap = _effective_cap(1 << len(support), len(mats), FAST)
        cases.append((mats, ClosureConfig(max_order=cap)))
    for mats, cfg in cases:
        with pytest.raises((OrderCapExceeded, KeyCollision)):
            close_group(mats, cfg)


def test_generators_that_collide_are_refused():
    # the cp matrices are 3.3e-8 apart, between TOL and 8 * TOL:
    # merging them raises KeyCollision, so the first segment ends before the
    # second cp, whose powers alone pass the cap
    c = parse_circuit("qubits 2\ncp(1.570796327) 0 1\ncp(1.57079636) 0 1\nh 0\n")
    _, rep = optimize(c, FAST)
    assert [(s.status, s.group_order) for s in rep.segments] == [
        ("kept", 4), ("skipped-cap", None), ("kept", 2)]


def test_the_cli_closes_a_ten_digit_cp_angle_as_the_optimizer_does():
    # cp(2pi/3) to the text format's 10 digits: its products drift past 1e-9
    c = parse_circuit("qubits 2\ncp(2.094395102) 0 1\nx 0\nx 1\n")
    group = cli.circuit_gate_group(c, ClosureConfig())[0]
    assert group.order == _close(list(c.gates), FAST, {}).group.order == 324


def test_a_base_that_does_not_lead_closes_fresh():
    h0, s0, x0 = gate("h", 0), gate("s", 0), gate("x", 0)
    base = _close([s0, h0], FAST, {})
    fresh = _close([h0, s0, x0], FAST, {})
    grown = _close([h0, s0, x0], FAST, {}, base)
    assert base.templates == [s0, h0] and fresh.templates == [h0, s0, x0]
    assert np.array_equal(grown.group.mats, fresh.group.mats)
    assert np.array_equal(grown.group.right, fresh.group.right)
    assert grown.templates == fresh.templates


def test_a_base_that_leads_keeps_the_fresh_templates():
    h0, s0, x0 = gate("h", 0), gate("s", 0), gate("x", 0)
    base = _close([h0, s0], FAST, {})
    fresh = _close([h0, s0, x0], FAST, {})
    grown = _close([h0, s0, x0], FAST, {}, base)
    assert grown.templates == fresh.templates == [h0, s0, x0]
    assert grown.template_of_key == fresh.template_of_key


# -- qubit-disjoint parts ------------------------------------------------------

def _parts(gates):
    """Oracle: `gates` split into parts that share no qubit, each in gate order."""
    part_of: dict[int, set[int]] = {}  # qubit -> the qubits of its part
    for g in gates:
        joined = set(g.qubits).union(*(part_of.get(q, ()) for q in g.qubits))
        part_of.update(dict.fromkeys(joined, joined))
    parts = {min(p): p for p in part_of.values()}.values()
    return [[g for g in gates if g.qubits[0] in p] for p in parts]


def _qubits(gates):
    return frozenset(q for g in gates for q in g.qubits)


def _grown(gates, cache):
    """_grow run over `gates` one gate at a time, as the scan runs it: the
    segment's order and parts, or the skip status of the first refused step."""
    closed = (None, [])
    for i in range(len(gates)):
        closed = optimize_module._grow(list(gates[:i + 1]), closed[1], FAST, cache)
        if isinstance(closed, str):
            return closed
    return closed


def _rewritten_by_both(gates, closed):
    """The rewrite of `gates` and the group order by _grow's result `closed`
    and by their whole closure from a fresh cache."""
    whole = _close(list(gates), FAST, {})
    return [(_rewrite_segment(list(gates), segment, FAST), segment[0])
            for segment in (closed, (whole.group.order, [(list(gates), whole, _qubits(gates))]))]


def test_split_bench_segments_match_their_whole_closures(monkeypatch):
    seen = {}
    rewrite = optimize_module._rewrite_segment

    def recording(gates, closed, cfg):
        if len(closed[1]) > 1:
            seen.setdefault(tuple(gates), closed)
        return rewrite(gates, closed, cfg)

    monkeypatch.setattr(optimize_module, "_rewrite_segment", recording)
    for suite, n in itertools.product(("bv", "qft", "grover", "vqe"), range(2, 7)):
        optimize(build_benchmark(_spec_for(suite, n, 0)), FAST)
    assert len(seen) > 20
    for gates, closed in seen.items():
        split, whole = _rewritten_by_both(gates, closed)
        assert split == whole


@st.composite
def _disjoint_blocks(draw):
    """Interleaved gates on two or three blocks of one or two qubits, which share no qubit."""
    sizes = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3).filter(lambda s: sum(s) <= 4))
    blocks = [list(range(sum(sizes[:i]), sum(sizes[:i + 1]))) for i in range(len(sizes))]
    gates = []
    for block in draw(st.lists(st.sampled_from(blocks), min_size=2, max_size=10)):
        kind = draw(st.sampled_from(sorted(k for k, a in GATE_ARITY.items() if k != "measure" and a <= len(block))))
        angle = draw(st.sampled_from([0.0, math.pi / 2, math.pi])) if kind == "cp" else None
        gates.append(gate(kind, *draw(st.permutations(block))[:GATE_ARITY[kind]], angle=angle))
    return gates


@settings(max_examples=40, deadline=None)
@given(_disjoint_blocks(), st.booleans(), st.booleans())
def test_split_closures_match_whole_closures(gates, one_part, parts_cached_reversed):
    if one_part:
        gates = _parts(gates)[0]
    cache = {}
    if parts_cached_reversed:  # part closures whose slots run against the segment's
        for part in _parts(gates):
            _close(part[::-1], FAST, cache)
    closed = _grown(gates, cache)
    whole = _close(gates, FAST, {})
    assert isinstance(closed, str) == isinstance(whole, str)
    if not isinstance(closed, str):
        # the scan carries the oracle's parts, part for part and in gate order
        assert [(p, qs) for p, _, qs in closed[1]] == [(p, _qubits(p)) for p in _parts(gates)]
        assert closed[0] == whole.group.order
        split, whole_rewrite = _rewritten_by_both(gates, closed)
        assert split == whole_rewrite


def test_a_part_cached_with_its_slots_reversed_keeps_the_ties_of_the_segment():
    # (x z)^3 = -x z: its shortest words up to phase are x z and z x, and the
    # segment's first-seen order x0 < z0 picks x z though the part was cached as z0 < x0
    x0, z0, h1 = gate("x", 0), gate("z", 0), gate("h", 1)
    gates = [x0, z0, x0, z0, x0, z0, h1]
    cache = {}
    assert _close([z0, x0], FAST, cache).templates == [z0, x0]
    (split, _), (whole, _) = _rewritten_by_both(gates, _grown(gates, cache))
    assert split == whole == [h1, z0, x0]


def test_the_phase_insensitive_rewrite_makes_no_element_lookup(monkeypatch):
    # (x z)^3 = -x z: the rewrite reads the phase-equal elements from the scalars' columns
    gates = [gate("x", 0), gate("z", 0)] * 3
    closed = _grown(gates, {})
    calls, find = [], ElementLookup.find
    monkeypatch.setattr(ElementLookup, "find", lambda self, *a, **kw: calls.append(a) or find(self, *a, **kw))
    assert _rewrite_segment(gates, closed, FAST) == [gate("z", 0), gate("x", 0)]
    assert calls == []


def test_a_segment_rewrite_depends_on_its_own_gates_only():
    # the prefix closes {x0, z0} with x0 first; the later segment meets z0 first
    six = "z 0\nx 0\n" * 3
    alone, _ = optimize(parse_circuit("qubits 2\n" + six), FAST)
    after, _ = optimize(parse_circuit("qubits 2\nx 0\nz 0\ncp(1) 0 1\n" + six), FAST)
    assert alone.gates == after.gates[3:] == (gate("x", 0), gate("z", 0))


@pytest.mark.parametrize("text, segments, whole_orders, out", [
    # both cp(0) are the identity: one generator over the whole support, two in the parts
    ("qubits 4\ncp(0) 0 1\ncp(0) 2 3\n", [("rewritten", 1)], [1], ""),
    # cp(4e-8) is 4e-8 from the identity, between TOL and 8 * TOL: its powers collide
    ("qubits 4\ncp(4e-8) 0 1\ncp(0) 2 3\n", [("skipped-collision", None), ("rewritten", 1)], [None, 1],
     "cp(4e-08) 0 1\n"),
    # each cp is the identity within TOL, but they lie 1.8e-8 apart: they collide in the whole
    # closure, while the parts never compare them
    ("qubits 4\ncp(9e-9) 0 1\ncp(-9e-9) 2 3\nh 0\n", [("rewritten", 2)], [None], "h 0\n"),
], ids=["identities", "colliding-powers", "near-identities"])
def test_split_edge_cases_match_the_whole_path(text, segments, whole_orders, out):
    c = parse_circuit(text)
    optimized, report = optimize(c, FAST)
    assert serialize_circuit(optimized) == "qubits 4\n" + out
    assert [(s.status, s.group_order) for s in report.segments] == segments
    wholes = [_close(list(c.gates[s.start:s.end]), FAST, {}) for s in report.segments]
    assert [None if isinstance(w, str) else w.group.order for w in wholes] == whole_orders
    for s, w in zip(report.segments, wholes):
        if not isinstance(w, str):  # where the whole closure closes, the parts give its rewrite
            gates = c.gates[s.start:s.end]
            (split, _), (whole, _) = _rewritten_by_both(gates, _grown(gates, {}))
            assert split == whole


def test_a_key_collision_is_reported_as_one():
    # cp(4e-8) lies between TOL and 8 * TOL from the identity: its closure collides, not past a cap
    _, report = optimize(parse_circuit("qubits 4\ncp(4e-8) 0 1\ncp(0) 2 3\n"), FAST)
    first = report.segments[0]
    assert (first.status, first.group_order) == ("skipped-collision", None)
    assert first.detail.startswith("key collision: ")
    assert report.segments_skipped == 1
    assert report.passes[0][1] == "2 segment(s), 0 past the caps, 1 at a key collision, 2 sweep(s) to fixed point"
    assert report.to_json()["segments_skipped"] == 1
    # a closure past its cap keeps its status and detail: this cp's powers alone pass the cap
    _, report = optimize(parse_circuit("qubits 2\ncp(1.570796327) 0 1\ncp(1.57079636) 0 1\nh 0\n"), FAST)
    assert [(s.status, s.detail) for s in report.segments] == [
        ("kept", ""), ("skipped-cap", "closure exceeded the order/work caps"), ("kept", "")]
    assert report.passes[0][1].startswith("3 segment(s), 1 past the caps, 0 at a key collision, ")


def test_report_json_shape():
    _, rep = optimize(parse_circuit("qubits 1\nh 0\nh 0\n"), FAST)
    d = rep.to_json()
    assert {"passes", "segments_found", "segments_skipped", "gates_before",
            "gates_after", "depth_before", "depth_after", "segments",
            "equivalence"} <= set(d)


# -- equivalence checker ---------------------------------------------------------

def test_equivalence_self():
    c = build_qft(3)
    v = equivalence_check(c, c, shots=100000, seed=1)
    assert v.verdict
    assert v.max_obs_deviation <= 1e-12


def test_equivalence_h_vs_x_fails():
    v = equivalence_check(parse_circuit("qubits 1\nh 0\n"),
                          parse_circuit("qubits 1\nx 0\n"), shots=20000, seed=5)
    assert not v.verdict
    assert v.max_obs_deviation > 0.5


def test_equivalence_pads_ancillas():
    a = parse_circuit("qubits 1\nx 0\n")
    b = parse_circuit("qubits 2\nx 0\n")
    v = equivalence_check(a, b, shots=20000, seed=2)
    assert v.verdict
    assert "ancilla" in v.isometry


def test_equivalence_respects_global_phase():
    a = parse_circuit("qubits 1\nx 0\nz 0\n")
    b = parse_circuit("qubits 1\nz 0\nx 0\n")  # differs by -1 global phase
    assert equivalence_check(a, b, shots=20000, seed=3).verdict


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5000), st.integers(0, 2 ** 31), st.data())
def test_max_tv_is_the_tv_of_the_exact_marginals(n, shots, seed, data):
    """max_tv is the largest half fsum of |pa - pb| over the 8 pairs of exact
    marginals, and shots changes nothing in the verdict but its own field."""
    a = random_clifford_circuit(n, 12, seed=data.draw(st.integers(0, 999)), measured=data.draw(st.booleans()))
    b = Circuit(n, a.body_and_suffix()[0] + (gate("h", data.draw(st.integers(0, n - 1))),)
                + a.body_and_suffix()[1])
    marginals, real = [], statevector.marginal_probabilities

    def record(*args):
        marginals.append(real(*args))
        return marginals[-1]

    with mock.patch.object(optimize_module, "marginal_probabilities", side_effect=record):
        v = equivalence_check(a, b, shots=shots, seed=seed)
    assert len(marginals) == 16
    assert v.max_tv == max(0.5 * math.fsum(np.abs(pa - pb).tolist())
                           for pa, pb in zip(marginals[::2], marginals[1::2]))
    other = equivalence_check(a, b, shots=shots % 4999 + 1, seed=seed).to_json()
    assert {k for k in other if other[k] != v.to_json()[k]} == {"shots"}


@pytest.mark.parametrize("c", [Circuit(8, tuple(gate("h", q) for q in range(8))), build_qft(3)],
                         ids=["h8", "qft3"])
@pytest.mark.parametrize("shots", [1, 1_000, 100_000])
def test_identical_circuits_read_zero_tv_at_any_shots(c, shots):
    # sampled at 100,000 shots, two equal distributions over 2^8 outcomes lie about 0.03 apart, over tv_tol
    v = equivalence_check(c, c, shots=shots, seed=0)
    assert v.verdict
    assert v.max_tv == 0.0


def test_optimize_of_an_unchanged_wide_circuit_reports_equivalence():
    c = Circuit(14, tuple(gate("h", q) for q in range(14)))
    out, rep = optimize(c)
    assert out.gates == c.gates
    assert rep.equivalence.verdict
    assert rep.equivalence.max_tv == 0.0


@pytest.mark.parametrize("shots", [0, -1])
def test_equivalence_rejects_shots_below_one(shots):
    # shots does not change the verdict, but it is reported, and a count below one is refused everywhere
    c = build_qft(2)
    with pytest.raises(InvalidSpec, match="shots"):
        equivalence_check(c, c, shots=shots)


@pytest.mark.parametrize("shots, seed", [(100, -1), (100, 0.5), (10.5, 0)])
def test_equivalence_rejects_bad_seed_and_non_integer_shots(shots, seed):
    c = build_qft(2)
    with pytest.raises(InvalidSpec, match="seed" if shots == 100 else "shots"):
        equivalence_check(c, c, shots=shots, seed=seed)


@pytest.mark.parametrize("max_order", [0, -3, 1.5])
def test_optimize_config_rejects_a_bad_max_order(max_order):
    with pytest.raises(InvalidSpec, match="max_order"):
        OptimizeConfig(max_order=max_order)


@pytest.mark.parametrize("value", ["no", 1, None])
def test_optimize_config_rejects_a_non_bool_phase_insensitive(value):
    with pytest.raises(InvalidSpec, match="phase_insensitive"):
        OptimizeConfig(phase_insensitive=value)


@pytest.mark.parametrize("value", ["yes", 0, None])
def test_optimize_config_rejects_a_non_bool_run_equivalence(value):
    with pytest.raises(InvalidSpec, match="run_equivalence"):
        OptimizeConfig(run_equivalence=value)


@pytest.mark.parametrize("value", [-1, 1.5, "97"])
def test_optimize_config_rejects_a_bad_equiv_seed(value):
    # before any closure, and also when no equivalence check would run
    with pytest.raises(InvalidSpec, match="seed"):
        OptimizeConfig(equiv_seed=value, run_equivalence=False)


@pytest.mark.parametrize("tols", [{"tv_tol": -0.01}, {"tv_tol": math.inf}, {"obs_tol": math.nan},
                                  {"obs_tol": -1e-9}, {"obs_tol": "1e-7"}])
def test_equivalence_rejects_bad_tolerances(tols):
    c = build_qft(2)
    with pytest.raises(InvalidSpec, match=next(iter(tols))):
        equivalence_check(c, c, shots=100, **tols)


BELL = parse_circuit("qubits 2\nh 0\ncx 0 1\n")


@pytest.mark.parametrize("call, match", [
    (lambda: tableau_run(BELL, shots=True, seed=0), "shots must be an integer"),
    (lambda: tableau_run(BELL, shots=10, seed=True), "seed must be a non-negative integer"),
    (lambda: statevector.sv_run(BELL, shots=True, seed=0), "shots must be an integer"),
    (lambda: statevector.sv_run(BELL, shots=10, seed=False), "seed must be a non-negative integer"),
    (lambda: ClosureConfig(max_order=True), "max_order must be an integer"),
    (lambda: CostParams("abelian", k=True, m=1, n=1, order=2, dmax=1), "k must be a positive integer"),
    (lambda: characters.character_table(close_group([X]), seed=True), "seed must be a non-negative integer"),
    (lambda: equivalence_check(BELL, BELL, tv_tol=True), "tv_tol must be finite"),
    (lambda: equivalence_check(BELL, BELL, obs_tol=False), "obs_tol must be finite"),
    (lambda: gate("cp", 0, 1, angle=True), "angle must be finite and real"),
    (lambda: Circuit(2, (GateInstance("cp", (0, 1), True),)), "has angle True"),
    (lambda: CostParams("general", k=1, m=1, n=1, order=2, dmax=1, g_cost=True), "g_cost must be finite"),
], ids=["tableau-shots", "tableau-seed", "sv-shots", "sv-seed", "max_order", "cost-k", "chartab-seed",
        "tv_tol", "obs_tol", "cp-angle", "cp-gate", "g_cost"])
def test_a_bool_is_not_a_count_a_seed_or_a_tolerance(call, match):
    with pytest.raises(InvalidSpec, match=match):
        call()


@pytest.mark.parametrize("call, match", [
    (lambda: gate("cp", 0, 1, angle=10 ** 400), "angle must be finite and real"),
    (lambda: Circuit(2, (GateInstance("cp", (0, 1), -10 ** 400),)), "only cp takes one, finite"),
    (lambda: CostParams("general", k=1, m=1, n=1, order=2, dmax=1, g_cost=10 ** 400), "g_cost must be finite"),
    (lambda: equivalence_check(BELL, BELL, tv_tol=10 ** 400), "tv_tol must be finite"),
], ids=["cp-angle", "cp-gate", "g_cost", "tv_tol"])
def test_an_int_past_the_float_range_is_not_a_real(call, match):
    # float() of such an int raises OverflowError
    with pytest.raises(InvalidSpec, match=match):
        call()


def test_equivalence_rejects_a_repeated_measure():
    with pytest.raises(InvalidSpec, match="measure"):
        equivalence_check(Circuit(2, (gate("h", 0), gate("measure", 1), gate("measure", 1))), build_qft(2),
                          shots=100)
