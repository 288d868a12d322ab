import hashlib
import importlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforge import characters, groups as groups_module
from charforge.bench import _spec_for
from charforge.circuits import (GATE_ARITY, Circuit, build_benchmark, build_bv, build_grover,
                                build_qft, circuit_unitary, gate, gate_generators, parse_circuit,
                                serialize_circuit)
from charforge.errors import InvalidSpec, KeyCollision, OrderCapExceeded
from charforge.fixtures import X, Z
from charforge.groups import ClosureConfig, close_group, element_of
from charforge.linalg import equal_up_to_phase, phase_canonical
from charforge.optimize import (CLOSURE_TOL, OptimizeConfig, _Closure, _effective_cap,
                                build_word_table, equivalence_check, optimize)

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


_A, _B = (np.diag([1, 1, 1, np.exp(1j * t)]) for t in (1.570796327, 1.570796326))


@pytest.mark.parametrize("gens, tol, reference", [
    ([X, X, Z], 1e-9, [X, Z]),
    ([_A, _B, _A], 1e-8, [_A]),  # a and b are within tol, so they share one input element
])
def test_word_slots_index_the_input_generators(gens, tol, reference):
    g = close_group(gens, ClosureConfig(tol=tol))
    h = close_group(reference, ClosureConfig(tol=tol))
    wt, ref = build_word_table(g), build_word_table(h)
    assert len(set(g.input_elements)) < len(g.input_elements) and g.order == h.order
    for e in range(g.order):
        m = np.eye(g.dim, dtype=complex)
        for slot in wt.word(e):
            m = m @ gens[slot]
        assert np.max(np.abs(m - g.mats[e])) <= 4 * tol
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
    assert wt.eccentricity() == depth


# -- phase-equal candidates ------------------------------------------------------

def brute_force_phase_classes(group):
    """For every element p, {e : max|phase_canonical(e) - phase_canonical(p)| <= 4 tol}.
    A chunked Gram matrix gives each pair's squared Frobenius distance; a pair
    inside the bound has it below 16 (4 tol)^2, far under the 1e-6 prefilter,
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
            out.append(set(near[dists <= 4 * group.tol].tolist()))
    return out


def _h0_cx01_s1_group():
    gates = list(parse_circuit("qubits 2\nh 0\ncx 0 1\ns 1\n").gates)
    mats, _ = gate_generators(gates, (0, 1))
    return close_group(mats, ClosureConfig(max_order=10000, tol=CLOSURE_TOL))


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
        # the optimizer's lookup of c * mats[p] over the scalars c * I
        assert set(closure.phase_equal(p).tolist()) == expected


# -- pipeline ------------------------------------------------------------------

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
    """Patch the optimizer's close_group to count attempts and failures and
    keep every group it closes."""
    log = {"calls": 0, "failures": 0, "groups": []}

    def recording(*args, **kwargs):
        log["calls"] += 1
        try:
            log["groups"].append(close_group(*args, **kwargs))
        except (OrderCapExceeded, KeyCollision):
            log["failures"] += 1
            raise
        return log["groups"][-1]

    monkeypatch.setattr(optimize_module, "close_group", recording)
    return log


@pytest.mark.parametrize("n, marked", [(3, 5), (4, 6)])
def test_optimize_computes_no_character_table(monkeypatch, n, marked):
    def forbidden(*args, **kwargs):
        raise AssertionError("optimize built a class structure")

    monkeypatch.setattr(characters, "class_matrices", forbidden)
    monkeypatch.setattr(groups_module, "conjugacy_classes_from_cayley", forbidden)
    log = _recording_close_group(monkeypatch)
    _, rep = optimize(build_grover(n, marked=marked), FAST)
    assert any(s.group_order is not None for s in rep.segments)
    assert log["groups"]
    for g in log["groups"]:
        assert not {"cayley", "inverses", "classes", "class_of"} & set(g.__dict__)


# (suite, width, close_group calls, failures, Lagrange refutations) on the
# bench rows at seed 0; without the refutations the calls were 18 and 26
# and the failures 2 and 4
@pytest.mark.parametrize("suite, n, calls, failures, refuted",
                         [("bv", 5, 16, 0, 2), ("vqe", 6, 23, 1, 3)])
def test_lagrange_refutations_are_exact(monkeypatch, suite, n, calls, failures, refuted):
    log = _recording_close_group(monkeypatch)
    seen = []
    outside = optimize_module._outside

    def recording_outside(h, gates, mat):
        result = outside(h, gates, mat)
        if result:  # only asked when 2|H| exceeds the cap: a refutation
            seen.append(list(gates))
        return result

    monkeypatch.setattr(optimize_module, "_outside", recording_outside)
    optimize(build_benchmark(_spec_for(suite, n, 0)), FAST)
    assert (log["calls"], log["failures"], len(seen)) == (calls, failures, refuted)
    # oracle: closing each refuted candidate at its cap fails
    for gates in seen:
        support = tuple(sorted({q for g in gates for q in g.qubits}))
        mats, _ = gate_generators(gates, support)
        cap = _effective_cap(1 << len(support), len(mats), FAST)
        with pytest.raises((OrderCapExceeded, KeyCollision)):
            close_group(mats, ClosureConfig(max_order=cap, tol=CLOSURE_TOL))


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


@pytest.mark.parametrize("shots", [0, -1])
def test_equivalence_rejects_shots_below_one(shots):
    # with no samples both histograms are empty and max_tv would read 0.0
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


@pytest.mark.parametrize("tols", [{"tv_tol": -0.01}, {"tv_tol": math.inf}, {"obs_tol": math.nan},
                                  {"obs_tol": -1e-9}, {"obs_tol": "1e-7"}])
def test_equivalence_rejects_bad_tolerances(tols):
    c = build_qft(2)
    with pytest.raises(InvalidSpec, match=next(iter(tols))):
        equivalence_check(c, c, shots=100, **tols)


def test_equivalence_rejects_a_repeated_measure():
    a = Circuit(2, (gate("h", 0), gate("measure", 1), gate("measure", 1)))
    with pytest.raises(InvalidSpec, match="measure"):
        equivalence_check(a, build_qft(2), shots=100)
