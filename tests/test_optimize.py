import itertools

import numpy as np
import pytest

from charforge import characters
from charforge.circuits import (Circuit, build_bv, build_grover, build_qft,
                                circuit_unitary, gate, gate_generators, parse_circuit)
from charforge.errors import InvalidSpec
from charforge.fixtures import X, Z
from charforge.groups import ClosureConfig, close_group
from charforge.linalg import equal_up_to_phase, phase_canonical
from charforge.optimize import (CLOSURE_TOL, OptimizeConfig, _Closure,
                                build_word_table, equivalence_check, optimize)

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


@pytest.mark.parametrize("gens", [[99], [0], [-1], [1.5]])
def test_word_table_rejects_bad_generators(groups, gens):
    # 99 and -1 are out of range, 1.5 is not an index, and the identity alone
    # does not generate d4
    with pytest.raises(InvalidSpec):
        build_word_table(groups["d4"], gens)


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
    scalars = _Closure(group, [], [], {}).scalars
    assert 0 in scalars.tolist()
    for p, expected in enumerate(brute_force_phase_classes(group)):
        assert set(group.cayley[p, scalars].tolist()) == expected


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
    c = parse_circuit("qubits 1\ns 0\ns 0\ns 0\ns 0\nh 0\n")
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


def test_pass_log_has_four_named_passes():
    _, rep = optimize(parse_circuit("qubits 1\nh 0\nh 0\n"), FAST)
    names = [n for n, _ in rep.passes]
    assert names == ["segment-translation", "shortest-word-rewrite", "identity-elision"]


def test_segment_records_carry_analysis():
    _, rep = optimize(parse_circuit("qubits 1\nx 0\nz 0\n"), FAST)
    seg = rep.segments[0]
    assert seg.group_order == 8
    assert seg.k == 5
    assert not {"degrees", "component_norms"} & set(rep.to_json()["segments"][0])


@pytest.mark.parametrize("n, marked", [(3, 5), (4, 6)])
def test_optimize_computes_no_character_table(monkeypatch, n, marked):
    def forbidden(*args, **kwargs):
        raise AssertionError("optimize built a character table")

    monkeypatch.setattr(characters, "class_matrices", forbidden)
    _, rep = optimize(build_grover(n, marked=marked), FAST)
    assert any(s.k is not None for s in rep.segments)


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


def test_equivalence_rejects_a_repeated_measure():
    a = Circuit(2, (gate("h", 0), gate("measure", 1), gate("measure", 1)))
    with pytest.raises(InvalidSpec, match="measure"):
        equivalence_check(a, build_qft(2), shots=100)
