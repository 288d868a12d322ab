import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforge.circuits import (Circuit, gate, parse_circuit,
                                random_clifford_circuit)
from charforge.errors import InvalidSpec, NonCliffordGate
from charforge.histogram import tv_distance
from charforge.statevector import marginal_probabilities, run_gates, sv_run
from charforge.tableau import (StabilizerTableau, apply_gate, measure_symbolic,
                               tableau_run, validate_tableau)


def test_bell_pair_outcomes():
    h = tableau_run(parse_circuit("qubits 2\nh 0\ncx 0 1\nmeasure 0\nmeasure 1\n"),
                    shots=100000, seed=3)
    assert set(h.counts) == {"00", "11"}
    assert abs(h.counts["00"] - 50000) <= 3 * np.sqrt(100000 * 0.25)


def test_deterministic_outcomes():
    h = tableau_run(parse_circuit("qubits 2\nx 0\nmeasure 0\nmeasure 1\n"), 100, seed=1)
    assert h.counts == {"01": 100}
    h = tableau_run(parse_circuit("qubits 1\nh 0\nh 0\nmeasure 0\n"), 64, seed=1)
    assert h.counts == {"0": 64}


def test_non_clifford_gate_named_with_position():
    with pytest.raises(NonCliffordGate) as err:
        tableau_run(parse_circuit("qubits 1\nh 0\nt 0\nmeasure 0\n"), 1, 0)
    assert "'t'" in str(err.value) and "position 1" in str(err.value)


def test_ghz_parity_structure():
    text = "qubits 3\nh 0\ncx 0 1\ncx 0 2\nmeasure 0\nmeasure 1\nmeasure 2\n"
    h = tableau_run(parse_circuit(text), shots=20000, seed=11)
    assert set(h.counts) == {"000", "111"}


@pytest.mark.parametrize("seed", range(6))
def test_matches_statevector_at_1e5_shots(seed):
    n = 2 + seed % 5
    c = random_clifford_circuit(n, 50, seed=300 + seed)
    a = tableau_run(c, shots=100000, seed=1000 + seed)
    b = sv_run(c, shots=100000, seed=2000 + seed)
    assert tv_distance(a, b) <= 0.02


def test_64_measured_qubits_give_64_bit_outcomes():
    n, shots = 64, 2000
    text = f"qubits {n}\n" + "".join(f"h {q}\n" for q in range(n)) \
        + "".join(f"measure {q}\n" for q in range(n))
    h = tableau_run(parse_circuit(text), shots=shots, seed=2)
    assert all(len(k) == n and set(k) <= {"0", "1"} for k in h.counts)
    ones = np.zeros(n)
    for k, cnt in h.counts.items():
        ones += cnt * (np.frombuffer(k.encode(), dtype=np.uint8) == ord("1"))
    assert np.all(np.abs(ones - shots / 2) <= 6 * np.sqrt(shots / 4))


def test_unmeasured_circuit_samples_all_qubits():
    h = tableau_run(parse_circuit("qubits 2\nh 0\ncz 0 1\n"), shots=1000, seed=4)
    assert all(len(k) == 2 for k in h.counts)
    assert sum(h.counts.values()) == 1000


def test_seed_determinism():
    c = random_clifford_circuit(4, 40, seed=8)
    assert tableau_run(c, 4096, seed=5).counts == tableau_run(c, 4096, seed=5).counts


def test_tableau_stays_symplectic_under_random_gates():
    for seed in range(4):
        c = random_clifford_circuit(5, 80, seed=40 + seed, measured=False)
        tab = StabilizerTableau.zeros(5)
        for g in c.gates:
            apply_gate(tab, g.kind, g.qubits)
        validate_tableau(tab)


def test_validate_tableau_rejects_broken_tableaux():
    tab = StabilizerTableau.zeros(3)
    tab.x[1] = tab.x[0]  # two equal destabilizers: rank 5
    with pytest.raises(AssertionError):
        validate_tableau(tab)
    tab = StabilizerTableau.zeros(3)
    tab.x[4, 0] = 1  # stabilizer X0 Z1 anticommutes with stabilizer Z0
    with pytest.raises(AssertionError):
        validate_tableau(tab)


def test_sdg_is_s_inverse():
    tab = StabilizerTableau.zeros(1)
    apply_gate(tab, "h", (0,))
    ref = (tab.x.copy(), tab.z.copy(), tab.r.copy())
    apply_gate(tab, "s", (0,))
    apply_gate(tab, "sdg", (0,))
    assert np.array_equal(tab.x, ref[0])
    assert np.array_equal(tab.z, ref[1])
    assert np.array_equal(tab.r, ref[2])


def test_cz_equals_h_cx_h():
    rng = np.random.default_rng(17)
    for seed in range(60):
        n = 2 + seed % 7
        direct = StabilizerTableau.zeros(n)
        for g in random_clifford_circuit(n, 30, seed=seed, measured=False).gates:
            apply_gate(direct, g.kind, g.qubits)
        direct.r[:] = rng.integers(0, 4, 2 * n)  # every phase exponent, not only 0 and 2
        composed = StabilizerTableau(n, direct.x.copy(), direct.z.copy(), direct.r.copy(),
                                     direct.lin.copy())
        c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
        apply_gate(direct, "cz", (c, t))
        for kind, qubits in (("h", (t,)), ("cx", (c, t)), ("h", (t,))):
            apply_gate(composed, kind, qubits)
        for a, b in ((direct.x, composed.x), (direct.z, composed.z), (direct.r, composed.r)):
            assert np.array_equal(a, b)


def _measured_circuit(body: Circuit, qubits) -> Circuit:
    return Circuit(body.n_qubits, body.gates + tuple(gate("measure", q) for q in qubits))


def _golden_circuit(n: int, partial: bool) -> Circuit:
    body = random_clifford_circuit(n, 10 * n, seed=500 + n, measured=False)
    qubits = range(n)
    if partial:  # half the qubits, measured in a shuffled order
        qubits = np.random.default_rng(n).permutation(n)[:max(1, n // 2)].tolist()
    return _measured_circuit(body, qubits)


# sha256 prefixes of the (outcome, count) sequence, key order included; each
# circuit has at most 64 random outcomes
GOLDEN_HISTOGRAMS = {
    (1, False): "c37112581f047088", (1, True): "c37112581f047088",
    (2, False): "6129e564a5102f72", (2, True): "7239df73c3b8de24",
    (3, False): "0b1a26674e095aa8", (3, True): "7239df73c3b8de24",
    (5, False): "b837df30f2552dd9", (5, True): "ccc903d8d10ca2e8",
    (8, False): "5befe9cad3fbe1ea", (8, True): "93af95a7dcc4f1ee",
    (12, False): "aca7eea488c051c6", (12, True): "7b647cec25608ae1",
    (13, False): "938b19fe0d3ef5e3", (13, True): "7dcbe63db8c04490",
    (21, False): "7c1561420ba8eb00", (21, True): "a8a24601270c60cf",
    (34, False): "46412ba26be53235", (34, True): "42b7fa1cd2e5b8f9",
    (55, False): "bc927dccea36a00f", (55, True): "0f5094c16aa545d0",
    (63, False): "f1877fd5649b61c2", (63, True): "aa30fc5845661c5b",
    (64, False): "be341c0b2d50c539", (64, True): "b7557aeb910f5d8a",
}


def test_golden_histograms():
    got = {}
    for n, partial in GOLDEN_HISTOGRAMS:
        h = tableau_run(_golden_circuit(n, partial), 100_000 if n == 12 else 2000, seed=n)
        text = "".join(f"{k}:{v};" for k, v in h.counts.items())
        got[n, partial] = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert got == GOLDEN_HISTOGRAMS


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 12 * n), st.integers(0, 2 ** 32 - 1),
    st.permutations(range(n)), st.integers(1, n))))
def test_samples_match_statevector_marginals(case):
    n, depth, seed, perm, n_measured = case
    body = random_clifford_circuit(n, depth, seed=seed, measured=False)
    shots = 2000
    h = tableau_run(_measured_circuit(body, perm[:n_measured]), shots, seed=seed)
    measured = sorted(perm[:n_measured])
    probs = marginal_probabilities(run_gates(body), measured, n)
    # Clifford outcome probabilities are multiples of 2^-n
    assert all(probs[int(k, 2)] > 2.0 ** -(n + 1) for k in h.counts)
    ones = np.zeros(n_measured)
    for k, cnt in h.counts.items():
        ones += cnt * (np.frombuffer(k[::-1].encode(), dtype=np.uint8) == ord("1"))
    idx = np.arange(probs.size)
    exact = np.clip([probs[(idx >> j) & 1 == 1].sum() for j in range(n_measured)], 0.0, 1.0)
    sigma = np.sqrt(exact * (1 - exact) / shots)
    assert np.all(np.abs(ones / shots - exact) <= 6 * sigma + 1e-9)


def test_tableau_stays_symplectic_after_measuring_every_qubit():
    for seed in range(6):
        n = 3 + seed
        c = random_clifford_circuit(n, 15 * n, seed=60 + seed, measured=False)
        tab = StabilizerTableau.zeros(n)
        for g in c.gates:
            apply_gate(tab, g.kind, g.qubits)
        coins = 0
        for q in np.random.default_rng(seed).permutation(n).tolist():
            _, _, coins = measure_symbolic(tab, q, coins)
        validate_tableau(tab)
        assert coins <= n


def test_256_qubit_clifford_circuit_runs():
    n, shots = 256, 500
    h = tableau_run(random_clifford_circuit(n, 20 * n, seed=9), shots, seed=3)
    assert sum(h.counts.values()) == shots
    assert all(len(k) == n and set(k) <= {"0", "1"} for k in h.counts)


@pytest.mark.parametrize("shots", [0, -1])
def test_rejects_shots_below_one(shots):
    with pytest.raises(InvalidSpec, match="shots"):
        tableau_run(parse_circuit("qubits 1\nh 0\n"), shots=shots, seed=0)
