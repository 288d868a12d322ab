import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforge.circuits import (GATE_ARITY, Circuit, GateInstance, gate,
                                parse_circuit, random_clifford_circuit)
from charforge.errors import (AngleMissing, CircuitSyntaxError, InvalidSpec, NonCliffordGate,
                              QubitOutOfRange)
from charforge.histogram import SHOTS_MAX, check_shots, tv_distance
from charforge.optimize import equivalence_check
from charforge.statevector import marginal_probabilities, run_gates, sv_run
from charforge import tableau
from charforge.tableau import (PackedTableau, _apply_gates, apply_gate, measure_layer,
                               measure_symbolic, tableau_run, validate_tableau)

from conftest import traced_peak


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


def test_a_t_in_the_middle_of_a_list_is_named_with_its_position():
    # the gates before it are applied, their signs included, and none after it
    gates = (gate("h", 0), gate("cx", 0, 1), gate("x", 1), gate("t", 1), gate("h", 1), gate("t", 0))
    tab, want = PackedTableau.zeros(2), PackedTableau.zeros(2)
    with pytest.raises(NonCliffordGate, match=re.escape("gate 't' at position 3 is not Clifford")):
        _apply_gates(tab, gates)
    _apply_gates(want, gates[:3])
    assert want.signs and (tab.xs, tab.zs, tab.signs) == (want.xs, want.zs, want.signs)
    with pytest.raises(NonCliffordGate, match=re.escape("gate 'cp' at position 0 is not Clifford")):
        _apply_gates(tab, (gate("cp", 0, 1, angle=0.5),))


@pytest.mark.parametrize("kind, qubits, error, message", [
    ("x", (-1,), QubitOutOfRange, "gate x [-1] at position 0: qubit outside [0, 2)"),
    ("x", (5,), QubitOutOfRange, "gate x [5] at position 0: qubit outside [0, 2)"),
    ("x", (), InvalidSpec, "gate x [] at position 0 needs 1 distinct qubit(s)"),
    ("cx", (0, 0), InvalidSpec, "gate cx [0, 0] at position 0 needs 2 distinct qubit(s)"),
    ("cx", (0, True), InvalidSpec, "qubit indices must be integers, got True"),
    ("cp", (0, 1), AngleMissing, "gate cp at position 0 has angle None"),
])
def test_the_public_gate_form_checks_its_gate_before_applying_it(kind, qubits, error, message):
    # x on qubit -1 would flip the sign of Z_1
    tab, fresh = PackedTableau.zeros(2), PackedTableau.zeros(2)
    with pytest.raises(error, match=re.escape(message)):
        apply_gate(tab, kind, qubits)
    assert (tab.xs, tab.zs, tab.signs) == (fresh.xs, fresh.zs, fresh.signs)


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
        tab = PackedTableau.zeros(5)
        for g in c.gates:
            apply_gate(tab, g.kind, g.qubits)
        validate_tableau(tab.unpack())


def test_validate_tableau_rejects_broken_tableaux():
    tab = PackedTableau.zeros(3).unpack()
    tab.x[1] = tab.x[0]  # two equal destabilizers: rank 5
    with pytest.raises(AssertionError):
        validate_tableau(tab)
    tab = PackedTableau.zeros(3).unpack()
    tab.x[4, 0] = 1  # stabilizer X0 Z1 anticommutes with stabilizer Z0
    with pytest.raises(AssertionError):
        validate_tableau(tab)


def test_sdg_is_s_inverse():
    tab = PackedTableau.zeros(1)
    apply_gate(tab, "h", (0,))
    ref = (list(tab.xs), list(tab.zs), tab.signs)
    apply_gate(tab, "s", (0,))
    apply_gate(tab, "sdg", (0,))
    assert tab.xs == ref[0]
    assert tab.zs == ref[1]
    assert tab.signs == ref[2]


def test_cz_equals_h_cx_h():
    rng = np.random.default_rng(17)
    for seed in range(60):
        n = 2 + seed % 7
        direct = PackedTableau.zeros(n)
        for g in random_clifford_circuit(n, 30, seed=seed, measured=False).gates:
            apply_gate(direct, g.kind, g.qubits)
        # every sign pattern over the 2n rows, not only the ones the gates reach
        direct.signs = int(rng.integers(0, 1 << (2 * n)))
        composed = PackedTableau(n, list(direct.xs), list(direct.zs), direct.signs)
        c, t = (int(q) for q in rng.choice(n, size=2, replace=False))
        apply_gate(direct, "cz", (c, t))
        for kind, qubits in (("h", (t,)), ("cx", (c, t)), ("h", (t,))):
            apply_gate(composed, kind, qubits)
        for a, b in ((direct.xs, composed.xs), (direct.zs, composed.zs),
                     (direct.signs, composed.signs)):
            assert a == b


def test_swap_equals_three_cx():
    rng = np.random.default_rng(23)
    for seed in range(60):
        n = 2 + seed % 7
        direct = PackedTableau.zeros(n)
        for g in random_clifford_circuit(n, 30, seed=seed, measured=False).gates:
            apply_gate(direct, g.kind, g.qubits)
        direct.signs = int(rng.integers(0, 1 << (2 * n)))
        composed = PackedTableau(n, list(direct.xs), list(direct.zs), direct.signs)
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        apply_gate(direct, "swap", (a, b))
        for qubits in ((a, b), (b, a), (a, b)):
            apply_gate(composed, "cx", qubits)
        assert (direct.xs, direct.zs, direct.signs) == (composed.xs, composed.zs, composed.signs)


@pytest.mark.parametrize("seed", range(6))
def test_circuits_with_swaps_reach_the_statevector_support(seed):
    # a Clifford state's outcomes are uniform over its support, which 20000 shots cover at n <= 6
    n, rng = 2 + seed % 5, np.random.default_rng(seed)
    gates = []
    for g in random_clifford_circuit(n, 8 * n, seed=700 + seed, measured=False).gates:
        gates.append(g)
        if rng.random() < 0.3:
            gates.append(gate("swap", *(int(q) for q in rng.choice(n, size=2, replace=False))))
    body = Circuit(n, tuple(gates))
    assert any(g.kind == "swap" for g in body.gates)
    probs = marginal_probabilities(run_gates(body), list(range(n)), n)
    h = tableau_run(_measured_circuit(body, range(n)), 20000, seed=seed)
    assert {int(k, 2) for k in h.counts} == set(np.flatnonzero(probs > 2.0 ** -(n + 1)).tolist())


def _reference_apply(x, z, r, kind, qubits):
    """The row-major uint8 update rules with r mod 4: the oracle for the packed form."""
    if kind == "h":
        q = qubits[0]
        r[:] = (r + 2 * (x[:, q] & z[:, q])) % 4
        x[:, q], z[:, q] = z[:, q].copy(), x[:, q].copy()
    elif kind == "s":
        q = qubits[0]
        r[:] = (r + 2 * (x[:, q] & z[:, q])) % 4
        z[:, q] ^= x[:, q]
    elif kind == "sdg":
        q = qubits[0]
        r[:] = (r + 2 * (x[:, q] & (1 ^ z[:, q]))) % 4
        z[:, q] ^= x[:, q]
    elif kind == "x":
        r[:] = (r + 2 * z[:, qubits[0]]) % 4
    elif kind == "z":
        r[:] = (r + 2 * x[:, qubits[0]]) % 4
    elif kind == "y":
        q = qubits[0]
        r[:] = (r + 2 * (x[:, q] ^ z[:, q])) % 4
    elif kind == "cx":
        c, t = qubits
        r[:] = (r + 2 * (x[:, c] & z[:, t] & (x[:, t] ^ z[:, c] ^ 1))) % 4
        x[:, t] ^= x[:, c]
        z[:, c] ^= z[:, t]
    elif kind == "cz":
        c, t = qubits
        r[:] = (r + 2 * (x[:, c] & x[:, t] & (z[:, c] ^ z[:, t]))) % 4
        z[:, c] ^= x[:, t]
        z[:, t] ^= x[:, c]
    elif kind == "swap":
        a, b = qubits
        x[:, [a, b]], z[:, [a, b]] = x[:, [b, a]], z[:, [b, a]]


_KINDS = ("h", "s", "sdg", "x", "y", "z", "cx", "cz", "swap")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([1, 3, 4, 31, 32, 33, 64, 65, 130]).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, n - 1),
    st.lists(st.tuples(st.sampled_from(_KINDS if n > 1 else _KINDS[:6]),
                       st.permutations(range(min(n, 4)))), max_size=80))))
def test_packed_gates_match_row_major_reference(case):
    # 2n crosses byte boundaries at 31-33 and 64-65; gates act on a window of
    # at most 4 qubits from `start`, so that they entangle and reach every sign rule
    n, start, gates = case
    x = np.eye(2 * n, n, dtype=np.uint8)
    z = np.eye(2 * n, n, k=-n, dtype=np.uint8)
    r = np.zeros(2 * n, dtype=np.uint8)
    packed, body = PackedTableau.zeros(n), []
    for kind, perm in gates:
        qubits = tuple((start + j) % n for j in perm[:GATE_ARITY[kind]])
        _reference_apply(x, z, r, kind, qubits)
        body.append(GateInstance(kind, qubits))
    _apply_gates(packed, tuple(body))
    tab = packed.unpack()
    assert tab.x.dtype == tab.z.dtype == tab.r.dtype == tab.lin.dtype == np.uint8
    assert tab.x.flags.c_contiguous and tab.z.flags.c_contiguous
    assert np.array_equal(tab.x, x) and np.array_equal(tab.z, z) and np.array_equal(tab.r, r)
    assert not tab.lin.any() and tab.lin.shape == (2 * n, n)


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


def _all_h(n: int) -> Circuit:
    return _measured_circuit(_hand_built(n, *(("h", q) for q in range(n))), range(n))


# the same digest over circuits with 100 and 247 random outcomes, pinned from
# the per-qubit measurement before the one-elimination layer replaced it
GOLDEN_PAST_64_COINS = {
    "all-h-100": (lambda: _all_h(100), 2000, 100, 100, "662ca6e24f0717c9"),
    "clifford-256": (lambda: random_clifford_circuit(256, 20 * 256, seed=9), 500, 3, 247,
                     "22b8fcfb8cb7014c"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PAST_64_COINS))
def test_golden_histograms_past_64_coins(name):
    build, shots, seed, coins, want = GOLDEN_PAST_64_COINS[name]
    c = build()
    body, suffix = c.body_and_suffix()
    packed = PackedTableau.zeros(c.n_qubits)
    for g in body:
        apply_gate(packed, g.kind, g.qubits)
    assert measure_layer(packed, [g.qubits[0] for g in suffix])[1] == coins
    h = tableau_run(c, shots, seed=seed)
    text = "".join(f"{k}:{v};" for k, v in h.counts.items())
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


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
        packed = PackedTableau.zeros(n)
        for g in c.gates:
            apply_gate(packed, g.kind, g.qubits)
        tab = packed.unpack()
        coins = 0
        for q in np.random.default_rng(seed).permutation(n).tolist():
            _, _, coins = measure_symbolic(tab, q, coins)
        validate_tableau(tab)
        assert coins <= n


def _layer_and_oracle(n: int, depth: int, seed: int, measured: list[int]):
    """measure_layer's result and measure_symbolic's, its masks as bitsets, on one state."""
    packed = PackedTableau.zeros(n)
    for g in random_clifford_circuit(n, depth, seed=seed, measured=False).gates:
        apply_gate(packed, g.kind, g.qubits)
    before = (list(packed.xs), list(packed.zs), packed.signs)
    got = measure_layer(packed, measured)
    assert (packed.xs, packed.zs, packed.signs) == before
    tab, coins, want = packed.unpack(), 0, []
    for q in measured:
        const, mask, coins = measure_symbolic(tab, q, coins)
        want.append((const, int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")))
    return got, (want, coins)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 13).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 15 * n), st.integers(0, 2 ** 32 - 1),
    st.permutations(range(n)), st.integers(1, n))))
def test_measure_layer_matches_per_qubit_oracle(case):
    # shallow bodies leave Z-type stabilizers, so deterministic outcomes and
    # substitutions show up beside the coins
    n, depth, seed, perm, n_measured = case
    got, want = _layer_and_oracle(n, depth, seed, perm[:n_measured])
    assert got == want


@pytest.mark.parametrize("n, depth, seed", [(65, 40, 1), (97, 2000, 2), (140, 300, 3)])
def test_measure_layer_matches_per_qubit_oracle_past_64_qubits(n, depth, seed):
    perm = np.random.default_rng(seed).permutation(n).tolist()
    for measured in (perm, perm[:n // 3]):
        got, want = _layer_and_oracle(n, depth, seed, measured)
        assert got == want


def test_run_path_uses_neither_the_oracle_nor_unpack(monkeypatch):
    # nor the checked public form: the Circuit's body goes through the one loop in one call
    c = random_clifford_circuit(70, 700, seed=4)
    want = tableau_run(c, 300, seed=1).counts

    def refuse(*args, **kwargs):
        raise AssertionError("called on the run path")
    loops, loop = [], tableau._apply_gates

    def counted(tab, gates):
        loops.append(len(gates))
        return loop(tab, gates)
    monkeypatch.setattr(tableau, "measure_symbolic", refuse)
    monkeypatch.setattr(PackedTableau, "unpack", refuse)
    monkeypatch.setattr(tableau, "apply_gate", refuse)
    monkeypatch.setattr(tableau, "_apply_gates", counted)
    assert tableau_run(c, 300, seed=1).counts == want
    assert loops == [len(c.body_and_suffix()[0])]


def _packbits_run(c: Circuit, shots: int, seed: int) -> tuple[dict, int]:
    """tableau_run with each draw keyed by np.packbits into uint16 words, as the
    sampler keyed them before the keys were one float32 product, and the coin count."""
    body, suffix = c.body_and_suffix()
    packed = PackedTableau.zeros(c.n_qubits)
    _apply_gates(packed, body)
    measured = [g.qubits[0] for g in suffix] if suffix else list(range(packed.n))
    exprs, coins = measure_layer(packed, measured)
    exprs = [exprs[i] for i in np.argsort(measured)]
    k = len(exprs)
    draws = np.random.default_rng(seed).integers(0, 2, size=(shots, coins), dtype=np.uint8)
    words = np.zeros((shots, (coins + 15) // 16 or 1), dtype="<u2")
    words.view(np.uint8)[:, :(coins + 7) // 8] = np.packbits(draws, axis=1, bitorder="little")
    by_key = np.lexsort(words.T)
    words = words[by_key]
    starts = np.flatnonzero(np.concatenate([[True], np.any(words[1:] != words[:-1], axis=1)]))
    counts = np.diff(np.append(starts, shots))
    distinct = draws[by_key[starts]]
    bits = np.tile(np.array([const for const, _ in exprs], dtype=np.uint8), (starts.size, 1))
    one = [j for j, (const, mask) in enumerate(exprs) if not const and mask and not mask & mask - 1]
    bits[:, one] = np.take(distinct, [exprs[j][1].bit_length() - 1 for j in one], axis=1)
    rest = [j for j, (_, mask) in enumerate(exprs) if mask and j not in one]
    a = tableau._to_bits([exprs[j][1] for j in rest], coins).astype(np.float32)
    bits[:, rest] = (distinct @ a.T).astype(np.int64) + bits[:, rest] & 1
    strings = (bits[:, ::-1] + ord("0")).astype(np.uint8).view(f"S{k}").ravel()
    idx = np.argsort(strings)
    return dict(zip(strings[idx].astype(f"U{k}").tolist(), counts[idx].tolist())), coins


def _coin_circuit(k: int) -> Circuit:
    """k coins: h on qubits 0..k-1, qubit k a copy of qubit 0 and qubit k+1 a
    deterministic 1, measured in reverse order."""
    gates = [gate("h", q) for q in range(k)] + ([gate("cx", 0, k)] if k else []) + [gate("x", k + 1)]
    return _measured_circuit(Circuit(k + 2, tuple(gates)), range(k + 1, -1, -1))


SAMPLER_CASES = [(f"coins-{k}", lambda k=k: _coin_circuit(k), 3000, k) for k in (0, 1, 15, 16, 17, 32, 33, 64, 70)]
SAMPLER_CASES.append(("n12-100k", lambda: random_clifford_circuit(12, 120, seed=12), 100_000, None))


@pytest.mark.parametrize("build, shots, coins", [case[1:] for case in SAMPLER_CASES],
                         ids=[case[0] for case in SAMPLER_CASES])
def test_product_keys_sample_as_the_packbits_keys_did(build, shots, coins):
    c = build()
    want, got_coins = _packbits_run(c, shots, seed=coins or 7)
    assert coins is None or got_coins == coins
    got = tableau_run(c, shots, seed=coins or 7).counts
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("shots, coins", [(1000, 33), (100_000, 7), (1000, 128), (7, 5), (3, 3),
                                          (1, 70), (1, 6), (1, 1), (9, 0), (1, 0)])
@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
def test_the_raw_bit_coins_are_the_bounded_draws_coins(seed, shots, coins):
    # the sampler reads numpy's bounded uint8 coins off the raw PCG64 stream; if numpy
    # changes either, this fails rather than every seeded histogram changing silently
    want = np.random.default_rng(seed).integers(0, 2, size=(shots, coins), dtype=np.uint8)
    got = tableau._coins(seed, shots, coins)
    assert got.dtype == np.uint8 and got.shape == (shots, coins) and np.array_equal(got, want)


def test_256_qubit_clifford_circuit_runs():
    n, shots = 256, 500
    h = tableau_run(random_clifford_circuit(n, 20 * n, seed=9), shots, seed=3)
    assert sum(h.counts.values()) == shots
    assert all(len(k) == n and set(k) <= {"0", "1"} for k in h.counts)


@pytest.mark.parametrize("shots", [0, -1])
def test_rejects_shots_below_one(shots):
    with pytest.raises(InvalidSpec, match="shots"):
        tableau_run(parse_circuit("qubits 1\nh 0\n"), shots=shots, seed=0)


def _gate_list(gates):
    """A list of (kind, *qubits) tuples as a tuple of GateInstance; any other
    value, such as a list of GateInstance, as it is."""
    if type(gates) is list and all(type(g) is tuple for g in gates):
        return tuple(GateInstance(kind, tuple(qubits)) for kind, *qubits in gates)
    return gates


def _hand_built(n: int, *gates: tuple) -> Circuit:
    return Circuit(n, _gate_list(list(gates)))


# each list is what a text circuit would be refused for; unchecked, it would run
# on the wrong qubit, give a wrong histogram or raise a raw Python error
MALFORMED = [
    (QubitOutOfRange, "gate h [-1] at position 0: qubit outside [0, 2)", 2, [("h", -1)]),
    (QubitOutOfRange, "gate h [2] at position 0: qubit outside [0, 2)", 2, [("h", 2)]),
    (QubitOutOfRange, "gate measure [5] at position 1: qubit outside [0, 2)", 2, [("h", 0), ("measure", 5)]),
    (InvalidSpec, "gate cx [1, 1] at position 1 needs 2 distinct qubit(s)", 2, [("h", 1), ("cx", 1, 1)]),
    (InvalidSpec, "gate cx [1] at position 0 needs 2 distinct qubit(s)", 2, [("cx", 1)]),
    (InvalidSpec, "gate h [0, 1] at position 0 needs 1 distinct qubit(s)", 2, [("h", 0, 1)]),
    (InvalidSpec, "a circuit needs an integer count of at least one qubit, got 0", 0, []),
    (InvalidSpec, "measure lines [0, 0] must each name one qubit, none twice, and take no angle", 2,
     [("h", 0), ("measure", 0), ("measure", 0)]),
    (InvalidSpec, "measure at position 0 precedes a gate; measures must be a trailing suffix", 2,
     [("measure", 0), ("h", 0)]),
    (InvalidSpec, "unknown gate 'frobnicate' at position 0", 2, [("frobnicate", 0)]),
    (InvalidSpec, "qubit indices must be integers, got 0.5", 2, [("h", 0.5)]),
    (InvalidSpec, "qubit indices must be integers, got True", 2, [("cx", 0, True)]),
    (InvalidSpec, "qubit indices must be integers, got 1.0", 2, [("h", 0), ("measure", 1.0)]),
    # checked before the qubits are compared: an array made that comparison raise a raw
    # ValueError, and True == 1 read as a repeated qubit
    (InvalidSpec, "qubit indices must be integers, got array([0, 1])", 2, [("cx", np.array([0, 1]), 1)]),
    (InvalidSpec, "qubit indices must be integers, got True", 2, [("cx", 1, True)]),
    (InvalidSpec, "a circuit needs an integer count of at least one qubit, got '2'", "2", []),
    (InvalidSpec, "a circuit needs an integer count of at least one qubit, got 2.0", 2.0, []),
    (InvalidSpec, "a circuit needs an integer count of at least one qubit, got True", True, []),
    # containers that raised a raw TypeError or AttributeError, here or later in optimize
    (InvalidSpec, "gates must be a tuple of GateInstance, got a list", 2,
     [gate("h", 0), gate("measure", 0)]),
    (InvalidSpec, "gate ('h', 0) is not a GateInstance with a str kind and a tuple of qubits", 2, (("h", 0),)),
    (InvalidSpec, "gate array([1, 2]) is not a GateInstance with a str kind and a tuple of qubits", 2,
     (gate("h", 0), np.array([1, 2]))),
    (InvalidSpec, "gate GateInstance(kind=['h'], qubits=(0,), angle=None) is not a GateInstance "
     "with a str kind and a tuple of qubits", 2, (GateInstance(["h"], (0,)),)),
    (InvalidSpec, "gate GateInstance(kind='h', qubits=0, angle=None) is not a GateInstance "
     "with a str kind and a tuple of qubits", 2, (gate("x", 1), GateInstance("h", 0))),
    (InvalidSpec, "gate GateInstance(kind='cx', qubits=[0, 1], angle=None) is not a GateInstance "
     "with a str kind and a tuple of qubits", 2, (GateInstance("cx", [0, 1]),)),
]


@pytest.mark.parametrize("error, message, n, gates", MALFORMED)
def test_a_malformed_gate_list_is_refused_when_the_circuit_is_built(error, message, n, gates):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Circuit(n, _gate_list(gates))


@pytest.mark.parametrize("error, message, n, gates", MALFORMED)
def test_replace_checks_the_new_gate_list(error, message, n, gates):
    # replace goes through the constructor, so it cannot make a Circuit the constructor refuses
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        dataclasses.replace(_hand_built(2, ("h", 0)), n_qubits=n, gates=_gate_list(gates))


def test_a_measure_on_no_qubit_does_not_make_up_for_one_on_two():
    # two measure lines and two qubits, but neither line names one qubit
    with pytest.raises(InvalidSpec, match=re.escape("measure lines [1, 0] must each name one qubit")):
        Circuit(3, (GateInstance("measure", ()), GateInstance("measure", (1, 0))))


def _text_twin(n, gates) -> str | None:
    """A MALFORMED case as text, one gate a line after the header, or None
    when text cannot express it (a width or qubit that is not an integer)."""
    if type(n) is not int or type(gates) is not list \
            or not all(type(g) is tuple and all(type(q) is int for q in g[1:]) for g in gates):
        return None
    return f"qubits {n}\n" + "".join(" ".join(map(str, g)) + "\n" for g in gates)


TEXT_TWINS = [case for case in MALFORMED if _text_twin(*case[2:])]


@pytest.mark.parametrize("error, message, n, gates", TEXT_TWINS)
def test_the_text_twin_of_a_malformed_list_fails_on_its_last_line(error, message, n, gates):
    # each list is refused at its last gate (at its width when it has none), so
    # its text fails on its last line with the same message; an InvalidSpec
    # is read as a CircuitSyntaxError
    if gates:
        Circuit(n, _gate_list(gates[:-1]))
    line = 1 + len(gates)
    with pytest.raises(CircuitSyntaxError if error is InvalidSpec else error,
                       match=f"^{re.escape(f'line {line}: {message}')}$") as err:
        parse_circuit(_text_twin(n, gates))
    assert getattr(err.value, "line_no", line) == line


def test_every_malformed_list_that_text_can_express_has_a_twin():
    assert len(TEXT_TWINS) == 10


def test_a_built_circuit_cannot_be_changed():
    c = _hand_built(2, ("h", 0))
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.n_qubits = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.gates[0].qubits = (5,)


@pytest.mark.parametrize("qubit", [0.5, True, np.float64(1.0)])
def test_a_non_integer_qubit_is_named(qubit):
    with pytest.raises(InvalidSpec, match=re.escape(f"qubit indices must be integers, got {qubit!r}")):
        _hand_built(2, ("h", 0), ("cx", 0, qubit))


def test_numpy_integer_qubits_are_compared_as_integers():
    assert Circuit(2, (GateInstance("cx", (np.int64(0), np.uint8(1))),)).gates[0].qubits == (0, 1)
    with pytest.raises(InvalidSpec, match=re.escape("at position 0 needs 2 distinct qubit(s)")):
        Circuit(2, (GateInstance("cx", (np.int64(1), 1)),))


@pytest.mark.parametrize("n", [3, 70])
def test_numpy_integer_widths_and_qubits_are_accepted(n):
    c = random_clifford_circuit(n, 40, seed=1)
    np_c = Circuit(np.int64(n), tuple(GateInstance(g.kind, tuple(np.int64(q) for q in g.qubits))
                                      for g in c.gates))
    assert tableau_run(np_c, 50, 0).counts == tableau_run(c, 50, 0).counts
    if n <= 12:
        assert sv_run(np_c, 50, 0).counts == sv_run(c, 50, 0).counts
        assert equivalence_check(np_c, c, shots=100_000, seed=0).verdict


@pytest.mark.parametrize("run", [tableau_run, sv_run], ids=["tableau", "sv"])
@pytest.mark.parametrize("shots, seed", [(10.5, 1), (100, -1), (100, 1.0), (100, "1")])
def test_rejects_non_integer_shots_and_bad_seeds(run, shots, seed):
    with pytest.raises(InvalidSpec, match="shots" if shots == 10.5 else "seed"):
        run(parse_circuit("qubits 1\nh 0\n"), shots=shots, seed=seed)


def test_numpy_integer_shots_and_seed_are_accepted():
    c = parse_circuit("qubits 1\nx 0\n")
    assert tableau_run(c, np.int64(10), np.uint32(3)).counts == {"1": 10}


# a hand-built angle that `parse_circuit` would refuse: a cp angle that is not
# finite or missing, or an angle that `serialize_circuit` would drop
BAD_ANGLES = [
    (InvalidSpec, "position 1", (GateInstance("h", (0,)), GateInstance("cp", (0, 1), float("nan")))),
    (InvalidSpec, "position 0", (GateInstance("cp", (1, 0), float("-inf")), GateInstance("h", (0,)))),
    (InvalidSpec, "position 2", (GateInstance("h", (0,)), GateInstance("x", (1,)),
                                 GateInstance("cp", (0, 1), 1j))),
    (InvalidSpec, "h at position 0 has angle 0.5", (GateInstance("h", (0,), 0.5),)),
    (InvalidSpec, "y at position 1 has angle 0.0", (GateInstance("h", (0,)), GateInstance("y", (1,), 0.0))),
    (InvalidSpec, "measure lines .* take no angle",
     (GateInstance("h", (0,)), GateInstance("measure", (1,), 1.0))),
    (AngleMissing, "position 1", (GateInstance("x", (0,)), GateInstance("cp", (0, 1)))),
]


@pytest.mark.parametrize("error, where, gates", BAD_ANGLES)
def test_hand_built_angles_are_refused_when_the_circuit_is_built(error, where, gates):
    with pytest.raises(error, match=where):
        Circuit(2, gates)


@pytest.mark.parametrize("error, where, gates", BAD_ANGLES)
def test_replace_checks_the_new_angles(error, where, gates):
    with pytest.raises(error, match=where):
        dataclasses.replace(Circuit(2, ()), gates=gates)


@pytest.mark.parametrize("angle", [np.float32(0.5), np.float64(0.5), 1, np.int64(-2)])
def test_a_finite_cp_angle_of_any_real_type_is_accepted(angle):
    gates = (GateInstance("h", (0,)), GateInstance("h", (1,)), GateInstance("cp", (0, 1), angle),
             GateInstance("h", (0,)))
    want = Circuit(2, gates[:2] + (gate("cp", 0, 1, angle=float(angle)),) + gates[3:])
    assert sv_run(Circuit(2, gates), 1000, 0).counts == sv_run(want, 1000, 0).counts


def just_past_the_sample_budget(coins: int, k: int) -> int:
    """The fewest shots of `coins` coins on k measured qubits whose samples pass SAMPLE_BYTES."""
    lo, hi = 0, tableau.SAMPLE_BYTES  # lo shots pass no budget, hi shots of at least 10 bytes each do
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if tableau._sample_bytes(mid, coins, k) <= tableau.SAMPLE_BYTES else (lo, mid)
    return hi


def test_the_largest_int64_shot_count_passes_the_shot_check():
    assert SHOTS_MAX == np.iinfo(np.int64).max
    check_shots(SHOTS_MAX)


@pytest.mark.parametrize("run", [sv_run, tableau_run], ids=["sv", "tableau"])
def test_shots_past_the_int64_range_are_refused_before_any_work(run):
    # sv_run raised a raw OverflowError from rng.multinomial
    c = parse_circuit("qubits 2\nh 0\ncx 0 1\nmeasure 0\nmeasure 1\n")
    with traced_peak() as traced:
        with pytest.raises(InvalidSpec, match=re.escape(f"shots must be at most 2^63 - 1, got {SHOTS_MAX + 1}")):
            run(c, SHOTS_MAX + 1, 0)
    assert traced.peak < 1 << 20
    assert sum(run(c, 1000, 0).counts.values()) == 1000


@pytest.mark.parametrize("text, coins", [
    ("qubits 2\nh 0\ncx 0 1\nmeasure 0\nmeasure 1\n", 1),
    ("qubits 3\nx 1\nmeasure 2\nmeasure 1\n", 0),  # no coins: one key word per shot
    ("qubits 20\n" + "".join(f"h {q}\n" for q in range(20)), 20),
], ids=["bell", "no-coins", "h20"])
def test_tableau_run_refuses_samples_past_the_byte_budget_before_drawing(monkeypatch, text, coins):
    c = parse_circuit(text)
    k = len(c.measured_qubits())
    shots = just_past_the_sample_budget(coins, k)

    def refuse(*args):
        raise AssertionError("drew coins")
    monkeypatch.setattr(tableau, "_coins", refuse)
    with traced_peak() as traced:
        with pytest.raises(InvalidSpec, match=f"^{shots} shots of {coins} coins need "
                                              f"{tableau._sample_bytes(shots, coins, k)} bytes of samples"):
            tableau_run(c, shots, 0)
    assert traced.peak < 1 << 20


def test_the_largest_stabilizer_workload_samples_are_far_inside_the_budget():
    # 100,000 shots on at most 12 qubits and 1,000 shots of 256 coins on 256 qubits
    assert tableau._sample_bytes(100_000, 12, 12) < tableau.SAMPLE_BYTES // 300
    assert tableau._sample_bytes(1000, 256, 256) < tableau.SAMPLE_BYTES // 250


def _copied_coins_circuit(k: int, coins: int) -> Circuit:
    """k measured qubits whose outcomes spend `coins` coins: h on the first
    `coins` qubits, the rest copies of the last of them."""
    return Circuit(k, tuple([gate("h", q) for q in range(coins)]
                            + [gate("cx", coins - 1, q) for q in range(coins, k)]))


@pytest.mark.parametrize("shots, coins, k", [
    (100_000, 12, 12), (1000, 256, 256), (20_000, 20, 20), (50_000, 1, 16), (3000, 64, 64),
    (200_000, 3, 40), (10_000, 40, 200)])
def test_the_sampling_peak_is_within_the_bytes_it_is_charged(shots, coins, k):
    c = _copied_coins_circuit(k, coins)
    tableau_run(c, 10, 0)  # the gate tables and caches of a first run are not sampling
    with traced_peak() as traced:
        h = tableau_run(c, shots, 1)
    assert len(next(iter(h.counts))) == k
    size = tableau._sample_bytes(shots, coins, k)
    assert size / 2 <= traced.peak <= size
