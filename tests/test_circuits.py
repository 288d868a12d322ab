import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforge.circuits import (GATE_ARITY, BenchmarkSpec, Circuit, build_benchmark,
                                build_bv, build_grover, build_qft, build_vqe,
                                circuit_depth, circuit_unitary, embed_gate,
                                gate, gate_generators, gate_matrix, parse_circuit,
                                random_clifford_circuit, serialize_circuit)
from charforge.errors import (AngleMissing, CircuitSyntaxError, InvalidSpec, KeyCollision,
                              MeasurementInUnitary, QubitOutOfRange, TooWide)
from charforge import circuits
from charforge.groups import TOL
from charforge.statevector import SV_MAX_QUBITS, run_gates, zero_state
from kernel_oracle import apply_frame_per_qubit, signed_zero_block


def kron_oracle(gates, n):
    """Independent unitary oracle via explicit kron/permutation embedding."""
    u = np.eye(1 << n, dtype=complex)
    for kind, qubits, angle in gates:
        u = embed_gate(gate_matrix(kind, angle), qubits, n) @ u
    return u


def dft_matrix(n):
    size = 1 << n
    w = np.exp(2j * np.pi / size)
    return np.array([[w ** (j * k) for k in range(size)] for j in range(size)]) / np.sqrt(size)


# -- parsing ------------------------------------------------------------------

def test_parse_minimal():
    c = parse_circuit("qubits 1\nh 0\n")
    assert c.n_qubits == 1
    assert c.gates == (gate("h", 0),)


def test_parse_bell_prep():
    c = parse_circuit("qubits 2\nh 0\ncx 0 1\n")
    assert [g.kind for g in c.gates] == ["h", "cx"]
    assert c.gates[1].qubits == (0, 1)


def test_parse_comments_and_blank_lines():
    c = parse_circuit("# preamble\n\nqubits 2\nh 0  # trailing\n\ncz 0 1\n")
    assert len(c.gates) == 2


def test_cp_arity_error_carries_line_number():
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit("qubits 1\ncp(1.5707963268) 0\n")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf"])
def test_non_finite_cp_angle_is_a_syntax_error_on_its_line(angle):
    with pytest.raises(CircuitSyntaxError, match=f"line 3: bad angle '{angle}'"):
        parse_circuit(f"qubits 2\nh 0\ncp({angle}) 0 1\n")


def test_gate_rejects_a_non_finite_angle():
    with pytest.raises(InvalidSpec, match="angle must be finite"):
        gate("cp", 0, 1, angle=math.nan)


def test_parse_errors():
    with pytest.raises(QubitOutOfRange):
        parse_circuit("qubits 2\nh 5\n")
    with pytest.raises(AngleMissing):
        parse_circuit("qubits 2\ncp 0 1\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nfoo 0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\ncx 1 1\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nh(0.5) 0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("h 0\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 2\nmeasure 0\nh 1\n")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("qubits 0\n")


def test_serialize_round_trip_byte_identical():
    text = "qubits 3\nh 0\ncp(0.7853981634) 1 2\ncx 0 2\nmeasure 0\nmeasure 2\n"
    c = parse_circuit(text)
    assert serialize_circuit(c) == text
    assert parse_circuit(serialize_circuit(c)) == c


@pytest.mark.parametrize("builder", [
    lambda: build_bv("1011"),
    lambda: build_qft(4),
    lambda: build_grover(3, marked=5),
    lambda: build_vqe(4, layers=3, seed=11),
])
def test_builders_round_trip(builder):
    c = builder()
    again = parse_circuit(serialize_circuit(c), name=c.name)
    assert again == Circuit(c.n_qubits, c.gates, name=c.name)


# -- unitaries ----------------------------------------------------------------

def test_empty_circuit_unitary_is_identity():
    assert np.array_equal(circuit_unitary(parse_circuit("qubits 1\n")), np.eye(2))


def test_h_entries():
    u = circuit_unitary(parse_circuit("qubits 1\nh 0\n"))
    s = 1 / math.sqrt(2)
    assert np.allclose(u, [[s, s], [s, -s]])


def test_self_inverse_sequence_is_identity():
    c = parse_circuit("qubits 2\nh 0\ncx 0 1\ncx 0 1\nh 0\n")
    assert np.max(np.abs(circuit_unitary(c) - np.eye(4))) <= 1e-12


def test_unitary_matches_kron_oracle():
    c = random_clifford_circuit(3, 25, seed=5, measured=False)
    oracle = kron_oracle([(g.kind, g.qubits, g.angle) for g in c.gates], 3)
    assert np.max(np.abs(circuit_unitary(c) - oracle)) <= 1e-12


def test_unitary_rejects_measures_and_width():
    with pytest.raises(MeasurementInUnitary):
        circuit_unitary(parse_circuit("qubits 1\nh 0\nmeasure 0\n"))
    with pytest.raises(TooWide):
        circuit_unitary(Circuit(13, ()))


def test_unitary_of_measure_free_circuits_is_unitary():
    for seed in range(3):
        c = random_clifford_circuit(4, 30, seed=seed, measured=False)
        u = circuit_unitary(c)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) <= 1e-9


def test_cx_convention_control_first():
    # |01> has qubit 0 (the control) set, so the target flips: |01> -> |11>
    u = circuit_unitary(parse_circuit("qubits 2\ncx 0 1\n"))
    vec = np.zeros(4)
    vec[1] = 1.0
    assert np.argmax(np.abs(u @ vec)) == 3


# -- builders -----------------------------------------------------------------

def test_bv_gate_count_formula():
    for secret in ("1", "101", "110010"):
        n = len(secret)
        c = build_bv(secret)
        assert c.n_qubits == n + 1
        expected = 2 * (n + 1) + secret.count("1") + 1 + n
        assert len(c.gates) == expected


def test_bv_measures_data_qubits_only():
    c = build_bv("101")
    assert c.measured_qubits() == [0, 1, 2]


def test_qft_width_one_is_single_h():
    c = build_qft(1)
    assert c.gates == (gate("h", 0),)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_qft_matches_dft_matrix(n):
    assert np.max(np.abs(circuit_unitary(build_qft(n)) - dft_matrix(n))) <= 1e-8


def test_grover_two_qubits_exact():
    c = build_grover(2, marked=3, iterations=1)
    amps = circuit_unitary(c)[:, 0]
    assert abs(abs(amps[3]) ** 2 - 1.0) <= 1e-9


def test_grover_marked_state_amplified():
    c = build_grover(3, marked=5)
    probs = np.abs(circuit_unitary(c)[:, 0]) ** 2
    assert np.argmax(probs) == 5
    assert probs[5] > 0.8


def test_multi_controlled_z_diagonal():
    from charforge.circuits import _mcz
    for n in (3, 4):
        c = Circuit(n, tuple(_mcz(list(range(n)))))
        target = np.eye(1 << n, dtype=complex)
        target[-1, -1] = -1
        assert np.max(np.abs(circuit_unitary(c) - target)) <= 1e-9


def test_vqe_deterministic_per_seed():
    a = build_vqe(4, layers=2, seed=9)
    b = build_vqe(4, layers=2, seed=9)
    c = build_vqe(4, layers=2, seed=10)
    assert a == b
    assert a != c


def test_build_benchmark_dispatch_and_validation():
    assert build_benchmark(BenchmarkSpec(kind="qft", width=2)).name == "qft-2"
    with pytest.raises(InvalidSpec):
        build_benchmark(BenchmarkSpec(kind="bv"))
    with pytest.raises(InvalidSpec):
        build_benchmark(BenchmarkSpec(kind="grover", width=2, marked=9))
    with pytest.raises(InvalidSpec):
        build_benchmark(BenchmarkSpec(kind="nope"))
    with pytest.raises(InvalidSpec):
        build_bv("10a")


@pytest.mark.parametrize("build, word", [
    (lambda: build_vqe(3, 2, -1), "seed"), (lambda: build_vqe(3, 2, 1.5), "seed"),
    (lambda: build_vqe(2.5, 2, 1), "vqe"), (lambda: build_vqe(3, "2", 1), "vqe"),
    (lambda: build_qft(2.5), "qft"), (lambda: build_qft("3"), "qft"),
    (lambda: build_grover(2.0, 1), "grover"), (lambda: build_grover(2, 1.0), "grover"),
    (lambda: build_grover(2, 1, 1.5), "grover"), (lambda: build_bv(101), "secret"),
    (lambda: build_bv(None), "secret"), (lambda: gate("cp", 0, 1, angle="x"), "angle"),
    (lambda: gate("cp", 0, 1, angle=[1.0]), "angle"),
])
def test_builders_reject_bad_inputs(build, word):
    # each of these raised a raw TypeError or ValueError from inside the builder
    with pytest.raises(InvalidSpec, match=word):
        build()


@pytest.mark.parametrize("n, depth, seed, word", [
    (0, 5, 1, "n"), (-2, 5, 1, "n"), (2.5, 5, 1, "n"), (3.0, 5, 1, "n"), (True, 5, 1, "n"),
    ("3", 5, 1, "n"), (3, -1, 1, "depth"), (3, 2.0, 1, "depth"), (3, 5, -1, "seed"),
    (3, 5, 1.5, "seed"), (3, 5, "1", "seed"),
])
def test_random_clifford_circuit_rejects_bad_inputs(n, depth, seed, word):
    with pytest.raises(InvalidSpec, match=word):
        random_clifford_circuit(n, depth, seed)


# sha256 prefixes of serialize_circuit, pinned before the input checks existed
RANDOM_CLIFFORD_DIGESTS = {
    (1, 0, 0): "dc2d0aaff38e345d", (1, 7, 3): "e20f9ccc1ce404b0",
    (2, 40, 5): "b1e53815d74a14df", (9, 200, 2 ** 40): "39fe55281f888d87",
    (70, 300, 12): "1b5a5b924cc786b3",
}


def test_random_clifford_circuit_valid_calls_are_unchanged():
    for (n, depth, seed), want in RANDOM_CLIFFORD_DIGESTS.items():
        for args in ((n, depth, seed), (np.int64(n), np.int64(depth), np.uint64(seed))):
            text = serialize_circuit(random_clifford_circuit(*args))
            assert hashlib.sha256(text.encode()).hexdigest()[:16] == want


def test_depth():
    c = parse_circuit("qubits 3\nh 0\nh 1\ncx 0 1\nh 2\n")
    assert circuit_depth(c) == 2
    assert circuit_depth(parse_circuit("qubits 1\n")) == 0


def test_gate_generators_dedupe_by_gate_and_by_matrix():
    # cz is symmetric, so cz 1 0 embeds to the same matrix as cz 0 1
    gates = [gate("cz", 2, 5), gate("h", 2), gate("cz", 5, 2), gate("h", 2), gate("h", 5)]
    mats, slots = gate_generators(gates, (2, 5))
    assert slots == [0, 1, 0, 1, 2]
    assert len(mats) == 3
    assert np.array_equal(mats[0], np.diag([1, 1, 1, -1]).astype(complex))
    assert np.array_equal(mats[2], embed_gate(gate_matrix("h"), (1,), 2))
    # 1e-9 apart, so one matrix within TOL as in a closure, although their
    # entries round to different 9-digit keys
    near = [gate("cp", 0, 1, angle=1.570796327), gate("cp", 0, 1, angle=1.570796326)]
    mats, slots = gate_generators(near, (0, 1))
    assert slots == [0, 0] and len(mats) == 1
    assert np.array_equal(mats[0], gate_matrix("cp", 1.570796327))
    # 3*TOL apart: within 8*TOL but past TOL, they collide
    with pytest.raises(KeyCollision):
        gate_generators([near[0], gate("cp", 0, 1, angle=1.570796327 + 3 * TOL)], (0, 1))


@pytest.mark.parametrize("qubits, n", [((0,), 1), ((1,), 3), ((2, 0), 3), ((1, 3), 4), ((0, 1), 2)])
def test_embed_gate_embeds_each_matrix_of_a_stack(qubits, n):
    rng = np.random.default_rng(3)
    d = 1 << len(qubits)
    stack = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
    out = embed_gate(stack, qubits, n)
    assert out.shape == (2, 3, 1 << n, 1 << n)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(out[i, j], embed_gate(stack[i, j], qubits, n))


def kron_embedding(mat, qubits, n):
    """Reference embedding: np.kron(I, mat), whose row and column i move to the
    index that has bit q set where i has the bit at q's position in
    qubits + the remaining qubits."""
    full = np.kron(np.eye(1 << (n - len(qubits)), dtype=complex), mat)
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    idx = np.arange(1 << n)
    perm = np.zeros(1 << n, dtype=np.int64)
    for pos, q in enumerate(order):
        perm |= ((idx >> pos) & 1) << q
    out = np.zeros(full.shape, dtype=complex)
    out[..., perm[:, None], perm] = full
    return out


@pytest.mark.parametrize("qubits, n", [((1,), 3), ((2, 0), 3), ((1, 3), 4), ((4, 0, 2), 5)])
def test_embed_gate_is_the_kron_embedding_byte_for_byte(qubits, n):
    # signed zeros included: the entries are the same products as kron's
    rng = np.random.default_rng(5)
    d = 1 << len(qubits)
    stack = (rng.standard_normal((4, d, d)) + 1j * rng.standard_normal((4, d, d))) * rng.integers(-1, 2, (4, d, d))
    named = {2: [gate_matrix("y")], 4: [gate_matrix("cp", -2.5)]}.get(d, [])
    for mat in [stack, stack[0], -stack[1].real] + named:
        assert embed_gate(mat, qubits, n).tobytes() == kron_embedding(mat, qubits, n).tobytes()


@st.composite
def _random_circuits(draw):
    n = draw(st.integers(1, 6))
    kinds = sorted(k for k, arity in GATE_ARITY.items() if k != "measure" and arity <= n)
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=25)):
        qubits = draw(st.permutations(range(n)))[:GATE_ARITY[kind]]
        angle = draw(st.floats(-4.0, 4.0)) if kind == "cp" else None
        gates.append(gate(kind, *qubits, angle=angle))
    return Circuit(n, tuple(gates))


@settings(max_examples=60, deadline=None)
@given(_random_circuits(), st.data())
def test_parse_inverts_serialize(c, data):
    measured = data.draw(st.permutations(range(c.n_qubits)))
    c = Circuit(c.n_qubits, c.gates + tuple(gate("measure", q) for q in
                                            measured[:data.draw(st.integers(0, c.n_qubits))]))
    text = serialize_circuit(c)
    assert parse_circuit(text) == c
    assert serialize_circuit(parse_circuit(text)) == text


@settings(max_examples=60, deadline=None)
@given(_random_circuits(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_gate_kernel_block_matches_columns_and_oracle(c, b, seed):
    n = c.n_qubits
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(1 << n, b)) + 1j * rng.normal(size=(1 << n, b))
    out = run_gates(c, block)
    for j in range(b):
        assert np.ascontiguousarray(out[:, j]).tobytes() == run_gates(c, block[:, j]).tobytes()
    oracle = kron_oracle([(g.kind, g.qubits, g.angle) for g in c.gates], n)
    assert np.max(np.abs(circuit_unitary(c) - oracle)) <= 1e-12


PAULIS = ("x", "y", "z")
FRAME_CLIFFORDS = ("h", "s", "sdg", "cx", "cz", "swap") + PAULIS


@st.composite
def _frame_circuits(draw):
    """Circuits that run every path of the Pauli frame: Clifford runs that
    carry it, a z and an x on each qubit of a t, tdg or cp (so the flush
    meets both X and Z bits), swaps, and a tail of y gates, which move the
    frame's power of i by one each."""
    n = draw(st.integers(2, 5))
    gates = []

    def on(kind):
        gates.append(gate(kind, *draw(st.permutations(range(n)))[:GATE_ARITY[kind]],
                          angle=draw(st.floats(-4.0, 4.0)) if kind == "cp" else None))
        return gates[-1]

    for _ in range(draw(st.integers(0, 4))):
        for kind in draw(st.lists(st.sampled_from(FRAME_CLIFFORDS), max_size=8)):
            on(kind)
        diagonal = on(draw(st.sampled_from(("t", "tdg", "cp"))))
        gates[-1:] = [gate(p, q) for q in diagonal.qubits for p in ("z", "x")] + [diagonal]
    for kind in draw(st.lists(st.sampled_from(("y", "y", "y", "swap", "x", "z")), max_size=9)):
        on(kind)
    return Circuit(n, tuple(gates))


@settings(max_examples=80, deadline=None)
@given(_frame_circuits(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_pauli_frame_matches_the_kron_oracle(c, b, seed):
    rng = np.random.default_rng(seed)
    block = rng.normal(size=(1 << c.n_qubits, b)) + 1j * rng.normal(size=(1 << c.n_qubits, b))
    block /= np.linalg.norm(block, axis=0)
    oracle = kron_oracle([(g.kind, g.qubits, g.angle) for g in c.gates], c.n_qubits)
    assert np.max(np.abs(run_gates(c, block) - oracle @ block)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.data())
def test_an_all_pauli_circuit_is_the_oracles_signed_permutation(n, data):
    kinds = data.draw(st.lists(st.sampled_from(PAULIS), max_size=20))
    c = Circuit(n, tuple(gate(k, data.draw(st.integers(0, n - 1))) for k in kinds))
    oracle = kron_oracle([(g.kind, g.qubits, None) for g in c.gates], n)
    src = np.argmax(np.abs(oracle), axis=1)
    unit = oracle[np.arange(1 << n), src]
    assert set(np.round(unit, 12).tolist()) <= {1, -1, 1j, -1j}
    block = np.random.default_rng(n).normal(size=(1 << n, 2, 2)).view(complex)[..., 0]
    # a product with an exact unit has no rounding; adding 0.0 writes zeros as +0.0
    want = unit[:, None] * block[src] + 0.0
    assert run_gates(c, block).tobytes() == want.tobytes()


# -- the register from |0...0> -------------------------------------------------

@st.composite
def _register_circuits(draw):
    """Up to 8 qubits and few gates, so that some qubits stay in |0>; the
    gates that leave |0> alone are drawn more often than h."""
    n = draw(st.integers(1, 8))
    kinds = [k for k in GATE_ARITY if k != "measure" and GATE_ARITY[k] <= n]
    kinds += [k for k in kinds if k in ("s", "t", "cx", "cz", "cp", "swap")]
    gates = []
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=16)):
        qubits = draw(st.permutations(range(n)))[:GATE_ARITY[kind]]
        gates.append(gate(kind, *qubits, angle=draw(st.floats(-4.0, 4.0)) if kind == "cp" else None))
    return Circuit(n, tuple(gates))


@settings(max_examples=200, deadline=None)
@given(_register_circuits())
def test_the_register_from_zero_matches_the_full_state(c):
    n = c.n_qubits
    got, full = run_gates(c), run_gates(c, zero_state(n))
    assert got.shape == (1 << n,) and got.flags.c_contiguous
    assert got.tobytes() == full.tobytes()
    oracle = kron_oracle([(g.kind, g.qubits, g.angle) for g in c.gates], n)
    assert np.max(np.abs(got - oracle[:, 0])) <= 1e-12


def _kernel_calls(monkeypatch) -> list:
    calls = []
    real = circuits.apply_matrix

    def spy(psi, mat, qubits, n, scratch):
        calls.append((qubits, n))
        real(psi, mat, qubits, n, scratch)

    monkeypatch.setattr(circuits, "apply_matrix", spy)
    return calls


@pytest.mark.parametrize("text, calls", [
    # gates that leave |0...0> alone: no amplitude moves
    ("qubits 3\ns 0\nsdg 1\nt 2\ntdg 0\ncz 0 1\ncp(0.7) 1 2\ncx 0 2\nswap 1 2\n", []),
    # h puts qubit 1 in the register; cx on an untouched control, and cz, cp and t
    # on an untouched qubit, are skipped; the cx from qubit 1 adds qubit 3
    ("qubits 4\nh 1\ncx 0 1\ncz 1 2\ncp(0.3) 2 1\nt 0\ncx 1 3\nt 3\n",
     [((0,), 1), ((0, 1), 2), ((1,), 2)]),
    # the frame alone: i X_2 Z_2 is the frame's pass, which writes qubit 2 as index 1 of
    # the scatter and calls no kernel
    ("qubits 3\ny 2\n", []),
])
def test_gates_that_leave_zero_alone_are_skipped(monkeypatch, text, calls):
    c = parse_circuit(text)
    want = run_gates(c, zero_state(c.n_qubits))
    seen = _kernel_calls(monkeypatch)
    got = run_gates(c)
    assert seen == calls
    assert got.tobytes() == want.tobytes()
    if not calls:
        assert np.array_equal(got, kron_oracle([(g.kind, g.qubits, g.angle) for g in c.gates], c.n_qubits)[:, 0])


@pytest.mark.parametrize("text", [
    "qubits 3\nx 0\ny 2\nz 1\n",
    # the frame is i^3 Z_0 X_1 Z_1: the full state takes i^3 on qubit 0, still in |0>,
    # and the register takes it on qubit 1
    "qubits 3\nx 0\nz 0\nx 0\ny 1\n",
    # Z_0 with i^2 and no X at all: the phase needs a qubit of its own
    "qubits 2\nx 0\nz 0\nx 0\n",
    "qubits 2\ny 1\ny 1\ny 1\nz 0\n",
])
def test_the_frame_alone_from_zero(text):
    c = parse_circuit(text)
    got = run_gates(c)
    assert got.tobytes() == run_gates(c, zero_state(c.n_qubits)).tobytes()
    assert np.array_equal(got, kron_oracle([(g.kind, g.qubits, None) for g in c.gates], c.n_qubits)[:, 0])


@pytest.mark.parametrize("text", [
    "qubits 3\nh 0\nswap 0 2\n",
    "qubits 4\nh 2\ns 2\nswap 3 2\nswap 0 3\ncz 0 2\n",
    "qubits 3\nh 1\nswap 0 2\nswap 0 1\nh 2\n",
])
def test_a_swap_of_a_touched_and_an_untouched_qubit(text):
    c = parse_circuit(text)
    got = run_gates(c)
    assert got.tobytes() == run_gates(c, zero_state(c.n_qubits)).tobytes()
    assert np.max(np.abs(got - kron_oracle([(g.kind, g.qubits, None) for g in c.gates],
                                           c.n_qubits)[:, 0])) <= 1e-15


@pytest.mark.parametrize("text, index, amplitude", [
    ("qubits 3\nx 1\nt 1\n", 0b010, np.exp(1j * math.pi / 4)),
    ("qubits 3\nx 1\ntdg 1\n", 0b010, np.exp(-1j * math.pi / 4)),
    ("qubits 3\nx 0\nx 2\ncp(0.5) 0 2\n", 0b101, np.exp(0.5j)),
    # the flush adds qubit 0, and the cp is then skipped as qubit 1 is untouched
    ("qubits 3\nx 0\ncp(0.5) 0 1\n", 0b001, 1.0),
    ("qubits 3\ny 2\nt 2\n", 0b100, 1j * np.exp(1j * math.pi / 4)),
])
def test_a_flushed_x_adds_its_qubit_before_t_and_cp(text, index, amplitude):
    c = parse_circuit(text)
    got = run_gates(c)
    assert got.tobytes() == run_gates(c, zero_state(c.n_qubits)).tobytes()
    want = np.zeros(1 << c.n_qubits, dtype=complex)
    want[index] = amplitude
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("text", ["qubits 1\n", "qubits 1\ns 0\n", "qubits 1\nh 0\n",
                                  "qubits 1\nx 0\nz 0\n", "qubits 1\nh 0\nt 0\nh 0\n"])
def test_one_qubit_from_zero(text):
    c = parse_circuit(text)
    got = run_gates(c)
    assert got.tobytes() == run_gates(c, zero_state(1)).tobytes()
    assert np.max(np.abs(got - kron_oracle([(g.kind, g.qubits, g.angle) for g in c.gates], 1)[:, 0])) <= 1e-15


def test_a_widest_circuit_that_touches_two_qubits(monkeypatch):
    n, a, b = SV_MAX_QUBITS, 3, SV_MAX_QUBITS - 5
    wide = Circuit(n, (gate("h", a), gate("s", 7), gate("cx", a, b), gate("t", b), gate("cz", a, 0),
                       gate("cx", 9, a), gate("cp", b, a, angle=0.25)))
    narrow = Circuit(2, (gate("h", 0), gate("cx", 0, 1), gate("t", 1), gate("cp", 1, 0, angle=0.25)))
    seen = _kernel_calls(monkeypatch)
    got = run_gates(wide)
    assert all(width <= 2 for _, width in seen)
    assert got.shape == (1 << n,)
    assert np.flatnonzero(got).tolist() == [0, (1 << a) | (1 << b)]
    assert got[[0, (1 << a) | (1 << b)]].tobytes() == run_gates(narrow)[[0, 3]].tobytes()


# -- the frame's one pass against the per-qubit loop -----------------------------

@st.composite
def _frame_cases(draw):
    """A gate list ending in a Pauli tail, on a (2^n, B) block of signed zeros
    (B in 1, 3, 8) or from |0...0>. From |0...0> an h puts a drawn subset of
    qubits in the register, some Cliffords and t gates act on it, and the tail
    reaches the qubits off it, so the frame has X bits there. The tail's y
    gates give every power of i."""
    n = draw(st.integers(1, 8))
    from_zero = draw(st.booleans())
    head = []
    if from_zero:
        head = [gate("h", q) for q in range(n) if draw(st.booleans())]
        for kind in draw(st.lists(st.sampled_from(("s", "t", "cx", "cz", "swap")), max_size=6)):
            head.append(gate(kind, *draw(st.permutations(range(n)))[:GATE_ARITY[kind]]))
    tail = [gate(draw(st.sampled_from(PAULIS)), draw(st.integers(0, n - 1)))
            for _ in range(draw(st.integers(0, 12)))]
    psi = None if from_zero else signed_zero_block(n, draw(st.sampled_from((1, 3, 8))),
                                                   draw(st.integers(0, 2 ** 32 - 1)))
    return n, psi, head + tail


@settings(max_examples=300, deadline=None)
@given(_frame_cases())
def test_the_frame_pass_matches_the_per_qubit_loop(case):
    n, psi, gates = case
    with mock.patch.object(circuits, "_apply_frame", wraps=circuits._apply_frame) as spy:
        got = circuits.apply_gates(None if psi is None else psi.copy(), gates, n)
    register, on, x, z, k, _ = spy.call_args.args
    want = apply_frame_per_qubit(register.copy(), on, x, z, k, n)
    if on == (1 << n) - 1 and not x | z | k % 4:
        assert got is register and got.tobytes() == want.tobytes()
        return
    # the pass writes every amplitude, where the loop left alone those that
    # no Z acted on, so a -0.0 of the input reads +0.0 there; all else is equal
    assert got.tobytes() == (want + 0.0).tobytes()
    written = got.view(float)
    assert not np.signbit(written[written == 0]).any()
    assert got.flags.c_contiguous and got.shape == ((1 << n,) if psi is None else psi.shape)
