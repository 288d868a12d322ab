import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforge.circuits import (GATE_ARITY, BenchmarkSpec, Circuit, build_benchmark,
                                build_bv, build_grover, build_qft, build_vqe,
                                circuit_depth, circuit_unitary, embed_gate,
                                gate, gate_generators, gate_matrix, parse_circuit,
                                random_clifford_circuit, serialize_circuit)
from charforge.errors import (AngleMissing, CircuitSyntaxError, InvalidSpec,
                              MeasurementInUnitary, QubitOutOfRange, TooWide)
from charforge.statevector import run_gates


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
