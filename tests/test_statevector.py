import hashlib
import tracemalloc
import warnings

import numpy as np
import pytest

from charforge.circuits import (Circuit, build_bv, build_qft, build_vqe,
                                circuit_unitary, gate, parse_circuit,
                                random_clifford_circuit)
from charforge.errors import (DimensionMismatch, InvalidSpec, NotHermitian,
                              TooWide)
from charforge.observables import Observable, random_pauli, z_on_qubit
from charforge.statevector import (expectation_of_state, marginal_probabilities,
                                   run_gates, sample_histogram, sv_expectation,
                                   sv_run, time_gate_loop)


def test_h_measure_within_three_sigma():
    h = sv_run(parse_circuit("qubits 1\nh 0\nmeasure 0\n"), shots=100000, seed=1)
    sigma = np.sqrt(100000 * 0.25)
    assert abs(h.counts["0"] - 50000) <= 3 * sigma
    assert h.counts["0"] + h.counts["1"] == 100000


def test_bv_is_deterministic_and_matches_matrix_oracle():
    c = build_bv("1011")
    h = sv_run(c, shots=2000, seed=7)
    assert h.counts == {"1011": 2000}
    # oracle at n=5: the body unitary column gives the same marginal
    body, _ = c.body_and_suffix()
    u = circuit_unitary(Circuit(c.n_qubits, body))
    probs = marginal_probabilities(u[:, 0], [0, 1, 2, 3], c.n_qubits)
    assert probs[0b1011] == pytest.approx(1.0, abs=1e-12)


def test_empty_circuit_measures_all_zeros():
    h = sv_run(parse_circuit("qubits 3\nmeasure 0\nmeasure 1\nmeasure 2\n"),
               shots=50, seed=0)
    assert h.counts == {"000": 50}


def test_histograms_are_seed_deterministic():
    c = random_clifford_circuit(4, 30, seed=3)
    assert sv_run(c, 5000, seed=9).counts == sv_run(c, 5000, seed=9).counts
    assert sv_run(c, 5000, seed=9).counts != sv_run(c, 5000, seed=10).counts


def test_expectation_basics():
    assert sv_expectation(parse_circuit("qubits 1\n"), z_on_qubit(0, 1)) == pytest.approx(1.0)
    assert sv_expectation(parse_circuit("qubits 1\nh 0\n"), z_on_qubit(0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert sv_expectation(parse_circuit("qubits 1\nh 0\n"), Observable.from_pauli("X")) == pytest.approx(1.0)
    assert sv_expectation(parse_circuit("qubits 1\nx 0\n"), z_on_qubit(0, 1)) == pytest.approx(-1.0)


def test_expectation_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for seed in range(8):
        c = random_clifford_circuit(3, 40, seed=seed, measured=False)
        obs = random_pauli(3, rng)
        u = circuit_unitary(c)
        psi = u[:, 0]
        dense = obs.dense()
        oracle = float(np.vdot(psi, dense @ psi).real)
        assert abs(sv_expectation(c, obs) - oracle) <= 1e-9


def test_matrix_observable_and_hermiticity():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert sv_expectation(parse_circuit("qubits 1\nh 0\n"), Observable.from_matrix(m)) == pytest.approx(1.0)
    with pytest.raises(NotHermitian):
        Observable.from_matrix(np.array([[0, 1], [0, 0]], dtype=complex))


def test_norm_preserved_along_evolution():
    c = random_clifford_circuit(5, 60, seed=2, measured=False)
    psi = run_gates(c)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9


def test_too_wide_rejected():
    with pytest.raises(TooWide):
        sv_run(Circuit(23, ()), shots=1, seed=0)


@pytest.mark.parametrize("shots", [0, -1])
def test_sv_run_rejects_shots_below_one(shots):
    with pytest.raises(InvalidSpec, match="shots"):
        sv_run(parse_circuit("qubits 1\nh 0\n"), shots=shots, seed=0)


@pytest.mark.parametrize("initial", [np.ones(3), np.ones((8, 2)), np.ones((4, 2, 1)),
                                     np.ones(())])
def test_initial_state_of_wrong_shape_rejected(initial):
    c = Circuit(2, (gate("h", 0),))
    with pytest.raises(DimensionMismatch):
        run_gates(c, initial)
    with pytest.raises(DimensionMismatch):
        sv_run(c, shots=10, seed=0, initial=initial)


def test_sv_run_rejects_a_block_initial():
    c = Circuit(2, (gate("h", 0),))
    assert run_gates(c, np.ones((4, 2)) / 2).shape == (4, 2)
    with pytest.raises(DimensionMismatch):
        sv_run(c, shots=10, seed=0, initial=np.ones((4, 2)) / 2)


def test_sv_run_rejects_a_zero_state_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="total probability"):
            sv_run(Circuit(2, (gate("x", 1),)), shots=10, seed=0, initial=np.zeros(4))


@pytest.mark.parametrize("initial", [np.full(4, np.nan), np.array([np.inf, 0, 0, 0])])
def test_sv_run_rejects_a_non_finite_state(initial):
    with pytest.raises(InvalidSpec, match="total probability"):
        sv_run(Circuit(2, (gate("x", 1),)), shots=10, seed=0, initial=initial)


def _block(n, b, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(1 << n, b)) + 1j * rng.normal(size=(1 << n, b))


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# sha256 prefixes of the output bytes, recorded before the gate kernel worked
# in place; the kernel runs the same matmul operands, so the bits must not move
GOLDEN_STATES = {
    "qft8": "ee232ce48d5cc119",
    "clifford10": "46f4cd36c826192e",
    "block8": "41c418b2d5e68781",
    "unitary_qft5": "2ca3a0ea7b204535",
    "expectation": "04a99f2a1729658f",
}


def test_golden_states():
    vqe = build_vqe(7, 6, seed=3)
    got = {
        "qft8": _digest(run_gates(build_qft(8))),
        "clifford10": _digest(run_gates(random_clifford_circuit(10, 200, seed=11, measured=False))),
        "block8": _digest(run_gates(vqe, _block(7, 8, 5))),
        "unitary_qft5": _digest(circuit_unitary(build_qft(5))),
        "expectation": _digest(np.array([sv_expectation(vqe, Observable.from_pauli(p), _block(7, 8, 5))
                                         for p in ("XYZIZYX", "ZZIIXXY", "IIIYIII")])),
    }
    assert got == GOLDEN_STATES


def test_callers_states_are_not_changed():
    c = build_vqe(4, 3, seed=1)
    obs = Observable.from_pauli("XYZX")
    for initial in (_block(4, 3, 2), _block(4, 1, 2)[:, 0]):
        before = initial.copy()
        psi = run_gates(c, initial)
        assert np.array_equal(initial, before)
        kept = psi.copy()
        expectation_of_state(psi, obs, 4)
        assert np.array_equal(psi, kept)


DISTRIBUTIONS = [
    np.array([0.5, 0.0, 0.25, 0.25]),
    np.full(16, 1 / 16),
    np.array([1e-4, 0.0, 0.0, 0.3, 0.0, 0.0, 0.0, 0.6999]),
    np.array([0.0, 1.0]),
]


@pytest.mark.parametrize("probs", DISTRIBUTIONS)
@pytest.mark.parametrize("shots", [1, 1000, 4_000_000])
def test_sample_histogram_on_fixed_distributions(probs, shots):
    n_bits = probs.size.bit_length() - 1
    h = sample_histogram(probs, n_bits, shots, np.random.default_rng(3))
    assert sum(h.counts.values()) == shots
    keys = [int(k, 2) for k in h.counts]
    assert keys == sorted(keys)
    assert all(probs[k] > 0 for k in keys)
    for k, p in enumerate(probs):
        count = h.counts.get(format(k, f"0{n_bits}b"), 0)
        assert abs(count - shots * p) <= 6 * np.sqrt(shots * p * (1 - p))
    assert h.counts == sample_histogram(probs, n_bits, shots, np.random.default_rng(3)).counts


def test_sample_histogram_memory_does_not_grow_with_shots():
    probs = np.full(16, 1 / 16)
    tracemalloc.start()
    try:
        sample_histogram(probs, 4, 10 ** 8, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_timing_excludes_sampling():
    c = build_bv("101")
    samples = time_gate_loop(c, repeats=3)
    assert len(samples) == 3
    assert all(s >= 0.0 for s in samples)
