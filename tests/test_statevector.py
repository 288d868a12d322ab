import numpy as np
import pytest

from charforge.circuits import (Circuit, build_bv, circuit_unitary, gate,
                                parse_circuit, random_clifford_circuit)
from charforge.errors import (DimensionMismatch, InvalidSpec, NotHermitian,
                              TooWide)
from charforge.observables import Observable, random_pauli, z_on_qubit
from charforge.statevector import (marginal_probabilities, run_gates,
                                   sv_expectation, sv_run, time_gate_loop)


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


def test_timing_excludes_sampling():
    c = build_bv("101")
    samples = time_gate_loop(c, repeats=3)
    assert len(samples) == 3
    assert all(s >= 0.0 for s in samples)
