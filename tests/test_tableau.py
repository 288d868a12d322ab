import numpy as np
import pytest

from charforge.circuits import parse_circuit, random_clifford_circuit
from charforge.errors import NonCliffordGate
from charforge.histogram import tv_distance
from charforge.statevector import sv_run
from charforge.tableau import (StabilizerTableau, apply_gate, tableau_run,
                               validate_tableau)


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


def test_sdg_is_s_inverse():
    tab = StabilizerTableau.zeros(1)
    apply_gate(tab, "h", (0,))
    ref = (tab.x.copy(), tab.z.copy(), tab.r.copy())
    apply_gate(tab, "s", (0,))
    apply_gate(tab, "sdg", (0,))
    assert np.array_equal(tab.x, ref[0])
    assert np.array_equal(tab.z, ref[1])
    assert np.array_equal(tab.r, ref[2])
