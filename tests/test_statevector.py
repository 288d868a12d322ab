import hashlib
import importlib.util
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charforge.circuits import (GATE_ARITY, Circuit, apply_matrix, build_bv, build_qft,
                                build_vqe, circuit_unitary, gate, gate_matrix,
                                parse_circuit, random_clifford_circuit)
from charforge.errors import DimensionMismatch, InvalidSpec, QubitOutOfRange, TooWide
from charforge.histogram import MeasurementHistogram, histogram_csv
from charforge.observables import Observable, random_pauli, z_on_qubit
from charforge.statevector import (expectation_of_state, marginal_probabilities,
                                   run_gates, sample_histogram, sv_expectation,
                                   sv_run, time_gate_loop)
from conftest import traced_peak
from kernel_oracle import apply_dense, marginal_by_bits, pauli_dense, signed_zero_block


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


@pytest.mark.parametrize("qubit, n", [(3, 2), (2, 2), (-1, 2), (1, 1)])
def test_z_on_qubit_refuses_a_qubit_outside_the_register(qubit, n):
    with pytest.raises(QubitOutOfRange, match=f"qubit {qubit} outside \\[0, {n}\\)"):
        z_on_qubit(qubit, n)
    with pytest.raises(QubitOutOfRange, match=f"qubit {qubit} outside \\[0, {n}\\)"):
        Observable("XZ"[:n]).letter_for(qubit)


@pytest.mark.parametrize("qubit, n", [(0, 0), (0, -1), (0, 1.0), (0, True), (0, "2"), (True, 2), (1.0, 2), (None, 2)])
def test_z_on_qubit_refuses_a_width_or_qubit_that_is_not_an_integer(qubit, n):
    with pytest.raises(InvalidSpec, match="qubit must be an integer and n an integer >= 1"):
        z_on_qubit(qubit, n)
    if qubit == 0:  # random_pauli refuses the widths z_on_qubit does
        with pytest.raises(InvalidSpec, match=f"^n must be an integer >= 1, got {re.escape(repr(n))}$"):
            random_pauli(n, np.random.default_rng(0))
    else:  # and letter_for the qubits
        with pytest.raises(InvalidSpec, match=f"^qubit must be an integer, got {re.escape(repr(qubit))}$"):
            Observable("XZ").letter_for(qubit)


@pytest.mark.parametrize("qubit, n, pauli", [(0, 1, "Z"), (0, 2, "IZ"), (1, 2, "ZI"), (np.int64(2), np.int64(3), "ZII")])
def test_z_on_qubit_puts_z_on_its_qubit(qubit, n, pauli):
    assert z_on_qubit(qubit, n) == Observable(pauli)


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
        oracle = float(np.vdot(psi, pauli_dense(obs) @ psi).real)
        assert abs(sv_expectation(c, obs) - oracle) <= 1e-9


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
    assert run_gates(c, np.ones((4, 2)) / 2).shape == (4, 2)


def test_marginal_probabilities_rejects_a_zero_state_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="total probability"):
            marginal_probabilities(run_gates(Circuit(2, (gate("x", 1),)), np.zeros(4)), [0, 1], 2)


@pytest.mark.parametrize("initial", [np.full(4, np.nan), np.array([np.inf, 0, 0, 0])])
def test_run_gates_rejects_a_non_finite_state(initial):
    with pytest.raises(InvalidSpec, match="total probability"):
        run_gates(Circuit(2, (gate("x", 1),)), initial)


def test_run_gates_rejects_a_non_finite_state_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="total probability"):
            run_gates(parse_circuit("qubits 1\nh 0\n"), np.array([np.nan, 0]))


@pytest.mark.parametrize("letters", ["X", "XZY"], ids=["pauli", "pauli-too-long"])
def test_sv_expectation_rejects_an_observable_of_the_wrong_width(letters):
    with pytest.raises(DimensionMismatch, match=f"pauli string length {len(letters)} != 2 qubits"):
        sv_expectation(parse_circuit("qubits 2\n"), Observable.from_pauli(letters))


NOT_NUMBERS = [["a", 0], [[1, 0], [0]], {"a": 1}]
NOT_NUMBERS_IDS = ["non-numeric", "ragged", "dict"]


@pytest.mark.parametrize("initial", NOT_NUMBERS, ids=NOT_NUMBERS_IDS)
def test_run_gates_rejects_an_initial_that_is_not_numbers(initial):
    with pytest.raises(InvalidSpec, match="initial state must be an array of numbers"):
        run_gates(parse_circuit("qubits 1\nh 0\n"), initial)


def test_histogram_counts_must_sum_to_shots():
    with pytest.raises(InvalidSpec, match="counts sum 2 != shots 3"):
        MeasurementHistogram(shots=3, counts={"0": 2})


@pytest.mark.parametrize("shots, counts, match", [
    (0, {"0": 1, "1": -1}, "shots must be at least 1, got 0"),  # was accepted: the counts sum to 0
    (2, {"0": 3, "1": -1}, "counts must be non-negative integers"),
    (2, {"0": 1.0, "1": 1}, "counts must be non-negative integers"),
    (1, {"0": True}, "counts must be non-negative integers"),
    (2.0, {"0": 2}, "shots must be an integer"),
    (2, [("0", 2)], "counts must be a dict, got list"),  # raised a raw AttributeError
    (2, None, "counts must be a dict, got NoneType"),
    (2, {"0": 1, 1: 1}, "outcome must be a str, got int"),  # histogram_csv raised a raw TypeError
])
def test_a_histogram_takes_a_shot_count_and_non_negative_integer_counts(shots, counts, match):
    with pytest.raises(InvalidSpec, match=match):
        histogram_csv(MeasurementHistogram(shots=shots, counts=counts))


def _block(n, b, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(1 << n, b)) + 1j * rng.normal(size=(1 << n, b))


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


# sha256 prefixes of the output bytes. A change of kernel that moves any of
# them names the gates that move the bits: h as a butterfly, r*(a+b) and
# r*(a-b) rather than the matmul's r*a + r*b, moved clifford10, block8 and
# expectation; qft8 and unitary_qft5 kept their bits
GOLDEN_STATES = {
    "qft8": "ee232ce48d5cc119",
    "clifford10": "8b6aabd486500bc5",
    "block8": "8179976239a859be",
    "unitary_qft5": "2ca3a0ea7b204535",
    "expectation": "5c006fbcbd8a885d",
}


def test_golden_states():
    vqe = build_vqe(7, 6, seed=3)
    got = {
        "qft8": _digest(run_gates(build_qft(8))),
        "clifford10": _digest(run_gates(random_clifford_circuit(10, 200, seed=11, measured=False))),
        "block8": _digest(run_gates(vqe, _block(7, 8, 5))),
        "unitary_qft5": _digest(circuit_unitary(build_qft(5))),
        "expectation": _digest(np.array([
            expectation_of_state(run_gates(vqe, _block(7, 8, 5)), Observable.from_pauli(p), 7)
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


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2 ** 32 - 1), st.data())
def test_the_marginal_matches_the_bitwise_index(n, seed, data):
    """Byte for byte, on a strided column of signed zeros as equivalence_check
    passes, with the measured qubits in a random order."""
    measured = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
    column = signed_zero_block(n, 3, seed)[:, 1]
    column[0] += 1.0  # never the zero state
    assert marginal_probabilities(column, measured, n).tobytes() == marginal_by_bits(column, measured).tobytes()


def _frame_circuit(n):
    """h on every qubit, a cx ladder, then y and z, which leave a frame with
    X, Z and i bits for the final pass."""
    return Circuit(n, tuple(gate("h", q) for q in range(n)) + tuple(gate("cx", q, q + 1) for q in range(n - 1))
                   + (gate("s", 2), gate("y", 3), gate("z", 7), gate("y", n - 1)))


@pytest.mark.parametrize("columns", [None, 1, 2], ids=["zero", "state", "block2"])
def test_the_frame_pass_keeps_the_peak_near_two_states(columns):
    """The peak traced while `run_gates` runs a 16-qubit circuit whose frame
    is not the identity stays within 2.5 times the returned state: the kernel's
    scratch is freed before the pass allocates the new state, and the pass's
    operand is built per block. A caller's initial state is not counted."""
    n = 16
    initial = None if columns is None else _block(n, columns, 1).reshape(-1 if columns == 1 else (1 << n, 2))
    c = _frame_circuit(n)
    with traced_peak() as traced:
        psi = run_gates(c, initial)
    assert psi.nbytes == (1 << n) * 16 * (columns or 1)
    assert traced.peak <= 2.5 * psi.nbytes, traced.peak / psi.nbytes


def test_sample_histogram_memory_does_not_grow_with_shots():
    probs = np.full(16, 1 / 16)
    with traced_peak() as traced:
        sample_histogram(probs, 4, 10 ** 8, np.random.default_rng(0))
    assert traced.peak < 100_000


def test_timing_excludes_sampling():
    c = build_bv("101")
    samples = time_gate_loop(c, repeats=3)
    assert len(samples) == 3
    assert all(s >= 0.0 for s in samples)


@pytest.mark.parametrize("repeats", [1.5, "3", True, 0, -2])
def test_time_gate_loop_takes_an_integer_count_of_at_least_one(repeats):
    # unchecked, a float or str ends in a raw TypeError, True runs once, and 0 or -2 time nothing
    with pytest.raises(InvalidSpec, match=f"repeats must be an integer >= 1, got {repeats!r}"):
        time_gate_loop(build_bv("101"), repeats)


NAMED_MONOMIALS = ("x", "y", "z", "s", "sdg", "cx", "cz", "swap")


@st.composite
def monomial_gates(draw):
    """A monomial matrix of entries +-1, +-i (a named gate or a random one),
    a width, qubits in either order, a column count and a block seed."""
    name = draw(st.sampled_from(NAMED_MONOMIALS + ("random",)))
    if name == "random":
        dim = 1 << draw(st.integers(1, 2))
        mat = np.zeros((dim, dim), dtype=complex)
        mat[np.arange(dim), draw(st.permutations(range(dim)))] = draw(
            st.lists(st.sampled_from((1, -1, 1j, -1j)), min_size=dim, max_size=dim))
    else:
        mat = gate_matrix(name)
    k = mat.shape[0].bit_length() - 1
    n = draw(st.integers(k, 12))
    qubits = tuple(draw(st.permutations(range(n)))[:k])
    return mat, qubits, n, draw(st.sampled_from((1, 3, 8))), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(monomial_gates())
def test_slice_path_matches_the_matmul_path_byte_for_byte(case):
    mat, qubits, n, b, seed = case
    block = signed_zero_block(n, b, seed)
    got, want = block.copy(), block.copy()
    apply_matrix(got, mat, qubits, n, np.empty(block.size // 2, dtype=complex))
    apply_dense(want, mat, qubits, n)
    # the slice path leaves the rows with a diagonal 1 untouched, so a -0.0
    # there stays; everything else, zeros included, has the matmul's bytes
    idx = np.arange(1 << n)
    local = sum(((idx >> q) & 1) << j for j, q in enumerate(qubits))
    kept = np.isin(local, np.flatnonzero(np.diag(mat) == 1))
    want[kept] = block[kept]
    assert got.tobytes() == want.tobytes()
    assert not np.signbit(got[~kept].view(float)[got[~kept].view(float) == 0]).any()


@st.composite
def diagonal_gates(draw):
    """t, tdg, cp at a random angle or a diagonal of random unit phases on
    one or two qubits, a width, qubits in either order, a column count and a
    block seed."""
    name = draw(st.sampled_from(("t", "tdg", "cp", "random")))
    angles = st.floats(-4.0, 4.0)
    if name == "random":
        dim = 1 << draw(st.integers(1, 2))
        mat = np.diag(np.exp(1j * np.array(draw(st.lists(angles, min_size=dim, max_size=dim)))))
    else:
        mat = gate_matrix(name, draw(angles) if name == "cp" else None)
    k = mat.shape[0].bit_length() - 1
    n = draw(st.integers(k, 10))
    qubits = tuple(draw(st.permutations(range(n)))[:k])
    return mat, qubits, n, draw(st.sampled_from((1, 3, 8))), draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(diagonal_gates())
def test_a_diagonal_gate_runs_each_column_alike_and_near_the_matmul_path(case):
    mat, qubits, n, b, seed = case
    block = signed_zero_block(n, b, seed)
    got, want = block.copy(), block.copy()
    apply_matrix(got, mat, qubits, n, np.empty(block.size // 2, dtype=complex))
    apply_dense(want, mat, qubits, n)
    for j in range(b):
        column = np.ascontiguousarray(block.reshape(1 << n, -1)[:, j])
        apply_matrix(column, mat, qubits, n, np.empty(column.size // 2, dtype=complex))
        assert column.tobytes() == np.ascontiguousarray(got.reshape(1 << n, -1)[:, j]).tobytes()
    idx = np.arange(1 << n)
    local = sum(((idx >> q) & 1) << j for j, q in enumerate(qubits))
    kept = np.isin(local, np.flatnonzero(np.diag(mat) == 1))
    assert got[kept].tobytes() == block[kept].tobytes()
    written = got[~kept].view(float)
    assert not np.signbit(written[written == 0]).any()
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(block))


def test_every_gate_kind_takes_the_butterfly_or_the_slice_path(monkeypatch):
    n, rng = 3, np.random.default_rng(4)
    block = rng.normal(size=(1 << n, 3)) + 1j * rng.normal(size=(1 << n, 3))
    cases = [(gate_matrix(kind, 0.7 if kind == "cp" else None), (2, 0)[:GATE_ARITY[kind]])
             for kind in GATE_ARITY if kind != "measure"]
    wants = []
    for mat, qubits in cases:
        wants.append(block.copy())
        apply_dense(wants[-1], mat, qubits, n)
    blas = []
    for name in ("matmul", "dot", "vdot", "einsum", "tensordot"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _real=real, **k: blas.append(a) or _real(*a, **k))
    for (mat, qubits), want in zip(cases, wants):
        got = block.copy()
        apply_matrix(got, mat, qubits, n, np.empty(block.size // 2, dtype=complex))
        assert np.max(np.abs(got - want)) <= 1e-15
    # the gate loop, the frame and a block of columns take the same two paths
    run_gates(random_clifford_circuit(6, 200, seed=11, measured=False))
    circuit_unitary(build_qft(6))
    run_gates(build_vqe(n, 3, seed=1), block.copy())
    assert blas == []
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    with pytest.raises(ValueError, match="one nonzero per row and column"):
        apply_matrix(block.copy(), q, (1,), n, np.empty(block.size // 2, dtype=complex))


def _unit_block(n, b, seed):
    block = _block(n, b, seed)
    return block / np.linalg.norm(block, axis=0)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10), st.sampled_from((1, 3, 8)), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((gate_matrix("h")[0, 0].real, -0.5, 2.0)))
def test_the_butterfly_is_within_an_ulp_of_the_matmul_path(n, b, seed, r):
    mat = r * np.array([[1, 1], [1, -1]], dtype=complex)
    block = _unit_block(n, b, seed)[:, 0] if b == 1 else _unit_block(n, b, seed)
    q = seed % n
    got, want = block.copy(), block.copy()
    apply_matrix(got, mat, (q,), n, np.empty(block.size // 2, dtype=complex))
    apply_dense(want, mat, (q,), n)
    assert np.max(np.abs(got - want)) <= 4.5e-16 * max(1.0, abs(r))


def test_gate_costs_tool_prints_a_row_per_kind_and_a_line_per_circuit(capsys):
    spec = importlib.util.spec_from_file_location(
        "gate_costs", Path(__file__).resolve().parents[1] / "tools" / "gate_costs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--n", "6", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ms per gate at n=6, median of 1"
    assert lines[1].split() == ["kind"] + [f"q{q}" for q in range(6)]
    rows = [line.split() for line in lines[2:-8]]
    assert [r[0] for r in rows] == [k for k in GATE_ARITY if k != "measure"]
    assert all(len(r) == 7 and all(float(t) >= 0 for t in r[1:]) for r in rows)
    starts = [(seed, start) for seed in (1, 2, 3) for start in ("zero", "initial")]
    assert len(lines) == 2 + len(rows) + len(starts) + 2
    for line, (seed, start) in zip(lines[-8:-2], starts):
        head = f"run_gates clifford n=6 depth=400 seed={seed} from={start}: "
        assert line.startswith(head) and line.endswith(" us/gate")
        assert float(line[len(head):-len(" us/gate")]) >= 0
    for line, head in zip(lines[-2:], ("marginal_probabilities n=6 measured=[1, 3, 5]: ",
                                       "equivalence_check qft-10 pair (exact marginals): ")):
        assert line.startswith(head) and line.endswith(" ms")
        assert float(line[len(head):-len(" ms")]) >= 0
