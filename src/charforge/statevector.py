"""Dense state-vector engine: the reference simulator and oracle.

Every gate, and every Pauli letter of an observable, goes through the one
kernel `circuits.apply_matrix`, which applies a local matrix in place to a
(2^n, B) block of column states: B = 1 for `sv_run`, B = 8 for the input
states of `equivalence_check`. The full 2^n x 2^n circuit matrix is never
built here. A histogram is one multinomial draw over the exact marginal.
Basis indices are little-endian: qubit q is bit q.
"""

from __future__ import annotations

import time

import numpy as np

from .circuits import Circuit, apply_matrix, gate_matrix
from .errors import DimensionMismatch, InvalidSpec, TooWide
from .histogram import MeasurementHistogram, check_shots
from .observables import Observable

SV_MAX_QUBITS = 22


def zero_state(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def run_gates(c: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Evolve the measure-free body; the trailing measure suffix is ignored.
    `initial`, one state or a (2^n, B) block of column states, is copied."""
    if c.n_qubits > SV_MAX_QUBITS:
        raise TooWide(f"{c.n_qubits} qubits exceed the state-vector limit {SV_MAX_QUBITS}")
    body, _ = c.body_and_suffix()
    psi = zero_state(c.n_qubits) if initial is None else np.array(initial, dtype=complex, order="C")
    if psi.ndim not in (1, 2) or psi.shape[0] != 1 << c.n_qubits:
        raise DimensionMismatch(f"initial state of shape {psi.shape} is not (2^{c.n_qubits},) "
                                f"or (2^{c.n_qubits}, B)")
    scratch = np.empty((2, psi.size), dtype=complex)
    for g in body:
        apply_matrix(psi, gate_matrix(g.kind, g.angle), g.qubits, c.n_qubits, scratch)
    return psi


def marginal_probabilities(psi: np.ndarray, measured: list[int], n: int) -> np.ndarray:
    """Probability vector over the measured qubits; outcome bit j of the
    returned index is measured[j]. A zero or non-finite state raises InvalidSpec."""
    probs = np.abs(psi) ** 2
    idx = np.arange(probs.size)
    out_idx = np.zeros(probs.size, dtype=np.int64)
    for j, q in enumerate(measured):
        out_idx |= ((idx >> q) & 1) << j
    marg = np.bincount(out_idx, weights=probs, minlength=1 << len(measured))
    total = marg.sum()  # a sum of |psi|^2 weights, never negative
    if not (np.isfinite(total) and total > 0):
        raise InvalidSpec(f"state has total probability {total}; it must be finite and positive")
    return marg / total


def sample_histogram(
    probs: np.ndarray, n_bits: int, shots: int, rng: np.random.Generator
) -> MeasurementHistogram:
    """`shots` draws from `probs` as one Multinomial(shots, probs) draw, whose cost
    grows with probs.size, not with `shots`; keys are the outcomes drawn, ascending."""
    counts = rng.multinomial(shots, probs)
    return MeasurementHistogram(
        shots=shots,
        counts={format(int(v), f"0{n_bits}b"): int(counts[v]) for v in np.flatnonzero(counts)},
    )


def sv_run(
    c: Circuit, shots: int, seed: int, initial: np.ndarray | None = None
) -> MeasurementHistogram:
    """Evolve one state, then sample the measured qubits (all qubits when the
    circuit has no measure suffix)."""
    check_shots(shots)
    if initial is not None and np.shape(initial) != (1 << c.n_qubits,):
        raise DimensionMismatch(f"sv_run needs one (2^{c.n_qubits},) state, got {np.shape(initial)}")
    psi = run_gates(c, initial)
    measured = c.measured_qubits()
    probs = marginal_probabilities(psi, measured, c.n_qubits)
    return sample_histogram(probs, len(measured), shots, np.random.default_rng(seed))


def expectation_of_state(psi: np.ndarray, obs: Observable, n: int) -> float | np.ndarray:
    """<psi|O|psi> of one state; of a (2^n, B) block, the array of the B
    column values. `psi` is not changed."""
    if obs.pauli is not None:
        if len(obs.pauli) != n:
            raise ValueError(f"pauli string length {len(obs.pauli)} != {n} qubits")
        phi = np.array(psi, dtype=complex, order="C")
        scratch = np.empty((2, phi.size), dtype=complex)
        for q in range(n):
            letter = obs.letter_for(q)
            if letter != "I":
                apply_matrix(phi, gate_matrix(letter.lower()), (q,), n, scratch)
    else:
        if obs.matrix.shape[0] != psi.shape[0]:
            raise ValueError("observable dimension does not match the state")
        phi = obs.matrix @ psi
    a, b = psi.reshape(psi.shape[0], -1), phi.reshape(phi.shape[0], -1)
    vals = obs.coeff * np.array([np.vdot(a[:, j], b[:, j]) for j in range(a.shape[1])])
    if np.max(np.abs(vals.imag)) > 1e-9:
        raise AssertionError(f"expectation has imaginary part {np.max(np.abs(vals.imag)):.3e}")
    return float(vals[0].real) if psi.ndim == 1 else vals.real


def sv_expectation(c: Circuit, obs: Observable,
                   initial: np.ndarray | None = None) -> float | np.ndarray:
    """<psi0| U^dag O U |psi0> from |0...0>, a supplied state, or each column of a block."""
    psi = run_gates(c, initial)
    return expectation_of_state(psi, obs, c.n_qubits)


def time_gate_loop(c: Circuit, repeats: int) -> list[float]:
    """Wall-clock seconds around the gate-application loop only, one entry
    per repeat. Parsing, setup, and sampling are excluded."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_gates(c)
        out.append(time.perf_counter() - t0)
    return out
