"""Dense state-vector engine: the reference simulator and oracle.

Every gate, and every Pauli letter of an observable, goes through the gate loop
`circuits.apply_gates`: on a (2^n, B) block, B = 8 for `equivalence_check`, or
from |0...0> (`sv_run`) on a register of only the qubits a gate has taken out
of |0>. x, y and z only move its Pauli frame, applied in one pass at the end;
the kernel `apply_matrix` applies h as a butterfly and moves or scales only the
slices any other gate changes (a t, tdg or cp: one half or one quarter of the
amplitudes, by its phase). A histogram is one multinomial draw over the exact
marginal, its index broadcast on the (2,)*n grid. Qubit q is bit q of an index.
"""

from __future__ import annotations

import time

import numpy as np

from .circuits import Circuit, GateInstance, apply_gates, check_gates
from .errors import DimensionMismatch, InvalidSpec, TooWide
from .histogram import MeasurementHistogram, check_seed, check_shots
from .observables import Observable

SV_MAX_QUBITS = 22


def zero_state(n: int) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    return psi


def run_gates(c: Circuit, initial: np.ndarray | None = None) -> np.ndarray:
    """Evolve the measure-free body from |0...0> or a copy of `initial`, one state
    or a (2^n, B) block of column states; the trailing measure suffix is ignored.
    A non-numeric, ragged or non-finite `initial` raises InvalidSpec, and so does
    a malformed gate list."""
    check_gates(c)
    if c.n_qubits > SV_MAX_QUBITS:
        raise TooWide(f"{c.n_qubits} qubits exceed the state-vector limit {SV_MAX_QUBITS}")
    body, _ = c.body_and_suffix()
    if initial is None:
        return apply_gates(None, body, c.n_qubits)
    try:
        psi = np.array(initial, dtype=complex, order="C")
    except (TypeError, ValueError) as e:
        raise InvalidSpec(f"initial state must be an array of numbers ({e})") from None
    if psi.ndim not in (1, 2) or psi.shape[0] != 1 << c.n_qubits:
        raise DimensionMismatch(f"initial state of shape {psi.shape} is not (2^{c.n_qubits},) "
                                f"or (2^{c.n_qubits}, B)")
    if not np.isfinite(psi).all():
        raise InvalidSpec("initial state has a non-finite entry; its total probability is not finite")
    return apply_gates(psi, body, c.n_qubits)


def marginal_probabilities(psi: np.ndarray, measured: list[int], n: int) -> np.ndarray:
    """Probability vector over the measured qubits; outcome bit j of the
    returned index is measured[j], and the index is a broadcast sum on the (2,)*n
    grid, where qubit q is axis n-1-q. A zero or non-finite state raises InvalidSpec."""
    probs = np.abs(psi) ** 2
    out_idx = sum((np.arange(2) << j).reshape((2,) + (1,) * q) for j, q in enumerate(measured))
    marg = np.bincount(np.broadcast_to(out_idx, (2,) * n).ravel(), weights=probs, minlength=1 << len(measured))
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
    check_seed(seed)
    psi = run_gates(c, initial)
    if psi.ndim != 1:
        raise DimensionMismatch(f"sv_run needs one (2^{c.n_qubits},) state, got {psi.shape}")
    measured = c.measured_qubits()
    probs = marginal_probabilities(psi, measured, c.n_qubits)
    return sample_histogram(probs, len(measured), shots, np.random.default_rng(seed))


def expectation_of_state(psi: np.ndarray, obs: Observable, n: int) -> float | np.ndarray:
    """<psi|O|psi> of one state; of a (2^n, B) block, the array of the B
    column values. `psi` is not changed."""
    if len(obs.pauli) != n:
        raise DimensionMismatch(f"pauli string length {len(obs.pauli)} != {n} qubits")
    phi = apply_gates(np.ascontiguousarray(psi, dtype=complex), [  # x, y and z write only the frame
        GateInstance(obs.letter_for(q).lower(), (q,)) for q in range(n) if obs.letter_for(q) != "I"], n)
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
