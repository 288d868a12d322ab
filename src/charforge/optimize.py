"""Four-pass pipeline: translate circuit segments to group elements and
rewrite them as shorter generator words.

Passes, in order:
  1. segment translation: greedy scan of maximal contiguous measure-free
     runs whose distinct gate unitaries (embedded over the segment's qubit
     support) close into a finite group within the configured caps;
  2. character tables for the closed segments (class count and irrep
     degrees, which the bench cost model reads);
  3. shortest-word rewrite from the Cayley-graph BFS table, phase
     insensitive by default;
  4. identity elision: segments whose product is (a global phase of) the
     identity are dropped.

Closure attempts are bounded by deterministic work and memory proxies in
addition to max_order, so the pipeline degrades to a no-op on segments
whose groups are too large to analyze at desk scale; such segments are
kept verbatim and logged.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .characters import character_table
from .circuits import Circuit, GateInstance, circuit_depth, gate_generators
from .errors import InvalidSpec, KeyCollision, OrderCapExceeded, TooWide
from .groups import ClosureConfig, FiniteMatrixGroup, close_group
from .histogram import check_shots, tv_distance
from .observables import Observable, random_pauli
from .statevector import (SV_MAX_QUBITS, expectation_of_state,
                          marginal_probabilities, run_gates, sample_histogram)


# builder cp angles are quantized to 10 significant digits for the text
# format, which drifts products by a few 1e-10 per multiplication; a
# 1e-8 closure tolerance keeps those drifts inside the merge zone
CLOSURE_TOL = 1e-8
# deterministic per-attempt bounds: flop proxy for the closure matmuls
# and byte proxies for element storage and the quadratic cayley table
CLOSURE_BUDGET_FLOPS = 2e10
CLOSURE_BUDGET_BYTES = float(2 ** 24)
ANALYSIS_MAX_CLASSES = 64
EQUIV_SHOTS = 100_000


@dataclass(frozen=True)
class OptimizeConfig:
    max_order: int = 20000
    phase_insensitive: bool = True
    equiv_seed: int = 97
    run_equivalence: bool = True


@dataclass
class WordTable:
    """Shortest generator words from a BFS of the Cayley graph.

    Words are sequences of slots into `generators`; the element equals the
    left-to-right matrix product of the slot matrices. Ties break toward the
    lowest generator slot, so among equal-length words the stored one is
    lexicographically smallest.
    """

    group: FiniteMatrixGroup
    generators: list[int]
    parent: np.ndarray
    parent_slot: np.ndarray
    word_length: np.ndarray

    def word(self, element: int) -> tuple[int, ...]:
        out = []
        cur = element
        while self.parent[cur] >= 0:
            out.append(int(self.parent_slot[cur]))
            cur = int(self.parent[cur])
        return tuple(reversed(out))

    def eccentricity(self) -> int:
        return int(self.word_length.max())


def build_word_table(group: FiniteMatrixGroup, generators: list[int] | None = None) -> WordTable:
    gens = list(group.generators) if generators is None else list(generators)
    n = group.order
    if not all(isinstance(g, (int, np.integer)) and 0 <= g < n for g in gens):
        raise InvalidSpec(f"generators must be element indices in [0, {n}), got {gens}")
    parent = np.full(n, -1, dtype=np.int64)
    parent_slot = np.full(n, -1, dtype=np.int64)
    dist = np.full(n, -1, dtype=np.int64)
    dist[0] = 0
    queue = [0]
    head = 0
    while head < len(queue):
        cur = queue[head]
        head += 1
        for slot, g in enumerate(gens):
            nxt = int(group.cayley[cur, g])
            if dist[nxt] < 0:
                dist[nxt] = dist[cur] + 1
                parent[nxt] = cur
                parent_slot[nxt] = slot
                queue.append(nxt)
    if np.any(dist < 0):
        raise InvalidSpec("generators do not generate the group")
    return WordTable(group, gens, parent, parent_slot, dist)


# -- segment scan ------------------------------------------------------------

@dataclass
class _Closure:
    """A closed segment group. The analyses below depend only on it, so the
    segments sharing a closure compute them once."""

    group: FiniteMatrixGroup
    templates: list[GateInstance]   # one per unique generator matrix
    gen_elements: list[int]         # element index per template
    template_of_key: dict[tuple, int]

    @cached_property
    def words(self) -> WordTable:
        return build_word_table(self.group, self.gen_elements)

    @cached_property
    def scalars(self) -> np.ndarray:
        """Indices of the scalar elements c*I: an element equals p up to a
        global phase iff it is p*s for one of them."""
        mats = self.group.mats
        eye = np.eye(mats.shape[1])
        dists = np.max(np.abs(mats - mats[:, :1, :1] * eye), axis=(1, 2))
        return np.nonzero(dists <= self.group.tol)[0]

    @cached_property
    def degrees(self) -> list[int]:
        """Irrep degrees, ascending; they do not depend on the table seed."""
        return character_table(self.group).degrees.tolist()


@dataclass
class SegmentRecord:
    start: int
    end: int
    support: tuple[int, ...]
    status: str                     # rewritten | kept | skipped-cap
    gates_before: int
    gates_after: int
    group_order: int | None = None
    k: int | None = None
    degrees: list[int] | None = None
    detail: str = ""


@dataclass
class EquivalenceVerdict:
    verdict: bool
    max_tv: float
    max_obs_deviation: float
    tv_tol: float
    obs_tol: float
    shots: int
    seed: int
    isometry: str | None = None

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class OptimizationReport:
    passes: list[tuple[str, str]] = field(default_factory=list)
    segments: list[SegmentRecord] = field(default_factory=list)
    gates_before: int = 0
    gates_after: int = 0
    depth_before: int = 0
    depth_after: int = 0
    iterations: int = 1
    equivalence: EquivalenceVerdict | None = None

    @property
    def segments_found(self) -> int:
        return len(self.segments)

    @property
    def segments_skipped(self) -> int:
        return sum(1 for s in self.segments if s.status == "skipped-cap")

    def to_json(self) -> dict:
        return {
            "passes": [{"name": n, "summary": s} for n, s in self.passes],
            "segments_found": self.segments_found,
            "segments_skipped": self.segments_skipped,
            "gates_before": self.gates_before,
            "gates_after": self.gates_after,
            "depth_before": self.depth_before,
            "depth_after": self.depth_after,
            "iterations": self.iterations,
            "segments": [{**asdict(s), "support": list(s.support)} for s in self.segments],
            "equivalence": self.equivalence.to_json() if self.equivalence else None,
        }


def _effective_cap(dim: int, n_gens: int, cfg: OptimizeConfig) -> int:
    flops_per_element = max(1.0, n_gens * 8.0 * dim ** 3)
    bytes_per_element = 16.0 * dim * dim
    cap = min(
        float(cfg.max_order),
        CLOSURE_BUDGET_FLOPS / flops_per_element,
        CLOSURE_BUDGET_BYTES / bytes_per_element,
        math.sqrt(CLOSURE_BUDGET_BYTES / 2.0),  # cayley is order^2 int16
    )
    return int(cap)


def _try_close(gates: list[GateInstance], cfg: OptimizeConfig,
               cache: dict) -> _Closure | None:
    support = tuple(sorted({q for g in gates for q in g.qubits}))
    keys = tuple(sorted(set(g.key() for g in gates), key=repr))
    cache_key = (support, keys)
    if cache_key in cache:
        return cache[cache_key]

    gen_mats, slots = gate_generators(gates, support)
    template_of_key = {g.key(): slot for g, slot in zip(gates, slots)}
    templates = [gates[slots.index(slot)] for slot in range(len(gen_mats))]

    cap = _effective_cap(1 << len(support), len(gen_mats), cfg)
    result: _Closure | None = None
    if cap >= 2:
        try:
            group = close_group(gen_mats, ClosureConfig(max_order=cap, tol=CLOSURE_TOL))
            result = _Closure(group, templates, list(group.generators), template_of_key)
        except (OrderCapExceeded, KeyCollision):
            # a key collision means the products are not tolerance-separated,
            # which only happens for dense (non-finite) generated sets
            result = None
    cache[cache_key] = result
    return result


def _scan_segments(body: tuple[GateInstance, ...], cfg: OptimizeConfig, cache: dict):
    """Greedy maximal runs: extend while the distinct gate set still closes
    under the caps. Yields (start, end, gates, closure-or-None)."""
    out = []
    start = 0
    current: list[GateInstance] = []
    closure: _Closure | None = None
    for i, g in enumerate(body):
        candidate = current + [g]
        cand_closure = _try_close(candidate, cfg, cache)
        if cand_closure is None:
            if current:
                out.append((start, i, current, closure))
            start = i
            current = [g]
            closure = _try_close(current, cfg, cache)
            if closure is None:
                out.append((start, i + 1, current, None))
                start = i + 1
                current = []
        else:
            current = candidate
            closure = cand_closure
    if current:
        out.append((start, len(body), current, closure))
    return out


def _rewrite_segment(gates: list[GateInstance], closure: _Closure,
                     cfg: OptimizeConfig, record: SegmentRecord) -> list[GateInstance]:
    group = closure.group
    record.group_order = group.order

    product = 0  # identity; gates apply left to right, so multiply on the left
    for g in gates:
        e = closure.gen_elements[closure.template_of_key[g.key()]]
        product = int(group.cayley[e, product])

    wt = closure.words
    candidates = [product]
    if cfg.phase_insensitive:  # every element equal to the product up to a global phase
        candidates = group.cayley[product, closure.scalars].tolist()
    best = min(candidates, key=lambda e: (int(wt.word_length[e]), wt.word(e)))
    word = wt.word(best)

    if len(group.classes) <= ANALYSIS_MAX_CLASSES:
        record.k, record.degrees = len(group.classes), list(closure.degrees)
    else:
        record.detail = f"analysis skipped: {len(group.classes)} classes"

    if len(word) < len(gates):
        record.status = "rewritten"
        # circuit gates compose right to left, so emit the word reversed
        return [closure.templates[slot] for slot in reversed(word)]
    record.status = "kept"
    return list(gates)


def _run_passes(body: tuple[GateInstance, ...], cfg: OptimizeConfig,
                cache: dict) -> tuple[list[GateInstance], list[SegmentRecord], dict]:
    new_body: list[GateInstance] = []
    records: list[SegmentRecord] = []
    stats = {"rewritten": 0, "dropped": 0, "tables": 0}
    for start, end, gates, closure in _scan_segments(body, cfg, cache):
        record = SegmentRecord(
            start=start, end=end,
            support=tuple(sorted({q for g in gates for q in g.qubits})),
            status="skipped-cap", gates_before=len(gates), gates_after=len(gates))
        if closure is None:
            record.detail = "closure exceeded the order/work caps"
            new_gates = list(gates)
        else:
            new_gates = _rewrite_segment(gates, closure, cfg, record)
            if record.k is not None:
                stats["tables"] += 1
            if record.status == "rewritten":
                stats["rewritten"] += 1
                if not new_gates:
                    stats["dropped"] += 1
        record.gates_after = len(new_gates)
        records.append(record)
        new_body.extend(new_gates)
    return new_body, records, stats


def optimize(c: Circuit, cfg: OptimizeConfig | None = None) -> tuple[Circuit, OptimizationReport]:
    """Run the pipeline to a fixed point; the measure suffix is preserved
    verbatim.

    A rewrite can dissolve the seal point that split two neighboring
    segments, so the passes repeat until the gate count stops changing; the
    result is idempotent by construction. Segment records in the report
    describe the first sweep (the analysis of the input circuit).
    """
    cfg = cfg or OptimizeConfig()
    body, suffix = c.body_and_suffix()
    report = OptimizationReport(
        gates_before=len(c.gates), depth_before=circuit_depth(c))

    cache: dict = {}
    current = body
    totals = {"rewritten": 0, "dropped": 0, "tables": 0}
    iterations = 0
    while True:
        iterations += 1
        new_body, records, stats = _run_passes(current, cfg, cache)
        if iterations == 1:
            report.segments = records
        for key in totals:
            totals[key] += stats[key]
        if len(new_body) == len(current):
            break
        current = tuple(new_body)

    out = Circuit(c.n_qubits, tuple(current) + suffix, name=c.name)
    report.gates_after = len(out.gates)
    report.depth_after = circuit_depth(out)
    report.iterations = iterations
    report.passes = [
        ("segment-translation",
         f"{report.segments_found} segment(s), {report.segments_skipped} past "
         f"the caps, {iterations} sweep(s) to fixed point"),
        ("character-tables", f"{totals['tables']} segment table(s) computed"),
        ("shortest-word-rewrite", f"{totals['rewritten']} segment(s) shortened"),
        ("identity-elision", f"{totals['dropped']} segment(s) elided"),
    ]

    if cfg.run_equivalence:
        # widen sampling for large outcome spaces so the sampled TV of equal
        # distributions stays under tv_tol
        narrow = min(c.n_qubits, out.n_qubits)
        shots = max(EQUIV_SHOTS, min(3200 * (1 << narrow), 4_000_000))
        report.equivalence = equivalence_check(c, out, shots=shots, seed=cfg.equiv_seed)
    return out, report


# -- operational equivalence (sampled form) ----------------------------------

def _product_state(n: int, rng: np.random.Generator, kind: str) -> np.ndarray:
    if kind == "basis":
        bits = rng.integers(0, 2, size=n)
        psi = np.zeros(1 << n, dtype=complex)
        psi[int(sum(int(b) << q for q, b in enumerate(bits)))] = 1.0
        return psi
    state = np.array([1.0 + 0.0j])
    for _ in range(n):
        theta = rng.uniform(0, math.pi)
        phi = rng.uniform(0, 2 * math.pi)
        q = np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)])
        state = np.kron(q, state)  # new qubit becomes the most significant
    return state


def equivalence_check(
    a: Circuit,
    b: Circuit,
    shots: int = 100_000,
    seed: int = 0,
    tv_tol: float = 0.02,
    obs_tol: float = 1e-7,
) -> EquivalenceVerdict:
    """Operational comparison over 8 seeded product input states: sampled
    computational-basis histograms (TV distance) and exact expectations of
    20 seeded random Pauli observables. Each histogram is one multinomial draw
    over the exact marginal, so `shots` sets the sampling noise, not the cost.

    When widths differ the narrower circuit is padded with |0> ancillas and
    all comparisons run on the narrow register.
    """
    check_shots(shots)
    n = max(a.n_qubits, b.n_qubits)
    if n > SV_MAX_QUBITS:
        raise TooWide(f"{n} qubits exceed the state-vector limit")
    narrow = min(a.n_qubits, b.n_qubits)
    isometry = None
    if a.n_qubits != b.n_qubits:
        isometry = (f"narrower circuit padded with {n - narrow} ancilla qubit(s) "
                    f"in |0>; comparisons restricted to qubits 0..{narrow - 1}")
    pa = Circuit(n, a.body_and_suffix()[0], name=a.name)
    pb = Circuit(n, b.body_and_suffix()[0], name=b.name)

    meas_a = [q for q in a.measured_qubits() if q < narrow]
    meas_b = [q for q in b.measured_qubits() if q < narrow]
    measured = meas_a if meas_a == meas_b else list(range(narrow))

    rng = np.random.default_rng(seed)
    states = [_product_state(n, rng, "basis") for _ in range(4)]
    states += [_product_state(n, rng, "rotated") for _ in range(4)]
    states[0] = np.zeros(1 << n, dtype=complex)
    states[0][0] = 1.0  # keep the all-zeros input in the set

    obs_rng = np.random.default_rng(seed + 1)
    observables = [random_pauli(narrow, obs_rng) for _ in range(20)]

    max_tv = 0.0
    max_dev = 0.0
    block = np.stack(states, axis=1)
    fa = run_gates(pa, block)
    fb = run_gates(pb, block)
    for idx in range(len(states)):
        probs_a = marginal_probabilities(fa[:, idx], measured, n)
        probs_b = marginal_probabilities(fb[:, idx], measured, n)
        ha = sample_histogram(probs_a, len(measured), shots,
                              np.random.default_rng([seed, idx, 0]))
        hb = sample_histogram(probs_b, len(measured), shots,
                              np.random.default_rng([seed, idx, 1]))
        max_tv = max(max_tv, tv_distance(ha, hb))
    for obs in observables:
        padded = Observable.from_pauli("I" * (n - narrow) + obs.pauli)
        dev = np.abs(expectation_of_state(fa, padded, n)
                     - expectation_of_state(fb, padded, n))
        max_dev = max(max_dev, float(dev.max()))

    return EquivalenceVerdict(
        max_tv=max_tv,
        max_obs_deviation=max_dev,
        verdict=(max_tv <= tv_tol and max_dev <= obs_tol),
        tv_tol=tv_tol,
        obs_tol=obs_tol,
        shots=shots,
        seed=seed,
        isometry=isometry,
    )
