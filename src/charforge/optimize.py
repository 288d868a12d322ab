"""Three-pass pipeline: translate circuit segments to group elements and
rewrite them as shorter generator words.

Passes, in order:
  1. segment translation: greedy scan of maximal contiguous measure-free
     runs whose distinct gate unitaries (embedded over the segment's qubit
     support) close into a finite group within the configured caps;
  2. shortest-word rewrite from a BFS of the Cayley graph over the
     generator columns, phase insensitive by default;
  3. identity elision: segments whose product is (a global phase of) the
     identity are dropped.

The caps bound each closure's work and memory as well as its order; a segment
past them, or whose gate unitaries collide within groups.TOL, is
kept verbatim and logged. The rewrite reads only the generator tables
(FiniteMatrixGroup.right); the scalars of a closure and the embedding of a
seed read its matrices (`mats`). `_close` closes a gate list once per support and key set in an
`optimize` call, extending the closure H of the list without its last gate
when H's templates lead; a count of H's cosets, or Lagrange when the gate
adds qubits, refutes most over-cap groups before any BFS. The scan carries a
segment as its parts, each with its closure, and `_grow` closes only the part
a new gate joins: in phase-insensitive mode the parts share no qubit and the
segment's order is their product's, held to the whole segment's cap, with no
order cached; phase-sensitive mode keeps one part, the segment. A segment's
word depends on its own gates only: ties break by the first position of each
generator in the segment, whose gates are emitted.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from .circuits import Circuit, GateInstance, check_circuit, circuit_depth, embed_gate, gate_generators, gate_matrix
from .errors import InvalidSpec, KeyCollision, OrderCapExceeded, TooWide
from .fixtures import X, Z
from .groups import TOL, ClosureConfig, FiniteMatrixGroup, close_group, walk
from .histogram import _is_int, _is_real, check_seed, check_shots
from .observables import Observable, random_pauli
from .statevector import SV_MAX_QUBITS, expectation_of_state, marginal_probabilities, run_gates


# deterministic per-attempt bounds: flop proxy for the closure matmuls
# and byte proxy for element storage
CLOSURE_BUDGET_FLOPS = 2e10
CLOSURE_BUDGET_BYTES = float(2 ** 24)
# the order whose int16 Cayley table fills CLOSURE_BUDGET_BYTES, 2,896. The
# optimizer builds no Cayley table, but the cap stays: without it the three
# segments of bench row bv-2 close as one of order 4,608, which changes its
# rewrite, and the 20 bench rows take twice the time
CAYLEY_ORDER_CAP = math.sqrt(CLOSURE_BUDGET_BYTES / 2.0)
# the status of a segment kept verbatim because it has no closure, with its record's detail
SKIPPED = {"skipped-cap": "closure exceeded the order/work caps",
           "skipped-collision": "key collision: gate unitaries or their products lie between TOL "
                                "and 8*TOL apart, so the set is not tolerance-separated"}


@dataclass(frozen=True)
class OptimizeConfig:
    max_order: int = 20000
    phase_insensitive: bool = True
    equiv_seed: int = 97
    run_equivalence: bool = True

    def __post_init__(self):
        ClosureConfig(max_order=self.max_order)  # the closure's rule for max_order
        for name in ("phase_insensitive", "run_equivalence"):
            if not isinstance(getattr(self, name), bool):
                raise InvalidSpec(f"{name} must be a bool, got {getattr(self, name)!r}")
        check_seed(self.equiv_seed)


@dataclass
class WordTable:
    """Shortest words over the input generators from a BFS of the Cayley
    graph along the columns of `right`.

    Words are sequences of slots into group.input_elements; the element equals
    the left-to-right matrix product of the slot matrices. Ties break toward
    the lowest slot, so among equal-length words the stored one is
    lexicographically smallest.
    """

    parent: np.ndarray
    parent_slot: np.ndarray
    word_length: np.ndarray

    def word(self, element: int) -> tuple[int, ...]:
        out = []
        while self.parent[element] >= 0:
            out.append(int(self.parent_slot[element]))
            element = int(self.parent[element])
        return tuple(reversed(out))


def build_word_table(group: FiniteMatrixGroup, order: list[int] | None = None) -> WordTable:
    """The BFS over the input slots in `order`, a list or tuple that permutes
    them (all, in index order, by default); InvalidSpec for any other `order`."""
    # close_group found every element along `right` (in any `order`), so the BFS reaches them all
    n, k = group.right.shape
    if order is not None and not (isinstance(order, (list, tuple)) and all(map(_is_int, order))
                                  and sorted(order) == list(range(k))):
        raise InvalidSpec(f"order must be a permutation of the {k} input slots, got {order!r}")
    right = group.right if order is None else group.right[:, order]
    parent, parent_slot, dist = (np.full(n, -1, dtype=np.int64) for _ in range(3))
    dist[0] = 0
    # BFS by levels; a level's queue order is the (element, slot) order of first meeting
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        nxt = right[frontier].ravel()
        fresh = np.flatnonzero(dist[nxt] < 0)
        first = fresh[np.sort(np.unique(nxt[fresh], return_index=True)[1])]
        dist[nxt[first]] = dist[frontier[0]] + 1
        parent[nxt[first]] = frontier[first // k]
        parent_slot[nxt[first]] = first % k
        frontier = nxt[first]
    return WordTable(parent, parent_slot, dist)


# -- segment scan ------------------------------------------------------------

@dataclass
class _Closure:
    """A closed segment group, shared with its tables by segments of one gate set."""

    group: FiniteMatrixGroup
    templates: list[GateInstance]   # one per input generator of the group
    template_of_key: dict[tuple, int]

    @cached_property
    def words(self) -> WordTable:
        return build_word_table(self.group)

    @cached_property
    def scalars(self) -> np.ndarray:
        """Indices of the scalar elements c*I: an element equals p up to a
        global phase iff it is p*s for one of them."""
        mats = self.group.mats
        # a scalar's first row and column are zero off the diagonal, real and
        # imaginary parts alike: only the few elements that pass that take the
        # full distance
        edge = np.concatenate([mats[:, 0, 1:], mats[:, 1:, 0]], axis=1).view(np.float64)
        cand = np.flatnonzero(np.all(np.abs(edge) <= TOL, axis=1))
        dists = np.max(np.abs(mats[cand] - mats[cand, :1, :1] * np.eye(mats.shape[1])), axis=(1, 2))
        return cand[dists <= TOL]

    @cached_property
    def phase_equal(self) -> np.ndarray:
        """Row i, column p: the index of mats[p] times the i-th scalar, which
        is the scalar times mats[p], a scalar being central; column p holds the
        elements equal to p up to a global phase."""
        return self.group.columns(self.scalars)


_Part = tuple[list[GateInstance], _Closure, frozenset[int]]  # gates, their closure, their qubits
_Segment = tuple[int, list[_Part]]  # group order, parts


@dataclass
class SegmentRecord:
    start: int
    end: int
    support: tuple[int, ...]
    status: str                     # rewritten | kept | skipped-cap | skipped-collision
    gates_before: int
    gates_after: int
    group_order: int | None = None
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
        return sum(1 for s in self.segments if s.status in SKIPPED)

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
        CAYLEY_ORDER_CAP,
    )
    return int(cap)


def _outside(gates: list[GateInstance]) -> bool:
    """True when gates[-1] fails to commute with X or Z on a qubit that gates[:-1]
    do not touch, so that it is not in their closure embedded over the new support."""
    g, old = gates[-1], {q for x in gates[:-1] for q in x.qubits}
    new = [i for i, q in enumerate(g.qubits) if q not in old]
    local = gate_matrix(g.kind, g.angle)
    paulis = [embed_gate(p, (i,), len(g.qubits)) for i in new for p in (X, Z)]
    return any(np.max(np.abs(local @ p - p @ local)) > 2 * TOL for p in paulis)


def _seed(base: _Closure, gates: list[GateInstance], support: tuple[int, ...]) -> FiniteMatrixGroup:
    """base.group, the closure of gates[:-1], embedded over `support`; its
    lookup is made on first use."""
    h, old = base.group, _support(gates[:-1])
    if len(old) == len(support):
        return h
    mats = embed_gate(h.mats, tuple(map(support.index, old)), len(support))
    return replace(h, dim=1 << len(support), mats=mats, _lookup=None)


def _support(gates: list[GateInstance]) -> tuple[int, ...]:
    return tuple(sorted({q for g in gates for q in g.qubits}))


def _key(gates: list[GateInstance]) -> tuple:
    return _support(gates), frozenset(g.key() for g in gates)


def _close(gates: list[GateInstance], cfg: OptimizeConfig, cache: dict,
           base: _Closure | None = None) -> _Closure | str:
    """The closure of `gates`, cached by support and key set, or its SKIPPED
    status past the caps or at a key collision; the generators come from
    gate_generators. When the templates of `base`, the closure H of gates[:-1], lead those of
    `gates`, close_group extends H, counting its cosets first, which
    renumbers the elements only; otherwise the closure starts fresh. A gate
    on new qubits outside H gives 2|H| or more elements (Lagrange): past the
    cap if 2|H| is, so H is not embedded."""
    key = _key(gates)
    if key in cache:
        return cache[key]
    support, result = key[0], "skipped-cap"
    try:
        mats, slots = gate_generators(gates, support)
        templates = [gates[slots.index(s)] for s in range(len(mats))]
        cap = _effective_cap(1 << len(support), len(mats), cfg)
        if cap >= 2 and not (base is not None and 2 * base.group.order > cap and _outside(gates)):
            leads = base is not None and templates[:len(base.templates)] == base.templates
            seed = _seed(base, gates, support) if leads else None
            group = close_group(mats, ClosureConfig(max_order=cap), seed)
            result = _Closure(group, templates, {g.key(): s for g, s in zip(gates, slots)})
    except OrderCapExceeded:
        pass
    except KeyCollision:
        # the generators or their products are not tolerance-separated, which
        # only happens for dense (non-finite) sets
        result = "skipped-collision"
    cache[key] = result
    return result


def _grow(gates: list[GateInstance], parts: list[_Part], cfg: OptimizeConfig, cache: dict) -> _Segment | str:
    """The order and parts of the segment `gates`, whose `parts` (each in gate
    order, with its closure and qubits) cover gates[:-1], or its SKIPPED status
    past the caps or at a key collision. The last gate joins the parts it shares
    a qubit with, phase sensitive every part, since a part would need a word for each scalar
    multiple; only that joined part is closed, from the carried closure when it
    joins one part and from its closure without the gate when it joins several.
    Up to scalars the product is direct, and its scalars, cyclic like the
    parts', number lcm(s_i); it is held to the whole segment's cap, with the
    parts' templates as its generators."""
    g = gates[-1]
    hit = [i for i, (_, _, qs) in enumerate(parts) if not cfg.phase_insensitive or not qs.isdisjoint(g.qubits)]
    qubits = frozenset(g.qubits).union(*(parts[i][2] for i in hit))
    joined = parts[hit[0]][0] + [g] if len(hit) == 1 else [x for x in gates if x.qubits[0] in qubits]
    base = parts[hit[0]][1] if len(hit) == 1 else _close(joined[:-1], cfg, cache) if hit else None
    closure = _close(joined, cfg, cache, base if isinstance(base, _Closure) else None)
    if isinstance(closure, str):
        return closure
    parts = [p for i, p in enumerate(parts) if i not in hit]
    parts.insert(hit[0] if hit else len(parts), (joined, closure, qubits))
    if len(parts) == 1:
        return closure.group.order, parts
    cap = _effective_cap(1 << sum(len(qs) for _, _, qs in parts), sum(len(c.templates) for _, c, _ in parts), cfg)
    scalars = [len(c.scalars) for _, c, _ in parts]
    order = math.lcm(*scalars) * math.prod(c.group.order // s for (_, c, _), s in zip(parts, scalars))
    return (order, parts) if 2 <= cap and order <= cap else "skipped-cap"


def _scan_segments(body: tuple[GateInstance, ...], cfg: OptimizeConfig, cache: dict):
    """Greedy maximal runs: extend while the distinct gate set still closes
    under the caps, carrying the segment's parts from gate to gate. Yields
    (start, end, gates, _grow's result)."""
    start, current, closed = 0, [], None
    for i, g in enumerate(body):
        grown = _grow(current + [g], closed[1] if current else [], cfg, cache)
        if isinstance(grown, str) and current:  # end the segment and start the next at g
            yield start, i, current, closed
            start, current = i, []
            grown = _grow([g], [], cfg, cache)
        if isinstance(grown, str):  # g alone is past the caps or collides
            yield i, i + 1, [g], grown
            start = i + 1
        else:
            current, closed = current + [g], grown
    if current:
        yield start, len(body), current, closed


def _rewrite_segment(gates: list[GateInstance], closed: _Segment, cfg: OptimizeConfig) -> list[GateInstance]:
    """`gates` as each part's shortest word for its product, or in
    phase-insensitive mode for any element equal to it up to a global phase,
    merged; `gates` itself unless that is shorter. Among words of one length
    the smallest wins, each slot ranked by the position of its first gate in
    `gates`, whatever gate list the closures were cached from."""
    words = []
    for part, c, _ in closed[1]:
        first: dict[int, int] = {}  # c's slots -> the position of their first gate, in that order
        for i, g in enumerate(gates):
            if g.key() in c.template_of_key:
                first.setdefault(c.template_of_key[g.key()], i)
        ranked, at = list(first), list(first.values())
        wt = c.words if ranked == sorted(ranked) else build_word_table(c.group, ranked)
        product = walk(c.group.right, [c.template_of_key[g.key()] for g in part])
        candidates = c.phase_equal[:, product].tolist() if cfg.phase_insensitive else [product]
        best = min(candidates, key=lambda e: (int(wt.word_length[e]), wt.word(e)))
        words.append([at[s] for s in wt.word(best)])
    # the parts' positions are disjoint, so the smallest interleaving takes the smaller head
    word = list(heapq.merge(*words))
    # circuit gates compose right to left, so emit the word reversed
    return [gates[i] for i in reversed(word)] if len(word) < len(gates) else list(gates)


def _run_passes(body: tuple[GateInstance, ...], cfg: OptimizeConfig,
                cache: dict) -> tuple[list[GateInstance], list[SegmentRecord]]:
    new_body: list[GateInstance] = []
    records: list[SegmentRecord] = []
    for start, end, gates, closed in _scan_segments(body, cfg, cache):
        skipped = isinstance(closed, str)
        new_gates = list(gates) if skipped else _rewrite_segment(gates, closed, cfg)
        status = closed if skipped else "rewritten" if len(new_gates) < len(gates) else "kept"
        records.append(SegmentRecord(
            start=start, end=end, support=_support(gates), status=status, gates_before=len(gates),
            gates_after=len(new_gates), group_order=None if skipped else closed[0],
            detail=SKIPPED.get(status, "")))
        new_body.extend(new_gates)
    return new_body, records


def optimize(c: Circuit, cfg: OptimizeConfig | None = None) -> tuple[Circuit, OptimizationReport]:
    """Run the pipeline to a fixed point; the measure suffix is preserved
    verbatim.

    A rewrite can dissolve the seal point that split two neighboring
    segments, so the passes repeat until the gate count stops changing; the
    result is idempotent by construction. Segment records in the report
    describe the first sweep (the analysis of the input circuit).
    """
    check_circuit(c)
    cfg = cfg or OptimizeConfig()
    body, suffix = c.body_and_suffix()
    report = OptimizationReport(
        gates_before=len(c.gates), depth_before=circuit_depth(c))

    cache: dict = {}
    current = body
    shortened = elided = iterations = 0
    while True:
        iterations += 1
        new_body, records = _run_passes(current, cfg, cache)
        if iterations == 1:
            report.segments = records
        rewritten = [r for r in records if r.status == "rewritten"]
        shortened += len(rewritten)
        elided += sum(1 for r in rewritten if r.gates_after == 0)
        if len(new_body) == len(current):
            break
        current = tuple(new_body)

    out = Circuit(c.n_qubits, tuple(current) + suffix, name=c.name)
    report.gates_after = len(out.gates)
    report.depth_after = circuit_depth(out)
    report.iterations = iterations
    collided = sum(1 for s in report.segments if s.status == "skipped-collision")
    report.passes = [
        ("segment-translation",
         f"{report.segments_found} segment(s), {report.segments_skipped - collided} past "
         f"the caps, {collided} at a key collision, {iterations} sweep(s) to fixed point"),
        ("shortest-word-rewrite", f"{shortened} segment(s) shortened"),
        ("identity-elision", f"{elided} segment(s) elided"),
    ]

    if cfg.run_equivalence:
        report.equivalence = equivalence_check(c, out, seed=cfg.equiv_seed)
    return out, report


# -- operational equivalence ------------------------------------------------

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
    """Operational comparison over 8 seeded product input states: the TV
    distance of the exact computational-basis marginals on the measured
    qubits (half the fsum of their absolute differences, so identical circuits
    read 0.0) and exact expectations of 20 seeded random Pauli observables.
    `seed` draws the input states and the observables. Nothing is sampled:
    `shots` must be at least 1 and is reported in the verdict, but it does
    not change the verdict.

    When widths differ the narrower circuit is padded with |0> ancillas and
    all comparisons run on the narrow register.
    """
    check_circuit(a)
    check_circuit(b)
    check_shots(shots)
    check_seed(seed)
    for name, tol in (("tv_tol", tv_tol), ("obs_tol", obs_tol)):
        if not _is_real(tol) or tol < 0:
            raise InvalidSpec(f"{name} must be finite and >= 0, got {tol!r}")
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

    max_tv = max_dev = 0.0
    block = np.stack(states, axis=1)
    fa = run_gates(pa, block)
    fb = run_gates(pb, block)
    for idx in range(len(states)):
        ma, mb = (marginal_probabilities(f[:, idx], measured, n) for f in (fa, fb))
        max_tv = max(max_tv, 0.5 * math.fsum(np.abs(ma - mb).tolist()))
    for obs in observables:
        padded = Observable.from_pauli("I" * (n - narrow) + obs.pauli)
        dev = np.abs(expectation_of_state(fa, padded, n)
                     - expectation_of_state(fb, padded, n))
        max_dev = max(max_dev, float(dev.max()))

    return EquivalenceVerdict(
        verdict=(max_tv <= tv_tol and max_dev <= obs_tol), max_tv=max_tv, max_obs_deviation=max_dev,
        tv_tol=tv_tol, obs_tol=obs_tol, shots=shots, seed=seed, isometry=isometry)
