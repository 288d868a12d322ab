"""The four benchmark workloads: seeded inputs, operations and output checks.

Every operation calls charforge's public functions, the same ones the CLI
subcommands call. A workload is a fixed cycle of operation kinds (sizes)
repeated `cycles` times; only the drawn contents (secrets, marked items,
circuit seeds, elements) differ between cycles, so every run of a workload
at one `--seconds` has the same size mix and the same operation count. No
input repeats within a run: CLI users start a fresh process per command, so
memoisation across calls must not lift a number they would never see.

Checks run after the timed phase and compare against oracle.py, against the
other simulator, or against values the acceptance tests pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from charforge import cli
from charforge.algebra import decomposition_report_json, delta
from charforge.characters import (central_idempotents, character_table,
                                  isotypic_projectors, verify_orthogonality)
from charforge.circuits import (BenchmarkSpec, Circuit, GateInstance,
                                build_benchmark, build_qft, circuit_unitary,
                                gate, parse_circuit, random_clifford_circuit,
                                serialize_circuit)
from charforge.claims import run_claims
from charforge.errors import OrderCapExceeded
from charforge.fixtures import fixture_group
from charforge.groups import ClosureConfig, element_of
from charforge.optimize import OptimizeConfig, equivalence_check, optimize
from charforge.statevector import sv_run
from charforge.tableau import tableau_run

import oracle

# Tolerances pinned by tests/test_acceptance.py (AC1, AC3, AC6).
RESIDUAL_TOL = 1e-8
# Sampled TV between two 100k-shot histograms over at most 64 outcomes has a
# mean near 0.013; 0.04 leaves a wide margin without hiding a wrong simulator.
# Wider histograms are compared on their lowest 6 bits (64 outcomes).
SIM_TV_BOUND = 0.04
SIM_TV_BITS = 6
# A random stabilizer bit is a fair coin: allow six standard deviations.
BINOMIAL_SIGMAS = 6.0


@dataclass
class Op:
    kind: str                              # size class, e.g. "optimize/grover-4"
    inputs: tuple                          # what the program is given; never repeats
    run: Callable[[], Any]                 # the timed call
    check: Callable[[Any], str | None]     # None when the output is right
    counts: Callable[[Any], tuple]         # deterministic counts of the output
    expect_error: type | None = None       # an exception that is the right answer


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([seed, *path])


def _body(c: Circuit):
    return c.body_and_suffix()[0]


# -- optimize-suites ----------------------------------------------------------

OPT_SUITES = ("bv", "qft", "grover", "vqe")
# grover-5 (184 segments, about 15 s alone) does not fit one run, so grover-4
# is the widest, where segment counts and closure retries grow. It runs twice
# in place of grover-3: the two largest operations of the 15 are then of one
# kind, and op_p90_ms (the 14th) is a grover-4 time rather than whichever of
# grover-3, qft-5 and vqe-5 came second.
OPT_WIDTHS = {"bv": (2, 3, 4, 5), "qft": (2, 3, 4, 5),
              "grover": (2, 4, 4), "vqe": (2, 3, 4, 5)}


def _bits_with_weight(n: int, weight: int, rng: np.random.Generator) -> int:
    return sum(1 << int(q) for q in rng.choice(n, size=weight, replace=False))


def _opt_spec(suite: str, n: int, rng: np.random.Generator) -> BenchmarkSpec:
    """The specs charforge.bench draws, with the property that sets the
    optimizer's cost held fixed: the number of cx gates in bv (the secret's
    weight), the oracle's x gates in grover (the marked item's weight) and
    the mix of h, s and t in each layer of the vqe ansatz (only their order
    is drawn). Left free, one draw of bv-3 costs 0.08 s and another 1.2 s,
    and one run's 15 operations cannot average that out."""
    if suite == "bv":
        secret = _bits_with_weight(n, (n + 1) // 2, rng)
        return BenchmarkSpec(kind="bv", secret=format(secret, f"0{n}b"))
    if suite == "qft":
        return BenchmarkSpec(kind="qft", width=n)
    if suite == "grover":
        return BenchmarkSpec(kind="grover", width=n, marked=_bits_with_weight(n, n // 2, rng))
    mix = sorted((["h", "s", "t"] * n)[:n])
    while True:
        spec = BenchmarkSpec(kind="vqe", width=n, layers=2, seed=int(rng.integers(2 ** 31)))
        kinds = [g.kind for g in build_benchmark(spec).gates if g.kind != "cx"]
        if all(sorted(kinds[i:i + n]) == mix for i in range(0, len(kinds), n)):
            return spec


def _opt_check(pair):
    (c, (out, report)) = pair
    if len(out.gates) > len(c.gates):
        return f"{c.name}: gate count grew {len(c.gates)} -> {len(out.gates)}"
    u_in = oracle.unitary(_body(c), c.n_qubits)
    u_out = oracle.unitary(_body(out), out.n_qubits)
    if not oracle.equal_up_to_phase(u_out, u_in, RESIDUAL_TOL):
        return f"{c.name}: output unitary differs from the input's"
    return None


def _opt_counts(pair):
    c, (out, report) = pair
    closed = sum(1 for s in report.segments if s.status != "skipped-cap")
    return (len(c.gates), len(out.gates), report.segments_found, closed)


def optimize_suites(seed: int, cycles: int) -> list[Op]:
    cfg = OptimizeConfig(run_equivalence=False)
    ops = []
    seen = set()
    for cyc in range(cycles):
        for si, suite in enumerate(OPT_SUITES):
            rng = _rng(seed, 1, cyc, si)
            for n in OPT_WIDTHS[suite]:
                c = build_benchmark(_opt_spec(suite, n, rng))
                while c.gates in seen:  # the two grover-4 draws must differ
                    c = build_benchmark(_opt_spec(suite, n, rng))
                seen.add(c.gates)
                ops.append(Op(f"optimize/{suite}-{n}", (c,),
                              lambda c=c: (c, optimize(c, cfg)),
                              _opt_check, _opt_counts))
    return ops


# -- verify-wide --------------------------------------------------------------

EQ_WIDTHS = (8, 9, 10)
# n=16 (1 MiB state) fits one core's 2 MiB L2 and n=20 (16 MiB) does not;
# n=17 rather than 18, whose time is close to equiv n=8's and would make
# op_p50_ms flip between the two
SV_WIDTHS = (16, 17, 20)
SV_DEPTH = 400
SV_SHOTS = 100_000
# a perturbed copy must sit this far from the original on |0...0> so that
# the sampled verdict cannot call it equivalent (tv_tol is 0.02)
PERTURB_MIN_TV = 0.25


def _equiv_shots(n: int) -> int:
    # the rule optimize() uses for its own equivalence check
    return max(100_000, min(3200 * (1 << n), 4_000_000))


def _perturbed(c: Circuit, rng: np.random.Generator) -> Circuit:
    """c with one h appended on a drawn qubit where the oracle's TV on
    |0...0> moves by PERTURB_MIN_TV; QFT of a basis state always has one,
    the qubit whose output phase is 0 or pi."""
    body, suffix = c.body_and_suffix()
    p0 = oracle.zero_state_probs(body, c.n_qubits)
    for q in rng.permutation(c.n_qubits):
        cand = body + (gate("h", int(q)),)
        if oracle.tv(oracle.zero_state_probs(cand, c.n_qubits), p0) >= PERTURB_MIN_TV:
            return Circuit(c.n_qubits, cand + suffix, name=c.name + "-perturbed")
    raise RuntimeError(f"no perturbation of {c.name} is far enough from it")


def _same_answer(a: Circuit, b: Circuit, rng: np.random.Generator) -> bool:
    """Oracle: a and b act identically on |0...0> and on two random states."""
    n = a.n_qubits
    cols = np.zeros((1 << n, 3), dtype=complex)
    cols[0, 0] = 1.0
    cols[:, 1:] = rng.standard_normal((1 << n, 2)) + 1j * rng.standard_normal((1 << n, 2))
    return np.allclose(oracle.evolve(_body(a), n, cols), oracle.evolve(_body(b), n, cols),
                       atol=1e-12, rtol=0)


def _eq_op(n: int, basis: int, perturb: bool, rng: np.random.Generator) -> Op:
    # QFT of a seeded basis state: every basis input gives an output of full
    # support, so the sampler's cost does not depend on the drawn content
    prep = tuple(gate("x", q) for q in range(n) if basis >> q & 1)
    a = Circuit(n, prep + build_qft(n).gates + tuple(gate("measure", q) for q in range(n)),
                name=f"qft-{n}-from-{basis}")
    if perturb:
        b = _perturbed(a, rng)
        expected = False
    else:
        b = parse_circuit(serialize_circuit(a), name=a.name + "-copy")
        expected = _same_answer(a, b, rng)
    shots = _equiv_shots(n)
    eq_seed = int(rng.integers(2 ** 31))

    def check(v):
        if v.verdict != expected:
            return (f"equiv n={n}: verdict {v.verdict}, oracle says {expected} "
                    f"(max_tv {v.max_tv:.4f})")
        return None

    return Op(f"equiv/n{n}", (a, b),
              lambda: equivalence_check(a, b, shots=shots, seed=eq_seed),
              check,
              lambda v: (n, expected, v.verdict, v.shots, len(_body(a)) + len(_body(b))))


def _sv_op(n: int, rng: np.random.Generator) -> Op:
    c = random_clifford_circuit(n, SV_DEPTH, seed=int(rng.integers(2 ** 31)), measured=False)
    measured = sorted(int(q) for q in rng.choice(n, size=4, replace=False))
    c = Circuit(n, c.gates + tuple(gate("measure", q) for q in measured), name=c.name)
    sv_seed, tab_seed = (int(x) for x in rng.integers(2 ** 31, size=2))

    def check(hist):
        ref = tableau_run(c, SV_SHOTS, tab_seed)
        d = oracle.histogram_tv(hist, ref)
        if d > SIM_TV_BOUND:
            return f"sv_run n={n}: TV {d:.4f} from tableau_run exceeds {SIM_TV_BOUND}"
        return None

    return Op(f"sv_run/n{n}", (c,), lambda: sv_run(c, SV_SHOTS, sv_seed), check,
              lambda h: (n, len(_body(c)), h.shots, len(h.counts)))


def verify_wide(seed: int, cycles: int) -> list[Op]:
    draw = _rng(seed, 2)
    bases = {n: draw.permutation(1 << n) for n in EQ_WIDTHS}
    ops = []
    i = 0
    for cyc in range(cycles):
        for n in EQ_WIDTHS:
            ops.append(_eq_op(n, int(bases[n][cyc]), bool(i % 2), _rng(seed, 2, cyc, n)))
            i += 1
        for n in SV_WIDTHS:
            ops.append(_sv_op(n, _rng(seed, 2, cyc, n)))
    return ops


# -- stabilizer-wide ----------------------------------------------------------

STAB_WIDTHS = tuple(range(32, 65, 4))     # 9 widths, two random circuits each
STAB_DEPTH_PER_QUBIT = 40
STAB_SHOTS = 1000
STAB_SMALL_N = 12                          # cross-checked against sv_run
STAB_SMALL_SHOTS = 100_000
STAB_WIDE_N = 256
HADAMARD_NARROW = range(32, 65)            # at most 64 random outcomes
HADAMARD_WIDE = range(65, 257)             # more than 64: tableau_run overflows


def _all_h(n: int) -> Circuit:
    return Circuit(n, tuple(gate("h", q) for q in range(n))
                   + tuple(gate("measure", q) for q in range(n)), name=f"hadamard-{n}")


def _bits_check(hist) -> str | None:
    freq = oracle.bit_frequencies(hist)
    bound = BINOMIAL_SIGMAS * 0.5 / math.sqrt(hist.shots)
    bad = [j for j, f in enumerate(freq)
           if not (f == 0.0 or f == 1.0 or abs(f - 0.5) <= bound)]
    if bad:
        return f"bits {bad[:5]} have frequencies {freq[bad[:5]].round(4).tolist()}"
    return None


def _tab_op(c: Circuit, shots: int, rng: np.random.Generator) -> Op:
    tab_seed, sv_seed = (int(x) for x in rng.integers(2 ** 31, size=2))

    def check(hist):
        bad = _bits_check(hist)
        if bad:
            return f"{c.name}: {bad}"
        if c.n_qubits <= STAB_SMALL_N:
            d = oracle.histogram_tv(hist, sv_run(c, shots, sv_seed), low_bits=SIM_TV_BITS)
            if d > SIM_TV_BOUND:
                return f"{c.name}: TV {d:.4f} from sv_run exceeds {SIM_TV_BOUND}"
        return None

    return Op(f"tableau/n{c.n_qubits}", (c,), lambda: tableau_run(c, shots, tab_seed), check,
              lambda h: (c.n_qubits, len(_body(c)), h.shots, len(h.counts)))


_ONE_Q = ("h", "s", "sdg", "x", "y", "z")
_TWO_Q = ("cx", "cz")


def _clifford_circuit(n: int, depth: int, rng: np.random.Generator) -> Circuit:
    """The gate distribution of charforge's random_clifford_circuit (35% cx
    or cz on a random pair, else a random one-qubit Clifford), drawn in bulk:
    per gate it costs a tenth of the package's builder, which would
    otherwise be most of this workload's set-up time."""
    two = (rng.random(depth) < 0.35).tolist()
    k1 = rng.integers(len(_ONE_Q), size=depth).tolist()
    k2 = rng.integers(len(_TWO_Q), size=depth).tolist()
    a = rng.integers(n, size=depth)
    b = ((a + 1 + rng.integers(n - 1, size=depth)) % n).tolist()
    gates = [GateInstance(_TWO_Q[j2], (x, y)) if t else GateInstance(_ONE_Q[j1], (x,))
             for t, j1, j2, x, y in zip(two, k1, k2, a.tolist(), b)]
    gates += [GateInstance("measure", (q,)) for q in range(n)]
    return Circuit(n, tuple(gates), name=f"clifford-{n}-d{depth}")


def stabilizer_wide(seed: int, cycles: int) -> list[Op]:
    draw = _rng(seed, 3)
    narrow = draw.permutation(np.array(HADAMARD_NARROW))
    wide = draw.permutation(np.array(HADAMARD_WIDE))
    ops = []
    for cyc in range(cycles):
        rng = _rng(seed, 3, cyc)
        for n in STAB_WIDTHS:
            for _ in range(2):
                c = _clifford_circuit(n, STAB_DEPTH_PER_QUBIT * n, rng)
                ops.append(_tab_op(c, STAB_SHOTS, rng))
        ops.append(_tab_op(_all_h(int(narrow[2 * cyc])), STAB_SHOTS, rng))
        ops.append(_tab_op(_all_h(int(narrow[2 * cyc + 1])), STAB_SHOTS, rng))
        c = _clifford_circuit(STAB_SMALL_N, STAB_DEPTH_PER_QUBIT * STAB_SMALL_N, rng)
        ops.append(_tab_op(c, STAB_SMALL_SHOTS, rng))
        ops.append(_tab_op(_all_h(int(wide[cyc])), STAB_SHOTS, rng))
        c = _clifford_circuit(STAB_WIDE_N, 20 * STAB_WIDE_N, rng)
        ops.append(_tab_op(c, STAB_SHOTS, rng))
    return ops


# -- analyze-groups -----------------------------------------------------------

# fixture name -> order; each op decomposes a drawn element of the fixture
FIXTURE_ORDERS = {"d4": 8, "q8": 8, "clifford1": 192}

# (qubits, gate set, group order, ops per cycle): Clifford-type gate sets of
# orders 16..9216. Per cycle, six operations (three fixtures and the first
# three sets) take under 60 ms and six take over 100 ms, so the median
# operation lies among the four of {h, cx, cx} and is a median of several
# similar times rather than one operation's.
GATE_SETS = (
    (1, (("h", 0), ("z", 0)), 16, 1),
    (1, (("h", 0), ("s", 0)), 192, 1),
    (2, (("x", 0), ("z", 1), ("cx", 0, 1), ("h", 1)), 256, 1),
    (3, (("h", 0), ("cx", 0, 1), ("cx", 1, 2)), 512, 4),
    (3, (("z", 0), ("x", 1), ("cx", 0, 2), ("swap", 0, 1)), 512, 1),
    (2, (("h", 0), ("h", 1), ("cz", 0, 1)), 2304, 1),
    (2, (("h", 0), ("s", 0), ("cx", 0, 1)), 3072, 1),
    (2, (("h", 0), ("h", 1), ("s", 1), ("swap", 0, 1)), 9216, 1),
)
WORD_EXTRA = 12
# {h, t} generates an infinite group; variants keep every input distinct
CAP_VARIANTS = tuple((t, extra, flip) for t in ("t", "tdg")
                     for extra in (None, "s", "x", "z") for flip in (False, True))
# claim statuses and residuals pinned by AC4
CLAIM_PINS = {"C1": "holds", "C2": "fails", "C3": "holds-conditionally", "C4": "holds",
              "C5": "holds", "C6": "fails", "C7": "holds"}


def _decompose_summary(group, table, element, compact=None):
    orth = verify_orthogonality(table).max_residual()
    idem = central_idempotents(group, table)
    projs = isotypic_projectors(group, table)
    report = decomposition_report_json(delta(group, element), table, idem, projs)
    return {"order": group.order, "k": table.k, "element": element,
            "degree_sq_sum": int(np.sum(table.degrees.astype(np.int64) ** 2)),
            "orth": orth, "recon": report["reconstruction_residual"],
            "matrix": report["matrix_residual"], "compact": compact,
            "element_matrix": group.mats[element].copy() if element is not None else None}


def _residual_check(s, expected_order: int) -> str | None:
    if s["order"] != expected_order:
        return f"order {s['order']}, expected {expected_order}"
    if s["degree_sq_sum"] != s["order"]:
        return f"sum d^2 = {s['degree_sq_sum']} != |G| = {s['order']}"
    for key in ("orth", "recon", "matrix"):
        if not s[key] <= RESIDUAL_TOL:
            return f"{key} residual {s[key]:.2e} exceeds {RESIDUAL_TOL}"
    return None


def _fixture_op(name: str, element: int, table_seed: int) -> Op:
    def run():
        group = fixture_group(name)
        return _decompose_summary(group, character_table(group, seed=table_seed), element)

    return Op(f"decompose/{name}", (name, element), run,
              lambda s: _residual_check(s, FIXTURE_ORDERS[name]),
              lambda s: (s["order"], s["k"], s["element"]))


def _gate_set_op(n: int, gates, order: int, rng: np.random.Generator) -> Op:
    relabel = rng.permutation(n)
    gens = [gate(kind, *(int(relabel[q]) for q in qs)) for kind, *qs in gates]
    # every generator at least once; the shuffle also draws the order in
    # which circuit_gate_group meets them, and so the closure's BFS order
    word = gens + [gens[int(i)] for i in rng.integers(len(gens), size=WORD_EXTRA)]
    word = [word[int(i)] for i in rng.permutation(len(word))]
    circuit = Circuit(n, tuple(word), name=f"gateset-{n}q-{order}")
    table_seed = int(rng.integers(2 ** 31))

    def run():
        group, _, compact = cli.circuit_gate_group(circuit, ClosureConfig())
        element = element_of(group, circuit_unitary(compact))
        table = character_table(group, seed=table_seed)
        return _decompose_summary(group, table, element, compact)

    def check(s):
        if s["element"] is None:
            return f"{circuit.name}: circuit unitary not found in its group"
        c = s["compact"]
        if not oracle.equal_up_to_phase(s["element_matrix"], oracle.unitary(c.gates, c.n_qubits),
                                        RESIDUAL_TOL):
            return f"{circuit.name}: element {s['element']} is not the circuit's unitary"
        bad = _residual_check(s, order)
        return f"{circuit.name}: {bad}" if bad else None

    return Op(f"decompose/{n}q-{order}-{len(gates)}gens", (circuit,), run, check,
              lambda s: (s["order"], s["k"], s["element"]))


def _claims_op(claims_seed: int) -> Op:
    def run():
        rep = run_claims(seed=claims_seed)
        return {r.claim_id: (r.status, r.residual) for r in rep.results}

    def check(res):
        got = {cid: st for cid, (st, _) in res.items()}
        if got != CLAIM_PINS:
            return f"claims statuses {got}"
        if abs(res["C2"][1] - 1.0) > 1e-12 or abs(res["C6"][1] - 9.0) > 1e-9 \
                or res["C5"][1] != 0.0:
            return f"claims residuals C2={res['C2'][1]} C5={res['C5'][1]} C6={res['C6'][1]}"
        return None

    return Op("claims", ("claims", claims_seed), run, check,
              lambda res: tuple(sorted(res.items())))


def _cap_op(variant) -> Op:
    t, extra, flip = variant
    gates = [gate("h", 0), gate(t, 0)]
    if flip:
        gates.reverse()
    if extra:
        gates.append(gate(extra, 0))
    circuit = Circuit(1, tuple(gates), name=f"dense-{t}-{extra}-{flip}")
    return Op("decompose/cap", (circuit,),
              lambda: cli.circuit_gate_group(circuit, ClosureConfig()),
              lambda _: f"{circuit.name}: closure returned a finite group",
              lambda r: (type(r).__name__,),
              expect_error=OrderCapExceeded)


def analyze_groups(seed: int, cycles: int) -> list[Op]:
    draw = _rng(seed, 4)
    elements = {name: draw.permutation(order) for name, order in FIXTURE_ORDERS.items()}
    claim_seeds = draw.choice(2 ** 20, size=cycles, replace=False)
    caps = draw.permutation(len(CAP_VARIANTS))
    ops = []
    for cyc in range(cycles):
        rng = _rng(seed, 4, cyc)
        for name in FIXTURE_ORDERS:
            ops.append(_fixture_op(name, int(elements[name][cyc]), int(rng.integers(2 ** 31))))
        for n, gates, order, per_cycle in GATE_SETS:
            ops += [_gate_set_op(n, gates, order, rng) for _ in range(per_cycle)]
        ops.append(_claims_op(int(claim_seeds[cyc])))
        ops.append(_cap_op(CAP_VARIANTS[int(caps[cyc])]))
    return ops


@dataclass(frozen=True)
class Workload:
    build: Callable[[int, int], list[Op]]
    cycle_s: float     # one cycle's wall time at the defining commit, 2-core x86
    max_cycles: int    # cycles before some input would repeat


WORKLOADS = {
    # qft has no free parameter, so a second cycle would repeat its inputs
    "optimize-suites": Workload(optimize_suites, 23.0, 1),
    "verify-wide": Workload(verify_wide, 18.5, 1 << min(EQ_WIDTHS)),
    "stabilizer-wide": Workload(stabilizer_wide, 2.5, len(HADAMARD_NARROW) // 2),
    "analyze-groups": Workload(analyze_groups, 12.5, min(min(FIXTURE_ORDERS.values()),
                                                         len(CAP_VARIANTS))),
}


def cycles_for(name: str, seconds: float) -> int:
    """Whole cycles whose wall time at the defining commit is nearest to
    `seconds`; the count depends on `seconds` only, never on the machine, so
    every run of a workload does the same operations."""
    w = WORKLOADS[name]
    return max(1, min(w.max_cycles, round(seconds / w.cycle_s)))


def build_plan(name: str, seed: int, seconds: float) -> list[Op]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[name].build(seed, cycles_for(name, seconds))
