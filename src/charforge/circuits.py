"""Circuit representation, text format, unitary construction, benchmark builders.

Conventions, fixed globally:
  * little-endian: qubit 0 is the least significant bit of a basis index;
  * two-qubit gate arguments are control first (cx/cp), symmetric gates
    (cz, swap) keep the written order;
  * gates apply left to right, so the circuit unitary is U = U_m ... U_1
    acting on column state vectors;
  * measure lines form a trailing suffix.

`apply_matrix` is the one gate-application kernel. It updates a (2^n, B)
block of column states in place; the state-vector engine calls it with B = 1
or 8, and `circuit_unitary` applies it to the 2^n identity columns. `embed_gate`
builds full-space generator matrices for the group closure only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AngleMissing, CircuitSyntaxError, InvalidSpec,
                     MeasurementInUnitary, QubitOutOfRange, TooWide)
from .linalg import canonical_keys

GATE_ARITY = {
    "h": 1, "x": 1, "y": 1, "z": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "cx": 2, "cz": 2, "cp": 2, "swap": 2,
    "measure": 1,
}

CLIFFORD_KINDS = frozenset({"h", "s", "sdg", "x", "y", "z", "cx", "cz"})

MAX_DENSE_QUBITS = 12


def canonical_angle(a: float) -> float:
    """Quantize to the 10 significant digits the serializer emits, so every
    builder circuit round-trips byte-exactly through the text format."""
    return float(f"{float(a):.10g}")


@dataclass(frozen=True)
class GateInstance:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def key(self) -> tuple:
        return (self.kind, self.qubits, self.angle)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple[GateInstance, ...]
    name: str = ""

    def body_and_suffix(self) -> tuple[tuple[GateInstance, ...], tuple[GateInstance, ...]]:
        split = len(self.gates)
        while split > 0 and self.gates[split - 1].kind == "measure":
            split -= 1
        return self.gates[:split], self.gates[split:]

    def measured_qubits(self) -> list[int]:
        """Qubits with a measure line, ascending; all qubits when none."""
        _, suffix = self.body_and_suffix()
        if not suffix:
            return list(range(self.n_qubits))
        return sorted(g.qubits[0] for g in suffix)


def gate(kind: str, *qubits: int, angle: float | None = None) -> GateInstance:
    return GateInstance(kind, tuple(qubits), canonical_angle(angle) if angle is not None else None)


# -- text format -------------------------------------------------------------

def parse_circuit(text: str, name: str = "") -> Circuit:
    n_qubits = None
    gates: list[GateInstance] = []
    seen_measure = False
    measured: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n_qubits is None:
            if tokens[0] != "qubits" or len(tokens) != 2:
                raise CircuitSyntaxError(line_no, f"expected 'qubits <n>', got {line!r}")
            try:
                n_qubits = int(tokens[1])
            except ValueError:
                raise CircuitSyntaxError(line_no, f"bad qubit count {tokens[1]!r}") from None
            if n_qubits < 1:
                raise CircuitSyntaxError(line_no, "qubit count must be positive")
            continue
        head = tokens[0]
        angle = None
        if "(" in head:
            kind, _, rest = head.partition("(")
            if not rest.endswith(")"):
                raise CircuitSyntaxError(line_no, f"unterminated angle in {head!r}")
            if kind != "cp":
                raise CircuitSyntaxError(line_no, f"gate {kind!r} takes no angle")
            try:
                angle = canonical_angle(float(rest[:-1]))
            except ValueError:
                raise CircuitSyntaxError(line_no, f"bad angle {rest[:-1]!r}") from None
        else:
            kind = head
        if kind not in GATE_ARITY:
            raise CircuitSyntaxError(line_no, f"unknown gate {kind!r}")
        if kind == "cp" and angle is None:
            raise AngleMissing(f"line {line_no}: cp requires an angle")
        arity = GATE_ARITY[kind]
        args = tokens[1:]
        if len(args) != arity:
            raise CircuitSyntaxError(
                line_no, f"{kind} takes {arity} qubit(s), got {len(args)}")
        try:
            qubits = tuple(int(a) for a in args)
        except ValueError:
            raise CircuitSyntaxError(line_no, f"bad qubit index in {args}") from None
        for q in qubits:
            if not 0 <= q < n_qubits:
                raise QubitOutOfRange(f"line {line_no}: qubit {q} outside [0, {n_qubits})")
        if len(set(qubits)) != len(qubits):
            raise CircuitSyntaxError(line_no, f"repeated qubit in {kind} {args}")
        if kind == "measure":
            if qubits[0] in measured:
                raise CircuitSyntaxError(line_no, f"qubit {qubits[0]} measured twice")
            measured.add(qubits[0])
            seen_measure = True
        elif seen_measure:
            raise CircuitSyntaxError(line_no, "gate after measure; measures must be a trailing suffix")
        gates.append(GateInstance(kind, qubits, angle))
    if n_qubits is None:
        raise CircuitSyntaxError(0, "empty circuit text; expected 'qubits <n>'")
    return Circuit(n_qubits=n_qubits, gates=tuple(gates), name=name)


def serialize_circuit(c: Circuit) -> str:
    lines = [f"qubits {c.n_qubits}"]
    for g in c.gates:
        args = " ".join(str(q) for q in g.qubits)
        if g.kind == "cp":
            lines.append(f"cp({g.angle:.10g}) {args}")
        else:
            lines.append(f"{g.kind} {args}")
    return "\n".join(lines) + "\n"


# -- unitaries ---------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)
_BASE_1Q = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.diag([1, 1j]).astype(complex),
    "sdg": np.diag([1, -1j]).astype(complex),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]).astype(complex),
}
# local basis for 2-qubit gates: bit 0 = qubits[0], bit 1 = qubits[1]
_BASE_2Q = {
    "cx": np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex),
}


def gate_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    """Local matrix of a gate, little-endian over its own qubit list."""
    if kind in _BASE_1Q:
        return _BASE_1Q[kind].copy()
    if kind in _BASE_2Q:
        return _BASE_2Q[kind].copy()
    if kind == "cp":
        if angle is None:
            raise AngleMissing("cp requires an angle")
        return np.diag([1, 1, 1, np.exp(1j * angle)]).astype(complex)
    raise ValueError(f"no matrix for gate kind {kind!r}")


def apply_matrix(psi: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int,
                 scratch: np.ndarray) -> None:
    """The one gate kernel: apply a local matrix (local bit j = qubits[j]) in
    place to a C-ordered (2^n, B) block of column states or one (2^n,) state,
    through the caller's (2, psi.size) complex `scratch`, so no gate allocates.
    The column axis moves to the front and the gate's axes to the back, so
    matmul runs once per column on the same (2^(n-k), 2^k) operand as a run
    of that column alone, and gives it the same bits."""
    k = len(qubits)
    src = (n,) + tuple(n - 1 - q for q in reversed(qubits))  # (column, bit_{k-1}, ..., bit_0)
    dst = (0,) + tuple(range(n + 1 - k, n + 1))
    t = np.moveaxis(psi.reshape([2] * n + [-1]), src, dst)
    gathered, product = scratch.reshape(2, t.shape[0], -1, 1 << k)
    np.copyto(gathered.reshape(t.shape), t)
    np.matmul(gathered, mat.T, out=product)
    np.copyto(t, product.reshape(t.shape))


def embed_gate(mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a gate matrix (local bit j = qubits[j]) into the full 2^n space."""
    k = len(qubits)
    dim = 1 << n
    if k == n and tuple(qubits) == tuple(range(n)):
        return mat.astype(complex)
    full0 = np.kron(np.eye(1 << (n - k), dtype=complex), mat)
    src_bits = list(qubits) + [q for q in range(n) if q not in qubits]
    idx = np.arange(dim)
    perm = np.zeros(dim, dtype=np.int64)
    for pos, q in enumerate(src_bits):
        perm |= ((idx >> pos) & 1) << q
    out = np.zeros((dim, dim), dtype=complex)
    out[np.ix_(perm, perm)] = full0
    return out


def gate_generators(gates, support: tuple[int, ...]) -> tuple[list[np.ndarray], list[int]]:
    """Distinct unitaries of `gates` embedded over `support` (local qubit i
    is support[i]), deduplicated by canonical key in first-seen order, and
    the position in that list of each gate's unitary."""
    pos = {q: i for i, q in enumerate(support)}
    distinct = list({g.key(): g for g in gates}.values())
    if not distinct:
        return [], []
    mats = np.stack([embed_gate(gate_matrix(g.kind, g.angle), tuple(pos[q] for q in g.qubits),
                                len(support)) for g in distinct])
    first: dict[bytes, int] = {}
    slots = [first.setdefault(k, len(first)) for k in canonical_keys(mats)]
    slot_of_gate = {g.key(): slot for g, slot in zip(distinct, slots)}
    return [mats[slots.index(s)] for s in range(len(first))], [slot_of_gate[g.key()] for g in gates]


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of a measure-free circuit; gates applied left to right."""
    if c.n_qubits > MAX_DENSE_QUBITS:
        raise TooWide(f"{c.n_qubits} qubits exceed the dense limit {MAX_DENSE_QUBITS}")
    body, suffix = c.body_and_suffix()
    if suffix:
        raise MeasurementInUnitary("circuit contains measure gates")
    u = np.eye(1 << c.n_qubits, dtype=complex)
    scratch = np.empty((2, u.size), dtype=complex)
    for g in body:
        apply_matrix(u, gate_matrix(g.kind, g.angle), g.qubits, c.n_qubits, scratch)
    return u


def circuit_depth(c: Circuit) -> int:
    """Longest path over shared qubits, measures included."""
    level = [0] * c.n_qubits
    for g in c.gates:
        d = 1 + max(level[q] for q in g.qubits)
        for q in g.qubits:
            level[q] = d
    return max(level, default=0)


# -- benchmark builders ------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkSpec:
    kind: str  # bv | qft | grover | vqe
    secret: str | None = None
    width: int | None = None
    marked: int | None = None
    iterations: int | None = None
    layers: int | None = None
    seed: int | None = None


def build_bv(secret: str) -> Circuit:
    """Hidden-string circuit on n+1 qubits; the rightmost secret character
    is qubit 0 and the ancilla is qubit n."""
    if not secret or any(ch not in "01" for ch in secret):
        raise InvalidSpec(f"secret must be a nonempty 0/1 string, got {secret!r}")
    n = len(secret)
    anc = n
    gates = [gate("x", anc), gate("h", anc)]
    gates += [gate("h", q) for q in range(n)]
    gates += [gate("cx", q, anc) for q in range(n) if secret[n - 1 - q] == "1"]
    gates += [gate("h", q) for q in range(n)]
    gates.append(gate("h", anc))
    gates += [gate("measure", q) for q in range(n)]
    return Circuit(n + 1, tuple(gates), name=f"bv-{secret}")


def build_qft(n: int) -> Circuit:
    if n < 1:
        raise InvalidSpec("qft width must be >= 1")
    gates = []
    for i in range(n - 1, -1, -1):
        gates.append(gate("h", i))
        for j in range(i - 1, -1, -1):
            gates.append(gate("cp", j, i, angle=math.pi / (1 << (i - j))))
    for i in range(n // 2):
        gates.append(gate("swap", i, n - 1 - i))
    return Circuit(n, tuple(gates), name=f"qft-{n}")


def _mcp(theta: float, controls: list[int], target: int) -> list[GateInstance]:
    if len(controls) == 1:
        return [gate("cp", controls[0], target, angle=theta)]
    last, rest = controls[-1], controls[:-1]
    out = [gate("cp", last, target, angle=theta / 2)]
    out += _mcx(rest, last)
    out.append(gate("cp", last, target, angle=-theta / 2))
    out += _mcx(rest, last)
    out += _mcp(theta / 2, rest, target)
    return out


def _mcx(controls: list[int], target: int) -> list[GateInstance]:
    if len(controls) == 1:
        return [gate("cx", controls[0], target)]
    return [gate("h", target), *_mcp(math.pi, controls, target), gate("h", target)]


def _mcz(qubits: list[int]) -> list[GateInstance]:
    if len(qubits) == 1:
        return [gate("z", qubits[0])]
    if len(qubits) == 2:
        return [gate("cz", qubits[0], qubits[1])]
    return _mcp(math.pi, qubits[:-1], qubits[-1])


def default_grover_iterations(n: int) -> int:
    return max(1, round(math.pi / 4 * math.sqrt(2 ** n)))


def build_grover(n: int, marked: int, iterations: int | None = None) -> Circuit:
    if n < 1 or not 0 <= marked < 2 ** n:
        raise InvalidSpec(f"marked item {marked} outside [0, 2^{n})")
    iters = default_grover_iterations(n) if iterations is None else iterations
    if iters < 1:
        raise InvalidSpec("iterations must be >= 1")
    allq = list(range(n))
    gates = [gate("h", q) for q in allq]
    zeros = [q for q in allq if not (marked >> q) & 1]
    for _ in range(iters):
        gates += [gate("x", q) for q in zeros]
        gates += _mcz(allq)
        gates += [gate("x", q) for q in zeros]
        gates += [gate("h", q) for q in allq]
        gates += [gate("x", q) for q in allq]
        gates += _mcz(allq)
        gates += [gate("x", q) for q in allq]
        gates += [gate("h", q) for q in allq]
    return Circuit(n, tuple(gates), name=f"grover-{n}-m{marked}")


def build_vqe(n: int, layers: int, seed: int) -> Circuit:
    """Fixed seeded ansatz over {h, s, t} single-qubit layers with a cx
    entangling ladder. A stand-in: unitary benchmark only, no variational
    loop or observable."""
    if n < 1 or layers < 1:
        raise InvalidSpec("vqe needs width >= 1 and layers >= 1")
    rng = np.random.default_rng(seed)
    choices = ("h", "s", "t")
    gates = []
    for _ in range(layers):
        for q in range(n):
            gates.append(gate(choices[rng.integers(len(choices))], q))
        for q in range(n - 1):
            gates.append(gate("cx", q, q + 1))
    return Circuit(n, tuple(gates), name=f"vqe-{n}-l{layers}")


def build_benchmark(spec: BenchmarkSpec) -> Circuit:
    if spec.kind == "bv":
        if spec.secret is None:
            raise InvalidSpec("bv needs a secret bit string")
        return build_bv(spec.secret)
    if spec.kind == "qft":
        if spec.width is None:
            raise InvalidSpec("qft needs a width")
        return build_qft(spec.width)
    if spec.kind == "grover":
        if spec.width is None or spec.marked is None:
            raise InvalidSpec("grover needs width and marked item")
        return build_grover(spec.width, spec.marked, spec.iterations)
    if spec.kind == "vqe":
        if spec.width is None or spec.layers is None or spec.seed is None:
            raise InvalidSpec("vqe needs width, layers, and a seed")
        return build_vqe(spec.width, spec.layers, spec.seed)
    raise InvalidSpec(f"unknown benchmark kind {spec.kind!r}")


def random_clifford_circuit(n: int, depth: int, seed: int, measured: bool = True) -> Circuit:
    """Seeded random circuit over the Clifford gate kinds, used for the
    stabilizer-vs-statevector cross checks."""
    rng = np.random.default_rng(seed)
    one_q = ("h", "s", "sdg", "x", "y", "z")
    gates = []
    for _ in range(depth):
        if n >= 2 and rng.random() < 0.35:
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(gate(("cx", "cz")[rng.integers(2)], int(a), int(b)))
        else:
            gates.append(gate(one_q[rng.integers(len(one_q))], int(rng.integers(n))))
    if measured:
        gates += [gate("measure", q) for q in range(n)]
    return Circuit(n, tuple(gates), name=f"clifford-{n}-d{depth}-s{seed}")
