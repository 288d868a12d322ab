"""Circuit representation, text format, unitary construction, benchmark builders.

Conventions, fixed globally:
  * little-endian: qubit 0 is the least significant bit of a basis index;
  * two-qubit gate arguments are control first (cx/cp), symmetric gates
    (cz, swap) keep the written order;
  * gates apply left to right, so the circuit unitary is U = U_m ... U_1
    acting on column state vectors;
  * measure lines form a trailing suffix;
  * `check_gates` is the one check of a gate list; `parse_circuit` only reads tokens.

`apply_gates` is the one gate loop, carrying x, y and z as a Pauli frame, and
`apply_matrix` the one gate kernel, in place in a (2^n, B) block: B = 1 or 8 in
the state-vector engine, 2^n in `circuit_unitary`. From |0...0> the loop
instead grows a register of only the qubits a gate has taken out of |0>. The
frame is applied once, at the end, in one pass that writes a new state. h is a
butterfly, and every other gate updates only the slices it changes, with no
BLAS call and the same bits in a block's column as alone; zeros are +0.0 but
the butterfly's, which follow IEEE. `embed_gate` and `gate_generators` build
and merge the full-space generators of a closure, within groups.TOL, as
close_group merges elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (AngleMissing, CircuitSyntaxError, InvalidSpec,
                     MeasurementInUnitary, QubitOutOfRange, TooWide)
from .groups import ElementLookup
from .histogram import _is_int, _is_real, check_seed, check_type

GATE_ARITY = {
    "h": 1, "x": 1, "y": 1, "z": 1, "s": 1, "sdg": 1, "t": 1, "tdg": 1,
    "cx": 2, "cz": 2, "cp": 2, "swap": 2,
    "measure": 1,
}

_PLAIN_ARITY = {kind: arity for kind, arity in GATE_ARITY.items() if kind not in ("cp", "measure")}

MAX_DENSE_QUBITS = 12


def canonical_angle(a: float) -> float:
    """Quantize to the 10 significant digits the serializer emits, so every
    builder circuit round-trips byte-exactly through the text format. Raises
    InvalidSpec for an angle that is not a finite real, as check_gates does:
    a non-finite angle's gate matrix is not unitary."""
    if not _is_real(a):
        raise InvalidSpec(f"angle must be finite and real, got {a!r}")
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

    def __post_init__(self) -> None:
        check_gates(self)

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


def check_gates(c: Circuit) -> None:
    """Run by every `Circuit` when it is built. Raises InvalidSpec, in this order, for a width that
    is not an integer >= 1 (a bool is not), gates that are not a tuple of GateInstance with a str
    kind and a tuple of qubits, a qubit that is not an integer (a numpy integer is, a bool is not),
    per gate an unknown kind, a wrong or repeated qubit count or an angle but a cp's finite one
    (AngleMissing for none), a measure not on one qubit, twice or with an angle, a qubit outside
    [0, n) (QubitOutOfRange), and a measure before a gate. A refused list stays refused whatever
    is appended, as `parse_circuit` relies on."""
    n, gates = c.n_qubits, c.gates
    if not _is_int(n) or n < 1:
        raise InvalidSpec(f"a circuit needs an integer count of at least one qubit, got {n!r}")
    if type(gates) is not tuple:
        raise InvalidSpec(f"gates must be a tuple of GateInstance, got a {type(gates).__name__}")
    qubits = []
    for g in gates:
        if type(g) is not GateInstance or type(g.kind) is not str or type(g.qubits) is not tuple:
            raise InvalidSpec(f"gate {g!r} is not a GateInstance with a str kind and a tuple of qubits")
        qubits += g.qubits
    # _is_int inlined: a call per qubit doubles the cost of this pass
    bad = [q for q in qubits if type(q) is not int and not isinstance(q, np.integer)]
    if bad:
        raise InvalidSpec(f"qubit indices must be integers, got {bad[0]!r}")
    measures = []
    for g in gates:
        q, arity = g.qubits, _PLAIN_ARITY.get(g.kind)  # None for cp, measure and unknown kinds
        if len(q) != arity or g.angle is not None or (arity == 2 and q[0] == q[1]):
            kind, arity = g.kind, GATE_ARITY.get(g.kind)
            if kind == "measure":
                measures.append(g)
            elif arity is None:
                raise InvalidSpec(f"unknown gate {kind!r} at position {gates.index(g)}")
            elif len(q) != arity or (arity == 2 and q[0] == q[1]):
                raise InvalidSpec(f"gate {kind} {list(q)} at position {gates.index(g)} "
                                  f"needs {arity} distinct qubit(s)")
            elif kind != "cp" or not _is_real(g.angle):
                raise (AngleMissing if g.angle is None else InvalidSpec)(
                    f"gate {kind} at position {gates.index(g)} has angle {g.angle!r}; only cp takes one, finite")
    measured = [q for g in measures for q in g.qubits]
    if len(set(measured)) != len(measured) or any(len(g.qubits) != 1 or g.angle is not None for g in measures):
        raise InvalidSpec(f"measure lines {measured} must each name one qubit, none twice, and take no angle")
    if qubits and (min(qubits) < 0 or max(qubits) >= n):
        g = next(g for g in gates if not all(0 <= q < n for q in g.qubits))
        raise QubitOutOfRange(f"gate {g.kind} {list(g.qubits)} at position {gates.index(g)}: qubit outside [0, {n})")
    if gates[len(gates) - len(measures):] != tuple(measures):
        raise InvalidSpec(f"measure at position {gates.index(measures[0])} precedes a gate; "
                          "measures must be a trailing suffix")


def check_circuit(c) -> None:
    """Raises InvalidSpec naming the type of a `c` that is not a Circuit."""
    if not isinstance(c, Circuit):
        raise InvalidSpec(f"expected a Circuit, got {type(c).__name__}")


def gate(kind: str, *qubits: int, angle: float | None = None) -> GateInstance:
    return GateInstance(kind, tuple(qubits), canonical_angle(angle) if angle is not None else None)


# -- text format -------------------------------------------------------------

def parse_circuit(text: str, name: str = "") -> Circuit:
    """Read the text format, checking only what needs the text: the `qubits <n>` header, a
    `kind(angle)` head's finite float and integer qubit tokens. The Circuit checks the gates; the
    error of a refused list is put on the line that ends its shortest refused prefix. A `text` that
    is not a str raises InvalidSpec."""
    if not isinstance(text, str):
        raise InvalidSpec(f"circuit text must be a str, got {type(text).__name__}")
    n_qubits, gates, lines = None, [], []  # lines[k]: the line that ends the first k gates
    def read(convert, token, what: str):  # a token convert refuses is an error on its line
        try:
            return convert(token)
        except (ValueError, InvalidSpec):
            raise CircuitSyntaxError(line_no, f"bad {what} {token!r}") from None

    def circuit() -> Circuit:  # a refused list stays refused whatever is appended: bisect for its prefix
        try:
            return Circuit(n_qubits, tuple(gates), name)
        except (InvalidSpec, QubitOutOfRange, AngleMissing) as exc:
            lo, hi, error = -1, len(gates), exc  # prefix hi is refused, prefix lo accepted (-1: none known)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                Circuit(n_qubits, tuple(gates[:mid]))
                lo = mid
            except (InvalidSpec, QubitOutOfRange, AngleMissing) as exc:
                hi, error = mid, exc
        raise (CircuitSyntaxError(lines[hi], str(error)) if isinstance(error, InvalidSpec)
               else type(error)(f"line {lines[hi]}: {error}")) from None

    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            if n_qubits is None:
                if tokens[0] != "qubits" or len(tokens) != 2:
                    raise CircuitSyntaxError(line_no, f"expected 'qubits <n>', got {' '.join(tokens)!r}")
                n_qubits = read(int, tokens[1], "qubit count")
            else:
                kind, paren, angle = tokens[0].partition("(")
                if paren and not angle.endswith(")"):
                    raise CircuitSyntaxError(line_no, f"unterminated angle in {tokens[0]!r}")
                angle = read(lambda a: canonical_angle(float(a)), angle[:-1], "angle") if paren else None
                qubits = read(lambda t: tuple(map(int, t)), tokens[1:], "qubit index in")
                gates.append(GateInstance(kind, qubits, angle))
            lines.append(line_no)
    except CircuitSyntaxError:
        if n_qubits is not None:  # a list refused on an earlier line is reported there
            circuit()
        raise
    if n_qubits is None:
        raise CircuitSyntaxError(0, "empty circuit text; expected 'qubits <n>'")
    return circuit()


def serialize_circuit(c: Circuit) -> str:
    check_circuit(c)
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
        return np.diag([1, 1, 1, np.exp(1j * float(angle))]).astype(complex)
    raise ValueError(f"no matrix for gate kind {kind!r}")


def apply_matrix(psi: np.ndarray, mat: np.ndarray, qubits: tuple[int, ...], n: int,
                 scratch: np.ndarray) -> None:
    """The one gate kernel: apply a local matrix (local bit j = qubits[j]) in
    place to a C-ordered (2^n, B) block of column states or one (2^n,) state,
    through the caller's complex `scratch` of psi.size // 2, so no gate
    allocates. A matrix with one nonzero per row and column (all gates but h)
    writes only the (2,)*n sub-slices it changes, along permutation cycles
    (`scratch` holds a cycle's first slice). An entry +-1 or +-i is exact; any
    other w is src*Re w + src*(i Im w), each with one rounded real product per
    part, so its bits do not depend on the strides, as those of src*w do.
    A real r*[[1, 1], [1, -1]] (h) is a butterfly. Zeros are written as +0.0
    but the butterfly's, which follow IEEE; any other matrix is a ValueError."""
    nonzero = [[(j, v) for j, v in enumerate(row) if v] for row in mat.tolist()]
    rows = [row[0] for row in nonzero if len(row) == 1]  # (source column, entry) per row
    monomial, r = len(rows) == len(mat) == len({s for s, _ in rows}), mat[0, 0].real
    if not monomial and mat.tolist() != [[r, r], [r, -r]]:
        raise ValueError("apply_matrix takes one nonzero per row and column, or r*[[1, 1], [1, -1]]")
    view, idx, parts = psi.reshape([2] * n + [-1]), [slice(None)] * (n + 1), []
    for i in range(len(mat)):  # part i: the rows whose gate qubits read i; qubit q is axis n-1-q
        for j, q in enumerate(qubits):
            idx[n - 1 - q] = i >> j & 1
        parts.append(view[tuple(idx)])
    if not monomial:  # the butterfly
        a, b = parts
        s0 = np.subtract(a, b, out=scratch[:a.size].reshape(a.shape))
        np.add(a, b, out=a)
        np.multiply(a, r, out=a)
        np.multiply(s0, r, out=b)
        return
    pending = {i for i, row in enumerate(rows) if row != (i, 1)}
    while pending:
        i = start = min(pending)
        saved = parts[start]
        if rows[start][0] != start:  # keep the cycle's first slice before it is overwritten
            saved = scratch[:saved.size].reshape(saved.shape)
            np.copyto(saved, parts[start])
        while i in pending:  # row i takes phase * row s; the last row takes the saved slice
            pending.remove(i)
            (s, phase), dst = rows[i], parts[i]
            src = saved if s == start else parts[s]
            if phase == -1:
                np.subtract(0.0, src, out=dst)
            elif phase in (1, 1j, -1j):  # exact, and adding 0.0 writes each zero as +0.0
                np.add(src if phase == 1 else np.multiply(src, phase, out=dst), 0.0, out=dst)
            else:  # each product rounds one real product per part, the other is 0
                tmp = dst if s != i else scratch[:dst.size].reshape(dst.shape)
                np.multiply(src, 1j * phase.imag, out=tmp)
                np.multiply(src, phase.real, out=src)  # src is not read again
                np.add(np.add(src, tmp, out=dst), 0.0, out=dst)
            i = s


@lru_cache(maxsize=1024)
def _embed_perm(qubits: tuple[int, ...], n: int) -> np.ndarray:
    """perm[i]: the row of mat embedded on `qubits` of n that is row i of kron(I, mat)."""
    bits = list(qubits) + [q for q in range(n) if q not in qubits]
    return sum(((np.arange(1 << n) >> pos) & 1) << q for pos, q in enumerate(bits))


def embed_gate(mat: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a gate matrix or a (..., d, d) stack (local bit j = qubits[j]) into the 2^n space."""
    k = len(qubits)
    dim = 1 << n
    if k == n and tuple(qubits) == tuple(range(n)):
        return mat.astype(complex)
    # np.kron(I, mat): the same products, without kron's generic reshaping
    eye = np.eye(1 << (n - k), dtype=complex)
    full0 = (eye[:, None, :, None] * mat[..., None, :, None, :]).reshape(*mat.shape[:-2], dim, dim)
    perm = _embed_perm(tuple(qubits), n)
    out = np.empty(full0.shape, dtype=complex)  # perm is a permutation: every entry is written
    out[..., perm[:, None], perm] = full0
    return out


def gate_generators(gates, support: tuple[int, ...]) -> tuple[list[np.ndarray], list[int]]:
    """Distinct unitaries of `gates` embedded over `support` (local qubit i
    is support[i]), merged within TOL as close_group merges elements, in
    first-seen order, and the position in that list of each gate's unitary.
    Raises KeyCollision for two unitaries between TOL and 8*TOL apart."""
    distinct = list({g.key(): g for g in gates}.values())
    if not distinct:
        return [], []
    mats = np.array([embed_gate(gate_matrix(g.kind, g.angle), tuple(map(support.index, g.qubits)), len(support))
                     for g in distinct])
    slots, new = ElementLookup(mats[:0]).find(mats, len(mats))
    slot_of_gate = {g.key(): slot for g, slot in zip(distinct, slots.tolist())}
    return list(mats[new]), [slot_of_gate[g.key()] for g in gates]


def apply_gates(psi: np.ndarray | None, gates, n: int) -> np.ndarray:
    """Apply `gates` in order to a C-ordered (2^n, B) block or one state, which
    the kernel changes in place, and return the result. The true state is
    i^k X^x Z^z psi: x, y and z update only this Pauli frame, other Cliffords by
    their conjugation rules (Aaronson & Gottesman, quant-ph/0406196), t, tdg and
    cp flush its X bits, and one pass applies it at the end (`_apply_frame`).
    psi None is |0...0>: the gates then skip what leaves |0> alone and run on a
    register of the qubits they took out of it."""
    on = 0 if psi is None else (1 << int(n)) - 1  # the register's qubits
    scratch = np.empty((1 << n if psi is None else psi.size) // 2, dtype=complex)
    psi, x, z, k = np.ones(1, dtype=complex) if psi is None else psi, 0, 0, 0

    def apply(mat, qs):  # qubit q is bit p of the register, p its qubits below q
        nonlocal psi, on
        for q in (q for q in qs if not on >> q & 1):  # it joins as a zero half, by one copy
            old, p, on = psi, (on & (1 << q) - 1).bit_count(), on | 1 << q
            psi = np.zeros(2 * old.size, dtype=complex)
            psi.reshape(-1, 2, 1 << p)[:, 0] = old.reshape(-1, 1 << p)
        bits = tuple((on & (1 << q) - 1).bit_count() for q in qs)
        apply_matrix(psi, mat, bits, on.bit_count(), scratch)

    for g in gates:
        kind, qs, a, b = g.kind, tuple(map(int, g.qubits)), 1 << int(g.qubits[0]), 1 << int(g.qubits[-1])
        xa, xb, za, zb = x & a != 0, x & b != 0, z & a != 0, z & b != 0
        if kind in ("x", "y", "z"):  # Z X^x = (-1)^x_q X^x Z, and Y = i X Z
            x, z, k = x ^ a * (kind != "z"), z ^ a * (kind != "x"), k + 2 * xa * (kind != "x") + (kind == "y")
            continue
        if kind == "h":  # X <-> Z, and Z X = -X Z
            x, z, k = x ^ a * (xa != za), z ^ a * (xa != za), k + 2 * (xa and za)
        elif kind in ("s", "sdg"):  # X -> +-i X Z
            z, k = z ^ a * xa, k + xa * (1 if kind == "s" else 3)
        elif kind == "cx":  # X_c -> X_c X_t, Z_t -> Z_c Z_t
            x, z = x ^ b * xa, z ^ a * zb
        elif kind == "cz":  # X_a -> X_a Z_b, X_b -> Z_a X_b, and Z X = -X Z
            z, k = z ^ b * xa ^ a * xb, k + 2 * (xa and xb)
        elif kind == "swap":
            x, z = x ^ (a | b) * (xa != xb), z ^ (a | b) * (za != zb)
        elif kind in ("t", "tdg", "cp"):  # X_q Z^z = (-1)^z_q Z^z X_q
            for q in (q for q in qs if x >> q & 1):
                apply(_BASE_1Q["x"], (q,))
                x, k = x ^ 1 << q, k + 2 * (z >> q & 1)
        # on |0>, a diagonal gate, a cx's control and a swap of two |0>s change nothing
        if kind == "h" or on & a and (on & b or kind == "cx") or on & (a | b) and kind == "swap":
            apply(gate_matrix(kind, g.angle), qs)
    del scratch  # freed before the frame's pass allocates the state it writes
    return _apply_frame(psi, on, x, z, k, n)


def _apply_frame(psi: np.ndarray, on: int, x: int, z: int, k: int, n: int) -> np.ndarray:
    """(i^k X^x Z^z psi)[j] = i^k (-1)^|(j^x)&z| psi[j^x] in one pass into a new 2^n state, zeros as +0.0,
    or psi if that is the identity on all n qubits. psi holds the qubits in `on` (all n for a (2^n, B) block);
    one off it reads 0, or 1 under an X. The pass goes per value of the top 3 bits: `unit` is <= 1/8 of psi."""
    m, zr = on.bit_count(), sum((z >> q & 1) << p for p, q in enumerate(q for q in range(n) if on >> q & 1))
    if m == n and not x | z | k % 4:
        return psi
    out, t = np.empty(psi.shape, dtype=complex) if m == n else np.zeros(1 << n, dtype=complex), min(m, 3)
    dst = out.reshape((2,) * n + (-1,))[tuple(  # qubit q is axis n-1-q, reversed by an X on it
        slice(None, None, 1 - 2 * (x >> q & 1)) if on >> q & 1 else x >> q & 1 for q in reversed(range(n)))]
    src, low = psi.reshape((2,) * m + (-1,)), m - t
    unit = math.prod((np.array([1, -1]).reshape((2,) + (1,) * (p + 1)) for p in range(low) if zr >> p & 1),
                     start=np.full((1,) * (low + 1), (1, 1j, -1, -1j)[k % 4]))
    for h in range(1 << t):  # the top bits' Z give the sign; adding to 0.0 writes each zero as +0.0
        top = tuple(h >> i & 1 for i in reversed(range(t)))
        np.multiply(src[top], unit, out=dst[top])
        (np.subtract if (h & zr >> low).bit_count() & 1 else np.add)(0.0, dst[top], out=dst[top])
    return out


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of a measure-free circuit; gates applied left to right."""
    check_circuit(c)
    if c.n_qubits > MAX_DENSE_QUBITS:
        raise TooWide(f"{c.n_qubits} qubits exceed the dense limit {MAX_DENSE_QUBITS}")
    body, suffix = c.body_and_suffix()
    if suffix:
        raise MeasurementInUnitary("circuit contains measure gates")
    return apply_gates(np.eye(1 << c.n_qubits, dtype=complex), body, c.n_qubits)


def circuit_depth(c: Circuit) -> int:
    """Longest path over shared qubits, measures included."""
    check_circuit(c)
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
    layers: int | None = None
    seed: int | None = None


def build_bv(secret: str) -> Circuit:
    """Hidden-string circuit on n+1 qubits; the rightmost secret character
    is qubit 0 and the ancilla is qubit n."""
    if not isinstance(secret, str) or not secret or any(ch not in "01" for ch in secret):
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
    if not _is_int(n) or n < 1:
        raise InvalidSpec(f"qft width must be an integer of at least 1, got {n!r}")
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


def build_grover(n: int, marked: int) -> Circuit:
    """Search for `marked` on n qubits in max(1, round(pi/4 sqrt(2^n))) iterations."""
    if not (_is_int(n) and _is_int(marked)):
        raise InvalidSpec(f"grover needs integer n and marked, got {n!r} and {marked!r}")
    if n < 1 or not 0 <= marked < 2 ** n:
        raise InvalidSpec(f"marked item {marked} outside [0, 2^{n})")
    iters = max(1, round(math.pi / 4 * math.sqrt(2 ** n)))
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
    if not (_is_int(n) and _is_int(layers)) or n < 1 or layers < 1:
        raise InvalidSpec(f"vqe needs integer width and layers of at least 1, got {n!r} and {layers!r}")
    check_seed(seed)
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
    check_type("spec", spec, BenchmarkSpec)
    if spec.kind == "bv":
        return build_bv(spec.secret)
    if spec.kind == "qft":
        return build_qft(spec.width)
    if spec.kind == "grover":
        return build_grover(spec.width, spec.marked)
    if spec.kind == "vqe":
        return build_vqe(spec.width, spec.layers, spec.seed)
    raise InvalidSpec(f"unknown benchmark kind {spec.kind!r}")


def random_clifford_circuit(n: int, depth: int, seed: int, measured: bool = True) -> Circuit:
    """Seeded random circuit over the Clifford gate kinds, used for the
    stabilizer-vs-statevector cross checks. Raises InvalidSpec unless n is an
    integer of at least 1, depth one of at least 0 and seed a valid seed."""
    if not _is_int(n) or n < 1:
        raise InvalidSpec(f"n must be an integer of at least 1, got {n!r}")
    if not _is_int(depth) or depth < 0:
        raise InvalidSpec(f"depth must be a non-negative integer, got {depth!r}")
    check_seed(seed)
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
