"""Group-algebra elements, convolution, and character decomposition.

The decomposition u = sum_i e_i * u (an exact identity of the idempotent
calculus) is the authoritative operation here. The alternative closed form
u = sum_i (chi_i(u)/d_i) (|G|/d_i) e_i is evaluated separately as a measured
quantity: its right-hand side is central in the group algebra, so it cannot
reconstruct general u, and its residual is reported rather than asserted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import (CharacterTable, central_idempotents, character_table,
                         verify_orthogonality)
from .errors import GroupMismatch, InvalidSpec, KeyCollision, OrderCapExceeded
from .groups import ClosureConfig, FiniteMatrixGroup, close_group, element_of
from .linalg import max_abs


@dataclass
class AlgebraElement:
    group: FiniteMatrixGroup
    coeffs: np.ndarray  # (|G|,) complex

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.group.order,):
            raise GroupMismatch(
                f"coefficient length {self.coeffs.shape} != group order {self.group.order}")
        if not np.all(np.isfinite(self.coeffs)):
            raise InvalidSpec("coefficients must be finite")


def delta(group: FiniteMatrixGroup, g: int) -> AlgebraElement:
    """The basis element supported on a single group element."""
    c = np.zeros(group.order, dtype=complex)
    c[g] = 1.0
    return AlgebraElement(group, c)


def random_element(group: FiniteMatrixGroup, rng: np.random.Generator) -> AlgebraElement:
    """Coefficients uniform in the complex unit square."""
    c = rng.random(group.order) + 1j * rng.random(group.order)
    return AlgebraElement(group, c)


def _same_group(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.group is not b.group:
        raise GroupMismatch("algebra elements live over different groups")


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a * b)[h] = sum over g1 g2 = h of a[g1] b[g2], exact via the group
    tables (up to float accumulation).

    A single-support operand takes one column of the group, walked along
    `right`, with x^-1 h = (h^-1 x)^-1; the dense case reads the Cayley table.
    """
    _same_group(a, b)
    g = a.group
    nz_a = np.flatnonzero(a.coeffs)
    if nz_a.size == 1:  # (delta_x * b)[h] = b[x^-1 h]
        x = int(nz_a[0])
        return AlgebraElement(g, a.coeffs[x] * b.coeffs[g.inverses[g.columns([x])[0, g.inverses]]])
    return AlgebraElement(g, _convolve_rows(a.coeffs[None], b)[0])


def _convolve_rows(rows: np.ndarray, b: AlgebraElement) -> np.ndarray:
    """Each row of coefficients a convolved with b. A single-support b = c delta_x
    takes one column: (a * b)[h] = c a[h x^-1]. A dense b gathers Cayley rows
    in bounded chunks, so memory stays O(|G|) per step beside the table."""
    g = b.group
    nz_b = np.flatnonzero(b.coeffs)
    if nz_b.size == 1:
        return b.coeffs[nz_b[0]] * rows[:, g.columns([g.inverses[nz_b[0]]])[0]]
    out = np.zeros(rows.shape, dtype=complex)
    chunk = max(1, (1 << 22) // g.order)
    for start in range(0, g.order, chunk):
        stop = min(start + chunk, g.order)
        b_idx = b.coeffs[g.cayley[g.inverses[start:stop], :]]  # [g1, h] = b[g1^-1 h]
        for a, row in zip(rows, out):
            row += np.einsum("g,gh->h", a[start:stop], b_idx)
    return out


def to_matrix(u: AlgebraElement) -> np.ndarray:
    """Image of u in the defining representation: sum_g u[g] U(g)."""
    return np.einsum("g,gab->ab", u.coeffs, u.group.mats)


def characters_of(u: AlgebraElement, table: CharacterTable) -> np.ndarray:
    """chi_i(u) = sum_g u[g] chi_i(class of g), for every irrep i."""
    if table.group_order != u.group.order:
        raise GroupMismatch("table order does not match the element's group")
    per_element = table.values[:, u.group.class_of]  # (k, |G|)
    return per_element @ u.coeffs


@dataclass
class DecompositionResult:
    components: list[AlgebraElement]
    reconstruction_residual: float
    matrix_components: list[np.ndarray] | None = None
    matrix_residual: float | None = None

    @property
    def k(self) -> int:
        return len(self.components)

    def component_norms(self) -> list[float]:
        return [float(np.linalg.norm(c.coeffs)) for c in self.components]


def decompose_element(
    u: AlgebraElement,
    idempotents: np.ndarray,
    projectors: np.ndarray | None = None,
) -> DecompositionResult:
    """Split u into its isotypic components u_i = e_i * u, one per row of the
    (k, |G|) idempotents.

    The reconstruction residual max|sum_i u_i - u| is an identity of the
    calculus and lands at float precision. When the (k, dim, dim) projectors
    are supplied the matrix-side split P_i M(u) with sum_i P_i M(u) = M(u) is
    returned too. Raises GroupMismatch if either array is another group's.
    """
    g = u.group
    if idempotents.shape[1:] != (g.order,):
        raise GroupMismatch("idempotents belong to a different group")
    if projectors is not None and projectors.shape[1:] != (g.dim, g.dim):
        raise GroupMismatch("projectors belong to a different group")
    components = [AlgebraElement(g, c) for c in _convolve_rows(idempotents, u)]
    recon = max_abs(np.sum([c.coeffs for c in components], axis=0) - u.coeffs)
    matrix_components = matrix_residual = None
    if projectors is not None:
        m = to_matrix(u)
        matrix_components = [p @ m for p in projectors]
        matrix_residual = max_abs(np.sum(matrix_components, axis=0) - m)
    return DecompositionResult(components, float(recon), matrix_components, matrix_residual)


def statement_formula_residual(
    u: AlgebraElement,
    table: CharacterTable,
    idempotents: np.ndarray,
) -> float:
    """Residual of the closed-form reconstruction
    u =? sum_i (chi_i(u)/d_i) (|G|/d_i) e_i.

    Never asserted to vanish: the right-hand side is central, so the
    residual is zero only in degenerate situations (e.g. the trivial group).
    """
    chars = characters_of(u, table)
    rhs = np.zeros(u.group.order, dtype=complex)
    for i, e in enumerate(idempotents):
        d = float(table.degrees[i])
        rhs += (chars[i] / d) * (table.group_order / d) * e
    return float(max_abs(rhs - u.coeffs))


@dataclass
class DecomposabilityReport:
    condition1_finite_group: bool
    condition1_detail: str
    condition2_orthogonality_residual: float | None
    condition3_reconstruction_residual: float | None
    verdict: bool


def check_decomposability(
    circuit_unitary: np.ndarray,
    gate_set: list[np.ndarray],
    cfg: ClosureConfig | None = None,
    seed: int = 0,
) -> DecomposabilityReport:
    """Run the three decomposability conditions for a circuit unitary over a
    gate set: finite closure, character orthogonality, and reconstruction of
    the circuit's delta element."""
    cfg = cfg or ClosureConfig()
    try:
        group = close_group(gate_set, cfg)
    except (OrderCapExceeded, KeyCollision) as exc:
        detail = (f"cap exceeded at max_order={cfg.max_order}"
                  if isinstance(exc, OrderCapExceeded)
                  else "products not tolerance-separated (dense closure)")
        return DecomposabilityReport(condition1_finite_group=False, condition1_detail=detail,
                                     condition2_orthogonality_residual=None,
                                     condition3_reconstruction_residual=None, verdict=False)
    table = character_table(group, seed=seed)
    orth = verify_orthogonality(table).max_residual()
    g = element_of(group, circuit_unitary)
    recon = None if g is None else decompose_element(
        delta(group, g), central_idempotents(group, table)).reconstruction_residual
    return DecomposabilityReport(
        condition1_finite_group=True, condition1_detail=f"order {group.order}",
        condition2_orthogonality_residual=orth, condition3_reconstruction_residual=recon,
        verdict=recon is not None and orth <= 1e-8 and recon <= 1e-8)


def decomposition_report_json(
    u: AlgebraElement,
    table: CharacterTable,
    idempotents: np.ndarray,
    projectors: np.ndarray,
) -> dict:
    """Report shape used by the CLI decompose subcommand."""
    dec = decompose_element(u, idempotents, projectors)
    return {
        "k": dec.k,
        "reconstruction_residual": dec.reconstruction_residual,
        "matrix_residual": dec.matrix_residual,
        "component_norms": dec.component_norms(),
        "statement_formula_residual": statement_formula_residual(u, table, idempotents),
    }
