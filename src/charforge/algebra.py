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

from .characters import CharacterTable, check_table
from .errors import GroupMismatch, InvalidSpec
from .groups import COLUMN_CHUNK, FiniteMatrixGroup, check_group
from .histogram import _is_int, check_type
from .linalg import max_abs


@dataclass
class AlgebraElement:
    group: FiniteMatrixGroup
    coeffs: np.ndarray  # (|G|,) complex

    def __post_init__(self):
        check_group(self.group)
        try:
            self.coeffs = np.asarray(self.coeffs, dtype=complex)
        except (TypeError, ValueError) as e:
            raise InvalidSpec(f"coefficients must be numbers ({e})") from None
        if self.coeffs.shape != (self.group.order,):
            raise GroupMismatch(
                f"coefficient length {self.coeffs.shape} != group order {self.group.order}")
        if not np.all(np.isfinite(self.coeffs)):
            raise InvalidSpec("coefficients must be finite")


def _check_elements(*us) -> None:
    """Raises InvalidSpec naming the type of any of `us` that is not an AlgebraElement."""
    for u in us:
        if not isinstance(u, AlgebraElement):
            raise InvalidSpec(f"expected an AlgebraElement, got {type(u).__name__}")


def delta(group: FiniteMatrixGroup, g: int) -> AlgebraElement:
    """The basis element supported on group element g, an integer in 0..|G|-1."""
    check_group(group)
    if not _is_int(g) or not 0 <= g < group.order:
        raise InvalidSpec(f"element index must be an integer in 0..{group.order - 1}, got {g!r}")
    c = np.zeros(group.order, dtype=complex)
    c[g] = 1.0
    return AlgebraElement(group, c)


def random_element(group: FiniteMatrixGroup, rng: np.random.Generator) -> AlgebraElement:
    """Coefficients uniform in the complex unit square."""
    check_group(group)
    check_type("rng", rng, np.random.Generator)
    c = rng.random(group.order) + 1j * rng.random(group.order)
    return AlgebraElement(group, c)


def convolve(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """(a * b)[h] = sum over g1 g2 = h of a[g1] b[g2], exact via the group
    tables (up to float accumulation)."""
    _check_elements(a, b)
    if a.group is not b.group:
        raise GroupMismatch("algebra elements live over different groups")
    return AlgebraElement(a.group, _convolve_rows(a.coeffs[None], [b])[0][0])


def _convolve_rows(rows: np.ndarray, bs: list[AlgebraElement]) -> list[np.ndarray]:
    """Each row of coefficients a convolved with each b of `bs`, elements of one group.
    A lone single-support b = c delta_x takes one column: (a * b)[h] = c a[h x^-1],
    gathered once and scaled in place.
    Otherwise the sum runs over the g at which some row is nonzero, reading
    b[g^-1 h] = b[(h^-1 g)^-1] through an index table of the Cayley columns of a
    bounded chunk of g at a time, built once for every b, so memory stays O(|G|)
    per step and no Cayley table is built."""
    g = bs[0].group
    nz_b = np.flatnonzero(bs[0].coeffs)
    if len(bs) == 1 and nz_b.size == 1:
        out = rows[:, g.columns([g.inverses[nz_b[0]]])[0]].astype(complex, copy=False)
        out *= bs[0].coeffs[nz_b[0]]  # the gather is a new array: scale it in place
        return [out]
    outs, xs = [np.zeros(rows.shape, dtype=complex) for _ in bs], np.flatnonzero(rows.any(0))
    chunk = max(1, COLUMN_CHUNK // g.order)
    for x in np.split(xs, np.arange(chunk, len(xs), chunk)):
        idx = g.inverses[g.columns(x)[:, g.inverses]]  # [i, h] = index of x_i^-1 h
        for b, out in zip(bs, outs):
            b_idx = b.coeffs[idx]
            for a, row in zip(rows, out):
                row += np.einsum("g,gh->h", a[x], b_idx)
    return outs


def to_matrix(u: AlgebraElement) -> np.ndarray:
    """Image of u in the defining representation: sum_g u[g] U(g)."""
    _check_elements(u)
    return np.einsum("g,gab->ab", u.coeffs, u.group.mats)


def characters_of(u: AlgebraElement, table: CharacterTable) -> np.ndarray:
    """chi_i(u) = sum_g u[g] chi_i(class of g), for every irrep i."""
    _check_elements(u)
    check_table(table)
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
    returned too. Raises GroupMismatch if either array is another group's,
    and InvalidSpec unless u is an AlgebraElement and the arrays numpy arrays.
    """
    _check_elements(u)
    _check_arrays(idempotents, projectors)
    return _decompose_elements([u], idempotents, projectors)[0]


def _check_arrays(idempotents, projectors) -> None:
    """Raises InvalidSpec unless the idempotents, and the projectors if given, are numpy arrays."""
    if not isinstance(idempotents, np.ndarray) or not isinstance(projectors, (np.ndarray, type(None))):
        raise InvalidSpec("idempotents and projectors must be numpy arrays")


def _decompose_elements(
    us: list[AlgebraElement],
    idempotents: np.ndarray,
    projectors: np.ndarray | None = None,
) -> list[DecompositionResult]:
    """`decompose_element` of each of `us`, a non-empty list of elements of one group,
    walking the group's Cayley columns once for all of them."""
    g = us[0].group
    if idempotents.shape[1:] != (g.order,):
        raise GroupMismatch("idempotents belong to a different group")
    if projectors is not None and projectors.shape[1:] != (g.dim, g.dim):
        raise GroupMismatch("projectors belong to a different group")
    results = []
    for u, rows in zip(us, _convolve_rows(idempotents, us)):
        components = [AlgebraElement(g, c) for c in rows]
        # row by row, as np.sum over the stacked rows adds them; no stacked copy
        recon = max_abs(sum(rows) - u.coeffs)
        matrix_components = matrix_residual = None
        if projectors is not None:
            m = to_matrix(u)
            matrix_components = [p @ m for p in projectors]
            matrix_residual = max_abs(np.sum(matrix_components, axis=0) - m)
        results.append(DecompositionResult(components, float(recon), matrix_components, matrix_residual))
    return results


def statement_formula_residual(
    u: AlgebraElement,
    table: CharacterTable,
    idempotents: np.ndarray,
) -> float:
    """Residual of the closed-form reconstruction
    u =? sum_i (chi_i(u)/d_i) (|G|/d_i) e_i.

    Never asserted to vanish: the right-hand side is central, so the
    residual is zero only in degenerate situations (e.g. the trivial group).
    Raises GroupMismatch unless the idempotents are (table.k, |G|).
    """
    _check_elements(u)
    check_table(table)
    if np.shape(idempotents) != (table.k, u.group.order):
        raise GroupMismatch(f"idempotents of shape {np.shape(idempotents)} are not (k, |G|) = "
                            f"{(table.k, u.group.order)}")
    chars = characters_of(u, table)
    rhs = np.zeros(u.group.order, dtype=complex)
    for i, e in enumerate(idempotents):
        d = float(table.degrees[i])
        rhs += (chars[i] / d) * (table.group_order / d) * e
    return float(max_abs(rhs - u.coeffs))


def decomposition_report_json(
    u: AlgebraElement,
    table: CharacterTable,
    idempotents: np.ndarray,
    projectors: np.ndarray,
) -> dict:
    """Report shape used by the CLI decompose subcommand. The closed-form residual is
    taken before the (k, |G|) components exist, so its own (k, |G|) gather never
    coexists with them."""
    _check_arrays(idempotents, projectors)
    formula = statement_formula_residual(u, table, idempotents)
    dec = decompose_element(u, idempotents, projectors)
    return {
        "k": dec.k,
        "reconstruction_residual": dec.reconstruction_residual,
        "matrix_residual": dec.matrix_residual,
        "component_norms": dec.component_norms(),
        "statement_formula_residual": formula,
    }
