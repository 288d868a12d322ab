"""Character tables via the class-matrix (Burnside) method, plus the
primitive central idempotents and isotypic projectors they induce.

The class sums C_j act on each irrep as scalars w_ij = |C_j| chi_i(C_j)/d_i,
and the vectors (w_i1, ..., w_ik) are the common right eigenvectors of the
integer class matrices M_j with (M_j)[l, m] = a_jlm, where
C_j C_l = sum_m a_jlm C_m. A seeded random real combination of the M_j
generically has simple spectrum; its eigenvectors, normalized to 1 on the
identity class, recover the w_ij and from them the degrees and characters.

Following Dixon (1967) and Schneider (1990), a_jlm is counted at one representative
z_m per class, from one group column walked along the generator table, in O(|G| k)
instead of O(|G|^2), and recounted at a second member as a check on that table. The
draw is summed straight from those k columns, so the table takes O(k |G|) memory and
the (k, k, k) tensor of the a_jlm is built only by class_matrices, for its callers.
Dixon's rounding makes chi_i(g) exact: sum_t m_t e^(2 pi i t/o), g of order o, with
integers m_t >= 0 from an FFT over the powers of g, listed by the count's column of g.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSpectrum, GroupMismatch, NonIntegralDegree, NonIntegralMultiplicity,
                     OrthogonalityViolation)
from .groups import FiniteMatrixGroup, check_group
from .histogram import check_seed, check_type

# bound on verify_orthogonality's max residual for a table character_table
# returns; the worst case over the benchmark workloads is 1.44e-11 (order 9216)
ORTH_RESIDUAL_MAX = 1e-8


@dataclass
class CharacterTable:
    k: int
    degrees: np.ndarray          # (k,) positive integers
    values: np.ndarray           # (k, k), values[i, j] = chi_i on class j; float64 if all real, else complex128
    class_sizes: np.ndarray      # (k,) positive integers
    group_order: int

    def __repr__(self) -> str:
        return f"CharacterTable(k={self.k}, degrees={self.degrees.tolist()}, |G|={self.group_order})"


def check_table(table) -> None:
    """Raises InvalidSpec naming the type of a `table` that is not a CharacterTable."""
    check_type("table", table, CharacterTable)


@dataclass
class OrthogonalityReport:
    row_residual: float
    col_residual: float
    degree_sum_residual: float

    def max_residual(self) -> float:
        return max(self.row_residual, self.col_residual, self.degree_sum_residual)


def class_matrices(group: FiniteMatrixGroup) -> np.ndarray:
    """Exact integer structure constants as one (k, k, k) int64 array a[j, l, m],
    C_j C_l = sum_m a[j, l, m] C_m, in O(|G| k) with no Cayley table: a_jlm = #{y in C_l :
    z_m y^-1 in C_j}, one bincount over the class columns of _class_columns. This is the
    only builder of the k^3 tensor; character_table draws from the columns without it.
    It raises AssertionError, as the generator tables are then corrupt, if a recount at
    the last member differs or a power walk misses 1."""
    check_group(group)
    inv_cols, inverse_of, _ = _class_columns(group)
    k = len(inverse_of)
    # row c counts m = inverse_of[c] at flat index m k^2 + j k + l, j = class of z_m y^-1, l = of y
    flat = inv_cols * k + group.class_of + (inverse_of * k * k)[:, None]
    return np.bincount(flat.ravel(), minlength=k ** 3).reshape(k, k, k).transpose(1, 2, 0)


def _class_columns(group: FiniteMatrixGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(inv_cols, inverse_of, powers): inv_cols[c, y] is the class of z_m y^-1, the inverse
    of y u_c, for u_c = z_m^-1 the first member of C_c and m = inverse_of[c] the class of
    u_c^-1; powers[l, c] = u_c^l, walked along row c, y -> y u_c, of the columns until
    every u_c is back at 1. The pairs (class of z_m y^-1, class of y) of row c, the counts
    a_jlm as one sorted code vector, are recounted at the last member of C_c, a quarter of
    the classes at a time, in O(k |G| log |G|)."""
    k, class_of, inv_class = len(group.classes), group.class_of, group.class_of[group.inverses]
    inverse_of = inv_class[[c[0] for c in group.classes]]
    cols, powers = group.columns([c[0] for c in group.classes]), [np.zeros(k, dtype=np.int64)]
    while len(powers) == 1 or powers[-1].any():
        if len(powers) > group.order:
            raise AssertionError("a power walk misses the identity; the generator table `right` is corrupt")
        powers.append(cols[np.arange(k), powers[-1]])
    inv_cols = inv_class[cols]
    del cols  # before the recount's columns
    step = -(-k // 4)
    for c in range(0, k, step):
        first = inv_cols[c:c + step] * k + class_of
        last = inv_class[group.columns([m[-1] for m in group.classes[c:c + step]])] * k + class_of
        first.sort(axis=1)
        last.sort(axis=1)
        if not np.array_equal(first, last):
            raise AssertionError("class sums are not constant on classes; the generator table `right` is corrupt")
    return inv_cols, inverse_of, np.array(powers)


def _class_structure(group: FiniteMatrixGroup) -> tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """(draw, powers) for character_table: draw(r) is sum_j r_j M_j as a (k, k) float64
    array, whose entry (l, m) sums r over the classes of z_m y^-1 for y in C_l, one
    weighted bincount over the class columns in O(k |G|); powers as in _class_columns."""
    inv_cols, inverse_of, powers = _class_columns(group)
    k = len(inverse_of)
    at = group.class_of + (inverse_of * k)[:, None]  # row c adds to entry (l, m) at m k + l

    def draw(r: np.ndarray) -> np.ndarray:
        return np.bincount(at.ravel(), r[inv_cols].ravel(), k * k).reshape(k, k).T

    return draw, powers


def character_table(group: FiniteMatrixGroup, seed: int = 0) -> CharacterTable:
    """Compute the character table. Deterministic for a fixed seed; rows are
    sorted by (degree, then lexicographic rounded values) so tables are
    comparable across runs and seeds. It holds O(k |G|) values at once: the
    draw is counted from the class columns, with no (k, k, k) tensor, and
    Dixon's rounding runs over at most k^2 values per FFT.

    Raises DegenerateSpectrum when 21 seeded draws all produce eigenvalue
    collisions, NonIntegralDegree (NonIntegralMultiplicity) when a degree (an
    m_t) is off a positive (non-negative) integer by more than 1e-4 or the m_t
    do not sum to d_i, and, as a backstop, OrthogonalityViolation when the
    orthogonality residual exceeds ORTH_RESIDUAL_MAX; InvalidSpec for a group
    that is not a FiniteMatrixGroup."""
    check_group(group)
    check_seed(seed)
    k, order = len(group.classes), group.order
    sizes = np.array([len(c) for c in group.classes], dtype=np.float64)
    draw, powers = _class_structure(group)

    for attempt in range(21):
        r = np.random.default_rng(seed + attempt).uniform(0.5, 1.5, size=k)
        evals, right = np.linalg.eig(draw(r))
        gap = np.min(np.abs(evals[:, None] - evals) + np.diag(np.full(k, np.inf)))
        if gap >= 1e-6 and np.min(np.abs(right[0])) >= 1e-12:
            break  # no two eigenvalues (nearly) collide, and omega below is finite
    else:
        raise DegenerateSpectrum(f"eigenvalue collisions persisted over 21 draws (seed={seed})")
    del draw  # the class columns are not needed past the draw
    omega = right / right[0]  # omega[j, i] = w_ij
    d_raw = np.sqrt(order / np.sum(np.abs(omega) ** 2 / sizes[:, None], axis=0))
    bad = d_raw[~((np.abs(d_raw - np.rint(d_raw)) <= 1e-4) & (d_raw > 0.5))]
    if len(bad):
        raise NonIntegralDegree(f"raw degree {float(bad[0])!r} is not within 1e-4 of a positive integer")
    degrees = np.rint(d_raw).astype(np.int64)
    if int(np.sum(degrees ** 2)) != order:
        raise NonIntegralDegree(f"sum of squared degrees {int(np.sum(degrees ** 2))} != group order {order}")
    chi = degrees[:, None] * omega.T / sizes

    orders, exact = np.argmax(powers[1:] == 0, axis=0) + 1, np.empty((k, k), dtype=complex)
    for o in np.unique(orders):  # Dixon's rounding, one FFT per element order and chunk of classes
        cs, roots, margins, bad = np.flatnonzero(orders == o), np.exp(2j * np.pi * np.arange(o) / o), [], False
        step = max(1, k // o)  # m holds k o step <= k^2 values, as many as the table
        for c in np.split(cs, np.arange(step, len(cs), step)):
            m = np.fft.fft(chi[:, group.class_of[powers[:o, c]]], axis=1) / o  # m[i, t, c]
            mult = np.rint(m.real)
            margins.append(np.max(np.abs(m - mult)))
            bad |= mult.min() < 0 or np.any(mult.sum(axis=1) != degrees[:, None])
            exact[:, c] = np.einsum("itc,t->ic", mult, roots)
        margin = float(np.max(margins))
        if not margin <= 1e-4 or bad:
            raise NonIntegralMultiplicity(f"multiplicities of order-{o} roots of unity are {margin:.3g} off "
                                          "non-negative integers (bound 1e-4) or do not sum to the degree")
    chi = exact if np.iscomplexobj(omega) else exact.real

    # degree ascending (lexsort's last key is primary), then rounded values descending: trivial row first
    keys = -np.round(np.stack([chi.real, chi.imag], axis=2), 8).reshape(k, 2 * k)
    rows = np.lexsort(np.vstack([keys.T[::-1], degrees]))
    table = CharacterTable(k, degrees[rows], chi[rows], sizes.astype(np.int64), order)
    residual = verify_orthogonality(table).max_residual()
    if not residual <= ORTH_RESIDUAL_MAX:
        raise OrthogonalityViolation(f"orthogonality residual {residual:.3g} exceeds {ORTH_RESIDUAL_MAX:g}")
    return table


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """Max residuals of the two character orthogonality relations plus
    |sum d_i^2 - |G||, all non-negative."""
    check_table(table)
    chi = table.values
    sizes = table.class_sizes.astype(np.float64)
    n = float(table.group_order)
    gram = (chi * sizes[None, :]) @ chi.conj().T
    row_res = float(np.max(np.abs(gram - n * np.eye(table.k))))
    col_res = float(np.max(np.abs((chi.conj().T @ chi).T - np.diag(n / sizes))))
    deg_res = float(abs(np.sum(table.degrees.astype(np.float64) ** 2) - n))
    return OrthogonalityReport(row_res, col_res, deg_res)


def central_idempotents(group: FiniteMatrixGroup, table: CharacterTable) -> np.ndarray:
    """(k, |G|) array, of table.values' dtype, whose row i is e_i, with
    coefficient (d_i/|G|) chi_i(g^-1) on each element g: one gather of the
    values, scaled in place, so no second (k, |G|) array is made. Raises
    GroupMismatch if the table's order, k or class sizes are not the group's."""
    check_group(group)
    check_table(table)
    sizes = [len(c) for c in group.classes]
    if (table.group_order, table.k, table.class_sizes.tolist()) != (group.order, len(sizes), sizes):
        raise GroupMismatch(f"{table!r} is not the table of this group of order {group.order}")
    e = table.values[:, group.class_of[group.inverses]]
    e *= (table.degrees / table.group_order)[:, None]
    return e


def isotypic_projectors(group: FiniteMatrixGroup, table: CharacterTable) -> np.ndarray:
    """(k, dim, dim) complex128 array of P_i = (d_i/|G|) sum_g chi_i(g^-1) U(g)
    in the defining representation, as one (k, |G|) @ (|G|, dim²) product.
    Projectors of irreps absent from that representation come out as
    (numerically) zero matrices."""
    p = central_idempotents(group, table) @ group.mats.reshape(group.order, -1)
    return p.reshape(-1, group.dim, group.dim)


def character_table_csv(table: CharacterTable) -> str:
    """CSV form: header `class_size,<size_1>,...,<size_k>`, then one row per
    irrep: the degree followed by the values as a+/-bi with 9 decimals."""
    check_table(table)
    lines = ["class_size," + ",".join(str(int(s)) for s in table.class_sizes)]
    for d, row in zip(table.degrees, table.values):
        lines.append(",".join([str(int(d))] + [
            f"{round(float(v.real), 9) + 0.0:.9f}{round(float(v.imag), 9) + 0.0:+.9f}i" for v in row]))
    return "\n".join(lines) + "\n"
