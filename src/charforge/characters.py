"""Character tables via the class-matrix (Burnside) method, plus the
primitive central idempotents and isotypic projectors they induce.

The class sums C_j act on each irrep as scalars w_ij = |C_j| chi_i(C_j)/d_i,
and the vectors (w_i1, ..., w_ik) are the common right eigenvectors of the
integer class matrices M_j with (M_j)[l, m] = a_jlm, where
C_j C_l = sum_m a_jlm C_m. A seeded random real combination of the M_j
generically has simple spectrum; its eigenvectors, normalized to 1 on the
identity class, recover the w_ij and from them the degrees and characters.

Following Dixon (1967) and Schneider (1990), a_jlm is counted at one
representative z_m per class, from one group column walked along the
generator table, in O(|G| k) instead of O(|G|^2), and recounted at a second
member as a check on that table. The two-sided Rayleigh quotients that
refine the w_ij take one matrix product per M_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateSpectrum, GroupMismatch, NonIntegralDegree,
                     OrthogonalityViolation)
from .groups import FiniteMatrixGroup
from .histogram import check_seed

# bound on verify_orthogonality's max residual for a table character_table
# returns; the worst case traced over the benchmark workloads is 1.09e-11
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


@dataclass
class OrthogonalityReport:
    row_residual: float
    col_residual: float
    degree_sum_residual: float

    def max_residual(self) -> float:
        return max(self.row_residual, self.col_residual, self.degree_sum_residual)


def class_matrices(group: FiniteMatrixGroup) -> np.ndarray:
    """Exact integer structure constants as one (k, k, k) int64 array a[j, l, m],
    C_j C_l = sum_m a[j, l, m] C_m, in O(|G| k): a_jlm = #{y in C_l : z_m y^-1
    in C_j} for any z_m in C_m, and z_m y^-1 is the inverse of y z_m^-1, so k
    columns y -> y z_m^-1, walked along `right`, and one bincount count it. No
    Cayley table is built. The count takes z_m^-1 as the first member of its
    class, and a recount, one contiguous a[:, :, m] at a time, as the last; the
    two differ only if the class sums are not central, so the generator tables
    are corrupt, and then it raises AssertionError."""
    k = len(group.classes)
    class_of = group.class_of
    inv_class = class_of[group.inverses]
    inverse_of = inv_class[[c[0] for c in group.classes]]  # m -> the class of C_m's inverses
    # flat index m k^2 + j k + l, with j = class of z_m y^-1 and l = class of y
    flat = inv_class[group.columns([group.classes[m][0] for m in inverse_of])] * k
    flat += class_of + np.arange(0, k ** 3, k * k)[:, None]
    a = np.bincount(flat.ravel(), minlength=k ** 3).reshape(k, k, k).transpose(1, 2, 0)
    for m, col in enumerate(group.columns([group.classes[m][-1] for m in inverse_of])):
        if not np.array_equal(np.bincount(inv_class[col] * k + class_of, minlength=k * k).reshape(k, k),
                              a[:, :, m]):
            raise AssertionError("class sums are not constant on classes; the generator table "
                                 "`right` is corrupt")
    return a


def character_table(group: FiniteMatrixGroup, seed: int = 0) -> CharacterTable:
    """Compute the character table. Deterministic for a fixed seed; rows are
    sorted by (degree, then lexicographic rounded values) so tables are
    comparable across runs and seeds.

    Raises DegenerateSpectrum when 21 seeded draws all produce eigenvalue
    collisions, NonIntegralDegree when a recovered degree is off an integer
    by more than 1e-4, and OrthogonalityViolation when the table's
    orthogonality residual exceeds ORTH_RESIDUAL_MAX.
    """
    check_seed(seed)
    k = len(group.classes)
    order = group.order
    sizes = np.array([len(c) for c in group.classes], dtype=np.float64)
    mats = class_matrices(group)

    omega = None
    for attempt in range(21):
        rng = np.random.default_rng(seed + attempt)
        r = rng.uniform(0.5, 1.5, size=k)
        m = sum(rj * mj for rj, mj in zip(r, mats))
        evals, right = np.linalg.eig(m)
        if np.min(np.abs(evals[:, None] - evals) + np.diag(np.full(k, np.inf))) < 1e-6:
            continue  # two eigenvalues (nearly) collide
        evals_l, left = np.linalg.eig(m.T)
        # pair left eigenvectors with right ones by eigenvalue, then refine
        # each omega_ij with the two-sided Rayleigh quotient, which is
        # quadratically accurate even though the M_j are non-normal
        w = left[:, np.argmin(np.abs(evals_l[None, :] - evals[:, None]), axis=1)]
        denom = np.einsum("ai,ai->i", w, right)
        if np.min(np.abs(denom)) < 1e-12:
            continue
        omega = np.array([np.sum(w * (mj @ right), axis=0) for mj in mats]) / denom
        break
    if omega is None:
        raise DegenerateSpectrum(
            f"eigenvalue collisions persisted over 21 draws (seed={seed})")

    d_raw = np.sqrt(order / np.array([np.sum(np.abs(w) ** 2 / sizes) for w in omega.T]))
    bad = d_raw[~((np.abs(d_raw - np.rint(d_raw)) <= 1e-4) & (d_raw > 0.5))]
    if len(bad):
        raise NonIntegralDegree(f"raw degree {float(bad[0])!r} is not within 1e-4 of a positive integer")
    degrees = np.rint(d_raw).astype(np.int64)
    if int(np.sum(degrees ** 2)) != order:
        raise NonIntegralDegree(f"sum of squared degrees {int(np.sum(degrees ** 2))} != group order {order}")
    chi = degrees[:, None] * omega.T / sizes

    # Degree ascending, then descending lexicographic on rounded values
    # (re before im, class by class) so the all-ones trivial character
    # always lands in row 0; lexsort's last key is its primary one.
    keys = -np.round(np.stack([chi.real, chi.imag], axis=2), 8).reshape(k, 2 * k)
    rows = np.lexsort(np.vstack([keys.T[::-1], degrees]))
    table = CharacterTable(k=k, degrees=degrees[rows], values=chi[rows],
                           class_sizes=sizes.astype(np.int64), group_order=order)
    residual = verify_orthogonality(table).max_residual()
    if not residual <= ORTH_RESIDUAL_MAX:
        raise OrthogonalityViolation(
            f"orthogonality residual {residual:.3g} exceeds {ORTH_RESIDUAL_MAX:g}")
    return table


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """Max residuals of the two character orthogonality relations plus
    |sum d_i^2 - |G||, all non-negative."""
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
    coefficient (d_i/|G|) chi_i(g^-1) on each element g. Raises GroupMismatch
    if the table's order, k or class sizes are not the group's."""
    sizes = [len(c) for c in group.classes]
    if (table.group_order, table.k, table.class_sizes.tolist()) != (group.order, len(sizes), sizes):
        raise GroupMismatch(f"{table!r} is not the table of this group of order {group.order}")
    inv_class = group.class_of[group.inverses]
    return (table.degrees / table.group_order)[:, None] * table.values[:, inv_class]


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
    lines = ["class_size," + ",".join(str(int(s)) for s in table.class_sizes)]
    for d, row in zip(table.degrees, table.values):
        lines.append(",".join([str(int(d))] + [
            f"{round(float(v.real), 9) + 0.0:.9f}{round(float(v.imag), 9) + 0.0:+.9f}i" for v in row]))
    return "\n".join(lines) + "\n"
