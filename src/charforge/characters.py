"""Character tables via the class-matrix (Burnside) method, plus the
primitive central idempotents and isotypic projectors they induce.

The class sums C_j act on each irrep as scalars w_ij = |C_j| chi_i(C_j)/d_i,
and the vectors (w_i1, ..., w_ik) are the common right eigenvectors of the
integer class matrices M_j with (M_j)[l, m] = a_jlm, where
C_j C_l = sum_m a_jlm C_m. A seeded random real combination of the M_j
generically has simple spectrum; its eigenvectors, normalized to 1 on the
identity class, recover the w_ij and from them the degrees and characters.

Following Dixon (1967) and Schneider (1990), a_jlm is counted at one
representative z_m per class, a_jlm = #{x in C_j : x^-1 z_m in C_l}, in
O(|G| k) instead of O(|G|^2), and recounted at a second member as a check
on the cayley table. The two-sided Rayleigh quotients that refine the w_ij
take one matrix product per M_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrum, GroupMismatch, InvalidSpec, NonIntegralDegree
from .groups import FiniteMatrixGroup


@dataclass
class ClassMatrix:
    j: int
    entries: np.ndarray  # (k, k) non-negative integers


@dataclass
class CharacterTable:
    k: int
    degrees: np.ndarray          # (k,) positive integers
    values: np.ndarray           # (k, k) complex, values[i, j] = chi_i on class j
    class_sizes: np.ndarray      # (k,) positive integers
    group_order: int

    def __repr__(self) -> str:
        return f"CharacterTable(k={self.k}, degrees={self.degrees.tolist()}, |G|={self.group_order})"


@dataclass
class CentralIdempotent:
    irrep: int
    coeffs: np.ndarray  # (|G|,) complex


@dataclass
class IsotypicProjector:
    irrep: int
    matrix: np.ndarray


@dataclass
class OrthogonalityReport:
    row_residual: float
    col_residual: float
    degree_sum_residual: float

    def max_residual(self) -> float:
        return max(self.row_residual, self.col_residual, self.degree_sum_residual)


def class_matrices(group: FiniteMatrixGroup) -> list[ClassMatrix]:
    """Exact integer structure constants a_jlm of the class-sum algebra, in
    O(|G| k): a_jlm = #{x in C_j : x^-1 z_m in C_l} for any z_m in C_m, so one
    (|G|, k) gather and one bincount count it at the first member of each class.
    A recount at the last member raises AssertionError if the two differ: the
    class sums are then not central, so the cayley table is corrupt."""
    k = len(group.classes)
    class_of = group.class_of
    # flat index j k^2 + l k + m, with j = class of x and l = class of x^-1 z_m
    jm = class_of[:, None] * (k * k) + np.arange(k)[None, :]

    def count(reps: list[int]) -> np.ndarray:
        flat = class_of[group.cayley[group.inverses[:, None], np.array(reps)[None, :]]] * k
        flat += jm
        return np.bincount(flat.ravel(), minlength=k ** 3).reshape(k, k, k)

    a = count([c[0] for c in group.classes])
    if not np.array_equal(a, count([c[-1] for c in group.classes])):
        raise AssertionError("class sums are not constant on classes; cayley table is corrupt")
    return [ClassMatrix(j=j, entries=a[j]) for j in range(k)]


def character_table(group: FiniteMatrixGroup, seed: int = 0) -> CharacterTable:
    """Compute the character table. Deterministic for a fixed seed; rows are
    sorted by (degree, then lexicographic rounded values) so tables are
    comparable across runs and seeds.

    Raises DegenerateSpectrum when 21 seeded draws all produce eigenvalue
    collisions, NonIntegralDegree when a recovered degree is off an integer
    by more than 1e-4.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InvalidSpec(f"seed must be an integer >= 0, got {seed!r}")
    k = len(group.classes)
    order = group.order
    sizes = np.array([len(c) for c in group.classes], dtype=np.float64)
    mats = np.array([cm.entries for cm in class_matrices(group)], dtype=np.float64)

    omega = None
    for attempt in range(21):
        rng = np.random.default_rng(seed + attempt)
        r = rng.uniform(0.5, 1.5, size=k)
        m = sum(rj * mj for rj, mj in zip(r, mats))
        evals, right = np.linalg.eig(m)
        if _min_gap(evals) < 1e-6:
            continue
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

    rows = []
    for i in range(k):
        w = omega[:, i]
        s = float(np.sum(np.abs(w) ** 2 / sizes))
        d_raw = np.sqrt(order / s)
        d = int(round(d_raw))
        if abs(d_raw - d) > 1e-4 or d < 1:
            raise NonIntegralDegree(
                f"raw degree {d_raw!r} is not within 1e-4 of a positive integer")
        chi = d * w / sizes
        rows.append((d, chi))

    total = sum(d * d for d, _ in rows)
    if total != order:
        raise NonIntegralDegree(
            f"sum of squared degrees {total} != group order {order}")

    # Degree ascending, then descending lexicographic on rounded values so
    # the all-ones trivial character always lands in row 0.
    rows.sort(key=lambda row: (
        row[0],
        tuple((-round(float(v.real), 8) - 0.0, -round(float(v.imag), 8) - 0.0) for v in row[1]),
    ))
    return CharacterTable(k=k, degrees=np.array([d for d, _ in rows], dtype=np.int64),
                          values=np.stack([chi for _, chi in rows]),
                          class_sizes=sizes.astype(np.int64), group_order=order)


def _min_gap(evals: np.ndarray) -> float:
    if len(evals) < 2:
        return np.inf
    diff = np.abs(evals[:, None] - evals[None, :])
    np.fill_diagonal(diff, np.inf)
    return float(diff.min())


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """Max residuals of the two character orthogonality relations plus
    |sum d_i^2 - |G||, all non-negative."""
    chi = table.values
    sizes = table.class_sizes.astype(np.float64)
    n = float(table.group_order)
    gram = (chi * sizes[None, :]) @ chi.conj().T
    row_res = float(np.max(np.abs(gram - n * np.eye(table.k))))
    col = chi.conj().T @ chi
    col_target = np.diag(n / sizes)
    col_res = float(np.max(np.abs(col.T - col_target)))
    deg_res = float(abs(np.sum(table.degrees.astype(np.float64) ** 2) - n))
    return OrthogonalityReport(row_res, col_res, deg_res)


def central_idempotents(group: FiniteMatrixGroup, table: CharacterTable) -> list[CentralIdempotent]:
    """e_i with coefficient (d_i/|G|) chi_i(g^-1) on each element g. Raises
    GroupMismatch if the table's order, k or class sizes are not the group's."""
    sizes = [len(c) for c in group.classes]
    if (table.group_order, table.k, table.class_sizes.tolist()) != (group.order, len(sizes), sizes):
        raise GroupMismatch(f"{table!r} is not the table of this group of order {group.order}")
    inv_class = group.class_of[group.inverses]
    out = []
    for i in range(table.k):
        coeffs = (table.degrees[i] / table.group_order) * table.values[i, inv_class]
        out.append(CentralIdempotent(irrep=i, coeffs=coeffs))
    return out


def isotypic_projectors(group: FiniteMatrixGroup, table: CharacterTable) -> list[IsotypicProjector]:
    """P_i = (d_i/|G|) sum_g chi_i(g^-1) U(g) in the defining representation.

    Projectors of irreps absent from the defining representation come out as
    (numerically) zero matrices.
    """
    out = []
    for e in central_idempotents(group, table):
        p = np.einsum("g,gab->ab", e.coeffs, group.mats)
        out.append(IsotypicProjector(irrep=e.irrep, matrix=p))
    return out


def character_table_csv(table: CharacterTable) -> str:
    """CSV form: header `class_size,<size_1>,...,<size_k>`, then one row per
    irrep: the degree followed by the values as a+/-bi with 9 decimals."""
    lines = ["class_size," + ",".join(str(int(s)) for s in table.class_sizes)]
    for i in range(table.k):
        cells = [str(int(table.degrees[i]))]
        for v in table.values[i]:
            re = round(float(v.real), 9) + 0.0
            im = round(float(v.imag), 9) + 0.0
            cells.append(f"{re:.9f}{im:+.9f}i")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
