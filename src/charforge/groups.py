"""Finite matrix groups built by closure from generator unitaries.

Two matrices are the same element when their entries agree within a max-abs
tolerance. Elements are found through one index, ElementLookup: the
elements' random projections in a sorted array, so the elements within 8*tol
of a product lie in a window of that array, found with searchsorted. Each
candidate is then checked by max-abs distance. close_group builds the
lookup and keeps it on the group for element_of.

Element indices are assigned in breadth-first discovery order starting from
{identity} + generators, multiplying on the right by generators, so closing
the same generator list twice yields identical tables. Each BFS level times
one generator is one batch; the new elements of a batch are numbered in the
order the batch first meets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, KeyCollision, OrderCapExceeded
from .linalg import check_unitary

_CAYLEY_CHUNK = 128  # rows per gather, so the (rows, order) index temporaries stay small


@dataclass(frozen=True)
class ClosureConfig:
    max_order: int = 20000
    tol: float = 1e-9

    def __post_init__(self):
        if not isinstance(self.max_order, (int, np.integer)) or self.max_order < 1:
            raise InvalidSpec(f"max_order must be an integer >= 1, got {self.max_order!r}")
        if not isinstance(self.tol, (int, float)) or not 0 < self.tol < math.inf:
            raise InvalidSpec(f"tol must be finite and positive, got {self.tol!r}")


class ElementLookup:
    """Growing element store, mats[:count] in index order, indexed by the
    projections <P, m> for a fixed random P, kept sorted. With
    w = |P|_1 * 8 * tol, every element within 8*tol of a matrix has its
    projection within w of the matrix's. At most one element is within tol
    of any matrix, because stored elements are more than 8*tol apart, so the
    answer does not depend on how the index is laid out."""

    def __init__(self, dim: int, tol: float):
        rng = np.random.default_rng(0x5EED)
        proj = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        self._proj = proj.view(np.float64).ravel()  # (re, im) per entry, as a complex row reads as floats
        self._w = float(np.sum(np.abs(self._proj))) * 8.0 * tol
        self.tol = tol
        self.mats = np.empty((16, dim, dim), dtype=complex)
        self.count = 0
        self._keys = np.empty(0)                     # sorted projections
        self._ids = np.empty(0, dtype=np.int64)      # element of each key

    def _pairs(self, proj: np.ndarray, keys: np.ndarray, ids: np.ndarray):
        """(position in proj, id) for every key within w of a projection."""
        lo = np.searchsorted(keys, proj - self._w, "left")
        n = np.searchsorted(keys, proj + self._w, "right") - lo
        q = np.repeat(np.arange(len(proj)), n)
        return q, ids[np.arange(len(q)) + np.repeat(lo - np.cumsum(n) + n, n)]

    def find(self, batch: np.ndarray, max_order: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Element index of each matrix of `batch`, and the batch positions
        of the elements added, in index order. A pure query (max_order None)
        gives -1 for an absent matrix; otherwise the absent ones are added,
        those within tol of each other as one element stored as their first.
        Raises KeyCollision at a product between tol and 8*tol of an element
        or of another product, and OrderCapExceeded at the first new element
        past max_order, whichever comes first in the batch."""
        proj = np.ascontiguousarray(batch).reshape(len(batch), -1).view(np.float64) @ self._proj
        q, c = self._pairs(proj, self._keys, self._ids)
        d = np.max(np.abs(batch[q] - self.mats[c]), axis=(1, 2))
        found = np.full(len(batch), -1, dtype=np.int64)
        found[q[d <= self.tol]] = c[d <= self.tol]
        miss = np.flatnonzero(found < 0)
        if max_order is None or not len(miss):
            return found, miss[:0]
        near = q[(d <= 8 * self.tol) & (found[q] < 0)]
        # misses within w of each other, if any; i, j index `miss`, which is in batch order
        first = np.arange(len(miss))
        by_proj = np.argsort(proj[miss], kind="stable")
        if np.any(np.diff(proj[miss][by_proj]) <= self._w):
            i, j = self._pairs(proj[miss], proj[miss][by_proj], by_proj)
            i, j = i[i != j], j[i != j]
            dd = np.max(np.abs(batch[miss[i]] - batch[miss[j]]), axis=(1, 2))
            np.minimum.at(first, i[dd <= self.tol], j[dd <= self.tol])
            near = np.concatenate([near, miss[np.maximum(i, j)[(dd > self.tol) & (dd <= 8 * self.tol)]]])
        new = miss[first == np.arange(len(miss))]
        at_cap = new[max_order - self.count] if len(new) > max_order - self.count else len(batch)
        if len(near) and near.min() <= at_cap:
            raise KeyCollision(f"product {near.min()} of the batch is between tol and 8*tol of another "
                               f"matrix; the generated set is not tolerance-separated")
        if at_cap < len(batch):
            raise OrderCapExceeded(f"closure passed max_order={max_order}; generated group "
                                   f"is not finite or exceeds the cap")
        ids = self.count + np.arange(len(new))
        found[new] = ids
        found[miss] = found[miss[first]]
        while self.count + len(new) > len(self.mats):
            self.mats = np.concatenate([self.mats, np.empty_like(self.mats)])
        self.mats[ids] = batch[new]
        self.count += len(new)
        # a sorted run and a short one: the stable sort (a timsort) merges them
        keys = np.concatenate([self._keys, proj[new]])
        by_proj = np.argsort(keys, kind="stable")
        self._keys, self._ids = keys[by_proj], np.concatenate([self._ids, ids])[by_proj]
        return found, new


@dataclass
class FiniteMatrixGroup:
    """Closure of a gate set, with Cayley and class structure.

    Fields:
        dim: matrix dimension.
        mats: (order, dim, dim) complex array; mats[i] is element i. The
            identity is always element 0.
        cayley: (order, order) int array; cayley[a, b] = index of
            mats[a] @ mats[b].
        inverses: (order,) int array.
        classes: conjugacy classes as tuples of indices, ordered by the
            smallest member, so the identity class comes first.
        class_of: (order,) int array mapping element -> class index.
        generators: indices of the (deduplicated) input generators.
    """

    dim: int
    mats: np.ndarray
    cayley: np.ndarray
    inverses: np.ndarray
    classes: list[tuple[int, ...]]
    class_of: np.ndarray
    generators: list[int]
    tol: float = 1e-9
    _lookup: ElementLookup | None = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        return self.mats.shape[0]

    def __repr__(self) -> str:
        return f"FiniteMatrixGroup(dim={self.dim}, order={self.order}, k={len(self.classes)})"


def close_group(generators: list[np.ndarray], cfg: ClosureConfig | None = None) -> FiniteMatrixGroup:
    """Close a generator list under matrix multiplication.

    Raises OrderCapExceeded if more than cfg.max_order elements are
    discovered, KeyCollision when two products are between tol and 8*tol
    apart, DimensionMismatch on inconsistent generator shapes and NotUnitary
    when a generator fails the unitarity check.
    """
    cfg = cfg or ClosureConfig()
    if not generators:
        raise DimensionMismatch("need at least one generator to fix the dimension")
    gens = [check_unitary(g) for g in generators]
    dim = gens[0].shape[0]
    for g in gens[1:]:
        if g.shape[0] != dim:
            raise DimensionMismatch(f"generator dims differ: {g.shape[0]} vs {dim}")

    lookup = ElementLookup(dim, cfg.tol)
    found, new = lookup.find(np.stack([np.eye(dim, dtype=complex), *gens]), cfg.max_order)
    gen_found = found[1:]
    gen_idx = list(dict.fromkeys(gen_found.tolist()))
    # element b = mats[parent[b]] @ gens[slot[b]]; the identity, first in the
    # batch above, has neither
    parent, slot = [np.where(new > 0, 0, -1)], [new - 1]
    # right[a, j] = index of mats[a] @ gens[j]; a BFS level is the index range
    # the level before it found, and every element is expanded once
    bounds, right = [0], []
    while bounds[-1] < lookup.count:
        lo, hi = bounds[-1], lookup.count
        frontier = lookup.mats[lo:hi]
        rows = np.empty((hi - lo, len(gens)), dtype=np.int64)
        for j, g in enumerate(gens):
            rows[:, j], new = lookup.find(frontier @ g, cfg.max_order)
            parent.append(lo + new)
            slot.append(np.full(len(new), j))
        right.append(rows)
        bounds.append(hi)
    n = lookup.count
    mats = lookup.mats = lookup.mats[:n].copy()
    right = np.concatenate(right)
    parent, slot = np.concatenate(parent), np.concatenate(slot)

    # a = p @ g_s gives a @ b = p @ (g_s @ b): row a of the table is row p
    # read through grow[s], where grow[s, b] = index of gens[s] @ mats[b].
    # Both are filled level by level (the generators, then what each level
    # found), since every parent is a level earlier; grow comes first, as a
    # row reads all of grow[s].
    dtype = np.int16 if n < 2 ** 15 else np.int32
    grow = np.empty((len(gens), n), dtype=np.int64)
    grow[:, 0] = gen_found
    cayley = np.empty((n, n), dtype=dtype)
    cayley[0] = np.arange(n)
    levels = list(zip([1] + bounds[1:-1], bounds[1:]))
    for lo, hi in levels:
        grow[:, lo:hi] = right[grow[:, parent[lo:hi]], slot[lo:hi]]
    for lo, hi in levels:
        for c in range(lo, hi, _CAYLEY_CHUNK):
            r = slice(c, min(c + _CAYLEY_CHUNK, hi))
            cayley[r] = cayley[parent[r, None], grow[slot[r]]]

    inverses = np.argmin(cayley, axis=1).astype(np.int64)
    classes, class_of = conjugacy_classes_from_cayley(cayley, inverses)

    return FiniteMatrixGroup(
        dim=dim,
        mats=mats,
        cayley=cayley,
        inverses=inverses,
        classes=classes,
        class_of=class_of,
        generators=gen_idx,
        tol=cfg.tol,
        _lookup=lookup,
    )


def element_of(group: FiniteMatrixGroup, m: np.ndarray) -> int | None:
    """Index of the unique element matching m within the group tolerance,
    or None when absent."""
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"expected a {group.dim}x{group.dim} matrix: {exc}") from exc
    if m.shape != (group.dim, group.dim):
        raise DimensionMismatch(f"expected shape {(group.dim, group.dim)}, got {m.shape}")
    if not np.isfinite(m).all():
        return None
    found = int(group._lookup.find(m[None])[0][0])
    return None if found < 0 else found


def conjugacy_classes_from_cayley(
    cayley: np.ndarray, inverses: np.ndarray
) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """Partition indices into conjugacy classes using only the cayley table.

    a and b share a class iff g a g^-1 = b for some g. Classes are ordered by
    their smallest member, so the identity's singleton class is first.
    """
    n = cayley.shape[0]
    all_g = np.arange(n)
    class_of = np.full(n, -1, dtype=np.int64)
    classes: list[tuple[int, ...]] = []
    for a in range(n):
        if class_of[a] >= 0:
            continue
        ag_inv = cayley[a, inverses[all_g]]
        orbit = np.unique(cayley[all_g, ag_inv])
        ci = len(classes)
        classes.append(tuple(int(x) for x in orbit))
        class_of[orbit] = ci
    return classes, class_of


def conjugacy_classes(group: FiniteMatrixGroup) -> list[tuple[int, ...]]:
    classes, _ = conjugacy_classes_from_cayley(group.cayley, group.inverses)
    return classes


def center_and_abelian(group: FiniteMatrixGroup) -> tuple[list[int], bool]:
    """Center as element indices plus an is-abelian flag, both from the
    cayley table."""
    center = [
        z for z in range(group.order)
        if np.array_equal(group.cayley[z, :], group.cayley[:, z])
    ]
    return center, len(center) == group.order


def group_to_json(group: FiniteMatrixGroup) -> dict:
    """Dump format used by the CLI: dim, order, elements as row-major
    [re, im] pair arrays, generator indices, classes."""
    elements = [
        [[float(v.real), float(v.imag)] for v in mat.ravel()]
        for mat in group.mats
    ]
    return {
        "dim": group.dim,
        "order": group.order,
        "elements": elements,
        "generators": list(group.generators),
        "classes": [list(c) for c in group.classes],
    }
