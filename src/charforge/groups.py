"""Finite matrix groups built by closure from generator unitaries.

Element identity uses a canonical key: entries rounded to a fixed number of
decimal places, hashed row-major, with every key hit confirmed by a max-abs
tolerance check. A key miss (a new element, or drift across a rounding step)
falls back to locality buckets on a fixed random projection. Key index,
buckets and element store form one ElementLookup, which close_group builds
and keeps on the group and element_of queries.

Element indices are assigned in breadth-first discovery order starting from
{identity} + generators, multiplying on the right by generators, so closing
the same generator list twice yields identical tables. Each BFS level times
one generator is keyed, bucketed and its key hits confirmed as one numpy
batch; products are still resolved in order, each seeing the elements the
ones before it added.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, KeyCollision, OrderCapExceeded
from .linalg import canonical_keys, check_unitary


@dataclass(frozen=True)
class ClosureConfig:
    max_order: int = 20000
    tol: float = 1e-9
    round_digits: int = 9

    def __post_init__(self):
        if self.max_order < 1:
            raise ValueError("max_order must be >= 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


class ElementLookup:
    """Key index and projection buckets over a growing element store,
    mats[:count] in index order. A bucket is floor(<P, m> / w) for a fixed
    random P and w = |P|_1 * 8 * tol, so matrices within 8*tol of each other
    share a bucket or sit in adjacent ones. The index keeps only the hash of
    each canonical key: a hit is checked against tol anyway, and the buckets
    find any element within tol, so a hash collision costs time, not a
    different answer."""

    def __init__(self, dim: int, tol: float, round_digits: int):
        rng = np.random.default_rng(0x5EED)
        self._proj = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        proj_l1 = float(np.sum(np.abs(self._proj.real)) + np.sum(np.abs(self._proj.imag)))
        self._bucket_w = proj_l1 * 8.0 * tol
        self.tol, self.round_digits = tol, round_digits
        self.mats = np.empty((16, dim, dim), dtype=complex)
        self.count = 0
        self._index: dict[int, int] = {}  # hash of canonical key -> element
        self._buckets: dict[int, list[int]] = {}

    def _near(self, batch: np.ndarray, idx: list[int]) -> np.ndarray:
        return np.max(np.abs(batch - self.mats[idx]), axis=(1, 2)) <= self.tol

    def find(self, batch: np.ndarray, max_order: int | None = None) -> list[int]:
        """Element index of each matrix of `batch`, resolved in order. A pure
        query (max_order None) gives -1 for an absent matrix; otherwise it is
        added, raising KeyCollision when it is between tol and 8*tol of an
        element and OrderCapExceeded past max_order."""
        keys = [hash(k) for k in canonical_keys(batch, self.round_digits)]
        get = self._index.get
        hits = [get(k) for k in keys]
        known = [p for p, h in enumerate(hits) if h is not None]
        ok = [False] * len(keys)
        for p, near in zip(known, self._near(batch[known], [hits[p] for p in known]).tolist()):
            ok[p] = near
        # Elements added in this batch only take keys that missed or failed
        # their check at the start, so confirmed hits on other keys stand and
        # only the remaining positions are walked, in order.
        work = [p for p in range(len(keys)) if not ok[p]]
        straddled = {keys[p] for p in work if hits[p] is not None}
        if straddled:
            work = [p for p in range(len(keys)) if not ok[p] or keys[p] in straddled]
        if not work:
            return hits
        # these per-matrix sums equal np.sum over one matrix bit for bit; a
        # matmul's would not
        walked = batch[work]
        proj = (np.sum(self._proj.real * walked.real, axis=(1, 2))
                + np.sum(self._proj.imag * walked.imag, axis=(1, 2)))
        buckets = np.floor_divide(proj, self._bucket_w).astype(np.int64).tolist()
        for p, bucket in zip(work, buckets):
            hit = get(keys[p])
            if hit is not None and (ok[p] if hit == hits[p] else self._near(batch[p:p + 1], [hit])[0]):
                hits[p] = hit
            else:
                hits[p] = self._resolve_miss(batch[p], keys[p], bucket, max_order)
        return hits

    def _resolve_miss(self, m: np.ndarray, key: int, bucket: int,
                      max_order: int | None) -> int:
        cands = [c for b in (bucket - 1, bucket, bucket + 1) for c in self._buckets.get(b, ())]
        best, best_d = -1, np.inf
        if cands:
            dists = np.max(np.abs(self.mats[cands] - m), axis=(1, 2))
            best, best_d = cands[int(np.argmin(dists))], float(np.min(dists))
        if best_d <= self.tol:
            return best
        if max_order is None:
            return -1
        if best_d <= 8 * self.tol:
            raise KeyCollision(
                f"two products are {best_d:.2e} apart, between tol and 8*tol; "
                f"the generated set is not tolerance-separated")
        if self.count >= max_order:
            raise OrderCapExceeded(
                f"closure passed max_order={max_order}; generated group "
                f"is not finite or exceeds the cap")
        if self.count == len(self.mats):
            self.mats = np.concatenate([self.mats, np.empty_like(self.mats)])
        self.mats[self.count] = m
        self._index[key] = self.count
        self._buckets.setdefault(bucket, []).append(self.count)
        self.count += 1
        return self.count - 1


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
    round_digits: int = 9
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

    lookup = ElementLookup(dim, cfg.tol, cfg.round_digits)
    lookup.find(np.eye(dim, dtype=complex)[None], cfg.max_order)
    gen_found = lookup.find(np.stack(gens), cfg.max_order)
    gen_idx = list(dict.fromkeys(gen_found))
    # (parent element, generator slot) per element; a batch numbers its new
    # elements from len(parents) up, in the order it first meets them
    parents = [(-1, -1)]
    for slot, i in enumerate(gen_found):
        if i == len(parents):
            parents.append((0, slot))

    n_slots = len(gens)
    # right[a, j] = index of mats[a] @ gens[j]; a BFS level is the index range
    # the level before it found, and every element is expanded once
    right = np.zeros((0, n_slots), dtype=np.int64)
    lo = 0
    while lo < lookup.count:
        frontier = lookup.mats[lo:lookup.count]
        rows = np.zeros((len(frontier), n_slots), dtype=np.int64)
        for j, g in enumerate(gens):
            rows[:, j] = found = lookup.find(frontier @ g, cfg.max_order)
            for pos, i in enumerate(found):
                if i == len(parents):
                    parents.append((lo + pos, j))
        right = np.concatenate([right, rows])
        lo += len(frontier)
    n = lookup.count
    mats = lookup.mats = lookup.mats[:n].copy()

    # cayley[:, b] by composing right-multiplication permutations along the
    # BFS tree: b = parent @ gens[j] gives col(b) = right[col(parent), j].
    dtype = np.int16 if n < 2 ** 15 else np.int32
    cayley = np.zeros((n, n), dtype=dtype)
    cayley[:, 0] = np.arange(n)
    for b in range(1, n):
        p, j = parents[b]
        cayley[:, b] = right[cayley[:, p], j]

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
        round_digits=cfg.round_digits,
        _lookup=lookup,
    )


def element_of(group: FiniteMatrixGroup, m: np.ndarray) -> int | None:
    """Index of the unique element matching m within the group tolerance,
    or None when absent."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (group.dim, group.dim):
        raise DimensionMismatch(f"expected shape {(group.dim, group.dim)}, got {m.shape}")
    if not np.isfinite(m).all():
        return None
    found = group._lookup.find(m[None])[0]
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
