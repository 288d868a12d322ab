"""Finite matrix groups built by closure from generator unitaries.

Two matrices are the same element when their entries agree within TOL in
max-abs, the package's only test of matrix equality. One index finds them,
ElementLookup: the elements' random projections in a sorted array, so the
elements within 8*TOL of a product lie in a window of that array, found with
searchsorted. Each candidate is then checked by max-abs distance. close_group
builds the lookup and the group keeps it for element_of.

The BFS keeps its elements in one of two forms, chosen once from the
generators. Every gate kind but h is monomial, one nonzero entry per column,
and so is every product of monomials: when every generator (and every element
of a seed group) is, an element M is a row [phi | sigma] of 2d complex numbers,
M e_i = phi_i e_sigma(i) with the permutation sigma stored as numbers. A
product with a generator is then a gather and d phase products, where a dense
product is a d x d matrix product; the max-abs distance of two rows is
max |phi - phi'| when sigma = sigma', and at least 1, like the matrices', when
not, so both forms merge, collide and number alike. Otherwise the elements are
(d, d) matrices and each batch of products, a stack of matrices times one, is
one 2-D product. A closure kept as rows writes its matrices once at the end,
with every zero +0.0 (a BLAS product may write some as -0.0) and phases from
numpy's complex products (a BLAS product may differ in the last bit), and its
lookup over them is made on first use.

Element indices are assigned in breadth-first discovery order starting from
{identity} + generators, multiplying on the right by generators, so closing
the same generator list twice yields identical tables. Each BFS level times
one generator is one batch; the new elements of a batch are numbered in the
order the batch first meets them. A closure seeded with `base`, the closure
of the first k generators, keeps base's numbering and numbers the rest in
discovery order from base (Dimino's method): the same group, renumbered.
Before that BFS, counting base's right cosets can show the group is past the cap.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidSpec, KeyCollision, OrderCapExceeded
from .histogram import _is_int, check_type
from .linalg import check_unitary

# builder cp angles are quantized to 10 significant digits for the text
# format, which drifts products by a few 1e-10 per multiplication; a 1e-8
# tolerance keeps those drifts inside the merge zone. It costs no finite group:
# elements g != h with g h^-1 of order m are at least 2 sin(pi/m)/d apart in
# max-abs, over 3e-7 > 8*TOL for m <= 20000 and d <= 1024
TOL = 1e-8
# entries of the Cayley columns that convolve and the claims' C3 check read at once
COLUMN_CHUNK = 1 << 22


@dataclass(frozen=True)
class ClosureConfig:
    max_order: int = 20000

    def __post_init__(self):
        if not _is_int(self.max_order) or self.max_order < 1:
            raise InvalidSpec(f"max_order must be an integer >= 1, got {self.max_order!r}")


@lru_cache(maxsize=None)
def _projection(dim: int, rows: bool) -> tuple[np.ndarray, float]:
    """ElementLookup's fixed random projection P and its window w."""
    rng = np.random.default_rng(0x5EED)
    if rows:  # one weight per float of a row [phi | sigma]
        proj = rng.standard_normal(4 * dim)
    else:
        proj = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        proj = proj.view(np.float64).ravel()  # (re, im) per entry, as a complex row reads as floats
    proj.flags.writeable = False  # every lookup of this dim and form shares it
    return proj, float(np.sum(np.abs(proj))) * 8.0 * TOL


class ElementLookup:
    """Growing element store, mats[:count] in index order, indexed by the
    projections <P, m> for a fixed random P, kept sorted. The elements are
    (d, d) matrices, or in a lookup `of` rows the rows [phi | sigma] the
    module docstring describes, each element's floats read against P. With
    w = |P|_1 * 8 * TOL, every element within 8*TOL of a matrix has its
    projection within w of the matrix's. At most one element is within TOL
    of any matrix, because stored elements are more than 8*TOL apart, so the
    answer does not depend on how the index is laid out. When no window holds
    more than one key, as in over 90% of the optimizer's lookups, each
    projection's one candidate is read without expanding the windows."""

    def __init__(self, dim: int):
        self._proj, self._w = _projection(dim, False)
        self._axes = (1, 2)                          # max-abs over a matrix, (1,) over a row
        self.mats = np.empty((16, dim, dim), dtype=complex)
        self.count = 0
        self._keys = np.empty(0)                     # sorted projections
        self._ids = np.empty(0, dtype=np.int64)      # element of each key

    @classmethod
    def of(cls, elems: np.ndarray) -> ElementLookup:
        """The lookup of a stack of distinct matrices, or rows, numbered in
        order, made without a find."""
        rows = elems.ndim == 2
        lookup = cls(elems.shape[1] // 2 if rows else elems.shape[1])
        if rows:
            lookup._proj, lookup._w = _projection(elems.shape[1] // 2, True)
            lookup._axes = (1,)
        keys = lookup._project(elems)
        lookup._ids = keys.argsort(kind="stable")
        lookup._keys, lookup.mats, lookup.count = keys.take(lookup._ids), elems, len(elems)
        return lookup

    def _project(self, batch: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(batch).reshape(len(batch), len(self._proj) // 2).view(np.float64) @ self._proj

    def _pairs(self, proj: np.ndarray, keys: np.ndarray, ids: np.ndarray):
        """(position in proj, id) for every key within w of a projection."""
        lo = keys.searchsorted(proj - self._w, "left")
        n = keys.searchsorted(proj + self._w, "right") - lo
        if n.max() <= 1:  # one candidate at most per projection, the usual case
            q = n.nonzero()[0]
            return q, ids.take(lo.take(q))
        q = np.repeat(np.arange(len(proj)), n)
        return q, ids[np.arange(len(q)) + np.repeat(lo - np.cumsum(n) + n, n)]

    def find(self, batch: np.ndarray, max_order: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Element index of each matrix (or row) of `batch`, and the batch
        positions of the elements added, in index order. A pure query (max_order None)
        gives -1 for an absent matrix; otherwise the absent ones are added,
        those within TOL of each other as one element stored as their first.
        Raises KeyCollision at a product between TOL and 8*TOL of an element
        or of another product, and OrderCapExceeded at the first new element
        past max_order, whichever comes first in the batch."""
        if not len(batch):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        proj = self._project(batch)
        q, c = self._pairs(proj, self._keys, self._ids)
        d = np.abs(batch.take(q, 0) - self.mats.take(c, 0)).max(self._axes)
        found, hit = np.full(len(batch), -1, dtype=np.int64), d <= TOL
        found[q[hit]] = c[hit]
        miss = (found < 0).nonzero()[0]
        if max_order is None or not len(miss):
            return found, miss[:0]
        near, new, first = q[(d <= 8 * TOL) & (found.take(q) < 0)], miss, None
        # misses within w of each other, if any; i, j index `miss`, which is in batch order
        pm = proj.take(miss)
        by_proj = pm.argsort(kind="stable")
        if ((ps := pm.take(by_proj))[1:] - ps[:-1] <= self._w).any():
            i, j = self._pairs(pm, ps, by_proj)
            i, j = i[i != j], j[i != j]
            dd = np.abs(batch.take(miss.take(i), 0) - batch.take(miss.take(j), 0)).max(self._axes)
            first = np.arange(len(miss))
            np.minimum.at(first, i[dd <= TOL], j[dd <= TOL])
            near = np.concatenate([near, miss[np.maximum(i, j)[(dd > TOL) & (dd <= 8 * TOL)]]])
            new = miss[first == np.arange(len(miss))]
        at_cap = new[max_order - self.count] if len(new) > max_order - self.count else len(batch)
        if len(near) and near.min() <= at_cap:
            raise KeyCollision(f"product {near.min()} of the batch is between TOL and 8*TOL of another "
                               f"matrix; the generated set is not tolerance-separated")
        if at_cap < len(batch):
            raise OrderCapExceeded(f"closure passed max_order={max_order}; generated group "
                                   f"is not finite or exceeds the cap")
        ids = self.count + np.arange(len(new))
        found[new] = ids
        if first is not None:  # each copy within TOL takes its first's index
            found[miss] = found[miss[first]]
        if (need := self.count + len(new)) > len(self.mats):  # grow, copying the used rows once
            mats = np.empty((max(2 * len(self.mats), need), *self.mats.shape[1:]), dtype=complex)
            mats[:self.count] = self.mats[:self.count]
            self.mats = mats
        self.mats[self.count:self.count + len(new)] = batch[new]
        self.count += len(new)
        # a sorted run and a short one: the stable sort (a timsort) merges them
        keys = np.concatenate([self._keys, proj.take(new)])
        by_proj = keys.argsort(kind="stable")
        self._keys, self._ids = keys.take(by_proj), np.concatenate([self._ids, ids]).take(by_proj)
        return found, new


@dataclass
class FiniteMatrixGroup:
    """Closure of a gate set with its BFS tables.

    Fields:
        dim: matrix dimension.
        mats: (order, dim, dim) complex array; mats[i] is element i, numbered
            as the module docstring says. The identity is always element 0.
            Matrices in either element form: a closure the BFS kept as rows
            [phi | sigma] (module docstring) writes them once, every zero +0.0.
        generators: indices of the (deduplicated) input generators.
        input_elements: index of each input generator, duplicates included.
        right: (order, inputs) int array; right[a, j] = index of
            mats[a] @ (input generator j).
        parent, slot, bounds: element b = mats[parent[b]] @ (input generator
            slot[b]), -1 for the identity; BFS level i is bounds[i]:bounds[i+1].
        lookup: the ElementLookup of mats, the BFS's own for a closure kept
            as matrices and made on first use for one kept as rows.

    Lazy (functools.cached_property), each O(|G| m) for m inputs from `right`
    and the BFS tree: left[j, b] = index of (input generator j) @ mats[b];
    inverses; classes, the conjugacy classes as sorted index tuples ordered by
    the smallest member, so the identity class comes first; class_of maps
    element -> class index. Only cayley[a, b] = index of mats[a] @ mats[b] is
    O(|G|²): n² × 2 bytes below 2¹⁵ elements (170 MB at order 9216). No
    command or library path builds it, only tests and tracing tools;
    `convolve` and the claims' C3 check read bounded chunks of columns().
    """

    dim: int
    mats: np.ndarray
    generators: list[int]
    input_elements: list[int]
    right: np.ndarray
    parent: np.ndarray
    slot: np.ndarray
    bounds: list[int]
    _lookup: ElementLookup | None = field(default=None, repr=False, compare=False)

    @property
    def lookup(self) -> ElementLookup:
        if self._lookup is None:
            self._lookup = ElementLookup.of(self.mats)
        return self._lookup

    @property
    def order(self) -> int:
        return self.mats.shape[0]

    def __repr__(self) -> str:
        k = f", k={len(self.classes)}" if "classes" in self.__dict__ else ""
        return f"FiniteMatrixGroup(dim={self.dim}, order={self.order}{k})"

    def _levels(self):
        """(lo, hi) of each BFS level after the identity; parents lie in earlier levels."""
        return zip([1] + self.bounds[1:-1], self.bounds[1:])

    @cached_property
    def left(self) -> np.ndarray:
        # b = p @ g_s gives g_j @ b = (g_j @ p) @ g_s: a level reads the one before
        left = np.empty((self.right.shape[1], self.order), dtype=np.int64)
        left[:, 0] = self.input_elements
        for lo, hi in self._levels():
            left[:, lo:hi] = self.right[left[:, self.parent[lo:hi]], self.slot[lo:hi]]
        return left

    @cached_property
    def _left_inverse(self) -> np.ndarray:
        """[j, b] = index of (input generator j)⁻¹ @ mats[b]: left's rows inverted."""
        return np.argsort(self.left, axis=1)

    @cached_property
    def cayley(self) -> np.ndarray:
        # a = p @ g_s gives a @ b = p @ (g_s @ b): row a is row p read through
        # left[s]; the rows fill in index order, as every parent has a smaller index
        n, parent, slot, left = self.order, self.parent, self.slot, self.left
        cayley = np.empty((n, n), dtype=np.int16 if n < 2 ** 15 else np.int32)
        cayley[0] = np.arange(n)
        for a in range(1, n):
            np.take(cayley[parent[a]], left[slot[a]], out=cayley[a])
        return cayley

    @cached_property
    def inverses(self) -> np.ndarray:
        # (p @ g_s)⁻¹ = g_s⁻¹ @ p⁻¹, level by level
        inv = np.zeros(self.order, dtype=np.int64)
        for lo, hi in self._levels():
            inv[lo:hi] = self._left_inverse[self.slot[lo:hi], inv[self.parent[lo:hi]]]
        return inv

    @cached_property
    def class_of(self) -> np.ndarray:
        # orbits of x -> g_s⁻¹ x g_s over the generators s, each labelled by its
        # smallest member: pull and push the least label along every edge, then
        # jump label -> label[label], until nothing changes
        conj = self.right[self._left_inverse, np.arange(self.right.shape[1])[:, None]]
        label, prev = np.arange(self.order), None
        while prev is None or not np.array_equal(label, prev):
            prev = label
            for c in conj:
                label = np.minimum(label, label[c])
                label[c] = np.minimum(label[c], label)
            label = label[label]
        return np.unique(label, return_inverse=True)[1]  # classes numbered by smallest member

    @cached_property
    def classes(self) -> list[tuple[int, ...]]:
        members = np.argsort(self.class_of, kind="stable")
        return [tuple(c.tolist()) for c in np.split(members, np.cumsum(np.bincount(self.class_of))[:-1])]

    def columns(self, zs) -> np.ndarray:
        """(len(zs), order) array; [i, y] = index of mats[y] @ mats[zs[i]], the
        Cayley column of zs[i]: a walk of `right` along the BFS word of zs[i].
        The words are walked in sorted order, so a shared prefix is walked once.
        InvalidSpec for an index that is not an integer in [0, order)."""
        zs = np.asarray(zs)
        if zs.ndim != 1 or len(zs) and (zs.dtype.kind not in "iu" or zs.min() < 0 or zs.max() >= self.order):
            raise InvalidSpec(f"columns takes element indices in [0, {self.order}), got {zs!r}")
        steps, slot, parent, words = self.right.T.copy(), self.slot.tolist(), self.parent.tolist(), []
        for z in zs.tolist():  # Python ints: a numpy scalar costs more per step than the lists
            words.append([])
            while z > 0:
                words[-1].insert(0, slot[z])
                z = parent[z]
        out, path, prev = np.empty((len(zs), self.order), dtype=np.int64), [np.arange(self.order)], []
        for i in sorted(range(len(zs)), key=words.__getitem__):  # path[t]: column of prev[:t]
            t = 0
            while t < min(len(prev), len(words[i])) and prev[t] == words[i][t]:
                t += 1
            del path[t + 1:]
            for s in words[i][t:]:
                path.append(steps[s][path[-1]])
            out[i], prev = path[-1], words[i]
        return out


def check_group(group) -> None:
    """Raises InvalidSpec naming the type of a `group` that is not a FiniteMatrixGroup."""
    check_type("group", group, FiniteMatrixGroup)


def _rows_of(mats: np.ndarray) -> np.ndarray | None:
    """The rows [phi | sigma] of a stack of unitaries, M e_i = phi_i e_sigma(i)
    with sigma as complex numbers; None unless each column has one nonzero
    entry (a unitary's columns have at least one)."""
    nonzero = mats != 0
    if np.count_nonzero(nonzero) != mats.shape[0] * mats.shape[2]:
        return None
    return np.concatenate([mats.sum(1), nonzero.argmax(1)], axis=1)


def _dense_of(rows: np.ndarray) -> np.ndarray:
    """The matrices of a stack of rows, every zero +0.0."""
    n, dim = rows.shape[0], rows.shape[1] // 2
    mats = np.zeros((n, dim, dim), dtype=complex)
    # adding +0.0 turns a -0.0 part of a phase into +0.0
    mats[np.arange(n)[:, None], rows[:, dim:].real.astype(np.intp), np.arange(dim)] = rows[:, :dim] + 0.0
    return mats


def _factor(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, by) with r·g = r[..., at] * by for each of a stack of rows g:
    sigma = sigma_r[sigma_g] and phi = phi_r[sigma_g] * phi_g."""
    dim = rows.shape[-1] // 2
    sigma, by = rows[..., dim:].real.astype(np.intp), rows.copy()
    by[..., dim:] = 1
    return np.concatenate([sigma, sigma + dim], -1), by


def _times(elems: np.ndarray, g) -> np.ndarray:
    """elems · g for a stack of elements in one form. A dense g is one 2-D
    product, as numpy multiplies a stack one matrix at a time and both give
    the same bits; a rows g is its _factor, a gather and a product."""
    if isinstance(g, tuple):
        return elems.take(g[0], axis=1) * g[1]
    return (elems.reshape(-1, g.shape[0]) @ g).reshape(elems.shape)


def _times_inverses(x: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """x · r† for every x, then every r, in the form of both."""
    if x.ndim == 3:
        return (x[:, None] @ reps.conj().swapaxes(1, 2)).reshape(-1, *x.shape[1:])
    # r† e_sigma(i) = conj(phi_i) e_i: sigma† = sigma⁻¹ and phi†_j = conj(phi_sigma†(j))
    dim = x.shape[1] // 2
    inv = reps[:, dim:].real.argsort(1)
    at, by = _factor(np.concatenate([reps[np.arange(len(reps))[:, None], inv].conj(), inv], axis=1))
    return (x.take(at, axis=1) * by).reshape(-1, 2 * dim)


def close_group(generators: list[np.ndarray], cfg: ClosureConfig | None = None,
                base: FiniteMatrixGroup | None = None) -> FiniteMatrixGroup:
    """Close a generator list under matrix multiplication.

    The BFS keeps its elements as rows when every generator and every
    element of `base` is monomial, and as matrices otherwise; either way
    the group's mats are matrices and its lookup is over them.

    With `base`, H = the closure of generators[:k], it counts
    H's right cosets first, where (max_order // |H|)² <= max_order; the BFS
    then starts from base's elements and tables and expands only what is new.

    Raises OrderCapExceeded if more than cfg.max_order elements are found or
    H's cosets show there are, KeyCollision when two products are between TOL
    and 8*TOL apart, DimensionMismatch on inconsistent generator or base
    shapes, InvalidSpec when generators is not a list, tuple or (k, d, d)
    array, cfg is not a ClosureConfig, base is not a FiniteMatrixGroup or
    base's generators are not generators[:k] within TOL, and NotUnitary when
    a generator is not a unitary matrix of numbers. A (k, d, d) array passes
    as k generators.
    """
    cfg = ClosureConfig() if cfg is None else cfg
    if not isinstance(cfg, ClosureConfig):
        raise InvalidSpec(f"cfg must be a ClosureConfig, got {cfg!r}")
    if base is not None and not isinstance(base, FiniteMatrixGroup):
        raise InvalidSpec(f"base must be a FiniteMatrixGroup, got {type(base).__name__}")
    if not isinstance(generators, (list, tuple)) and np.ndim(generators) != 3:
        raise InvalidSpec(f"generators must be a list, tuple or (k, d, d) array, got {type(generators).__name__}")
    gens = [check_unitary(g) for g in generators]
    if not gens:
        raise DimensionMismatch("need at least one generator to fix the dimension")
    dim = gens[0].shape[0]
    for g in gens[1:]:
        if g.shape[0] != dim:
            raise DimensionMismatch(f"generator dims differ: {g.shape[0]} vs {dim}")
    if base is not None:
        if base.dim != dim:
            raise DimensionMismatch(f"base dim {base.dim} differs from generator dim {dim}")
        n, k = base.right.shape
        if k > len(gens) or np.max(np.abs(base.mats[base.input_elements] - gens[:k])) > TOL:
            raise InvalidSpec("base is not the closure of the first generators")
    # the form, chosen once: rows when the identity, the generators and base's
    # elements all are monomial; gens then holds the generators' _factor
    start = np.array([np.eye(dim, dtype=complex), *gens])
    rows = _rows_of(start)
    base_rows = None if rows is None or base is None else _rows_of(base.mats)
    if rows is not None and (base is None or base_rows is not None):
        start, gens = rows, list(zip(*_factor(rows[1:])))

    if base is None:
        lookup = ElementLookup.of(start[:0]) if start.ndim == 2 else ElementLookup(dim)
        found, new = lookup.find(start, cfg.max_order)
        gen_found = found[1:]
        # element b = mats[parent[b]] @ gens[slot[b]]; the identity, first in the
        # batch above, has neither
        parent, slot, bounds, right = [np.where(new > 0, 0, -1)], [new - 1], [0], []
    else:
        # find replaces a copy's key arrays but writes into its mats, copied below
        lookup = ElementLookup.of(base_rows) if start.ndim == 2 else copy.copy(base.lookup)
        # Dimino's coset step, by levels of products r·g: x is in H·r iff x·r† is in H.
        # It takes about (max_order // |H|)² finds, so it runs where that is within the cap
        index_cap, reps, lo = cfg.max_order // n, start[:1], 0
        while lo < len(reps) and index_cap ** 2 <= cfg.max_order:
            frontier, lo = reps[lo:], len(reps)
            for g in gens:
                if len(reps) > index_cap:
                    raise OrderCapExceeded(f"over {index_cap} cosets of the base group of order {n}: "
                                           f"the closure passes max_order={cfg.max_order}")
                x = _times(frontier, g)  # in distinct cosets, as H·r -> H·r·g is one-to-one
                found = lookup.find(_times_inverses(x, reps))[0]
                reps = np.concatenate([reps, x[(found.reshape(len(x), -1) < 0).all(1)]])
        if start.ndim == 3:
            lookup.mats = lookup.mats[:n].copy()
        parent, slot, bounds = [base.parent], [base.slot], list(base.bounds)
        table = np.hstack([base.right, np.empty((n, len(gens) - k), dtype=np.int64)])
        for j in range(k, len(gens)):  # base's elements times each new generator
            table[:, j], new = lookup.find(_times(lookup.mats[:n], gens[j]), cfg.max_order)
            parent.append(new)
            slot.append(np.full(len(new), j))
        gen_found, right = np.array(base.input_elements + table[0, k:].tolist()), [table]
    # right[a, j] = index of mats[a] @ gens[j]; a BFS level is the index range
    # the level before it found, and every element is expanded once
    while bounds[-1] < lookup.count:
        lo, hi = bounds[-1], lookup.count
        table = np.empty((hi - lo, len(gens)), dtype=np.int64)
        for j, g in enumerate(gens):
            table[:, j], new = lookup.find(_times(lookup.mats[lo:hi], g), cfg.max_order)
            parent.append(lo + new)
            slot.append(np.full(len(new), j))
        right.append(table)
        bounds.append(hi)
    if start.ndim == 2:  # the group's lookup, over its matrices, is made on first use
        mats, lookup = _dense_of(lookup.mats[:lookup.count]), None
    else:
        mats = lookup.mats = lookup.mats[:lookup.count].copy()
    return FiniteMatrixGroup(
        dim=dim, mats=mats, generators=list(dict.fromkeys(gen_found.tolist())),
        input_elements=gen_found.tolist(), right=np.concatenate(right),
        parent=np.concatenate(parent), slot=np.concatenate(slot), bounds=bounds, _lookup=lookup)


def element_of(group: FiniteMatrixGroup, m: np.ndarray) -> int | None:
    """Index of the unique element matching m within TOL,
    or None when absent."""
    check_group(group)
    try:
        m = np.asarray(m, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InvalidSpec(f"expected a {group.dim}x{group.dim} matrix: {exc}") from exc
    if m.shape != (group.dim, group.dim):
        raise DimensionMismatch(f"expected shape {(group.dim, group.dim)}, got {m.shape}")
    if not np.isfinite(m).all():
        return None
    found = int(group.lookup.find(m[None])[0][0])
    return None if found < 0 else found


def walk(steps: np.ndarray, slots) -> int:
    """Index of the product of gates given by their slots, applied left to right:
    steps[a, s] is element a times slot s, so the walk takes the last gate first."""
    a = 0
    for s in reversed(slots):
        a = int(steps[a, s])
    return a


def center_and_abelian(group: FiniteMatrixGroup) -> tuple[list[int], bool]:
    """Center as element indices plus an is-abelian flag: z is central iff
    its conjugacy class is {z}."""
    check_group(group)
    center = [c[0] for c in group.classes if len(c) == 1]
    return center, len(center) == group.order


def group_to_json(group: FiniteMatrixGroup) -> dict:
    """Dump format used by the CLI: dim, order, elements as row-major
    [re, im] pair arrays, generator indices, classes."""
    check_group(group)
    return {
        "dim": group.dim,
        "order": group.order,
        "elements": np.stack([group.mats.real, group.mats.imag], -1).reshape(group.order, -1, 2).tolist(),
        "generators": list(group.generators),
        "classes": [list(c) for c in group.classes],
    }
