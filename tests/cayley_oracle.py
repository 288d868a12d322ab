"""Conjugacy classes and inverses read off the full Cayley table, O(|G|²).

The library builds both from the generator tables; these are the oracles
the tests hold them to.
"""

import numpy as np


def inverses_from_cayley(cayley: np.ndarray) -> np.ndarray:
    """inverses[a] = b with a b = identity, the identity being element 0."""
    return np.argmin(cayley, axis=1).astype(np.int64)


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
