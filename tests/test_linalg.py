import re

import numpy as np
import pytest

from charforge.errors import NotUnitary
from charforge import linalg
from charforge.linalg import UNITARY_TOL, check_unitaries, check_unitary
from phase_oracle import phase_canonical


def phase_canonical_reference(m, tol=1e-9):
    for v in m.ravel():
        if abs(v) > tol:
            return m * (abs(v) / v)
    return m


def _stack(rng, k, d):
    m = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
    # exact zeros, signed zeros and entries at the tolerance exercise the
    # canonicalisation edges
    m[:, 0, 0] *= rng.choice([0.0, -0.0, 1e-10, 1.0], size=k)
    m[1] = -0.0
    return m


@pytest.mark.parametrize("d", [1, 2, 8])
def test_phase_canonical_stack_matches_per_matrix(d):
    m = _stack(np.random.default_rng(d), 200, d)
    expected = np.stack([phase_canonical_reference(x) for x in m])
    assert phase_canonical(m).tobytes() == expected.tobytes()
    assert np.stack([phase_canonical(x) for x in m]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("scale", [0.5, 2.0], ids=["inside", "past"])
def test_check_unitary_bounds_the_defect_by_its_constant(scale):
    # sqrt(1 + d) I has the defect d
    m = np.sqrt(1 + scale * UNITARY_TOL) * np.eye(2, dtype=complex)
    if scale < 1:
        assert check_unitary(m).tobytes() == m.tobytes()
    else:
        with pytest.raises(NotUnitary, match=re.escape("unitarity defect 2.000e-09 exceeds tol 1.000e-09")):
            check_unitary(m)


@pytest.mark.parametrize("ms, match", [
    ([np.eye(2), np.ones((2, 2))], "unitarity defect"),          # a uniform stack with one bad matrix
    ([np.eye(2), np.diag([1, np.nan])], "unitarity defect"),     # NaN entries
    ([np.ones((2, 3))], "expected a square matrix"),             # uniform but not square
    ([np.eye(2), [["a", "b"], ["c", "d"]]], "expected a square complex matrix"),  # not numbers
    ([np.eye(2), np.ones((3, 3))], "unitarity defect"),          # ragged: each checked on its own
])
def test_check_unitaries_raises_what_check_unitary_raises(ms, match):
    with pytest.raises(NotUnitary, match=match):
        check_unitaries(ms)


def test_check_unitaries_checks_a_uniform_stack_with_one_product(monkeypatch):
    defects, defect = [], linalg.unitarity_defect
    monkeypatch.setattr(linalg, "unitarity_defect", lambda m: defects.append(m.shape) or defect(m))
    stack = [np.eye(4)[[1, 0, 3, 2]], np.diag([1, 1j, -1, -1j]), np.eye(4)]
    assert np.array_equal(np.stack(check_unitaries(stack)), np.stack(stack))
    assert defects == [(3, 4, 4)]
    # a ragged list is checked matrix by matrix
    assert [m.shape for m in check_unitaries([np.eye(2), np.eye(3)])] == [(2, 2), (3, 3)]
    assert defects[1:] == [(2, 2), (3, 3)]
