import re

import numpy as np
import pytest

from charforge.errors import NotUnitary
from charforge.linalg import UNITARY_TOL, check_unitary
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
