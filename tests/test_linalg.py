import numpy as np
import pytest

from charforge.linalg import canonical_keys, phase_canonical


def round_key_reference(m, digits):
    return (np.round(m, digits) + (0.0 + 0.0j)).tobytes()


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


@pytest.mark.parametrize("digits", [-1, 0, 6, 8, 9, 12, 23])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_canonical_keys_match_np_round(digits, d):
    m = _stack(np.random.default_rng(digits + 10 * d), 60, d) * 0.7071067811865476
    assert canonical_keys(m, digits) == [round_key_reference(x, digits) for x in m]


@pytest.mark.parametrize("d", [1, 2, 8])
def test_phase_canonical_stack_matches_per_matrix(d):
    m = _stack(np.random.default_rng(d), 200, d)
    expected = np.stack([phase_canonical_reference(x) for x in m])
    assert phase_canonical(m).tobytes() == expected.tobytes()
    assert np.stack([phase_canonical(x) for x in m]).tobytes() == expected.tobytes()
