import numpy as np
import pytest

from bsi import SingularSystem
from bsi._linalg import spd_inverse


@pytest.mark.parametrize("m", [1, 2, 7, 40])
def test_spd_inverse_matches_numpy(m):
    rng = np.random.RandomState(m)
    S = rng.randn(m, m)
    A = S @ S.T + m * np.eye(m)
    inv = spd_inverse(A)
    np.testing.assert_array_equal(inv, inv.T)
    oracle = np.linalg.inv(A)
    assert np.abs(inv - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_spd_inverse_leaves_input_unchanged():
    A = np.array([[4.0, 1.0], [1.0, 3.0]])
    before = A.copy()
    spd_inverse(A)
    np.testing.assert_array_equal(A, before)


@pytest.mark.parametrize("A", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),
    np.zeros((3, 3)),
    np.array([[1.0, np.nan], [np.nan, 1.0]]),
], ids=["indefinite", "zero", "nan"])
def test_spd_inverse_rejects_non_spd(A):
    with pytest.raises(SingularSystem):
        spd_inverse(A)
