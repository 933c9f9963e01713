"""Linear algebra helpers checked against independent numpy routes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvdiff import linalg
from kvdiff.errors import InvalidInput


def _random_matrix(seed, m, n):
    return np.random.default_rng(seed).standard_normal((m, n))


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InvalidInput):
        linalg.as_matrix(np.ones(3))
    with pytest.raises(InvalidInput):
        linalg.as_matrix(np.array([[1.0, np.nan]]))
    with pytest.raises(InvalidInput):
        linalg.as_matrix(np.array([[np.inf, 0.0]]))


@given(st.integers(0, 10_000), st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_thin_svd_reconstructs(seed, m, n):
    a = _random_matrix(seed, m, n)
    res = linalg.thin_svd(a)
    assert res.sigma.shape == (min(m, n),)
    assert np.all(np.diff(res.sigma) <= 1e-12)
    assert np.all(res.sigma >= 0)
    np.testing.assert_allclose((res.u * res.sigma) @ res.vt, a, atol=1e-10)


def test_thin_svd_matches_eigendecomposition():
    # independent route: singular values are sqrt eigenvalues of A^T A
    a = _random_matrix(3, 6, 4)
    res = linalg.thin_svd(a)
    eig = np.linalg.eigvalsh(a.T @ a)[::-1]
    np.testing.assert_allclose(res.sigma ** 2, eig, atol=1e-10)
    # orthonormal factors
    np.testing.assert_allclose(res.u.T @ res.u, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(res.vt @ res.vt.T, np.eye(4), atol=1e-12)


def test_frobenius_norm():
    a = np.array([[3.0, 0.0], [0.0, 4.0]])
    assert linalg.frobenius_norm(a) == pytest.approx(5.0)
