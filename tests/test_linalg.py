"""Singular values, condition estimate and inverse against their contracts.

The oracle side uses numpy's symmetric eigensolver on m^T m, a different
route from the SVD under test, so the two stay independent.
"""

import numpy as np
import pytest

from prismlab.errors import ShapeError, SingularMatrixError
from prismlab.linalg import condition_estimate, matrix_inverse, singular_values
from prismlab.tensor import Tensor


def test_identity_singular_values():
    s = singular_values(np.eye(3))
    np.testing.assert_allclose(s, [1.0, 1.0, 1.0], atol=1e-14)


def test_rank_one_matrix():
    rng = np.random.default_rng(0)
    m = np.outer(rng.standard_normal(5), rng.standard_normal(5))
    s = singular_values(m)
    assert (s > 1e-10 * s[0]).sum() == 1


def test_against_symmetric_eigen_oracle():
    rng = np.random.default_rng(1)
    for d in (2, 3, 8, 16, 33):
        m = rng.standard_normal((d, d))
        s = singular_values(m)
        want = np.sqrt(np.maximum(np.linalg.eigvalsh(m.T @ m), 0.0))[::-1]
        np.testing.assert_allclose(s, want, rtol=1e-9, atol=1e-10)


def test_singular_values_nonincreasing():
    rng = np.random.default_rng(2)
    for _ in range(5):
        s = singular_values(rng.standard_normal((12, 12)))
        assert np.all(np.diff(s) <= 1e-12)


def test_rank_deficient_matrix():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 2))
    s = singular_values(a @ a.T)  # rank 2
    assert (s > 1e-10 * s[0]).sum() == 2
    assert condition_estimate(a @ a.T) > 1e10


def test_weyl_monotonicity():
    # sigma_1(A+B) <= sigma_1(A) + sigma_1(B)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        s_ab = singular_values(a + b)[0]
        assert s_ab <= singular_values(a)[0] + singular_values(b)[0] + 1e-10


def test_scalar_and_tensor_round_trip():
    m = Tensor([[-3.0]])
    s = singular_values(m)
    assert isinstance(s, Tensor)
    np.testing.assert_allclose(s.data, [3.0])
    inv = matrix_inverse(m)
    assert isinstance(inv, Tensor)
    np.testing.assert_allclose(inv.data, [[-1.0 / 3.0]])


def test_dimension_guard():
    with pytest.raises(ShapeError):
        singular_values(np.zeros((65, 65)))
    with pytest.raises(ShapeError):
        singular_values(np.zeros((3, 4)))


def test_inverse_identity_and_diagonal():
    np.testing.assert_allclose(matrix_inverse(np.eye(4)), np.eye(4), atol=1e-14)
    got = matrix_inverse(np.diag([2.0, 4.0]))
    np.testing.assert_allclose(got, np.diag([0.5, 0.25]), atol=1e-14)


def test_inverse_product_check():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((8, 8)) + 3.0 * np.eye(8)
    inv = matrix_inverse(m)
    err = np.linalg.norm(m @ inv - np.eye(8))
    assert err < 1e-8


def test_inverse_near_singular_raises_with_condition():
    m = np.eye(3)
    m[2, 2] = 1e-12
    with pytest.raises(SingularMatrixError) as exc:
        matrix_inverse(m)
    assert exc.value.condition > 1e10


def test_condition_estimate():
    c = condition_estimate(np.diag([10.0, 1.0, 0.1]))
    np.testing.assert_allclose(c, 100.0, rtol=1e-8)
