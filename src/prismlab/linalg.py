"""Small dense linear algebra on numpy.linalg, with the package's contract.

The matrices this package decomposes are at most 64x64. Everything
computes in float64 regardless of the input dtype; a Tensor argument
gives a Tensor result.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularMatrixError
from .tensor import Tensor

MAX_DIM = 64
_COND_LIMIT = 1e10


def _as_square_array(m, name):
    a = m.data if isinstance(m, Tensor) else np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name} needs a square matrix, got {a.shape}")
    if a.shape[0] > MAX_DIM:
        raise ShapeError(f"{name} supports d <= {MAX_DIM}, got {a.shape[0]}")
    return a.astype(np.float64)


def _svals(m, name):
    return np.linalg.svd(_as_square_array(m, name), compute_uv=False)


def singular_values(m):
    """Non-increasing singular values of a square matrix (d <= 64)."""
    s = _svals(m, "singular_values")
    return Tensor(s) if isinstance(m, Tensor) else s


def condition_estimate(m):
    """sigma_max / sigma_min; inf for an exactly rank-deficient matrix."""
    s = _svals(m, "condition_estimate")
    if s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def matrix_inverse(m):
    """Inverse of a square matrix (d <= 64).

    Refuses matrices with condition estimate >= 1e10 so that the product
    check m @ inv(m) ~ I stays meaningful at float64.
    """
    a = _as_square_array(m, "matrix_inverse")
    cond = condition_estimate(a)
    if not np.isfinite(cond) or cond >= _COND_LIMIT:
        raise SingularMatrixError(
            f"matrix is numerically singular (condition ~ {cond:.3e})",
            condition=cond)
    inv = np.linalg.inv(a)
    return Tensor(inv) if isinstance(m, Tensor) else inv
