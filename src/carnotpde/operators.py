"""The pointwise h-homogeneous infinite Laplacian, the oracle the scheme's
discrete operator is measured against.

Sign convention: the evolution law reads  u_t - (operator value) = 0.
"""

from __future__ import annotations

import numpy as np


class DegenerateGradientError(ValueError):
    """A zero gradient with h < 3, where the operator has no value."""


def infinity_laplacian(h, grad, X):
    """|grad|^(h-3) <X grad, grad> for h >= 1 and a symmetric X; h = 3 is the
    plain infinite Laplacian, and a zero gradient gives 0 for h >= 3."""
    if h < 1:
        raise ValueError("homogeneity exponent h must be >= 1")
    grad = np.asarray(grad, dtype=float)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or not np.allclose(X, X.T, atol=0.0):
        raise ValueError("Hessian argument must be a symmetric square matrix")
    norm = float(np.linalg.norm(grad))
    if norm == 0.0:
        if h < 3:
            raise DegenerateGradientError("zero gradient with h < 3")
        return 0.0
    quad = float(grad @ X @ grad)
    if h == 3:
        return quad
    return norm ** (h - 3.0) * quad
