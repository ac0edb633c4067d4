"""The pointwise h-homogeneous infinite Laplacian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpde.operators import DegenerateGradientError, infinity_laplacian


def test_spot_values():
    I = np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert infinity_laplacian(3, [1, 0], I) == pytest.approx(1.0)
    assert infinity_laplacian(3, [-2, 1], swap) == pytest.approx(-4.0)
    assert infinity_laplacian(1, [3, 4], np.diag([1.0, 2.0])) == pytest.approx(1.64)
    assert infinity_laplacian(4, [-2, 1], swap) == pytest.approx(-np.sqrt(5) * 4, rel=1e-12)


def test_h3_zero_gradient_is_continuous_zero():
    assert infinity_laplacian(3, [0, 0], np.eye(2)) == 0.0
    assert infinity_laplacian(5, [0, 0], np.eye(2)) == 0.0


def test_degenerate_gradient_raises_below_three():
    with pytest.raises(DegenerateGradientError):
        infinity_laplacian(2, [0, 0], np.eye(2))
    with pytest.raises(DegenerateGradientError):
        infinity_laplacian(1, [0, 0], np.eye(2))
    # only an exactly zero gradient is degenerate
    assert infinity_laplacian(1, [1e-8, 0], np.eye(2)) == pytest.approx(1.0)


def test_asymmetric_hessian_rejected():
    with pytest.raises(ValueError):
        infinity_laplacian(3, [1, 0], [[0, 1], [0, 0]])


def test_a_hessian_off_symmetry_by_a_relative_1e6_is_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        infinity_laplacian(3, [1, 0], [[0, 1], [1 + 1e-6, 0]])


def test_params_validation():
    with pytest.raises(ValueError, match="h must be >= 1"):
        infinity_laplacian(0.5, [1, 0], np.eye(2))


@given(st.floats(0.1, 10.0), st.floats(1.0, 5.0))
@settings(max_examples=60, deadline=None)
def test_jet_scaling_multiplies_value_by_lambda_to_the_h(lam, h):
    # jet of lam*f: gradient and Hessian both scale by lam
    grad = np.array([0.8, -0.6])
    X = np.array([[1.0, 0.4], [0.4, -2.0]])
    base = infinity_laplacian(h, grad, X)
    scaled = infinity_laplacian(h, lam * grad, lam * X)
    assert scaled == pytest.approx(lam ** h * base, rel=1e-12)


def test_division_free_consistency_h1_vs_h3():
    rng = np.random.default_rng(4)
    for _ in range(20):
        grad = rng.uniform(-2, 2, 2)
        if np.linalg.norm(grad) < 1e-3:
            continue
        X = rng.uniform(-1, 1, (2, 2))
        X = X + X.T
        v1 = infinity_laplacian(1, grad, X)
        v3 = infinity_laplacian(3, grad, X)
        assert v1 == pytest.approx(v3 / np.linalg.norm(grad) ** 2, rel=1e-12)
