"""Horizontal frames, jet twisting and the doubling penalty.

The core check is the two-route equivalence: twisting a Euclidean jet with
the frame matrices must reproduce direct differentiation along the
left-invariant vector fields.
"""

import itertools

import numpy as np
import pytest

from carnotpde import calculus, groups
from carnotpde.calculus import (
    Jet,
    PenaltySpec,
    doubling_penalty,
    field_jet,
    frame_at,
    frame_partials,
    horizontal_gradient,
    semi_horizontal_gradient,
    symmetrized_hessian,
    twist_jet,
)
from carnotpde.fields import ScalarField
from carnotpde.groups import engel_group, euclidean_group, heisenberg_group

PRESETS = [euclidean_group(2), heisenberg_group(), engel_group()]


def degree_three_corpus(dim):
    return [ScalarField.from_expression("*".join(f"x{i + 1}" for i in alpha), dim)
            for total in range(1, 4)
            for alpha in itertools.combinations_with_replacement(range(dim), total)]


# -- frames ----------------------------------------------------------


def test_euclidean_frame_is_identity():
    G = euclidean_group(2)
    frame = frame_at(G, [0.3, -0.7])
    assert np.allclose(frame.A, np.eye(2))
    assert frame.B.shape == (0, 2)


def test_heisenberg_frame_entries():
    G = heisenberg_group()
    frame = frame_at(G, [2.0, 4.0, 1.0])
    assert np.allclose(frame.A, [[1, 0, -2.0], [0, 1, 1.0]])
    assert np.allclose(frame.B, [[0, 0, 1]])


@pytest.mark.parametrize("G", PRESETS, ids=lambda G: G.label)
def test_frame_reduces_to_coordinate_frame_at_origin(G):
    frame = frame_at(G, G.origin())
    n1 = G.horizontal_dim
    assert np.allclose(frame.A, np.eye(G.total_dim)[:n1])
    if frame.B.shape[0]:
        assert np.allclose(frame.B, np.eye(G.total_dim)[n1:n1 + frame.B.shape[0]])


def test_frame_partials_match_finite_differences():
    G = engel_group()
    rng = np.random.default_rng(5)
    p = rng.uniform(-1, 1, 4)
    dA = frame_partials(G, p)
    h = 1e-6
    for l in range(4):
        dp = np.zeros(4)
        dp[l] = h
        fd = (frame_at(G, p + dp).A - frame_at(G, p - dp).A) / (2 * h)
        assert np.abs(dA[l] - fd).max() < 1e-8


# -- horizontal derivatives ------------------------------------------


def test_horizontal_gradient_spot_values():
    G = heisenberg_group()
    z = ScalarField.from_expression("x3", 3)
    x = ScalarField.from_expression("x1", 3)
    p = np.array([2.0, 4.0, 1.0])
    assert np.allclose(horizontal_gradient(G, z, p), [-2.0, 1.0])
    assert np.allclose(horizontal_gradient(G, x, p), [1.0, 0.0])
    assert np.allclose(semi_horizontal_gradient(G, z, p), [-2.0, 1.0, 1.0])

    E = euclidean_group(2)
    f = ScalarField.from_expression("x1**2 + x2**2", 2)
    assert np.allclose(horizontal_gradient(E, f, [1.0, 2.0]), [2.0, 4.0])


def test_horizontal_gradient_left_invariance():
    # X_i f(g p) = d/ds f(g p exp(s e_i)) at s = 0, and by associativity that
    # is X_i (f o L_g)(p): the gradient at q = g p against the flow difference
    rng = np.random.default_rng(2)
    s = 1e-5
    for G in PRESETS:
        steps = groups.embed_horizontal(G, s * np.eye(G.horizontal_dim))
        for f in degree_three_corpus(G.total_dim)[::5]:
            g = rng.uniform(-1, 1, G.total_dim)
            p = rng.uniform(-1, 1, G.total_dim)
            q = groups.multiply(G, g, p)
            flow = (f(groups.multiply(G, q, steps)) - f(groups.multiply(G, q, -steps))) / (2 * s)
            assert np.abs(horizontal_gradient(G, f, q) - flow).max() <= 1e-8


def test_symmetrized_hessian_spot_values():
    G = heisenberg_group()
    p = np.array([0.4, -1.2, 0.3])
    z = ScalarField.from_expression("x3", 3)
    xy = ScalarField.from_expression("x1*x2", 3)
    assert np.abs(symmetrized_hessian(G, z, p)).max() <= 1e-14
    assert np.allclose(symmetrized_hessian(G, xy, p), [[0, 1], [1, 0]])

    E = euclidean_group(2)
    sq = ScalarField.from_expression("x1**2", 2)
    assert np.allclose(symmetrized_hessian(E, sq, [1.0, 1.0]), [[2, 0], [0, 0]])


def test_symmetrized_hessian_exactly_symmetric_as_stored():
    G = engel_group()
    f = ScalarField.from_expression("x1*x4 + x2*x3**2", 4)
    X = symmetrized_hessian(G, f, np.array([0.3, 0.1, -0.2, 0.5]))
    assert np.array_equal(X, X.T)


# -- jet twisting ----------------------------------------------------


def test_twist_is_identity_on_euclidean_groups():
    G = euclidean_group(3)
    rng = np.random.default_rng(1)
    eta = rng.uniform(-1, 1, 3)
    X = rng.uniform(-1, 1, (3, 3))
    X = X + X.T
    jet = twist_jet(G, rng.uniform(-1, 1, 3), 0.25, eta, X)
    assert jet.a == 0.25
    assert np.allclose(jet.eta, eta)
    assert np.allclose(jet.X, X)


def test_twist_of_vertical_coordinate_jet():
    # Euclidean jet of f = z at (2,4,1): gradient e3, zero Hessian.
    G = heisenberg_group()
    jet = twist_jet(G, [2.0, 4.0, 1.0], 0.0, [0.0, 0.0, 1.0], np.zeros((3, 3)))
    assert np.allclose(jet.eta, [-2.0, 1.0, 1.0])
    assert np.abs(jet.X).max() <= 1e-14


def test_twist_rejects_asymmetric_hessian():
    G = heisenberg_group()
    X = np.zeros((3, 3))
    X[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        twist_jet(G, [0, 0, 0], 0.0, [1.0, 0, 0], X)


@pytest.mark.parametrize("G", PRESETS, ids=lambda G: G.label)
def test_twist_oracle_equivalence(G):
    """Twisted Euclidean jets match direct vector-field differentiation."""
    rng = np.random.default_rng(9)
    points = rng.uniform(-1.5, 1.5, size=(20, G.total_dim))
    for f in degree_three_corpus(G.total_dim):
        for p in points:
            direct = field_jet(G, f, p)
            twisted = twist_jet(G, p, f.time_slope(p), f.euclidean_gradient(p),
                                f.euclidean_hessian(p))
            assert np.abs(direct.eta - twisted.eta).max() <= 1e-8
            assert np.abs(direct.X - twisted.X).max() <= 1e-8


def test_jet_requires_exact_symmetry():
    X = np.array([[0.0, 1.0], [1.0 + 1e-16, 0.0]])
    if not np.array_equal(X, X.T):
        with pytest.raises(ValueError):
            Jet(a=0.0, eta=np.zeros(3), X=X)
    assert Jet(a=1.0, eta=np.array([3.0, 4.0, 0.0]),
               X=np.zeros((2, 2))).horizontal_gradient.tolist() == [3.0, 4.0]


# -- doubling penalty ------------------------------------------------


def test_penalty_spec_validation():
    with pytest.raises(ValueError):
        PenaltySpec(m=3)
    with pytest.raises(ValueError):
        PenaltySpec(m=5)
    with pytest.raises(ValueError):
        PenaltySpec(m=2)
    assert PenaltySpec(m=6).m == 6


def test_doubling_penalty_spot_values():
    spec = PenaltySpec(m=4)
    E = euclidean_group(2)
    assert doubling_penalty(E, spec, [1.0, 0.0], [0.0, 0.0]) == pytest.approx(0.25)
    H = heisenberg_group()
    val = doubling_penalty(H, spec, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert val == pytest.approx(0.515625)


@pytest.mark.parametrize("G", PRESETS, ids=lambda G: G.label)
def test_doubling_penalty_positive_definite_in_the_group_sense(G):
    spec = PenaltySpec(m=4)
    rng = np.random.default_rng(13)
    p = rng.uniform(-2, 2, (50, G.total_dim))
    q = rng.uniform(-2, 2, (50, G.total_dim))
    vals = doubling_penalty(G, spec, p, q)
    assert (vals >= 0.0).all()
    assert (vals[np.abs(p - q).max(axis=1) > 1e-3] > 0).all()
    assert np.abs(doubling_penalty(G, spec, p, p)).max() <= 1e-14


def test_symbolic_caches_are_keyed_by_group_content():
    calculus._SYMBOLIC_FRAMES.clear()
    f = ScalarField.from_expression("x1*x2 + x3*x3", 3)
    p = np.array([[0.3, -0.2, 0.5]])
    for _ in range(500):
        G = heisenberg_group()
        calculus.symbolic_frame(G)
        heis = symmetrized_hessian(G, f, p)
    assert len(calculus._SYMBOLIC_FRAMES) == 1
    assert len(f._derivatives) == 1
    # same layer dimensions, different brackets: a separate entry each
    others = [euclidean_group(3), groups.make_group((2, 1), [(0, 1, 2, 2.0)])]
    for k, G in enumerate(others, start=2):
        calculus.symbolic_frame(G)
        other = symmetrized_hessian(G, f, p)
        assert len(calculus._SYMBOLIC_FRAMES) == k
        assert len(f._derivatives) == k
        assert other.shape != heis.shape or not np.allclose(other, heis)
