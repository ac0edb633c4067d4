"""Horizontal frames, jet twisting and the doubling penalty.

The core check is the two-route equivalence: twisting a Euclidean jet with
the frame matrices must reproduce differentiation along the group law.  A
test-local sympy composition of the left-invariant vector fields is the
oracle for the group-law route.
"""

import itertools

import numpy as np
import pytest
import sympy

from carnotpde import groups
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

EPS = np.finfo(float).eps
PRESETS = [euclidean_group(2), heisenberg_group(), engel_group()]
FREE_3_3 = groups.make_group((3, 3), [(0, 1, 3, 1.0), (0, 2, 4, 1.0), (1, 2, 5, 1.0)])
STEP3_212 = groups.make_group((2, 1, 2), [(0, 1, 2, 1.0), (0, 2, 3, 1.0), (1, 2, 4, 1.0)])
ALL_GROUPS = [euclidean_group(1), euclidean_group(2), heisenberg_group(), engel_group(),
              FREE_3_3, STEP3_212]


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


def _layer_rows(G, p, indices):
    """Frame rows e_i + [p,e_i]/2 + [p,[p,e_i]]/12 of the given basis vectors."""
    rows = []
    for i in indices:
        e = np.zeros(G.total_dim)
        e[i] = 1.0
        b = groups.bracket(G, p, e)
        row = e + 0.5 * b
        if G.step >= 3:
            row = row + groups.bracket(G, p, b) / 12.0
        rows.append(row)
    return np.stack(rows, axis=-2)


def _cubic_field(N):
    return ScalarField.from_expression(
        " + ".join(f"{0.3 * (i + 1)!r}*x{i + 1}*x{(i + 1) % N + 1}*x{(i + 2) % N + 1}"
                   for i in range(N)), N)


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, np.ascontiguousarray(a).view(np.int64).tolist()


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda G: f"{G.label}{G.layer_dims}")
def test_one_frame_array_matches_the_layer_by_layer_frame_bit_for_bit(G):
    # the frame and the twisted eta from one array of the first two layers'
    # rows equal those built from each layer's rows apart
    N, n1 = G.total_dim, G.horizontal_dim
    n2 = G.layer_dims[1] if G.step >= 2 else 0
    f = _cubic_field(N)
    rng = np.random.default_rng(21)
    for p in (rng.uniform(-1.5, 1.5, N), rng.uniform(-1.5, 1.5, (7, N))):
        A = _layer_rows(G, p, range(n1))
        B = _layer_rows(G, p, range(n1, n1 + n2)) if n2 else np.zeros(p.shape[:-1] + (0, N))
        frame = frame_at(G, p)
        assert _bits(frame.A) == _bits(A)
        assert _bits(frame.B) == _bits(B)
    # twist_jet takes one point: the first of the batch, whose layer rows
    # are built alone (a row of the batch's strided stack can take another
    # matmul path, which sums in another order)
    eta = f.euclidean_gradient(p[0])
    A = _layer_rows(G, p[0], range(n1))
    B = _layer_rows(G, p[0], range(n1, n1 + n2)) if n2 else np.zeros((0, N))
    split = np.concatenate([A @ eta, B @ eta]) if n2 else A @ eta
    jet = twist_jet(G, p[0], 0.0, eta, f.euclidean_hessian(p[0]))
    assert _bits(jet.eta) == _bits(split)


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda G: f"{G.label}{G.layer_dims}")
def test_group_law_gradients_are_the_frame_rows_applied_to_the_gradient(G):
    # the velocity of p*exp(s e_i) is the frame row a_i(p), to round-off
    N, n12 = G.total_dim, sum(G.layer_dims[:2])
    f = _cubic_field(N)
    p = np.random.default_rng(21).uniform(-1.5, 1.5, (7, N))
    grad = f.euclidean_gradient(p)
    semi = np.einsum("...ij,...j->...i", _layer_rows(G, p, range(n12)), grad)
    # each velocity entry is a difference of group products of size (1 + |p|)^2
    scale = (1 + np.abs(p).max(-1, keepdims=True)) ** 2 * np.abs(grad).sum(-1, keepdims=True)
    assert np.all(np.abs(semi_horizontal_gradient(G, f, p) - semi) <= 16 * EPS * scale)
    assert np.array_equal(horizontal_gradient(G, f, p),
                          semi_horizontal_gradient(G, f, p)[..., :G.horizontal_dim])


def _loop_partials(G, p):
    """d a_ij / d x_l one basis pair (e_l, e_i) at a time."""
    N, n1 = G.total_dim, G.horizontal_dim
    out = np.zeros((N, n1, N))
    c = G.structure
    for l in range(N):
        el = np.zeros(N)
        el[l] = 1.0
        for i in range(n1):
            ei = np.zeros(N)
            ei[i] = 1.0
            d = 0.5 * c[l, i]
            if G.step >= 3:
                d = d + (groups.bracket(G, el, groups.bracket(G, p, ei))
                         + groups.bracket(G, p, c[l, i])) / 12.0
            out[l, i] = d
    return out


@pytest.mark.parametrize("G", PRESETS + [FREE_3_3, STEP3_212],
                         ids=lambda G: f"{G.label}{G.layer_dims}")
def test_frame_partials_match_the_pairwise_loop_bit_for_bit(G):
    rng = np.random.default_rng(22)
    for p in rng.uniform(-1.5, 1.5, (6, G.total_dim)):
        assert _bits(frame_partials(G, p)) == _bits(_loop_partials(G, p))


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


def test_twist_rejects_a_hessian_off_symmetry_by_a_relative_1e6():
    # exact symmetry, as a Jet asks: no tolerance averages the two entries
    X = np.zeros((3, 3))
    X[0, 1], X[1, 0] = 1.0, 1.0 + 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        twist_jet(heisenberg_group(), [0, 0, 0], 0.0, [1.0, 0, 0], X)


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


# -- the group-law route against a symbolic oracle --------------------


def _symbolic_hessian(G, text):
    """(X_i X_j + X_j X_i) f / 2 by sympy, composing the vector fields
    X_i = sum_j a_ij d/dx_j with the polynomial frame
    a_i = e_i + [x, e_i]/2 + [x, [x, e_i]]/12."""
    N, n1 = G.total_dim, G.horizontal_dim
    xs = sympy.symbols([f"x{i + 1}" for i in range(N)])
    f = sympy.sympify(text, locals={**{str(x): x for x in xs}, "e": sympy.E})

    def bracket(u, v):
        out = [sympy.Integer(0)] * N
        for k, i, j, c in G.bracket_terms:
            out[k] += sympy.Rational(c) * u[i] * v[j]
        return out

    rows = []
    for i in range(n1):
        e = [sympy.Integer(int(j == i)) for j in range(N)]
        b = bracket(xs, e)
        rows.append([e[j] + b[j] / 2 + bracket(xs, b)[j] / 12 for j in range(N)])

    def apply_field(i, expr):
        return sum(rows[i][j] * sympy.diff(expr, xs[j]) for j in range(N))

    firsts = [apply_field(i, f) for i in range(n1)]
    return sympy.lambdify(xs, [[(apply_field(i, firsts[j]) + apply_field(j, firsts[i])) / 2
                                for j in range(n1)] for i in range(n1)], "numpy")


ORACLE_FIELDS = ["x1*x2*x2 + 0.5*x1", "x1*x{N} - x2*x{N}*x{N} + x1**3",
                 "x{N}/(1 + x1**2 + x2**2)", "(2 + x1*x{N})**0.5", "2**x{N} * x1",
                 "e**(x1*x2 - x{N})", "x1*x{N}/(x2 - 4)"]


@pytest.mark.parametrize("G", ALL_GROUPS, ids=lambda G: f"{G.label}{G.layer_dims}")
def test_group_law_hessian_matches_the_symbolic_vector_field_composition(G):
    N = G.total_dim
    points = np.random.default_rng(8).uniform(-1.0, 1.0, (8, N))
    for text in ORACLE_FIELDS:
        text = text.format(N=N)
        if G.horizontal_dim == 1:
            text = text.replace("x2", "x1")
        f = ScalarField.from_expression(text, N)
        oracle = _symbolic_hessian(G, text)
        ref = np.array([oracle(*p) for p in points], dtype=float)
        X = symmetrized_hessian(G, f, points)
        assert np.array_equal(X, np.swapaxes(X, -1, -2))
        assert np.all(np.abs(X - ref) <= 64 * EPS * (1 + np.abs(ref))), (text, X, ref)


def test_field_jet_of_a_kinked_field_is_finite():
    G = heisenberg_group()
    f = ScalarField.from_expression("x1*x2 + max(0, x1 - 0.1*x3)", 3)
    for p in np.random.default_rng(4).uniform(-1, 1, (6, 3)):
        jet = field_jet(G, f, p)
        assert np.all(np.isfinite(jet.eta)) and np.all(np.isfinite(jet.X))
