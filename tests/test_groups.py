"""Group arithmetic: BCH products, gauge geometry, spec validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpde import groups
from carnotpde.groups import (
    GroupSpecError,
    engel_group,
    euclidean_group,
    group_preset,
    heisenberg_group,
    make_group,
)

PRESETS = [euclidean_group(2), heisenberg_group(), engel_group()]


def random_points(G, n, rng, scale=2.0):
    return rng.uniform(-scale, scale, size=(n, G.total_dim))


# -- construction and derived quantities -----------------------------


@pytest.mark.parametrize("G,N,step,Q", [
    (euclidean_group(2), 2, 1, 2),
    (heisenberg_group(), 3, 2, 4),
    (engel_group(), 4, 3, 7),
])
def test_preset_dimensions(G, N, step, Q):
    assert G.total_dim == N
    assert G.step == step
    assert G.homogeneous_dimension == Q
    # recomputation from the layer list agrees with the cached property
    assert Q == sum((i + 1) * n for i, n in enumerate(G.layer_dims))


def test_preset_lookup_parses_euclidean_dimension():
    assert group_preset("euclidean5").total_dim == 5
    assert group_preset("heisenberg1").label == "heisenberg1"
    with pytest.raises(GroupSpecError):
        group_preset("octonion")


def test_antisymmetry_violation_is_named():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0  # missing the antisymmetric counterpart
    with pytest.raises(GroupSpecError, match="antisymmetry"):
        groups._validate(groups.CarnotGroupSpec((2, 1), c))


def test_grading_violation_is_named():
    # a bracket of two layer-1 vectors landing back in layer 1
    with pytest.raises(GroupSpecError, match="grading"):
        make_group((2, 1), [(0, 1, 0, 1.0)])


def test_jacobi_violation_is_named():
    # [E1,E2]=E4, [E1,E3]=E5, [E2,E3]=E6 is fine; adding [E1,E4]=... would
    # break grading first, so force Jacobi failure on a step-3 algebra:
    # layers (3,3,1) with brackets chosen to violate the cyclic sum.
    brackets = [(0, 1, 3, 1.0), (1, 2, 4, 1.0), (0, 2, 5, 1.0),
                (0, 4, 6, 1.0)]  # [E1,[E2,E3]] has no compensating terms
    with pytest.raises(GroupSpecError, match="Jacobi"):
        make_group((3, 3, 1), brackets)


def test_step_four_rejected():
    with pytest.raises(GroupSpecError, match="step"):
        make_group((1, 1, 1, 1), ())


# -- multiplication ---------------------------------------------------


def test_euclidean_product_is_vector_addition():
    G = euclidean_group(2)
    assert np.allclose(groups.multiply(G, [1, 2], [3, 4]), [4, 6])


def test_heisenberg_product_spot_values():
    G = heisenberg_group()
    assert np.allclose(groups.multiply(G, [1, 0, 0], [0, 1, 0]), [1, 1, 0.5])
    assert np.allclose(groups.multiply(G, [2, 0, 1], [0, 3, 0]), [2, 3, 4])


def test_heisenberg_closed_form():
    G = heisenberg_group()
    rng = np.random.default_rng(0)
    p, q = random_points(G, 2, rng)
    expect = np.array([p[0] + q[0], p[1] + q[1],
                       p[2] + q[2] + 0.5 * (p[0] * q[1] - q[0] * p[1])])
    assert np.allclose(groups.multiply(G, p, q), expect, atol=1e-14)


@pytest.mark.parametrize("G", PRESETS, ids=lambda G: G.label)
def test_associativity(G):
    rng = np.random.default_rng(42)
    p, q, r = (random_points(G, 100, rng) for _ in range(3))
    left = groups.multiply(G, groups.multiply(G, p, q), r)
    right = groups.multiply(G, p, groups.multiply(G, q, r))
    assert np.abs(left - right).max() <= 1e-12


@pytest.mark.parametrize("G", PRESETS, ids=lambda G: G.label)
def test_inverse_and_identity_laws(G):
    rng = np.random.default_rng(7)
    p = random_points(G, 100, rng)
    e = G.origin()
    assert np.abs(groups.multiply(G, p, groups.inverse(G, p))).max() <= 1e-14
    assert np.abs(groups.multiply(G, p, e) - p).max() <= 1e-14
    assert np.abs(groups.multiply(G, e, p) - p).max() <= 1e-14


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension"):
        groups.multiply(heisenberg_group(), [1, 2], [3, 4])


@given(st.lists(st.floats(-2, 2), min_size=6, max_size=6))
@settings(max_examples=50, deadline=None)
def test_product_inverse_roundtrip_heisenberg(flat):
    G = heisenberg_group()
    p, q = np.array(flat[:3]), np.array(flat[3:])
    prod = groups.multiply(G, p, q)
    back = groups.multiply(G, prod, groups.inverse(G, q))
    assert np.abs(back - p).max() <= 1e-12


# -- gauge norm, distance, dilations ---------------------------------


def test_gauge_norm_values():
    G = heisenberg_group()
    assert groups.gauge_norm(G, [3, 4, 0]) == pytest.approx(5.0)
    assert groups.gauge_norm(G, [0, 0, 2]) == pytest.approx(np.sqrt(2.0))
    assert groups.gauge_norm(G, [0, 0, 0]) == 0.0


@pytest.mark.parametrize("G", PRESETS, ids=lambda G: G.label)
def test_gauge_homogeneity_and_symmetry(G):
    rng = np.random.default_rng(3)
    p = random_points(G, 50, rng)
    for r in (0.25, 1.0, 3.0):
        scaled = groups.gauge_norm(G, groups.dilate(G, r, p))
        assert np.abs(scaled - r * groups.gauge_norm(G, p)).max() <= 1e-12
    sym = groups.gauge_norm(G, groups.inverse(G, p))
    assert np.abs(sym - groups.gauge_norm(G, p)).max() == 0.0


def test_dilate_spot_values():
    G = heisenberg_group()
    assert np.allclose(groups.dilate(G, 2.0, [1, 1, 1]), [2, 2, 4])
    assert np.allclose(groups.dilate(G, 1.0, [1, 2, 3]), [1, 2, 3])
    with pytest.raises(ValueError):
        groups.dilate(G, -1.0, [1, 2, 3])


def test_gauge_distance_euclidean_reduces_to_norm():
    G = euclidean_group(2)
    assert groups.gauge_distance(G, [1, 1], [4, 5]) == pytest.approx(5.0)


@pytest.mark.parametrize("G", PRESETS, ids=lambda G: G.label)
def test_gauge_distance_left_invariance(G):
    rng = np.random.default_rng(11)
    p, q = random_points(G, 20, rng), random_points(G, 20, rng)
    d = groups.gauge_distance(G, p, q)
    for g in random_points(G, 20, rng):
        shifted = groups.gauge_distance(
            G, groups.multiply(G, g, p), groups.multiply(G, g, q))
        assert np.abs(shifted - d).max() <= 1e-12
    assert np.abs(groups.gauge_distance(G, p, p)).max() <= 1e-14


def test_embed_horizontal():
    assert np.allclose(
        groups.embed_horizontal(heisenberg_group(), [2.0, -1.0]), [2, -1, 0])
    assert np.allclose(
        groups.embed_horizontal(engel_group(), [1.0, 1.0]), [1, 1, 0, 0])


# -- the sparse bracket against the dense contraction ----------------


def einsum_bracket(G, p, q):
    """The bracket's definition: the dense contraction with every constant."""
    return np.einsum("...i,...j,ijk->...k", p, q, G.structure)


def einsum_multiply(G, p, q):
    b = einsum_bracket(G, p, q)
    out = p + q + 0.5 * b
    if G.step >= 3:
        out = out + (einsum_bracket(G, p, b) - einsum_bracket(G, q, b)) / 12.0
    return out


# Step <= 3 tables to put in a random graded basis: the presets, the free
# step-3 algebra on two generators, and a step-2 algebra with every layer-1
# pair bracketing into a layer-2 coordinate of its own.
FREE_23 = make_group((2, 1, 2), [(0, 1, 2, 1.0), (0, 2, 3, 1.0), (1, 2, 4, 1.0)])
FREE_32 = make_group((3, 3), [(0, 1, 3, 1.0), (0, 2, 4, 1.0), (1, 2, 5, 1.0)])


@st.composite
def graded_tables(draw):
    """A step <= 3 group with its table in a random graded basis: F_i =
    sum_a M[a, i] E_a with M block diagonal by layer, so the constants are
    non-unit and most outputs get several terms."""
    base = draw(st.sampled_from(PRESETS + [FREE_23, FREE_32]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = np.zeros((base.total_dim,) * 2)
    for layer in range(1, base.step + 1):
        block = base.layer_slice(layer)
        n = block.stop - block.start
        M[block, block] = (np.diag(rng.uniform(0.5, 2.0, n))
                           @ (np.eye(n) + np.triu(rng.uniform(-1, 1, (n, n)), 1)))
    c = np.einsum("ai,bj,abc,kc->ijk", M, M, base.structure, np.linalg.inv(M))
    brackets = [(i, j, k, c[i, j, k]) for i, j, k in np.argwhere(c) if i < j
                and base.layer_of[k] == base.layer_of[i] + base.layer_of[j]]
    return make_group(base.layer_dims, brackets)


SHAPE_PAIRS = [((), ()), ((7,), ()), ((), (5,)), ((6,), (6,)),
               ((3, 1), (1, 4)), ((4,), (2, 4)), ((2, 1, 3), (5, 1))]


@given(graded_tables(), st.sampled_from(SHAPE_PAIRS), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_bracket_and_product_match_the_dense_contraction_bit_for_bit(G, shapes, seed):
    rng = np.random.default_rng(seed)
    p, q = (rng.normal(size=s + (G.total_dim,)) * 10.0 ** rng.integers(-8, 8, s + (G.total_dim,))
            for s in shapes)
    for fast, oracle in ((groups.bracket, einsum_bracket),
                         (groups.multiply, einsum_multiply)):
        got, expect = fast(G, p, q), oracle(G, p, q)
        assert got.shape == expect.shape
        assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(expect).tobytes()


def test_bracket_terms_are_the_nonzero_constants_in_output_order():
    G = engel_group()
    assert G.bracket_terms == [(2, 0, 1, 1.0), (2, 1, 0, -1.0),
                               (3, 0, 2, 1.0), (3, 2, 0, -1.0)]
    assert euclidean_group(3).bracket_terms == []
