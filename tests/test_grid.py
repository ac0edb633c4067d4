"""Grid geometry, node classification and flow-stencil interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpde.grid import GridFunction, GridSpec, build_stencil, classify_nodes


@pytest.fixture
def square():
    return GridSpec(box=((0, 1), (0, 2)), cells=(4, 8), horizon=1.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(box=((0, 1),), cells=(4, 4))
    with pytest.raises(ValueError):
        GridSpec(box=((1, 0),), cells=(4,))
    with pytest.raises(ValueError):
        GridSpec(box=((0, 1),), cells=(1,))
    with pytest.raises(ValueError):
        GridSpec(box=((0, 1),), cells=(4,), horizon=0.0)


def test_grid_geometry(square):
    assert square.ndim == 2
    assert square.shape == (5, 9)
    assert square.node_count == 45
    assert np.allclose(square.spacings, [0.25, 0.25])
    assert square.delta == 0.25
    coords = square.coords()
    assert coords.shape == (45, 2)
    # lexicographic: first axis slowest
    assert np.allclose(coords[0], [0, 0])
    assert np.allclose(coords[1], [0, 0.25])
    assert np.allclose(coords[-1], [1, 2])


def test_lateral_mask_counts(square):
    mask = square.lateral_mask()
    # 5x9 grid: boundary of the rectangle has 2*5 + 2*9 - 4 nodes
    assert mask.sum() == 2 * 5 + 2 * 9 - 4


def test_classify_nodes(square):
    tags0 = classify_nodes(square, 0.0)
    assert (tags0 == "parabolic_boundary").all()
    tags = classify_nodes(square, 0.5)
    assert (tags == "parabolic_boundary").sum() == square.lateral_mask().sum()
    corner = 0
    center = np.ravel_multi_index((2, 4), square.shape)
    assert tags[corner] == "parabolic_boundary"
    assert tags[center] == "interior"


def test_grid_function_validation(square):
    with pytest.raises(ValueError):
        GridFunction(square, np.zeros(7))
    bad = np.zeros(square.node_count)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(square, bad)
    gf = GridFunction(square, np.arange(square.node_count, dtype=float))
    assert gf.reshaped().shape == square.shape
    assert gf.sup_norm() == square.node_count - 1


def test_stencil_exact_on_grid_nodes(square):
    coords = square.coords()
    values = coords[:, 0] + 3.0 * coords[:, 1]
    op = build_stencil(square, [coords[[7, 20, 33]]])
    assert np.allclose(op.apply(values)[0], values[[7, 20, 33]])
    assert op.outside.size == 0
    assert op.matrix.indices.dtype == np.int32


def test_stencil_exact_for_multilinear_functions(square):
    # multilinear interpolation reproduces a + bx + cy + dxy exactly
    coords = square.coords()
    values = 1.0 + 2.0 * coords[:, 0] - coords[:, 1] + 0.5 * np.prod(coords, axis=1)
    rng = np.random.default_rng(0)
    targets = rng.uniform((0, 0), (1, 2), size=(40, 2))
    op = build_stencil(square, [targets])
    expect = 1.0 + 2.0 * targets[:, 0] - targets[:, 1] + 0.5 * np.prod(targets, axis=1)
    assert np.abs(op.apply(values)[0] - expect).max() <= 1e-12


def test_stencil_weights_are_convex(square):
    rng = np.random.default_rng(1)
    targets = rng.uniform((0, 0), (1, 2), size=(25, 2))
    op = build_stencil(square, [targets])
    assert (op.matrix.data >= -1e-15).all()
    assert np.allclose(op.matrix.sum(axis=1), 1.0)


def test_off_box_targets_use_clamped_datum(square):
    targets = np.array([[-0.5, 1.0], [0.5, 2.7]])
    op = build_stencil(square, [targets])
    assert set(op.outside) == {0, 1}
    assert np.allclose(op.clamped, [[0.0, 1.0], [0.5, 2.0]])
    values = np.zeros(square.node_count)
    out = op.apply(values, np.array([7.0, 9.0]))
    assert out[0].tolist() == [7.0, 9.0]
    with pytest.raises(ValueError, match="datum"):
        op.apply(values)


def test_stencil_bank_matches_individual_stencils(square):
    coords = square.coords()
    values = np.cos(coords[:, 0]) + coords[:, 1] ** 2
    rng = np.random.default_rng(2)
    target_list = [rng.uniform((0, 0), (1, 2), size=(45, 2)) for _ in range(3)]
    op = build_stencil(square, target_list)
    batch = op.apply(values)
    for d, targets in enumerate(target_list):
        single = build_stencil(square, [targets]).apply(values)[0]
        assert np.allclose(batch[d], single)
    # a (B, nodes) stack applies column by column, bit for bit
    stack = op.apply(np.stack([values, 2.0 * values - 1.0]))
    assert np.array_equal(stack[..., 0], batch)
    assert np.array_equal(stack[..., 1], op.apply(2.0 * values - 1.0))


def test_stencil_bank_datum_cache(square):
    values = np.zeros(square.node_count)
    targets = np.array([[-0.5, 1.0], [0.5, 1.0]])
    op = build_stencil(square, [targets])
    datum = lambda pts, t: 5.0 + pts[:, 1] + t
    out = op.apply(values, op.datum(datum, 2.0))
    assert out[0, 0] == pytest.approx(8.0)
    assert out[0, 1] == pytest.approx(0.0)


@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_operator_rows_are_convex_combinations_or_datum(ndim, seed):
    # every update must stay a convex combination of stencil values: the
    # exact comparison and maximum principles rest on it
    rng = np.random.default_rng(seed)
    lo = rng.uniform(-3.0, 3.0, ndim)
    grid = GridSpec(box=tuple(zip(lo, lo + rng.uniform(0.1, 4.0, ndim))),
                    cells=tuple(rng.integers(2, 9, ndim)))
    width = np.array([b - a for a, b in grid.box])
    nodes = grid.coords()[rng.integers(0, grid.node_count, 30)]
    target_list = [rng.uniform(lo - 0.3 * width, lo + 1.3 * width, (30, ndim)),
                   nodes, np.clip(nodes + rng.normal(0.0, 0.1, nodes.shape) * width,
                                  lo, lo + width)]
    op = build_stencil(grid, target_list)
    A = op.matrix
    assert (A.data >= 0.0).all()
    stored = np.diff(A.indptr)
    assert (stored[op.outside] == 0).all()
    in_box = np.setdiff1d(np.arange(A.shape[0]), op.outside)
    assert np.abs(A.sum(axis=1)[in_box] - 1.0).max() <= 1e-15
    datum = rng.uniform(-1.0, 1.0, op.outside.size)
    out = op.apply(rng.uniform(-1.0, 1.0, grid.node_count), datum).ravel()
    assert np.array_equal(out[op.outside], datum)
