"""Grid geometry and flow-stencil interpolation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpde.fields import ScalarField
from carnotpde.grid import GridFunction, GridSpec, build_stencil
from carnotpde.groups import engel_group, euclidean_group, heisenberg_group
from carnotpde.solver import CauchyDirichletProblem, Scheme, SolverConfig


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


@pytest.mark.parametrize("box,cells", [
    (((0, 1), (0, 2)), (4, 8)),
    (((-1.3, 0.7),), (9,)),
    (((-1, 1), (0, 2), (-3, 1), (0, 1)), (4, 5, 6, 7)),
])
def test_coords_are_the_axis_values_bit_for_bit(box, cells):
    grid = GridSpec(box=box, cells=cells)
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    coords = grid.coords()
    assert coords.flags.c_contiguous
    assert np.array_equal(coords, np.stack([m.ravel() for m in mesh], axis=-1))
    nodes = np.nonzero(grid.lateral_mask())[0][::3]
    assert np.array_equal(grid.coords(nodes), coords[nodes])


def test_lateral_mask_counts(square):
    mask = square.lateral_mask()
    # 5x9 grid: boundary of the rectangle has 2*5 + 2*9 - 4 nodes
    assert mask.sum() == 2 * 5 + 2 * 9 - 4
    nodes = np.arange(square.node_count)[::-2]
    assert np.array_equal(square.lateral_mask(nodes), mask[nodes])


def test_grid_function_validation(square):
    with pytest.raises(ValueError):
        GridFunction(square, np.zeros(7))
    bad = np.zeros(square.node_count)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        GridFunction(square, bad)
    gf = GridFunction(square, np.arange(square.node_count, dtype=float))
    assert gf.sup_norm() == square.node_count - 1


def test_stencil_exact_on_grid_nodes(square):
    coords = square.coords()
    values = coords[:, 0] + 3.0 * coords[:, 1]
    op = build_stencil(square, [coords[[7, 20, 33]]])
    assert np.allclose(op.apply(values)[0], values[[7, 20, 33]])
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
    # an off-box target is clamped to the box and reads the boundary nodes
    # around the clamped point, so a bilinear nodal function is read exactly
    targets = np.array([[-0.5, 1.0], [0.5, 2.7]])
    op = build_stencil(square, [targets])
    coords = square.coords()
    values = 7.0 + coords[:, 0] - 3.0 * coords[:, 1] + 2.0 * np.prod(coords, axis=1)
    clamped = np.array([[0.0, 1.0], [0.5, 2.0]])
    expect = 7.0 + clamped[:, 0] - 3.0 * clamped[:, 1] + 2.0 * np.prod(clamped, axis=1)
    assert np.abs(op.apply(values)[0] - expect).max() <= 1e-14
    assert set(op.matrix.indices) <= set(np.nonzero(square.lateral_mask())[0])


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
    # each field of a (B, nodes) stack applies as its own row, bit for bit
    stack = [op.apply(row) for row in np.stack([values, 2.0 * values - 1.0])]
    assert np.array_equal(stack[0], batch)
    assert np.array_equal(stack[1], op.apply(2.0 * values - 1.0))


@given(st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_operator_rows_are_convex_combinations_or_datum(ndim, seed):
    # every update must stay a convex combination of stencil values, off-box
    # targets included: the exact comparison and maximum principles rest on it
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
    assert np.abs(A.sum(axis=1) - 1.0).max() <= 1e-15


# SHA-256 of (dtype, shape, bytes) of each StencilOperator array, recorded
# from the row-major build that the column-major one replaced: every weight
# and index must come out bit for bit the same.  plane_r03's radius sends
# targets off the box; its arrays were re-recorded when those rows began to
# read the boundary nodes, with every in-box row unchanged.
OPERATOR_DIGESTS = {
    "heisenberg_9": {
        "data": "1b8c00980be98f947d9fa62a9ecc28f1572254f7694ff6daef64fcfe272fab1d",
        "indices": "f4c658938280eee008ef2eb4ed8be6c7bf69880ca5ea9643bdf13f4bda9fa88a",
        "indptr": "3daf51927f81031c30ca073e32a3aa68efa9824de92e8d467e902803061a02d8",
    },
    "engel_5": {
        "data": "ba2e685145bf63532966a87fdadc44088ef5f72ae01105551e749cc3db49120e",
        "indices": "9d13bb03d963053a219918630d571cff7cc941034515e0e4c1904aebb20aefda",
        "indptr": "98ebffc94feb6970204d5b3af915edf81498c81f49f868c5cbad51c2731b70a5",
    },
    "plane_r03": {
        "data": "dd3857915b88e4553db2e914609b5a15fa9acba56732f31d9ef7eef7d9ec6cd1",
        "indices": "f18eaec862af7d8c77a0e8a2e6d274691916a17e881038c951bac37145af87c2",
        "indptr": "1cd8fca49fd8318efcce4f81a128bcd25275f1de85d1c9cbaf2bcbc7c7728dcf",
    },
    "line_129": {
        "data": "8b7034c733d0e9ada1a74bd09e1e5d313d1ed5a3e9c846ca20997b82f5883a12",
        "indices": "70d7adc698b212693499498d9141502231484a1b3618830718ce62149373cc55",
        "indptr": "1272cf16043dc474b9ec467301ceffb7460d8fc8c4ff7d176f55de8ab29409ec",
    },
}
GEOMETRIES = {
    "heisenberg_9": (heisenberg_group(), ((-1, 1),) * 3, (8,) * 3, {"direction_samples": 16}),
    "engel_5": (engel_group(), ((-1, 1),) * 4, (4,) * 4, {}),
    "plane_r03": (euclidean_group(2), ((0, 1),) * 2, (8, 8), {"stencil_radius": 0.3}),
    "line_129": (euclidean_group(1), ((0, 1),), (128,), {}),
}


def operator_digests(name):
    G, box, cells, config = GEOMETRIES[name]
    f = ScalarField.from_expression("x1", G.total_dim)
    problem = CauchyDirichletProblem(G, GridSpec(box=box, cells=cells), 2.0, f, f)
    op = Scheme(problem, SolverConfig(**config)).operator
    arrays = {"data": op.matrix.data, "indices": op.matrix.indices,
              "indptr": op.matrix.indptr}
    return {part: hashlib.sha256(f"{a.dtype.str}{a.shape}".encode()
                                 + np.ascontiguousarray(a).tobytes()).hexdigest()
            for part, a in arrays.items()}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_stencil_operator_arrays_are_bit_identical_to_the_recorded_build(name):
    assert operator_digests(name) == OPERATOR_DIGESTS[name]


@pytest.mark.parametrize("name", ["heisenberg_9", "plane_r03", "line_129"])
@pytest.mark.parametrize("B", [1, 2, 3])
def test_stack_apply_is_one_csr_matvecs_bit_for_bit(name, B):
    # the apply runs one matvec per field; its values must be the columns of
    # the single csr_matvecs product over the stack, off-box rows included
    G, box, cells, config = GEOMETRIES[name]
    f = ScalarField.from_expression("x1", G.total_dim)
    problem = CauchyDirichletProblem(G, GridSpec(box=box, cells=cells), 2.0, f, f)
    op = Scheme(problem, SolverConfig(**config)).operator
    rng = np.random.default_rng(B)
    U = rng.uniform(-1.0, 1.0, (B, op.matrix.shape[1]))
    expected = op.matrix @ U.T
    for b, row in enumerate(U):
        out = op.apply(row)
        assert out.shape == (op.n_directions, op.matrix.shape[0] // op.n_directions)
        assert np.array_equal(out.reshape(-1), expected[:, b])
