"""Axis-aligned coordinate boxes, sampled grid functions and the flow-stencil
matrix.

``build_stencil`` records, for every flow target it is given, how to read
the value there back by multilinear interpolation of the grid nodes (convex
weights only), all as one sparse matrix; ``solver.Scheme`` lays out its rows
and applies it.  Targets that leave the box are clamped coordinate-wise to
the box and read the same way, from the boundary nodes around the clamped
point, so every row reads grid nodes only.  The matrix is written into one
pair of data and index buffers and trimmed in place, so its build peaks at
about 1.5 times the bytes it holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse


@dataclass(frozen=True)
class GridSpec:
    """Open box discretized by cells_per_axis intervals, plus the time horizon."""

    box: tuple               # ((lo, hi), ...) per axis
    cells: tuple             # intervals per axis
    horizon: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "box", tuple((float(a), float(b)) for a, b in self.box))
        if not all(float(c).is_integer() for c in self.cells):
            raise ValueError(f"cells must be integers, got {self.cells}")
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        if len(self.box) != len(self.cells):
            raise ValueError("box and cells must agree on the number of axes")
        if not all(math.isfinite(x) for axis in self.box for x in axis):
            raise ValueError(f"box bounds must be finite, got {self.box}")
        if any(b <= a for a, b in self.box):
            raise ValueError("each axis needs lo < hi")
        if any(c < 2 for c in self.cells):
            raise ValueError("need at least 2 cells per axis")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(
                f"time horizon T must be positive and finite, got {self.horizon!r}")

    @property
    def ndim(self):
        return len(self.box)

    @property
    def spacings(self):
        return np.array([(b - a) / c for (a, b), c in zip(self.box, self.cells)])

    @property
    def delta(self):
        """Spatial step of the scheme: the coarsest axis spacing."""
        return float(self.spacings.max())

    @property
    def shape(self):
        return tuple(c + 1 for c in self.cells)

    @property
    def node_count(self):
        return int(np.prod(self.shape))

    def axes(self):
        return [np.linspace(a, b, c + 1) for (a, b), c in zip(self.box, self.cells)]

    def coords(self, nodes=None):
        """Node coordinates, shape (count, ndim), lexicographic order: of every
        node, or of the flat indices ``nodes``.  All nodes' coordinates are
        written axis by axis into one array, without a mesh per axis."""
        axes = self.axes()
        if nodes is not None:
            index = np.unravel_index(nodes, self.shape)
            return np.stack([a[i] for a, i in zip(axes, index)], axis=-1)
        out = np.empty(self.shape + (self.ndim,))
        for i, a in enumerate(axes):
            out[..., i] = a.reshape((-1,) + (1,) * (self.ndim - 1 - i))
        return out.reshape(-1, self.ndim)

    def lateral_mask(self, nodes=None):
        """Flat boolean mask of nodes on the spatial boundary faces: of every
        node, or of the flat indices ``nodes``."""
        if nodes is not None:
            index = np.unravel_index(nodes, self.shape)
            return np.any([(i == 0) | (i == n - 1) for i, n in zip(index, self.shape)],
                          axis=0)
        interior = np.zeros(self.shape, dtype=bool)
        interior[(slice(1, -1),) * self.ndim] = True
        return ~interior.ravel()


@dataclass
class GridFunction:
    """Scalar samples over all grid nodes at one time level."""

    grid: GridSpec
    values: np.ndarray
    time_level: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).ravel()
        if self.values.size != self.grid.node_count:
            raise ValueError("value array does not cover the grid")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function contains non-finite values")

    def sup_norm(self):
        return float(np.abs(self.values).max())


def build_stencil(grid, target_list, count=None):
    """Every flow stencil of a sequence of ``count`` (K, N) target arrays, one
    per direction (by default ``len(target_list)``; pass it when the arrays
    come from an iterator), as one CSR matrix over the grid's nodes.

    Row d*K + k reads direction d's target k, clamped coordinate-wise to the
    box: the convex multilinear weights of the corners of its cell, exact
    zeros dropped, int32 indices.  Built one direction at a time and
    column-major: each axis's steps run on a contiguous (K,) row of the
    (N, K) coordinates.  Each direction's kept entries go into the next free
    slice of one data and one index buffer, sized for every corner of every
    row and trimmed in place after the last direction, so nothing is
    concatenated or copied: the build's numpy allocations peak at 1.43-1.47
    times the bytes the matrix holds (Heisenberg 17^3 and 33^3, Engel 9^4)."""
    lo, hi = np.array(grid.box).T
    spacings = grid.spacings
    N = grid.ndim
    strides = np.cumprod((grid.shape[1:] + (1,))[::-1])[::-1]      # row-major nodes
    bits = (np.arange(2 ** N)[:, None] >> np.arange(N - 1, -1, -1)) & 1
    offsets = (bits @ strides).astype(np.int32)[:, None]    # corner c, axis 0 its top bit
    count = len(target_list) if count is None else count

    nnz = 0
    for d, targets in enumerate(target_list):
        x = np.ascontiguousarray(np.asarray(targets, dtype=float).T)   # (N, K)
        K = x.shape[1]
        if d == 0:
            bound = count * K * 2 ** N
            data, indices = np.empty(bound), np.empty(bound, np.int32)
            indptr = np.zeros(count * K + 1, np.int32 if bound < 2 ** 31 else np.int64)
        base, weights = np.zeros(K, np.int64), np.ones((1, K))
        for axis in range(N):
            pos = (np.clip(x[axis], lo[axis], hi[axis]) - lo[axis]) / spacings[axis]
            cell = np.clip(np.floor(pos).astype(np.int64), 0, grid.cells[axis] - 1)
            frac = np.minimum(pos - cell, 1.0)  # pos can round past the upper face
            base += cell * strides[axis]
            # corner weights multiplied axis by axis, in np.prod's order; the
            # corner's bit for this axis is the new lowest bit of its row
            grown = np.empty((2 * len(weights), K))
            np.multiply(weights, 1.0 - frac, out=grown[0::2])
            np.multiply(weights, frac, out=grown[1::2])
            weights = grown
        keep = weights.T != 0.0
        kept = np.count_nonzero(keep)
        data[nnz:nnz + kept] = weights.T[keep]
        indices[nnz:nnz + kept] = (base.astype(np.int32) + offsets).T[keep]
        rows = indptr[1 + d * K:1 + (d + 1) * K]
        np.cumsum(np.count_nonzero(keep, axis=1), out=rows)
        rows += nnz
        nnz += kept

    data.resize(nnz, refcheck=False)
    indices.resize(nnz, refcheck=False)
    return scipy.sparse.csr_array((data, indices, indptr),
                                  shape=(len(indptr) - 1, grid.node_count))
