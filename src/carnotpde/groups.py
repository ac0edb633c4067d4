"""Stratified (Carnot) group arithmetic in exponential coordinates.

The group product is the Baker-Campbell-Hausdorff series truncated at the
nilpotency step, which is exact for step <= 3:

    p * q = p + q + [p,q]/2 + ([p,[p,q]] - [q,[p,q]])/12

The bracket sums over the structure constants that are not zero, in the
order of the dense contraction.  All operations broadcast over leading
axes, so point arrays of shape (..., N) are accepted everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

MAX_STEP = 3


class GroupSpecError(ValueError):
    """A proposed stratified algebra violates a structural identity."""


@dataclass(frozen=True)
class CarnotGroupSpec:
    """Validated stratified Lie algebra with cached derived quantities."""

    layer_dims: tuple
    structure: np.ndarray = field(repr=False)  # c[i, j, k]: [E_i, E_j] = sum_k c[i,j,k] E_k
    label: str = "custom"

    @property
    def total_dim(self):
        return int(sum(self.layer_dims))

    @property
    def step(self):
        return len(self.layer_dims)

    @property
    def homogeneous_dimension(self):
        return int(sum((i + 1) * n for i, n in enumerate(self.layer_dims)))

    @property
    def horizontal_dim(self):
        return int(self.layer_dims[0])

    @property
    def layer_of(self):
        """Array mapping basis index -> layer number (1-based)."""
        return np.repeat(np.arange(1, self.step + 1), self.layer_dims)

    def layer_slice(self, layer):
        start = int(sum(self.layer_dims[:layer - 1]))
        return slice(start, start + int(self.layer_dims[layer - 1]))

    def origin(self):
        return np.zeros(self.total_dim)

    @cached_property
    def key(self):
        """Content key: equal groups share it, others never."""
        return self.layer_dims, self.structure.tobytes()

    @cached_property
    def bracket_terms(self):
        """(k, i, j, c[i, j, k]) for each nonzero constant, in (k, i, j) order."""
        return [(k, i, j, float(self.structure[i, j, k])) for k, i, j
                in np.argwhere(self.structure.transpose(2, 0, 1)).tolist()]


def _validate(spec):
    c = spec.structure
    n = spec.total_dim
    if c.shape != (n, n, n):
        raise GroupSpecError(f"structure constants must have shape ({n},{n},{n})")
    if spec.step > MAX_STEP:
        raise GroupSpecError(f"step {spec.step} not supported (max {MAX_STEP})")
    anti = c + np.swapaxes(c, 0, 1)
    if np.abs(anti).max() > 0:
        i, j, k = np.unravel_index(np.abs(anti).argmax(), anti.shape)
        raise GroupSpecError(
            f"antisymmetry violated: c[{i}][{j}][{k}] != -c[{j}][{i}][{k}]")
    layer = spec.layer_of
    for i, j, k in np.argwhere(c):      # layer[k] <= step, so no bracket lands past it
        if layer[k] != layer[i] + layer[j]:
            raise GroupSpecError(
                f"grading violated: [layer {layer[i]}, layer {layer[j]}] "
                f"has a component in layer {layer[k]} (c[{i}][{j}][{k}])")
    # Jacobi identity by direct summation over basis triples.
    jac = (np.einsum("jkl,ilm->ijkm", c, c)
           + np.einsum("kil,jlm->ijkm", c, c)
           + np.einsum("ijl,klm->ijkm", c, c))
    if np.abs(jac).max() > 1e-12:
        i, j, k, _ = np.unravel_index(np.abs(jac).argmax(), jac.shape)
        raise GroupSpecError(
            f"Jacobi identity violated on basis triple ({i},{j},{k})")


def make_group(layer_dims, brackets, label="custom"):
    """Build and validate a group spec.

    ``brackets`` is an iterable of (i, j, k, value) with 0-based basis
    indices meaning [E_i, E_j] has component ``value`` along E_k; the
    antisymmetric counterpart is filled in automatically.
    """
    layer_dims = tuple(int(d) for d in layer_dims)
    if not layer_dims or any(d <= 0 for d in layer_dims):
        raise GroupSpecError("layer dimensions must be positive integers")
    n = sum(layer_dims)
    c = np.zeros((n, n, n))
    for i, j, k, value in brackets:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise GroupSpecError(f"bracket indices ({i},{j},{k}) out of range")
        c[i, j, k] = value
        c[j, i, k] = -value
    spec = CarnotGroupSpec(layer_dims, c, label)
    _validate(spec)
    spec.structure.setflags(write=False)
    return spec


def euclidean_group(n):
    """Abelian R^n: one layer, trivial brackets."""
    return make_group((n,), (), label=f"euclidean{n}")


def heisenberg_group():
    """First Heisenberg group: layers (2, 1), [X, Y] = Z."""
    return make_group((2, 1), [(0, 1, 2, 1.0)], label="heisenberg1")


def engel_group():
    """Engel group: layers (2, 1, 1), [X1, X2] = X3, [X1, X3] = X4."""
    return make_group((2, 1, 1), [(0, 1, 2, 1.0), (0, 2, 3, 1.0)], label="engel")


_PRESETS = {
    "heisenberg1": heisenberg_group,
    "engel": engel_group,
}


def group_preset(name):
    """Look up a preset by name; 'euclidean<n>' is parsed for any n >= 1."""
    if name in _PRESETS:
        return _PRESETS[name]()
    if name.startswith("euclidean"):
        try:
            return euclidean_group(int(name[len("euclidean"):]))
        except ValueError:
            pass
    raise GroupSpecError(f"unknown group preset '{name}'")


# -- point operations ------------------------------------------------


def _check_point(G, p):
    p = np.asarray(p, dtype=float)
    if p.shape[-1] != G.total_dim:
        raise ValueError(
            f"point dimension {p.shape[-1]} does not match group dimension {G.total_dim}")
    return p


def bracket(G, p, q):
    """Lie bracket of coordinate vectors via the structure constants,
    coordinate-major, so each term is a row operation."""
    p, q = _check_point(G, p), _check_point(G, q)
    shape = np.broadcast(p, q).shape
    pT, qT = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape).T for a in (p, q))
    out = np.zeros(shape[::-1])
    for k, i, j, c in G.bracket_terms:
        out[k] += pT[i] * qT[j] * c
    return out.T


def multiply(G, p, q):
    """Group product by the (exact, nilpotent-truncated) BCH series."""
    p, q = _check_point(G, p), _check_point(G, q)
    b = bracket(G, p, q)
    out = p + q + 0.5 * b
    if G.step >= 3:
        out = out + (bracket(G, p, b) - bracket(G, q, b)) / 12.0
    return out


def inverse(G, p):
    """Group inverse; coordinate negation in exponential coordinates."""
    return -_check_point(G, p)


def gauge_norm(G, p):
    """Smooth-off-the-origin homogeneous gauge."""
    p = _check_point(G, p)
    l = G.step
    exponent = 2 * math.factorial(l)
    total = np.zeros(p.shape[:-1])
    for layer in range(1, l + 1):
        block = p[..., G.layer_slice(layer)]
        norm = np.sqrt(np.sum(block * block, axis=-1))
        total = total + norm ** (exponent // layer)
    return total ** (1.0 / exponent)


def gauge_distance(G, p, q):
    """Gauge metric d(p, q) = N(p^{-1} * q); left-invariant by construction."""
    return gauge_norm(G, multiply(G, inverse(G, p), q))


def dilate(G, r, p):
    """Anisotropic dilation: layer i scales by r^i."""
    p = _check_point(G, p)
    if r <= 0:
        raise ValueError("dilation factor must be positive")
    weights = np.asarray([float(r) ** layer for layer in G.layer_of])
    return p * weights


def embed_horizontal(G, v):
    """Inject a first-layer vector as a group element with zero upper layers."""
    v = np.asarray(v, dtype=float)
    n1 = G.horizontal_dim
    if v.shape[-1] != n1:
        raise ValueError(
            f"horizontal vector has length {v.shape[-1]}, expected {n1}")
    out = np.zeros(v.shape[:-1] + (G.total_dim,))
    out[..., :n1] = v
    return out
