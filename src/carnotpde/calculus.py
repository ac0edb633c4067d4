"""Horizontal frames, derivatives, jet twisting and the doubling penalty.

Two independent computation routes are kept deliberately separate:

* the twist route converts a Euclidean jet with the frame matrices and the
  first-order correction matrix (exact polynomial frame entries);
* the direct route composes the left-invariant vector fields themselves,
  symbolically (``ScalarField.derivative``, one key per group content).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy

from . import groups
from .expressions import coordinate_symbols


@dataclass
class HorizontalFrame:
    """Frame matrices at a base point: layer-1 rows A (n1 x N), layer-2 rows B."""

    A: np.ndarray
    B: np.ndarray


@dataclass
class Jet:
    """Parabolic second-order jet: time slope, semi-horizontal gradient,
    symmetric horizontal Hessian."""

    a: float
    eta: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if not np.array_equal(self.X, self.X.T):
            raise ValueError("jet Hessian block must be exactly symmetric")

    @property
    def horizontal_gradient(self):
        return self.eta[: self.X.shape[0]]


@dataclass(frozen=True)
class PenaltySpec:
    """Pair-doubling penalty parameters: even exponent m >= 4."""

    m: int = 4

    def __post_init__(self):
        if self.m < 4 or self.m % 2 != 0:
            raise ValueError("penalty exponent m must be an even integer >= 4")


# -- frames ----------------------------------------------------------


def _basis_columns(G):
    n1 = G.horizontal_dim
    n2 = int(G.layer_dims[1]) if G.step >= 2 else 0
    return n1, n2


def frame_rows(G, p, indices):
    """Left-invariant frame vectors a_i(p) = e_i + [p,e_i]/2 + [p,[p,e_i]]/12.

    ``p`` may carry leading axes; returns shape p.shape[:-1] + (len(indices), N).
    """
    p = np.asarray(p, dtype=float)
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


def frame_at(G, p):
    """Horizontal frame matrices at a point."""
    n1, n2 = _basis_columns(G)
    A = frame_rows(G, p, range(n1))
    if n2:
        B = frame_rows(G, p, range(n1, n1 + n2))
    else:
        B = np.zeros(np.asarray(p, dtype=float).shape[:-1] + (0, G.total_dim))
    return HorizontalFrame(A=A, B=B)


def frame_partials(G, p):
    """d a_ij / d x_l for the layer-1 rows; shape (N, n1, N) indexed [l, i, j]."""
    p = np.asarray(p, dtype=float)
    n1 = G.horizontal_dim
    N = G.total_dim
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


# -- symbolic frames (cached per group) ------------------------------

_SYMBOLIC_FRAMES = {}


def _group_key(G):
    """Cache key of a group by content: equal groups share it, others never."""
    return G.layer_dims, G.structure.tobytes()


def _symbolic_bracket(G, u, v):
    N = G.total_dim
    out = [sympy.Integer(0)] * N
    c = G.structure
    for i, j, k in zip(*np.nonzero(c)):
        out[k] += sympy.Rational(c[i, j, k]) * u[i] * v[j]
    return out


def symbolic_frame(G):
    """Layer-1 frame rows as sympy polynomials in x1..xN; cached."""
    key = _group_key(G)
    if key not in _SYMBOLIC_FRAMES:
        xs = list(coordinate_symbols(G.total_dim)[:-1])
        rows = []
        for i in range(G.horizontal_dim):
            e = [sympy.Integer(1) if j == i else sympy.Integer(0)
                 for j in range(G.total_dim)]
            b = _symbolic_bracket(G, xs, e)
            row = [e[j] + b[j] / 2 for j in range(G.total_dim)]
            if G.step >= 3:
                bb = _symbolic_bracket(G, xs, b)
                row = [row[j] + bb[j] / 12 for j in range(G.total_dim)]
            rows.append([sympy.expand(r) for r in row])
        _SYMBOLIC_FRAMES[key] = rows
    return _SYMBOLIC_FRAMES[key]


# -- horizontal derivatives ------------------------------------------


def horizontal_gradient(G, f, p, t=0.0):
    """Gradient along the layer-1 frame: A(p) . (Euclidean gradient)."""
    frame = frame_at(G, p)
    grad = f.euclidean_gradient(p, t)
    return np.einsum("...ij,...j->...i", frame.A, grad)


def semi_horizontal_gradient(G, f, p, t=0.0):
    """Layer-1 and layer-2 frame derivatives concatenated."""
    frame = frame_at(G, p)
    grad = f.euclidean_gradient(p, t)
    top = np.einsum("...ij,...j->...i", frame.A, grad)
    if frame.B.shape[-2]:
        bottom = np.einsum("...ij,...j->...i", frame.B, grad)
        return np.concatenate([top, bottom], axis=-1)
    return top


def symmetrized_hessian(G, f, p, t=0.0):
    """Symmetrized horizontal Hessian by direct vector-field composition."""
    n1 = G.horizontal_dim
    return f.derivative(("hhess",) + _group_key(G),
                        lambda expr, xs: _symbolic_hessian(G, expr, xs), (n1, n1))(p, t)


def _symbolic_hessian(G, expr, xs):
    """Entries (X_i X_j + X_j X_i) expr / 2 over the symbols xs of a field."""
    rows = symbolic_frame(G)
    n1 = G.horizontal_dim

    def apply_field(i, e):
        return sum(rows[i][j] * sympy.diff(e, xs[j]) for j in range(G.total_dim))

    firsts = [apply_field(i, expr) for i in range(n1)]
    return [[sympy.expand((apply_field(i, firsts[j]) + apply_field(j, firsts[i])) / 2)
             for j in range(n1)] for i in range(n1)]


# -- jet twisting ----------------------------------------------------


def twist_jet(G, p, a, eta, X):
    """Convert a Euclidean jet (a, eta, X) at p into a Carnot jet.

    The space slots become (A.eta ++ B.eta, A X A^T + M) where M is the
    symmetrized first-order frame correction; the time slope passes through.
    """
    p = np.asarray(p, dtype=float)
    eta = np.asarray(eta, dtype=float)
    X = np.asarray(X, dtype=float)
    N = G.total_dim
    if eta.shape != (N,) or X.shape != (N, N):
        raise ValueError("euclidean jet has wrong dimensions")
    if not np.allclose(X, X.T, atol=0.0):
        raise ValueError("euclidean Hessian block must be symmetric")
    frame = frame_at(G, p)
    dA = frame_partials(G, p)
    # T_ij = sum_{l,k} a_il (d a_jk / d x_l) eta_k
    E = np.einsum("lik,k->li", dA, eta)          # (N, n1)
    T = frame.A @ E                              # (n1, n1)
    M = 0.5 * (T + T.T)
    top = frame.A @ eta
    eta_out = np.concatenate([top, frame.B @ eta]) if frame.B.shape[0] else top
    X_out = frame.A @ X @ frame.A.T + M
    X_out = 0.5 * (X_out + X_out.T)  # kill asymmetric rounding
    return Jet(a=float(a), eta=eta_out, X=X_out)


def field_jet(G, f, p, t=0.0):
    """Carnot jet of a smooth field computed by the direct route."""
    return Jet(a=float(f.time_slope(p, t)),
               eta=semi_horizontal_gradient(G, f, p, t),
               X=symmetrized_hessian(G, f, p, t))


# -- doubling penalty ------------------------------------------------


def doubling_penalty(G, spec, p, q):
    """Even-power penalty of the displacement p * q^{-1}; zero iff p = q."""
    diff = groups.multiply(G, p, groups.inverse(G, q))
    return np.sum(diff ** spec.m, axis=-1) / spec.m
