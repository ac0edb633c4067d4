"""Horizontal frames, derivatives, jet twisting and the doubling penalty.

The frame rows of the first two layers at a point are one array (A, B: views),
one bracket of the point with all basis rows at once; the frame's partials
are brackets of whole basis arrays too.

Two independent computation routes are kept deliberately separate:

* the twist route converts a Euclidean jet with the frame matrices and the
  first-order correction matrix (the frame formula);
* the group-law route takes X_i f(p) = d/ds f(p*exp(s e_i)) and X_i X_j f(p)
  as the mixed derivative of f(p*exp(s e_i)*exp(r e_j)), both at 0.  At step
  <= 3 the curves are of degree <= 2 in s and in r, so unit-step central
  differences of ``groups.multiply`` give their derivatives exactly, and the
  frame formula is never read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups


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


def frame_rows(G, p):
    """Left-invariant frame vectors a_i(p) = e_i + [p,e_i]/2 + [p,[p,e_i]]/12
    of the basis vectors e_i of the first two layers.

    ``p`` may carry leading axes; returns shape p.shape[:-1] + (n1 + n2, N).
    """
    p = np.asarray(p, dtype=float)[..., None, :]
    E = np.eye(G.total_dim)[:sum(G.layer_dims[:2])]
    b = groups.bracket(G, p, E)
    rows = E + 0.5 * b
    if G.step >= 3:
        rows = rows + groups.bracket(G, p, b) / 12.0
    return rows


def frame_at(G, p):
    """Horizontal frame matrices at a point: views of one ``frame_rows``
    array, its layer-1 rows and its layer-2 rows (none at step 1)."""
    rows, n1 = frame_rows(G, p), G.horizontal_dim
    return HorizontalFrame(A=rows[..., :n1, :], B=rows[..., n1:, :])


def frame_partials(G, p):
    """d a_ij / d x_l for the layer-1 rows; shape (N, n1, N) indexed [l, i, j]."""
    c = G.structure[:, :G.horizontal_dim]
    out = 0.5 * c
    if G.step >= 3:
        E = np.eye(G.total_dim)
        out = out + (groups.bracket(G, E[:, None, :],
                                    groups.bracket(G, p, E[:G.horizontal_dim]))
                     + groups.bracket(G, p, c)) / 12.0
    return out


# -- horizontal derivatives (group-law route) ------------------------


def _flow_rows(G, p, E):
    """d/ds p*exp(s e) at s = 0 for each row e of E (a unit step's central
    difference, exact for a quadratic curve); shape p.shape[:-1] + E.shape."""
    p = np.asarray(p, dtype=float)[..., None, :]
    return (groups.multiply(G, p, E) - groups.multiply(G, p, -E)) / 2.0


def horizontal_gradient(G, f, p, t=0.0):
    """Derivatives along the layer-1 fields X_i."""
    return semi_horizontal_gradient(G, f, p, t)[..., :G.horizontal_dim]


def semi_horizontal_gradient(G, f, p, t=0.0):
    """Derivatives along the layer-1 and layer-2 fields, in that order."""
    E = np.eye(G.total_dim)[:sum(G.layer_dims[:2])]
    return np.einsum("...ij,...j->...i", _flow_rows(G, p, E), f.euclidean_gradient(p, t))


def symmetrized_hessian(G, f, p, t=0.0):
    """(X_i X_j + X_j X_i) f / 2, with X_i X_j f(p) = a_i^T H a_j + grad f . m_ij
    for a_i the velocity of p*exp(s e_i) and m_ij the mixed derivative of
    p*exp(s e_i)*exp(r e_j) at 0."""
    p = np.asarray(p, dtype=float)
    E = np.eye(G.total_dim)[:G.horizontal_dim]
    A = _flow_rows(G, p, E)
    ends = [groups.multiply(G, p[..., None, :], s * E) for s in (1.0, -1.0)]
    mixed = (_flow_rows(G, ends[0], E) - _flow_rows(G, ends[1], E)) / 2.0
    S = (np.einsum("...ia,...ab,...jb->...ij", A, f.euclidean_hessian(p, t), A)
         + np.einsum("...ija,...a->...ij", mixed, f.euclidean_gradient(p, t)))
    return 0.5 * (S + np.swapaxes(S, -1, -2))


# -- jet twisting ----------------------------------------------------


def twist_jet(G, p, a, eta, X):
    """Convert a Euclidean jet (a, eta, X) at p into a Carnot jet.

    The space slots become (A.eta ++ B.eta, A X A^T + M) where M is the
    symmetrized first-order frame correction; the time slope passes through.
    """
    eta = np.asarray(eta, dtype=float)
    X = np.asarray(X, dtype=float)
    N = G.total_dim
    if eta.shape != (N,) or X.shape != (N, N):
        raise ValueError("euclidean jet has wrong dimensions")
    if not np.array_equal(X, X.T):
        raise ValueError("euclidean Hessian block must be exactly symmetric")
    frame = frame_at(G, p)
    dA = frame_partials(G, p)
    # T_ij = sum_{l,k} a_il (d a_jk / d x_l) eta_k
    E = np.einsum("lik,k->li", dA, eta)          # (N, n1)
    T = frame.A @ E                              # (n1, n1)
    M = 0.5 * (T + T.T)
    eta_out = np.concatenate([frame.A @ eta, frame.B @ eta])
    X_out = frame.A @ X @ frame.A.T + M
    X_out = 0.5 * (X_out + X_out.T)  # kill asymmetric rounding
    return Jet(a=float(a), eta=eta_out, X=X_out)


def field_jet(G, f, p, t=0.0):
    """Carnot jet of a field computed by the group-law route."""
    return Jet(a=float(f.time_slope(p, t)),
               eta=semi_horizontal_gradient(G, f, p, t),
               X=symmetrized_hessian(G, f, p, t))


# -- doubling penalty ------------------------------------------------


def doubling_penalty(G, spec, p, q):
    """Even-power penalty of the displacement p * q^{-1}; zero iff p = q."""
    diff = groups.multiply(G, p, groups.inverse(G, q))
    return np.sum(diff ** spec.m, axis=-1) / spec.m
