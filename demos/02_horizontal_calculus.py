"""Horizontal calculus on the Heisenberg group: frames, gradients, and
why Euclidean jets need twisting before they mean anything horizontally."""

import numpy as np

from carnotpde.calculus import (
    field_jet,
    frame_at,
    horizontal_gradient,
    symmetrized_hessian,
    twist_jet,
)
from carnotpde.fields import ScalarField
from carnotpde.groups import heisenberg_group

G = heisenberg_group()
p = np.array([2.0, 4.0, 1.0])

frame = frame_at(G, p)
print("frame rows A(p) for the horizontal fields X1, X2 at p =", p)
print(frame.A)
print("away from the origin X1, X2 pick up the vertical direction;")
print("their span still moves, which is all the PDE ever sees.\n")

# the vertical coordinate is NOT horizontally flat
f = ScalarField.from_expression("x3", 3)
print("f = x3 (the vertical coordinate)")
print("  euclidean gradient :", f.euclidean_gradient(p))
print("  horizontal gradient:", horizontal_gradient(G, f, p))
print("  horizontal Hessian :")
print(symmetrized_hessian(G, f, p))
print()

# twisting a Euclidean jet with the frame reproduces the jet taken along the
# group law, as derivatives of g(p * exp(s e_i) * exp(r e_j))
g = ScalarField.from_expression("x1**2 + x1*x2 - x3 + 0.5*x2**2", 3)
direct = field_jet(G, g, p)
twisted = twist_jet(G, p, g.time_slope(p), g.euclidean_gradient(p),
                    g.euclidean_hessian(p))
print("jet of x1^2 + x1*x2 - x3 + 0.5*x2^2 at p, two routes:")
print("  group-law eta =", np.round(direct.eta, 10))
print("  twisted eta   =", np.round(twisted.eta, 10))
print("  Hessian mismatch:", np.abs(direct.X - twisted.X).max())
