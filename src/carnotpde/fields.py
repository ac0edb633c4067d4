"""Scalar fields on a group: evaluable maps (point, time) -> real.

Every field is analytic, defined by expression text.  The text is checked
against the grammar and compiled to a numpy function when the field is
defined; the field evaluates that function, the expression as written in
float64.  Its gradient, Hessian and time slope come from the same text
compiled to second-order Taylor arithmetic on the first derivative call:
exact up to round-off, and one-sided at a kink of ``abs``, ``min`` or
``max``.  ``+`` (a field or a number) and ``*`` (a number) combine the
operands' numpy and Taylor functions the same way.
"""

from __future__ import annotations

import functools

import numpy as np

from . import expressions
from .expressions import Taylor


class ScalarField:
    """Deterministic analytic scalar field u(p, t) on R^N x R.

    ``fn`` evaluates the field on coordinates (..., N) at a scalar time, and
    ``taylor`` gives its ``Taylor`` value over (x1..xN, t) there (or a
    number, for a constant field); ``time_dependent`` says whether the
    field's text names t."""

    def __init__(self, fn, dim, taylor, time_dependent):
        self._fn = fn
        self.dim = int(dim)
        self._taylor = taylor
        self.time_dependent = time_dependent

    # -- constructors -------------------------------------------------

    @classmethod
    def from_expression(cls, text, dim):
        """Build an analytic field from expression text.

        Text that does not fit the grammar raises ExpressionError here, and
        anything but a string raises TypeError."""
        if not isinstance(text, str):
            raise TypeError(f"an expression must be a string, not {type(text).__name__}")
        fn, names_time = expressions.compile_expression(text, dim)
        return cls(_wrap_compiled(fn, dim), dim, _wrap_taylor(text, dim), names_time)

    # -- evaluation ---------------------------------------------------

    def __call__(self, coords, t=0.0):
        coords = np.asarray(coords, dtype=float)
        out = np.asarray(self._fn(coords, t), dtype=float)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("field evaluation produced non-finite values")
        return out

    def _second_order(self, coords, t):
        """Gradient (..., N+1) and Hessian (..., N+1, N+1) over (x1..xN, t)."""
        coords = np.asarray(coords, dtype=float)
        shape = coords.shape[:-1] + (self.dim + 1,)
        grad, hess = np.zeros(shape), np.zeros(shape + shape[-1:])
        value = self._taylor(coords, t)
        if isinstance(value, Taylor):
            grad[...], hess[...] = value.g, value.H
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise FloatingPointError("field derivative produced non-finite values")
        return grad, hess

    def euclidean_gradient(self, coords, t=0.0):
        """Spatial gradient, shape (..., N)."""
        return self._second_order(coords, t)[0][..., :self.dim]

    def euclidean_hessian(self, coords, t=0.0):
        """Spatial Hessian, shape (..., N, N), exactly symmetric."""
        return self._second_order(coords, t)[1][..., :self.dim, :self.dim]

    def time_slope(self, coords, t=0.0):
        return self._second_order(coords, t)[0][..., self.dim]

    # -- arithmetic helpers (used by experiments) ---------------------

    def _combine(self, fn, taylor, other=None):
        """The field evaluated by fn, with Taylor function taylor."""
        operands = (self,) if other is None else (self, other)
        return ScalarField(fn, self.dim, taylor, any(f.time_dependent for f in operands))

    def __add__(self, other):
        f, d = self._fn, self._taylor
        if not isinstance(other, ScalarField):
            offset = float(other)
            return self._combine(lambda c, t: np.asarray(f(c, t), dtype=float) + offset,
                                 lambda c, t: d(c, t) + offset)
        g, e = other._fn, other._taylor
        return self._combine(
            lambda c, t: np.asarray(f(c, t), dtype=float) + np.asarray(g(c, t), dtype=float),
            lambda c, t: d(c, t) + e(c, t), other)

    def __mul__(self, factor):
        fn, d, factor = self._fn, self._taylor, float(factor)
        return self._combine(lambda c, t: factor * np.asarray(fn(c, t), dtype=float),
                             lambda c, t: factor * d(c, t))

    __rmul__ = __mul__


def _arguments(coords, t, dim):
    return [coords[..., i] for i in range(dim)] + [np.float64(t)]


def _wrap_compiled(fn, dim):
    """A compiled expression (``expressions.compile_expression``) as a
    function of coordinates (..., N) and time."""
    def call(coords, t):
        coords = np.asarray(coords, dtype=float)
        out = fn(_arguments(coords, t, dim))
        # most expressions compute a fresh array of the output shape; a bare
        # name gives a view of coords and a constant a scalar, which are copied
        if (not isinstance(out, np.ndarray) or out.shape != coords.shape[:-1]
                or np.may_share_memory(out, coords)):
            out = np.broadcast_to(out, coords.shape[:-1]).copy()
        return out
    return call


def _wrap_taylor(text, dim):
    """The text's Taylor function (``expressions.compile_taylor``), compiled
    on the first call, as a function of coordinates (..., N) and time; each
    of x1..xN, t enters with its own unit gradient."""
    compiled = functools.cache(lambda: expressions.compile_taylor(text, dim))

    def call(coords, t):
        unit, zero = np.eye(dim + 1), np.zeros((dim + 1, dim + 1))
        return compiled()([Taylor(a, unit[i], zero)
                           for i, a in enumerate(_arguments(coords, t, dim))])
    return call
