"""Scalar fields on a group: evaluable maps (point, time) -> real.

Every field is analytic, defined by expression text.  The text is checked
against the grammar and compiled to a numpy function when the field is
defined; the field evaluates that function, the expression as written in
float64, and builds its sympy expression only on the first read of
``expr``.  Every derivative (gradient, Hessian, time slope and the calculus
module's horizontal Hessian) is exact and goes through
``ScalarField.derivative``, which lambdifies the derivative's sympy entries
once per key, each float literal printed as the double it holds.  ``+`` (a
field or a number) and ``*`` (a number) combine the operands' functions and
expressions the same way.
"""

from __future__ import annotations

import functools

import numpy as np
import sympy
from sympy.printing.numpy import NumPyPrinter

from . import expressions
from .expressions import coordinate_symbols


class ScalarField:
    """Deterministic analytic scalar field u(p, t) on R^N x R.

    ``fn`` evaluates the field on coordinates (..., N) at a scalar time;
    ``make_expr`` builds its sympy expression (called once, on the first
    read of ``expr``); ``time_dependent`` says whether that expression
    names t."""

    def __init__(self, fn, dim, make_expr, time_dependent):
        self._fn = fn
        self.dim = int(dim)
        self._make_expr = functools.cache(make_expr)
        self.time_dependent = time_dependent
        self._derivatives = {}

    @property
    def expr(self):
        """The sympy expression of the field."""
        return self._make_expr()

    # -- constructors -------------------------------------------------

    @classmethod
    def from_expression(cls, text, dim):
        """Build an analytic field from expression text.

        Text that does not fit the grammar raises ExpressionError here, and
        anything but a string raises TypeError."""
        if not isinstance(text, str):
            raise TypeError(f"an expression must be a string, not {type(text).__name__}")
        fn, names_time = expressions.compile_expression(text, dim)
        return cls(_wrap_compiled(fn, dim), dim,
                   lambda: expressions.parse_expression(text, dim), names_time)

    # -- evaluation ---------------------------------------------------

    def __call__(self, coords, t=0.0):
        coords = np.asarray(coords, dtype=float)
        out = np.asarray(self._fn(coords, t), dtype=float)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("field evaluation produced non-finite values")
        return out

    def derivative(self, key, make_entries, shape):
        """The exact derivative named ``key`` of an analytic field, as a
        function of (coords, t) with values of shape (..., *shape).
        ``make_entries(expr, symbols)`` gives its sympy entries, nested lists
        of that shape over the symbols x1..xN, t; they are lambdified on the
        first call with ``key`` and the function is kept with the field."""
        fn = self._derivatives.get(key)
        if fn is None:
            symbols = coordinate_symbols(self.dim)
            entries = make_entries(self.expr, symbols)
            # at a kink or jump sympy leaves the derivative unevaluated or
            # returns a delta, and neither has a numpy value
            if sympy.Array(entries).has(sympy.Derivative, sympy.DiracDelta):
                raise ValueError(f"the field {self.expr} has no exact derivative "
                                 f"'{key}': it is not smooth enough")
            # docstring_limit=0: no str(expr) for a docstring that nothing reads
            fn = sympy.lambdify(symbols, entries, modules="numpy",
                                printer=_FullPrecisionPrinter(), docstring_limit=0)
            fn = self._derivatives[key] = _lambdified_array(fn, self.dim, shape)
        return fn

    def euclidean_gradient(self, coords, t=0.0):
        """Spatial gradient, shape (..., N)."""
        return self.derivative(
            "grad", lambda expr, xs: [sympy.diff(expr, x) for x in xs[:-1]],
            (self.dim,))(coords, t)

    def euclidean_hessian(self, coords, t=0.0):
        """Spatial Hessian, shape (..., N, N), symmetric."""
        n = self.dim
        return self.derivative(
            "hess", lambda expr, xs: [[sympy.diff(expr, a, b) for b in xs[:-1]]
                                      for a in xs[:-1]], (n, n))(coords, t)

    def time_slope(self, coords, t=0.0):
        return self.derivative(
            "dt", lambda expr, xs: sympy.diff(expr, xs[-1]), ())(coords, t)

    # -- arithmetic helpers (used by experiments) ---------------------

    def _combine(self, fn, make_expr, other=None):
        """The field evaluated by fn, with expression make_expr()."""
        operands = (self,) if other is None else (self, other)
        return ScalarField(fn, self.dim, make_expr,
                           any(f.time_dependent for f in operands))

    def __add__(self, other):
        f = self._fn
        if not isinstance(other, ScalarField):
            offset = float(other)
            return self._combine(lambda c, t: np.asarray(f(c, t), dtype=float) + offset,
                                 lambda: self.expr + sympy.Number(offset))
        g = other._fn
        return self._combine(
            lambda c, t: np.asarray(f(c, t), dtype=float) + np.asarray(g(c, t), dtype=float),
            lambda: self.expr + other.expr, other)

    def __mul__(self, factor):
        fn, factor = self._fn, float(factor)
        return self._combine(lambda c, t: factor * np.asarray(fn(c, t), dtype=float),
                             lambda: self.expr * sympy.Number(factor))

    __rmul__ = __mul__


def _wrap_compiled(fn, dim):
    """A compiled expression (``expressions.compile_expression``) as a
    function of coordinates (..., N) and time."""
    def call(coords, t):
        coords = np.asarray(coords, dtype=float)
        args = [coords[..., i] for i in range(dim)] + [np.float64(t)]
        out = fn(args)
        # most expressions compute a fresh array of the output shape; a bare
        # name gives a view of coords and a constant a scalar, which are copied
        if (not isinstance(out, np.ndarray) or out.shape != coords.shape[:-1]
                or np.may_share_memory(out, coords)):
            out = np.broadcast_to(out, coords.shape[:-1]).copy()
        return out
    return call


class _FullPrecisionPrinter(NumPyPrinter):
    """The numpy printer lambdify makes (the same settings), with each float
    literal printed as the double it holds instead of rounded to 15
    significant digits."""

    def __init__(self):
        super().__init__({"fully_qualified_modules": False, "inline": True,
                          "allow_unknown_functions": True})

    def _print_Float(self, expr):
        return repr(float(expr))


def _lambdified_array(fn, dim, shape):
    """A lambdified nested list of entries of the given shape, evaluated to
    an array of shape (..., *shape)."""
    def call(coords, t):
        coords = np.asarray(coords, dtype=float)
        args = [coords[..., i] for i in range(dim)] + [t]
        vals = fn(*args)
        out = np.empty(coords.shape[:-1] + shape, dtype=float)
        for index in np.ndindex(shape):
            entry = vals
            for i in index:
                entry = entry[i]
            # a complex value raises instead of losing its imaginary part
            if np.iscomplexobj(entry):
                raise ValueError("field evaluation produced complex values")
            out[(...,) + index] = entry
        return out
    return call
