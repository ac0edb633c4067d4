"""Scalar fields on a group: evaluable maps (point, time) -> real.

A field is either analytic (exact derivatives from its sympy expression) or
backed by a plain callable (central finite differences).  An expression
string is checked against the grammar and compiled to a numpy function when
the field is defined; the field evaluates that function, the expression as
written in float64, and builds its sympy expression only on the first read
of ``expr``, which the derivative paths make.  ``scale``, ``shift`` and
``+`` combine the operands' functions and expressions the same way.  A
sympy expression given as input is lambdified.  Callables must be safe for
concurrent, vectorized evaluation: they receive coordinate arrays of shape
(..., N) and a scalar time.
"""

from __future__ import annotations

import functools

import numpy as np
import sympy

from . import expressions
from .expressions import coordinate_symbols

_EPS = np.finfo(float).eps
_H1 = _EPS ** (1.0 / 3.0)  # first-derivative step scale
_H2 = _EPS ** 0.25         # second-derivative step scale


class ScalarField:
    """Deterministic scalar field u(p, t) on R^N x R.

    ``make_expr`` builds an analytic field's sympy expression (called once,
    on the first read of ``expr``); ``time_dependent`` says whether that
    expression names t, and is None for a callable field."""

    def __init__(self, fn, dim, make_expr=None, time_dependent=None):
        self._fn = fn
        self.dim = int(dim)
        self._make_expr = None if make_expr is None else functools.cache(make_expr)
        self.time_dependent = time_dependent
        self._grad_fn = None
        self._hess_fn = None
        self._dt_fn = None

    @property
    def expr(self):
        """The sympy expression of an analytic field; None for a callable."""
        return None if self._make_expr is None else self._make_expr()

    @functools.cached_property
    def _symbols(self):
        return coordinate_symbols(self.dim)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_expression(cls, text, dim):
        """Build an analytic field from an expression string (or sympy expr).

        A string that does not fit the grammar raises ExpressionError here."""
        if isinstance(text, str):
            fn, names_time = expressions.compile_expression(text, dim)
            return cls(_wrap_compiled(fn, dim), dim,
                       lambda: expressions.parse_expression(text, dim), names_time)
        expr = sympy.sympify(text)
        symbols = coordinate_symbols(dim)
        # docstring_limit=0: the same generated source, without the str(expr)
        # of a docstring that nothing reads
        fn = sympy.lambdify(symbols, expr, modules="numpy", docstring_limit=0)
        return cls(_wrap_lambdified(fn, dim), dim, lambda: expr,
                   symbols[-1] in expr.free_symbols)

    @classmethod
    def from_callable(cls, fn, dim):
        return cls(fn, dim)

    @classmethod
    def constant(cls, value, dim):
        return cls.from_expression(sympy.Number(value), dim)

    # -- evaluation ---------------------------------------------------

    def __call__(self, coords, t=0.0):
        coords = np.asarray(coords, dtype=float)
        out = np.asarray(self._fn(coords, t), dtype=float)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("field evaluation produced non-finite values")
        return out

    def euclidean_gradient(self, coords, t=0.0):
        """Spatial gradient, shape (..., N)."""
        coords = np.asarray(coords, dtype=float)
        if self.expr is not None:
            if self._grad_fn is None:
                grads = [sympy.diff(self.expr, s) for s in self._symbols[:-1]]
                fn = sympy.lambdify(self._symbols, grads, modules="numpy",
                                    docstring_limit=0)
                self._grad_fn = _wrap_lambdified_array(fn, self.dim, (self.dim,))
            return self._grad_fn(coords, t)
        out = np.empty(coords.shape, dtype=float)
        for i in range(self.dim):
            h = _H1 * (1.0 + np.abs(coords[..., i]))
            hi = coords.copy()
            lo = coords.copy()
            hi[..., i] += h
            lo[..., i] -= h
            out[..., i] = (self(hi, t) - self(lo, t)) / (2.0 * h)
        return out

    def euclidean_hessian(self, coords, t=0.0):
        """Spatial Hessian, shape (..., N, N), symmetric."""
        coords = np.asarray(coords, dtype=float)
        n = self.dim
        if self.expr is not None:
            if self._hess_fn is None:
                xs = self._symbols[:-1]
                rows = [[sympy.diff(self.expr, a, b) for b in xs] for a in xs]
                fn = sympy.lambdify(self._symbols, rows, modules="numpy",
                                    docstring_limit=0)
                self._hess_fn = _wrap_lambdified_array(fn, n, (n, n))
            return self._hess_fn(coords, t)
        out = np.empty(coords.shape + (n,), dtype=float)
        base = self(coords, t)
        for i in range(n):
            hi_ = _H2 * (1.0 + np.abs(coords[..., i]))
            for j in range(i, n):
                hj = _H2 * (1.0 + np.abs(coords[..., j]))
                if i == j:
                    up = coords.copy()
                    dn = coords.copy()
                    up[..., i] += hi_
                    dn[..., i] -= hi_
                    val = (self(up, t) - 2.0 * base + self(dn, t)) / hi_ ** 2
                else:
                    pp = coords.copy(); pm = coords.copy()
                    mp = coords.copy(); mm = coords.copy()
                    pp[..., i] += hi_; pp[..., j] += hj
                    pm[..., i] += hi_; pm[..., j] -= hj
                    mp[..., i] -= hi_; mp[..., j] += hj
                    mm[..., i] -= hi_; mm[..., j] -= hj
                    val = (self(pp, t) - self(pm, t) - self(mp, t) + self(mm, t)) / (
                        4.0 * hi_ * hj)
                out[..., i, j] = val
                out[..., j, i] = val
        return out

    def time_slope(self, coords, t=0.0):
        coords = np.asarray(coords, dtype=float)
        if self.expr is not None:
            if self._dt_fn is None:
                fn = sympy.lambdify(self._symbols, sympy.diff(self.expr, self._symbols[-1]),
                                    modules="numpy", docstring_limit=0)
                self._dt_fn = _wrap_lambdified(fn, self.dim)
            return np.asarray(self._dt_fn(coords, t), dtype=float)
        h = _H1 * (1.0 + abs(float(t)))
        return (self(coords, t + h) - self(coords, t - h)) / (2.0 * h)

    # -- arithmetic helpers (used by experiments) ---------------------

    def _combine(self, fn, make_expr, other=None):
        """The field evaluated by fn; analytic, with expression make_expr(),
        when every operand is."""
        operands = (self,) if other is None else (self, other)
        if any(f._make_expr is None for f in operands):
            return ScalarField(fn, self.dim)
        return ScalarField(fn, self.dim, make_expr,
                           any(f.time_dependent for f in operands))

    def scale(self, factor):
        fn = self._fn
        return self._combine(lambda c, t: factor * np.asarray(fn(c, t), dtype=float),
                             lambda: self.expr * sympy.Number(factor))

    def shift(self, offset):
        fn = self._fn
        return self._combine(lambda c, t: np.asarray(fn(c, t), dtype=float) + offset,
                             lambda: self.expr + sympy.Number(offset))

    def __add__(self, other):
        if not isinstance(other, ScalarField):
            return self.shift(float(other))
        f, g = self._fn, other._fn
        return self._combine(
            lambda c, t: np.asarray(f(c, t), dtype=float) + np.asarray(g(c, t), dtype=float),
            lambda: self.expr + other.expr, other)

    def __mul__(self, factor):
        return self.scale(float(factor))

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


def _real(val):
    """val as a float array; a complex value raises instead of losing its
    imaginary part."""
    val = np.asarray(val)
    if np.iscomplexobj(val):
        raise ValueError("field evaluation produced complex values")
    return val.astype(float, copy=False)


def _wrap_lambdified(fn, dim):
    def call(coords, t):
        coords = np.asarray(coords, dtype=float)
        args = [coords[..., i] for i in range(dim)] + [t]
        return np.broadcast_to(_real(fn(*args)), coords.shape[:-1]).copy()
    return call


def _wrap_lambdified_array(fn, dim, shape):
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
            out[(...,) + index] = _real(entry)
        return out
    return call
