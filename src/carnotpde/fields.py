"""Scalar fields on a group: evaluable maps (point, time) -> real.

A field is either backed by a sympy expression (exact derivatives, the
"analytic" route) or by a plain callable (central finite differences).
Callables must be safe for concurrent, vectorized evaluation: they receive
coordinate arrays of shape (..., N) and a scalar time.
"""

from __future__ import annotations

import numpy as np
import sympy

from .expressions import coordinate_symbols, parse_expression

_EPS = np.finfo(float).eps
_H1 = _EPS ** (1.0 / 3.0)  # first-derivative step scale
_H2 = _EPS ** 0.25         # second-derivative step scale


class ScalarField:
    """Deterministic scalar field u(p, t) on R^N x R."""

    def __init__(self, fn, dim, smoothness="numeric-callable", expr=None, symbols=None):
        self._fn = fn
        self.dim = int(dim)
        self.smoothness = smoothness
        self.expr = expr
        self._symbols = symbols
        self._grad_fn = None
        self._hess_fn = None
        self._dt_fn = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_expression(cls, text, dim):
        """Build an analytic field from an expression string (or sympy expr)."""
        symbols = coordinate_symbols(dim)
        if isinstance(text, str):
            expr = parse_expression(text, dim)
        else:
            expr = sympy.sympify(text)
        # docstring_limit=0: the same generated source, without the str(expr)
        # of a docstring that nothing reads
        fn = sympy.lambdify(symbols, expr, modules="numpy", docstring_limit=0)
        return cls(_wrap_lambdified(fn, dim), dim,
                   smoothness="analytic-polynomial", expr=expr, symbols=symbols)

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

    def scale(self, factor):
        if self.expr is not None:
            return ScalarField.from_expression(self.expr * sympy.Number(factor), self.dim)
        fn = self._fn
        return ScalarField(lambda c, t: factor * np.asarray(fn(c, t), dtype=float), self.dim)

    def shift(self, offset):
        if self.expr is not None:
            return ScalarField.from_expression(self.expr + sympy.Number(offset), self.dim)
        fn = self._fn
        return ScalarField(lambda c, t: np.asarray(fn(c, t), dtype=float) + offset, self.dim)

    def __add__(self, other):
        if isinstance(other, ScalarField):
            if self.expr is not None and other.expr is not None:
                return ScalarField.from_expression(self.expr + other.expr, self.dim)
            f, g = self._fn, other._fn
            return ScalarField(
                lambda c, t: np.asarray(f(c, t), dtype=float) + np.asarray(g(c, t), dtype=float),
                self.dim)
        return self.shift(float(other))

    def __mul__(self, factor):
        return self.scale(float(factor))

    __rmul__ = __mul__


def _wrap_lambdified(fn, dim):
    def call(coords, t):
        coords = np.asarray(coords, dtype=float)
        args = [coords[..., i] for i in range(dim)] + [t]
        val = fn(*args)
        return np.broadcast_to(np.asarray(val, dtype=float), coords.shape[:-1]).copy()
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
            out[(...,) + index] = entry
        return out
    return call
