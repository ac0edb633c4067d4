"""Tiny arithmetic expression grammar for field data entry.

Expressions are parsed through the ``ast`` module and checked against the
grammar by one walk over the tree, so no user code is ever executed.  Allowed
syntax: ``+ - * / **``, unary minus, ``min``/``max``/``abs`` calls, numeric
literals, the constants ``pi`` and ``e``, the coordinate names ``x1 .. xN``
and time ``t``.

The same walk compiles the checked tree to either of two functions:
``compile_expression`` to numpy, evaluating the expression as written
(float64 literals, numpy operations in the tree's order, constant subtrees
folded once), and ``compile_taylor`` to the same operations on ``Taylor``
values, second-order forward-mode arithmetic that carries the gradient and
Hessian over (x1..xN, t).  ``min`` and ``max`` take the derivatives of the
operand they select and ``abs`` multiplies them by the sign, so at a kink
the derivatives are one-sided.
"""

from __future__ import annotations

import ast
import functools
import operator

import numpy as np


class ExpressionError(ValueError):
    """Raised when an expression string does not fit the grammar."""


def _tree(text):
    try:
        return ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(
            f"parse error at line {exc.lineno}, column {exc.offset}: {exc.msg}"
        ) from None


def compile_expression(text, dim):
    """Check ``text`` and compile it to a numpy function of the argument
    list [x1, .., x<dim>, t]; returns the function and whether the
    expression names t."""
    return _compile(text, dim, _NUMPY)


def compile_taylor(text, dim):
    """Check ``text`` and compile it to a function of the argument list of
    ``Taylor`` values, giving a ``Taylor`` value (a number if constant)."""
    return _compile(text, dim, _TAYLOR)[0]


def _compile(text, dim, functions):
    tree = _tree(text)
    names = dict({f"x{i + 1}": operator.itemgetter(i) for i in range(dim)},
                 t=operator.itemgetter(dim), pi=np.float64(np.pi), e=np.float64(np.e))
    fn = _walk(tree, names, functions)
    # the walk passed, so a name t is the time, never a call's; a text
    # without the letter t is not walked again
    reads_t = "t" in text and any(isinstance(n, ast.Name) and n.id == "t"
                                  for n in ast.walk(tree))
    return (fn if callable(fn) else _constant(fn)), reads_t


def _constant(value):
    return lambda args: value


def _lift(op):
    """op over compiled operands (float64 constants or functions of the
    argument list), computed at once when every operand is a constant."""
    def build(*parts):
        if not any(callable(p) for p in parts):
            return op(*parts)
        fns = [p if callable(p) else _constant(p) for p in parts]
        if len(fns) == 2:
            f, g = fns
            return lambda args: op(f(args), g(args))
        return lambda args: op(*[f(args) for f in fns])
    return build


class Taylor:
    """Second-order Taylor value at points: value ``v`` (...), gradient ``g``
    (..., N+1) and Hessian ``H`` (..., N+1, N+1) over (x1..xN, t), broadcast
    over the points.  Every rule keeps ``H`` exactly symmetric."""

    __array_ufunc__ = None      # a numpy scalar operand defers to the reflected rule

    def __init__(self, v, g, H):
        self.v, self.g, self.H = np.asarray(v), g, H

    def chain(self, f0, f1, f2):
        """phi(self), from phi and its first two derivatives at ``v``."""
        f1, f2 = np.asarray(f1)[..., None], np.asarray(f2)[..., None, None]
        return Taylor(f0, f1 * self.g,
                      f1[..., None] * self.H + f2 * (self.g[..., :, None] * self.g[..., None, :]))

    def __add__(self, other):
        v, g, H = _parts(other)
        return Taylor(self.v + v, self.g + g, self.H + H)

    def __mul__(self, other):
        v, g, H = _parts(other)
        cross = self.g[..., :, None] * g[..., None, :]
        return Taylor(self.v * v, self.v[..., None] * g + v[..., None] * self.g,
                      self.v[..., None, None] * H + v[..., None, None] * self.H
                      + (cross + np.swapaxes(cross, -1, -2)))

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self):
        return Taylor(-self.v, -self.g, -self.H)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __truediv__(self, other):
        return self * Taylor(*_parts(other)).reciprocal()

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        r = 1.0 / self.v
        return self.chain(r, -r * r, 2.0 * r * r * r)

    def __pow__(self, b):
        v = self.v
        if isinstance(b, Taylor):                   # a**b = exp(b log a)
            return (b * self.chain(np.log(v), 1.0 / v, -1.0 / (v * v))).exp()
        # a zero factor is no term: 0 * v**(b - 1) would be nan at v = 0
        return self.chain(v ** b, b * v ** (b - 1) if b else 0.0,
                          b * (b - 1) * v ** (b - 2) if b * (b - 1) else 0.0)

    def __rpow__(self, a):
        return (self * np.log(a)).exp()

    def exp(self):
        value = np.exp(self.v)
        return self.chain(value, value, value)


def _parts(x):
    """Value, gradient and Hessian of a Taylor value, or of a number."""
    return (x.v, x.g, x.H) if isinstance(x, Taylor) else (np.asarray(x), _NO_G, _NO_H)


_NO_G, _NO_H = np.zeros(1), np.zeros((1, 1))       # zero, broadcast to any length


def _select(first):
    """min (``first`` is <=) or max (>=): at each point, the whole Taylor
    value of the operand it selects, the first one at a tie."""
    def pick(a, b):
        (va, ga, Ha), (vb, gb, Hb) = _parts(a), _parts(b)
        mask = np.asarray(first(va, vb))
        return Taylor(np.where(mask, va, vb), np.where(mask[..., None], ga, gb),
                      np.where(mask[..., None, None], Ha, Hb))
    return lambda *parts: functools.reduce(pick, parts)


# what the walk builds: one set of operators acts on numpy and Taylor
# operands alike, and the calls differ
_OPERATORS = {ast.Add: _lift(operator.add), ast.Sub: _lift(operator.sub),
              ast.Mult: _lift(operator.mul), ast.Div: _lift(operator.truediv),
              ast.Pow: _lift(operator.pow)}
_NEGATE = _lift(operator.neg)
_NUMPY = {"min": _lift(lambda *a: functools.reduce(np.minimum, a)),
          "max": _lift(lambda *a: functools.reduce(np.maximum, a)),
          # one operand only: np.abs's second positional argument is ``out``
          "abs": _lift(lambda a: np.abs(a))}
_TAYLOR = {"min": _lift(_select(np.less_equal)), "max": _lift(_select(np.greater_equal)),
           "abs": _lift(lambda a: a.chain(np.abs(a.v), np.sign(a.v), 0.0))}


def _fail(node, message):
    raise ExpressionError(f"column {node.col_offset}: {message}")


def _walk(node, names, functions):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            _fail(node, f"literal {node.value!r} is not numeric")
        try:
            return np.float64(node.value)
        except OverflowError:
            _fail(node, "integer literal is too large for a float")
    if isinstance(node, ast.Name):
        if node.id not in names:
            _fail(node, f"unknown coordinate name '{node.id}'")
        return names[node.id]
    if isinstance(node, ast.BinOp):
        op = _OPERATORS.get(type(node.op))
        if op is None:
            _fail(node, f"operator {type(node.op).__name__} not allowed")
        return op(_walk(node.left, names, functions), _walk(node.right, names, functions))
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return _NEGATE(_walk(node.operand, names, functions))
        if isinstance(node.op, ast.UAdd):
            return _walk(node.operand, names, functions)
        _fail(node, f"operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in functions:
            _fail(node, "only min, max and abs calls are allowed")
        if node.keywords:
            _fail(node, "keyword arguments are not allowed")
        args = [_walk(a, names, functions) for a in node.args]
        if not args:
            _fail(node, f"{node.func.id}() needs at least one argument")
        if node.func.id == "abs" and len(args) != 1:
            _fail(node, "abs() takes exactly one argument")
        return functions[node.func.id](*args)
    _fail(node, f"syntax element {type(node).__name__} not allowed")
