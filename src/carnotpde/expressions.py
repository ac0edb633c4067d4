"""Tiny arithmetic expression grammar for field data entry.

Expressions are parsed through the ``ast`` module and checked against the
grammar by one walk over the tree, so no user code is ever executed.  Allowed
syntax: ``+ - * / **``, unary minus, ``min``/``max``/``abs`` calls, numeric
literals, the constants ``pi`` and ``e``, the coordinate names ``x1 .. xN``
and time ``t``.

The same walk builds either of two results from the checked tree:
``compile_expression`` gives a numpy function that evaluates the expression
as written (float64 literals, numpy operations in the tree's order,
constant subtrees folded once), and ``parse_expression`` gives the sympy
expression that the derivative paths differentiate.
"""

from __future__ import annotations

import ast
import functools
import operator
from collections import namedtuple

import numpy as np
import sympy


class ExpressionError(ValueError):
    """Raised when an expression string does not fit the grammar."""


_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def coordinate_symbols(dim):
    """Symbols x1..x<dim> plus the time symbol, in that order."""
    xs = sympy.symbols(" ".join(f"x{i + 1}" for i in range(dim)))
    if dim == 1:
        xs = (xs,)
    return tuple(xs) + (sympy.Symbol("t"),)


def _tree(text):
    try:
        return ast.parse(text, mode="eval").body
    except SyntaxError as exc:
        raise ExpressionError(
            f"parse error at line {exc.lineno}, column {exc.offset}: {exc.msg}"
        ) from None


def parse_expression(text, dim):
    """Parse ``text`` into a sympy expression over x1..x<dim> and t."""
    symbols = coordinate_symbols(dim)
    names = {f"x{i + 1}": symbols[i] for i in range(dim)}
    names["t"] = symbols[-1]
    names.update(pi=sympy.pi, e=sympy.E)
    return _walk(_tree(text), names, _SYMPY)


def compile_expression(text, dim):
    """Check ``text`` and compile it to a numpy function of the argument
    list [x1, .., x<dim>, t]; returns the function and whether the
    expression names t."""
    tree = _tree(text)
    names = {f"x{i + 1}": operator.itemgetter(i) for i in range(dim)}
    names["t"] = operator.itemgetter(dim)
    names.update(pi=np.float64(np.pi), e=np.float64(np.e))
    fn = _walk(tree, names, _NUMPY)
    if not callable(fn):
        fn = _constant(fn)
    names_time = any(isinstance(node, ast.Name) and node.id == "t"
                     for node in ast.walk(tree))
    return fn, names_time


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


# what the walk builds: literals, binary operators, negation and calls
_Target = namedtuple("_Target", "number binops negate functions")

_SYMPY = _Target(sympy.Number, _BINOPS, operator.neg,
                 {"min": sympy.Min, "max": sympy.Max, "abs": sympy.Abs})
_NUMPY = _Target(
    np.float64, {kind: _lift(op) for kind, op in _BINOPS.items()}, _lift(operator.neg),
    {"min": _lift(lambda *a: functools.reduce(np.minimum, a)),
     "max": _lift(lambda *a: functools.reduce(np.maximum, a)),
     # one operand only: np.abs's second positional argument is ``out``
     "abs": _lift(lambda a: np.abs(a))})


def _fail(node, message):
    raise ExpressionError(f"column {node.col_offset}: {message}")


def _walk(node, names, target):
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            _fail(node, f"literal {node.value!r} is not numeric")
        try:
            return target.number(node.value)
        except OverflowError:
            _fail(node, "integer literal is too large for a float")
    if isinstance(node, ast.Name):
        if node.id not in names:
            _fail(node, f"unknown coordinate name '{node.id}'")
        return names[node.id]
    if isinstance(node, ast.BinOp):
        op = target.binops.get(type(node.op))
        if op is None:
            _fail(node, f"operator {type(node.op).__name__} not allowed")
        return op(_walk(node.left, names, target), _walk(node.right, names, target))
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            return target.negate(_walk(node.operand, names, target))
        if isinstance(node.op, ast.UAdd):
            return _walk(node.operand, names, target)
        _fail(node, f"operator {type(node.op).__name__} not allowed")
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in target.functions:
            _fail(node, "only min, max and abs calls are allowed")
        if node.keywords:
            _fail(node, "keyword arguments are not allowed")
        args = [_walk(a, names, target) for a in node.args]
        if not args:
            _fail(node, f"{node.func.id}() needs at least one argument")
        if node.func.id == "abs" and len(args) != 1:
            _fail(node, "abs() takes exactly one argument")
        return target.functions[node.func.id](*args)
    _fail(node, f"syntax element {type(node).__name__} not allowed")
