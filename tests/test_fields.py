"""Scalar fields: the compiled expression path, its lazy sympy expression,
the grammar checks at definition and complex values."""

import ast
import functools

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from carnotpde import expressions
from carnotpde.experiments import comparison_experiment
from carnotpde.expressions import ExpressionError, coordinate_symbols, parse_expression
from carnotpde.fields import ScalarField
from carnotpde.grid import GridSpec
from carnotpde.groups import heisenberg_group
from carnotpde.solver import CauchyDirichletProblem, SolverConfig

EPS = np.finfo(float).eps
TINY = np.finfo(float).smallest_subnormal

# -- a test-only evaluation of the same text ----------------------------


class _Float64Literals(ast.NodeTransformer):
    def visit_Constant(self, node):
        return ast.Call(ast.Name("float64", ast.Load()), [node], [])


def numpy_eval(text, coords, t):
    """The text evaluated by Python with float64 literals and numpy
    operands: the meaning the compiled path must reproduce bit for bit."""
    tree = ast.fix_missing_locations(_Float64Literals().visit(ast.parse(text, mode="eval")))
    env = {f"x{i + 1}": coords[..., i] for i in range(coords.shape[-1])}
    env.update(t=np.float64(t), pi=np.float64(np.pi), e=np.float64(np.e),
               float64=np.float64, abs=np.abs,
               min=lambda *a: functools.reduce(np.minimum, a),
               max=lambda *a: functools.reduce(np.maximum, a))
    value = eval(compile(tree, "<oracle>", "eval"), {"__builtins__": {}}, env)
    return np.broadcast_to(value, coords.shape[:-1])


def magnitude(text, coords, t):
    """A first-order round-off scale of the text at coords: the sum of the
    absolute values of its terms for + - * and powers, with the propagated
    relative error of a divisor or a negative power added."""
    env = {f"x{i + 1}": coords[..., i] for i in range(coords.shape[-1])}
    env.update(t=np.float64(t), pi=np.float64(np.pi), e=np.float64(np.e))

    def walk(node):
        if isinstance(node, ast.Constant):
            v = np.float64(node.value)
            return v, abs(v)
        if isinstance(node, ast.Name):
            v = env[node.id]
            return v, np.abs(v)
        if isinstance(node, ast.UnaryOp):
            v, m = walk(node.operand)
            return -v, m
        if isinstance(node, ast.Call):
            parts = [walk(a) for a in node.args]
            if node.func.id == "abs":
                return np.abs(parts[0][0]), parts[0][1]
            pick = np.minimum if node.func.id == "min" else np.maximum
            return (functools.reduce(pick, [v for v, _ in parts]),
                    functools.reduce(np.maximum, [m for _, m in parts]))
        (a, ma), (b, mb) = walk(node.left), walk(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            return (a + b if isinstance(node.op, ast.Add) else a - b), ma + mb
        if isinstance(node.op, ast.Mult):
            return a * b, ma * mb
        if isinstance(node.op, ast.Div):
            q = a / b
            return q, ma / np.abs(b) + np.abs(q) * mb / np.abs(b)
        n = float(b)                        # a literal integer power
        if n >= 0:
            return a ** b, max(n, 1.0) * ma ** b
        return a ** b, -n * np.abs(a) ** (n - 1.0) * ma + np.abs(a) ** n

    with np.errstate(all="ignore"):
        return np.broadcast_to(walk(ast.parse(text, mode="eval").body)[1],
                               coords.shape[:-1])


def _literal(value):
    return f"{value:.17g}"


def grammar_trees(dim):
    leaves = st.one_of(
        st.sampled_from([f"x{i + 1}" for i in range(dim)] + ["t", "pi", "e"]),
        st.floats(1e-3, 10.0).map(_literal),
        st.integers(0, 9).map(str))

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from(["+", "-", "*", "/"]), children)
              .map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
            children.map(lambda a: f"(-{a})"),
            st.tuples(children, st.sampled_from(["0", "1", "2", "3", "-1", "-2"]))
              .map(lambda p: f"({p[0]})**{p[1]}"),
            st.tuples(st.sampled_from(["min", "max"]),
                      st.lists(children, min_size=1, max_size=3))
              .map(lambda p: f"{p[0]}({', '.join(p[1])})"),
            children.map(lambda a: f"abs({a})"))

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def expressions_at_points(draw):
    dim = draw(st.integers(1, 4))
    text = draw(grammar_trees(dim))
    coords = np.array(draw(st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim),
        min_size=1, max_size=6)))
    t = draw(st.floats(0.0, 1.0))
    return text, dim, coords, t


@given(expressions_at_points())
@settings(max_examples=300, deadline=None)
def test_compiled_field_is_the_numpy_evaluation_of_its_text(case):
    text, dim, coords, t = case
    before = coords.copy()
    with np.errstate(all="ignore"):
        field = ScalarField.from_expression(text, dim)
        expected = numpy_eval(text, coords, t)
        if not np.all(np.isfinite(expected)):
            with pytest.raises(FloatingPointError):
                field(coords, t)
            return
        got = field(coords, t)
    assert np.array_equal(coords, before)
    assert got.shape == coords.shape[:-1]
    assert np.array_equal(got.view(np.int64), np.ascontiguousarray(expected).view(np.int64))

    # lambdify of the sympy expression: the same value up to round-off,
    # where sympy can build it (min(x1, 0**-1) is not: zoo has no order)
    try:
        expr = parse_expression(text, dim)
    except ValueError:
        reject()
    assume(not expr.has(sympy.zoo, sympy.nan, sympy.oo, -sympy.oo, sympy.I))
    fn = sympy.lambdify(coordinate_symbols(dim), expr, modules="numpy")
    with np.errstate(all="ignore"):
        ref = np.broadcast_to(np.asarray(
            fn(*[coords[..., i] for i in range(dim)], t), dtype=float), got.shape)
    scale = magnitude(text, coords, t)
    ok = np.isfinite(ref) & np.isfinite(scale)
    # each operation rounds by at most eps relative plus one subnormal unit
    bound = 32 * sum(1 for _ in ast.walk(ast.parse(text))) * (EPS * scale + TINY)
    assert np.all(np.abs(got - ref)[ok] <= bound[ok]), (text, got, ref, bound)


def test_float_literals_keep_every_digit():
    f = ScalarField.from_expression("0.30000000000000004*x1", 1)
    assert f(np.array([1.0]), 0.0) == 0.30000000000000004
    assert f(np.array([1.0]), 0.0) != 0.3


def test_operations_run_in_the_written_order():
    # sympy would sum 1e16 - 1e16 first; as written, 1 is lost in 1e16 + 1
    f = ScalarField.from_expression("x1 + 1e16 + 1 - 1e16", 1)
    assert f(np.array([0.0]), 0.0) == 0.0


# -- no sympy on the way to a march -----------------------------------


def test_defining_and_marching_a_pair_builds_no_sympy(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(expressions, "parse_expression",
                        spy("parse_expression", expressions.parse_expression))
    monkeypatch.setattr(sympy, "lambdify", spy("lambdify", sympy.lambdify))

    text = "0.3*x1 - 0.2*x2 + 0.1*x3 + 0.25*x1*x2 - 0.15*x1*x1"
    u0 = ScalarField.from_expression(text, 3)
    v0 = u0 + 0.3
    grid = GridSpec(box=((-1, 1),) * 3, cells=(8, 8, 8), horizon=0.02)
    problem = CauchyDirichletProblem(heisenberg_group(), grid, 2.0, u0, u0)
    report = comparison_experiment(problem, SolverConfig(cfl_factor=1.0), u0, v0)
    assert report.passed
    assert calls == []
    assert u0.time_dependent is False and v0.time_dependent is False

    # the derivative path still builds the sympy expression, once it is asked for
    coords = grid.coords()
    expr = parse_expression(text, 3)
    symbols = coordinate_symbols(3)
    grads = sympy.lambdify(symbols, [sympy.diff(expr, s) for s in symbols[:-1]], "numpy")
    expected = np.stack(np.broadcast_arrays(*grads(*coords.T, 0.0)), axis=-1)
    assert np.array_equal(u0.euclidean_gradient(coords), expected)
    assert np.array_equal(v0.euclidean_gradient(coords), expected)
    assert "parse_expression" in calls


def test_arithmetic_combines_the_compiled_functions():
    u = ScalarField.from_expression("x1*x2 + 0.1", 2)
    w = ScalarField.from_expression("x2 - t", 2)
    coords = np.random.default_rng(3).uniform(-1, 1, (7, 2))
    base, other = u(coords, 0.5), w(coords, 0.5)
    assert np.array_equal((u + 0.3)(coords, 0.5), base + 0.3)
    assert np.array_equal((2.5 * u)(coords, 0.5), 2.5 * base)
    assert np.array_equal((u + w)(coords, 0.5), base + other)
    assert (u + w).time_dependent and not (u + 0.3).time_dependent
    x1, x2, t = coordinate_symbols(2)
    assert sympy.simplify((u + w).expr - (x1 * x2 + 0.1 + x2 - t)) == 0
    assert sympy.simplify((2.5 * u).expr - 2.5 * (x1 * x2 + 0.1)) == 0
    callable_field = ScalarField.from_callable(lambda c, t: c[..., 0], 2)
    assert (u + callable_field).expr is None
    assert (u + callable_field).time_dependent is None


@pytest.mark.parametrize("text", ["abs(x1)", "abs(-x2) * x1", "x1", "+x2", "min(x1)",
                                  "max(x1, x2, t)", "t", "2.5", "abs(t)"])
@pytest.mark.parametrize("frozen", [False, True])
def test_evaluation_leaves_the_coordinates_unchanged(text, frozen):
    coords = np.random.default_rng(5).uniform(-1, 1, (6, 2))
    before = coords.copy()
    coords.setflags(write=not frozen)
    f = ScalarField.from_expression(text, 2)
    out = f(coords, -0.5)
    assert out.shape == (6,)
    assert np.array_equal(coords, before)
    assert not np.shares_memory(out, coords)
    assert np.array_equal(f(coords[0], -0.5), out[0])


# -- grammar checks at definition --------------------------------------


REJECTIONS = [
    ("x4", "column 0: unknown coordinate name 'x4'"),
    ("y", "column 0: unknown coordinate name 'y'"),
    ("x1 % 2", "column 0: operator Mod not allowed"),
    ("x1 // 2", "column 0: operator FloorDiv not allowed"),
    ("x1 @ x2", "column 0: operator MatMult not allowed"),
    ("x1 << 1", "column 0: operator LShift not allowed"),
    ("~x1", "column 0: operator Invert not allowed"),
    ("not x1", "column 0: operator Not not allowed"),
    ("sin(x1)", "column 0: only min, max and abs calls are allowed"),
    ("__import__('os')", "column 0: only min, max and abs calls are allowed"),
    ("min(x1, key=x2)", "column 0: keyword arguments are not allowed"),
    ("min()", "column 0: min() needs at least one argument"),
    ("abs(*[x1])", "column 4: syntax element Starred not allowed"),
    ("abs(x1, x2)", "column 0: abs() takes exactly one argument"),
    ("abs(t, x1)", "column 0: abs() takes exactly one argument"),
    ("abs()", "column 0: abs() needs at least one argument"),
    ("'a'", "column 0: literal 'a' is not numeric"),
    ("True", "column 0: literal True is not numeric"),
    ("1j", "column 0: literal 1j is not numeric"),
    ("x1.real", "column 0: syntax element Attribute not allowed"),
    ("(x1).__class__", "column 0: syntax element Attribute not allowed"),
    ("x1 if x2 else 0", "column 0: syntax element IfExp not allowed"),
    ("[x1]", "column 0: syntax element List not allowed"),
    ("(x1, x2)", "column 0: syntax element Tuple not allowed"),
    ("lambda: 1", "column 0: syntax element Lambda not allowed"),
    ("x1 < 2", "column 0: syntax element Compare not allowed"),
    ("x1 and x2", "column 0: syntax element BoolOp not allowed"),
    ("2 * x1 + abs(x2 % 3)", "column 13: operator Mod not allowed"),
]


@pytest.mark.parametrize("text,message", REJECTIONS)
def test_grammar_rejections_raise_at_definition(text, message):
    with pytest.raises(ExpressionError) as caught:
        ScalarField.from_expression(text, 3)
    assert str(caught.value) == message
    with pytest.raises(ExpressionError) as caught:
        parse_expression(text, 3)
    assert str(caught.value) == message


def test_an_integer_literal_beyond_float_range_raises_at_definition():
    with pytest.raises(ExpressionError, match="^column 5: integer literal is too large"):
        ScalarField.from_expression("x1 + 1" + "0" * 400, 3)


@pytest.mark.parametrize("text", ["x1 +", "", "x1 = 2", "x1 +\n 2"])
def test_syntax_errors_raise_at_definition(text):
    with pytest.raises(ExpressionError, match=r"^parse error at line \d+, column \d+: "):
        ScalarField.from_expression(text, 3)


# -- complex values ----------------------------------------------------


def test_a_complex_sympy_field_raises_instead_of_dropping_the_imaginary_part():
    x1 = coordinate_symbols(1)[0]
    f = ScalarField.from_expression(sympy.I * x1 + x1 ** 2, 1)
    coords = np.array([[0.5], [1.0]])
    with pytest.raises(ValueError, match="complex"):
        f(coords, 0.0)
    with pytest.raises(ValueError, match="complex"):
        f.euclidean_gradient(coords)
    with pytest.raises(ValueError, match="complex"):
        ScalarField.from_expression(sympy.I * x1 * sympy.Symbol("t"), 1).time_slope(coords)


def test_a_fractional_power_of_a_negative_literal_is_not_finite():
    with np.errstate(invalid="ignore"):
        f = ScalarField.from_expression("(-1)**0.5*x1", 1)
        with pytest.raises(FloatingPointError):
            f(np.array([[0.5]]), 0.0)
