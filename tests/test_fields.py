"""Scalar fields: the compiled expression path, the Taylor derivatives and
their literals against a test-local sympy oracle, kinks, the grammar checks
at definition and complex values."""

import ast
import functools

import numpy as np
import pytest
import sympy
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from carnotpde import expressions
from carnotpde.experiments import comparison_experiment
from carnotpde.expressions import ExpressionError
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


def sympy_oracle(text, dim):
    """The text as sympy reads it, unevaluated (the tree as written), and its
    symbols x1..x<dim>, t."""
    symbols = sympy.symbols([f"x{i + 1}" for i in range(dim)] + ["t"])
    names = {str(s): s for s in symbols}
    names.update(pi=sympy.pi, e=sympy.E, min=sympy.Min, max=sympy.Max, abs=sympy.Abs)
    return sympy.parse_expr(text, local_dict=names, evaluate=False), symbols


def _literal(value):
    return f"{value:.17g}"


def grammar_trees(dim, polynomial=False):
    """Trees over the whole grammar, or polynomials: + - * and powers 0..3."""
    leaves = st.one_of(
        st.sampled_from([f"x{i + 1}" for i in range(dim)] + ["t", "pi", "e"]),
        st.floats(1e-3, 10.0).map(_literal),
        st.integers(0, 9).map(str))
    operators = ["+", "-", "*"] if polynomial else ["+", "-", "*", "/"]
    powers = ["0", "1", "2", "3"] if polynomial else ["0", "1", "2", "3", "-1", "-2"]

    def extend(children):
        branches = [
            st.tuples(children, st.sampled_from(operators), children)
              .map(lambda p: f"({p[0]} {p[1]} {p[2]})"),
            children.map(lambda a: f"(-{a})"),
            st.tuples(children, st.sampled_from(powers))
              .map(lambda p: f"({p[0]})**{p[1]}")]
        if not polynomial:
            branches += [
                st.tuples(st.sampled_from(["min", "max"]),
                          st.lists(children, min_size=1, max_size=3))
                  .map(lambda p: f"{p[0]}({', '.join(p[1])})"),
                children.map(lambda a: f"abs({a})")]
        return st.one_of(*branches)

    return st.recursive(leaves, extend, max_leaves=10)


@st.composite
def expressions_at_points(draw, polynomial=False):
    dim = draw(st.integers(1, 4))
    text = draw(grammar_trees(dim, polynomial))
    coords = np.array(draw(st.lists(
        st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim),
        min_size=1, max_size=6)))
    t = draw(st.floats(0.0, 1.0))
    return text, dim, coords, t


@given(expressions_at_points())
# x1**2 underflows to 0: the tree as written gives -0.0, not -x1
@example(("(-((x1)**2 / x1))", 1, np.array([[9.64116831e-208]]), 0.0))
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
        expr, symbols = sympy_oracle(text, dim)
    except ValueError:
        reject()
    assume(not expr.has(sympy.zoo, sympy.nan, sympy.oo, -sympy.oo, sympy.I))
    fn = sympy.lambdify(symbols, expr, modules="numpy")
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


@given(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
@example(0.30000000000000004)            # 15 significant digits print it as 0.3
@settings(max_examples=200, deadline=None)
def test_derivatives_keep_every_digit_of_a_literal(c):
    coords = np.array([[0.5], [-1.0]])
    grad = ScalarField.from_expression(f"{c!r}*x1", 1).euclidean_gradient(coords)
    slope = ScalarField.from_expression(f"{c!r}*t", 1).time_slope(coords)
    assert grad.shape == (2, 1) and slope.shape == (2,)
    assert np.array_equal(grad.view(np.int64), np.full((2, 1), c).view(np.int64))
    assert np.array_equal(slope.view(np.int64), np.full(2, c).view(np.int64))


@pytest.mark.parametrize("value", [sympy.Symbol("x1") ** 2, 0.5, None, b"x1"])
def test_only_expression_text_defines_an_analytic_field(value):
    with pytest.raises(TypeError, match="an expression must be a string"):
        ScalarField.from_expression(value, 1)


class _Absolute(ast.NodeTransformer):
    """The tree with every literal, subtraction and negation made positive."""

    def visit_Constant(self, node):
        return ast.Constant(abs(node.value))

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Sub):
            node.op = ast.Add()
        return node

    def visit_UnaryOp(self, node):
        return self.visit(node.operand)


@given(expressions_at_points(polynomial=True))
@settings(max_examples=150, deadline=None)
def test_taylor_derivatives_match_the_sympy_oracle(case):
    # the scale is the same derivative of the tree with every term made
    # positive, at |coords|: no evaluation order of the derivative sums
    # terms larger than that
    text, dim, coords, t = case
    field = ScalarField.from_expression(text, dim)
    grad, hess = field.euclidean_gradient(coords, t), field.euclidean_hessian(coords, t)
    slope = field.time_slope(coords, t)
    # evaluated and expanded, so that sympy's derivative divides by nothing
    expr, symbols = sympy_oracle(text, dim)
    expr = sympy.expand(expr.doit())
    absolute = ast.unparse(_Absolute().visit(ast.parse(text, mode="eval")))
    absolute_expr = sympy.expand(sympy_oracle(absolute, dim)[0].doit())

    def derivative(e, wrt, points):
        fn = sympy.lambdify(symbols, e.diff(*wrt), "numpy")
        return np.broadcast_to(fn(*[points[..., i] for i in range(dim)], t),
                               coords.shape[:-1])

    nodes = sum(1 for _ in ast.walk(ast.parse(text)))
    xs = symbols[:-1]
    pairs = ([(grad[..., i], (a,)) for i, a in enumerate(xs)]
             + [(hess[..., i, j], (a, b)) for i, a in enumerate(xs) for j, b in enumerate(xs)]
             + [(slope, (symbols[-1],))])
    for got, wrt in pairs:
        ref = derivative(expr, wrt, coords)
        scale = derivative(absolute_expr, wrt, np.abs(coords))
        bound = 32 * nodes * (EPS * scale + TINY)
        assert np.all(np.abs(got - ref) <= bound), (text, wrt, got, ref, bound)
    assert np.array_equal(hess, np.swapaxes(hess, -1, -2))


# a kinked field, and its kink arguments: the differences of the operands
# that abs, min and max compare
KINKED = {
    "abs(x1 - 0.5*x2) * x2 + t": lambda x1, x2, t: [x1 - 0.5 * x2],
    "min(x1*x2, 0.3, x2 - t)": lambda x1, x2, t: [x1 * x2 - 0.3, x1 * x2 - x2 + t, 0.3 - x2 + t],
    "max(x1**2, x2 - 0.2) - 0.5*t*x1": lambda x1, x2, t: [x1 ** 2 - x2 + 0.2],
}


@pytest.mark.parametrize("text", sorted(KINKED))
def test_jets_of_kinked_fields_match_one_sided_differences(text):
    # on each smooth piece, at least 0.05 from a kink, forward differences of
    # the field (gradient, time slope) and of its gradient (Hessian)
    f = ScalarField.from_expression(text, 2)
    rng = np.random.default_rng(7)
    coords, t = rng.uniform(-1, 1, (400, 2)), 0.25
    gaps = np.abs(np.array(KINKED[text](coords[:, 0], coords[:, 1], t)))
    coords = coords[gaps.min(axis=0) > 0.05][:40]
    assert len(coords) == 40
    grad, hess = f.euclidean_gradient(coords, t), f.euclidean_hessian(coords, t)
    step = 1e-7
    for i in range(2):
        shifted = coords + step * np.eye(2)[i]
        assert np.abs((f(shifted, t) - f(coords, t)) / step - grad[:, i]).max() < 1e-5
        fd = (f.euclidean_gradient(shifted, t) - grad) / step
        assert np.abs(fd - hess[:, :, i]).max() < 1e-5
    assert np.abs((f(coords, t + step) - f(coords, t)) / step
                  - f.time_slope(coords, t)).max() < 1e-5


@pytest.fixture
def taylor_compiles(monkeypatch):
    """The arguments of every Taylor compile while the test runs."""
    calls, compile_taylor = [], expressions.compile_taylor

    def spy(*args):
        calls.append(args)
        return compile_taylor(*args)

    monkeypatch.setattr(expressions, "compile_taylor", spy)
    return calls


def test_the_taylor_function_is_compiled_once_per_field(taylor_compiles):
    f = ScalarField.from_expression("x1*x2**2 - 0.5*t*x1", 2)
    p = np.array([[0.25, -0.75], [1.0, 2.0]])
    for _ in range(3):
        grad, hess, slope = f.euclidean_gradient(p), f.euclidean_hessian(p), f.time_slope(p)
    assert taylor_compiles == [("x1*x2**2 - 0.5*t*x1", 2)]
    assert np.array_equal(grad, [[0.5625, -0.375], [4.0, 4.0]])
    assert np.array_equal(hess, [[[0.0, -1.5], [-1.5, 0.5]], [[0.0, 4.0], [4.0, 2.0]]])
    assert np.array_equal(slope, [-0.125, -0.5])


def test_operations_run_in_the_written_order():
    # sympy would sum 1e16 - 1e16 first; as written, 1 is lost in 1e16 + 1
    f = ScalarField.from_expression("x1 + 1e16 + 1 - 1e16", 1)
    assert f(np.array([0.0]), 0.0) == 0.0


# -- no Taylor function on the way to a march ---------------------------


def test_defining_and_marching_a_pair_builds_no_taylor_function(taylor_compiles):
    text = "0.3*x1 - 0.2*x2 + 0.1*x3 + 0.25*x1*x2 - 0.15*x1*x1"
    u0 = ScalarField.from_expression(text, 3)
    v0 = u0 + 0.3
    grid = GridSpec(box=((-1, 1),) * 3, cells=(8, 8, 8), horizon=0.02)
    problem = CauchyDirichletProblem(heisenberg_group(), grid, 2.0, u0, u0)
    report = comparison_experiment(problem, SolverConfig(cfl_factor=1.0), u0, v0)
    assert report.passed
    assert taylor_compiles == []
    assert u0.time_dependent is False and v0.time_dependent is False

    # a derivative compiles it, once for the field and the shifted copy
    coords = grid.coords()
    x1, x2 = coords[:, 0], coords[:, 1]
    expected = np.stack([0.3 + 0.25 * x2 - 0.3 * x1, -0.2 + 0.25 * x1,
                         np.full_like(x1, 0.1)], axis=-1)
    assert np.abs(u0.euclidean_gradient(coords) - expected).max() <= 4 * EPS
    assert np.array_equal(v0.euclidean_gradient(coords), u0.euclidean_gradient(coords))
    assert taylor_compiles == [(text, 3)]


def test_arithmetic_combines_the_compiled_functions():
    u = ScalarField.from_expression("x1*x2 + 0.1", 2)
    w = ScalarField.from_expression("x2 - t", 2)
    coords = np.random.default_rng(3).uniform(-1, 1, (7, 2))
    base, other = u(coords, 0.5), w(coords, 0.5)
    assert np.array_equal((u + 0.3)(coords, 0.5), base + 0.3)
    assert np.array_equal((2.5 * u)(coords, 0.5), 2.5 * base)
    assert np.array_equal((u + w)(coords, 0.5), base + other)
    assert (u + w).time_dependent and not (u + 0.3).time_dependent
    # and their Taylor functions: the derivatives of x1*x2 + x2 - t and 2.5*x1*x2
    x1, x2 = coords[:, 0], coords[:, 1]
    assert np.array_equal((u + w).euclidean_gradient(coords, 0.5),
                          np.stack([x2, x1 + 1.0], axis=-1))
    assert np.array_equal((u + w).time_slope(coords, 0.5), np.full(7, -1.0))
    assert np.array_equal((2.5 * u).euclidean_hessian(coords, 0.5),
                          np.broadcast_to([[0.0, 2.5], [2.5, 0.0]], (7, 2, 2)))
    assert np.array_equal((u + 0.3).euclidean_gradient(coords), u.euclidean_gradient(coords))


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
        expressions.compile_taylor(text, 3)
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
    # sympy reads (-1)**0.5 as 1.0*I; in float64 it is nan, and so are the
    # value and every derivative
    coords = np.array([[0.5], [1.0]])
    assert sympy_oracle("(-1)**0.5*x1 + x1**2", 1)[0].doit().has(sympy.I)
    with np.errstate(invalid="ignore"):
        f = ScalarField.from_expression("(-1)**0.5*x1 + x1**2", 1)
        g = ScalarField.from_expression("(-1)**0.5*x1*t", 1)
        with pytest.raises(FloatingPointError):
            f(coords, 0.0)
        with pytest.raises(FloatingPointError, match="derivative"):
            f.euclidean_gradient(coords)
        with pytest.raises(FloatingPointError, match="derivative"):
            g.time_slope(coords)


def test_a_fractional_power_of_a_negative_literal_is_not_finite():
    with np.errstate(invalid="ignore"):
        f = ScalarField.from_expression("(-1)**0.5*x1", 1)
        with pytest.raises(FloatingPointError):
            f(np.array([[0.5]]), 0.0)
