"""Monotone semi-Lagrangian scheme: stencil oracles, CFL, comparison,
maximum principle, steady states."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnotpde import solver
from carnotpde.fields import ScalarField
from carnotpde.grid import GridSpec
from carnotpde.groups import engel_group, euclidean_group, heisenberg_group, make_group
from carnotpde.solver import (
    Binding,
    CauchyDirichletProblem,
    Scheme,
    SolverConfig,
    SolverError,
    Stack,
    direction_set,
    march,
    solve_elliptic_steady,
    solve_parabolic,
    solve_to_steady,
)


def make_problem(group, box, cells, h, psi_expr, g_expr=None, horizon=0.1):
    grid = GridSpec(box=box, cells=cells, horizon=horizon)
    psi = ScalarField.from_expression(psi_expr, group.total_dim)
    g = ScalarField.from_expression(g_expr or psi_expr, group.total_dim)
    return CauchyDirichletProblem(group, grid, h, psi, g)


def at_node(problem, node, config=None):
    """The one-node geometry of an interior node, the one-field stack of the
    problem's initial data on it, and one operator apply of that stack."""
    flat = int(np.ravel_multi_index(node, problem.grid.shape))
    scheme = Scheme(problem, config, node_subset=[flat])
    stack = Stack.of(scheme, problem)
    W = scheme.apply(stack.U[0])
    return scheme, stack, W


def gradient_at(problem, node, config=None):
    scheme, _, W = at_node(problem, node, config)
    return scheme.gradient(W)[:, 0]


def second_difference(problem, node, eta):
    """Symmetric second difference along eta, a direction of the default
    set, from the apply rows of its antipodal pair."""
    scheme, stack, W = at_node(problem, node)
    eta = np.asarray(eta, dtype=float)
    rows = [int(np.abs(scheme.directions - v).max(axis=1).argmin()) for v in (eta, -eta)]
    assert np.abs(scheme.directions[rows] - [eta, -eta]).max() < 1e-12
    u = stack.U[0, scheme.interior_flat[0]]
    return float((W[rows[0], 0] + W[rows[1], 0] - 2.0 * u) / scheme.delta ** 2)


# -- configuration and setup -----------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(cfl_factor=0.0)
    with pytest.raises(ValueError):
        SolverConfig(cfl_factor=1.5)
    with pytest.raises(ValueError):
        SolverConfig(direction_samples=2)
    # None means the grid spacing for stencil_radius only
    with pytest.raises(ValueError, match="steady_tolerance"):
        SolverConfig(steady_tolerance=None)


@pytest.mark.parametrize("setting", [
    {"steady_tolerance": 0.0}, {"steady_tolerance": -1e-8},
    {"steady_tolerance": np.inf}, {"steady_tolerance": np.nan},
    {"stencil_radius": 0.0}, {"stencil_radius": -0.1},
    {"stencil_radius": np.inf}, {"stencil_radius": np.nan},
    {"direction_samples": np.inf},
    # 16.5 would build 17 directions and 5 would build 5, neither antipodal
    {"direction_samples": 16.5}, {"direction_samples": 5},
])
def test_settings_that_cannot_take_effect_are_rejected(setting):
    (name, _), = setting.items()
    with pytest.raises(ValueError, match=name):
        SolverConfig(**setting)


def test_problem_validation():
    G = euclidean_group(2)
    with pytest.raises(ValueError, match="h"):
        make_problem(G, ((0, 1), (0, 1)), (4, 4), 0.5, "x1")
    for h in (np.inf, np.nan):
        with pytest.raises(ValueError, match="violates the homogeneity constraint h >= 1, h finite"):
            make_problem(G, ((0, 1), (0, 1)), (4, 4), h, "x1")
    with pytest.raises(ValueError, match="dimension"):
        make_problem(heisenberg_group(), ((0, 1), (0, 1)), (4, 4), 2.0, "x1")


def test_a_non_finite_snapshot_time_is_rejected_before_the_march(monkeypatch):
    # a NaN stop is never reached: unchecked, the march runs to MAX_STEPS
    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    monkeypatch.setattr(solver, "march", stop)
    prob = make_problem(euclidean_group(1), ((0, 1),), (4,), 2.0, "x1")
    for times in ([np.nan], [0.01, np.nan], [np.inf]):
        with pytest.raises(ValueError, match="snapshot_times must be finite"):
            solve_parabolic(prob, SolverConfig(), snapshot_times=times)


def test_incompatible_data_warns():
    # the problem only describes its data; the march that reads psi and g warns
    G = euclidean_group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prob = make_problem(G, ((0, 1),), (8,), 2.0, "x1 + 1", "x1")
    with pytest.warns(UserWarning, match="boundary"):
        solve_parabolic(prob)


def test_a_problem_evaluates_no_field(monkeypatch):
    calls = []
    evaluate = ScalarField.__call__

    def spy(field, coords, t=0.0):
        calls.append(t)
        return evaluate(field, coords, t)

    monkeypatch.setattr(ScalarField, "__call__", spy)
    make_problem(heisenberg_group(), ((-1, 1),) * 3, (8, 8, 8), 2.0, "x1", "x2")
    assert calls == []


def test_direction_sets():
    d1 = direction_set(1, 16)
    assert d1.tolist() == [[1.0], [-1.0]]
    d2 = direction_set(2, 12)
    assert d2.shape == (12, 2)
    assert np.allclose(np.linalg.norm(d2, axis=1), 1.0)
    # even sample counts close the set under negation
    for v in d2:
        assert np.abs(d2 + v).sum(axis=1).min() < 1e-12
    # with samples % 4 == 0 the quadrant directions are exact axis vectors,
    # so the gradient's +-e_i rows are rows of the kappa stencils
    d16 = direction_set(2, 16)
    for axis in ([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]):
        assert (d16 == axis).all(axis=1).any()
    # the Scheme puts the +-e_i after the other directions in the order
    # +e1, -e1, +e2, ...: the ones a set holds must lead that order
    for n1, samples in [(1, 4), (3, 6), (3, 16)] + [(2, s) for s in range(4, 40)]:
        axes = np.kron(np.eye(n1), [[1.0], [-1.0]])
        held = [(direction_set(n1, samples) == a).all(axis=1).any() for a in axes]
        assert held == sorted(held, reverse=True)


@pytest.mark.parametrize("n1", [3, 4])
def test_direction_samples_refine_the_set_for_three_axes_and_more(n1):
    axes = np.kron(np.eye(n1), [[1.0], [-1.0]])
    for samples in (2 * n1, 16, 64):
        d = direction_set(n1, samples)
        assert d.shape == (samples, n1)
        assert np.abs(np.linalg.norm(d, axis=1) - 1.0).max() <= 1e-15
        assert all((d == -v).all(axis=1).any() for v in d)
        cosines = d @ d.T
        np.fill_diagonal(cosines, -1.0)
        assert cosines.max() < 1.0 - 1e-6         # no direction twice
        # +e1, -e1, +e2, ... lead the set, exact and without a -0.0
        assert np.array_equal(d[:2 * n1].view(np.int64), (axes + 0.0).view(np.int64))
    assert np.array_equal(direction_set(n1, 64)[:16], direction_set(n1, 16))
    with pytest.raises(ValueError, match=f"at least 2 n1 = {2 * n1}"):
        direction_set(n1, 2 * n1 - 2)


# -- node-wise oracles -----------------------------------------------


def test_discrete_gradient_exact_for_affine():
    prob = make_problem(euclidean_group(2), ((0, 1), (0, 1)), (8, 8), 2.0,
                        "3*x1 - 2*x2 + 1")
    grad = gradient_at(prob, (4, 4))
    assert np.allclose(grad, [3.0, -2.0], atol=1e-13)


def test_discrete_gradient_vertical_coordinate_on_heisenberg():
    # u = z has horizontal gradient (-y/2, x/2); at (x,y) = (2,4) this is (-2,1)
    prob = make_problem(heisenberg_group(), ((0, 4), (0, 8), (-4, 4)),
                        (8, 8, 8), 2.0, "x3")
    node = (4, 4, 4)
    assert np.allclose(prob.grid.coords()[np.ravel_multi_index(node, prob.grid.shape)],
                       [2.0, 4.0, 0.0])
    # 16 samples share the +-e_i rows with the kappa directions; 6 samples
    # lack +-e_2, which the operator appends after them
    for samples in (6, 16):
        config = SolverConfig(direction_samples=samples)
        grad = gradient_at(prob, node, config)
        assert np.allclose(grad, [-2.0, 1.0], atol=1e-10)


def test_discrete_gradient_zero_for_constant():
    prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (6, 6, 6), 2.0, "7")
    assert np.abs(gradient_at(prob, (3, 3, 3))).max() == 0.0


def test_discrete_gradient_rejects_boundary_node():
    prob = make_problem(euclidean_group(1), ((0, 1),), (8,), 2.0, "x1")
    with pytest.raises(ValueError, match="boundary"):
        gradient_at(prob, (0,))


def test_second_difference_oracles():
    prob1 = make_problem(euclidean_group(1), ((0, 2),), (16,), 3.0, "x1**2")
    val = second_difference(prob1, (8,), [1.0])
    assert val == pytest.approx(2.0, abs=1e-10)

    # a direction of the 16-sample set off the axes
    aff = make_problem(euclidean_group(2), ((0, 1), (0, 1)), (8, 8), 2.0,
                       "x1 - 4*x2")
    eta = [np.cos(3 * np.pi / 8), np.sin(3 * np.pi / 8)]
    assert second_difference(aff, (4, 4), eta) == pytest.approx(0.0, abs=1e-12)

    heis = make_problem(heisenberg_group(), ((-1, 1),) * 3, (16, 16, 16), 2.0,
                        "x1*x2")
    eta = np.array([1.0, 1.0]) / np.sqrt(2.0)
    val = second_difference(heis, (8, 8, 8), eta)
    # oracle: <(D^2 u)* eta, eta> with (D^2 u)* = [[0,1],[1,0]]
    assert val == pytest.approx(1.0, abs=5 * heis.grid.delta)


def test_discrete_operator_oracles():
    config = SolverConfig()

    def operator_at(problem, node):
        scheme, stack, _ = at_node(problem, node, config)
        return float(scheme.discrete_operator(stack.U[0], problem.h)[0][0])

    flat = make_problem(euclidean_group(2), ((0, 1), (0, 1)), (8, 8), 3.0, "5")
    assert operator_at(flat, (4, 4)) == 0.0

    aff = make_problem(heisenberg_group(), ((-1, 1),) * 3, (8, 8, 8), 2.0,
                       "x1 + 2*x2")
    assert operator_at(aff, (4, 4, 4)) == pytest.approx(0.0, abs=1e-11)

    sq = make_problem(euclidean_group(1), ((0, 2),), (32,), 3.0, "x1**2")
    val = operator_at(sq, (16,))
    assert val == pytest.approx(8.0, abs=10 * sq.grid.delta)


def test_cfl_values():
    config = SolverConfig(cfl_factor=0.5)

    def cfl_dt(problem):
        scheme = Scheme(problem, config)
        u = Stack.of(scheme, problem).U[0]
        return scheme.discrete_operator(u, problem.h, config.cfl_factor)[1]

    h1 = make_problem(euclidean_group(1), ((0, 1),), (8,), 1.0, "x1")
    delta = h1.grid.delta
    assert cfl_dt(h1) == pytest.approx(0.5 * delta ** 2 / 2)

    const = make_problem(euclidean_group(1), ((0, 1),), (8,), 3.0, "2")
    assert cfl_dt(const) == pytest.approx(0.5 * delta ** 2 / 2)

    steep = make_problem(euclidean_group(1), ((0, 1),), (8,), 3.0, "2*x1")
    assert cfl_dt(steep) == pytest.approx(0.5 * delta ** 2 / 8)


def test_node_subset_matches_full_evaluation():
    prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (8, 8, 8), 2.0,
                        "x1**2 - x2*x3")
    config = SolverConfig()
    full = Scheme(prob, config)
    op_full, _ = full.discrete_operator(prob.psi(full.coords, 0.0), 2.0)
    subset = full.interior_flat[[5, 40, 100]]
    part = Scheme(prob, config, node_subset=subset)
    assert len(part.coords) < prob.grid.node_count
    op_part, _ = part.discrete_operator(prob.psi(part.coords, 0.0), 2.0)
    assert np.array_equal(op_part, op_full[[5, 40, 100]])


def test_march_refuses_a_node_subset_geometry():
    # a subset's rows read nodes that no step would update
    prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (8, 8, 8), 2.0,
                        "x1**2 - x2*x3", horizon=0.05)
    full = Scheme(prob)
    part = Scheme(prob, node_subset=full.interior_flat[[5, 40, 100]])
    stack = Stack.of(part, prob)
    with pytest.raises(ValueError, match="node-subset"):
        next(march(stack, SolverConfig(), [prob.grid.horizon]))
    assert stack.steps == 0
    assert next(march(Stack.of(full, prob), SolverConfig())).steps == 1


# -- the geometry cache ----------------------------------------------

_CUBE = ((-1, 1),) * 3


def test_schemes_of_equal_content_share_one_geometry():
    # a group rebuilt from the same table, and problems that differ only in
    # horizon, h, data or step settings, all read one build
    base = make_problem(heisenberg_group(), _CUBE, (4, 4, 4), 2.0, "x1*x2")
    first = Scheme(base)
    rebuilt = make_group((2, 1), [(0, 1, 2, 1.0)])
    same = [
        (make_problem(rebuilt, _CUBE, (4, 4, 4), 2.0, "x1*x2"), None),
        (replace(base, grid=replace(base.grid, horizon=0.7)), None),
        (replace(base, h=3.0), None),
        (make_problem(heisenberg_group(), _CUBE, (4, 4, 4), 1.0, "x3 - x1"), None),
        (base, SolverConfig(cfl_factor=0.3)),
        (base, SolverConfig(stencil_radius=base.grid.delta)),
    ]
    for problem, config in same:
        scheme = Scheme(problem, config)
        assert scheme.matrix is first.matrix
        assert scheme.coords is first.coords
        assert scheme.interior_flat is first.interior_flat
    subset = first.interior_flat[[0, 7]]
    assert Scheme(base, node_subset=subset).matrix is Scheme(
        base, node_subset=list(subset)).matrix


def test_schemes_of_other_content_build_their_own_geometry():
    base = make_problem(heisenberg_group(), _CUBE, (4, 4, 4), 2.0, "x1*x2")
    other = [
        (make_problem(heisenberg_group(), ((0, 2), (-1, 1), (-1, 1)), (4, 4, 4),
                      2.0, "x1*x2"), None, None),
        (make_problem(heisenberg_group(), _CUBE, (4, 4, 6), 2.0, "x1*x2"), None, None),
        (base, SolverConfig(stencil_radius=0.75), None),
        (base, SolverConfig(direction_samples=8), None),
        (base, None, [31]),
        (make_problem(make_group((2, 1), [(0, 1, 2, 2.0)]), _CUBE, (4, 4, 4),
                      2.0, "x1*x2"), None, None),
    ]
    for problem, config, subset in other:
        # the base geometry is the most recently used one when each is asked for
        held = Scheme(base).matrix
        fresh = Scheme(problem, config, node_subset=subset).matrix
        assert fresh is not held
        assert not (fresh.shape == held.shape and (fresh != held).nnz == 0)


def test_direction_counts_that_give_one_set_share_one_geometry():
    # on the line every direction count gives the set +-e1
    prob = make_problem(euclidean_group(1), ((0, 1),), (4,), 2.0, "x1")
    first = Scheme(prob, SolverConfig(direction_samples=4)).matrix
    assert Scheme(prob, SolverConfig(direction_samples=16)).matrix is first
    with pytest.raises(ValueError, match="read-only"):
        direction_set(1, 4)[0, 0] = 0.0


def test_cached_geometry_is_read_only():
    prob = make_problem(heisenberg_group(), _CUBE, (4, 4, 4), 2.0, "x1*x2")
    scheme = Scheme(prob, SolverConfig(stencil_radius=0.75))
    M = scheme.matrix
    arrays = [scheme.lateral, scheme.coords, scheme.interior_flat,
              scheme.coords_lateral, scheme.directions, M.data, M.indices, M.indptr]
    for a in arrays:
        assert a.size
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


def test_a_new_geometry_replaces_the_held_one():
    base = make_problem(heisenberg_group(), _CUBE, (4, 4, 4), 2.0, "x1*x2")
    first = Scheme(base).matrix
    assert Scheme(base).matrix is first
    Scheme(base, SolverConfig(direction_samples=20))
    again = Scheme(base).matrix
    assert again is not first
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(again, name), getattr(first, name))


def test_a_new_geometry_is_built_after_the_held_one_is_dropped():
    # two geometries of one size, one after the other, with no caller
    # holding the first: the peak resident memory must not grow by the
    # first's arrays while the second is built
    script = (
        "import resource\n"
        "from carnotpde import (CauchyDirichletProblem, GridSpec, ScalarField,\n"
        "                       heisenberg_group)\n"
        "from carnotpde.solver import Scheme\n"
        "f = ScalarField.from_expression('x1', 3)\n"
        "def scheme(lo):\n"
        "    grid = GridSpec(box=((lo, lo + 2), (-1, 1), (-1, 1)), cells=(32,) * 3)\n"
        "    return Scheme(CauchyDirichletProblem(heisenberg_group(), grid, 2.0, f, f))\n"
        "def peak():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
        "s = scheme(-1.0)\n"
        "M = s.matrix\n"
        "held = sum(a.nbytes for a in (s.coords, M.data, M.indices, M.indptr))\n"
        "del s, M\n"
        "first = peak()\n"
        "scheme(0.0)\n"
        "print(held, peak() - first)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    held, growth = map(int, out.split())
    assert held > 30 * 2 ** 20
    assert growth < held / 2, (held, growth)


def test_invalid_node_subset_raises_on_every_call():
    prob = make_problem(heisenberg_group(), _CUBE, (4, 4, 4), 2.0, "x1*x2")
    for _ in range(2):
        with pytest.raises(ValueError, match="parabolic boundary"):
            Scheme(prob, node_subset=[0, 31])


# -- the banded apply --------------------------------------------------


def test_a_banded_apply_is_the_one_product_bit_for_bit(monkeypatch):
    # two CPUs whatever the host has, and a geometry built in this test
    monkeypatch.setattr(solver, "_cpus", lambda: 2)
    monkeypatch.setattr(solver, "_held", {})
    scheme = Scheme(make_problem(heisenberg_group(), _CUBE, (24, 24, 24), 2.0, "x1"))
    M = scheme.matrix
    assert M.nnz >= 2 * solver.BAND_WEIGHTS
    assert len(scheme.bands) == 2
    stops = [0]
    for rows, band in scheme.bands:
        assert rows.start == stops[-1] < rows.stop
        assert band.shape == (rows.stop - rows.start, M.shape[1])
        stops.append(rows.stop)
        assert np.shares_memory(band.data, M.data)
        assert np.shares_memory(band.indices, M.indices)
        for a in (band.data, band.indices, band.indptr):
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
    assert stops[-1] == M.shape[0]
    rng = np.random.default_rng(7)
    for _ in range(3):
        u = rng.standard_normal(M.shape[1])
        assert np.array_equal(scheme.apply(u), (M @ u).reshape(len(scheme.directions), -1))


def test_small_geometries_build_no_band(monkeypatch):
    # below 2 BAND_WEIGHTS weights the apply stays one product on any host
    monkeypatch.setattr(solver, "_cpus", lambda: 64)
    monkeypatch.setattr(solver, "_held", {})
    for problem in (make_problem(heisenberg_group(), _CUBE, (16, 16, 16), 2.0, "x1"),
                    make_problem(euclidean_group(1), ((0, 1),), (128,), 2.0, "x1")):
        assert Scheme(problem).bands == ()


def _run(script, pin):
    """The stdout of ``script`` run in a fresh process, restricted first to
    one CPU of this one when ``pin``."""
    head = ("import os\n"
            f"if {pin}:\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", head + script], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity call")
def test_one_cpu_builds_no_band_starts_no_thread_and_gives_the_same_apply():
    script = (
        "import hashlib, threading\n"
        "import numpy as np\n"
        "from carnotpde import (CauchyDirichletProblem, GridSpec, ScalarField,\n"
        "                       heisenberg_group)\n"
        "from carnotpde.solver import Scheme\n"
        "f = ScalarField.from_expression('x1', 3)\n"
        "grid = GridSpec(box=((-1, 1),) * 3, cells=(32,) * 3)\n"
        "s = Scheme(CauchyDirichletProblem(heisenberg_group(), grid, 2.0, f, f))\n"
        "W = s.apply(np.sin(np.arange(s.matrix.shape[1], dtype=float)))\n"
        "print(s.matrix.nnz, len(s.bands), threading.active_count(),\n"
        "      hashlib.sha256(W).hexdigest())\n")
    pinned, free = _run(script, True), _run(script, False)
    assert pinned[1:3] == ["0", "1"]
    bands = min(len(os.sched_getaffinity(0)), int(free[0]) // solver.BAND_WEIGHTS)
    assert int(free[1]) == (bands if bands >= 2 else 0)
    assert pinned[3] == free[3]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork")
def test_a_forked_child_runs_the_banded_apply():
    # the child inherits the parent's pool object but none of its threads
    script = (
        "import time\n"
        "import numpy as np\n"
        "from carnotpde import (CauchyDirichletProblem, GridSpec, ScalarField,\n"
        "                       heisenberg_group, solver)\n"
        "solver._cpus = lambda: 2\n"
        "f = ScalarField.from_expression('x1', 3)\n"
        "grid = GridSpec(box=((-1, 1),) * 3, cells=(24,) * 3)\n"
        "s = solver.Scheme(CauchyDirichletProblem(heisenberg_group(), grid, 2.0, f, f))\n"
        "u = np.sin(np.arange(s.matrix.shape[1], dtype=float))\n"
        "W = s.apply(u)\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os._exit(0 if np.array_equal(s.apply(u), W) else 1)\n"
        "for _ in range(600):\n"
        "    done, status = os.waitpid(pid, os.WNOHANG)\n"
        "    if done:\n"
        "        break\n"
        "    time.sleep(0.05)\n"
        "else:\n"
        "    os.kill(pid, 9)\n"
        "    os.waitpid(pid, 0)\n"
        "    status = 'hung'\n"
        "print(len(s.bands), status)\n")
    assert _run(script, False) == ["2", "0"]


def test_a_small_solve_starts_no_thread():
    script = (
        "import threading\n"
        "from carnotpde import (CauchyDirichletProblem, GridSpec, ScalarField,\n"
        "                       euclidean_group, solve_to_steady)\n"
        "f = ScalarField.from_expression('x1 + 0.5*x1*(1 - x1)', 1)\n"
        "grid = GridSpec(box=((0, 1),), cells=(128,), horizon=1.0)\n"
        "solve_to_steady(CauchyDirichletProblem(euclidean_group(1), grid, 2.0, f, f))\n"
        "print(threading.active_count())\n")
    assert _run(script, False) == ["1"]


_SOLVES = [solve_parabolic, solve_to_steady, solve_elliptic_steady]


@pytest.mark.parametrize("solve", _SOLVES, ids=lambda f: f.__name__)
def test_a_scheme_built_for_another_box_raises(solve):
    prob = make_problem(euclidean_group(1), ((0, 1),), (16,), 2.0, "x1")
    other = make_problem(euclidean_group(1), ((0, 2),), (16,), 2.0, "x1")
    with pytest.raises(ValueError, match="another group, box"):
        solve(prob, SolverConfig(), scheme=Scheme(other))


@pytest.mark.parametrize("solve", _SOLVES, ids=lambda f: f.__name__)
def test_a_scheme_built_for_another_direction_count_raises(solve):
    prob = make_problem(euclidean_group(2), ((0, 1),) * 2, (6, 6), 2.0, "x1 + x2")
    config = SolverConfig(direction_samples=32)
    with pytest.raises(ValueError, match="direction count"):
        solve(prob, config, scheme=Scheme(prob, SolverConfig(direction_samples=8)))
    # the step and stop settings are not part of the geometry
    scheme = Scheme(prob, replace(config, cfl_factor=0.3, steady_tolerance=1e-3))
    assert Scheme.of(prob, config, scheme) is scheme


# -- stepping --------------------------------------------------------


def test_affine_data_is_exact_fixed_point_in_1d():
    prob = make_problem(euclidean_group(1), ((0, 1),), (32,), 3.0,
                        "2*x1 - 0.5", horizon=0.05)
    result = solve_parabolic(prob, SolverConfig())
    x = prob.grid.coords()[:, 0]
    assert np.abs(result.final.values - (2 * x - 0.5)).max() <= 1e-12


@pytest.mark.parametrize("G,expr", [
    (euclidean_group(2), "x1 - 3*x2"),
    (heisenberg_group(), "x1 + 2*x2 - x3"),
    # step-3 groups: antipodal flow targets leave a third-layer residue
    # -(1/6)[v,[p,v]], so only data without a top-layer component is exact
    (engel_group(), "x1 - x2 + 0.5*x3"),
], ids=lambda v: getattr(v, "label", "affine"))
def test_one_step_preserves_affine_data_away_from_the_boundary(G, expr):
    # clamped boundary lookups perturb nodes within a stencil radius of the
    # lateral faces; strictly interior nodes update exactly
    prob = make_problem(G, ((-1, 1),) * G.total_dim, (8,) * G.total_dim, 2.0, expr)
    config = SolverConfig()
    stack = Stack.of(Scheme(prob, config), prob)
    u = stack.U[0].copy()
    new = next(march(stack, config)).U[0]
    coords = prob.grid.coords()
    margin = 2.5 * prob.grid.delta
    safe = np.all((coords > -1 + margin) & (coords < 1 - margin), axis=1)
    assert np.abs(new[safe] - u[safe]).max() <= 1e-12


_WAVES = {1.0: "x1 + 0.2*(x1**2 + 2*t)",
          2.0: "2*(x1 - 0.5*t) - 0.25*(x1 - 0.5*t)**2",
          3.0: "-(4 - (x1 - 0.5*t))**1.5 / 1.5"}


def test_on_axis_travelling_waves_are_exact_or_second_order():
    # data in x1 alone: X1 u = u' and X2 u = 0, so the flow reduces to
    # u_t = |u'|^(h-1) u'', solved by these travelling waves; for h = 1 the
    # heat polynomial (u' > 0) is reproduced to round-off
    errors = {h: [] for h in _WAVES}
    for cells in (8, 16):
        for h, expr in _WAVES.items():
            prob = make_problem(heisenberg_group(), _CUBE, (cells,) * 3, h, expr)
            final = solve_parabolic(prob, SolverConfig(cfl_factor=1.0)).final
            exact = prob.g(prob.grid.coords(), final.time_level)
            errors[h].append(float(np.abs(final.values - exact).max()))
    assert max(errors[1.0]) <= 1e-15
    for h in (2.0, 3.0):
        assert np.log2(errors[h][0] / errors[h][1]) >= 1.8, errors[h]


def test_constant_data_is_global_fixed_point():
    prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (6, 6, 6), 3.0, "5",
                        horizon=0.02)
    result = solve_parabolic(prob, SolverConfig())
    assert np.abs(result.final.values - 5.0).max() == 0.0


def test_step_aborts_on_a_non_finite_value():
    # the lateral datum overflows to inf just past t = 0.4
    prob = make_problem(euclidean_group(1), ((0, 1),), (16,), 1.0,
                        "x1*(1-x1) + 10**(770*t)", horizon=0.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="non-finite value at node"):
            solve_parabolic(prob, SolverConfig())


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_step_monotonicity_h1(seed):
    rng = np.random.default_rng(seed)
    prob = make_problem(euclidean_group(2), ((0, 1), (0, 1)), (5, 5), 1.0,
                        "x1*x2")
    config = SolverConfig()
    scheme = Scheme(prob, config)
    u = rng.uniform(-1, 1, prob.grid.node_count)
    v = u + rng.uniform(0, 1, prob.grid.node_count)
    stack = Stack([Binding(scheme, prob.psi, prob.g, 1.0)] * 2, [u, v])
    (u1, v1) = next(march(stack, config)).U
    assert (u1 <= v1 + 1e-13).all()


def _reference_step(scheme, stack, config):
    """One step of a stack in the stack-wide form, without touching it: one
    matrix @ U.T over the stack, max + min of the first n_kappa rows, the
    central differences of the last 2 n1 (the +-e_i), the speed, dt
    the smallest CFL step, then g at the lateral nodes.  (U, t, dt, cfl)."""
    U, I = stack.U.copy(), scheme.interior_flat
    D, n1 = scheme.directions.shape
    W = (scheme.matrix @ U.T).reshape(D, len(I), len(U))
    kappa = W[:scheme.n_kappa]
    op = (kappa.max(axis=0) + kappa.min(axis=0) - 2.0 * U[:, I].T) / scheme.delta ** 2
    axes = [(W[i] - W[i + 1]) / (2.0 * scheme.delta) for i in range(D - 2 * n1, D, 2)]
    sq = axes[0] * axes[0]
    for c in axes[1:]:
        sq += c * c
    norm = np.sqrt(sq)
    cfl = []
    for b, f in enumerate(stack.fields):
        cap = 1.0
        if f.h != 1.0:
            grad = np.ascontiguousarray(norm[:, b])
            op[:, b] *= grad ** (f.h - 1.0)
            cap = max(1.0, float(grad.max()) ** (f.h - 1.0))
        cfl.append(config.cfl_factor * scheme.delta ** 2 / (2.0 * cap))
    dt = min(cfl)
    U[:, I] += dt * op.T
    t = stack.t + dt
    for row, f in zip(U, stack.fields):
        row[scheme.lateral] = f.g(scheme.coords_lateral, t)
    return U, t, dt, cfl


_STEP_GEOMETRIES = {"euclidean1": (euclidean_group(1), (16,), 16),
                    "euclidean2_6": (euclidean_group(2), (6, 6), 6),
                    "heisenberg": (heisenberg_group(), (6, 6, 6), 16),
                    "engel": (engel_group(), (4, 4, 4, 4), 16)}


@pytest.mark.parametrize("name", sorted(_STEP_GEOMETRIES))
@given(seed=st.integers(0, 2 ** 32 - 1), n_fields=st.integers(1, 3))
@settings(max_examples=12, deadline=None)
def test_step_is_the_stack_wide_step_bit_for_bit(name, seed, n_fields):
    # every value of a step (field values, t, dt and each CFL step) must be
    # the stack-wide form's to the last bit, for h in {1, 1.5, 2, 3}, static
    # and time-dependent g, and a direction set that lacks +-e2 (6 samples
    # on R^2), whose gradient rows the operator appends after the kappa rows
    G, cells, samples = _STEP_GEOMETRIES[name]
    rng = np.random.default_rng(seed)
    n = G.total_dim
    prob = make_problem(G, ((-1, 1),) * n, cells, 2.0, "x1", horizon=1.0)
    config = SolverConfig(direction_samples=samples, cfl_factor=rng.uniform(0.3, 1.0))
    scheme = Scheme(prob, config)
    fields = []
    for _ in range(n_fields):
        c = rng.uniform(-1.0, 1.0, 5)
        expr = (f"{c[0]}*x1 + {c[1]}*x{n}*x1 + {c[2]}*x{n}**2 + {c[3]}*x1**3"
                + (f" + {c[4]}*t*x1" if rng.random() < 0.5 else ""))
        f = ScalarField.from_expression(expr, n)
        fields.append(Binding(scheme, f, f, float(rng.choice([1.0, 1.5, 2.0, 3.0]))))
    stack = Stack(fields)
    for _ in range(3):
        U, t, dt, cfl = _reference_step(scheme, stack, config)
        scheme.step(stack, config)
        assert np.array_equal(stack.U.view(np.int64), U.view(np.int64))
        assert (stack.t, stack.dt) == (t, dt)
        assert np.array_equal(np.array(stack.cfl).view(np.int64),
                              np.array(cfl).view(np.int64))


def test_shift_equivariance_any_h():
    # adding a constant to data shifts the whole evolution by that constant
    base = make_problem(heisenberg_group(), ((-1, 1),) * 3, (6, 6, 6), 3.0,
                        "x1*x2 - x3", horizon=0.02)
    lifted = make_problem(heisenberg_group(), ((-1, 1),) * 3, (6, 6, 6), 3.0,
                          "x1*x2 - x3 + 2", horizon=0.02)
    # on stops 1e-4 apart, below the CFL step, both march the same steps
    stops = list(1e-4 * np.arange(1, 201))
    r0 = solve_parabolic(base, SolverConfig(), snapshot_times=stops)
    r1 = solve_parabolic(lifted, SolverConfig(), snapshot_times=stops)
    assert r0.steps == r1.steps == 200
    assert np.abs(r1.final.values - r0.final.values - 2.0).max() <= 1e-12


@pytest.mark.parametrize("h", [1.5, 2.0])
def test_small_slope_flow_reaches_the_elliptic_fixed_point(h):
    # every central gradient lies below delta = 1/16: a speed set to 0
    # wherever |grad| <= delta freezes this flow 2.5e-3 from the fixed point
    prob = make_problem(euclidean_group(1), ((0, 1),), (16,), h,
                        "0.5 + 0.03*(x1 - 0.5) + 0.01*x1*(1 - x1)",
                        "0.5 + 0.03*(x1 - 0.5)")
    config = SolverConfig(steady_tolerance=1e-6)
    result, _ = solve_to_steady(prob, config)
    steady = solve_elliptic_steady(prob, config)
    assert np.abs(result.final.values - steady.values).max() <= 1e-5


def test_max_principle_on_random_data():
    prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (8, 8, 8), 2.0,
                        "x1**2 - 0.5*x2 + 0.3*x1*x3", horizon=0.05)
    result = solve_parabolic(prob, SolverConfig())
    assert result.max_principle_ok
    assert result.final.values.max() <= result.data_max + 1e-12
    assert result.final.values.min() >= result.data_min - 1e-12


def test_a_step_outside_the_data_envelope_clears_max_principle_ok(monkeypatch):
    # a planted defect: the operator scaled 100x past its CFL step overshoots
    # the data envelope; the flag stays cleared after correct steps
    prob = make_problem(euclidean_group(1), ((0, 1),), (16,), 2.0, "x1*(1 - x1)")
    config = SolverConfig()
    scheme = Scheme(prob, config)
    stack = Stack.of(scheme, prob)
    steps = march(stack, config)
    assert next(steps).max_principle_ok
    operator = scheme.discrete_operator
    monkeypatch.setattr(scheme, "discrete_operator", lambda *args: (
        100.0 * operator(*args)[0], operator(*args)[1]))
    assert not next(steps).max_principle_ok
    monkeypatch.undo()
    assert not next(steps).max_principle_ok


def test_snapshot_times_are_hit_exactly():
    prob = make_problem(euclidean_group(1), ((0, 1),), (16,), 2.0, "x1**2",
                        "x1", horizon=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # psi/g mismatch is intentional here
        result = solve_parabolic(prob, SolverConfig(),
                                 snapshot_times=[0.0, 0.03, 0.1])
    assert [s.time_level for s in result.snapshots] == pytest.approx(
        [0.0, 0.03, 0.1], abs=1e-12)
    with pytest.raises(ValueError, match="horizon"):
        solve_parabolic(prob, SolverConfig(), snapshot_times=[0.2])


def test_snapshot_times_may_be_any_sequence():
    # an array of times must give the list's snapshots bit for bit; None or
    # an empty sequence means one snapshot at the horizon
    prob = make_problem(euclidean_group(1), ((0, 1),), (16,), 2.0, "x1**2",
                        horizon=0.1)
    listed = solve_parabolic(prob, snapshot_times=[0.01, 0.005])
    arrayed = solve_parabolic(prob, snapshot_times=np.array([0.01, 0.005]))
    assert [s.time_level for s in listed.snapshots] == pytest.approx([0.005, 0.01],
                                                                     abs=1e-12)
    for a, b in zip(listed.snapshots, arrayed.snapshots, strict=True):
        assert a.time_level == b.time_level
        assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))
    for empty in (None, [], np.array([])):
        result = solve_parabolic(prob, snapshot_times=empty)
        assert [s.time_level for s in result.snapshots] == [0.1]


def test_march_stops_at_the_last_snapshot_time():
    # a last snapshot before the horizon ends the march there: the same
    # steps and values as a march whose horizon is that time
    prob = make_problem(euclidean_group(1), ((0, 1),), (16,), 2.0, "x1**2",
                        horizon=0.4)
    result = solve_parabolic(prob, SolverConfig(), snapshot_times=[0.1])
    assert len(result.snapshots) == 1
    assert result.final.time_level == 0.1
    short = solve_parabolic(replace(prob, grid=replace(prob.grid, horizon=0.1)),
                            SolverConfig())
    assert result.steps == short.steps
    assert np.array_equal(result.final.values, short.final.values)


def test_snapshot_times_below_zero_or_repeated_are_rejected():
    # neither may turn into a relabelled t = 0 snapshot or a zero-length step
    prob = make_problem(euclidean_group(1), ((0, 1),), (16,), 2.0, "x1**2",
                        horizon=0.1)
    for times, match in (([-0.5, 0.01, 0.02], "t = 0"),
                         ([0.01, 0.01, 0.02], "repeated"),
                         ([0.0, 0.0], "repeated")):
        with pytest.raises(ValueError, match=match):
            solve_parabolic(prob, SolverConfig(), snapshot_times=times)


# -- steady states ---------------------------------------------------


def test_elliptic_steady_is_affine_in_1d():
    prob = make_problem(euclidean_group(1), ((0, 1),), (64,), 3.0, "x1")
    steady = solve_elliptic_steady(prob, SolverConfig())
    assert np.abs(steady.values - prob.grid.coords()[:, 0]).max() <= 1e-7


def _spy_on_bracket(monkeypatch):
    """Record every call of the bracket fallback of solve_elliptic_steady."""
    calls = []

    def spy(*args):
        calls.append(args)
        return bracket(*args)

    bracket = solver._bracket
    monkeypatch.setattr(solver, "_bracket", spy)
    return calls


def _swept_bracket(prob, config):
    """Sweeps of u <- (max + min of flow neighbors) / 2 from the constant
    data minimum and maximum, boundary held at g: every pair of sweeps
    brackets the elliptic fixed point, by monotonicity."""
    scheme = Scheme(prob, config)
    field = Binding(scheme, prob.g, prob.g, prob.h)
    interior = scheme.interior_flat
    lo, hi = field.initial(), field.initial()
    lo[interior], hi[interior] = field.data_min, field.data_max
    for _ in range(20_000):
        if (hi - lo).max() < 1e-10:
            break
        for u in (lo, hi):
            W = scheme.apply(u)[:scheme.n_kappa]
            u[interior] = 0.5 * (W.max(axis=0) + W.min(axis=0))
    return lo, hi


def test_elliptic_steady_constant_datum(monkeypatch):
    # every flow neighbor ties, so the policy certificate fails and the
    # bracket from the constant data extremes is exact before any sweep
    calls = _spy_on_bracket(monkeypatch)
    prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (6, 6, 6), 2.0, "3")
    steady = solve_elliptic_steady(prob, SolverConfig())
    assert np.abs(steady.values - 3.0).max() <= 1e-14
    assert len(calls) == 1


def test_the_elliptic_solve_reads_its_datum_once(monkeypatch):
    # g on every node; the bracket fallback starts from the values the solve
    # holds and evaluates nothing
    calls = []
    evaluate = ScalarField.__call__

    def spy(field, coords, t=0.0):
        calls.append(len(coords))
        return evaluate(field, coords, t)

    prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (6, 6, 6), 2.0, "3")
    bracket = _spy_on_bracket(monkeypatch)
    monkeypatch.setattr(ScalarField, "__call__", spy)
    solve_elliptic_steady(prob, SolverConfig())
    assert len(bracket) == 1
    assert calls == [prob.grid.node_count]


def test_the_elliptic_fallback_sweeps_to_the_fixed_point(monkeypatch):
    # a datum in x3 alone ties the argmax on 6 directions, so the certificate
    # fails, with dense (6^3 cells) and Krylov (8^3 cells) policy solves
    # alike, and the bracket sweeps from the lateral envelope [0.3, 1.5] to g,
    # affine in x3 and so the fixed point
    config = SolverConfig(direction_samples=6)
    for cells in (6, 8):
        brackets, sweeps = [], []
        bracket, sweep = solver._bracket, solver._sweep

        def spy_bracket(scheme, u, config):
            brackets.append(u[scheme.lateral].copy())
            sweeps.clear()
            return bracket(scheme, u, config)

        def spy_sweep(*args):
            sweeps.append(1)
            return sweep(*args)

        monkeypatch.setattr(solver, "_bracket", spy_bracket)
        monkeypatch.setattr(solver, "_sweep", spy_sweep)
        prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (cells,) * 3, 2.0,
                            "abs(0.9 - 0.6*x3)")
        steady = solve_elliptic_steady(prob, config)
        monkeypatch.undo()
        (lateral,) = brackets
        assert (lateral.min(), lateral.max()) == pytest.approx((0.3, 1.5), abs=1e-12)
        assert len(sweeps) >= 1
        lo, hi = _swept_bracket(prob, config)
        assert (lo - config.steady_tolerance <= steady.values).all()
        assert (steady.values <= hi + config.steady_tolerance).all()
        g = prob.g(prob.grid.coords(), 0.0)
        assert np.abs(steady.values - g).max() <= config.steady_tolerance


_POLICY_CASES = {"line129": (euclidean_group(1), ((0, 1),), (128,), "x1 + 0.8*x1*(1 - x1)"),
                 "heisenberg6": (heisenberg_group(), ((-1, 1),) * 3, (6, 6, 6),
                                 "x1*x2 - x3**2 + 0.3*x1"),
                 "engel4": (engel_group(), ((-1, 1),) * 4, (4, 4, 4, 4),
                            "x1*x2 - x3**2 + 0.3*x1 + 0.1*x4")}


@pytest.mark.parametrize("name", sorted(_POLICY_CASES))
def test_a_policy_system_solved_both_ways_agrees(monkeypatch, name):
    # the first policy of the elliptic solve from g, its correction solved
    # densely and by BiCGSTAB; the Krylov side runs on exactly the matrix of
    # scipy's row and column indexing, the dense side solves it exactly
    group, box, cells, expr = _POLICY_CASES[name]
    prob = make_problem(group, box, cells, 2.0, expr)
    scheme = Scheme(prob, SolverConfig())
    u = prob.g(scheme.coords, 0.0)
    I, K = scheme.interior_flat, len(scheme.interior_flat)
    W = scheme.apply(u)[:scheme.n_kappa]
    a, b = W.argmax(axis=0), W.argmin(axis=0)
    res = 0.5 * (W.max(axis=0) + W.min(axis=0)) - u[I]
    k, M = np.arange(K), scheme.matrix
    A = (0.5 * (M[a * K + k] + M[b * K + k]))[:, I]
    solved = {}
    for limit in (0, K):
        monkeypatch.setattr(solver, "DENSE_UNKNOWNS", limit)
        solved[limit] = solver._policy_system(scheme, a, b)(res, 1e-12)
    krylov, dense = solved[0], solved[K]
    assert np.array_equal(krylov, solver._bicgstab(lambda x: x - A @ x, res, 1e-12))
    scale = np.abs(dense).max()
    assert np.abs(dense - A @ dense - res).max() <= 1e-13 * scale
    assert np.abs(krylov - dense).max() <= 1e-10 * scale


def test_the_policy_solve_is_dense_on_small_interiors(monkeypatch):
    # the 129-node line's 127 unknowns take the dense solve, Heisenberg 8^3
    # cells' 343 the BiCGSTAB one
    calls = []
    dense, krylov = np.linalg.solve, solver._bicgstab
    monkeypatch.setattr(np.linalg, "solve",
                        lambda *args: calls.append("dense") or dense(*args))
    monkeypatch.setattr(solver, "_bicgstab",
                        lambda *args: calls.append("krylov") or krylov(*args))
    line = make_problem(euclidean_group(1), ((0, 1),), (128,), 2.0, "x1 + 0.8*x1*(1 - x1)")
    heis = make_problem(heisenberg_group(), ((-1, 1),) * 3, (8, 8, 8), 2.0,
                        "x1*x2 - x3**2 + 0.3*x1")
    for prob, path in ((line, "dense"), (heis, "krylov")):
        calls.clear()
        solve_elliptic_steady(prob, SolverConfig())
        assert calls and set(calls) == {path}


def test_a_singular_dense_policy_solve_falls_back_to_the_bracket(monkeypatch):
    # a LinAlgError from the dense solve takes the non-finite correction's
    # route: the bracket, not an exception
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    calls = _spy_on_bracket(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", singular)
    prob = make_problem(euclidean_group(1), ((0, 1),), (32,), 2.0, "x1 + 0.8*x1*(1 - x1)")
    config = SolverConfig()
    steady = solve_elliptic_steady(prob, config)
    assert len(calls) == 1
    assert np.abs(steady.values - prob.grid.coords()[:, 0]).max() <= config.steady_tolerance


def test_elliptic_steady_is_certified_on_heisenberg(monkeypatch):
    # non-affine g: the initial guess g is far from the fixed point, which
    # the certified solve must land on, inside an independently swept bracket
    calls = _spy_on_bracket(monkeypatch)
    prob = make_problem(heisenberg_group(), ((-1, 1),) * 3, (8, 8, 8), 2.0,
                        "x1*x2 - x3**2 + 0.3*x1")
    config = SolverConfig(steady_tolerance=1e-8)
    steady = solve_elliptic_steady(prob, config)
    lo, hi = _swept_bracket(prob, config)
    assert not calls
    assert (hi - lo).max() < 1e-9
    assert np.abs(steady.values - prob.g(prob.grid.coords(), 0.0)).max() > 0.1
    assert (lo - config.steady_tolerance <= steady.values).all()
    assert (steady.values <= hi + config.steady_tolerance).all()


_STEADY_CASES = {"euclidean1": (euclidean_group(1), (24,)),
                 "euclidean2": (euclidean_group(2), (8, 8)),
                 "heisenberg": (heisenberg_group(), (6, 6, 6)),
                 "engel": (engel_group(), (4, 4, 4, 4))}


@pytest.mark.parametrize("name", sorted(_STEADY_CASES))
@given(seed=st.integers(0, 2 ** 32 - 1), wide=st.booleans(),
       samples=st.sampled_from([6, 8, 16]))
@settings(max_examples=10, deadline=None)
def test_elliptic_steady_lies_in_the_swept_bracket(name, seed, wide, samples):
    G, cells = _STEADY_CASES[name]
    rng = np.random.default_rng(seed)
    n = G.total_dim
    c = rng.uniform(-1.0, 1.0, 4)
    expr = f"{c[0]}*x1 + {c[1]}*x{n}*x1 + {c[2]}*x{n}**2 + {c[3]}*x1**3"
    prob = make_problem(G, ((-1, 1),) * n, cells, 2.0, expr)
    config = SolverConfig(
        direction_samples=samples, steady_tolerance=1e-8,
        stencil_radius=rng.uniform(1.0, 2.0) * prob.grid.delta if wide else None)
    steady = solve_elliptic_steady(prob, config)
    lo, hi = _swept_bracket(prob, config)
    assert (hi - lo).max() < 1e-9
    assert (lo - config.steady_tolerance <= steady.values).all()
    assert (steady.values <= hi + config.steady_tolerance).all()


def test_elliptic_solve_imports_no_dense_or_iterative_scipy_solvers():
    # scipy.linalg and scipy.sparse.linalg cost the process about 10 MB of
    # resident memory; the steady solve carries its own Krylov iteration
    script = (
        "import sys\n"
        "import carnotpde\n"
        "from carnotpde import (CauchyDirichletProblem, GridSpec, ScalarField,\n"
        "                       euclidean_group, solve_elliptic_steady)\n"
        "g = ScalarField.from_expression('x1 + 0.5*x1*(1 - x1)', 1)\n"
        "grid = GridSpec(box=((0, 1),), cells=(32,))\n"
        "solve_elliptic_steady(CauchyDirichletProblem(euclidean_group(1), grid,\n"
        "                                             2.0, g, g))\n"
        "print(sorted({'scipy.linalg', 'scipy.sparse.linalg'} & set(sys.modules)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_parabolic_flow_approaches_elliptic_steady():
    prob = make_problem(euclidean_group(1), ((0, 1),), (32,), 3.0, "x1**2",
                        "x1", horizon=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result, t_large = solve_to_steady(
            prob, SolverConfig(cfl_factor=1.0, steady_tolerance=1e-5))
    steady = solve_elliptic_steady(prob, SolverConfig())
    assert t_large > 0.1
    assert np.abs(result.final.values - steady.values).max() <= 1e-3


def test_solve_to_steady_envelope_covers_the_datum_it_reads():
    # g vanishes at every node but not between them on the boundary faces,
    # where a radius above the spacing clamps off-box flow targets: those
    # read the boundary nodes, so the march reads zeros only
    g = "100*x1*(x1 - 0.25)*(x1 - 0.5)*(x1 - 0.75)*(x1 - 1)"
    prob = make_problem(euclidean_group(2), ((0, 1), (0, 1)), (4, 4), 1.0, g)
    config = SolverConfig(stencil_radius=0.4, steady_tolerance=1e-6)
    result, _ = solve_to_steady(prob, config)
    assert np.abs(prob.g(prob.grid.coords(), 0.0)).max() <= 1e-12
    assert (result.final.values == 0.0).all()
    assert result.max_principle_ok
    assert result.data_min - 1e-12 <= result.final.values.min()
    assert result.final.values.max() <= result.data_max + 1e-12


_STACK_GROUPS = {"euclidean1": (euclidean_group(1), (16,)),
                 "heisenberg": (heisenberg_group(), (6, 6, 6)),
                 "engel": (engel_group(), (4, 4, 4, 4))}


@pytest.mark.parametrize("name", sorted(_STACK_GROUPS))
@given(seed=st.integers(0, 2 ** 32 - 1), n_fields=st.integers(2, 3),
       wide=st.booleans())
@settings(max_examples=15, deadline=None)
def test_stack_march_matches_each_field_marched_alone(name, seed, n_fields, wide):
    # one apply for the whole stack must give every field exactly the values
    # it gets alone under the same dt sequence: per-field h, static and
    # time-dependent g, and off-box rows when the radius is wide
    G, cells = _STACK_GROUPS[name]
    rng = np.random.default_rng(seed)
    n = G.total_dim
    prob = make_problem(G, ((-1, 1),) * n, cells, 2.0, "x1", horizon=1.0)
    config = SolverConfig(direction_samples=8, cfl_factor=rng.uniform(0.3, 1.0),
                          stencil_radius=1.5 * prob.grid.delta if wide else None)
    scheme = Scheme(prob, config)
    spec = []
    for _ in range(n_fields):
        c = rng.uniform(-1.0, 1.0, 4)
        expr = (f"{c[0]}*x1 + {c[1]}*x{n}*x1 + {c[2]}*x{n}**2"
                + (f" + {c[3]}*t" if rng.random() < 0.5 else ""))
        spec.append((ScalarField.from_expression(expr, n),
                     float(rng.choice([1.0, 1.5, 2.0, 3.0]))))
    stack = Stack([Binding(scheme, f, f, h) for f, h in spec])
    alone = [Stack([Binding(scheme, f, f, h)]) for f, h in spec]
    operator = scheme.discrete_operator
    for _ in zip(range(6), march(stack, config)):
        for b, single in enumerate(alone):
            # each field alone steps the stack's dt, which its own CFL step
            # cannot be below
            cfl = operator(single.U[0], single.fields[0].h, config.cfl_factor)[1]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(scheme, "discrete_operator", lambda *args: (
                    operator(*args)[0], stack.dt))
                scheme.step(single, config)
            assert single.t == stack.t
            assert np.array_equal(single.U[0], stack.U[b])
            assert cfl == stack.cfl[b]
