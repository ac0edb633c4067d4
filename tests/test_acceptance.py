"""Acceptance gate: twelve verdict tests, one printed PASS/FAIL line each.

Heavy marches are shared through session fixtures: the ordered-pair runs
feed both the comparison and the stability/sup-bound criteria, and the
long-time marches feed both the decay-rate and the steady-limit criteria.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import time

import numpy as np
import pytest

from carnotpde.calculus import field_jet
from carnotpde.experiments import (
    commuting_diagram_experiment,
    h_limit_experiment,
    homogeneity_experiment,
    jet_twist_oracle_check,
    long_time_experiment,
    run_experiment,
)
from carnotpde.fields import ScalarField
from carnotpde.grid import GridSpec
from carnotpde.groups import (
    euclidean_group,
    engel_group,
    heisenberg_group,
    inverse,
    multiply,
)
from carnotpde.operators import infinity_laplacian
from carnotpde.solver import (
    Binding,
    CauchyDirichletProblem,
    Scheme,
    SolverConfig,
    Stack,
    march,
    solve_elliptic_steady,
    solve_to_steady,
)

PRESETS = (euclidean_group(2), heisenberg_group(), engel_group())


def verdict(number, label, ok, detail=""):
    line = f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- shared heavy runs -----------------------------------------------


def _random_smooth_field(rng):
    c = rng.uniform(-0.5, 0.5, size=6)
    expr = (f"{c[0]}*x1 + {c[1]}*x2 + {c[2]}*x3 + {c[3]}*x1*x2 "
            f"+ {c[4]}*x2*x3 + {c[5]}*x1*x1")
    return ScalarField.from_expression(expr, 3)


@pytest.fixture(scope="session")
def ordered_pair_runs():
    """10 ordered data pairs on heisenberg1 33^3 for h in {1, 2, 3}.

    Each pair is marched as one stack (a shared time step) on one stencil
    geometry for all pairs, while tracking the signed ordering gap, the
    absolute solution gap against the boundary-data gap, and the solution
    sup against the sup of every data value the march read.
    """
    rng = np.random.default_rng(20260826)
    grid = GridSpec(box=((-1, 1),) * 3, cells=(32, 32, 32), horizon=0.04)
    G = heisenberg_group()
    config = SolverConfig(cfl_factor=1.0)
    scheme = None
    runs = {1.0: [], 2.0: [], 3.0: []}
    t0 = time.perf_counter()
    for h in runs:
        for _ in range(10):
            u0 = _random_smooth_field(rng)
            offset = float(rng.uniform(0.2, 1.0))
            v0 = u0 + offset
            if scheme is None:
                scheme = Scheme(CauchyDirichletProblem(G, grid, h, u0, u0), config)
            u = np.asarray(u0(scheme.coords, 0.0), dtype=float)
            stack = Stack([Binding(scheme, u0, u0, h),
                           Binding(scheme, v0, v0, h)], [u, u + offset])
            U = stack.U
            worst_order = float((U[0] - U[1]).max())
            sol_gap = float(np.abs(U[0] - U[1]).max())
            sup_sol = float(np.abs(U).max())
            for _ in march(stack, config, [grid.horizon]):
                worst_order = max(worst_order, float((U[0] - U[1]).max()))
                sol_gap = max(sol_gap, float(np.abs(U[0] - U[1]).max()))
                sup_sol = max(sup_sol, float(np.abs(U).max()))
            sup_data = max(max(-f.data_min, f.data_max) for f in stack.fields)
            runs[h].append({"worst_order": worst_order, "sol_gap": sol_gap,
                            "data_gap": offset, "sup_sol": sup_sol,
                            "sup_data": sup_data})
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="session")
def heisenberg_long_time():
    """Long-horizon marches on heisenberg1 33^3 for h in {2, 3}."""
    grid = GridSpec(box=((-1, 1),) * 3, cells=(32, 32, 32), horizon=1.0)
    g = ScalarField.from_expression("x1 + 0.5*x2 - 0.2*x1*x2", 3)
    config = SolverConfig(cfl_factor=1.0, steady_tolerance=1e-3)
    reports = {}
    t0 = time.perf_counter()
    for h in (2.0, 3.0):
        problem = CauchyDirichletProblem(heisenberg_group(), grid, h, g, g)
        reports[h] = long_time_experiment(problem, config)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="session")
def line_long_time():
    """Long-horizon march on a 257-node interval with affine boundary data."""
    grid = GridSpec(box=((0, 1),), cells=(256,), horizon=1.0)
    psi = ScalarField.from_expression("x1 + 0.8*x1*(1 - x1)", 1)
    g = ScalarField.from_expression("x1", 1)
    config = SolverConfig(cfl_factor=1.0, steady_tolerance=1e-4)
    problem = CauchyDirichletProblem(euclidean_group(1), grid, 2.0, psi, g)
    t0 = time.perf_counter()
    report = long_time_experiment(problem, config)
    steady = solve_elliptic_steady(problem, config)
    identity_gap = float(np.abs(steady.values - grid.coords()[:, 0]).max())
    return report, identity_gap, grid.delta, time.perf_counter() - t0


@pytest.fixture(scope="session")
def interval_problem():
    grid = GridSpec(box=((0, 1),), cells=(64,), horizon=0.3)
    psi = ScalarField.from_expression("x1 + 0.8*x1*(1 - x1)", 1)
    g = ScalarField.from_expression("x1", 1)
    return CauchyDirichletProblem(euclidean_group(1), grid, 2.0, psi, g)


# -- criteria --------------------------------------------------------


def test_criterion_01_algebra_exactness():
    rng = np.random.default_rng(0)
    worst = 0.0
    t0 = time.perf_counter()
    for G in PRESETS:
        trip = rng.uniform(-2.0, 2.0, size=(100, 3, G.total_dim))
        p, q, r = trip[:, 0], trip[:, 1], trip[:, 2]
        assoc = multiply(G, multiply(G, p, q), r) - multiply(G, p, multiply(G, q, r))
        worst = max(worst, float(np.abs(assoc).max()))
        worst = max(worst, float(np.abs(multiply(G, p, inverse(G, p))).max()))
        worst = max(worst, float(np.abs(multiply(G, p, G.origin()) - p).max()))
    elapsed = time.perf_counter() - t0
    verdict(1, "group arithmetic exact to 1e-12 on all presets",
            worst <= 1e-12 and elapsed < 1.0,
            f"max error {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_jet_twist_oracle():
    t0 = time.perf_counter()
    reports = [jet_twist_oracle_check(G) for G in PRESETS]
    elapsed = time.perf_counter() - t0
    worst = max(dict(r.measured)["max_jet_mismatch"] for r in reports)
    verdict(2, "twisted jets match direct horizontal jets to 1e-8",
            all(r.passed for r in reports) and elapsed < 5.0,
            f"max mismatch {worst:.2e}, {elapsed:.2f}s")


@pytest.mark.slow
def test_criterion_03_discrete_comparison(ordered_pair_runs):
    runs, elapsed = ordered_pair_runs
    worst = max(r["worst_order"] for rs in runs.values() for r in rs)
    verdict(3, "ordered pairs stay ordered at every step (h = 1, 2, 3)",
            worst <= 1e-12 and elapsed < 180.0,
            f"max(u - v) = {worst:.2e}, {elapsed:.1f}s for 30 pair runs")


@pytest.mark.slow   # shares criterion 3's 30 pair runs, its fixture
def test_criterion_04_boundary_stability_and_sup_bound(ordered_pair_runs):
    runs, _ = ordered_pair_runs
    stable = all(r["sol_gap"] <= r["data_gap"] + 1e-10
                 for rs in runs.values() for r in rs)
    bounded = all(r["sup_sol"] <= r["sup_data"] + 1e-12
                  for rs in runs.values() for r in rs)
    slack = max(r["sol_gap"] - r["data_gap"] for rs in runs.values() for r in rs)
    verdict(4, "solution gap bounded by data gap; sup bounded by data sup",
            stable and bounded, f"worst gap excess {slack:.2e}")


def test_criterion_05_scheme_homogeneity():
    grid = GridSpec(box=((-1, 1),) * 3, cells=(16, 16, 16), horizon=0.02)
    g = ScalarField.from_expression("x1 + 0.5*x2 - 0.2*x1*x2", 3)
    config = SolverConfig(cfl_factor=1.0)
    t0 = time.perf_counter()
    worst = 0.0
    for h in (2.0, 3.0):
        problem = CauchyDirichletProblem(heisenberg_group(), grid, h, g, g)
        for k in (2.0, 4.0):
            report = homogeneity_experiment(problem, config, k)
            worst = max(worst, dict(report.measured)["max_scaling_mismatch"])
    elapsed = time.perf_counter() - t0
    verdict(5, "data scaling by k^(1/(h-1)) commutes with the scheme",
            worst <= 1e-10 and elapsed < 120.0,
            f"max mismatch {worst:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_06_decay_bound(heisenberg_long_time):
    reports, elapsed = heisenberg_long_time
    ratios, n_pairs = [], []
    for report in reports.values():
        measured = dict(report.measured)
        ratios.append(measured["worst_increment_over_bound"])
        n_pairs.append(sum(1 for k in measured if k.startswith("increment")))
    verdict(6, "time increments within 1.5x the decay bound (h = 2, 3)",
            max(ratios) <= 1.0 and min(n_pairs) == 8 and elapsed < 180.0,
            f"worst increment/bound {max(ratios):.3f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_07_long_time_limit(heisenberg_long_time, line_long_time):
    heis_reports, _ = heisenberg_long_time
    line_report, identity_gap, delta, elapsed = line_long_time
    gaps = {f"h={h}": dict(r.measured)["steady_gap"]
            for h, r in heis_reports.items()}
    ok = (all(r.passed for r in heis_reports.values())
          and line_report.passed and identity_gap <= 2.0 * delta
          and elapsed < 300.0)
    verdict(7, "flow converges to the steady state; interval limit is x",
            ok, f"steady gaps {gaps}, |U - x| = {identity_gap:.2e}")


def test_criterion_08_elliptic_h_independence(interval_problem):
    from dataclasses import replace
    config = SolverConfig(cfl_factor=1.0, steady_tolerance=1e-4)
    t0 = time.perf_counter()
    finals = [solve_to_steady(replace(interval_problem, h=h), config)[0].final.values
              for h in (1.5, 3.0, 5.0)]
    elapsed = time.perf_counter() - t0
    gap = max(float(np.abs(a - b).max())
              for i, a in enumerate(finals) for b in finals[i + 1:])
    bound = 5.0 * interval_problem.grid.delta
    verdict(8, "steady limits for h = 1.5, 3, 5 pairwise agree",
            gap <= bound and elapsed < 300.0,
            f"max pairwise gap {gap:.2e} vs {bound:.2e}, {elapsed:.1f}s")


def test_criterion_09_h_to_one_limit(interval_problem):
    config = SolverConfig(cfl_factor=1.0)
    t0 = time.perf_counter()
    report = h_limit_experiment(interval_problem, config)
    elapsed = time.perf_counter() - t0
    verdict(9, "gaps to the h = 1 solution shrink along h -> 1",
            report.passed and elapsed < 300.0,
            f"gaps {[f'{v:.2e}' for _, v in report.measured]}, {elapsed:.1f}s")


def test_criterion_10_commuting_diagram(interval_problem):
    config = SolverConfig(cfl_factor=1.0, steady_tolerance=1e-4)
    t0 = time.perf_counter()
    report = commuting_diagram_experiment(interval_problem, config)
    elapsed = time.perf_counter() - t0
    gap = dict(report.measured)["limit_gap"]
    verdict(10, "h -> 1 long-time limit equals the elliptic fixed point",
            report.passed and elapsed < 300.0,
            f"gap {gap:.2e} vs {report.bound:.2e}, {elapsed:.1f}s")


def test_criterion_11_doubling_penalty(interval_problem):
    t0 = time.perf_counter()
    report = run_experiment("doubling_penalty", interval_problem,
                            SolverConfig(), np.random.default_rng(0))
    elapsed = time.perf_counter() - t0
    final = [v for k, v in report.measured if k.startswith("tau_phi")][-1]
    verdict(11, "penalty tau*phi decreases with a near-zero limit",
            report.passed and elapsed < 60.0,
            f"final tau*phi {final:.2e}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_12_consistency_order():
    G = heisenberg_group()
    f = ScalarField.from_expression(
        "x1**2 + x1*x2 - x3 + 0.5*x2**2 + 0.3*x1*x3", 3)
    probe = np.array([[0.31, -0.22, 0.13],
                      [-0.41, 0.27, -0.05],
                      [0.11, 0.37, 0.21]])
    t0 = time.perf_counter()
    deltas, errors = [], {2.0: [], 3.0: []}
    for k in range(4):
        delta = 0.2 * 2.0 ** -k
        cells = int(round(16 * 2.0 ** (1.5 * k)))
        grid = GridSpec(box=((-1, 1),) * 3, cells=(cells,) * 3, horizon=1.0)
        idx = np.rint((probe + 1.0) / grid.spacings).astype(int)
        flats = np.ravel_multi_index(idx.T, grid.shape)
        config = SolverConfig(cfl_factor=1.0, stencil_radius=delta,
                              direction_samples=32 * 2 ** k)
        # the geometry, the values and the jets do not depend on h
        problem = CauchyDirichletProblem(G, grid, 2.0, f, f)
        scheme = Scheme(problem, config, node_subset=flats)
        values = np.asarray(f(scheme.coords, 0.0), dtype=float)
        jets = [field_jet(G, f, p) for p in scheme.coords[scheme.interior_flat]]
        deltas.append(delta)
        for h, errs in errors.items():
            op, _ = scheme.discrete_operator(values, h)
            exact = np.array([
                infinity_laplacian(h, jet.horizontal_gradient, jet.X)
                for jet in jets])
            errs.append(float(np.abs(op - exact).max()))
    orders = {h: float(np.polyfit(np.log(deltas), np.log(errs), 1)[0])
              for h, errs in errors.items()}
    elapsed = time.perf_counter() - t0
    verdict(12, "discrete operator converges with order >= 0.9",
            min(orders.values()) >= 0.9 and elapsed < 120.0,
            f"orders {orders}, {elapsed:.1f}s")
