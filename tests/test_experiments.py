"""Experiment harness: registry coverage, report plumbing, preconditions."""

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_groups import graded_tables

from carnotpde import calculus, experiments, groups
from carnotpde.calculus import PenaltySpec
from carnotpde.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    PreconditionError,
    append_to_ledger,
    boundary_stability_experiment,
    comparison_experiment,
    doubling_penalty_experiment,
    homogeneity_experiment,
    jet_twist_oracle_check,
    long_time_experiment,
    run_experiment,
    sup_bound_experiment,
)
from carnotpde.fields import ScalarField
from carnotpde.grid import GridFunction, GridSpec
from carnotpde.groups import engel_group, euclidean_group, heisenberg_group
from carnotpde.solver import CauchyDirichletProblem, Scheme, SolverConfig, Stack, march


@pytest.fixture
def heis_problem():
    grid = GridSpec(box=((-1, 1),) * 3, cells=(7, 7, 7), horizon=0.04)
    psi = ScalarField.from_expression("x1 + 0.5*x2 - 0.2*x1*x2", 3)
    return CauchyDirichletProblem(heisenberg_group(), grid, 2.0, psi, psi)


@pytest.fixture
def line_problem():
    grid = GridSpec(box=((0, 1),), cells=(32,), horizon=0.5)
    g = ScalarField.from_expression("x1", 1)
    return CauchyDirichletProblem(euclidean_group(1), grid, 2.0, g, g)


def test_registry_is_complete():
    assert len(EXPERIMENTS) >= 9
    for required in ("comparison", "boundary_stability", "sup_bound",
                     "homogeneity", "long_time", "h_limit",
                     "commuting_diagram", "doubling_penalty",
                     "jet_twist_oracle"):
        assert required in EXPERIMENTS
    with pytest.raises(KeyError, match="unknown experiment"):
        run_experiment("nonsense", None)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_every_registered_experiment_passes_on_a_default_problem(
        name, heis_problem, line_problem):
    problem = line_problem if name in ("long_time", "commuting_diagram") \
        else heis_problem
    config = SolverConfig(cfl_factor=1.0, steady_tolerance=1e-4)
    report = run_experiment(name, problem, config, np.random.default_rng(5))
    assert report.passed, (name, report.measured, report.detail)
    assert report.runtime_seconds > 0
    assert report.inputs


def test_report_serialization_roundtrip(tmp_path):
    report = ExperimentReport(
        name="demo", inputs={"h": 2.0}, measured=[("gap", 0.5)],
        bound=1.0, passed=True, runtime_seconds=0.1)
    record = json.loads(report.to_json())
    assert record["name"] == "demo"
    assert record["measured"] == [["gap", 0.5]]
    ledger = tmp_path / "results.jsonl"
    append_to_ledger(report, ledger)
    append_to_ledger(report, ledger)
    lines = ledger.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0]) == json.loads(lines[1])


def test_comparison_rejects_unordered_data(heis_problem):
    with pytest.raises(PreconditionError, match="ordered"):
        comparison_experiment(heis_problem, SolverConfig(),
                              heis_problem.psi + 1.0, heis_problem.psi)


@pytest.mark.parametrize("offset", ["1", "1 + t"])
def test_comparison_precondition_reads_each_time_level_once(
        monkeypatch, heis_problem, offset):
    # u0 and v0 once per time level, by the march's own stack: before the
    # first step only t = 0 is read, each field at every node as psi, which
    # is its g too, whether or not a field names t
    calls = []
    evaluate = ScalarField.__call__

    def spy(field, coords, t=0.0):
        calls.append(t)
        return evaluate(field, coords, t)

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    monkeypatch.setattr(ScalarField, "__call__", spy)
    monkeypatch.setattr(experiments, "march", stop)
    u0 = heis_problem.psi
    v0 = u0 + ScalarField.from_expression(offset, 3)
    with pytest.raises(Stop):
        comparison_experiment(heis_problem, SolverConfig(), u0, v0)
    assert len(calls) == 2
    # a pair that leaves its order on the boundary after t = 0 is still caught
    monkeypatch.undo()
    late = u0 + ScalarField.from_expression("40*t - 1", 3)
    with pytest.raises(PreconditionError, match="boundary data are not ordered"):
        comparison_experiment(heis_problem, SolverConfig(), late, u0)


def test_comparison_rejects_a_pair_crossing_between_sampled_times():
    # the lateral data cross only for |t - 0.018| < 7.1e-4, a window that
    # holds march levels but no fixed sample time: a crossing there is the
    # data's, not the scheme's
    grid = GridSpec(box=((0, 1),), cells=(32,), horizon=0.1)
    u0 = ScalarField.from_expression("x1*x1", 1)
    v0 = u0 + ScalarField.from_expression(
        "1 - 2000000*max(0, 0.000001 - (t - 0.018)**2)", 1)
    problem = CauchyDirichletProblem(euclidean_group(1), grid, 1.0, u0, u0)
    with pytest.raises(PreconditionError, match="boundary data are not ordered"):
        comparison_experiment(problem, SolverConfig(), u0, v0)


def test_comparison_constant_offset_gap_is_exact(line_problem):
    report = comparison_experiment(line_problem, SolverConfig(),
                                   line_problem.psi, line_problem.psi + 1.0)
    assert report.passed
    (label, worst), = report.measured
    assert worst == pytest.approx(-1.0, abs=1e-12)


_NOT_MONOTONE = pytest.mark.xfail(
    strict=True, reason="the h != 1 update is not monotone "
                        "(ROADMAP item 1, a monotone update for every h)")


@pytest.mark.parametrize("h", [1.0, pytest.param(2.0, marks=_NOT_MONOTONE),
                               pytest.param(3.0, marks=_NOT_MONOTONE)])
def test_comparison_of_a_pair_touching_along_a_kink(h):
    # unlike a constant offset, the kink gives the two fields different speeds
    grid = GridSpec(box=((0, 1),), cells=(64,), horizon=0.01)
    u0 = ScalarField.from_expression("20*(x1 - 0.52)**2", 1)
    v0 = u0 + ScalarField.from_expression("0.05*max(0, x1 - 0.5)", 1)
    problem = CauchyDirichletProblem(euclidean_group(1), grid, h, u0, u0)
    report = comparison_experiment(problem, SolverConfig(cfl_factor=1.0), u0, v0)
    assert dict(report.measured)["max_u_minus_v"] == 0.0
    assert report.passed


@pytest.mark.parametrize("h", [1.0, 2.0])
def test_comparison_of_a_pair_equal_on_the_boundary_nodes_only(h):
    # v0 = u0 - 1000 p^2 touches u0 at every node but dips below it between
    # the boundary nodes, where a radius above the spacing clamps off-box
    # flow targets: those read the boundary nodes, where the pair is equal
    grid = GridSpec(box=((0, 1), (0, 1)), cells=(4, 4), horizon=0.05)
    u0 = ScalarField.from_expression("x1 + x2", 2)
    v0 = u0 + ScalarField.from_expression(
        "-1000*(x1*(x1 - 0.25)*(x1 - 0.5)*(x1 - 0.75)*(x1 - 1))**2", 2)
    problem = CauchyDirichletProblem(euclidean_group(2), grid, h, u0, u0)
    report = comparison_experiment(problem, SolverConfig(stencil_radius=0.4), u0, v0)
    assert dict(report.measured)["max_u_minus_v"] == 0.0
    assert report.passed


def test_boundary_stability_equal_data_gives_zero_gap(line_problem):
    report = boundary_stability_experiment(line_problem, SolverConfig(),
                                           line_problem.g, line_problem.g)
    assert report.passed
    assert dict(report.measured)["sup_solution_gap"] == 0.0


def test_boundary_stability_data_gap_covers_the_datum_it_reads():
    # g1 - g2 vanishes at every node but not between them on the boundary
    # faces, where a radius above the spacing clamps off-box flow targets:
    # those read the boundary nodes, so the two marches read equal data
    grid = GridSpec(box=((0, 1), (0, 1)), cells=(4, 4), horizon=0.2)
    g1 = ScalarField.from_expression("x1 + x2", 2)
    g2 = g1 + ScalarField.from_expression(
        "100*x1*(x1 - 0.25)*(x1 - 0.5)*(x1 - 0.75)*(x1 - 1)", 2)
    problem = CauchyDirichletProblem(euclidean_group(2), grid, 1.0, g1, g1)
    report = boundary_stability_experiment(
        problem, SolverConfig(stencil_radius=0.4), g1, g2)
    measured = dict(report.measured)
    coords = grid.coords()
    assert np.abs(g1(coords, 0.0) - g2(coords, 0.0)).max() <= 1e-12
    assert measured["sup_solution_gap"] == measured["sup_data_gap"] == 0.0
    assert report.passed


HAT = "max(0, 1 - 32*abs(x1 - 0.5))"     # 1 at the middle node of 33, 0 at the others


@pytest.mark.parametrize("expr,h,horizon,config", [
    # the lateral datum peaks at 2 for |t - 0.15| < 0.01, between the snapshot
    # times 0.1 and 0.2 that a five-snapshot read would see
    ("x1 + 10000*max(0, 0.0001 - (t - 0.15)**2)", 2.0, 0.5, SolverConfig()),
    # the sup, 1, is held at t = 0 only
    (HAT, 1.0, 0.01, SolverConfig(cfl_factor=1.0)),
])
def test_sup_bound_reads_every_level_from_t0(expr, h, horizon, config):
    f = ScalarField.from_expression(expr, 1)
    grid = GridSpec(box=((0, 1),), cells=(32,), horizon=horizon)
    problem = CauchyDirichletProblem(euclidean_group(1), grid, h, f, f)
    stack = Stack.of(Scheme(problem, config), problem)
    direct = max(float(np.abs(stack.U).max()) for _ in itertools.chain(
        [stack], march(stack, config, [horizon])))
    report = sup_bound_experiment(problem, config)
    assert [label for label, _ in report.measured] == ["sup_solution", "sup_data"]
    assert dict(report.measured)["sup_solution"] == direct > 0.99
    assert report.passed


@pytest.mark.parametrize("step_factor", [1.0, 1.2])
def test_pair_experiments_fail_on_a_step_above_the_cfl_bound(monkeypatch, step_factor):
    # SolverConfig refuses cfl_factor > 1, so the defect is planted in the
    # step discrete_operator returns: at 1.2 the hat oscillates and grows
    operator = Scheme.discrete_operator

    def planted(self, u, h, cfl_factor=1.0):
        op, dt = operator(self, u, h, cfl_factor)
        return op, step_factor * dt

    monkeypatch.setattr(Scheme, "discrete_operator", planted)
    hat = ScalarField.from_expression(HAT, 1)
    zero = ScalarField.from_expression("0", 1)
    grid = GridSpec(box=((0, 1),), cells=(32,), horizon=0.01)
    problem = CauchyDirichletProblem(euclidean_group(1), grid, 1.0, hat, hat)
    config = SolverConfig(cfl_factor=1.0)
    reports = [comparison_experiment(problem, config, hat * -1.0, zero),
               boundary_stability_experiment(problem, config, zero, hat),
               sup_bound_experiment(problem, config)]
    assert [r.passed for r in reports] == [step_factor == 1.0] * 3
    if step_factor != 1.0:
        assert dict(reports[0].measured)["max_u_minus_v"] > 10.0
        assert dict(reports[1].measured)["sup_solution_gap"] > 10.0
        assert dict(reports[2].measured)["sup_solution"] > 10.0
    assert dict(reports[1].measured)["sup_data_gap"] == dict(reports[2].measured)["sup_data"] == 1.0


@given(graded_tables(), st.floats(0.2, 1.0), st.floats(-1.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_pair_run_identities_on_random_graded_tables(G, c, a):
    # at most 4^6 nodes; a horizon of about 4 steps at h = 1
    dim = G.total_dim
    nodes = next(n for n in range(64, 1, -1) if n ** dim <= 4 ** 6)
    delta = 2.0 / (nodes - 1)
    grid = GridSpec(box=((-1, 1),) * dim, cells=(nodes - 1,) * dim, horizon=2.0 * delta ** 2)
    # a smooth field plus a spike at one interior node, so a step that is
    # not monotone leaves the data's envelope
    spike = " + ".join(f"abs(x{i + 1} + {1.0 - delta})" for i in range(dim))
    u0 = ScalarField.from_expression(
        f"x1 + 0.5*x2 - 0.2*x1*x2 + 0.3*x{dim} + max(0, 1 - ({spike})/{delta})", dim)
    v0 = u0 + ScalarField.from_expression(f"{c}*(1 + 0.5*{a}*x1/(1 + x1*x1))", dim)
    config = SolverConfig(cfl_factor=1.0)
    # comparison and boundary stability: the gap is smooth, positive and not
    # constant, so it moves under the flow
    run = experiments._pair_run(
        CauchyDirichletProblem(G, grid, 1.0, u0, u0), config, [(u0, u0), (v0, v0)])
    assert run["max_diff"] <= 1e-12
    assert run["sol_gap"] <= run["data_gap"] + 1e-10
    for h in (1.0, 2.0, 3.0):
        run = experiments._pair_run(CauchyDirichletProblem(G, grid, h, u0, u0), config,
                                    [(u0, u0)])
        assert run["sup_solution"] <= run["sup_data"] + 1e-12
        assert run["max_principle_ok"]


def test_homogeneity_requires_h_above_one(line_problem):
    from dataclasses import replace
    with pytest.raises(PreconditionError, match="h > 1"):
        homogeneity_experiment(replace(line_problem, h=1.0), SolverConfig(), 2.0)
    with pytest.raises(PreconditionError):
        homogeneity_experiment(line_problem, SolverConfig(), -1.0)


@pytest.mark.parametrize("k", [np.inf, np.nan])
def test_homogeneity_rejects_a_non_finite_factor(line_problem, k):
    # inf and nan passed the k <= 0 check and failed in field evaluation
    with pytest.raises(PreconditionError, match="scaling factor k"):
        homogeneity_experiment(line_problem, SolverConfig(), k)


def test_homogeneity_k_equal_one_is_trivially_exact(heis_problem):
    report = homogeneity_experiment(heis_problem, SolverConfig(), 1.0)
    assert report.passed
    assert dict(report.measured)["max_scaling_mismatch"] == 0.0


def test_homogeneity_below_one_keeps_both_marches_within_their_cfl_steps(heis_problem):
    # the scaled march steps dt / k, so for k < 1/2 the step must come from its bound
    report = homogeneity_experiment(heis_problem, SolverConfig(), 0.25)
    assert report.passed


@pytest.mark.parametrize("k", [0.4, 3.0])
@pytest.mark.parametrize("h", [1.5, 2.0, 3.0])
def test_homogeneity_holds_for_factors_that_are_not_powers_of_two(heis_problem, h, k):
    # the stops dt / k are not dt scaled by a power of two
    from dataclasses import replace
    report = homogeneity_experiment(replace(heis_problem, h=h), SolverConfig(), k)
    assert report.passed, report.measured


def test_long_time_requires_static_boundary_data(line_problem):
    from dataclasses import replace
    moving = ScalarField.from_expression("x1 + t", 1)
    with pytest.raises(PreconditionError, match="time-independent"):
        long_time_experiment(replace(line_problem, g=moving), SolverConfig())


def test_doubling_penalty_identical_fields_have_zero_penalty():
    grid = GridSpec(box=((-1, 1), (-1, 1)), cells=(8, 8))
    coords = grid.coords()
    u = GridFunction(grid, np.sin(coords[:, 0]) + coords[:, 1])
    # once tau dominates the Lipschitz gain of any split pair, the
    # penalized maximizer merges and the penalty vanishes identically
    report = doubling_penalty_experiment(
        euclidean_group(2), u, u, PenaltySpec(), [256.0, 512.0, 1024.0])
    assert report.passed
    assert all(v == 0.0 for k, v in report.measured if k.startswith("tau_phi"))


def test_doubling_penalty_limit_is_small_for_both_exponents():
    grid = GridSpec(box=((-1, 1), (-1, 1)), cells=(16, 16))
    coords = grid.coords()
    base = coords[:, 0] + 0.5 * coords[:, 1]
    bump = 0.1 * np.exp(-np.sum((coords - 0.2) ** 2, axis=-1) / 0.25 ** 2)
    u, v = GridFunction(grid, base + bump), GridFunction(grid, base)
    taus = [4.0 ** j for j in range(6)]
    for m in (4, 6):
        report = doubling_penalty_experiment(
            euclidean_group(2), u, v, PenaltySpec(m=m), taus)
        final = dict(report.measured)[f"tau_phi_tau={taus[-1]:g}"]
        assert final <= 10.0 * grid.delta


def test_doubling_penalty_validation():
    grid = GridSpec(box=((-1, 1), (-1, 1)), cells=(4, 4))
    other = GridSpec(box=((-1, 1), (-1, 1)), cells=(5, 5))
    u = GridFunction(grid, np.zeros(grid.node_count))
    w = GridFunction(other, np.zeros(other.node_count))
    with pytest.raises(PreconditionError, match="grid"):
        doubling_penalty_experiment(euclidean_group(2), u, w, PenaltySpec(), [1.0])
    with pytest.raises(PreconditionError, match="tau"):
        doubling_penalty_experiment(euclidean_group(2), u, u, PenaltySpec(),
                                    [2.0, 1.0])
    # an empty sequence ended in an IndexError on the last penalty
    with pytest.raises(PreconditionError, match="tau_sequence"):
        doubling_penalty_experiment(euclidean_group(2), u, u, PenaltySpec(), [])
    # an infinite or NaN tau passed the positivity check and reported a NaN
    # penalty with a RuntimeWarning
    for taus in ([1.0, np.inf], [np.nan]):
        with pytest.raises(PreconditionError, match="tau_sequence"):
            doubling_penalty_experiment(euclidean_group(2), u, u, PenaltySpec(), taus)


@pytest.mark.parametrize("name", ["long_time", "commuting_diagram"])
def test_a_report_records_every_setting_that_changes_it(name, line_problem):
    # two tolerances give two results, so the ledger's inputs must differ too
    from dataclasses import replace
    psi = ScalarField.from_expression("x1 + 0.8*x1*(1 - x1)", 1)
    reports = [run_experiment(name, replace(line_problem, psi=psi),
                              SolverConfig(cfl_factor=1.0, steady_tolerance=tol),
                              np.random.default_rng(5))
               for tol in (1e-3, 1e-5)]
    assert reports[0].measured != reports[1].measured
    assert [r.inputs["steady_tolerance"] for r in reports] == [1e-3, 1e-5]
    assert all(r.inputs["stencil_radius"] is None for r in reports)
    assert {k: v for k, v in reports[0].inputs.items() if k != "steady_tolerance"} \
        == {k: v for k, v in reports[1].inputs.items() if k != "steady_tolerance"}


def test_jet_twist_check_across_presets():
    for G in (euclidean_group(2), heisenberg_group()):
        report = jet_twist_oracle_check(G, n_points=4)
        assert report.passed
        assert report.runtime_seconds == 0.0        # only the registry times a run
        assert report.inputs["group"] == G.label


def test_jet_twist_check_fails_on_a_wrong_step_3_frame_coefficient(monkeypatch):
    # [p, [p, e_i]]/6 in place of /12 in the twist route's frame and its
    # partials: the group-law route does not read that formula, so the
    # check must see the difference
    rows, partials = calculus.frame_rows, calculus.frame_partials

    def planted_rows(G, p):
        E = np.eye(G.total_dim)[:sum(G.layer_dims[:2])]
        q = np.asarray(p, dtype=float)[..., None, :]
        return rows(G, p) + groups.bracket(G, q, groups.bracket(G, q, E)) / 12.0

    def planted_partials(G, p):
        E, c = np.eye(G.total_dim), G.structure[:, :G.horizontal_dim]
        return partials(G, p) + (groups.bracket(G, E[:, None, :],
                                                groups.bracket(G, p, E[:G.horizontal_dim]))
                                 + groups.bracket(G, p, c)) / 12.0

    assert jet_twist_oracle_check(engel_group()).passed
    monkeypatch.setattr(calculus, "frame_rows", planted_rows)
    monkeypatch.setattr(calculus, "frame_partials", planted_partials)
    report = jet_twist_oracle_check(engel_group())
    assert not report.passed
    assert dict(report.measured)["max_jet_mismatch"] > 0.1
