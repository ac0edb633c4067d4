"""Experiment harness: registry coverage, report plumbing, preconditions."""

import json

import numpy as np
import pytest

from carnotpde.calculus import PenaltySpec
from carnotpde.experiments import (
    EXPERIMENTS,
    ExperimentReport,
    PreconditionError,
    append_to_ledger,
    boundary_stability_experiment,
    comparison_experiment,
    doubling_penalty_experiment,
    h_limit_experiment,
    homogeneity_experiment,
    jet_twist_oracle_check,
    long_time_experiment,
    run_experiment,
)
from carnotpde.fields import ScalarField
from carnotpde.grid import GridFunction, GridSpec
from carnotpde.groups import euclidean_group, heisenberg_group
from carnotpde.solver import CauchyDirichletProblem, SolverConfig


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


def test_comparison_constant_offset_gap_is_exact(line_problem):
    report = comparison_experiment(line_problem, SolverConfig(),
                                   line_problem.psi, line_problem.psi + 1.0)
    assert report.passed
    (label, worst), = report.measured
    assert worst == pytest.approx(-1.0, abs=1e-12)


def test_boundary_stability_equal_data_gives_zero_gap(line_problem):
    report = boundary_stability_experiment(line_problem, SolverConfig(),
                                           line_problem.g, line_problem.g)
    assert report.passed
    assert dict(report.measured)["sup_solution_gap"] == 0.0


def test_boundary_stability_data_gap_covers_the_datum_it_reads():
    # g1 - g2 vanishes at every node but not between them on the boundary
    # faces, where a radius above the spacing clamps off-box flow targets:
    # the node-wise data gap reads 0 while the solutions drift apart
    grid = GridSpec(box=((0, 1), (0, 1)), cells=(4, 4), horizon=0.2)
    g1 = ScalarField.from_expression("x1 + x2", 2)
    g2 = g1 + ScalarField.from_expression(
        "100*x1*(x1 - 0.25)*(x1 - 0.5)*(x1 - 0.75)*(x1 - 1)", 2)
    problem = CauchyDirichletProblem(euclidean_group(2), grid, 1.0, g1, g1)
    report = boundary_stability_experiment(
        problem, SolverConfig(stencil_radius=0.4), g1, g2)
    measured = dict(report.measured)
    coords = grid.coords()
    node_gap = float(np.abs(g1(coords, 0.0) - g2(coords, 0.0)).max())
    assert node_gap <= 1e-12
    assert measured["sup_solution_gap"] > 1e-3 + node_gap
    assert measured["sup_data_gap"] >= measured["sup_solution_gap"]
    assert report.passed


def test_homogeneity_requires_h_above_one(line_problem):
    from dataclasses import replace
    with pytest.raises(PreconditionError, match="h > 1"):
        homogeneity_experiment(replace(line_problem, h=1.0), SolverConfig(), 2.0)
    with pytest.raises(PreconditionError):
        homogeneity_experiment(line_problem, SolverConfig(), -1.0)


def test_homogeneity_k_equal_one_is_trivially_exact(heis_problem):
    report = homogeneity_experiment(heis_problem, SolverConfig(), 1.0)
    assert report.passed
    assert dict(report.measured)["max_scaling_mismatch"] == 0.0


def test_long_time_requires_static_boundary_data(line_problem):
    from dataclasses import replace
    moving = ScalarField.from_expression("x1 + t", 1)
    with pytest.raises(PreconditionError, match="time-independent"):
        long_time_experiment(replace(line_problem, g=moving), SolverConfig())


def test_h_limit_sequence_validation(line_problem):
    with pytest.raises(PreconditionError):
        h_limit_experiment(line_problem, SolverConfig(), h_sequence=(2.0, 1.0))
    with pytest.raises(PreconditionError):
        h_limit_experiment(line_problem, SolverConfig(), h_sequence=(1.5, 2.0))


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


def test_jet_twist_check_across_presets():
    for G in (euclidean_group(2), heisenberg_group()):
        report = jet_twist_oracle_check(G, n_points=4)
        assert report.passed
        assert report.inputs["group"] == G.label
