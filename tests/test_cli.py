"""Config parsing, CSV/JSON export, exit codes and determinism."""

import json

import numpy as np
import pytest

from carnotpde import cli
from carnotpde.cli import ConfigError, list_experiments, main, parse_config
from carnotpde.experiments import ExperimentReport
from carnotpde.grid import GridFunction, GridSpec
from carnotpde.solver import SolverConfig

MINIMAL = {
    "group": "euclidean1",
    "box": [[0, 1]],
    "cells": [16],
    "h": 3,
    "T": 0.02,
    "psi": "x1*x1",
    "g": "x1*x1",
}


def write_config(tmp_path, **overrides):
    data = dict(MINIMAL)
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


# -- parsing ---------------------------------------------------------


def test_minimal_config_parses():
    config = parse_config(json.dumps(MINIMAL))
    assert config.problem.group.label == "euclidean1"
    assert config.problem.grid.cells == (16,)
    assert config.problem.h == 3.0
    assert config.problem.psi(np.array([[0.5]]))[0] == pytest.approx(0.25)
    assert config.solver == SolverConfig()


def test_solver_keys_reach_the_solver_config():
    config = parse_config(json.dumps(dict(
        MINIMAL, cfl_factor=0.25, steady_tolerance=1e-6, direction_samples=8)))
    assert config.solver == SolverConfig(cfl_factor=0.25, steady_tolerance=1e-6,
                                         direction_samples=8)


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="cfl, stencil_radius"):
        parse_config(json.dumps(dict(MINIMAL, cfl=0.1, stencil_radius=5.0)))
    cfg = dict(MINIMAL,
               group={"layers": [2, 1], "brackets": [[0, 1, 2, 1.0]],
                      "lable": "typo"},
               box=[[-1, 1]] * 3, cells=[4] * 3, psi="x3", g="x3")
    with pytest.raises(ConfigError, match="group spec: lable"):
        parse_config(json.dumps(cfg))


def test_malformed_json_reports_line_and_column():
    with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
        parse_config('{"group": }')


def test_h_below_one_names_the_constraint():
    with pytest.raises(ConfigError, match="h >= 1"):
        parse_config(json.dumps(dict(MINIMAL, h=0.5)))


def test_unknown_coordinate_is_rejected():
    cfg = dict(MINIMAL, group="heisenberg1", box=[[0, 1]] * 3, cells=[4] * 3,
               psi="x7*2", g="x1")
    with pytest.raises(ValueError, match="x7"):
        parse_config(json.dumps(cfg))


@pytest.mark.parametrize("psi", ["(-1)**0.5*x1", "1/0 + x1", "x1/0"])
def test_non_finite_data_exits_one_naming_the_expression(tmp_path, capsys, psi):
    # (-1)**0.5 was a complex value whose imaginary part was dropped (u = -0
    # was solved), and 1/0 ended in a KeyError traceback from lambdify
    with pytest.raises(ConfigError, match="expression 'psi' is not finite on the box"):
        parse_config(json.dumps(dict(MINIMAL, psi=psi)))
    path = write_config(tmp_path, psi=psi)
    assert main(["--out", str(tmp_path / "out"), "solve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: expression 'psi' is not finite on the box\n"
    assert not (tmp_path / "out").exists()


HEIS32 = dict(group="heisenberg1", box=[[-1, 1]] * 3, cells=[32] * 3, T=0.01, h=2)


@pytest.mark.parametrize("data", [
    # 1/0 on the lateral faces, read when the problem is built
    "x1 + 1/(x3 - 0.0625)",
    # 1/0 at one interior node, read by the solve
    "x1 + 1/(x1*x1 + x2*x2 + (x3 - 0.0625)**2)",
])
def test_data_not_finite_between_the_probed_nodes_exits_one(tmp_path, capsys, data):
    # the config check reads every node, so it finds the 1/0 at x3 = 0.0625
    # between sparse probes, names the expression and warns about nothing
    path = write_config(tmp_path, psi=data, g=data, **HEIS32)
    code = main(["--out", str(tmp_path / "out"), "solve", str(path)])
    assert code == 1
    assert capsys.readouterr().err == "error: expression 'psi' is not finite on the box\n"


def test_group_and_box_dimensions_must_agree():
    with pytest.raises(ConfigError, match="axes"):
        parse_config(json.dumps(dict(MINIMAL, group="heisenberg1")))


def test_custom_group_spec():
    cfg = dict(MINIMAL,
               group={"layers": [2, 1], "brackets": [[0, 1, 2, 1.0]],
                      "label": "my-heisenberg"},
               box=[[-1, 1]] * 3, cells=[4] * 3, psi="x3", g="x3")
    config = parse_config(json.dumps(cfg))
    assert config.problem.group.label == "my-heisenberg"
    assert config.problem.group.step == 2


def test_bad_custom_group_delegates_to_validation():
    cfg = dict(MINIMAL, group={"layers": [2, 1],
                               "brackets": [[0, 1, 0, 1.0]]},
               box=[[-1, 1]] * 3, cells=[4] * 3, psi="x1", g="x1")
    with pytest.raises(ValueError, match="grading"):
        parse_config(json.dumps(cfg))


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError, match="unknown experiments"):
        parse_config(json.dumps(dict(MINIMAL, experiments=["nope"])))


def test_experiments_must_be_a_list():
    with pytest.raises(ConfigError, match="'experiments' must be a list of experiment names"):
        parse_config(json.dumps(dict(MINIMAL, experiments="comparison")))


HEIS_SPEC = dict(MINIMAL, group={"layers": [2, 1], "brackets": [[0, 1, 2, 1.0]]},
                 box=[[-1, 1]] * 3, cells=[4] * 3, psi="x3", g="x3")


@pytest.mark.parametrize("key,cfg", [
    ("cells", dict(MINIMAL, cells=[16.5])),
    ("direction_samples", dict(MINIMAL, direction_samples=8.7)),
    ("seed", dict(MINIMAL, seed=1.9)),
    ("layers", dict(HEIS_SPEC, group={"layers": [2, 1.5], "brackets": [[0, 1, 2, 1.0]]})),
])
def test_fractional_integer_settings_name_their_key(key, cfg):
    with pytest.raises(ConfigError, match=f"key '{key}' must be an integer"):
        parse_config(json.dumps(cfg))


def test_integral_values_of_integer_settings_still_parse():
    config = parse_config(json.dumps(dict(MINIMAL, cells=[16.0], direction_samples=8.0,
                                          seed=3.0)))
    assert config.problem.grid.cells == (16,)
    assert config.solver.direction_samples == 8
    assert config.seed == 3 and isinstance(config.seed, int)
    cfg = dict(HEIS_SPEC, group={"layers": [2.0, 1], "brackets": [[0, 1, 2, 1.0]]})
    assert parse_config(json.dumps(cfg)).problem.group.layer_dims == (2, 1)


@pytest.mark.parametrize("brackets,match", [
    ([[0, 1.5, 2, 1.0]], "key 'brackets' must be an integer, got 1.5"),
    ([[0, 1, 2]], r"key 'brackets' needs \[i, j, k, value\] entries, got \[0, 1, 2\]"),
    ([[0, 1, 2, "1"]], "key 'brackets' needs a finite number as value, got '1'"),
    ([[0, 1, 2, float("nan")]], "key 'brackets' needs a finite number as value, got nan"),
    ([[0, 1, 2, float("inf")]], "key 'brackets' needs a finite number as value, got inf"),
    ("0 1 2 1", "key 'brackets' must be a list"),
], ids=["fractional_index", "three_items", "string_value", "nan_value", "inf_value",
        "string_table"])
def test_malformed_brackets_name_their_key(brackets, match):
    with pytest.raises(ConfigError, match=match):
        parse_config(json.dumps(dict(HEIS_SPEC, group={"layers": [2, 1],
                                                       "brackets": brackets})))


def test_fractional_bracket_index_exits_one_naming_the_key(tmp_path, capsys):
    path = write_config(tmp_path, **dict(
        HEIS_SPEC, group={"layers": [2, 1], "brackets": [[0, 1.5, 2, 1.0]]}))
    assert main(["--out", str(tmp_path / "out"), "solve", str(path)]) == 1
    assert "key 'brackets' must be an integer" in capsys.readouterr().err


def test_integral_bracket_indices_still_parse():
    cfg = dict(HEIS_SPEC, group={"layers": [2, 1], "brackets": [[0, 1.0, 2.0, 1]]})
    structure = parse_config(json.dumps(cfg)).problem.group.structure
    assert structure[0, 1, 2] == 1.0 and structure[1, 0, 2] == -1.0


# -- subcommands and exit codes --------------------------------------


def test_list_contains_all_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "comparison" in out
    assert "commuting_diagram" in out
    assert len(list_experiments().splitlines()) >= 9


def test_solve_writes_csv_and_metadata(tmp_path):
    config = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "solve", str(config)]) == 0
    csv = (out / "snapshot_000.csv").read_text().splitlines()
    assert csv[0] == "axis_0,t,u"
    assert len(csv) == 1 + 17
    # rows in lexicographic node order
    xs = [float(line.split(",")[0]) for line in csv[1:]]
    assert xs == sorted(xs)
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["group"] == "euclidean1"
    assert meta["delta"] == pytest.approx(1 / 16)
    assert meta["steps"] > 0


def per_row_csv(snapshot, path):
    """The per-cell writer export_snapshot_csv replaced, kept as its oracle."""
    grid = snapshot.grid
    coords = grid.coords()
    header = ",".join([f"axis_{i}" for i in range(grid.ndim)] + ["t", "u"])
    with open(path, "w") as handle:
        handle.write(header + "\n")
        t = snapshot.time_level
        for row, value in zip(coords, snapshot.values):
            cells = [f"{c:.17g}" for c in row] + [f"{t:.17g}", f"{value:.17g}"]
            handle.write(",".join(cells) + "\n")


@pytest.mark.parametrize("box,cells", [
    (((0.1, 1.3),), (128,)),
    (((-1.0, 1.0), (-0.3, 1.7)), (32, 16)),
    (((-1.0, 1.0), (0.0, 0.7), (-2.5, 1e-3)), (16, 16, 16)),
])
def test_csv_writer_matches_the_per_row_writer_byte_for_byte(tmp_path, box, cells):
    grid = GridSpec(box=box, cells=cells)
    assert grid.node_count % cli.CSV_BLOCK_ROWS != 0
    values = np.random.default_rng(len(cells)).normal(size=grid.node_count)
    special = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300, 0.1, 1 / 3]
    values[:len(special)] = special
    values[-len(special):] = special
    if grid.node_count > cli.CSV_BLOCK_ROWS:
        values[cli.CSV_BLOCK_ROWS - 3:cli.CSV_BLOCK_ROWS + 4] = special
    for t in (0.0, 0.1, 2.0 / 3.0):
        snap = GridFunction(grid, values, t)
        per_row_csv(snap, tmp_path / "expect.csv")
        cli.export_snapshot_csv(snap, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "expect.csv").read_bytes()


def test_solve_is_deterministic(tmp_path):
    config = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert main(["--out", str(out), "--quiet", "solve", str(config)]) == 0
    assert (out1 / "snapshot_000.csv").read_bytes() == \
        (out2 / "snapshot_000.csv").read_bytes()
    assert (out1 / "metadata.json").read_bytes() == \
        (out2 / "metadata.json").read_bytes()


def test_verify_passes_and_appends_ledger(tmp_path):
    config = write_config(
        tmp_path, experiments=["comparison", "sup_bound", "jet_twist_oracle"])
    out = tmp_path / "out"
    assert main(["--out", str(out), "--quiet", "verify", str(config)]) == 0
    records = [json.loads(line)
               for line in (out / "results.jsonl").read_text().splitlines()]
    assert [r["name"] for r in records] == ["comparison", "sup_bound",
                                            "jet_twist_oracle"]
    assert all(r["passed"] for r in records)


def test_verify_is_deterministic_up_to_runtimes(tmp_path):
    config = write_config(tmp_path, experiments=["comparison", "sup_bound"],
                          seed=11)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--out", str(out), "--quiet", "verify", str(config)]) == 0
        records = [json.loads(line)
                   for line in (out / "results.jsonl").read_text().splitlines()]
        for r in records:
            r.pop("runtime_seconds")
        outs.append(records)
    assert outs[0] == outs[1]


def test_bad_config_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, h=0.5)
    assert main(["solve", str(config)]) == 1
    assert "h >= 1" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.json")]) == 1


def test_solver_setting_that_cannot_take_effect_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, steady_tolerance=0)
    assert main(["solve", str(config)]) == 1
    assert capsys.readouterr().err == (
        "error: steady_tolerance must be positive and finite, got 0.0\n")


def test_violated_precondition_exits_one(tmp_path, capsys):
    # homogeneity scaling requires h > 1
    config = write_config(tmp_path, h=1, experiments=["homogeneity"])
    assert main(["--quiet", "--out", str(tmp_path / "o"), "verify",
                 str(config)]) == 1
    assert "h > 1" in capsys.readouterr().err


def test_failed_experiment_exits_two(tmp_path, monkeypatch):
    def fake_run(name, problem, config, rng):
        return ExperimentReport(name=name, inputs={}, measured=[("x", 1.0)],
                                bound=0.5, passed=False)
    monkeypatch.setattr(cli, "run_experiment", fake_run)
    config = write_config(tmp_path, experiments=["sup_bound"])
    assert main(["--quiet", "--out", str(tmp_path / "o"), "verify",
                 str(config)]) == 2


def test_seed_override(tmp_path):
    config = write_config(tmp_path, experiments=["comparison"], seed=1)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--out", str(out1), "--seed", "5", "--quiet", "verify",
                 str(config)]) == 0
    assert main(["--out", str(out2), "--seed", "5", "--quiet", "verify",
                 str(config)]) == 0
    r1 = json.loads((out1 / "results.jsonl").read_text())
    r2 = json.loads((out2 / "results.jsonl").read_text())
    assert r1["measured"] == r2["measured"]
