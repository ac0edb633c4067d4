"""JSON-config command line runner.

Subcommands: ``solve <config>`` marches the configured problem and exports
CSV snapshots with a JSON metadata sidecar; ``verify <config>`` runs the
requested experiments and appends their reports to a results ledger;
``list`` prints the experiment registry.  Exit codes: 0 success, 1
configuration or runtime error, 2 at least one experiment failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expressions import ExpressionError
from .experiments import EXPERIMENTS, PreconditionError, append_to_ledger, run_experiment
from .fields import ScalarField
from .grid import GridSpec
from .groups import GroupSpecError, group_preset, make_group
from .solver import CauchyDirichletProblem, SolverConfig, SolverError, solve_parabolic


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    problem: CauchyDirichletProblem
    solver: SolverConfig
    experiments: list
    output_dir: str
    seed: int
    snapshot_times: list


_SOLVER_KEYS = {"cfl_factor": float, "steady_tolerance": float,
                "direction_samples": int}
_KEYS = {"group", "box", "cells", "h", "T", "psi", "g", "experiments",
         "output_dir", "seed", "snapshot_times", *_SOLVER_KEYS}
_GROUP_KEYS = {"layers", "brackets", "label"}
CSV_BLOCK_ROWS = 4096      # rows formatted and written per write call


def _reject_unknown(data, known, where):
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown keys {where}: {', '.join(unknown)}")


def _integer(value, key):
    """An integral number (16 or 16.0) as an int; 16.5, true or "16" raise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
    return int(value)


def _brackets(value):
    """A custom group's bracket table: a list of [i, j, k, value] entries,
    three integral indices and a finite number."""
    if not isinstance(value, list):
        raise ConfigError("key 'brackets' must be a list of [i, j, k, value] entries")
    table = []
    for entry in value:
        if not isinstance(entry, list) or len(entry) != 4:
            raise ConfigError(
                f"key 'brackets' needs [i, j, k, value] entries, got {entry!r}")
        *ijk, c = entry
        if isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c):
            raise ConfigError(
                f"key 'brackets' needs a finite number as value, got {c!r}")
        table.append((*(_integer(i, "brackets") for i in ijk), c))
    return table


def _require(data, key, kind):
    if key not in data:
        raise ConfigError(f"missing required key '{key}'")
    value = data[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind):
        raise ConfigError(f"key '{key}' must be of type {kind.__name__}")
    return value


def parse_config(text):
    """Parse and validate a JSON run configuration."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(data, _KEYS, "in the configuration")

    spec = data.get("group", "euclidean1")
    if isinstance(spec, str):
        group = group_preset(spec)
    elif isinstance(spec, dict):
        _reject_unknown(spec, _GROUP_KEYS, "in the group spec")
        group = make_group([_integer(d, "layers") for d in spec.get("layers", ())],
                           _brackets(spec.get("brackets", [])),
                           label=spec.get("label", "custom"))
    else:
        raise ConfigError("'group' must be a preset name or a custom spec object")

    box = _require(data, "box", list)
    cells = [_integer(c, "cells") for c in _require(data, "cells", list)]
    h = _require(data, "h", float)
    if h < 1.0:
        raise ConfigError(f"h = {h} violates the homogeneity constraint h >= 1")
    horizon = float(data.get("T", 1.0))
    grid = GridSpec(box=tuple(tuple(b) for b in box), cells=tuple(cells),
                    horizon=horizon)
    if grid.ndim != group.total_dim:
        raise ConfigError(
            f"box has {grid.ndim} axes but group '{group.label}' has "
            f"{group.total_dim} coordinates")

    probe = grid.coords(np.arange(0, grid.node_count, max(1, grid.node_count // 64)))
    data_fields = []
    for name in ("psi", "g"):
        # a non-finite value is reported below, not warned about on the way
        with np.errstate(all="ignore"):
            fld = ScalarField.from_expression(_require(data, name, str), group.total_dim)
            try:
                fld(probe, 0.0)
            except FloatingPointError:
                raise ConfigError(f"expression '{name}' is not finite on the box") from None
        data_fields.append(fld)
    psi, g = data_fields

    experiments = data.get("experiments", sorted(EXPERIMENTS))
    if not isinstance(experiments, list):
        raise ConfigError("'experiments' must be a list of experiment names")
    unknown = [e for e in experiments if e not in EXPERIMENTS]
    if unknown:
        raise ConfigError(f"unknown experiments: {', '.join(unknown)}")

    return RunConfig(
        problem=CauchyDirichletProblem(group, grid, h, psi, g),
        solver=SolverConfig(**{
            key: _integer(data[key], key) if kind is int else kind(data[key])
            for key, kind in _SOLVER_KEYS.items() if key in data}),
        experiments=experiments,
        output_dir=data.get("output_dir", "."),
        seed=_integer(data.get("seed", 0), "seed"),
        snapshot_times=[float(s) for s in data.get("snapshot_times", [horizon])],
    )


def export_snapshot_csv(snapshot, path):
    """One node per line, lexicographic order, fixed column layout."""
    grid = snapshot.grid
    header = ",".join([f"axis_{i}" for i in range(grid.ndim)] + ["t", "u"])
    columns = [[f"{c:.17g}," for c in axis] for axis in grid.axes()]
    columns.append([f"{snapshot.time_level:.17g},"])
    prefixes = map("".join, itertools.product(*columns))
    with open(path, "w") as handle:
        handle.write(header + "\n")
        for start in range(0, grid.node_count, CSV_BLOCK_ROWS):
            block = snapshot.values[start:start + CSV_BLOCK_ROWS].tolist()
            handle.write("".join([f"{prefix}{u:.17g}\n"
                                  for u, prefix in zip(block, prefixes)]))


def run_solve(config, out_dir, quiet):
    problem = config.problem
    result = solve_parabolic(problem, config.solver,
                             snapshot_times=config.snapshot_times)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for idx, snap in enumerate(result.snapshots):
        export_snapshot_csv(snap, out / f"snapshot_{idx:03d}.csv")
    metadata = {
        "group": problem.group.label,
        "h": problem.h,
        "delta": problem.grid.delta,
        "dt": result.dt_last,
        "cfl_factor": config.solver.cfl_factor,
        "steps": result.steps,
        "snapshots": [s.time_level for s in result.snapshots],
    }
    with open(out / "metadata.json", "w") as handle:
        json.dump(metadata, handle, sort_keys=True, indent=2)
        handle.write("\n")
    if not quiet:
        print(f"solved in {result.steps} steps; "
              f"{len(result.snapshots)} snapshot(s) written to {out}")
    return 0


def run_verify(config, out_dir, quiet):
    rng = np.random.default_rng(config.seed)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ledger = out / "results.jsonl"
    all_passed = True
    for name in config.experiments:
        report = run_experiment(name, config.problem, config.solver, rng)
        append_to_ledger(report, ledger)
        all_passed = all_passed and report.passed
        if not quiet:
            status = "PASS" if report.passed else "FAIL"
            print(f"{status} {name} ({report.runtime_seconds:.2f}s)")
    return 0 if all_passed else 2


def list_experiments():
    """Names of all registered experiments, one per line."""
    return "\n".join(sorted(EXPERIMENTS))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="carnotpde",
        description="Solve and verify parabolic infinite-Laplace problems "
                    "on Carnot groups.")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run the configured solve, export CSV")
    p_solve.add_argument("config", help="path to a JSON config file")
    p_verify = sub.add_parser("verify", help="run the configured experiments")
    p_verify.add_argument("config", help="path to a JSON config file")
    sub.add_parser("list", help="list available experiments")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    try:
        config = parse_config(Path(args.config).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ExpressionError, GroupSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.seed is not None:
        config.seed = args.seed
    out_dir = args.out if args.out is not None else config.output_dir
    try:
        if args.command == "solve":
            return run_solve(config, out_dir, args.quiet)
        return run_verify(config, out_dir, args.quiet)
    except (PreconditionError, ExpressionError, GroupSpecError, SolverError,
            ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
