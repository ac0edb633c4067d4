"""In-memory span recorder and the per-layer metrics derived from it.

The traced run wraps the public callables of each carnotpde module from the
benchmark's side: every binding that a caller looks up (the defining module,
modules that imported the name with ``from ... import``, the package root)
is replaced by one wrapper, so a call is recorded whichever name it went
through.  Each span is (name, start, end, parent span, operation id) plus
two counts.  Self times are derived after the run from the recorded spans:
a span's duration minus the durations of its direct children.

A wrapped name that the package no longer has is reported as absent; the
metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from array import array

import numpy as np


def _points(args, kwargs, result):
    shape = np.shape(result)
    return (int(np.prod(shape[:-1])) if len(shape) else 1), 0.0


def _eval_points(args, kwargs, result):
    return int(np.size(result)), 0.0


def _apply_counts(args, kwargs, result):
    # Computed, not measured: index and weight arrays read, one gathered
    # value per index, one output value per row.
    stencil = args[0]
    index, weights = stencil.corner_index, stencil.weights
    rows = int(np.prod(index.shape[:-1]))
    moved = index.nbytes + weights.nbytes + index.size * 8 + rows * 8
    return rows, moved


def _bank_bytes(args, kwargs, result):
    return 0, result.corner_index.nbytes + result.weights.nbytes


def _file_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return 0, os.path.getsize(path)


def _none(args, kwargs, result):
    return 0, 0.0


# (span name, "module:qualified.attribute", count function)
TARGETS = [
    ("groups.multiply", "carnotpde.groups:multiply", _points),
    ("expressions.parse", "carnotpde.expressions:parse_expression", _none),
    ("fields.build", "carnotpde.fields:ScalarField.from_expression", _none),
    ("fields.eval", "carnotpde.fields:ScalarField.__call__", _eval_points),
    ("grid.stencil_build", "carnotpde.grid:build_stencil", _none),
    ("grid.stencil_build", "carnotpde.grid:StencilBank.from_targets", _bank_bytes),
    ("grid.stencil_apply", "carnotpde.grid:StencilBank.evaluate", _apply_counts),
    ("grid.stencil_apply", "carnotpde.grid:FlowStencil.evaluate", _apply_counts),
    ("solver.scheme_build", "carnotpde.solver:Scheme.__init__", _none),
    ("solver.step", "carnotpde.solver:Scheme.step", _none),
    ("solver.operator", "carnotpde.solver:Scheme.discrete_operator", _none),
    ("solver.gradient", "carnotpde.solver:Scheme.discrete_gradient", _none),
    ("solver.reduce", "carnotpde.solver:Scheme.kappa", _none),
    ("solver.cfl", "carnotpde.solver:Scheme.cfl_dt", _none),
    ("solver.march", "carnotpde.solver:solve_parabolic", _none),
    ("solver.march", "carnotpde.solver:solve_to_steady", _none),
    ("solver.march_elliptic", "carnotpde.solver:solve_elliptic_steady", _none),
    ("experiments.pair", "carnotpde.experiments:comparison_experiment", _none),
    ("cli.export", "carnotpde.cli:export_snapshot_csv", _file_bytes),
]

BYTES = "bytes-computed"
UNITS = {
    "groups.multiply_s": "s", "groups.multiply_points": "count",
    "expressions.parse_s": "s", "expressions.parse_calls": "count",
    "fields.build_s": "s", "fields.eval_s": "s", "fields.eval_calls": "count",
    "fields.eval_points": "count",
    "grid.stencil_build_s": "s", "grid.stencil_apply_s": "s",
    "grid.stencil_apply_calls": "count", "grid.stencil_rows": "count",
    "grid.stencil_bytes_held": BYTES, "grid.stencil_bytes_moved": BYTES,
    "solver.scheme_build_s": "s", "solver.scheme_builds": "count",
    "solver.steps": "count", "solver.gradient_calls": "count",
    "solver.gradient_self_s": "s", "solver.reduce_s": "s",
    "solver.operator_self_s": "s", "solver.cfl_self_s": "s",
    "solver.step_self_s": "s", "solver.march_self_s": "s", "solver.sweeps": "count",
    "solver.rungs_flow": "count", "solver.rungs_elliptic": "count",
    "solver.err_flow": "sup", "solver.err_elliptic": "sup",
    "experiments.pair_self_s": "s", "experiments.schemes_per_pair": "count",
    "cli.export_s": "s", "cli.export_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


class Recorder:
    """Spans kept in flat typed arrays; written out once the run ends."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.op = array("i")
        self.count = array("d")
        self.nbytes = array("d")
        self._stack = []
        self.current_op = -1
        self.absent = []
        self._undo = []

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, counter):
        name_id = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.count.append(0.0)
            self.nbytes.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            self.count[idx], self.nbytes[idx] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; remember how to undo it."""
        for name, target, counter in TARGETS:
            module_name, qualname = target.split(":")
            owner_path, _, attr = qualname.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = (owner.__dict__[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                self.absent.append(target)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__, counter))
            else:
                wrapped = self._wrap(name, raw, counter)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, raw))
            else:
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "")
                    if mod_name != "carnotpde" and not mod_name.startswith("carnotpde."):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            setattr(module, key, wrapped)
                            self._undo.append((module, key, raw))

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def arrays(self):
        return {key: np.array(getattr(self, key))
                for key in ("name", "parent", "start", "end", "op", "count", "nbytes")}

    def write(self, path, header):
        """Write the spans as one compressed archive, after measurement."""
        np.savez_compressed(path, names=np.array(self.names), absent=np.array(self.absent),
                            header=np.array(header), **self.arrays())


def layer_metrics(recorder):
    """Per-layer totals over every recorded span; see perfbench/NOTES.md."""
    a = recorder.arrays()
    n_names = len(recorder.names)
    duration = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child_time = np.bincount(a["parent"][has_parent], weights=duration[has_parent],
                             minlength=len(duration))
    self_time = duration - child_time
    self_by_name = np.bincount(a["name"], weights=self_time, minlength=n_names)
    calls_by_name = np.bincount(a["name"], minlength=n_names)
    count_by_name = np.bincount(a["name"], weights=a["count"], minlength=n_names)
    bytes_by_name = np.bincount(a["name"], weights=a["nbytes"], minlength=n_names)

    def nid(name):
        return recorder._name_ids.get(name, -1)

    def pick(table, name):
        i = nid(name)
        return float(table[i]) if i >= 0 else 0.0

    def children_of(child, parent):
        """Mask of spans named ``child`` whose direct parent is named ``parent``."""
        c, p = nid(child), nid(parent)
        if c < 0 or p < 0:
            return np.zeros(len(duration), dtype=bool)
        mask = (a["name"] == c) & has_parent
        mask[mask] = a["name"][a["parent"][mask]] == p
        return mask

    bank_in_scheme = children_of("grid.stencil_build", "solver.scheme_build")
    held = np.bincount(a["parent"][bank_in_scheme], weights=a["nbytes"][bank_in_scheme],
                       minlength=len(duration))
    pairs = pick(calls_by_name, "experiments.pair")
    schemes_in_pairs = children_of("solver.scheme_build", "experiments.pair").sum()

    return {
        "groups.multiply_s": pick(self_by_name, "groups.multiply"),
        "groups.multiply_points": pick(count_by_name, "groups.multiply"),
        "expressions.parse_s": pick(self_by_name, "expressions.parse"),
        "expressions.parse_calls": pick(calls_by_name, "expressions.parse"),
        "fields.build_s": pick(self_by_name, "fields.build"),
        "fields.eval_s": pick(self_by_name, "fields.eval"),
        "fields.eval_calls": pick(calls_by_name, "fields.eval"),
        "fields.eval_points": pick(count_by_name, "fields.eval"),
        "grid.stencil_build_s": pick(self_by_name, "grid.stencil_build"),
        "grid.stencil_apply_s": pick(self_by_name, "grid.stencil_apply"),
        "grid.stencil_apply_calls": pick(calls_by_name, "grid.stencil_apply"),
        "grid.stencil_rows": pick(count_by_name, "grid.stencil_apply"),
        "grid.stencil_bytes_held": float(held.max()) if held.size else 0.0,
        "grid.stencil_bytes_moved": pick(bytes_by_name, "grid.stencil_apply"),
        "solver.scheme_build_s": pick(self_by_name, "solver.scheme_build"),
        "solver.scheme_builds": pick(calls_by_name, "solver.scheme_build"),
        "solver.steps": pick(calls_by_name, "solver.step"),
        "solver.gradient_calls": pick(calls_by_name, "solver.gradient"),
        "solver.gradient_self_s": pick(self_by_name, "solver.gradient"),
        "solver.reduce_s": pick(self_by_name, "solver.reduce"),
        "solver.operator_self_s": pick(self_by_name, "solver.operator"),
        "solver.cfl_self_s": pick(self_by_name, "solver.cfl"),
        "solver.step_self_s": pick(self_by_name, "solver.step"),
        "solver.march_self_s": (pick(self_by_name, "solver.march")
                                + pick(self_by_name, "solver.march_elliptic")),
        "solver.sweeps": float(children_of("grid.stencil_apply",
                                           "solver.march_elliptic").sum()),
        "experiments.pair_self_s": pick(self_by_name, "experiments.pair"),
        "experiments.schemes_per_pair": float(schemes_in_pairs / pairs) if pairs else 0.0,
        "cli.export_s": pick(self_by_name, "cli.export"),
        "cli.export_bytes": pick(bytes_by_name, "cli.export"),
    }
