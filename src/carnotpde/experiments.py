"""Verification experiments over the solver.

Each experiment runs a concrete numerical setup, measures the quantities a
statement constrains, and reports pass/fail against the stated bound.  The
exact scheme identities (comparison, boundary stability, sup bound,
homogeneity) are checked at round-off tolerances; the asymptotic statements
(decay, long-time limit, h -> 1 limit, commuting diagram) carry
grid-scaled tolerances, with the fixed settings ``DECAY_PAIRS`` and
``H_SEQUENCE``.  The registry, ``run_experiment``, times each run.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, replace
from operator import mul

import numpy as np

from . import calculus, groups
from .calculus import PenaltySpec
from .fields import ScalarField
from .grid import GridFunction, GridSpec
from .solver import (
    Binding,
    Scheme,
    SolverConfig,
    Stack,
    march,
    solve_elliptic_steady,
    solve_parabolic,
    solve_to_steady,
)

DECAY_PAIRS = 8                     # latest capture pairs the decay bound is checked on
H_SEQUENCE = (2.0, 1.5, 1.25, 1.1)  # h values of the h -> 1 sweep, decreasing


class PreconditionError(ValueError):
    """An experiment's hypothesis fails on the supplied data."""


@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    measured: list                 # (label, value) pairs
    bound: float = None
    passed: bool = False
    runtime_seconds: float = 0.0   # set by run_experiment; 0.0 on a direct call
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "inputs": self.inputs,
            "measured": [[label, float(v)] for label, v in self.measured],
            "bound": None if self.bound is None else float(self.bound),
            "passed": bool(self.passed),
            "runtime_seconds": float(self.runtime_seconds),
            "detail": self.detail,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True)


def append_to_ledger(report, path):
    """Append one JSON record per line to a results ledger file."""
    with open(path, "a") as handle:
        handle.write(report.to_json() + "\n")


def _digest(problem, config, **extra):
    d = {
        "group": problem.group.label,
        "box": list(map(list, problem.grid.box)),
        "cells": list(problem.grid.cells),
        "horizon": problem.grid.horizon,
        "h": problem.h,
        "cfl_factor": config.cfl_factor,
        "direction_samples": config.direction_samples,
    }
    d.update(extra)
    return d


# -- exact scheme identities -----------------------------------------


def _pair_march(problem, config, f1, f2):
    """One scheme and a two-field stack, each field f with psi = g = f,
    marched to the horizon: yields the stack at t = 0 and after every step."""
    scheme = Scheme(problem, config)
    stack = Stack([Binding(scheme, f, f, problem.h) for f in (f1, f2)])
    yield stack
    yield from march(stack, config, [problem.grid.horizon])


def comparison_experiment(problem, config, u0, v0):
    """Evolve an ordered pair with a shared time step; the gap never flips
    sign.  The data's order is read from the march's rows: every node at
    t = 0, the lateral nodes at each later level."""
    worst = -np.inf
    for stack in _pair_march(problem, config, u0, v0):
        gap = stack.U[0] - stack.U[1]
        top = float(gap.max())
        if top > 1e-12:     # the data's gap is at most top: an ordered pair reads none
            data = gap[stack.scheme.lateral] if stack.steps else gap
            if data.max() > 1e-12:
                raise PreconditionError(
                    f"{'boundary' if stack.steps else 'initial'} data are not ordered "
                    f"at t={stack.t:.3g}: max(u - v) = {data.max():.3e} > 0")
        if top > worst:
            worst, worst_at = top, (int(np.argmax(gap)), stack.t)
    passed = worst <= 1e-12
    detail = "" if passed else f"ordering violated at node {worst_at[0]}, t={worst_at[1]:.6g}"
    return ExperimentReport(
        name="comparison", inputs=_digest(problem, config),
        measured=[("max_u_minus_v", worst)], bound=1e-12,
        passed=passed, detail=detail)


def boundary_stability_experiment(problem, config, g1, g2):
    """Two boundary data, one scheme: interior gap stays below the data gap,
    taken over every data value the march reads: the initial slice and the
    lateral nodes of every time level."""
    data_gap = sol_gap = 0.0
    for stack in _pair_march(problem, config, g1, g2):
        gap = np.abs(stack.U[0] - stack.U[1])
        read = gap[stack.scheme.lateral] if stack.steps else gap
        data_gap = max(data_gap, float(read.max()))
        sol_gap = max(sol_gap, float(gap.max()))
    bound = data_gap + 1e-10
    return ExperimentReport(
        name="boundary_stability", inputs=_digest(problem, config),
        measured=[("sup_solution_gap", sol_gap), ("sup_data_gap", data_gap)],
        bound=bound, passed=sol_gap <= bound)


def sup_bound_experiment(problem, config):
    """Every time level stays inside the envelope of the boundary/initial data."""
    grid = problem.grid
    times = list(np.linspace(0.0, grid.horizon, 6)[1:])
    result = solve_parabolic(problem, config, snapshot_times=times)
    data_sup = max(abs(result.data_min), abs(result.data_max))
    sol_sup = max(s.sup_norm() for s in result.snapshots)
    bound = data_sup + 1e-12
    return ExperimentReport(
        name="sup_bound", inputs=_digest(problem, config),
        measured=[("sup_solution", sol_sup), ("sup_data", data_sup)],
        bound=bound, passed=sol_sup <= bound and result.max_principle_ok)


def homogeneity_experiment(problem, config, k):
    """Scaling the data by k^(1/(h-1)) and the step by 1/k commutes with the
    scheme exactly, level by level: u marches on the stops dt, 2 dt, ... and
    the scaled v on dt/k, 2 dt/k, ..., dt no wider than either CFL step."""
    h = problem.h
    if h <= 1.0:
        raise PreconditionError("the scaling identity needs h > 1")
    if not 0.0 < k < np.inf:
        raise PreconditionError(f"scaling factor k must be positive and finite, got {k!r}")
    c = k ** (1.0 / (h - 1.0))

    scheme = Scheme(problem, config)
    u = Stack.of(scheme, problem)
    v = Stack([Binding(scheme, problem.psi * c, problem.g * c, h)])
    # half the tighter CFL step of the two marches: v's bound is the tighter
    # one when k < 1
    dt = 0.5 * min(scheme.discrete_operator(u.U[0], h, config.cfl_factor)[1],
                   k * scheme.discrete_operator(v.U[0], h, config.cfl_factor)[1])
    levels = np.arange(1, max(4, int(round(problem.grid.horizon / dt))) + 1)

    worst = float(np.abs(v.U - c * u.U).max())
    for _ in zip(march(u, config, dt * levels), march(v, config, dt / k * levels)):
        worst = max(worst, float(np.abs(v.U - c * u.U).max()))
    return ExperimentReport(
        name="homogeneity", inputs=_digest(problem, config, k=k),
        measured=[("max_scaling_mismatch", worst)], bound=1e-10,
        passed=worst <= 1e-10)


# -- asymptotic statements -------------------------------------------


def long_time_experiment(problem, config):
    """Decay of time increments at the stated rate, and convergence of the
    flow to the steady-state fixed point."""
    h = problem.h
    if h <= 1.0:
        raise PreconditionError("the decay statement needs h > 1")
    if problem.g.time_dependent:
        raise PreconditionError("long-time behavior needs a time-independent "
                                "boundary datum")
    # March to the steady regime, capturing at geometrically spaced times
    # (ratio 2^(1/4), so adjacent captures satisfy tau <= t/4), until the sup
    # change per unit time between captures falls below steady_tolerance/10.
    scheme = Scheme(problem, config)
    stack = Stack.of(scheme, problem)
    data_sup = float(np.abs(stack.U).max())
    dt0 = scheme.discrete_operator(stack.U[0], h, config.cfl_factor)[1]
    caps = itertools.accumulate(itertools.repeat(2.0 ** 0.25), mul, initial=8.0 * dt0)
    captures = [(0.0, stack.U[0].copy())]
    for _ in march(stack, config, caps):
        if stack.at_stop:
            t_prev, prev = captures[-1]
            rate = float(np.abs(stack.U[0] - prev).max()) / (stack.t - t_prev)
            captures = captures[-(DECAY_PAIRS + 2):] + [(stack.t, stack.U[0].copy())]
            if rate < config.steady_tolerance / 10.0:
                break
    t_large, u_final = captures[-1]

    measured = []
    worst_ratio = 0.0
    pairs = list(zip(captures[:-1], captures[1:]))[-DECAY_PAIRS:]
    for (t_lo, u_lo), (t_hi, u_hi) in pairs:
        tau = t_hi - t_lo
        if tau > t_hi / 4.0:        # the bound needs a lag well inside (0, t)
            continue
        diff = float(np.abs(u_hi - u_lo).max())
        decay = (2.0 * data_sup / (h - 1.0)) \
            * (1.0 - tau / t_hi) ** (h / (1.0 - h)) * (tau / t_hi)
        measured.append((f"increment_t={t_hi:.4g}", diff))
        measured.append((f"decay_bound_t={t_hi:.4g}", 1.5 * decay))
        worst_ratio = max(worst_ratio, diff / (1.5 * decay))
    measured.append(("worst_increment_over_bound", worst_ratio))
    decay_ok = worst_ratio <= 1.0
    steady = solve_elliptic_steady(problem, config, scheme=scheme)
    steady_gap = float(np.abs(u_final - steady.values).max())

    coords = problem.grid.coords()
    lip = float(np.linalg.norm(
        problem.g.euclidean_gradient(coords, 0.0), axis=-1).max())
    bound = 10.0 * lip * problem.grid.delta + config.steady_tolerance
    measured += [("steady_gap", steady_gap), ("t_large", t_large),
                 ("lip_g", lip)]
    passed = decay_ok and steady_gap <= bound
    detail = "" if decay_ok else "a time increment exceeded 1.5x the decay bound"
    return ExperimentReport(
        name="long_time", inputs=_digest(problem, config),
        measured=measured, bound=bound, passed=passed, detail=detail)


def h_limit_experiment(problem, config):
    """Solutions approach the h = 1 solution monotonically along H_SEQUENCE."""
    reference = solve_parabolic(replace(problem, h=1.0), config).final
    gaps = []
    for hh in H_SEQUENCE:
        final = solve_parabolic(replace(problem, h=float(hh)), config).final
        gaps.append(float(np.abs(final.values - reference.values).max()))
    monotone = all(b <= a + 1e-3 for a, b in itertools.pairwise(gaps))
    bound = 5.0 * problem.grid.delta
    passed = monotone and gaps[-1] <= bound
    return ExperimentReport(
        name="h_limit", inputs=_digest(problem, config, h_sequence=list(H_SEQUENCE)),
        measured=[(f"gap_h={hh}", g) for hh, g in zip(H_SEQUENCE, gaps)],
        bound=bound, passed=passed,
        detail="" if monotone else "gaps to the h=1 solution are not decreasing")


def commuting_diagram_experiment(problem, config):
    """Large-time limit of the h -> 1 flow versus the elliptic fixed point:
    the two limit operations land on the same field."""
    result, t_large = solve_to_steady(replace(problem, h=1.0), config)
    steady = solve_elliptic_steady(problem, config)
    gap = float(np.abs(result.final.values - steady.values).max())
    bound = 5.0 * problem.grid.delta
    return ExperimentReport(
        name="commuting_diagram", inputs=_digest(problem, config),
        measured=[("limit_gap", gap), ("t_large", t_large)],
        bound=bound, passed=gap <= bound)


# -- variational doubling machinery ----------------------------------


def doubling_penalty_experiment(G, u, v, penalty, tau_sequence):
    """Exhaustive maximization of u(p) - v(q) - tau*phi(p, q) over node pairs.

    As tau grows the penalized maximizers merge: tau*phi(p_tau, q_tau)
    decreases to (near) zero and the gauge distance between the pair
    collapses.
    """
    if u.grid != v.grid:
        raise PreconditionError("the two grid functions must share a grid")
    taus = [float(tau) for tau in tau_sequence]
    if not taus or not all(0.0 < tau < np.inf for tau in taus) or any(
            b <= a for a, b in itertools.pairwise(taus)):
        raise PreconditionError(
            f"tau_sequence must be nonempty, positive, finite and increasing, got {taus}")
    coords = u.grid.coords()
    phi = calculus.doubling_penalty(
        G, penalty, coords[:, None, :], coords[None, :, :])
    objective0 = u.values[:, None] - v.values[None, :]

    measured = []
    penalties = []
    distances = []
    for tau in taus:
        flat = int(np.argmax(objective0 - tau * phi))   # ties: lowest index
        i, j = np.unravel_index(flat, phi.shape)
        penalties.append(float(tau * phi[i, j]))
        distances.append(float(groups.gauge_distance(G, coords[i], coords[j])))
        measured.append((f"tau_phi_tau={tau:g}", penalties[-1]))
    measured.append(("final_gauge_distance", distances[-1]))
    decreasing = all(b <= a + 1e-12 for a, b in itertools.pairwise(penalties[1:]))
    bound = 10.0 * u.grid.delta
    passed = decreasing and penalties[-1] <= bound
    return ExperimentReport(
        name="doubling_penalty",
        inputs={"group": G.label, "cells": list(u.grid.cells),
                "m": penalty.m, "taus": taus},
        measured=measured, bound=bound, passed=passed,
        detail="" if decreasing else "tau*phi failed to decrease")


# -- derivative cross-checks -----------------------------------------


def _polynomial_corpus(dim):
    """All nonconstant monomials x^alpha with |alpha| <= 3, as text such as
    ``x1*x1*x2``."""
    return [ScalarField.from_expression("*".join(f"x{i + 1}" for i in alpha), dim)
            for total in range(1, 4)
            for alpha in itertools.combinations_with_replacement(range(dim), total)]


def jet_twist_oracle_check(G, n_points=8, rng=None):
    """Frame-matrix jet twisting versus differentiation along the group law."""
    rng = rng or np.random.default_rng(0)
    corpus = _polynomial_corpus(G.total_dim)
    points = rng.uniform(-1.5, 1.5, size=(n_points, G.total_dim))
    worst = 0.0
    for f in corpus:
        for p in points:
            direct = calculus.field_jet(G, f, p)
            twisted = calculus.twist_jet(
                G, p, f.time_slope(p), f.euclidean_gradient(p),
                f.euclidean_hessian(p))
            worst = max(worst,
                        float(np.abs(direct.eta - twisted.eta).max()),
                        float(np.abs(direct.X - twisted.X).max()))
    return ExperimentReport(
        name="jet_twist_oracle",
        inputs={"group": G.label, "corpus_size": len(corpus),
                "n_points": n_points},
        measured=[("max_jet_mismatch", worst)], bound=1e-8,
        passed=worst <= 1e-8)


# -- registry ---------------------------------------------------------


def _run_comparison(problem, config, rng):
    offset = 0.5 + rng.random()
    return comparison_experiment(problem, config, problem.psi,
                                 problem.psi + offset)


def _run_boundary_stability(problem, config, rng):
    shift = 0.3 + 0.7 * rng.random()
    return boundary_stability_experiment(problem, config, problem.g,
                                         problem.g + shift)


def _run_doubling(problem, config, rng):
    # Canonical 17x17 planar demonstration: the tau range is capped so the
    # optimal pair displacement stays grid-resolved (several spacings wide);
    # past that the discrete argmax quantizes and tau*phi stops decreasing.
    G = groups.euclidean_group(2)
    grid = GridSpec(box=((-1.0, 1.0), (-1.0, 1.0)), cells=(16, 16))
    coords = grid.coords()
    center = rng.uniform(-0.6, 0.6, size=2)
    base = coords[:, 0] + 0.5 * coords[:, 1]
    bump = 0.1 * np.exp(-np.sum((coords - center) ** 2, axis=-1) / 0.25 ** 2)
    u = GridFunction(grid, base + bump)
    v = GridFunction(grid, base)
    taus = [2.0 ** j for j in range(6)]
    return doubling_penalty_experiment(G, u, v, PenaltySpec(), taus)


# name -> experiment(problem, config, rng), its settings drawn from the problem and rng
EXPERIMENTS = {
    "comparison": _run_comparison,
    "boundary_stability": _run_boundary_stability,
    "sup_bound": lambda problem, config, rng: sup_bound_experiment(problem, config),
    "homogeneity": lambda problem, config, rng: homogeneity_experiment(problem, config, k=2.0),
    "long_time": lambda problem, config, rng: long_time_experiment(problem, config),
    "h_limit": lambda problem, config, rng: h_limit_experiment(problem, config),
    "commuting_diagram":
        lambda problem, config, rng: commuting_diagram_experiment(problem, config),
    "doubling_penalty": _run_doubling,
    "jet_twist_oracle":
        lambda problem, config, rng: jet_twist_oracle_check(problem.group, rng=rng),
}


def run_experiment(name, problem, config=None, rng=None):
    """Run one registered experiment with defaults derived from the problem."""
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment '{name}' (known: {known})")
    start = time.perf_counter()
    report = EXPERIMENTS[name](problem, config or SolverConfig(),
                               rng or np.random.default_rng(0))
    report.runtime_seconds = time.perf_counter() - start
    return report
