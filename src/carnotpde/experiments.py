"""Verification experiments over the solver.

Each experiment runs a concrete numerical setup, measures the quantities a
statement constrains, and reports pass/fail against the stated bound.  The
exact scheme identities (comparison, boundary stability, sup bound,
homogeneity) are checked at round-off tolerances; the asymptotic statements
(decay, long-time limit, h -> 1 limit, commuting diagram) carry
grid-scaled tolerances.
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


class PreconditionError(ValueError):
    """An experiment's hypothesis fails on the supplied data."""


@dataclass
class ExperimentReport:
    name: str
    inputs: dict
    measured: list                 # (label, value) pairs
    bound: float = None
    passed: bool = False
    runtime_seconds: float = 0.0
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


def _timer():
    start = time.perf_counter()
    return lambda: time.perf_counter() - start


# -- exact scheme identities -----------------------------------------


def comparison_experiment(problem, config, u0, v0):
    """Evolve an ordered pair with a shared time step; the gap never flips sign."""
    elapsed = _timer()
    grid = problem.grid
    scheme = Scheme(problem, config)

    coords = scheme.coords
    gap0 = float((u0(coords, 0.0) - v0(coords, 0.0)).max())
    if gap0 > 1e-12:
        raise PreconditionError(
            f"initial data are not ordered: max(u0 - v0) = {gap0:.3e} > 0")
    # the lateral data can change with t only when a field names it
    levels = 9 if u0.time_dependent or v0.time_dependent else 1
    for t in np.linspace(0.0, grid.horizon, levels):
        bgap = float((u0(scheme.coords_lateral, t)
                      - v0(scheme.coords_lateral, t)).max())
        if bgap > 1e-12:
            raise PreconditionError(
                f"boundary data are not ordered at t={t:.3g}: gap {bgap:.3e}")

    stack = Stack([Binding(scheme, u0, u0, problem.h),
                   Binding(scheme, v0, v0, problem.h)])
    gap = stack.U[0] - stack.U[1]
    worst, worst_at = float(gap.max()), (int(np.argmax(gap)), 0.0)
    for _ in march(stack, config, [grid.horizon]):
        gap = stack.U[0] - stack.U[1]
        if gap.max() > worst:
            worst, worst_at = float(gap.max()), (int(np.argmax(gap)), stack.t)
    passed = worst <= 1e-12
    detail = "" if passed else f"ordering violated at node {worst_at[0]}, t={worst_at[1]:.6g}"
    return ExperimentReport(
        name="comparison", inputs=_digest(problem, config),
        measured=[("max_u_minus_v", worst)], bound=1e-12,
        passed=passed, runtime_seconds=elapsed(), detail=detail)


def boundary_stability_experiment(problem, config, g1, g2):
    """Two boundary data, one scheme: interior gap stays below the data gap,
    taken over every data value the march reads: the initial slice and the
    lateral nodes of every time level."""
    elapsed = _timer()
    scheme = Scheme(problem, config)
    stack = Stack([Binding(scheme, g1, g1, problem.h),
                   Binding(scheme, g2, g2, problem.h)])
    gap = np.abs(stack.U[0] - stack.U[1])
    data_gap = sol_gap = float(gap.max())         # initial slice
    for _ in march(stack, config, [problem.grid.horizon]):
        gap = np.abs(stack.U[0] - stack.U[1])
        data_gap = max(data_gap, float(gap[scheme.lateral].max()))
        sol_gap = max(sol_gap, float(gap.max()))
    bound = data_gap + 1e-10
    return ExperimentReport(
        name="boundary_stability", inputs=_digest(problem, config),
        measured=[("sup_solution_gap", sol_gap), ("sup_data_gap", data_gap)],
        bound=bound, passed=sol_gap <= bound, runtime_seconds=elapsed())


def sup_bound_experiment(problem, config):
    """Every time level stays inside the envelope of the boundary/initial data."""
    elapsed = _timer()
    grid = problem.grid
    times = list(np.linspace(0.0, grid.horizon, 6)[1:])
    result = solve_parabolic(problem, config, snapshot_times=times)
    data_sup = max(abs(result.data_min), abs(result.data_max))
    sol_sup = max(s.sup_norm() for s in result.snapshots)
    bound = data_sup + 1e-12
    return ExperimentReport(
        name="sup_bound", inputs=_digest(problem, config),
        measured=[("sup_solution", sol_sup), ("sup_data", data_sup)],
        bound=bound, passed=sol_sup <= bound and result.max_principle_ok,
        runtime_seconds=elapsed())


def homogeneity_experiment(problem, config, k):
    """Scaling the data by k^(1/(h-1)) and the step by 1/k commutes with the
    scheme exactly, level by level."""
    elapsed = _timer()
    h = problem.h
    if h <= 1.0:
        raise PreconditionError("the scaling identity needs h > 1")
    if k <= 0:
        raise PreconditionError("scaling factor k must be positive")
    c = k ** (1.0 / (h - 1.0))

    scheme = Scheme(problem, config)
    u = Stack.of(scheme, problem)
    v = Stack([Binding(scheme, problem.psi * c, problem.g * c, h,
                       c * u.fields[0].eps_g)])
    # half the tighter CFL step of the two marches: v's bound is the tighter
    # one when k < 1
    dt = 0.5 * min(u.cfl_dt(config)[0], k * v.cfl_dt(config)[0])
    steps = max(4, int(round(problem.grid.horizon / dt)))

    worst = float(np.abs(v.U - c * u.U).max())
    lockstep = zip(march(u, replace(config, dt=dt)),
                   march(v, replace(config, dt=dt / k)))
    for _ in itertools.islice(lockstep, steps):
        worst = max(worst, float(np.abs(v.U - c * u.U).max()))
    return ExperimentReport(
        name="homogeneity", inputs=_digest(problem, config, k=k),
        measured=[("max_scaling_mismatch", worst)], bound=1e-10,
        passed=worst <= 1e-10, runtime_seconds=elapsed())


# -- asymptotic statements -------------------------------------------


def long_time_experiment(problem, config, n_pairs=8):
    """Decay of time increments at the stated rate, and convergence of the
    flow to the steady-state fixed point."""
    elapsed = _timer()
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
    caps = itertools.accumulate(itertools.repeat(2.0 ** 0.25), mul,
                                initial=8.0 * stack.cfl_dt(config)[0])
    captures = [(0.0, stack.U[0].copy())]
    for _ in march(stack, config, caps):
        if stack.at_stop:
            t_prev, prev = captures[-1]
            rate = float(np.abs(stack.U[0] - prev).max()) / (stack.t - t_prev)
            captures = captures[-(n_pairs + 2):] + [(stack.t, stack.U[0].copy())]
            if rate < config.steady_tolerance / 10.0:
                break
    t_large, u_final = captures[-1]

    measured = []
    worst_ratio = 0.0
    pairs = list(zip(captures[:-1], captures[1:]))[-n_pairs:]
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
        measured=measured, bound=bound, passed=passed,
        runtime_seconds=elapsed(), detail=detail)


def h_limit_experiment(problem, config, h_sequence=(2.0, 1.5, 1.25, 1.1)):
    """Solutions approach the h = 1 solution monotonically as h decreases."""
    elapsed = _timer()
    if any(hh <= 1.0 for hh in h_sequence):
        raise PreconditionError("h_sequence must stay strictly above 1")
    if any(b >= a for a, b in itertools.pairwise(h_sequence)):
        raise PreconditionError("h_sequence must decrease toward 1")
    reference = solve_parabolic(replace(problem, h=1.0), config).final
    gaps = []
    for hh in h_sequence:
        final = solve_parabolic(replace(problem, h=float(hh)), config).final
        gaps.append(float(np.abs(final.values - reference.values).max()))
    monotone = all(b <= a + 1e-3 for a, b in itertools.pairwise(gaps))
    bound = 5.0 * problem.grid.delta
    passed = monotone and gaps[-1] <= bound
    return ExperimentReport(
        name="h_limit", inputs=_digest(problem, config, h_sequence=list(h_sequence)),
        measured=[(f"gap_h={hh}", g) for hh, g in zip(h_sequence, gaps)],
        bound=bound, passed=passed, runtime_seconds=elapsed(),
        detail="" if monotone else "gaps to the h=1 solution are not decreasing")


def commuting_diagram_experiment(problem, config):
    """Large-time limit of the h -> 1 flow versus the elliptic fixed point:
    the two limit operations land on the same field."""
    elapsed = _timer()
    result, t_large = solve_to_steady(replace(problem, h=1.0), config)
    steady = solve_elliptic_steady(problem, config)
    gap = float(np.abs(result.final.values - steady.values).max())
    bound = 5.0 * problem.grid.delta
    return ExperimentReport(
        name="commuting_diagram", inputs=_digest(problem, config),
        measured=[("limit_gap", gap), ("t_large", t_large)],
        bound=bound, passed=gap <= bound, runtime_seconds=elapsed())


# -- variational doubling machinery ----------------------------------


def doubling_penalty_experiment(G, u, v, penalty, tau_sequence):
    """Exhaustive maximization of u(p) - v(q) - tau*phi(p, q) over node pairs.

    As tau grows the penalized maximizers merge: tau*phi(p_tau, q_tau)
    decreases to (near) zero and the gauge distance between the pair
    collapses.
    """
    elapsed = _timer()
    if u.grid != v.grid:
        raise PreconditionError("the two grid functions must share a grid")
    taus = [float(tau) for tau in tau_sequence]
    if any(tau <= 0 for tau in taus) or any(
            b <= a for a, b in itertools.pairwise(taus)):
        raise PreconditionError("tau_sequence must be positive and increasing")
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
        runtime_seconds=elapsed(),
        detail="" if decreasing else "tau*phi failed to decrease")


# -- derivative cross-checks -----------------------------------------


def _polynomial_corpus(dim, max_degree=3):
    """All nonconstant monomials x^alpha with |alpha| <= max_degree, as
    text such as ``x1*x1*x2``."""
    return [ScalarField.from_expression("*".join(f"x{i + 1}" for i in alpha), dim)
            for total in range(1, max_degree + 1)
            for alpha in itertools.combinations_with_replacement(range(dim), total)]


def jet_twist_oracle_check(G, corpus=None, n_points=8, rng=None):
    """Frame-matrix jet twisting versus direct vector-field differentiation."""
    elapsed = _timer()
    rng = rng or np.random.default_rng(0)
    corpus = corpus if corpus is not None else _polynomial_corpus(G.total_dim)
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
        passed=worst <= 1e-8, runtime_seconds=elapsed())


# -- registry ---------------------------------------------------------


def _run_comparison(problem, config, rng):
    offset = 0.5 + rng.random()
    return comparison_experiment(problem, config, problem.psi,
                                 problem.psi + offset)


def _run_boundary_stability(problem, config, rng):
    shift = 0.3 + 0.7 * rng.random()
    return boundary_stability_experiment(problem, config, problem.g,
                                         problem.g + shift)


def _run_sup_bound(problem, config, rng):
    return sup_bound_experiment(problem, config)


def _run_homogeneity(problem, config, rng):
    return homogeneity_experiment(problem, config, k=2.0)


def _run_long_time(problem, config, rng):
    return long_time_experiment(problem, config)


def _run_h_limit(problem, config, rng):
    return h_limit_experiment(problem, config)


def _run_commuting(problem, config, rng):
    return commuting_diagram_experiment(problem, config)


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


def _run_jet_twist(problem, config, rng):
    return jet_twist_oracle_check(problem.group, rng=rng)


EXPERIMENTS = {
    "comparison": _run_comparison,
    "boundary_stability": _run_boundary_stability,
    "sup_bound": _run_sup_bound,
    "homogeneity": _run_homogeneity,
    "long_time": _run_long_time,
    "h_limit": _run_h_limit,
    "commuting_diagram": _run_commuting,
    "doubling_penalty": _run_doubling,
    "jet_twist_oracle": _run_jet_twist,
}


def run_experiment(name, problem, config=None, rng=None):
    """Run one registered experiment with defaults derived from the problem."""
    if name not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment '{name}' (known: {known})")
    return EXPERIMENTS[name](problem, config or SolverConfig(),
                             rng or np.random.default_rng(0))
