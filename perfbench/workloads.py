"""The benchmark's workloads: inputs made from a seed, one operation each,
and the checks on every output.  See perfbench/NOTES.md for why each one
exists and which layer it loads.

Every workload has ``setup()``, returning one set-up time, and ``op(i)``,
running operation ``i`` and returning an ``Outcome``.  Only the program's
public entry points are called, always through their module, so a traced run
sees every call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from sympy.core.cache import clear_cache

from carnotpde import cli, experiments, fields, grid, groups, solver

REFERENCE = Path(__file__).resolve().parent / "reference" / "heis33_seed0.npz"
GOLDEN = 0.6180339887498949


@dataclass
class Outcome:
    seconds: float                  # problem definition to last output
    setup_seconds: float = None     # share of that spent before the first step
    ok: bool = True
    detail: str = ""
    layer: dict = field(default_factory=dict)   # workload-level per-layer values


# -- heis33_march: Heisenberg 33^3, h = 2, horizon 0.4, CLI export ------

# The symmetries of the 33^3 Heisenberg problem: signed permutations of
# (x1, x2); those with determinant -1 also flip x3, so each is a group
# automorphism that maps the box, the grid and the 16-direction set onto
# themselves.  A field composed with one evolves as the composed solution.
_PLANE_MAPS = [np.array(m, dtype=float) for m in (
    [[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
    [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]])]


class Heis33March:
    """One CLI-style solve: define, march with snapshots, export each as CSV."""

    horizon = 0.4
    snapshot_times = (0.1, 0.2, 0.4)
    base = (1.0, 0.5, -0.2)        # x1 + 0.5*x2 - 0.2*x1*x2 (criterion 6)

    def __init__(self, seed, out_dir):
        self.out_dir = Path(out_dir) / "csv"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        if seed == 0:
            self.plane, self.sign, self.offset = _PLANE_MAPS[0], 1.0, 0.0
            self.expr = "x1 + 0.5*x2 - 0.2*x1*x2"
        else:
            rng = np.random.default_rng(seed)
            k = int(rng.integers(16))
            self.plane = _PLANE_MAPS[k % 8]
            self.sign = -1.0 if k >= 8 else 1.0
            self.offset = round(float(rng.uniform(-0.5, 0.5)), 6)
            inv = np.linalg.inv(self.plane)
            a0, b0, c0 = self.base
            lin = self.sign * (a0 * inv[0] + b0 * inv[1])
            cross = self.sign * c0 * (inv[0, 0] * inv[1, 1] + inv[0, 1] * inv[1, 0])
            self.expr = (f"{float(lin[0])!r}*x1 + {float(lin[1])!r}*x2 "
                         f"+ {float(cross)!r}*x1*x2 + {self.offset!r}")

    def define(self):
        G = groups.heisenberg_group()
        box = grid.GridSpec(box=((-1, 1),) * 3, cells=(32, 32, 32), horizon=self.horizon)
        data = fields.ScalarField.from_expression(self.expr, 3)
        problem = solver.CauchyDirichletProblem(G, box, 2.0, data, data)
        config = solver.SolverConfig(cfl_factor=1.0)
        return problem, config, solver.Scheme(problem, config)

    def setup(self):
        clear_cache()
        t0 = time.perf_counter()
        self.define()
        return time.perf_counter() - t0

    def op(self, i):
        clear_cache()
        t0 = time.perf_counter()
        problem, config, scheme = self.define()
        t_setup = time.perf_counter()
        result = solver.solve_parabolic(problem, config, list(self.snapshot_times),
                                        scheme=scheme)
        paths = []
        for idx, snap in enumerate(result.snapshots):
            paths.append(self.out_dir / f"snapshot_{idx:03d}.csv")
            cli.export_snapshot_csv(snap, paths[-1])
        t_end = time.perf_counter()
        ok, detail = self._check(problem, result, paths[-1])
        return Outcome(t_end - t0, t_setup - t0, ok, detail)

    def _expected_final(self, box, ref_final):
        """The recorded seed-0 final field carried through this seed's symmetry."""
        full = np.eye(3)
        full[:2, :2] = self.plane
        full[2, 2] = np.linalg.det(self.plane)
        pre = box.coords() @ np.linalg.inv(full).T
        idx = np.rint((pre - np.array([a for a, _ in box.box])) / box.spacings)
        flat = np.ravel_multi_index(tuple(idx.astype(np.int64).T), box.shape)
        return self.sign * ref_final[flat] + self.offset

    def _check(self, problem, result, last_csv):
        box = problem.grid
        # psi = g is bilinear in (x1, x2) and constant in x3, so its range over
        # the closed box (every lateral datum the stencils read) is its range
        # over the corner nodes: the discrete max principle envelope.
        data = problem.psi(box.coords(), 0.0)
        lo, hi = float(data.min()) - 1e-12, float(data.max()) + 1e-12
        times = [s.time_level for s in result.snapshots]
        if len(times) != 3 or not np.allclose(times, self.snapshot_times, atol=1e-12):
            return False, f"snapshot times {times}"
        for snap in result.snapshots:
            if snap.values.min() < lo or snap.values.max() > hi:
                return False, f"max principle violated at t={snap.time_level}"
        if not result.max_principle_ok:
            return False, "solver reports a max principle violation"
        ref = np.load(REFERENCE)
        if result.steps != int(ref["steps"]):
            return False, f"{result.steps} steps, reference {int(ref['steps'])}"
        err = float(np.abs(result.final.values - self._expected_final(box, ref["final"])).max())
        if err > 1e-12:
            return False, f"final field is {err:.3e} from the reference"
        written = np.loadtxt(last_csv, delimiter=",", skiprows=1, usecols=-1)
        if not np.array_equal(written, result.final.values):
            return False, "CSV does not round-trip the final snapshot"
        return True, ""


# -- heis17_pairs: 40 ordered pairs on Heisenberg 17^3 ------------------


class Heis17Pairs:
    """Ordered pairs (u0, v0 = u0 + offset), each run through one
    comparison_experiment call.  One operation is one h-cycle: three pairs
    with h = 1, 2, 3.  Pairs with h = 1 skip the gradient in the CFL step, so
    single-pair times form clusters and their median jumps between them; a
    cycle's time does not."""

    h_cycle = (1.0, 2.0, 3.0)
    n_cycles = 14
    grad_max = 0.9

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.G = groups.heisenberg_group()
        self.box = grid.GridSpec(box=((-1, 1),) * 3, cells=(16, 16, 16), horizon=0.04)
        self.config = solver.SolverConfig(cfl_factor=1.0)
        interior = self.box.coords()[~self.box.lateral_mask()]
        self.specs = []
        for j in range(self.n_cycles * len(self.h_cycle)):
            c = rng.uniform(-0.5, 0.5, size=6)
            c = [float(x) for x in c * (self.grad_max / _heis_grad_max(c, interior))]
            offset = float(rng.uniform(0.2, 1.0))
            expr = (f"{c[0]!r}*x1 + {c[1]!r}*x2 + {c[2]!r}*x3 + {c[3]!r}*x1*x2 "
                    f"+ {c[4]!r}*x2*x3 + {c[5]!r}*x1*x1")
            self.specs.append((self.h_cycle[j % 3], expr, offset))

    def _define(self, j):
        h, expr, offset = self.specs[j]
        u0 = fields.ScalarField.from_expression(expr, 3)
        v0 = u0 + offset
        return solver.CauchyDirichletProblem(self.G, self.box, h, u0, u0), u0, v0

    def setup(self):
        clear_cache()
        t0 = time.perf_counter()
        for j in range(len(self.h_cycle)):
            self._define(j)
        return time.perf_counter() - t0

    def op(self, i):
        clear_cache()
        first = (i % self.n_cycles) * len(self.h_cycle)
        seconds = setup_seconds = 0.0
        details = []
        for j in range(first, first + len(self.h_cycle)):
            t0 = time.perf_counter()
            problem, u0, v0 = self._define(j)
            t_setup = time.perf_counter()
            report = experiments.comparison_experiment(problem, self.config, u0, v0)
            t_end = time.perf_counter()
            seconds += t_end - t0
            setup_seconds += t_setup - t0
            if not report.passed:
                details.append(f"pair {j}: {report.detail}")
        return Outcome(seconds, setup_seconds, not details, "; ".join(details))


def _heis_grad_max(c, pts):
    """max |(X1 u, X2 u)| over pts for u = c0 x1 + c1 x2 + c2 x3 + c3 x1 x2
    + c4 x2 x3 + c5 x1^2, with X1 = d1 - (x2/2) d3, X2 = d2 + (x1/2) d3."""
    x1, x2, x3 = pts.T
    d1 = c[0] + c[3] * x2 + 2.0 * c[5] * x1
    d2 = c[1] + c[3] * x1 + c[4] * x3
    d3 = c[2] + c[4] * x2
    return float(np.hypot(d1 - 0.5 * x2 * d3, d2 + 0.5 * x1 * d3).max())


# -- line129_flow / line129_elliptic: steady state to accuracy A -------


class Line129Steady:
    """Drive one steady route to sup error A against the exact answer x1.

    The ladder starts at steady_tolerance = A and tightens it tenfold per
    rung; the operation fails if tolerance 1e-12 still misses A.
    """

    ladder = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
    accuracy = ladder[0]

    def __init__(self, seed, out_dir, route):
        self.route = route
        self.phase = float(np.random.default_rng(seed).random())

    def data_coefficient(self, i):
        # Operations walk [0.5, 1] by a golden-ratio sequence from a seeded
        # start, so a run's median covers the range rather than one point.
        return 0.5 + 0.5 * ((self.phase + i * GOLDEN) % 1.0)

    def _define(self, a):
        G = groups.euclidean_group(1)
        box = grid.GridSpec(box=((0.0, 1.0),), cells=(128,), horizon=1.0)
        data = fields.ScalarField.from_expression(f"x1 + {a!r}*x1*(1 - x1)", 1)
        problem = solver.CauchyDirichletProblem(G, box, 2.0, data, data)
        return problem, solver.Scheme(problem, solver.SolverConfig(cfl_factor=1.0))

    def setup(self):
        clear_cache()
        t0 = time.perf_counter()
        self._define(self.data_coefficient(0))
        return time.perf_counter() - t0

    def op(self, i):
        clear_cache()
        t0 = time.perf_counter()
        problem, scheme = self._define(self.data_coefficient(i))
        t_setup = time.perf_counter()
        exact = problem.grid.coords()[:, 0]
        for rungs, tol in enumerate(self.ladder, start=1):
            config = solver.SolverConfig(cfl_factor=1.0, steady_tolerance=tol)
            if self.route == "flow":
                result, _ = solver.solve_to_steady(problem, config, scheme=scheme)
                values = result.final.values
            else:
                values = solver.solve_elliptic_steady(problem, config, scheme=scheme).values
            err = float(np.abs(values - exact).max())
            if err <= self.accuracy:
                break
        t_end = time.perf_counter()
        ok = err <= self.accuracy
        detail = "" if ok else f"sup error {err:.3e} > {self.accuracy:g} at tolerance {tol:g}"
        return Outcome(t_end - t0, t_setup - t0, ok, detail,
                       {f"solver.rungs_{self.route}": rungs,
                        f"solver.err_{self.route}": err})


WORKLOADS = {
    "heis33_march": Heis33March,
    "heis17_pairs": Heis17Pairs,
    "line129_flow": lambda seed, out: Line129Steady(seed, out, "flow"),
    "line129_elliptic": lambda seed, out: Line129Steady(seed, out, "elliptic"),
}
