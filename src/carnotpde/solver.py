"""Monotone explicit semi-Lagrangian solver for the Cauchy-Dirichlet problem
u_t = (h-homogeneous infinite Laplacian of u) on a coordinate box, plus the
steady-state fixed-point iteration.

The update at an interior node p is

    u'(p) = u(p) + dt * s * (max_eta W + min_eta W - 2 u(p)) / delta^2

where W are the values at the group-flow targets p * exp(delta eta) over a
fixed antipodal direction set and s is the gradient-dependent speed
|grad|^(h-1) (relaxed to 0 below the gradient threshold for h > 1, and to 1
for h = 1).  With the CFL step bound the update is a convex combination of
stencil values, which gives the discrete comparison principle and the
discrete maximum principle exactly.

All flow values of a step come from one apply of the scheme's stencil
operator (``grid.StencilOperator``).  Its first D rows are the direction set
and its last 2 n1 rows the +-e_i of the central-difference gradient, shared
with the set where it holds them and appended after it where it does not.
The CFL step applies the gradient rows alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import sympy

from . import groups
from .grid import GridFunction, GridSpec, build_stencil


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    cfl_factor: float = 0.5
    gradient_threshold: float = None          # default: delta
    direction_samples: int = 16
    steady_tolerance: float = 1e-8
    max_steps: int = 2_000_000
    dt: float = None                          # fixed step override
    stencil_radius: float = None              # default: the grid spacing delta

    def __post_init__(self):
        if not 0.0 < self.cfl_factor <= 1.0:
            raise ValueError("cfl_factor must lie in (0, 1]")
        if self.direction_samples < 4:
            raise ValueError("need at least 4 direction samples")


@dataclass
class CauchyDirichletProblem:
    group: object
    grid: GridSpec
    h: float
    psi: object                               # initial datum
    g: object                                 # lateral datum

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("homogeneity exponent h must be >= 1")
        if self.grid.ndim != self.group.total_dim:
            raise ValueError("grid dimension does not match the group")
        lateral = self.grid.coords()[self.grid.lateral_mask()]
        gap = np.abs(self.g(lateral, 0.0) - self.psi(lateral, 0.0)).max()
        if gap > 1e-12:
            warnings.warn(
                f"initial and lateral data disagree on the boundary "
                f"(max gap {gap:.3e}); lateral nodes follow the boundary datum",
                stacklevel=2)


def direction_set(n1, samples):
    """Antipodal unit direction samples in the horizontal layer."""
    if n1 == 1:
        return np.array([[1.0], [-1.0]])
    if n1 == 2:
        angles = 2.0 * np.pi * np.arange(samples) / samples
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        # snap round-off (cos(pi/2) = 6e-17) so quadrant directions are exact
        snapped = np.round(dirs) + 0.0
        return np.where(np.abs(dirs - snapped) < 1e-12, snapped, dirs)
    dirs = []
    for i in range(n1):
        for s in (1.0, -1.0):
            v = np.zeros(n1)
            v[i] = s
            dirs.append(v)
    for i in range(n1):
        for j in range(i + 1, n1):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    v = np.zeros(n1)
                    v[i] = si
                    v[j] = sj
                    dirs.append(v / np.sqrt(2.0))
    return np.array(dirs)


def _row_norms(a):
    """Euclidean norm of each row, summed column by column: the sums of
    np.linalg.norm(a, axis=1) below 8 columns, without its slow short reduce."""
    sq = a[:, 0] * a[:, 0]
    for i in range(1, a.shape[1]):
        sq += a[:, i] * a[:, i]
    return np.sqrt(sq)


def _time_independent(fieldlike):
    expr = getattr(fieldlike, "expr", None)
    if expr is None:
        return False
    return sympy.Symbol("t") not in expr.free_symbols


class Scheme:
    """One problem's stencil operator and the vectorized update machinery."""

    def __init__(self, problem, config=None, node_subset=None):
        self.problem = problem
        self.config = config or SolverConfig()
        G, grid = problem.group, problem.grid
        self.delta = (self.config.stencil_radius
                      if self.config.stencil_radius is not None else grid.delta)
        self.eps_g = (self.config.gradient_threshold
                      if self.config.gradient_threshold is not None else self.delta)
        self.lateral = grid.lateral_mask()
        self.interior = ~self.lateral
        coords = grid.coords()
        self.coords = coords
        if node_subset is None:
            self.interior_flat = np.nonzero(self.interior)[0]
        else:
            self.interior_flat = np.asarray(node_subset, dtype=np.int64)
            if self.lateral[self.interior_flat].any():
                raise ValueError("node subset must consist of interior nodes")
        self.coords_interior = coords[self.interior_flat]
        self.coords_lateral = coords[self.lateral]
        n1 = G.horizontal_dim

        def flow_targets(direction):
            move = groups.embed_horizontal(G, self.delta * direction)
            return groups.multiply(G, self.coords_interior, move)

        kappa = direction_set(n1, self.config.direction_samples)
        axes = np.eye(n1).repeat(2, axis=0) * np.resize([1.0, -1.0], (2 * n1, 1))
        is_axis = (kappa[:, None, :] == axes[None]).all(axis=2).any(axis=1)
        # Operator rows: the directions other than +-e_i, then +e1, -e1, +e2,
        # ... in that order.  The +-e_i a direction set holds lead that order,
        # so max + min reads the first D rows and the gradient the last 2 n1.
        self.directions = np.concatenate([kappa[~is_axis], axes])
        self.n_kappa = len(kappa)
        self._grad_start = len(kappa) - int(is_axis.sum())
        self.operator = build_stencil(grid, (flow_targets(d) for d in self.directions))
        self._grad_operator, self._grad_datum = self.operator.directions(
            self._grad_start, len(self.directions))
        self._g_static = _time_independent(problem.g)
        self._datum_t, self._datum = 0.0, self.operator.datum(problem.g, 0.0)

    # -- stencil evaluation -------------------------------------------

    def datum(self, t):
        """The operator's datum vector at time t: evaluated once when g does
        not depend on t, once per time level otherwise."""
        if not self._g_static and t != self._datum_t:
            self._datum_t, self._datum = t, self.operator.datum(self.problem.g, t)
        return self._datum

    def _gradient(self, W):
        """Central differences from the 2 n1 gradient rows W; shape (Ki, n1)."""
        out = np.empty((W.shape[1], len(W) // 2))
        for i in range(out.shape[1]):
            out[:, i] = (W[2 * i] - W[2 * i + 1]) / (2.0 * self.delta)
        return out

    def discrete_gradient(self, values, t):
        """Central flow differences along the layer-1 axes; shape (Ki, n1).
        Applies only the operator's gradient rows."""
        W = self._grad_operator.apply(values, self.datum(t)[self._grad_datum])
        return self._gradient(W)

    def speed(self, grad_norm):
        h = self.problem.h
        if h == 1.0:
            return np.ones_like(grad_norm)
        return np.where(grad_norm > self.eps_g, grad_norm ** (h - 1.0), 0.0)

    def kappa(self, values, W):
        """Median curvature (max + min of flow neighbors - 2u) / delta^2, from
        the operator's values ``W`` at ``values``."""
        W = W[:self.n_kappa]
        u = values[self.interior_flat]
        return (W.max(axis=0) + W.min(axis=0) - 2.0 * u) / self.delta ** 2

    def discrete_operator(self, values, t):
        """Speed times median curvature, from one apply of the operator."""
        datum = self.datum(t)
        W = self.operator.apply(values, datum)
        s = self.speed(_row_norms(self._gradient(W[self._grad_start:])))
        return s * self.kappa(values, W), datum

    def cfl_dt(self, values, t):
        """Step size certifying a nonnegative own-node coefficient."""
        h = self.problem.h
        cap = 1.0
        if h > 1.0:
            grad = self.discrete_gradient(values, t)
            gmax = float(_row_norms(grad).max())
            cap = max(1.0, gmax ** (h - 1.0))
        return self.config.cfl_factor * self.delta ** 2 / (2.0 * cap)

    def step(self, values, t, dt):
        """One explicit Euler step; returns (new values, new time, the datum
        vector its off-box stencil rows read)."""
        op, datum = self.discrete_operator(values, t)
        new = values.copy()
        new[self.interior_flat] += dt * op
        t_new = t + dt
        new[self.lateral] = self.problem.g(self.coords_lateral, t_new)
        if not np.all(np.isfinite(new)):
            bad = int(np.nonzero(~np.isfinite(new))[0][0])
            raise SolverError(
                f"non-finite value at node {bad} after t={t_new:.6g}; "
                f"check the CFL step restriction")
        return new, t_new, datum


@dataclass
class SolveResult:
    snapshots: list
    data_min: float
    data_max: float
    steps: int
    dt_last: float
    max_principle_ok: bool = True

    @property
    def final(self):
        return self.snapshots[-1]


def solve_parabolic(problem, config=None, snapshot_times=None, scheme=None):
    """March from the initial datum to the horizon, collecting snapshots.

    Snapshot times must be reachable; the step is trimmed to land on them
    exactly and on the horizon.
    """
    config = config or SolverConfig()
    scheme = scheme or Scheme(problem, config)
    grid = problem.grid
    T = grid.horizon
    times = sorted(snapshot_times) if snapshot_times else [T]
    if times[-1] > T + 1e-12:
        raise ValueError("snapshot time beyond the horizon")

    values = problem.psi(scheme.coords, 0.0)
    values = np.asarray(values, dtype=float).copy()
    values[scheme.lateral] = problem.g(scheme.coords_lateral, 0.0)
    t = 0.0
    data_min = float(values.min())
    data_max = float(values.max())
    snapshots = []
    pending = list(times)
    if pending[0] <= 1e-14:
        snapshots.append(GridFunction(grid, values.copy(), 0.0))
        pending.pop(0)

    steps = 0
    dt = 0.0
    while pending:
        target = pending[0]
        dt = config.dt if config.dt is not None else scheme.cfl_dt(values, t)
        dt = min(dt, target - t)
        values, t, datum = scheme.step(values, t, dt)
        for seen in (values[scheme.lateral], datum):   # every datum value read
            if seen.size:
                data_min = min(data_min, float(seen.min()))
                data_max = max(data_max, float(seen.max()))
        steps += 1
        if steps > config.max_steps:
            raise SolverError(f"exceeded max_steps={config.max_steps}")
        if abs(t - target) <= 1e-12 * max(1.0, T):
            snapshots.append(GridFunction(grid, values.copy(), t))
            pending.pop(0)

    ok = all(
        s.values.min() >= data_min - 1e-12 and s.values.max() <= data_max + 1e-12
        for s in snapshots)
    return SolveResult(snapshots=snapshots, data_min=data_min, data_max=data_max,
                       steps=steps, dt_last=dt, max_principle_ok=ok)


def solve_to_steady(problem, config=None, rate_tol=None, check_every=25,
                    scheme=None, t_cap=None):
    """March until the sup change per unit time falls below ``rate_tol``
    (default: steady_tolerance / 10).  Returns (SolveResult, t_large)."""
    config = config or SolverConfig()
    scheme = scheme or Scheme(problem, config)
    rate_tol = rate_tol if rate_tol is not None else config.steady_tolerance / 10.0

    values = problem.psi(scheme.coords, 0.0)
    values = np.asarray(values, dtype=float).copy()
    values[scheme.lateral] = problem.g(scheme.coords_lateral, 0.0)
    t = 0.0
    data_min = float(values.min())
    data_max = float(values.max())
    steps = 0
    dt = config.dt if config.dt is not None else scheme.cfl_dt(values, t)
    while True:
        ref = values
        t_ref = t
        for _ in range(check_every):
            if config.dt is None:
                dt = scheme.cfl_dt(values, t)
            values, t, _ = scheme.step(values, t, dt)
            lat = values[scheme.lateral]
            if lat.size:
                data_min = min(data_min, float(lat.min()))
                data_max = max(data_max, float(lat.max()))
            steps += 1
            if steps > config.max_steps:
                raise SolverError(f"exceeded max_steps={config.max_steps}")
        rate = float(np.abs(values - ref).max()) / (t - t_ref)
        if rate < rate_tol or (t_cap is not None and t >= t_cap):
            break
    snap = GridFunction(problem.grid, values.copy(), t)
    result = SolveResult(snapshots=[snap], data_min=data_min, data_max=data_max,
                         steps=steps, dt_last=dt)
    return result, t


def solve_elliptic_steady(problem, config=None, scheme=None):
    """Fixed point of u <- (max + min of flow neighbors) / 2 on the interior,
    boundary held at the lateral datum; valid for every h."""
    config = config or SolverConfig()
    scheme = scheme or Scheme(problem, config)
    values = np.asarray(problem.g(scheme.coords, 0.0), dtype=float).copy()
    values[scheme.lateral] = problem.g(scheme.coords_lateral, 0.0)
    for sweep in range(config.max_steps):
        W = scheme.operator.apply(values, scheme.datum(0.0))[:scheme.n_kappa]
        new = values.copy()
        new[scheme.interior_flat] = 0.5 * (W.max(axis=0) + W.min(axis=0))
        change = float(np.abs(new - values).max())
        values = new
        if change < config.steady_tolerance:
            return GridFunction(problem.grid, values, np.inf)
    raise SolverError(
        f"steady iteration did not converge within max_steps={config.max_steps}")


# -- node-wise accessors matching the operation contracts -------------


def _flat_index(grid, node):
    if np.isscalar(node):
        return int(node)
    return int(np.ravel_multi_index(tuple(int(i) for i in node), grid.shape))


def discrete_gradient(problem, u, node, config=None):
    """Horizontal central-difference gradient at one node."""
    scheme = Scheme(problem, config)
    grad = scheme.discrete_gradient(u.values, u.time_level)
    flat = _flat_index(problem.grid, node)
    pos = np.nonzero(scheme.interior_flat == flat)[0]
    if pos.size == 0:
        raise ValueError("node is on the parabolic boundary")
    return grad[pos[0]]


def directional_second_difference(problem, u, node, eta):
    """Symmetric second difference along one horizontal flow direction."""
    G, grid = problem.group, problem.grid
    delta = grid.delta
    flat = _flat_index(grid, node)
    p = grid.coords()[flat][None, :]
    eta = np.asarray(eta, dtype=float)
    moves = [groups.embed_horizontal(G, s * delta * eta) for s in (1.0, -1.0)]
    op = build_stencil(grid, [groups.multiply(G, p, move) for move in moves])
    W = op.apply(u.values, op.datum(problem.g, u.time_level))[:, 0]
    return float((W[0] - 2.0 * u.values[flat] + W[1]) / delta ** 2)


def discrete_operator(problem, config, u, node):
    """Speed times median curvature at one node."""
    scheme = Scheme(problem, config)
    op, _ = scheme.discrete_operator(u.values, u.time_level)
    flat = _flat_index(problem.grid, node)
    pos = np.nonzero(scheme.interior_flat == flat)[0]
    if pos.size == 0:
        raise ValueError("node is on the parabolic boundary")
    return float(op[pos[0]])


def cfl_dt(problem, config, u):
    return Scheme(problem, config).cfl_dt(u.values, u.time_level)


def step(problem, config, u):
    scheme = Scheme(problem, config)
    dt = config.dt if config.dt is not None else scheme.cfl_dt(u.values, u.time_level)
    new, t_new, _ = scheme.step(u.values, u.time_level, dt)
    return GridFunction(problem.grid, new, t_new)
