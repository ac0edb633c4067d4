"""Monotone explicit semi-Lagrangian solver for the Cauchy-Dirichlet problem
u_t = (h-homogeneous infinite Laplacian of u) on a coordinate box, plus the
certified elliptic steady solve.

The update at an interior node p is

    u'(p) = u(p) + dt * s * (max_eta W + min_eta W - 2 u(p)) / delta^2

where W are the values at the group-flow targets p * exp(delta eta) over a
fixed antipodal direction set and s is the speed |grad|^(h-1) of the
central-difference gradient at every node (h = 1 skips the gradient: s = 1).
A step is the CFL step, trimmed to land on the next stop.  With it each
field's update is a convex combination of its stencil values, which gives
the discrete maximum principle exactly for every h.  The discrete comparison
principle holds exactly for h = 1 only: for h != 1 the speed comes from
central differences of the neighbor values, so where the curvature is
negative raising a neighbor can lower the update, and an ordered pair can
cross (ROADMAP item 1, a monotone update for every h).

A ``Scheme`` is the data-free geometry of one (group, grid, delta, direction
set): one stencil matrix (``grid.build_stencil``), whose first D rows are the
direction set and last 2 n1 the +-e_i of the central-difference gradient,
read by its one ``apply``.  The module holds the most recent geometry, which
Schemes of equal content share (``Scheme``), and cuts a large matrix into
row bands that ``apply`` runs across the CPUs (``_bands``).  A ``Binding`` is
one field's data on it (psi, g, h) and the envelope of every data value
read; it warns where psi and g differ on the lateral nodes, and a problem
reads no data.  ``march`` advances a (B, nodes) ``Stack`` of bound fields one
step at a time: ``Scheme.discrete_operator`` applies the stencil to each
field's row, whose gradient rows give its speed and CFL step, and one min and
max of each updated row check that it is finite and in its envelope.

``solve_elliptic_steady`` finds the fixed point of the same max + min map by
policy iteration (one sparse linear solve per switch of each node's argmax
and argmin directions, by a numpy BiCGSTAB) and certifies it: a checked
super- and subsolution around it bound the error through the discrete
comparison principle.  Where the check fails it falls back to sweeps from the
data extremes, which bracket the fixed point from both sides.
"""

from __future__ import annotations

import functools
import os
import statistics
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import groups
from .grid import GridFunction, GridSpec, build_stencil

MAX_STEPS = 2_000_000     # march steps, policy rounds or bracket sweeps per solve
# Least stored weights per row band of a threaded apply: on 2 CPUs two bands
# break even with one product near 3.5e5 weights (Heisenberg 17^3).
BAND_WEIGHTS = 2 ** 19


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolverConfig:
    cfl_factor: float = 0.5
    direction_samples: int = 16
    steady_tolerance: float = 1e-8            # elliptic solve: certified sup error
    stencil_radius: float = None              # default: the grid spacing delta

    def __post_init__(self):
        if not 0.0 < self.cfl_factor <= 1.0:
            raise ValueError("cfl_factor must lie in (0, 1]")
        if not (4 <= self.direction_samples < np.inf and self.direction_samples % 2 == 0):
            raise ValueError("direction_samples must be a finite even count of at least 4")
        for name in ("steady_tolerance", "stencil_radius"):
            value = getattr(self, name)
            if value is None and name == "stencil_radius":    # the grid spacing
                continue
            if value is None or not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass
class CauchyDirichletProblem:
    group: object
    grid: GridSpec
    h: float
    psi: object                               # initial datum
    g: object                                 # lateral datum

    def __post_init__(self):
        if not 1.0 <= self.h < np.inf:
            raise ValueError(
                f"h = {self.h!r} violates the homogeneity constraint h >= 1, h finite")
        if self.grid.ndim != self.group.total_dim:
            raise ValueError(
                f"grid dimension does not match the group: the box has {self.grid.ndim} "
                f"axes, group '{self.group.label}' has {self.group.total_dim} coordinates")


@functools.cache
def direction_set(n1, samples):
    """Antipodal unit direction samples in the horizontal layer, read-only.

    n1 = 1: +e1, -e1 for any ``samples``, the line's unit sphere having only
    those two points.  n1 = 2: ``samples`` equally spaced angles.  n1 >= 3:
    +e1, -e1, +e2, ... as exact axis vectors, then (samples - 2 n1) / 2 pairs
    +-v_j, j = 1, 2, ...: point j of the Kronecker (R_d) sequence frac(j
    alpha), alpha_k = phi^-k with phi^(n1+1) = phi + 1, mapped to a Gaussian
    point by the inverse normal CDF and normalized.  (Normalizing the cube
    points frac(j alpha) - 1/2 instead repeats directions: point 3j is 3 times
    point j near the centre.)  No random numbers, so a larger count keeps
    every direction of a smaller one.  Below 2 n1 samples raises ValueError."""
    if n1 == 2:
        angles = 2.0 * np.pi * np.arange(samples) / samples
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        # snap round-off (cos(pi/2) = 6e-17) so quadrant directions are exact
        snapped = np.round(dirs) + 0.0
        dirs = np.where(np.abs(dirs - snapped) < 1e-12, snapped, dirs)
    elif n1 == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif samples < 2 * n1:
        raise ValueError(f"direction_samples must be at least 2 n1 = {2 * n1} on a "
                         f"horizontal layer of dimension {n1}, got {samples}")
    else:
        phi = 2.0
        for _ in range(64):                     # the root of phi^(n1+1) = phi + 1
            phi = (1.0 + phi) ** (1.0 / (n1 + 1))
        j = np.arange(1, (samples - 2 * n1) // 2 + 1)[:, None]
        gauss = np.frompyfunc(statistics.NormalDist().inv_cdf, 1, 1)
        v = gauss(j * phi ** -np.arange(1.0, n1 + 1) % 1.0).astype(float)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        dirs = np.concatenate([np.kron(np.eye(n1), [[1.0], [-1.0]]) + 0.0,   # no -0.0
                               np.stack([v, -v], axis=1).reshape(-1, n1)])
    dirs.setflags(write=False)
    return dirs


_held = {}      # the most recent geometry: at most one key and its arrays
_pool = None    # the threads of the banded apply, started by the first one


def _band_product(band, u, out):
    out[...] = band @ u


def _forget_pool():
    global _pool
    _pool = None        # a forked child has none of the parent's pool threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                  # no affinity call on this platform
        return os.cpu_count() or 1


def _bands(matrix):
    """The matrix's rows cut into one band per CPU of about equal weight,
    each at least BAND_WEIGHTS: (rows, csr_array) pairs whose ``data`` and
    ``indices`` are views of the matrix's; () where that is under two bands,
    as on a process restricted to one CPU (``taskset -c 0``).  Every row's
    sum is the one the whole product computes, so the bands' products are
    bit-identical to it."""
    n = min(_cpus(), matrix.nnz // BAND_WEIGHTS)
    if n < 2:
        return ()
    indptr = matrix.indptr
    cuts = [0, *np.searchsorted(indptr, matrix.nnz * np.arange(1, n) // n),
            matrix.shape[0]]
    bands = []
    for start, stop in zip(cuts[:-1], cuts[1:]):
        lo, hi = indptr[start], indptr[stop]
        # the csr_array constructor copies a slice under half its base, so
        # the arrays go onto an empty band of the band's shape
        band = scipy.sparse.csr_array((stop - start, matrix.shape[1]))
        band.data, band.indices = matrix.data[lo:hi], matrix.indices[lo:hi]
        band.indptr = indptr[start:stop + 1] - lo
        bands.append((slice(start, stop), band))
    return tuple(bands)


def _content_key(problem, config, subset):
    """What a Scheme's geometry depends on: the group's layers and structure
    constants, box, cells, stencil radius, direction set and node subset."""
    G, grid = problem.group, problem.grid
    delta = float(config.stencil_radius if config.stencil_radius is not None
                  else grid.delta)
    # box and directions by their bytes: -0.0 and 0.0 stay apart as in the
    # coordinates, and direction counts that give one set share its key
    return (*G.key, np.array(grid.box).tobytes(), grid.cells, delta,
            direction_set(G.horizontal_dim, config.direction_samples).tobytes(),
            None if subset is None else subset.tobytes())


def _geometry(G, grid, delta, kappa, subset):
    """The data-free arrays of a Scheme over the interior nodes ``subset``
    (all when None), frozen read-only; its nodes and matrix columns are every
    node, or the subset and the nodes its rows read."""
    full = subset is None
    if full:
        subset = np.nonzero(~grid.lateral_mask())[0]
    elif grid.lateral_mask(subset).any():
        raise ValueError("node subset must lie off the parabolic boundary")
    n1 = G.horizontal_dim
    axes = np.eye(n1).repeat(2, axis=0) * np.resize([1.0, -1.0], (2 * n1, 1))
    is_axis = (kappa[:, None, :] == axes[None]).all(axis=2).any(axis=1)
    # Stencil rows: the directions other than +-e_i, then +e1, -e1, +e2,
    # ... in that order.  The +-e_i a direction set holds lead that order,
    # so max + min reads the first D rows and the gradient the last 2 n1.
    directions = np.concatenate([kappa[~is_axis], axes])
    origins = grid.coords(subset)
    matrix = build_stencil(grid, (
        groups.multiply(G, origins, groups.embed_horizontal(G, delta * d))
        for d in directions), len(directions))
    if full:
        nodes = np.arange(grid.node_count)
    else:
        # columns renumbered to the subset and the nodes its rows read; the
        # renumbering is increasing, so each row keeps its stored order
        nodes = np.union1d(subset, matrix.indices)
        column = np.zeros(grid.node_count, np.int32)
        column[nodes] = np.arange(len(nodes))
        matrix = scipy.sparse.csr_array((matrix.data, column[matrix.indices],
                                         matrix.indptr), shape=(matrix.shape[0], len(nodes)))
    lateral, coords = grid.lateral_mask(nodes), grid.coords(nodes)
    geometry = dict(delta=delta, lateral=lateral, coords=coords,
                    interior_flat=np.searchsorted(nodes, subset),
                    coords_lateral=coords[lateral], directions=directions,
                    n_kappa=len(kappa), _grad_start=len(kappa) - int(is_axis.sum()),
                    matrix=matrix, bands=_bands(matrix))
    arrays = list(geometry.values())
    for m in (matrix, *(band for _, band in geometry["bands"])):
        arrays += [m.data, m.indices, m.indptr]
    for a in arrays:
        if isinstance(a, np.ndarray):
            a.setflags(write=False)
    return geometry


class Scheme:
    """The data-free stencil geometry of one (group, grid, delta, direction
    set), and the update of a stack of fields bound to it.

    The geometry's arrays are built once per content key and shared,
    read-only, by every Scheme of equal content while its key is the most
    recent one: the pairs of a comparison block, the h of an h-limit sweep,
    the experiments of one ``verify``.  The horizon, h, the data and the step
    settings are not part of the key.  A new key drops the held geometry
    before its own build, so the module never holds two.  With a
    ``node_subset`` of interior nodes, the node arrays (``coords``,
    ``lateral``, a stack's columns) run over the subset and the nodes its
    stencil rows read only, in ascending flat-index order."""

    def __init__(self, problem, config=None, node_subset=None):
        config = config or SolverConfig()
        subset = None if node_subset is None else np.array(node_subset, dtype=np.int64)
        self.key = _content_key(problem, config, subset)
        geometry = _held.get(self.key)
        if geometry is None:
            _held.clear()       # before the build, so two are never held at once
            geometry = _geometry(problem.group, problem.grid, self.key[4],  # radius
                                 direction_set(problem.group.horizontal_dim,
                                               config.direction_samples), subset)
            _held[self.key] = geometry
        self.__dict__.update(geometry)

    @classmethod
    def of(cls, problem, config, scheme):
        """``scheme`` when given, checked against the content key of
        (problem, config); else the Scheme of (problem, config)."""
        if scheme is None:
            return cls(problem, config)
        if scheme.key != _content_key(problem, config, None):
            raise ValueError("the scheme was built for another group, box, cells, "
                             "stencil radius, direction count or node subset")
        return scheme

    def apply(self, u):
        """One field's values at every flow target, shape (directions, K):
        one product, or one per row band, the first in the calling thread."""
        if not self.bands:
            return (self.matrix @ u).reshape(len(self.directions), -1)
        global _pool
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cpus() - 1), "carnotpde-apply")
        # each band's own thread writes its slice: one concatenate of the
        # products would copy them all in this thread
        out = np.empty(self.matrix.shape[0])
        (rows, first), *rest = self.bands
        pending = [_pool.submit(_band_product, band, u, out[r]) for r, band in rest]
        _band_product(first, u, out[rows])
        for p in pending:
            p.result()
        return out.reshape(len(self.directions), -1)

    def gradient(self, W):
        """Central differences along the layer-1 axes from the +-e_i rows of
        one field's apply, shape (n1, K)."""
        W = W[self._grad_start:]
        return (W[0::2] - W[1::2]) / (2.0 * self.delta)

    def kappa(self, u, W):
        """Median curvature (max + min of flow neighbors - 2u) / delta^2 of
        one field's node values u from its apply W; shape (K,)."""
        W, u = W[:self.n_kappa], u[self.interior_flat]
        return (W.max(axis=0) + W.min(axis=0) - 2.0 * u) / self.delta ** 2

    def discrete_operator(self, u, h, cfl_factor=1.0):
        """Speed times median curvature of one field's (nodes,) values u at
        exponent h, shape (K,), and the step its speed allows, cfl_factor
        delta^2 / (2 max(1, |grad|^(h-1))), from one apply."""
        W = self.apply(u)
        op, cap = self.kappa(u, W), 1.0
        if h != 1.0:
            # the squares summed axis by axis, not by numpy's slow short reduce
            g = self.gradient(W)
            sq = g[0] * g[0]
            for c in g[1:]:
                sq += c * c
            grad = np.sqrt(sq)
            op *= grad ** (h - 1.0)
            cap = max(1.0, float(grad.max()) ** (h - 1.0))
        return op, cfl_factor * self.delta ** 2 / (2.0 * cap)

    def step(self, stack, config, t_stop=np.inf):
        """One explicit Euler step of a stack on this geometry, in place.  dt
        is the smallest CFL step of the stack, trimmed to land on t_stop.  A
        non-finite value after the update raises SolverError; a row outside
        its data envelope clears ``stack.max_principle_ok``."""
        ops, stack.cfl = zip(*[self.discrete_operator(u, f.h, config.cfl_factor)
                               for u, f in zip(stack.U, stack.fields)])
        stack.dt = min(min(stack.cfl), t_stop - stack.t)
        stack.t += stack.dt
        stack.steps += 1
        for row, f, op in zip(stack.U, stack.fields, ops):
            row[self.interior_flat] += stack.dt * op
            row[self.lateral] = f.lateral(stack.t)
            lo, hi = row.min(), row.max()
            if not -np.inf < lo <= hi < np.inf:      # a NaN fails every comparison
                bad = int(np.nonzero(~np.isfinite(row))[0][0])
                raise SolverError(
                    f"non-finite value at node {bad} after t={stack.t:.6g}; "
                    f"check the CFL step restriction")
            stack.max_principle_ok = stack.max_principle_ok and bool(
                lo >= f.data_min - 1e-12 and hi <= f.data_max + 1e-12)


class Binding:
    """One field's data on a Scheme's geometry: initial datum psi, lateral
    datum g and exponent h.  g's lateral values are evaluated once when g
    does not depend on t and once per time level otherwise; data_min and
    data_max bound every data value read so far."""

    def __init__(self, scheme, psi, g, h):
        self.scheme, self.psi, self.g, self.h = scheme, psi, g, h
        self._lateral = None                  # (t, g at the lateral nodes)
        self.data_min, self.data_max = np.inf, -np.inf

    def record(self, values):
        """Widen the data envelope over ``values``; returns them."""
        if values.size:
            self.data_min = min(self.data_min, float(values.min()))
            self.data_max = max(self.data_max, float(values.max()))
        return values

    def lateral(self, t):
        """g at the lateral nodes at time t."""
        if self._lateral is None or (self.g.time_dependent and t != self._lateral[0]):
            values = np.asarray(self.g(self.scheme.coords_lateral, t), dtype=float)
            self._lateral = (t, self.record(values))
        return self._lateral[1]

    def initial(self):
        """psi at every node, g at the lateral ones, at t = 0; warns where they differ."""
        values = np.array(self.psi(self.scheme.coords, 0.0), dtype=float)
        lateral = self.lateral(0.0)
        gap = np.abs(lateral - values[self.scheme.lateral]).max(initial=0.0)
        if gap > 1e-12:
            warnings.warn(f"initial and lateral data disagree on the boundary (max gap "
                          f"{gap:.3e}); lateral nodes follow the boundary datum")
        values[self.scheme.lateral] = lateral
        return values


class Stack:
    """A (B, nodes) stack of fields bound to one geometry, as ``march``
    leaves it after its latest step.  It starts at t = 0 from U, each
    field's initial values by default; a given U is copied as it is."""

    def __init__(self, fields, U=None):
        self.fields = list(fields)
        self.scheme = self.fields[0].scheme
        if any(f.scheme is not self.scheme for f in self.fields):
            raise ValueError("the fields of a stack must share one geometry")
        self.U = (np.stack([f.initial() for f in self.fields]) if U is None
                  else np.array(U, dtype=float, ndmin=2))
        for f, row in zip(self.fields, self.U):
            f.record(row)
        self.t, self.steps, self.dt, self.cfl = 0.0, 0, 0.0, None
        self.at_stop = False              # the latest step landed on a stop
        self.max_principle_ok = True      # every step inside the data envelope

    @classmethod
    def of(cls, scheme, problem):
        """The one-field stack of a problem at its initial data."""
        return cls([Binding(scheme, problem.psi, problem.g, problem.h)])


def march(stack, config, stops=None):
    """Advance ``stack`` on its geometry, yielding it after every step.

    With ``stops``, an increasing iterable of times, each step is trimmed to
    land on the next stop exactly and the march ends on the last one;
    without, it runs until the caller stops asking.  Every step checks each
    field against the envelope of the data it has read (the discrete maximum
    principle, ``Stack.max_principle_ok``); the march raises SolverError past
    ``MAX_STEPS``, and ValueError before its first step on a node-subset
    geometry, whose rows read nodes that it would never update.
    """
    scheme = stack.scheme
    if len(scheme.interior_flat) + np.count_nonzero(scheme.lateral) < len(scheme.lateral):
        raise ValueError("a node-subset geometry cannot be marched: its rows read "
                         "nodes that no step updates")
    stops = None if stops is None else iter(stops)
    stop = np.inf if stops is None else next(stops, None)
    while stop is not None:
        scheme.step(stack, config, stop)
        if stack.steps > MAX_STEPS:
            raise SolverError(f"exceeded MAX_STEPS={MAX_STEPS}")
        stack.at_stop = (stops is not None
                         and abs(stack.t - stop) <= 1e-12 * max(1.0, stop))
        yield stack
        if stack.at_stop:
            stop = next(stops, None)


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

    @classmethod
    def of(cls, stack, snapshots):
        """The result of a one-field march."""
        field = stack.fields[0]
        return cls(snapshots, field.data_min, field.data_max, stack.steps,
                   stack.dt, stack.max_principle_ok)


def solve_parabolic(problem, config=None, snapshot_times=None, scheme=None):
    """March from the initial datum to the last snapshot time, collecting a
    snapshot at each; without ``snapshot_times``, one at the horizon.

    Snapshot times must be distinct and lie in [0, horizon]; the step is
    trimmed to land on each exactly, and the march stops on the last one,
    which may come before the horizon.
    """
    config = config or SolverConfig()
    grid = problem.grid
    times = sorted(() if snapshot_times is None else snapshot_times) or [grid.horizon]
    if not np.isfinite(times).all():
        raise ValueError(f"snapshot_times must be finite, got {times}")
    if times[0] < 0.0:
        raise ValueError("snapshot time before t = 0")
    if times[-1] > grid.horizon + 1e-12:
        raise ValueError("snapshot time beyond the horizon")
    if len(set(times)) < len(times):
        raise ValueError("repeated snapshot time")
    stack = Stack.of(Scheme.of(problem, config, scheme), problem)
    snapshots = []
    if times[0] <= 1e-14:
        snapshots.append(GridFunction(grid, stack.U[0].copy(), 0.0))
        times.pop(0)
    for _ in march(stack, config, times):
        if stack.at_stop:
            snapshots.append(GridFunction(grid, stack.U[0].copy(), stack.t))
    return SolveResult.of(stack, snapshots)


def solve_to_steady(problem, config=None, scheme=None):
    """March until the sup change per unit time over 25 steps falls below
    steady_tolerance / 10.  Returns (SolveResult, t_large).

    The rate stop certifies only that rate: the flow approaches its limit
    ever more slowly, so a small sup change per unit time does not bound the
    distance to the steady state.  ``solve_elliptic_steady`` is the route to
    the fixed point with a certified error."""
    config = config or SolverConfig()
    scheme = Scheme.of(problem, config, scheme)
    stack = Stack.of(scheme, problem)
    ref, t_ref = stack.U.copy(), stack.t
    for _ in march(stack, config):
        if stack.steps % 25 == 0:
            rate = float(np.abs(stack.U - ref).max()) / (stack.t - t_ref)
            if rate < config.steady_tolerance / 10.0:
                break
            ref, t_ref = stack.U.copy(), stack.t
    snap = GridFunction(problem.grid, stack.U[0], stack.t)
    return SolveResult.of(stack, [snap]), stack.t


def solve_elliptic_steady(problem, config=None, scheme=None):
    """The fixed point u* of T(u) = (max + min of the flow neighbors) / 2 on
    the interior, boundary held at the lateral datum (the same for every h),
    to a certified sup error below ``config.steady_tolerance``.

    Policy iteration: from u, each interior node's argmax and argmin
    directions (a, b) fix the linear map T_ab(u) = (W_a + W_b) / 2, with
    T_ab(u) = T(u) at u; the correction (I - A_ab) du = T(u) - u on the
    interior moves u to T_ab's fixed point.  Rounds repeat until the policy
    does, at most ``MAX_STEPS`` of them.  Certificate: with r =
    max|T(u) - u| and phi the exit time of the final policy, (I - A_ab) phi =
    1, the fields u +- eps phi (eps a few r plus round-off at the data scale)
    are checked to be a super- and a subsolution of T; the comparison
    principle then puts u* between them.  Where that check fails (exact
    argmax ties: a constant datum, plateaus of max, min or abs, data in x3
    alone on Heisenberg) the fixed point is bracketed instead by sweeps of T
    from the constant minimum and maximum of g on the lateral nodes.
    """
    config = config or SolverConfig()
    scheme = Scheme.of(problem, config, scheme)
    u = np.array(problem.g(scheme.coords, 0.0), dtype=float)
    I = scheme.interior_flat
    round_off = 64.0 * np.finfo(float).eps * np.abs(u[scheme.lateral]).max()
    policy, phi, seen, r_prev = None, None, set(), np.inf
    for _ in range(MAX_STEPS):
        W = scheme.apply(u)[:scheme.n_kappa]
        a, b = W.argmax(axis=0), W.argmin(axis=0)
        res = 0.5 * (W.max(axis=0) + W.min(axis=0)) - u[I]
        r = float(np.abs(res).max())
        key = a.tobytes() + b.tobytes()
        repeated = key == policy
        if not repeated:
            if key in seen:
                break
            seen.add(key)
            policy, phi = key, None
            system = _policy_system(scheme, a, b)
        if repeated or r <= round_off:
            if phi is None:
                phi = _bicgstab(system, np.ones(len(I)), 1e-4)
            gap = _certify(scheme, u, phi, 4.0 * r + round_off)
            if gap is not None and gap < config.steady_tolerance:
                return GridFunction(problem.grid, u, np.inf)
            if gap is None or r > 0.5 * r_prev:
                break
        du = _bicgstab(system, res, 1e-12)
        if not np.isfinite(du).all():
            break
        u[I] += du
        r_prev = r
    return GridFunction(problem.grid, _bracket(scheme, u, config), np.inf)


def _policy_system(scheme, a, b):
    """x -> (I - A_ab) x on the interior, A_ab = (P_a + P_b) / 2 the rows of
    each node's directions a and b, restricted to the interior columns."""
    K = len(scheme.interior_flat)
    k = np.arange(K)
    M = scheme.matrix
    A = (0.5 * (M[a * K + k] + M[b * K + k]))[:, scheme.interior_flat]
    return lambda x: x - A @ x


def _bicgstab(matvec, rhs, rtol):
    """Unpreconditioned BiCGSTAB for matvec(x) = rhs from x = 0, until the
    residual's 2-norm falls below rtol |rhs| or after 1000 iterations."""
    x, r = np.zeros_like(rhs), rhs.copy()
    r0, p, v = rhs.copy(), np.zeros_like(rhs), np.zeros_like(rhs)
    rho = alpha = omega = 1.0
    stop = rtol * np.linalg.norm(rhs)
    for _ in range(1000):
        rho_new = r0 @ r
        if np.linalg.norm(r) <= stop or rho_new == 0.0 or omega == 0.0:
            break
        p = r + (rho_new / rho) * (alpha / omega) * (p - omega * v)
        v = matvec(p)
        r0v = r0 @ v
        if r0v == 0.0:
            break
        alpha = rho_new / r0v
        s = r - alpha * v
        t = matvec(s)
        tt = t @ t
        omega = (t @ s) / tt if tt > 0.0 else 0.0
        x += alpha * p + omega * s
        r = s - omega * t
        rho = rho_new
    return x


def _sweep(scheme, u):
    """T(u) = (max + min of the flow neighbors) / 2 on the interior."""
    W = scheme.apply(u)[:scheme.n_kappa]
    return 0.5 * (W.max(axis=0) + W.min(axis=0))


def _certify(scheme, u, phi, eps):
    """max(hi - lo) for hi, lo = u +- eps phi on the interior if T(hi) <= hi
    and T(lo) >= lo there, else None."""
    I = scheme.interior_flat
    hi, lo = u.copy(), u.copy()
    hi[I] += eps * phi
    lo[I] -= eps * phi
    if (_sweep(scheme, hi) <= hi[I]).all() and (_sweep(scheme, lo) >= lo[I]).all():
        return float((hi - lo).max())
    return None


def _bracket(scheme, u, config):
    """Sweeps of T from the constant extremes of u's lateral entries (boundary
    held as in u), until they are within steady_tolerance; the midpoint."""
    I = scheme.interior_flat
    lo, hi = u.copy(), u.copy()
    lo[I], hi[I] = u[scheme.lateral].min(), u[scheme.lateral].max()
    for _ in range(MAX_STEPS):
        if (hi - lo).max() < config.steady_tolerance:
            return 0.5 * (lo + hi)
        lo[I], hi[I] = _sweep(scheme, lo), _sweep(scheme, hi)
    raise SolverError(
        f"steady bracket did not close within MAX_STEPS={MAX_STEPS}")
