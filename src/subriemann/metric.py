"""Numerical subunit distance fields, ball volumes and growth scans.

The lattice probes are `distance_field`, `ball_volume` and the ball-box
ratio table `ball_box_scan` (with `lattice_for_ball` to size a lattice
per ball); `growth_exponent_scan` reads the exact ball-volume polynomial
instead of a lattice.  The lattice probes run on a `Lattice`
(``LatticeSpec`` is the same class), which also carries the control-set
resolution: the number of random control directions and the step
``tau``.  The subunit distance is approximated
by breadth-first search on a lattice graph: from each node y, one edge
per sampled control direction a leads to the node nearest to
y + tau * sum_i a_i X_i(y), at cost tau (|a| = 1 for every sampled
direction).  The steps are computed one axis at a time for all
directions at once, with the exact coefficients evaluated only where
they are needed: on the sub-grid of the axes they depend on, or at
given nodes; the whole-box mesh and coefficient grids are never built.
A distance field stores the edges as one node-major
``(n_nodes, n_directions)`` int32 table of target nodes, -1 where a step
leaves the box, so a lattice may hold at most 2^31 - 1 nodes, and a
frontier's targets are one gather of its rows.  The search is
level-synchronous in numpy: each level is one masked scatter, which
marks the frontier's targets, keeps the marks on nodes not yet labelled
and makes those the next frontier.  A ball volume alone runs the same
search bounded by its radius: it stops after the last level L with
L * tau < r and computes only the frontier's targets, with the
coefficients evaluated at the frontier nodes, so it builds no tables
and touches only the ball's nodes.  Endpoint snapping to the
lattice is not corrected; it is the dominant error term and shrinks
with the spacing.  The estimate converges to the true distance as
spacing and tau go to zero, but refinement is not guaranteed to be
monotone.  Ball volumes count the lattice cells inside the ball; a ball
that reaches the lattice's boundary shell is truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fields import VectorFieldSystem
from .lattice import Lattice, eval_grid
from .nsw import BallPolynomial, eval_lambda

# the old name of Lattice; perfbench/workloads.py is its one importer
LatticeSpec = Lattice


class MetricError(RuntimeError):
    pass


class BallTruncated(MetricError):
    pass


def control_directions(m: int, n_random: int | None, seed: int = 0) -> np.ndarray:
    """Unit control vectors: +-e_i plus random directions (seeded)."""
    if n_random is None:
        n_random = 2 * m * m
    dirs = []
    for i in range(m):
        e = np.zeros(m)
        e[i] = 1.0
        dirs.append(e.copy())
        dirs.append(-e)
    rng = np.random.default_rng(seed)
    for _ in range(n_random):
        v = rng.normal(size=m)
        norm = np.linalg.norm(v)
        if norm < 1e-12:
            continue
        dirs.append(v / norm)
    return np.array(dirs)


@dataclass
class DistanceField:
    source: tuple[float, ...]
    lattice: Lattice
    values: np.ndarray        # per-node distance, +inf where unreached
    tau: float
    n_directions: int

    def query(self, point) -> float:
        """Distance estimate at the node nearest to ``point``."""
        return float(self.values[self.lattice.node_index(point)])

    def max_reliable_radius(self) -> float:
        """Largest r with B(source, r) surely untruncated by the box."""
        finite = self.values[np.isfinite(self.values)]
        edge_vals = self.values[self.lattice.boundary]
        edge_min = float(edge_vals.min()) if edge_vals.size else math.inf
        return min(edge_min, float(finite.max()) if finite.size else 0.0)


def _controls(system: VectorFieldSystem, lattice: Lattice, seed: int):
    """The lattice's control directions and step tau."""
    directions = control_directions(system.m, lattice.n_random_controls, seed=seed)
    if directions.size == 0:
        raise MetricError("empty control set")
    tau = lattice.tau if lattice.tau is not None else 2.0 * max(lattice.spacing)
    return directions, tau


def _moves(system: VectorFieldSystem, directions: np.ndarray):
    """Per axis k: the control column a_i and coefficient of each field X_i that moves along k."""
    return [[(directions[:, i], f.coeffs[k]) for i, f in enumerate(system.fields)
             if not f.coeffs[k].is_zero()] for k in range(system.dim)]


def _strides(shape) -> np.ndarray:
    return np.cumprod((1,) + shape[:0:-1])[::-1]


def _axis_step(lattice: Lattice, k: int, coords, moves, tau: float, n_directions: int):
    """Every direction's step from ``coords``: node index along axis k, and whether it is inside.

    ``coords`` are node coordinates, one array per axis, broadcast
    together; both results add a last axis over the directions.  The
    step is float64: x_k + tau * sum_i a_i c_ik(x), each coefficient
    evaluated at the given nodes with `eval_grid`, the arithmetic that
    fills the lattice's coefficient grids, then rounded to the nearest
    node.  A zero control adds an exact zero to the running sum, which
    leaves it unchanged, so one pass serves every direction.
    """
    disp = np.zeros(np.broadcast(*coords).shape + (n_directions,))
    for a, coeff in moves:
        disp += a * eval_grid(coeff, coords)[..., None]
    t = coords[k][..., None] + tau * disp
    j = np.rint((t - lattice.box[k][0]) / lattice.spacing[k]).astype(np.int64)
    return j, (j >= 0) & (j < lattice.shape[k])


def _neighbor_tables(system: VectorFieldSystem, lattice: Lattice,
                     directions: np.ndarray, tau: float) -> np.ndarray:
    """Target node per (flat source node, direction), -1 where the step exits.

    Returns one node-major ``(n_nodes, n_directions)`` int32 array, so a
    frontier's targets are one row gather.  The step along axis k runs
    for all directions at once on the sub-grid of the axes that axis k
    and its nonzero coefficients depend on, as open-mesh coordinates
    from the lattice axes; the coefficients are constant along the
    dropped axes, so the targets are the same as on the full grid.  The
    per-axis flat offsets are summed smallest sub-grid first, so only the
    last sum runs over the whole lattice, and each axis's exits are then
    set to -1 through its own sub-grid mask, broadcast: neither a
    whole-lattice mask nor the mesh and coefficient grids are built.
    """
    shape = lattice.shape
    size = int(np.prod(shape))
    if size > np.iinfo(np.int32).max:
        raise MetricError(f"{size} lattice nodes do not fit int32 node indices")
    strides = _strides(shape)
    parts = []
    for k, moves in enumerate(_moves(system, directions)):
        used = {k}.union(*({ax for ax in range(system.dim) if c.degree_in(ax + 1) > 0}
                           for _, c in moves))
        coords = np.ix_(*(ax if i in used else ax[:1] for i, ax in enumerate(lattice.axes)))
        j, inside = _axis_step(lattice, k, coords, moves, tau, len(directions))
        # in-box offsets sum to a node index below size, so int32 holds every partial sum
        parts.append((np.where(inside, j * strides[k], 0).astype(np.int32), ~inside))
    parts.sort(key=lambda part: part[0].size)
    flat = parts[0][0]
    for offset, _ in parts[1:]:
        flat = flat + offset
    for _, exits in parts:
        np.copyto(flat, -1, where=exits)
    return flat.reshape(size, len(directions))


def _frontier_steps(system: VectorFieldSystem, lattice: Lattice,
                    directions: np.ndarray, tau: float) -> Callable[[np.ndarray], np.ndarray]:
    """The rows of `_neighbor_tables` for given nodes, computed on demand.

    ``steps(nodes)`` returns the ``(len(nodes), n_directions)`` targets
    of the flat ``nodes``, -1 where a step exits, in the orientation of a
    table row gather.  The node coordinates are read from the lattice
    axes and each coefficient is evaluated at those nodes only, by the
    tables' own `_axis_step`, so the targets are the tables' own.
    """
    moves = _moves(system, directions)
    shape = lattice.shape
    strides = _strides(shape)

    def steps(nodes: np.ndarray) -> np.ndarray:
        coords = [ax[j] for ax, j in zip(lattice.axes, np.unravel_index(nodes, shape))]
        flat = np.zeros((nodes.size, len(directions)), dtype=np.int64)
        valid = np.ones(flat.shape, dtype=bool)
        for k, axis_moves in enumerate(moves):
            j, inside = _axis_step(lattice, k, coords, axis_moves, tau, len(directions))
            valid &= inside
            flat += j * strides[k]
        return np.where(valid, flat, -1)

    return steps


def _search(size: int, src: int, steps: Callable[[np.ndarray], np.ndarray],
            within: Callable[[int], bool] = lambda level: True) -> np.ndarray:
    """Hop counts of a level-synchronous breadth-first search, -1 where unlabelled.

    ``steps(frontier)`` gives every direction's targets of the frontier
    nodes, -1 where a step exits.  A level is one masked scatter: it
    marks every target of the level k-1 frontier, keeps the marks on
    nodes still open, and the marked nodes, sorted, are the next
    frontier; they are labelled k and closed.  The search labels only
    the levels that ``within`` accepts and stops at the first one it
    rejects, or when the frontier empties.  Hop counts do not depend on
    visit order.
    """
    hops = np.full(size, -1, dtype=np.int32)
    # one slot past the last node, never open: a -1 target marks it
    mark = np.zeros(size + 1, dtype=bool)
    open_ = np.ones(size + 1, dtype=bool)
    open_[size] = False
    frontier = np.array([src] if within(0) else [], dtype=np.intp)
    open_[frontier] = False
    hops[frontier] = 0
    level = 0
    while frontier.size and within(level + 1):
        level += 1
        mark[steps(frontier).ravel()] = True
        mark &= open_
        frontier = np.flatnonzero(mark)
        # closing the frontier also clears its marks at the next level's mask
        open_[frontier] = False
        hops[frontier] = level
    return hops


def _source_node(lattice: Lattice, source) -> int:
    return int(np.ravel_multi_index(lattice.node_index(source), lattice.shape))


def distance_field(
    system: VectorFieldSystem,
    source,
    lattice: Lattice,
    seed: int = 0,
) -> DistanceField:
    """Single-source subunit distance estimates on the whole lattice.

    A level-synchronous breadth-first search over the node-major int32
    neighbour table, run until no node is left to reach.  A node is
    worth hops * tau, or +inf where no chain of steps reaches it.
    """
    directions, tau = _controls(system, lattice, seed)
    tables = _neighbor_tables(system, lattice, directions, tau)
    hops = _search(len(tables), _source_node(lattice, source),
                   lambda frontier: np.take(tables, frontier, axis=0))
    values = np.where(hops >= 0, hops * tau, np.inf).reshape(lattice.shape)
    return DistanceField(tuple(float(v) for v in source), lattice, values, tau, len(directions))


@dataclass
class BallVolumeEstimate:
    center: tuple[float, ...]
    radius: float
    estimate: float
    sample_count: int


def ball_volume(
    system: VectorFieldSystem,
    center,
    r: float,
    lattice: Lattice | None = None,
    dfield: DistanceField | None = None,
    seed: int = 0,
    check_truncation: bool = True,
) -> BallVolumeEstimate:
    """Lebesgue volume of the subunit ball B(center, r): lattice cells inside it.

    The cells inside are the nodes with distance < r.  Given ``dfield``,
    they are read from it, and ``center`` must snap to its source node.
    Otherwise a search on ``lattice`` labels only the ball: it expands
    level L while L * tau < r, the product the full field's values are
    made of, and computes each frontier's neighbour targets on demand,
    with the coefficients evaluated at the frontier nodes, instead of
    building tables, the mesh or coefficient grids for the whole box.
    The count is the one a full `distance_field` with the same seed
    gives.  A negative r gives the empty ball; a NaN r is refused.
    """
    if math.isnan(r):
        raise MetricError("ball radius is NaN")
    if dfield is not None:
        lattice = dfield.lattice
        source = dfield.source
        if lattice.node_index(center) != lattice.node_index(source):
            raise MetricError(f"center {tuple(map(float, center))} is not the distance "
                              f"field's source {source}")
        inside = dfield.values < r
    elif lattice is None:
        raise MetricError("either a lattice or a distance field is required")
    else:
        source = tuple(float(v) for v in center)
        directions, tau = _controls(system, lattice, seed)
        hops = _search(int(np.prod(lattice.shape)), _source_node(lattice, center),
                       _frontier_steps(system, lattice, directions, tau),
                       # the product hops * tau that a full field's values hold
                       within=lambda level: np.int32(level) * tau < r)
        inside = (hops >= 0).reshape(lattice.shape)
    if check_truncation and bool(inside[lattice.boundary].any()):
        raise BallTruncated(
            f"ball of radius {r} at {tuple(map(float, center))} reaches the box boundary"
        )
    count = int(inside.sum())
    return BallVolumeEstimate(source, float(r), float(count) * lattice.cell_volume(), count)


@dataclass
class RatioRow:
    center: tuple
    radius: float
    volume: float
    lam: float

    @property
    def ratio(self) -> float:
        return self.volume / self.lam


@dataclass
class BallBoxReport:
    rows: list[RatioRow]

    @property
    def min_ratio(self) -> float:
        return min(r.ratio for r in self.rows)

    @property
    def max_ratio(self) -> float:
        return max(r.ratio for r in self.rows)

    @property
    def spread(self) -> float:
        return self.max_ratio / self.min_ratio


def ball_extent(basis, point, r: float) -> list[float]:
    """Per-axis reach estimate of B(x, r): sum_J |X_J coeff(x)| r^deg(J).

    This is the box side of the ball-box comparison, used to size
    lattices so a ball of radius r is resolved but not lost in the box.
    """
    n = basis.system.dim
    coords = [float(v) for v in point]
    out = [0.0] * n
    for e in basis.entries:
        rd = float(r) ** e.degree
        for k, c in enumerate(e.vf.coeffs):
            if not c.is_zero():
                out[k] += abs(float(eval_grid(c, coords))) * rd
    if any(v == 0.0 for v in out):
        raise MetricError(f"degenerate ball extent at {point}")
    return out


_BALL_REACH = 2.0  # `lattice_for_ball`'s box holds B(center, _BALL_REACH * r)
_BALL_SHELLS = 10  # and its tau = r / _BALL_SHELLS: every radius spans as many levels
_BALL_CONTROLS = 24  # random control directions on top of the +-e_i


def lattice_for_ball(
    basis,
    center,
    r: float,
    nodes_per_axis: int = 48,
) -> Lattice:
    """Lattice sized to hold B(center, 2r) with ~nodes_per_axis nodes and tau = r/10."""
    ext = ball_extent(basis, center, _BALL_REACH * r)
    box = [(float(c) - e, float(c) + e) for c, e in zip(center, ext)]
    spacing = [2.0 * e / nodes_per_axis for e in ext]
    return Lattice(box, spacing, n_random_controls=_BALL_CONTROLS,
                   tau=float(r) / _BALL_SHELLS)


def ball_box_scan(
    system: VectorFieldSystem,
    nsw: BallPolynomial,
    centers: Sequence[Sequence],
    radii: Sequence[float],
    lattice_for: Callable[[Sequence, float], Lattice],
    seed: int = 0,
) -> BallBoxReport:
    """Table of |B(x,r)| / Lambda(x,r) over centers x radii.

    ``lattice_for(center, r)`` supplies a lattice per pair, so each
    radius is resolved at a comparable number of shells.  Each volume
    is a radius-bounded `ball_volume` search with the given seed: it
    labels only the ball, not the whole lattice, and counts the same
    cells as a full distance field would.  Lambda is evaluated exactly
    at the given centre and radius, a float at its exact binary value.
    """
    rows = []
    for center in centers:
        for r in radii:
            vol = ball_volume(system, center, r, lattice=lattice_for(center, r), seed=seed,
                              check_truncation=False).estimate
            lam = float(eval_lambda(nsw, center, r))
            rows.append(RatioRow(tuple(map(float, center)), float(r), vol, lam))
    return BallBoxReport(rows)


@dataclass
class GrowthScanReport:
    kappa_infima: dict[float, float]
    table: list  # (kappa, center, r, value)


def growth_exponent_scan(
    nsw: BallPolynomial,
    kappas: Sequence[float],
    plan: Sequence[tuple[Sequence, object]],
) -> GrowthScanReport:
    """Empirical inf over the plan of Lambda(x,r) / r^kappa, per kappa.

    The ball-volume polynomial stands in for |B(x,r)|: the two are
    equivalent up to fixed constants.  It is evaluated exactly at each
    plan row, a float at its exact binary value.
    """
    Q = nsw.Q
    for kappa in kappas:
        if not 0 < kappa <= Q:
            raise ValueError(f"kappa {kappa} outside (0, Q]")
    table = []
    infima = {float(k): math.inf for k in kappas}
    for x, r in plan:
        vol = float(eval_lambda(nsw, x, r))
        for kappa in kappas:
            value = vol / float(r) ** kappa
            table.append((float(kappa), tuple(x), float(r), value))
            infima[float(kappa)] = min(infima[float(kappa)], value)
    return GrowthScanReport(infima, table)
