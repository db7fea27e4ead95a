"""Numerical subunit distance fields and ball-volume probes.

All probes run on a `Lattice` (``LatticeSpec`` is the same class), which
also carries the control-set resolution: the number of random control
directions and the step ``tau``.  The subunit distance is approximated
by breadth-first search on a lattice graph: from each node y, one edge
per sampled control direction a leads to the node nearest to
y + tau * sum_i a_i X_i(y), at cost tau (|a| = 1 for every sampled
direction).  Endpoint snapping to the lattice is not corrected; it is
the dominant error term and shrinks with the spacing.  The estimate
converges to the true distance as spacing and tau go to zero, but
refinement is not guaranteed to be monotone.  Ball volumes count the
lattice cells inside the ball; a ball that reaches the lattice's
boundary shell is truncated.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .fields import VectorFieldSystem
from .lattice import Lattice, eval_grid
from .nsw import BallPolynomial, DomainSpec, eval_lambda

LatticeSpec = Lattice  # alias: callers import the lattice under this name too


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


def _neighbor_tables(system: VectorFieldSystem, lattice: Lattice,
                     directions: np.ndarray, tau: float) -> list[np.ndarray]:
    """Flat target-node index per direction (-1 where the step exits)."""
    shape = lattice.shape
    mesh = lattice.mesh
    comp = lattice.field_grids(system)
    tables = []
    size = int(np.prod(shape))
    for a in directions:
        flat = np.full(size, -1, dtype=np.int64)
        targets = []
        valid = np.ones(shape, dtype=bool)
        for k in range(system.dim):
            disp = np.zeros(shape)
            for i in range(system.m):
                if a[i] != 0.0:
                    disp = disp + a[i] * comp[i][k]
            t = mesh[k] + tau * disp
            lo, _ = lattice.box[k]
            j = np.rint((t - lo) / lattice.spacing[k]).astype(np.int64)
            valid &= (j >= 0) & (j < shape[k])
            targets.append(j)
        clipped = [np.clip(j, 0, shape[k] - 1) for k, j in enumerate(targets)]
        flat_idx = np.ravel_multi_index(clipped, shape)
        flat = np.where(valid.ravel(), flat_idx.ravel(), -1)
        tables.append(flat)
    return tables


def distance_field(
    system: VectorFieldSystem,
    source,
    lattice: Lattice,
    seed: int = 0,
) -> DistanceField:
    """Single-source subunit distance estimates on the lattice."""
    directions = control_directions(system.m, lattice.n_random_controls, seed=seed)
    if directions.size == 0:
        raise MetricError("empty control set")
    tau = lattice.tau if lattice.tau is not None else 2.0 * max(lattice.spacing)
    shape = lattice.shape
    size = int(np.prod(shape))
    src = int(np.ravel_multi_index(lattice.node_index(source), shape))
    tables = [t.tolist() for t in _neighbor_tables(system, lattice, directions, tau)]
    hops = np.full(size, -1, dtype=np.int64)
    hops[src] = 0
    hops_list = hops.tolist()
    queue = deque([src])
    while queue:
        node = queue.popleft()
        nd = hops_list[node] + 1
        for tab in tables:
            nb = tab[node]
            if nb >= 0 and hops_list[nb] < 0:
                hops_list[nb] = nd
                queue.append(nb)
    hops = np.array(hops_list, dtype=np.float64)
    values = np.where(hops >= 0, hops * tau, np.inf).reshape(shape)
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
    """Lebesgue volume of the subunit ball B(center, r): lattice cells inside it."""
    if dfield is None:
        if lattice is None:
            raise MetricError("either a lattice or a distance field is required")
        dfield = distance_field(system, center, lattice, seed=seed)
    inside = dfield.values < r
    if check_truncation and bool(inside[dfield.lattice.boundary].any()):
        raise BallTruncated(
            f"ball of radius {r} at {tuple(map(float, center))} reaches the box boundary"
        )
    count = int(inside.sum())
    return BallVolumeEstimate(dfield.source, float(r),
                              float(count) * dfield.lattice.cell_volume(), count)


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

    def to_csv(self) -> str:
        lines = ["center,radius,volume,lambda,ratio"]
        for row in self.rows:
            c = ";".join(f"{v:.12g}" for v in row.center)
            lines.append(
                f"{c},{row.radius:.12g},{row.volume:.12g},{row.lam:.12g},{row.ratio:.12g}"
            )
        return "\n".join(lines) + "\n"


def ball_extent(basis, point, r: float) -> list[float]:
    """Per-axis reach estimate of B(x, r): sum_J |X_J coeff(x)| r^deg(J).

    This is the box side of the ball-box comparison, used to size
    lattices so a ball of radius r is resolved but not lost in the box.
    """
    n = basis.system.dim
    out = [0.0] * n
    for e in basis.entries:
        rd = float(r) ** e.degree
        for k, c in enumerate(e.vf.coeffs):
            if not c.is_zero():
                out[k] += abs(c.eval_float([float(v) for v in point])) * rd
    if any(v == 0.0 for v in out):
        raise MetricError(f"degenerate ball extent at {point}")
    return out


def lattice_for_ball(
    basis,
    center,
    r: float,
    nodes_per_axis: int = 48,
    reach: float = 2.0,
    n_random_controls: int | None = 24,
    shells: int = 10,
) -> Lattice:
    """Lattice sized to hold B(center, reach*r) with ~nodes_per_axis nodes."""
    ext = ball_extent(basis, center, reach * r)
    box = [(float(c) - e, float(c) + e) for c, e in zip(center, ext)]
    spacing = [2.0 * e / nodes_per_axis for e in ext]
    return Lattice(box, spacing, n_random_controls=n_random_controls,
                       tau=float(r) / shells)


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
    radius is resolved at a comparable number of shells.
    """
    rows = []
    for center in centers:
        rat_center = [_snap_rational(v) for v in center]
        for r in radii:
            lattice = lattice_for(center, r)
            dfield = distance_field(system, center, lattice, seed=seed)
            vol = ball_volume(system, center, r, dfield=dfield,
                              check_truncation=False).estimate
            lam = float(eval_lambda(nsw, rat_center, _snap_rational(r)))
            rows.append(RatioRow(tuple(map(float, center)), float(r), vol, lam))
    return BallBoxReport(rows)


def _snap_rational(x, max_den: int = 1 << 16) -> Fraction:
    """Snap a float to a nearby rational with denominator <= 2^16."""
    return Fraction(float(x)).limit_denominator(max_den)


@dataclass
class DoublingReport:
    rows: list  # (center, r, vol_r, vol_2r, ratio)
    Q: int

    @property
    def max_constant(self) -> float:
        """Largest observed |B(x,2r)| / (2^Q |B(x,r)|)."""
        return max(row[4] for row in self.rows) / 2.0 ** self.Q


def doubling_check(
    system: VectorFieldSystem,
    centers: Sequence[Sequence],
    radii: Sequence[float],
    lattice_for: Callable[[Sequence], Lattice],
    seed: int = 0,
) -> DoublingReport:
    """Observed doubling ratios |B(x,2r)| / |B(x,r)|."""
    Q = sum(system.weights)
    rows = []
    for center in centers:
        lattice = lattice_for(center)
        dfield = distance_field(system, center, lattice, seed=seed)
        for r in radii:
            v1 = ball_volume(system, center, r, dfield=dfield).estimate
            v2 = ball_volume(system, center, 2 * r, dfield=dfield).estimate
            if v1 > 0:
                rows.append((tuple(map(float, center)), float(r), v1, v2, v2 / v1))
    return DoublingReport(rows, Q)


@dataclass
class GrowthScanReport:
    kappa_infima: dict[float, float]
    table: list  # (kappa, center, r, value)

    def to_csv(self) -> str:
        lines = ["kappa,center,r,volume_over_r_kappa"]
        for kappa, center, r, value in self.table:
            c = ";".join(f"{float(v):.12g}" for v in center)
            lines.append(f"{kappa:.12g},{c},{float(r):.12g},{value:.12g}")
        return "\n".join(lines) + "\n"


def growth_exponent_scan(
    system: VectorFieldSystem,
    nsw: BallPolynomial,
    domain: DomainSpec,
    kappas: Sequence[float],
    plan: Sequence[tuple[Sequence, object]],
    mode: str = "lambda",
    volume_for: Callable[[Sequence, float], float] | None = None,
) -> GrowthScanReport:
    """Empirical inf over the plan of |B(x,r)| / r^kappa, per kappa.

    In 'lambda' mode the ball-volume polynomial stands in for |B| (the
    two are equivalent up to fixed constants); 'volume' mode uses the
    supplied measured-volume callback.
    """
    Q = nsw.Q
    for kappa in kappas:
        if not 0 < kappa <= Q:
            raise ValueError(f"kappa {kappa} outside (0, Q]")
    table = []
    infima = {float(k): math.inf for k in kappas}
    for x, r in plan:
        xr = [_snap_rational(v) for v in x]
        rr = _snap_rational(r)
        if mode == "lambda":
            vol = float(eval_lambda(nsw, xr, rr))
        elif mode == "volume":
            if volume_for is None:
                raise MetricError("volume mode needs a volume_for callback")
            vol = volume_for(x, float(r))
        else:
            raise MetricError(f"unknown mode {mode!r}")
        for kappa in kappas:
            value = vol / float(r) ** kappa
            table.append((float(kappa), tuple(x), float(r), value))
            infima[float(kappa)] = min(infima[float(kappa)], value)
    return GrowthScanReport(infima, table)


@dataclass
class IsometryReport:
    rows: list  # (kind, detail, reference, mapped, rel_error)

    @property
    def max_rel_error(self) -> float:
        return max(row[4] for row in self.rows) if self.rows else 0.0


def isometry_checks(
    system: VectorFieldSystem,
    pairs: Sequence[tuple[Sequence, Sequence]],
    amap,
    t_values: Sequence[float],
    lattice_for: Callable[[Sequence], Lattice],
    seed: int = 0,
) -> IsometryReport:
    """Compare d(x,y) with d(A(x),A(y)) and with dilations of the pair."""
    rows = []
    for x, y in pairs:
        d_ref = _pair_distance(system, x, y, lattice_for, seed)
        ax = [float(v) for v in amap([_snap_rational(v) for v in x])]
        ay = [float(v) for v in amap([_snap_rational(v) for v in y])]
        d_map = _pair_distance(system, ax, ay, lattice_for, seed)
        rows.append(("automorphism", (tuple(x), tuple(y)), d_ref, d_map,
                     abs(d_map - d_ref) / max(d_ref, 1e-12)))
        for t in t_values:
            xt = system.dilation_float(x, t)
            yt = system.dilation_float(y, t)
            d_t = _pair_distance(system, xt, yt, lattice_for, seed)
            rows.append(
                ("dilation", (tuple(x), tuple(y), t), t * d_ref, d_t,
                 abs(d_t - t * d_ref) / max(t * d_ref, 1e-12))
            )
    return IsometryReport(rows)


def _pair_distance(system, x, y, lattice_for, seed) -> float:
    dfield = distance_field(system, x, lattice_for(x), seed=seed)
    return dfield.query(y)


@dataclass
class PoincareReport:
    rows: list  # (label, oscillation, gradient_side, ratio)

    @property
    def max_ratio(self) -> float:
        return max(row[3] for row in self.rows) if self.rows else 0.0


def poincare_check(
    system: VectorFieldSystem,
    center,
    r: float,
    test_functions: Sequence[tuple[str, object]],
    lattice: Lattice,
    seed: int = 0,
) -> PoincareReport:
    """Mean-oscillation versus r * integral of |Xf| on a discrete ball."""
    dfield = distance_field(system, center, lattice, seed=seed)
    inside = dfield.values < r
    if not inside.any():
        raise MetricError("empty discrete ball")
    mesh = lattice.mesh
    grids = lattice.field_grids(system)
    cell = lattice.cell_volume()
    rows = []
    for label, f in test_functions:
        fvals = eval_grid(f, mesh)
        avg = fvals[inside].mean()
        osc = float(np.abs(fvals[inside] - avg).sum()) * cell
        partials = [eval_grid(f.partial(k + 1), mesh) for k in range(system.dim)]
        grad_sq = np.zeros_like(fvals)
        for coeffs in grids:
            g = sum(a * d for a, d in zip(coeffs, partials))
            grad_sq = grad_sq + g * g
        grad_int = float(np.sqrt(grad_sq)[inside].sum()) * cell
        rhs = float(r) * grad_int
        ratio = 0.0 if osc == 0.0 else (math.inf if rhs == 0.0 else osc / rhs)
        rows.append((label, osc, rhs, ratio))
    return PoincareReport(rows)
