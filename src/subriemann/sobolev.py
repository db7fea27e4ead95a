"""Discretized variational problem for the optimal Sobolev constant.

The continuum problem is C0 = inf { int |Xu|^p : ||u||_{p*} = 1 } with
p* = pQ/(Q-p).  Here u lives on a `Lattice` (``GridDomain`` is the same
class) and is zero off its Dirichlet ``free`` mask, a compact-support
surrogate.  Xu is assembled by finite differences, weighted by the
polynomial coefficients that the lattice evaluates on its nodes, and the
quotient is minimized by normalized projected gradient descent.  Distance fields
for the concentration and decay diagnostics must come from a lattice
with the same box and spacing as the function's.  Dirichlet truncation
overestimates the constant; reports always carry the box and spacing so
callers can test stability under box doubling instead of asserting
absolute truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy import ndimage

from .fields import VectorFieldSystem
from .lattice import Lattice, eval_grid
from .nsw import DomainSpec

GridDomain = Lattice  # alias: callers import the lattice under this name too


class SobolevError(RuntimeError):
    pass


class SupportEscape(SobolevError):
    pass


def _cdiff(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered difference along one axis, zero outside the box.

    With the zero-extension convention the operator is antisymmetric
    (D^T = -D), which keeps the energy gradient an exact adjoint.
    """
    pad = [(0, 0)] * u.ndim
    pad[axis] = (1, 1)
    up = np.pad(u, pad)
    fwd = [slice(None)] * u.ndim
    bwd = [slice(None)] * u.ndim
    fwd[axis] = slice(2, None)
    bwd[axis] = slice(None, -2)
    return (up[tuple(fwd)] - up[tuple(bwd)]) / (2.0 * h)


def _shift(u: np.ndarray, axis: int, by: int) -> np.ndarray:
    pad = [(0, 0)] * u.ndim
    pad[axis] = (1, 1)
    up = np.pad(u, pad)
    sl = [slice(None)] * u.ndim
    sl[axis] = slice(1 + by, up.shape[axis] - 1 + by)
    return up[tuple(sl)]


def _fdiff(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Forward difference with zero extension; adjoint is -_bdiff."""
    return (_shift(u, axis, 1) - u) / h


def _bdiff(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Backward difference with zero extension; adjoint is -_fdiff."""
    return (u - _shift(u, axis, -1)) / h


_SMOOTH_WEIGHT = 1.0 / 16.0


def _smooth(u: np.ndarray) -> np.ndarray:
    """Symmetric local average per axis (zero extension), self-adjoint.

    The L^{p*} norm is always taken of the smoothed iterate.  At the
    critical exponent the raw lattice quotient is scale-invariant and
    its infimum (attained by single-node spikes) undercuts the continuum
    constant, so a raw-norm minimizer collapses to grid scale.  The
    averaged norm agrees with the raw one to second order on resolved
    profiles but penalizes sub-grid spikes, which restores convergence
    toward the continuum quotient.  The stencil weight balances two
    failure modes: too weak and spikes still undercut the continuum
    constant, too strong and the minimizer is biased well above the
    comparably evaluated extremal profile.
    """
    a = _SMOOTH_WEIGHT
    for ax in range(u.ndim):
        u = a * _shift(u, ax, -1) + (1.0 - 2.0 * a) * u + a * _shift(u, ax, 1)
    return u


def _pstar_norm(values: np.ndarray, ps: float, cv: float) -> float:
    return float((np.abs(_smooth(values)) ** ps).sum() * cv) ** (1.0 / ps)


class GridFunction:
    """Scalar field sampled on a Lattice; zero at masked nodes."""

    def __init__(self, domain: Lattice, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != domain.shape:
            raise SobolevError("value array does not match the lattice shape")
        self.domain = domain
        self.values = domain.clamp(values)

    def norm(self, q: float) -> float:
        cv = self.domain.cell_volume()
        return float((np.abs(self.values) ** q).sum() * cv) ** (1.0 / q)

    def normalized(self, q: float) -> "GridFunction":
        nrm = self.norm(q)
        if nrm == 0.0:
            raise SobolevError("cannot normalize the zero function")
        return GridFunction(self.domain, self.values / nrm)

    def copy(self) -> "GridFunction":
        return GridFunction(self.domain, self.values.copy())


def bump(domain: Lattice, center, width) -> GridFunction:
    """Smooth Gaussian bump, the standard initial iterate."""
    if isinstance(width, (int, float)):
        width = [float(width)] * domain.dim
    r2 = np.zeros(domain.shape)
    for k in range(domain.dim):
        r2 = r2 + ((domain.mesh[k] - float(center[k])) / width[k]) ** 2
    return GridFunction(domain, np.exp(-r2))


def horizontal_gradient(system: VectorFieldSystem, u: GridFunction) -> np.ndarray:
    """(X_1 u, ..., X_m u) on the lattice, shape (m, *grid).

    X_j u = sum_k a_jk * (centered difference along axis k), with the
    polynomial coefficients a_jk evaluated exactly at the nodes.
    """
    dom = u.domain
    grids = dom.field_grids(system)
    diffs = [_cdiff(u.values, k, dom.spacing[k]) for k in range(dom.dim)]
    out = np.empty((system.m, *dom.shape))
    for j in range(system.m):
        acc = np.zeros(dom.shape)
        for k in range(dom.dim):
            g = grids[j][k]
            if np.any(g):
                acc = acc + g * diffs[k]
        out[j] = acc
    return out


@dataclass
class EnergyReport:
    p: float
    p_star: float
    energy: float          # int |Xu|^p
    norm_p_star: float     # ||u||_{p*}
    quotient: float | None  # energy / norm^p, absent when norm = 0
    box: list
    spacing: list


def _pstar(Q: int, p: float) -> float:
    if not 1 <= p < Q:
        raise SobolevError(f"p = {p} outside [1, Q) with Q = {Q}")
    return p * Q / (Q - p)


def energy_report(system: VectorFieldSystem, u: GridFunction, p: float) -> EnergyReport:
    """Midpoint-rule p-energy and L^{p*} norm of u.

    The p-energy is the same symmetrized one-sided-difference functional
    the minimizer descends, so minimizer constants and oracle
    evaluations of reference profiles are directly comparable.
    """
    Q = sum(system.weights)
    ps = _pstar(Q, p)
    grids = u.domain.field_grids(system)
    energy, _ = _energy_and_gradient(
        system, u.domain, u.values, p, grids, 0.0, need_gradient=False
    )
    nrm = _pstar_norm(u.values, ps, u.domain.cell_volume())
    quot = energy / nrm ** p if nrm > 0 else None
    return EnergyReport(float(p), ps, energy, nrm, quot, u.domain.box, u.domain.spacing)


def _energy_and_gradient(system, dom, values, p, grids, eps, need_gradient=True):
    """int |Xu|^p and its nodal gradient (cell volume included).

    The energy averages the forward- and backward-difference
    realizations of Xu.  A purely centered scheme annihilates the
    checkerboard mode, so its discrete infimum collapses to 0; the
    one-sided pair has no null modes, is still exact on linear
    functions, and the average is second-order accurate.
    """
    cv = dom.cell_volume()
    energy = 0.0
    total_grad = np.zeros(dom.shape) if need_gradient else None
    for diff_op, adj_op in ((_fdiff, _bdiff), (_bdiff, _fdiff)):
        diffs = [diff_op(values, k, dom.spacing[k]) for k in range(dom.dim)]
        comps = []
        speed2 = np.zeros(dom.shape)
        for j in range(len(grids)):
            acc = np.zeros(dom.shape)
            for k in range(dom.dim):
                g = grids[j][k]
                if np.any(g):
                    acc = acc + g * diffs[k]
            comps.append(acc)
            speed2 = speed2 + acc * acc
        if eps > 0.0:
            energy += 0.5 * float(((speed2 + eps * eps) ** (p / 2.0)).sum() * cv)
            weight = (speed2 + eps * eps) ** (p / 2.0 - 1.0)
        else:
            energy += 0.5 * float((speed2 ** (p / 2.0)).sum() * cv)
            if p == 2.0:
                weight = None
            else:
                # subgradient 0 where |Xu| = 0 (one-sided derivative of t^p)
                with np.errstate(divide="ignore"):
                    weight = np.where(speed2 > 0.0, speed2 ** (p / 2.0 - 1.0), 0.0)
        if not need_gradient:
            continue
        for k in range(dom.dim):
            flux = np.zeros(dom.shape)
            for j in range(len(grids)):
                g = grids[j][k]
                if np.any(g):
                    term = g * comps[j]
                    flux = flux + (term if weight is None else weight * term)
            # the adjoint of each one-sided difference is minus the other
            total_grad = total_grad - adj_op(flux, k, dom.spacing[k])
    if need_gradient:
        total_grad = 0.5 * p * cv * dom.clamp(total_grad)
    return energy, total_grad


@dataclass
class MinimizeResult:
    minimizer: GridFunction
    constant: float                # p-energy at the normalized minimizer
    trace: list[float]             # quotient per accepted iterate (best start)
    iterations: int
    converged: bool
    start_quotients: list[float]
    report: EnergyReport


def minimize_quotient(
    system: VectorFieldSystem,
    domain: Lattice,
    p: float = 2.0,
    init_centers: Sequence[Sequence[float]] | None = None,
    init: GridFunction | None = None,
    n_starts: int = 3,
    max_iter: int = 20000,
    patience: int = 50,
    rel_tol: float = 1e-6,
    seed: int = 0,
    eps: float | None = None,
) -> MinimizeResult:
    """Normalized projected gradient descent on E(u) = int|Xu|^p / ||u||_{p*}^p.

    Backtracking line search on the scale-invariant quotient; every
    accepted iterate is renormalized to ||u||_{p*} = 1.  Stops when the
    relative quotient decrease over ``patience`` iterations drops below
    ``rel_tol``; non-convergence returns the best iterate flagged.
    """
    Q = sum(system.weights)
    if not (1 < p < Q):
        raise SobolevError(f"need 1 < p < Q; got p = {p}, Q = {Q}")
    ps = _pstar(Q, p)
    if eps is None:
        eps = 1e-8 if p < 1.5 else 0.0
    grids = domain.field_grids(system)
    cv = domain.cell_volume()
    rng = np.random.default_rng(seed)

    centers = list(init_centers or [])
    widths = [(hi - lo) / 6.0 for lo, hi in domain.box]
    if not centers:
        centers = [[0.5 * (lo + hi) for lo, hi in domain.box]]
    while len(centers) < n_starts:
        centers.append([
            rng.uniform(lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo))
            for lo, hi in domain.box
        ])

    starts: list = list(centers[:max(n_starts, len(centers))])
    if init is not None:
        if init.domain.shape != domain.shape:
            raise SobolevError("explicit initial iterate lives on a different lattice")
        starts = [init] + ([] if n_starts == 1 else starts[: n_starts - 1])

    best = None
    start_quotients = []
    for start in starts:
        u = start if isinstance(start, GridFunction) else bump(domain, start, widths)
        if not np.any(u.values):
            raise SobolevError("initial iterate is fully masked")
        values = u.values / _pstar_norm(u.values, ps, cv)
        energy, grad = _energy_and_gradient(system, domain, values, p, grids, eps)
        quotient = energy  # ||u||_{p*} = 1
        trace = [quotient]
        eta = 1.0 / max(float(np.abs(grad).max()), 1e-30)
        it = 0
        converged = False
        while it < max_iter:
            it += 1
            # gradient of the quotient at a normalized iterate
            sm = _smooth(values)
            dnorm = _smooth((np.abs(sm) ** (ps - 2.0)) * sm) * cv
            direction = grad - p * energy * domain.clamp(dnorm)
            accepted = False
            for _ in range(60):
                cand = values - eta * direction
                nrm = _pstar_norm(cand, ps, cv)
                if nrm == 0.0:
                    eta *= 0.5
                    continue
                cand = cand / nrm
                c_energy, c_grad = _energy_and_gradient(
                    system, domain, cand, p, grids, eps
                )
                if c_energy < quotient:
                    values, energy, grad = cand, c_energy, c_grad
                    quotient = c_energy
                    accepted = True
                    eta *= 1.3
                    break
                eta *= 0.5
            trace.append(quotient)
            if not accepted:
                converged = True
                break
            if it >= patience:
                prev = trace[-1 - patience]
                if prev - quotient < rel_tol * prev:
                    converged = True
                    break
        start_quotients.append(quotient)
        if best is None or quotient < best[1]:
            best = (values, quotient, trace, it, converged)

    values, quotient, trace, it, converged = best
    u = GridFunction(domain, values)
    rep = energy_report(system, u, p)
    return MinimizeResult(u, quotient, trace, it, converged, start_quotients, rep)


def dilate_function(system: VectorFieldSystem, u: GridFunction, t: float) -> GridFunction:
    """u composed with the inverse dilation, on the dilated lattice.

    The node values are reused verbatim: the node at delta_t(x) of the
    new lattice carries u(x).  This realizes u(delta_{1/t} .) without
    interpolation, so the discrete scaling identities hold exactly.
    """
    if t <= 0:
        raise SobolevError("dilation parameter must be positive")
    scale = [float(t) ** a for a in system.weights]
    box = [(lo * s, hi * s) for (lo, hi), s in zip(u.domain.box, scale)]
    spacing = [h * s for h, s in zip(u.domain.spacing, scale)]
    new_dom = Lattice(box, spacing)
    if new_dom.shape != u.domain.shape:
        raise SobolevError("dilated lattice shape drifted")
    return GridFunction(new_dom, u.values)


def rescale(
    system: VectorFieldSystem,
    u: GridFunction,
    w,
    rho: float,
    family,
    p: float = 2.0,
) -> GridFunction:
    """rho^{(Q-p)/p} * u(T(w, delta_rho(x))), resampled on u's lattice.

    ``family`` is a certified TransitiveFamily; off-node arguments use
    multilinear interpolation.  The map is unimodular and the dilation
    scales volume by rho^Q, so the L^{p*} norm is preserved in the
    continuum; a deviation beyond 5% means the support escaped the box
    and raises SupportEscape.
    """
    if rho <= 0:
        raise SobolevError("rho must be positive")
    dom = u.domain
    Q = sum(system.weights)
    ps = _pstar(Q, p)
    tmap = family.at([Fraction(v).limit_denominator(1 << 20) for v in w])
    # argument of u at every target node: T(w, delta_rho(x))
    scaled = [
        dom.mesh[k] * float(rho) ** system.weights[k] for k in range(dom.dim)
    ]
    args = [eval_grid(comp, scaled) for comp in tmap.components]
    coords = [
        (args[k] - dom.box[k][0]) / dom.spacing[k] for k in range(dom.dim)
    ]
    sampled = ndimage.map_coordinates(
        u.values, np.stack(coords), order=1, mode="constant", cval=0.0
    )
    out = GridFunction(dom, float(rho) ** ((Q - p) / p) * sampled)
    ref = u.norm(ps)
    if ref > 0 and abs(out.norm(ps) - ref) > 0.05 * ref:
        raise SupportEscape(
            f"rescale(w={tuple(map(float, w))}, rho={rho}) lost more than 5% of the mass"
        )
    return out


@dataclass
class ConcentrationDiagnostics:
    rho_grid: list[float]
    levy_values: list[float]       # Q(rho), max over sampled centers
    best_center: tuple[float, ...] | None
    rho_half: float | None         # bisected rho with Q(rho) = 1/2
    mass_at_infinity: float

    def __post_init__(self):
        vals = self.levy_values
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            raise SobolevError("Levy values must be non-decreasing in rho")


def levy_concentration(
    u: GridFunction,
    rho_grid: Sequence[float],
    h_samples: Sequence[Sequence[float]],
    distance_fields: Sequence,
    p_star: float,
) -> ConcentrationDiagnostics:
    """Levy concentration function of |u|^{p*} over sampled centers.

    Q(rho) = max over sampled w of the ball mass of |u|^{p*} inside
    B(w, rho), normalized by the total mass.  ``distance_fields`` must
    be lattice-aligned with u's domain, one per sample center.  rho_half
    is located by bisection between the bracketing grid values.
    """
    if len(h_samples) != len(distance_fields):
        raise SobolevError("one distance field per sampled center is required")
    dens = np.abs(u.values) ** p_star
    total = float(dens.sum())
    if total == 0.0:
        raise SobolevError("zero function has no concentration profile")
    dmats = []
    for df in distance_fields:
        if df.values.shape != u.domain.shape:
            raise SobolevError("distance field lattice does not match the function")
        dmats.append(df.values)

    def q_of(rho: float) -> tuple[float, int]:
        best_val, best_i = 0.0, -1
        for i, dm in enumerate(dmats):
            mass = float(dens[dm < rho].sum()) / total
            if mass > best_val:
                best_val, best_i = mass, i
        return best_val, best_i

    rho_grid = sorted(float(r) for r in rho_grid)
    values = []
    best_i = -1
    for rho in rho_grid:
        v, i = q_of(rho)
        values.append(v)
        if i >= 0:
            best_i = i
    rho_half = None
    if values and values[-1] >= 0.5:
        lo = 0.0
        hi = rho_grid[-1]
        for rho, v in zip(rho_grid, values):
            if v < 0.5:
                lo = rho
            else:
                hi = rho
                break
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if q_of(mid)[0] >= 0.5:
                hi = mid
            else:
                lo = mid
        rho_half = 0.5 * (lo + hi)
    center = tuple(map(float, h_samples[best_i])) if best_i >= 0 else None
    return ConcentrationDiagnostics(
        rho_grid, values, center, rho_half, 1.0 - (values[-1] if values else 0.0)
    )


@dataclass
class ExponentProbeReport:
    kappa: float
    t_values: list[float]
    ratios: list[float]            # R(t)
    slope: float                   # least-squares slope of log R vs log t
    spread: float                  # max R / min R over the probe range


def exponent_probe(
    system: VectorFieldSystem,
    domain_spec: DomainSpec | None,
    kappa: float,
    u: GridFunction,
    t_grid: Sequence[float],
) -> ExponentProbeReport:
    """R(t) = ||u_t||_{kappa/(kappa-1)} / int |X u_t| for u_t = u(delta_{1/t} .).

    A divergent R as t -> 0+ is evidence that kappa is not an
    admissible growth exponent for the domain; bounded R is consistent
    with admissibility.  The dilated support must stay inside the
    domain box for every probed t (checked on the support bounding box).
    """
    if kappa <= 1:
        raise SobolevError("kappa must exceed 1")
    q = kappa / (kappa - 1.0)
    support = np.nonzero(u.values)
    if support[0].size == 0:
        raise SobolevError("seed function is identically zero")
    bounds = [
        (float(u.domain.axes[k][idx.min()]), float(u.domain.axes[k][idx.max()]))
        for k, idx in enumerate(support)
    ]
    ratios = []
    ts = [float(t) for t in t_grid]
    for t in ts:
        if domain_spec is not None:
            for k, (lo, hi) in enumerate(bounds):
                s = t ** system.weights[k]
                blo, bhi = float(domain_spec.box[k][0]), float(domain_spec.box[k][1])
                if lo * s < blo - 1e-12 or hi * s > bhi + 1e-12:
                    raise SupportEscape(
                        f"dilated support leaves the domain box at t = {t}"
                    )
        ut = dilate_function(system, u, t)
        grad = horizontal_gradient(system, ut)
        speed = np.sqrt((grad * grad).sum(axis=0))
        denom = float(speed.sum()) * ut.domain.cell_volume()
        if denom == 0.0:
            raise SobolevError("seed function has zero horizontal gradient")
        ratios.append(ut.norm(q) / denom)
    logs_t = np.log(ts)
    logs_r = np.log(ratios)
    slope = float(np.polyfit(logs_t, logs_r, 1)[0]) if len(ts) > 1 else 0.0
    return ExponentProbeReport(float(kappa), ts, ratios, slope, max(ratios) / min(ratios))


@dataclass
class DecayFit:
    exponent: float
    residual: float        # RMS residual of the log-log fit
    n_points: int
    rejected: bool


def decay_profile(
    u: GridFunction,
    dfield,
    r_inner: float,
    r_outer: float,
    value_floor: float = 1e-10,
    residual_threshold: float = 0.5,
) -> DecayFit:
    """Least-squares fit of log|u| against log d over an annulus.

    The annulus should exclude both the concentration core and the
    Dirichlet boundary layer.  A fit is rejected when the RMS residual
    exceeds the threshold or the profile shows no decay at all.
    """
    if dfield.values.shape != u.domain.shape:
        raise SobolevError("distance field lattice does not match the function")
    d = dfield.values
    sel = (d >= r_inner) & (d <= r_outer) & (np.abs(u.values) > value_floor)
    sel &= np.isfinite(d) & (d > 0)
    if not sel.any():
        raise SobolevError("empty annulus")
    x = np.log(d[sel])
    y = np.log(np.abs(u.values[sel]))
    # bin by distance shell and fit shell means: raw least squares is
    # dominated by the (much more numerous) outermost nodes and by
    # angular variation at fixed distance
    n_bins = 12
    edges = np.linspace(x.min(), x.max() + 1e-12, n_bins + 1)
    xs, ys = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (x >= lo) & (x < hi)
        if mask.sum() >= 3:
            xs.append(float(x[mask].mean()))
            ys.append(float(y[mask].mean()))
    if len(xs) < 3:
        raise SobolevError("annulus too thin for a shell fit")
    xs = np.array(xs)
    ys = np.array(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    rejected = resid > residual_threshold or slope > -0.05
    return DecayFit(float(slope), resid, int(sel.sum()), rejected)


@dataclass
class DomainComparison:
    constant_a: float
    constant_b: float

    @property
    def rel_difference(self) -> float:
        ref = min(self.constant_a, self.constant_b)
        return abs(self.constant_a - self.constant_b) / ref


def domain_independence(
    system: VectorFieldSystem,
    domain_a: Lattice,
    domain_b: Lattice,
    p: float = 2.0,
    **options,
) -> DomainComparison:
    """Minimize the quotient on two domains and compare the constants."""
    ra = minimize_quotient(system, domain_a, p, **options)
    rb = minimize_quotient(system, domain_b, p, **options)
    return DomainComparison(ra.constant, rb.constant)
