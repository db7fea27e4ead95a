"""Discretized variational problem for the optimal Sobolev constant.

The continuum problem is C0 = inf { int |Xu|^p : ||u||_{p*} = 1 } with
p* = pQ/(Q-p).  Here u lives on a `Lattice` (``GridDomain`` is the same
class) and is zero off its Dirichlet ``free`` mask, a compact-support
surrogate; the unknowns are the values on the free nodes.  Xu is the
lattice's assembled sparse operator X_h (`Lattice.horizontal_operator`):
the forward and the backward one-sided difference realizations of every
X_j, weighted by the polynomial coefficients evaluated on the nodes.
The energy averages |Xu|^p over the two realizations.  At p = 2 it is
the quadratic form (cv/2) x.Ax with the Gram matrix A = X_h^T X_h
(`HorizontalOperator.gram`, formed by the operator on the first p = 2
energy and kept with it), so energy and gradient cv Ax are one sparse
product with A.  At other p the energy is one product with X_h and its
gradient one with X_h^T.  `_Quotient` owns this functional and the
norm it is divided by.  The diagnostics (`horizontal_gradient`,
`exponent_probe`) use X_h itself and never form A.
The scale-invariant quotient E(u) / ||S u||_{p*}^p, with S a small
local average, is minimized by limited-memory BFGS on the free nodes,
preconditioned by multigrid: the initial inverse Hessian is one
symmetric V(1,1) cycle of the Galerkin hierarchy of A = X_h^T X_h
(`HorizontalOperator.multigrid`, built by the operator on the first
solve and kept with it), applied once per iteration.  A solve stops
when the decrement -g.d, the decrease that the quasi-Newton model
predicts along the L-BFGS direction d, falls below ``rel_tol`` (default
1e-9) times the quotient, or below the rounding floor 1e-12 times it.
The cycle keeps the iteration count from growing as the lattice is
refined (R^3: 18 iterations at 33^3, 20 at 65^3), also where the
degenerate X_2 = 3x^2 d_y of Grushin makes diag(A) vary 540-fold (37
iterations on the 129 x 161 decay grid).
Distance fields for the concentration and decay diagnostics must come
from a lattice with the same box and spacing as the function's; both
diagnostics check this when the field carries its lattice.  Dirichlet
truncation overestimates the constant; reports always carry the box and
spacing so callers can test stability under box doubling instead of
asserting absolute truth.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

import numpy as np

from .fields import VectorFieldSystem
from .lattice import Lattice, eval_grid
from .nsw import DomainSpec

# the old name of Lattice; perfbench/workloads.py is its one importer
GridDomain = Lattice


class SobolevError(RuntimeError):
    pass


class SupportEscape(SobolevError):
    pass


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
    lo, hi = slice(None, -1), slice(1, None)
    for ax in range(u.ndim):
        out = (1.0 - 2.0 * a) * u
        below = [slice(None)] * u.ndim
        above = [slice(None)] * u.ndim
        below[ax], above[ax] = lo, hi
        out[tuple(above)] += a * u[tuple(below)]
        out[tuple(below)] += a * u[tuple(above)]
        u = out
    return u


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


def bump(domain: Lattice, center, width) -> GridFunction:
    """Smooth Gaussian bump, the standard initial iterate."""
    if isinstance(width, (int, float)):
        width = [float(width)] * domain.dim
    r2 = np.zeros(domain.shape)
    for k in range(domain.dim):
        r2 = r2 + ((domain.mesh[k] - float(center[k])) / width[k]) ** 2
    return GridFunction(domain, np.exp(-r2))


def _realizations(system: VectorFieldSystem, u: GridFunction) -> np.ndarray:
    """X_j^+ u and X_j^- u on every node, shape (2, m, n_nodes)."""
    op = u.domain.horizontal_operator(system)
    y = op.matrix @ u.values.ravel()[op.free_index]
    return y.reshape(2, op.n_fields, op.n_nodes)


def horizontal_gradient(system: VectorFieldSystem, u: GridFunction) -> np.ndarray:
    """(X_1 u, ..., X_m u) on the lattice, shape (m, *grid).

    The mean of the forward and the backward realizations of X_h u,
    which is X_j u = sum_k a_jk * (centered difference along axis k),
    with the polynomial coefficients a_jk evaluated exactly at the nodes.
    The operator's exactness tests read X_h through it.
    """
    y = _realizations(system, u)
    return 0.5 * (y[0] + y[1]).reshape(system.m, *u.domain.shape)


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


class _Quotient:
    """E(u) / ||S u||_{p*}^p as a function of the free-node values x of u.

    It holds everything the functional reads: X_h, the cell volume, p,
    the regularization eps (set from p) and, from the first p != 2
    gradient on, X_h^T in CSR.  p* is computed by the first norm, so the
    energy alone is defined for every p >= 1.
    """

    def __init__(self, system: VectorFieldSystem, domain: Lattice, p: float):
        self.p = float(p)
        # |Xu|^p is regularized for p < 1.5, where it is least smooth at Xu = 0
        self.eps = 1e-8 if p < 1.5 else 0.0
        self.system = system
        self.op = domain.horizontal_operator(system)
        self.cv = domain.cell_volume()
        self._matrix_t = None  # X_h^T in CSR, built by the first p != 2 gradient

    @cached_property
    def p_star(self) -> float:
        return _pstar(sum(self.system.weights), self.p)

    def values(self, x: np.ndarray) -> np.ndarray:
        """The full node grid of x (zero off the free nodes)."""
        u = np.zeros(self.op.n_nodes)
        u[self.op.free_index] = x
        return u.reshape(self.op.shape)

    def energy(self, x: np.ndarray, need_gradient: bool = True):
        """int |X_h u|^p and its gradient on the free-node values x of u.

        The energy averages the forward- and backward-difference
        realizations of Xu.  A purely centered scheme annihilates the
        checkerboard mode, so its discrete infimum collapses to 0; the
        one-sided pair has no null modes, is still exact on linear
        functions, and the average is second-order accurate.  Below
        p = 1.5 |Xu|^p is regularized to (|Xu|^2 + eps^2)^{p/2}.  The
        gradient is nodal (cell volume included) and lives on the free
        nodes.  At p = 2 the energy is (cv/2) x.Ax with
        A = X_h^T X_h (`HorizontalOperator.gram`), so energy and gradient
        cv Ax take one product with A; otherwise the energy is one
        product with X_h and the gradient one more with X_h^T.
        """
        op, p, cv = self.op, self.p, self.cv
        if p == 2.0:
            # the weight |Xu|^{p-2} is identically 1: a quadratic form in A
            ax = op.gram @ x
            return 0.5 * cv * float(x @ ax), (cv * ax if need_gradient else None)
        y = (op.matrix @ x).reshape(2, op.n_fields, op.n_nodes)
        speed2 = (y * y).sum(axis=1) + self.eps * self.eps
        energy = 0.5 * cv * float((speed2 ** (p / 2.0)).sum())
        if not need_gradient:
            return energy, None
        # subgradient 0 where |Xu| = 0 (one-sided derivative of t^p)
        with np.errstate(divide="ignore"):
            weight = np.where(speed2 > 0.0, speed2 ** (p / 2.0 - 1.0), 0.0)
        flux = (y * weight[:, None, :]).ravel()
        if self._matrix_t is None:
            # held for the solve: the view op.matrix.T would build a CSC
            # view and run scipy's scatter kernel on every product
            self._matrix_t = op.matrix.T.tocsr()
        return energy, 0.5 * p * cv * (self._matrix_t @ flux)

    def norm(self, x: np.ndarray, need_gradient: bool = True):
        """||S u||_{p*} and its gradient."""
        ps = self.p_star
        su = _smooth(self.values(x))
        mag = np.abs(su)
        mag_pm1 = mag ** (ps - 1.0)
        nrm = (self.cv * float(np.vdot(mag_pm1, mag))) ** (1.0 / ps)
        if not need_gradient or nrm == 0.0:
            return nrm, None
        dual = _smooth(np.copysign(mag_pm1, su)).ravel()[self.op.free_index]
        return nrm, self.cv * nrm ** (1.0 - ps) * dual

    def __call__(self, x: np.ndarray):
        """(quotient, its gradient, ||S u||_{p*}); the quotient is inf at u = 0."""
        nrm, dnorm = self.norm(x)
        if nrm == 0.0:
            return math.inf, None, 0.0
        p = self.p
        energy, denergy = self.energy(x)
        quotient = energy / nrm ** p
        return quotient, (denergy - (p * energy / nrm) * dnorm) / nrm ** p, nrm


def energy_report(system: VectorFieldSystem, u: GridFunction, p: float) -> EnergyReport:
    """Midpoint-rule p-energy and L^{p*} norm of u.

    The p-energy is the same symmetrized one-sided-difference functional
    the minimizer descends, so minimizer constants and oracle
    evaluations of reference profiles are directly comparable.
    """
    quot = _Quotient(system, u.domain, p)
    x = u.values.ravel()[quot.op.free_index]
    energy, _ = quot.energy(x, need_gradient=False)
    nrm, _ = quot.norm(x, need_gradient=False)
    ratio = energy / nrm ** p if nrm > 0 else None
    return EnergyReport(float(p), quot.p_star, energy, nrm, ratio, u.domain.box, u.domain.spacing)


@dataclass
class MinimizeResult:
    """The best start of `minimize_quotient`.

    ``constant`` is the quotient of the solve's last iterate, so nothing
    is evaluated again after it; `energy_report` of ``minimizer`` gives
    its energy and norm when a caller needs them.
    """

    minimizer: GridFunction
    constant: float                # p-energy at the normalized minimizer
    trace: list[float]             # quotient per iteration (best start)
    iterations: int                # L-BFGS iterations of the best start
    stop_reason: str               # "converged", "stalled" or "max_iter"
    start_quotients: list[float]
    p_star: float                  # the critical exponent pQ/(Q - p) of the norm
    evaluations: int               # quotient+gradient evaluations of the best start
    grad_norm: float               # 2-norm of the quotient gradient on the free nodes, at the minimizer
    decrement: float               # -g.d / f of the last L-BFGS direction d, at the minimizer

    @property
    def converged(self) -> bool:
        """True when the decrement -g.d / f fell below max(rel_tol, _DECREMENT_FLOOR)."""
        return self.stop_reason == "converged"


_MEMORY = 10             # L-BFGS curvature pairs kept
_ARMIJO = 1e-4           # sufficient-decrease constant
_MAX_BACKTRACKS = 60     # step halvings before the line search fails
# relative quotient change that rounding alone produces: the spread
# (max - min) / min of E(cu) / ||S cu||^p over 50 scalings c in [1/2, 2] at
# converged p = 2 minimizers, with the Gram-form energy, is 1.7e-15 on the
# 33 x 33 Grushin grid, 5.7e-15 on the 129 x 161 decay grid and 3.0e-15 to
# 5.3e-15 on R^3 at 33^3 (7.7e-15 where the centred start stalls); smaller
# drops are no decrease
_ROUNDOFF = 1e-14
# a solve stops on "converged" once -g.d / f is below this, whatever rel_tol:
# the model then predicts a decrease of at most 100 rounding units.  Without
# it, rel_tol = 0 solves (p = 1.5, 2 and 3 on the Grushin and R^3 grids) went
# on until a line search failed, at decrements of 1.9e-15 to 1.3e-13, and
# ended at most 2e-10 (relative) lower
_DECREMENT_FLOOR = 100 * _ROUNDOFF


def _direction(g: np.ndarray, bg: np.ndarray, pairs) -> np.ndarray:
    """-H g by the L-BFGS two-loop recursion over (s, y, By, 1/s.y) pairs, oldest first.

    The initial inverse Hessian is the SPD map B, scaled by s.y / y.By
    of the newest pair.  B is linear, so it is never applied here: with
    ``bg`` = Bg and the stored By of every pair, the first loop's
    q = g - sum alpha_i y_i has Bq = Bg - sum alpha_i By_i.  With no
    pairs the step is -Bg scaled so that its largest entry is 1.
    """
    if not pairs:
        return -bg / max(float(np.abs(bg).max()), 1e-30)
    q, bq = g.copy(), bg.copy()
    alphas = []
    for s, y, by, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        bq -= alpha * by
        alphas.append(alpha)
    _, y, by, rho = pairs[-1]
    q = bq / (rho * float(y @ by))
    for (s, y, _, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


def _rescale_pairs(pairs, c: float) -> None:
    """The curvature pairs of the iterate scaled by c: s -> c s, y -> y / c (s.y is kept).

    The quotient is scale-invariant, so its gradient at c x is g / c
    (and B of it Bg / c, as By -> By / c); the L-BFGS direction from the
    rescaled pairs is c times the old one.
    """
    for pair in pairs:
        pair[0] = pair[0] * c
        pair[1] = pair[1] / c
        pair[2] = pair[2] / c


def _lbfgs(quotient: _Quotient, x: np.ndarray, max_iter: int, rel_tol: float):
    """Minimize the quotient from x; the iterate is renormalized when its norm drifts.

    B (one V-cycle) is applied once per accepted step, to the new
    gradient; each pair stores By = Bg_new - Bg_old.  Returns
    (normalized x, quotient, trace, iterations, stop reason, evaluations,
    gradient norm at the normalized x, decrement -g.d / f).
    """
    precondition = quotient.op.multigrid
    f, g, nrm = quotient(x)
    bg = precondition(g)
    evaluations = 1
    trace = [f]
    pairs: deque = deque(maxlen=_MEMORY)
    it = 0
    while True:
        d = _direction(g, bg, pairs)
        slope = float(g @ d)
        if not slope < 0.0:
            # the curvature pairs give no descent direction: start afresh
            pairs.clear()
            d = _direction(g, bg, pairs)
            slope = float(g @ d)
        if pairs and -slope < max(rel_tol, _DECREMENT_FLOOR) * f:
            # the decrease the quasi-Newton model predicts is below rel_tol,
            # or at the rounding floor
            stop_reason = "converged"
            break
        if it == max_iter:
            stop_reason = "max_iter"
            break
        it += 1
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            cand = x + t * d
            c_f, c_g, c_nrm = quotient(cand)
            evaluations += 1
            # Armijo sufficient decrease, and a strict decrease beyond rounding
            if c_f <= f + _ARMIJO * t * slope and f - c_f > _ROUNDOFF * f:
                accepted = True
                break
            t *= 0.5
            if -t * slope < _ROUNDOFF * f:
                # no shorter step gives a first-order decrease above rounding
                break
        trace.append(c_f if accepted else f)
        if not accepted:
            stop_reason = "stalled"
            break
        c_bg = precondition(c_g)
        s, y = cand - x, c_g - g
        sy = float(s @ y)
        if sy > 1e-12 * float(y @ y):
            pairs.append([s, y, c_bg - bg, 1.0 / sy])
        x, f, g, bg, nrm = cand, c_f, c_g, c_bg, c_nrm
        if not 0.5 <= nrm <= 2.0:
            # u -> u / nrm leaves the quotient alone and scales its gradient by nrm
            x, g, bg = x / nrm, g * nrm, bg * nrm
            _rescale_pairs(pairs, 1.0 / nrm)
            nrm = 1.0
    return (x / nrm, f, trace, it, stop_reason, evaluations,
            float(np.linalg.norm(g)) * nrm, -slope / f)


def minimize_quotient(
    system: VectorFieldSystem,
    domain: Lattice,
    p: float = 2.0,
    init_centers: Sequence[Sequence[float]] | None = None,
    init: GridFunction | None = None,
    n_starts: int = 3,
    max_iter: int = 20000,
    rel_tol: float = 1e-9,
    seed: int = 0,
) -> MinimizeResult:
    """Minimize the quotient E(u) / ||S u||_{p*}^p by L-BFGS on the free nodes.

    The starts are ``init`` (when given), then ``init_centers`` (the box
    centre when there are none), then random centres in the middle half
    of the box; the first ``n_starts`` of them are run, and every centre
    starts a Gaussian bump.  Each start is normalized to
    ||S u||_{p*} = 1 and descended by limited-memory BFGS (two-loop
    recursion over the last 10 curvature pairs).  The recursion's
    initial inverse Hessian is B scaled by s.y / y.By of the newest pair,
    where B is one symmetric multigrid V-cycle for A = X_h^T X_h on the
    free nodes (`HorizontalOperator.multigrid`, built on the operator's
    first solve and kept with it); the first step is -Bg with its
    largest entry scaled to 1.  B is applied once per accepted step, to
    the new gradient.  The Armijo backtracking line search also requires
    a strict decrease larger than rounding, so the trace falls
    monotonically; it stops halving once the step's first-order decrease
    is below rounding.  The quotient gradient comes from the quotient
    rule; the iterate is renormalized whenever its norm leaves [1/2, 2].
    ``max_iter`` counts L-BFGS iterations (accepted steps) per start.
    A start stops with ``"converged"`` before its line search when, with
    at least one curvature pair, the decrement -g.d (the decrease that
    the quasi-Newton model predicts along the L-BFGS direction d) is
    below max(``rel_tol``, `_DECREMENT_FLOOR`) times the quotient; the
    ratio is unchanged when the iterate is rescaled, and the floor
    (1e-12) is where ``rel_tol=0`` stops.  At p = 2 the default 1e-9
    ends within about 5e-9 (relative) of the ``rel_tol=0`` constant; at
    p != 2 the decrement can be smaller than the true gap.  A start
    stops with ``"stalled"`` when its line search finds no decrease
    beyond rounding, and with ``"max_iter"`` after ``max_iter``
    iterations.  The best start's normalized iterate, stop reason,
    iteration and evaluation counts, final gradient norm and final
    decrement -g.d / f are returned.
    """
    Q = sum(system.weights)
    if not (1 < p < Q):
        raise SobolevError(f"need 1 < p < Q; got p = {p}, Q = {Q}")
    if n_starts < 1:
        raise SobolevError(f"need at least one start; got n_starts = {n_starts}")
    if init is not None and init.domain.shape != domain.shape:
        raise SobolevError("explicit initial iterate lives on a different lattice")
    quotient = _Quotient(system, domain, p)
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
    starts = ([init] if init is not None else []) + centers

    best = None
    start_quotients = []
    for start in starts[:n_starts]:
        u = start if isinstance(start, GridFunction) else bump(domain, start, widths)
        x = u.values.ravel()[quotient.op.free_index]
        if not np.any(x):
            raise SobolevError("initial iterate is fully masked")
        x = x / quotient.norm(x, need_gradient=False)[0]
        run = _lbfgs(quotient, x, max_iter, rel_tol)
        start_quotients.append(run[1])
        if best is None or run[1] < best[1]:
            best = run

    x, constant, trace, it, stop_reason, evaluations, grad_norm, decrement = best
    return MinimizeResult(GridFunction(domain, quotient.values(x)), constant, trace, it,
                          stop_reason, start_quotients, quotient.p_star, evaluations,
                          grad_norm, decrement)


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
    and raises SupportEscape.  Kept for moving minimizers by certified maps.
    """
    # imported on first use: it adds about 27 MB and 0.35 s to a bare
    # import, and nothing else needs it
    from scipy import ndimage

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
    rho_half: float | None         # smallest node distance holding half the mass
    mass_at_infinity: float

    def __post_init__(self):
        vals = self.levy_values
        if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
            raise SobolevError("Levy values must be non-decreasing in rho")


def _check_aligned(dfield, domain: Lattice) -> None:
    """Require a distance field on the function's nodes.

    The values must have the lattice's shape.  A field that carries its
    ``lattice`` (a `DistanceField`) must also have the same box and
    spacing; a bare ``values`` array is taken to be on the nodes.
    """
    lat = getattr(dfield, "lattice", None)
    if dfield.values.shape != domain.shape or (
        lat is not None and (lat.box != domain.box or lat.spacing != domain.spacing)
    ):
        raise SobolevError("distance field lattice does not match the function")


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
    be lattice-aligned with u's domain, one per sample center.  Each
    field's nodes are sorted by distance once, and its cumulative mass
    in that order is its profile: the mass at d < rho is the prefix
    before the first node at d >= rho, so Q is non-decreasing in rho.
    rho_half is exact: the smallest node distance rho at which some
    field's closed ball {d <= rho} holds half the mass, so Q(rho) < 1/2
    for rho <= rho_half and Q(rho) >= 1/2 above it.  It is None when
    Q < 1/2 at the largest grid radius.
    """
    if len(h_samples) != len(distance_fields):
        raise SobolevError("one distance field per sampled center is required")
    dens = np.abs(u.values) ** p_star
    if not dens.any():
        raise SobolevError("zero function has no concentration profile")
    rho_grid = sorted(float(r) for r in rho_grid)
    values = np.zeros(len(rho_grid))
    best = np.full(len(rho_grid), -1)
    half = math.inf
    for i, df in enumerate(distance_fields):
        _check_aligned(df, u.domain)
        order = np.argsort(df.values, axis=None, kind="stable")
        dist = df.values.ravel()[order]
        mass = np.cumsum(dens.ravel()[order])
        # over its own last prefix, so that the whole lattice holds exactly 1
        mass /= mass[-1]
        inside = np.searchsorted(dist, rho_grid)
        q = np.where(inside > 0, mass[inside - 1], 0.0)
        # the first field to reach a value keeps it
        better = q > values
        values[better] = q[better]
        best[better] = i
        # mass is non-decreasing and ends at 1: the first node that reaches 1/2
        half = min(half, float(dist[np.searchsorted(mass, 0.5)]))
    values = values.tolist()
    reached = best[best >= 0]
    center = tuple(map(float, h_samples[reached[-1]])) if reached.size else None
    rho_half = half if values and values[-1] >= 0.5 else None
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
        y = _realizations(system, ut)
        # int |Xu| = 1/2 sum_{+-} int |X^{+-} u|, the energy's two realizations
        denom = 0.5 * float(np.sqrt((y * y).sum(axis=1)).sum()) * ut.domain.cell_volume()
        if denom == 0.0:
            raise SobolevError("seed function has zero horizontal gradient")
        ratios.append(ut.norm(q) / denom)
    logs_t = np.log(ts)
    logs_r = np.log(ratios)
    slope = float(np.polyfit(logs_t, logs_r, 1)[0]) if len(ts) > 1 else 0.0
    return ExponentProbeReport(float(kappa), ts, ratios, slope, max(ratios) / min(ratios))


_DECAY_VALUE_FLOOR = 1e-10   # `decay_profile` fits only nodes with |u| above this
_DECAY_MAX_RESIDUAL = 0.5    # and rejects a fit whose RMS residual (in log|u|) exceeds this


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
) -> DecayFit:
    """Least-squares fit of log|u| against log d over an annulus.

    The annulus should exclude both the concentration core and the
    Dirichlet boundary layer; nodes with |u| <= _DECAY_VALUE_FLOOR are
    left out.  A fit is rejected when the RMS residual exceeds
    _DECAY_MAX_RESIDUAL or the profile shows no decay at all.
    """
    _check_aligned(dfield, u.domain)
    d = dfield.values
    sel = (d >= r_inner) & (d <= r_outer) & (np.abs(u.values) > _DECAY_VALUE_FLOOR)
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
    rejected = resid > _DECAY_MAX_RESIDUAL or slope > -0.05
    return DecayFit(float(slope), resid, int(sel.sum()), rejected)

