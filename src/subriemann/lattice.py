"""The truncated box lattice shared by the metric and Sobolev layers.

One `Lattice` holds an axis-aligned box, the per-axis spacing, the node
coordinates per axis, its ``interior`` (the nodes off the outer shell,
the Dirichlet unknowns) and the control-set resolution that distance
fields read.  The full-shape coordinate mesh and shell mask are built
on first use, so the metric layer, which reads the axes at the nodes it
steps from, never pays for them.  For the Sobolev layer, a
lattice holds one cache, keyed by system: the assembled sparse
horizontal-gradient operator X_h (`Lattice.horizontal_operator`).  The
polynomial coefficients it is built from are evaluated on the mesh for
the assembly and then dropped.  What is derived from X_h belongs to the
operator and is built on first use: its Gram matrix A = X_h^T X_h
(`HorizontalOperator.gram`, on the first p = 2 energy) and the
preconditioner B ~ A^-1 of the Sobolev solver
(`HorizontalOperator.preconditioner`, on the first solve): one V-cycle
of a Galerkin multigrid hierarchy of A whose coarsest level is solved
exactly by block-tridiagonal elimination (`BlockTridiagonal`).  On a 2-D
lattice of up to 4 096 unknowns that level is the only one, and B is the
exact solve.  So evaluating an energy never builds B, and the diagnostics
that read X_h alone never form A.  X_h^T itself is not kept: the
Sobolev quotient builds it in CSR on its first p != 2 gradient and
holds it for the solve.  Exact polynomials become floats here, in
`eval_grid`, and nowhere else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import VectorFieldSystem
from .polynomials import Polynomial


class LatticeError(RuntimeError):
    pass


def eval_grid(poly: Polynomial, coords) -> np.ndarray:
    """The one float evaluator of exact polynomials, on numpy coordinates broadcast together."""
    if len(coords) != poly.dim:
        raise LatticeError("coordinate count mismatch")
    shape = np.broadcast_shapes(*(np.shape(c) for c in coords)) if coords else ()
    total = np.zeros(shape)
    for e, c in poly.terms.items():
        term = np.full(shape, float(c))
        for x, k in zip(coords, e):
            if k:
                term = term * np.asarray(x, dtype=float) ** k
        total = total + term
    return total


@dataclass(frozen=True)
class HorizontalOperator:
    """X_h: the forward and backward one-sided realizations of every X_j.

    ``matrix`` has one row per (realization, field, node), ordered
    forward before backward, then by field, then by flat node index, so
    ``(matrix @ x).reshape(2, n_fields, n_nodes)`` holds X_j^+ u and
    X_j^- u on every node of the lattice ``shape``.  Its columns are the
    unknowns, the ``interior`` nodes in C order: `unknowns` and `grid`
    map a node grid to them and back.  ``gram`` and ``preconditioner``
    are derived from ``matrix`` on first use and then kept with it.
    """

    matrix: object
    n_fields: int
    shape: tuple[int, ...]
    interior: tuple[slice, ...]

    @property
    def n_nodes(self) -> int:
        return math.prod(self.shape)

    def unknowns(self, u: np.ndarray) -> np.ndarray:
        """The unknowns x of the node grid u: its interior values, in C order."""
        return u[self.interior].ravel()

    def grid(self, x: np.ndarray) -> np.ndarray:
        """The node grid of the unknowns x, zero on the boundary shell."""
        u = np.zeros(self.shape)
        u[self.interior] = x.reshape(u[self.interior].shape)
        return u

    @cached_property
    def gram(self):
        """The Gram matrix A = X_h^T X_h on the unknowns, in CSR (formed on first use).

        The p = 2 energy is 1/2 x.Ax and its gradient Ax, one product
        instead of X_h and X_h^T.
        """
        # X_h^T in CSR only while the product is formed
        return self.matrix.T.tocsr() @ self.matrix

    @cached_property
    def preconditioner(self) -> "Multigrid":
        """B ~ A^-1 for A = X_h^T X_h: one V-cycle of its Galerkin hierarchy (built on first use).

        Level k + 1 lives on the even-index nodes of level k's grid.  Its
        prolongation P is the tensor product (``sparse.kron``) of one
        linear interpolation per axis (on the finest level, its interior
        rows only); its operator is P^T A P.  Coarsening stops at
        `_COARSEST` unknowns or fewer (per dimension), and that level is
        solved exactly; with no more unknowns than that on the finest
        level there is no coarse level, and B is A^-1.
        """
        return Multigrid(self)


class Lattice:
    """Axis-aligned box lattice with a Dirichlet interior and a control set.

    The spacing must divide every box side, so each axis ends on the box.

    ``interior`` indexes the nodes off the outermost shell, where a
    function may be nonzero; ``boundary`` (built on first use) marks it.

    ``n_random_controls`` (at least 0) defaults to 2 m^2 extra unit
    directions on top of the +-axis controls; ``tau`` defaults to twice
    the largest spacing (steps must clear the snapping radius).
    """

    def __init__(self, box, spacing, *,
                 n_random_controls: int | None = None, tau: float | None = None):
        if not box:
            raise LatticeError("empty box")
        self.box = [(float(lo), float(hi)) for lo, hi in box]
        if isinstance(spacing, (int, float)):
            spacing = [float(spacing)] * len(self.box)
        self.spacing = [float(h) for h in spacing]
        if len(self.spacing) != len(self.box):
            raise LatticeError("one spacing per axis is required")
        if not all(0 < h < math.inf for h in self.spacing):
            raise LatticeError(f"spacing must be positive and finite; got {self.spacing}")
        if not all(math.isfinite(lo) and math.isfinite(hi) for lo, hi in self.box):
            raise LatticeError(f"box ends must be finite; got {self.box}")
        if any(not hi > lo for lo, hi in self.box):
            raise LatticeError("box intervals must be nonempty")
        if tau is not None and not 0 < tau < math.inf:
            raise LatticeError(f"tau must be positive and finite; got {tau}")
        if n_random_controls is not None and n_random_controls < 0:
            raise LatticeError("the random control count must be nonnegative")
        self.shape = tuple(
            int(round((hi - lo) / h)) + 1
            for (lo, hi), h in zip(self.box, self.spacing)
        )
        if any(n < 3 for n in self.shape):
            raise LatticeError("box too small for the boundary shell")
        for (lo, hi), h, n in zip(self.box, self.spacing, self.shape):
            # rounding may move the last node by 1e-6 of a cell, no more
            if abs(lo + h * (n - 1) - hi) > 1e-6 * h:
                raise LatticeError(f"spacing {h} does not divide the box side [{lo}, {hi}]")
        self.n_random_controls = n_random_controls
        self.tau = tau
        self.axes = [
            lo + h * np.arange(n)
            for (lo, _), h, n in zip(self.box, self.spacing, self.shape)
        ]
        self.interior = (slice(1, -1),) * self.dim
        self._operator_cache: dict = {}

    @cached_property
    def boundary(self) -> np.ndarray:
        """The outermost node shell, a full-shape mask (built on first use)."""
        shell = np.ones(self.shape, dtype=bool)
        shell[self.interior] = False
        return shell

    @cached_property
    def mesh(self) -> tuple[np.ndarray, ...]:
        """Every node's coordinates, one full-shape array per axis (built on first use)."""
        return np.meshgrid(*self.axes, indexing="ij")

    @property
    def dim(self) -> int:
        return len(self.box)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def node_index(self, point) -> tuple[int, ...]:
        """Index of the node nearest to ``point``."""
        idx = []
        for (lo, _), h, n, x in zip(self.box, self.spacing, self.shape, point):
            j = int(round((float(x) - lo) / h))
            if not 0 <= j < n:
                raise LatticeError(f"point {point} outside the lattice box")
            idx.append(j)
        return tuple(idx)

    def node_coords(self, index) -> tuple[float, ...]:
        return tuple(float(ax[i]) for ax, i in zip(self.axes, index))

    def field_grids(self, system: VectorFieldSystem):
        """Polynomial coefficients a_jk evaluated on the nodes, indexed [field][axis].

        Evaluated on every call: the lattice keeps the operator built
        from them, not the grids.
        """
        return [
            [eval_grid(f.coeffs[k], self.mesh) for k in range(system.dim)]
            for f in system.fields
        ]

    def horizontal_operator(self, system: VectorFieldSystem) -> HorizontalOperator:
        """The sparse operator X_h of ``system`` on this lattice (cached).

        X_j^+ u(i) = sum_k a_jk(i) (u(i + e_k) - u(i)) / h_k and X_j^- u(i)
        = sum_k a_jk(i) (u(i) - u(i - e_k)) / h_k at every node i, with u
        zero off the interior (so also outside the box).  Axes whose
        coefficient vanishes on the whole lattice are skipped.
        """
        cached = self._operator_cache.get(id(system))
        if cached is None:
            op = self._assemble_operator(system)
            cached = self._operator_cache[id(system)] = (system, op)
        return cached[1]

    def _assemble_operator(self, system: VectorFieldSystem) -> HorizontalOperator:
        # imported on first use: the metric layer and a bare import never need it
        from scipy import sparse

        grids = self.field_grids(system)
        n_nodes = int(np.prod(self.shape))
        n_rows = 2 * len(grids) * n_nodes
        # int32 indices keep the CSR arrays at 12 bytes per entry
        max_nnz = n_rows * (self.dim + 1)
        index = np.int32 if max_nnz < 2 ** 31 else np.int64
        # column of each node, -1 on the boundary shell
        column = np.full(self.shape, -1, dtype=index)
        inner = column[self.interior]
        inner[...] = np.arange(inner.size, dtype=index).reshape(inner.shape)
        data, indices, counts = [], [], []
        for side in (1, -1):
            for comps in grids:
                axes = [k for k, g in enumerate(comps) if np.any(g)]
                # one slot per neighbour along an active axis plus the self
                # slot, ordered by column so every row comes out sorted: the
                # forward neighbour along axis 0 has the largest column
                n = len(axes)
                cols = np.full((n_nodes, n + 1), -1, dtype=index)
                vals = np.zeros(cols.shape)
                self_slot = 0 if side > 0 else n
                cols[:, self_slot] = column.ravel()
                for i, k in enumerate(axes):
                    slot = n - i if side > 0 else i
                    coef = (comps[k] / self.spacing[k]).ravel()
                    # the neighbour one step along axis k on this side
                    there = np.full(self.shape, -1, dtype=index)
                    lo, hi = [slice(None)] * self.dim, [slice(None)] * self.dim
                    lo[k], hi[k] = slice(None, -1), slice(1, None)
                    dst, src = (lo, hi) if side > 0 else (hi, lo)
                    there[tuple(dst)] = column[tuple(src)]
                    cols[:, slot] = there.ravel()
                    vals[:, slot] = side * coef
                    vals[:, self_slot] -= vals[:, slot]
                keep = (cols >= 0) & (vals != 0.0)
                data.append(vals[keep])
                indices.append(cols[keep])
                counts.append(keep.sum(axis=1, dtype=index))
        indptr = np.zeros(n_rows + 1, dtype=index)
        np.cumsum(np.concatenate(counts), out=indptr[1:])
        indices = np.concatenate(indices)
        data = np.concatenate(data)
        matrix = sparse.csr_array((data, indices, indptr), shape=(n_rows, inner.size))
        return HorizontalOperator(matrix, len(grids), self.shape, self.interior)


def _smoother_diagonal(a) -> np.ndarray:
    """The diagonal of a, with 1 on an empty row (a node the operator does not see)."""
    diag = a.diagonal()
    diag[diag == 0.0] = 1.0
    return diag


def _interpolation(n: int):
    """Linear interpolation from the even nodes 0, 2, ... of an n-node axis (zero beyond)."""
    from scipy import sparse

    n_coarse = (n + 1) // 2
    odd = np.arange(1, n, 2)
    rows = np.concatenate([2 * np.arange(n_coarse), odd, odd])
    cols = np.concatenate([np.arange(n_coarse), odd // 2, odd // 2 + 1])
    vals = np.concatenate([np.ones(n_coarse), np.full(2 * odd.size, 0.5)])
    keep = cols < n_coarse
    return sparse.csr_array((vals[keep], (rows[keep], cols[keep])), shape=(n, n_coarse))


class BlockTridiagonal:
    """An exact solve of A x = r on a box of unknowns, by block LDL^T elimination.

    ``a`` is a symmetric positive semidefinite matrix on the nodes of the
    box ``shape`` in C order.  Its unknowns are taken plane by plane
    along the box's longest axis (the first one on ties), so a plane
    holds at most n^((d-1)/d) of the n unknowns.  When ``a`` couples a
    node only to nodes at most one plane away, as X_h^T X_h and each
    Galerkin level of it do, it is block tridiagonal: diagonal blocks
    D_i and sub-diagonal blocks L_i (plane i against plane i - 1).  An
    entry that couples planes further apart raises `LatticeError`.  Its
    one singular case is read from the structure: an empty row (a node
    the system leaves unseen) gets a unit diagonal, as in the smoother,
    so the solve agrees with the pseudo-inverse on the range of ``a``
    and is the identity on those nodes.

    The factor is S_0 = D_0 and S_i = D_i - M_i L_i^T with M_i = L_i
    S_{i-1}^-1 (Golub & Van Loan, Matrix Computations, sec. 4.5); it keeps
    the symmetrized S_i^-1 and M_i^T.  A solve is a forward sweep
    y_i -= M_i y_{i-1}, one batched product z = S^-1 y, and a backward
    sweep x_i = z_i - M_{i+1}^T x_{i+1}, whose maps are each other's
    transposes, so the solve is symmetric.
    """

    def __init__(self, a, shape):
        axis = int(np.argmax(shape))
        # planes[i]: the flat indices of the nodes of plane i, in C order
        nodes = np.moveaxis(np.arange(math.prod(shape)).reshape(shape), axis, 0)
        self.planes = nodes.reshape(shape[axis], -1)
        n_planes, m = self.planes.shape
        plane, place = np.empty((2, self.planes.size), dtype=np.intp)
        plane[self.planes] = np.arange(n_planes)[:, None]
        place[self.planes] = np.arange(m)
        coo = a.tocoo()
        off = coo.row != coo.col
        rows = np.concatenate([coo.row[off], np.arange(plane.size)])
        cols = np.concatenate([coo.col[off], np.arange(plane.size)])
        vals = np.concatenate([coo.data[off], _smoother_diagonal(a)])
        step = plane[rows] - plane[cols]
        if np.abs(step).max() > 1:
            raise LatticeError("the matrix couples unknowns more than one plane apart")
        # blocks[i] holds D_i and L_i (L_0 is zero); the upper entries repeat L
        lower = step >= 0
        flat = ((2 * plane[rows] + step) * m + place[rows]) * m + place[cols]
        blocks = np.bincount(flat[lower], vals[lower], minlength=2 * n_planes * m * m)
        blocks = blocks.reshape(n_planes, 2, m, m)
        # inverse[i] = S_i^-1, and lower_t[i - 1] = M_i^T = S_{i-1}^-1 L_i^T
        self.inverse = np.empty((n_planes, m, m))
        self.lower_t = np.empty((n_planes - 1, m, m))
        schur = blocks[0, 0]
        for i in range(n_planes):
            if i:
                self.lower_t[i - 1] = self.inverse[i - 1] @ blocks[i, 1].T
                schur = blocks[i, 0] - blocks[i, 1] @ self.lower_t[i - 1]
            inverse = np.linalg.inv(schur)
            self.inverse[i] = 0.5 * (inverse + inverse.T)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """x with A x = r: a forward sweep, the pivot solves, a backward sweep."""
        y = r[self.planes]
        for i, m_t in enumerate(self.lower_t):
            y[i + 1] -= y[i] @ m_t
        y = (self.inverse @ y[..., None])[..., 0]
        for i in range(len(self.lower_t) - 1, -1, -1):
            y[i] -= self.lower_t[i] @ y[i + 1]
        x = np.empty_like(r)
        x[self.planes] = y
        return x


# unknowns at or below which a level is solved directly, by dimension
# (measured on one BLAS thread).  In 2-D an exact solve costs more per
# application than the V-cycle it replaces (0.43 against 0.16 ms on a
# 63 x 63 Grushin box, 0.13 against 0.09 ms on 31 x 31), and factoring it
# takes 1.5 ms at 31 x 31 and 10 ms at 63 x 63; but it cuts the
# criterion-8 solve from 40 iterations to 14 per box, so the iteration
# count, not the per-solve cost, sets the 2-D size.  The 127 x 159 decay
# grid keeps two Galerkin levels: factored whole its planes hold 127
# unknowns, and the factor took 190 ms and each solve 3.2 ms against
# 0.62 ms for the V-cycle.  In 3-D, on R^3 at 33^3 from (0.1, -0.2, 0.3),
# a 17^3 coarsest level took 21 iterations against 18 with a 5^3 one, and
# an exact solve of all 31^3 unknowns took 18, in 1.6 s against 0.1 s.
_COARSEST = {2: 4096, 3: 500}
_DAMPING = 0.6     # Jacobi damping of the smoother


class Multigrid:
    """One symmetric V(1,1) cycle for A = X_h^T X_h: an SPD approximation of A^-1.

    Each level smooths with damped Jacobi, x <- x + w D^-1 (r - A x), once
    before and once after the coarse correction x <- x + P V(P^T (r - A x)).
    The coarsest level is solved exactly (`BlockTridiagonal`); when the
    finest level has at most `_COARSEST` unknowns it is the coarsest, and
    the cycle is A^-1.  The pre- and post-smoother are the same symmetric
    map, so the cycle is symmetric; it is positive definite when
    w lambda_max(D^-1 A) < 2 on every level, which the damping enforces
    through the Gershgorin bound on lambda_max.

    On a box every coarse node touches an interior fine node, and on
    every level after the finest all nodes are unknowns, so each P is the
    plain tensor product of the per-axis interpolations.  An axis with
    one interior node interpolates its two coarse nodes equally; their
    two equal columns would make P^T A P singular, so they are one
    coarse node, which the interior node takes whole.
    """

    def __init__(self, op: HorizontalOperator):
        from scipy import sparse

        a = op.gram
        # the operator's index type (int32 where it fits) carries over to
        # the products below, so every level stays at 12 bytes an entry
        index = op.matrix.indices.dtype
        # the finest level's unknowns are the interior nodes of each axis
        shape = tuple(n - 2 for n in op.shape)
        axes = [_interpolation(n)[1:-1] if n > 3 else sparse.csr_array(np.ones((1, 1)))
                for n in op.shape]
        coarsest = _COARSEST.get(len(shape), _COARSEST[3])
        self.levels = []
        while a.shape[0] > coarsest:
            p = axes[0]
            for axis in axes[1:]:
                p = sparse.kron(p, axis, format="csr")
            p = sparse.csr_array((p.data, p.indices.astype(index), p.indptr.astype(index)),
                                 shape=p.shape)
            pt = p.T.tocsr()
            diag = _smoother_diagonal(a)
            # Gershgorin: lambda_max(D^-1 A) <= max_i sum_j |a_ij| / d_i
            bound = float((abs(a).sum(axis=1) / diag).max())
            damping = min(_DAMPING, 1.9 / bound)
            self.levels.append((a, damping / diag, p, pt))
            a = (pt @ (a @ p)).tocsr()
            shape = tuple(axis.shape[1] for axis in axes)
            axes = [_interpolation(n) for n in shape]
        self.coarsest = BlockTridiagonal(a, shape)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """One V-cycle from x = 0 for A x = r."""
        return self._cycle(0, r)

    def _cycle(self, level: int, r: np.ndarray) -> np.ndarray:
        if level == len(self.levels):
            return self.coarsest(r)
        a, smooth, p, pt = self.levels[level]
        x = smooth * r
        x += p @ self._cycle(level + 1, pt @ (r - a @ x))
        x += smooth * (r - a @ x)
        return x
