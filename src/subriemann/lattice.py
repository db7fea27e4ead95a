"""The truncated box lattice shared by the metric and Sobolev layers.

One `Lattice` holds an axis-aligned box, the per-axis spacing, the node
coordinates, the outer boundary shell and the Dirichlet ``free`` mask,
plus the control-set resolution that distance fields read.  The exact
polynomial coefficients of a vector field system are evaluated on the
nodes once per (lattice, system) and cached, and so is the assembled
sparse horizontal-gradient operator X_h built from them, with its Gram
matrix X_h^T X_h.  X_h^T itself is not kept: the p != 2 gradient reads
the transposed view ``matrix.T``.  This is the first module that turns
exact polynomials into floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import VectorFieldSystem
from .polynomials import Polynomial


class LatticeError(RuntimeError):
    pass


def eval_grid(poly: Polynomial, coords) -> np.ndarray:
    """Evaluate an exact polynomial on numpy coordinate arrays (broadcast together)."""
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
    X_j^- u on every node.  Its columns are the free nodes only, in the
    order of ``free_index`` (flat node indices): x = u.ravel()[free_index].
    ``gram`` is the Gram matrix A = X_h^T X_h on the free nodes, in CSR:
    the p = 2 energy is 1/2 x.Ax and its gradient Ax, one product
    instead of X_h and X_h^T.
    ``diag`` is the diagonal of A: the column sums of squares, one per
    free node, and 1 on a free node with no entries.  The Sobolev
    solver's L-BFGS takes its inverse as the initial inverse Hessian
    (Jacobi scaling).  It grows
    with the squared coefficients and inverse squared spacings, so it
    varies strongly on a Grushin grid and is constant on the free nodes
    of a Euclidean lattice.
    """

    matrix: object
    gram: object
    free_index: np.ndarray
    n_fields: int
    n_nodes: int
    diag: np.ndarray


class Lattice:
    """Axis-aligned box lattice with a Dirichlet mask and a control set.

    ``boundary`` marks the outermost node shell.  ``free`` marks nodes
    where a function may be nonzero: everything off the shell, further
    restricted by an optional membership ``predicate`` on float
    coordinates (the only way to express a non-box domain).

    ``n_random_controls`` defaults to 2 m^2 extra unit directions on top
    of the +-axis controls; ``tau`` defaults to twice the largest
    spacing (steps must clear the snapping radius).
    """

    def __init__(self, box, spacing, predicate: Callable | None = None, *,
                 n_random_controls: int | None = None, tau: float | None = None):
        if not box:
            raise LatticeError("empty box")
        self.box = [(float(lo), float(hi)) for lo, hi in box]
        if isinstance(spacing, (int, float)):
            spacing = [float(spacing)] * len(self.box)
        self.spacing = [float(h) for h in spacing]
        if len(self.spacing) != len(self.box):
            raise LatticeError("one spacing per axis is required")
        if any(h <= 0 for h in self.spacing):
            raise LatticeError("spacing must be positive")
        if any(not hi > lo for lo, hi in self.box):
            raise LatticeError("box intervals must be nonempty")
        if tau is not None and tau <= 0:
            raise LatticeError("tau must be positive")
        self.shape = tuple(
            int(round((hi - lo) / h)) + 1
            for (lo, hi), h in zip(self.box, self.spacing)
        )
        if any(n < 3 for n in self.shape):
            raise LatticeError("box too small for the boundary shell")
        self.n_random_controls = n_random_controls
        self.tau = tau
        self.predicate = predicate
        self.axes = [
            lo + h * np.arange(n)
            for (lo, _), h, n in zip(self.box, self.spacing, self.shape)
        ]
        self.mesh = np.meshgrid(*self.axes, indexing="ij")
        boundary = np.zeros(self.shape, dtype=bool)
        for ax in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[ax] = 0
            boundary[tuple(sl)] = True
            sl[ax] = self.shape[ax] - 1
            boundary[tuple(sl)] = True
        self.boundary = boundary
        free = ~boundary
        if predicate is not None:
            free &= np.vectorize(lambda *xs: bool(predicate(xs)))(*self.mesh)
        self.free = free
        self._field_cache: dict = {}
        self._operator_cache: dict = {}

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
        """Polynomial coefficients a_jk evaluated on the nodes, indexed [field][axis] (cached)."""
        # the cache keeps the system alive so its id cannot be reused
        cached = self._field_cache.get(id(system))
        if cached is None:
            grids = [
                [eval_grid(f.coeffs[k], self.mesh) for k in range(system.dim)]
                for f in system.fields
            ]
            cached = self._field_cache[id(system)] = (system, grids)
        return cached[1]

    def horizontal_operator(self, system: VectorFieldSystem) -> HorizontalOperator:
        """The sparse operator X_h of ``system`` on this lattice (cached).

        X_j^+ u(i) = sum_k a_jk(i) (u(i + e_k) - u(i)) / h_k and X_j^- u(i)
        = sum_k a_jk(i) (u(i) - u(i - e_k)) / h_k at every node i, with u
        zero off the free nodes (so also outside the box).  Axes whose
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
        free_index = np.flatnonzero(self.free)
        # column of each node, -1 off the free nodes
        column = np.full(self.shape, -1, dtype=index)
        column.ravel()[free_index] = np.arange(free_index.size, dtype=index)
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
        matrix = sparse.csr_array((data, indices, indptr), shape=(n_rows, free_index.size))
        # X_h^T in CSR only while the product is formed
        gram = matrix.T.tocsr() @ matrix
        diag = gram.diagonal()
        diag[diag == 0.0] = 1.0
        return HorizontalOperator(matrix, gram, free_index, len(grids), n_nodes, diag)

    def clamp(self, values: np.ndarray) -> np.ndarray:
        return np.where(self.free, values, 0.0)
