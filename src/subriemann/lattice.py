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
exactly by nested dissection (`NestedDissection`).  On a 2-D lattice of
up to 4 096 unknowns that level is the only one, and B is the exact
solve.  So evaluating an energy never builds B, and the diagnostics
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

    ``n_random_controls`` defaults to 2 m^2 extra unit directions on top
    of the +-axis controls; ``tau`` defaults to twice the largest
    spacing (steps must clear the snapping radius).
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


# a sub-box of at most this many unknowns is eliminated whole; on the
# 31 x 31 and 127 x 159 Grushin grids, 32 applied and factored faster than
# 16, 64 or 128
_LEAF = 32


def _dissect(shape: tuple[int, ...]) -> list:
    """The nested-dissection fronts of a box of nodes, each after its parent.

    A front is (depth, parent, separator, halo): the flat indices of the
    nodes it eliminates, the middle plane of its sub-box's longest axis
    (the whole sub-box when it has at most `_LEAF` nodes), and of the
    nodes just outside its sub-box.
    """
    nodes = np.arange(math.prod(shape)).reshape(shape)
    fronts = []
    stack = [(tuple((0, k) for k in shape), 0, -1)]
    while stack:
        box, depth, parent = stack.pop()
        lengths = [hi - lo for lo, hi in box]
        if min(lengths) == 0:
            continue
        inside = tuple(slice(lo, hi) for lo, hi in box)
        around = tuple(slice(max(lo - 1, 0), hi + 1) for lo, hi in box)
        ring = np.ones(nodes[around].shape, dtype=bool)
        ring[tuple(slice(lo - s.start, hi - s.start) for (lo, hi), s in zip(box, around))] = False
        halo = nodes[around][ring]
        if math.prod(lengths) <= _LEAF:
            fronts.append((depth, parent, nodes[inside].ravel(), halo))
            continue
        k = int(np.argmax(lengths))
        lo, hi = box[k]
        mid = (lo + hi) // 2
        plane = list(inside)
        plane[k] = mid
        fronts.append((depth, parent, nodes[tuple(plane)].ravel(), halo))
        for half in ((lo, mid), (mid + 1, hi)):
            stack.append((box[:k] + (half,) + box[k + 1:], depth + 1, len(fronts) - 1))
    return fronts


class NestedDissection:
    """An exact solve of A x = r on a box of unknowns, by nested dissection.

    ``a`` is a symmetric positive semidefinite matrix on the nodes of the
    box ``shape`` in C order that couples each node only to nodes at
    most one step away along every axis, as X_h^T X_h and each Galerkin
    level of it do.  Its one singular case is read from the structure:
    an empty row (a node the system leaves unseen) gets a unit diagonal,
    as in the smoother, so the solve agrees with the pseudo-inverse on
    the range of ``a`` and is the identity on those nodes.

    The box is bisected at the middle plane of its longest axis, and each
    half again, down to sub-boxes of at most `_LEAF` nodes (George,
    SIAM J. Numer. Anal. 10, 1973).  Each sub-box is a front: it
    eliminates its separator plane (a leaf: all of its nodes) once its
    two halves are eliminated, and its halo, the nodes just outside the
    sub-box, all on the planes of enclosing fronts, receives the Schur
    complement.  The fronts of one depth are padded to one size and
    stacked, so a solve is a forward and a backward sweep of a few numpy
    calls per depth.  A front keeps the inverse of its pivot block S and
    its halo block times that inverse, L; the sweeps are r_B -= L r_S
    (deepest first) and x_S = S^-1 r_S - L^T x_B (root first), so the
    solve is symmetric.
    """

    def __init__(self, a, shape):
        n = math.prod(shape)
        fronts = _dissect(tuple(shape))
        depth, parent, seps, halos = zip(*fronts)
        depth, parent = np.array(depth), np.array(parent)
        n_sep = np.array([s.size for s in seps])
        n_halo = np.array([h.size for h in halos])
        # each node's front and its place in that front's separator
        front_of, place = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
        every = np.concatenate(seps)
        front_of[every] = np.repeat(np.arange(len(fronts)), n_sep)
        place[every] = np.arange(n) - np.repeat(np.cumsum(n_sep) - n_sep, n_sep)
        # the fronts of one depth stack in one (k, m, m) array, pivots first
        n_depths = int(depth.max()) + 1
        slot = np.empty(len(fronts), dtype=np.intp)
        s_pad, b_pad, count = (np.zeros(n_depths, dtype=np.intp) for _ in range(3))
        for f, d in enumerate(depth):
            slot[f] = count[d]
            count[d] += 1
        np.maximum.at(s_pad, depth, n_sep)
        np.maximum.at(b_pad, depth, n_halo)
        m = s_pad + b_pad
        offset = np.concatenate([[0], np.cumsum(count * m * m)])
        # a (front, halo node) pair's place in the front: after the pivots
        halo_key = np.repeat(np.arange(len(fronts)) * n, n_halo) + np.concatenate(halos)
        halo_place = np.arange(halo_key.size) - np.repeat(np.cumsum(n_halo) - n_halo, n_halo)
        order = np.argsort(halo_key)
        # a sentinel past every key, so that a node of the front's own
        # separator finds some place too (and ignores it)
        halo_key = np.append(halo_key[order], len(fronts) * n)
        halo_place = np.append(halo_place[order], 0)

        def within(f, node):
            """Place of each node in front f's matrix (pivots, then halo)."""
            found = np.searchsorted(halo_key, f * n + node)
            return np.where(front_of[node] == f, place[node], s_pad[depth[f]] + halo_place[found])

        # each entry of a belongs to the front that eliminates its earlier node
        coo = a.tocoo()
        off = coo.row != coo.col
        rows = np.concatenate([coo.row[off], np.arange(n)])
        cols = np.concatenate([coo.col[off], np.arange(n)])
        vals = np.concatenate([coo.data[off], _smoother_diagonal(a)])
        node_depth = depth[front_of]
        owner = front_of[np.where(node_depth[rows] >= node_depth[cols], rows, cols)]
        size = m[depth[owner]]
        flat = (offset[depth[owner]] + slot[owner] * size * size
                + within(owner, rows) * size + within(owner, cols))
        matrices = np.bincount(flat, vals, minlength=offset[-1])

        self.depths = []
        below = None   # the deeper depth's fronts, their halos and Schur complements
        for d in reversed(range(n_depths)):
            mine = np.flatnonzero(depth == d)
            k, s, b = mine.size, s_pad[d], b_pad[d]
            front = matrices[offset[d]:offset[d + 1]].reshape(k, m[d], m[d])
            if below is not None:
                # extend-add each child's Schur complement into its parent
                children, child_halo, u = below
                real = child_halo < n
                dest = within(np.repeat(parent[children], b_pad[d + 1]),
                              np.where(real, child_halo, 0).ravel()).reshape(real.shape)
                dest = np.where(real, dest, 0)
                dest = (slot[parent[children]][:, None, None] * m[d] * m[d]
                        + dest[:, :, None] * m[d] + dest[:, None, :])
                front += np.bincount(dest.ravel(), u.ravel(),
                                     minlength=front.size).reshape(front.shape)
            sep = np.full((k, s), n)
            halo = np.full((k, b), n)
            for i, f in enumerate(mine):
                sep[i, :n_sep[f]] = seps[f]
                halo[i, :n_halo[f]] = halos[f]
            # the padding pivots are 1, and their rows and columns 0
            front.reshape(k, -1)[:, :(m[d] + 1) * s:m[d] + 1][sep == n] = 1.0
            inverse = np.linalg.inv(front[:, :s, :s])
            inverse = 0.5 * (inverse + inverse.transpose(0, 2, 1))
            lower = front[:, s:, :s] @ inverse
            # [S^-1, -L^T]: the backward sweep's map from (r_S, x_B) to x_S
            solve = np.concatenate([inverse, -lower.transpose(0, 2, 1)], axis=2)
            self.depths.append((sep, halo.ravel(), np.concatenate([sep, halo], axis=1), solve))
            below = (mine, halo, front[:, s:, s:] - lower @ front[:, s:, :s].transpose(0, 2, 1))
        self.depths.reverse()

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """x with A x = r: a forward sweep from the leaves, then a backward one."""
        # the last slot is the padding's: it reads 0 and takes 0
        r = np.append(r, 0.0)
        for sep, halo, _, solve in reversed(self.depths):
            s = sep.shape[1]
            # r_B -= L r_S, with -L^T the last columns of the stored map
            step = solve[:, :, s:].transpose(0, 2, 1) @ r[sep][..., None]
            r += np.bincount(halo, step.ravel(), minlength=r.size)
        # root first, x_S overwrites r_S: every halo node already holds x
        for sep, _, front, solve in self.depths:
            r[sep] = (solve @ r[front][..., None])[..., 0]
        return r[:-1]


# unknowns at or below which a level is solved directly, by dimension.  In
# 2-D one nested-dissection solve costs no more than the V-cycle it
# replaces up to about 4 000 unknowns (0.21 against 0.22 ms on a 63 x 63
# Grushin box, one thread), and factoring it costs about 4 ms per 1 000.
# So the criterion-8 grids are solved exactly, and the 127 x 159 decay
# grid keeps two Galerkin levels (factored whole it took 11 iterations
# but 174 ms against 105 ms).  In 3-D, on R^3 at 33^3 from (0.1, -0.2,
# 0.3), a 17^3 coarsest level took 21 iterations against 18 with a 5^3
# one, and an exact solve of all 31^3 unknowns took 18, in 1.6 s against
# 0.1 s.
_COARSEST = {2: 4096, 3: 500}
_DAMPING = 0.6     # Jacobi damping of the smoother


class Multigrid:
    """One symmetric V(1,1) cycle for A = X_h^T X_h: an SPD approximation of A^-1.

    Each level smooths with damped Jacobi, x <- x + w D^-1 (r - A x), once
    before and once after the coarse correction x <- x + P V(P^T (r - A x)).
    The coarsest level is solved exactly (`NestedDissection`); when the
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
        self.coarsest = NestedDissection(a, shape)

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
