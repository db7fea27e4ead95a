"""Discrete Sobolev quotient: energies, minimization, diagnostics."""

import math
import types

import numpy as np
import pytest

from subriemann import fixtures as fx
from subriemann.fields import VectorField, VectorFieldSystem
from subriemann.lattice import (
    _COARSEST,
    BlockTridiagonal,
    HorizontalOperator,
    Lattice,
    LatticeError,
    _interpolation,
    _smoother_diagonal,
)
from subriemann.metric import distance_field
from subriemann.sobolev import (
    GridFunction,
    SobolevError,
    SupportEscape,
    _DECREMENT_FLOOR,
    _ROUNDOFF,
    _Quotient,
    _direction,
    _rescale_pairs,
    bump,
    decay_profile,
    dilate_function,
    energy_report,
    exponent_probe,
    horizontal_gradient,
    levy_concentration,
    minimize_quotient,
    rescale,
)
from subriemann.nsw import parse_domain_spec
from subriemann.polynomials import Polynomial


@pytest.fixture(scope="module")
def euclid2():
    return fx.euclidean(2)


@pytest.fixture(scope="module")
def small_domain():
    return Lattice([(-2, 2), (-2, 2)], 0.25)


class TestGridDomain:
    def test_shape_and_mask(self):
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        assert dom.shape == (17, 17)
        assert dom.interior == (slice(1, -1), slice(1, -1))
        assert "boundary" not in vars(dom)
        assert dom.boundary[0].all() and dom.boundary[:, -1].all()
        assert not dom.boundary[1:-1, 1:-1].any()
        assert dom.boundary is dom.boundary

    def test_rejects_bad_spacing(self):
        with pytest.raises(LatticeError):
            Lattice([(-1, 1)], [0.5, 0.5])

    def test_spacing_must_divide_the_box(self):
        # the last node would sit at 0.8, and at 2.125 outside the box
        for box, spacing in (([(0, 1)] * 2, 0.4), ([(-2, 2)] * 2, 0.375)):
            with pytest.raises(LatticeError, match="does not divide"):
                Lattice(box, spacing)
        # a rounding miss is accepted: the last node of (0, 0.3) at 0.1 is 0.30000000000000004
        dom = Lattice([(0, 0.3), (-1.5, 1.5)], [0.1, 0.375])
        assert dom.shape == (4, 9)
        assert dom.axes[0][-1] != 0.3
        assert [ax[-1] for ax in dom.axes] == pytest.approx([0.3, 1.5], abs=1e-12)


class TestGridFunction:
    def test_zeroes_the_shell(self, small_domain):
        vals = np.full(small_domain.shape, 2.0)
        vals[0, 3] = np.nan
        u = GridFunction(small_domain, vals)
        assert (u.values[[0, -1]] == 0.0).all() and (u.values[:, [0, -1]] == 0.0).all()
        assert (u.values[1:-1, 1:-1] == 2.0).all()
        # the given array is copied, not zeroed in place
        assert vals[-1, -1] == 2.0 and np.isnan(vals[0, 3])

    def test_norm_matches_manual(self, euclid2, small_domain):
        u = GridFunction(small_domain, np.ones(small_domain.shape))
        cv = small_domain.cell_volume()
        manual = (15 * 15 * cv) ** 0.5
        assert u.norm(2.0) == pytest.approx(manual)

    def test_bump_peaks_at_center(self, small_domain):
        u = bump(small_domain, [0.5, -0.5], 0.5)
        idx = np.unravel_index(np.argmax(u.values), small_domain.shape)
        assert small_domain.node_coords(idx) == (0.5, -0.5)


class TestHorizontalGradient:
    def test_exact_on_linear_functions(self, euclid2, small_domain):
        x, y = small_domain.mesh
        u = GridFunction(small_domain, x + 2 * y)
        g = horizontal_gradient(euclid2, u)
        # two layers in from the zeroed shell (the stencil touches it)
        assert np.allclose(g[0][3:-3, 3:-3], 1.0)
        assert np.allclose(g[1][3:-3, 3:-3], 2.0)

    def test_grushin_coefficients_enter(self):
        system = fx.grushin()
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        x, y = dom.mesh
        u = GridFunction(dom, y)
        g = horizontal_gradient(system, u)
        # X2 u = 3 x^2 at interior nodes away from the zeroed shell
        i = dom.shape[0] // 2 + 2
        j = dom.shape[1] // 2
        x_val = dom.axes[0][i]
        assert g[1][i, j] == pytest.approx(3.0 * x_val ** 2)


def _shift(u, axis, by):
    pad = [(0, 0)] * u.ndim
    pad[axis] = (1, 1)
    up = np.pad(u, pad)
    sl = [slice(None)] * u.ndim
    sl[axis] = slice(1 + by, up.shape[axis] - 1 + by)
    return up[tuple(sl)]


def _fdiff(u, axis, h):
    return (_shift(u, axis, 1) - u) / h


def _bdiff(u, axis, h):
    return (u - _shift(u, axis, -1)) / h


def reference_energy_and_gradient(system, dom, values, p):
    """The stencil energy and nodal gradient that X_h replaced (eps = 0).

    Padded one-sided differences with hand-written adjoints: the
    adjoint of each one-sided difference is minus the other.
    """
    grids = dom.field_grids(system)
    cv = dom.cell_volume()
    energy = 0.0
    total_grad = np.zeros(dom.shape)
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
        energy += 0.5 * float((speed2 ** (p / 2.0)).sum() * cv)
        with np.errstate(divide="ignore"):
            weight = np.where(speed2 > 0.0, speed2 ** (p / 2.0 - 1.0), 0.0)
        for k in range(dom.dim):
            flux = np.zeros(dom.shape)
            for j in range(len(grids)):
                g = grids[j][k]
                if np.any(g):
                    flux = flux + weight * (g * comps[j])
            total_grad = total_grad - adj_op(flux, k, dom.spacing[k])
    # the gradient has no entries on the boundary shell
    inner = total_grad[(slice(1, -1),) * dom.dim]
    return energy, 0.5 * p * cv * np.pad(inner, 1)


PARITY_CASES = {
    "grushin": (fx.grushin, Lattice([(-1, 1), (-1.5, 1)], [0.25, 0.125])),
    "martinet": (fx.martinet, Lattice([(-1, 1)] * 3, 0.25)),
    "euclidean3": (lambda: fx.euclidean(3), Lattice([(-1, 1)] * 3, [0.25, 0.5, 0.2])),
}


def x_squared_dy():
    """X = x^2 d_y on the plane: it vanishes on the whole line {x = 0}."""
    comps = [Polynomial.zero(2), Polynomial.variable(2, 1) ** 2]
    return VectorFieldSystem([VectorField(comps)], [1, 3])


# the PARITY_CASES lattices, plus one with empty columns on {x = 0}
GRAM_CASES = {
    **PARITY_CASES,
    "x2dy": (x_squared_dy, Lattice([(-1, 1), (-1, 1)], 0.25)),
}


def interior_nodes(shape):
    """The flat node index of each unknown: the nodes off the outer shell, in C order."""
    inner = tuple(n - 2 for n in shape)
    index = np.indices(inner).reshape(len(shape), -1)
    nodes = np.empty(index.shape[1], dtype=np.intp)
    nodes[np.ravel_multi_index(index, inner)] = np.ravel_multi_index(index + 1, shape)
    return nodes


def reference_coo_operator(system, dom):
    """X_h as it was assembled before: COO blocks, concatenated, then CSR."""
    from scipy import sparse

    grids = dom.field_grids(system)
    n_nodes = int(np.prod(dom.shape))
    unknowns = interior_nodes(dom.shape)
    column = np.full(n_nodes + 1, -1)
    column[unknowns] = np.arange(unknowns.size)
    node = np.arange(n_nodes).reshape(dom.shape)
    rows, cols, vals = [], [], []
    for r, side in enumerate((1, -1)):
        for j, comps in enumerate(grids):
            row = (r * len(grids) + j) * n_nodes + node.ravel()
            for k, g in enumerate(comps):
                if not np.any(g):
                    continue
                coef = (g / dom.spacing[k]).ravel()
                step = np.full(dom.shape, n_nodes)
                here = [slice(None)] * dom.dim
                there = [slice(None)] * dom.dim
                lo, hi = slice(None, -1), slice(1, None)
                here[k], there[k] = (lo, hi) if side > 0 else (hi, lo)
                step[tuple(here)] = node[tuple(there)]
                for c, v in ((column[step.ravel()], side * coef),
                             (column[node.ravel()], -side * coef)):
                    keep = (c >= 0) & (v != 0.0)
                    rows.append(row[keep])
                    cols.append(c[keep])
                    vals.append(v[keep])
    entries = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sparse.csr_array(entries, shape=(2 * len(grids) * n_nodes, unknowns.size))


class TestOperatorAssembly:
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_csr_matches_coo_assembly(self, case):
        make_system, dom = PARITY_CASES[case]
        system = make_system()
        op = dom.horizontal_operator(system)
        ref = reference_coo_operator(system, dom)
        assert op.matrix.shape == ref.shape
        assert (op.matrix != ref).nnz == 0
        assert op.matrix.has_sorted_indices
        assert op.matrix.indices.dtype == op.matrix.indptr.dtype == np.int32

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_unknowns_are_the_interior_in_c_order(self, case):
        make_system, dom = PARITY_CASES[case]
        system = make_system()
        op = dom.horizontal_operator(system)
        nodes = interior_nodes(dom.shape)
        rng = np.random.default_rng(13)
        x = rng.normal(size=op.matrix.shape[1])
        u = op.grid(x)
        assert u.shape == dom.shape and op.unknowns(u).shape == x.shape
        np.testing.assert_array_equal(op.unknowns(u), x)
        np.testing.assert_array_equal(u.ravel()[nodes], x)
        assert not np.delete(u.ravel(), nodes).any()
        # unknowns ignores the shell; X_h is the reference on them
        v = rng.normal(size=dom.shape)
        np.testing.assert_array_equal(op.unknowns(v), v.ravel()[nodes])
        ref = reference_coo_operator(system, dom) @ v.ravel()[nodes]
        np.testing.assert_allclose(op.matrix @ op.unknowns(v), ref,
                                   rtol=1e-14, atol=1e-14 * np.abs(ref).max())

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_diag_is_the_normal_diagonal(self, case):
        make_system, dom = PARITY_CASES[case]
        op = dom.horizontal_operator(make_system())
        normal = (op.matrix.T @ op.matrix).diagonal()
        assert normal.min() > 0.0
        np.testing.assert_allclose(_smoother_diagonal(op.gram), normal, rtol=1e-13)

    @pytest.mark.parametrize("case", sorted(GRAM_CASES))
    def test_gram_is_the_normal_matrix(self, case):
        make_system, dom = GRAM_CASES[case]
        op = dom.horizontal_operator(make_system())
        dense = op.matrix.toarray()
        normal = dense.T @ dense
        assert op.gram.format == "csr"
        np.testing.assert_allclose(op.gram.toarray(), normal, rtol=1e-13)
        gram_diag = op.gram.diagonal()
        empty = gram_diag == 0.0
        assert empty.any() == (case == "x2dy")
        if case == "x2dy":
            np.testing.assert_array_equal(empty, op.unknowns(dom.mesh[0]) == 0.0)
        np.testing.assert_array_equal(_smoother_diagonal(op.gram),
                                      np.where(empty, 1.0, gram_diag))

    def test_diag_is_constant_on_a_euclidean_lattice(self):
        spacing = [0.25, 0.5, 0.2]
        dom = Lattice([(-1, 1)] * 3, spacing)
        op = dom.horizontal_operator(fx.euclidean(3))
        # each axis gives (1/h)^2 from the node's own forward and backward
        # rows and from the two neighbours' rows
        diag = _smoother_diagonal(op.gram)
        assert (diag == diag[0]).all()
        assert diag[0] == pytest.approx(sum(4.0 / h ** 2 for h in spacing), rel=1e-14)

    def test_empty_column_gets_unit_diag(self):
        # X = x^2 d_y vanishes on the interior nodes of {x = 0} and their y-neighbours
        dim = 2
        comps = [Polynomial.zero(dim), Polynomial.variable(dim, 1) ** 2]
        system = VectorFieldSystem([VectorField(comps)], [1, 3])
        dom = Lattice([(-1, 1), (-1, 1)], 0.5)
        op = dom.horizontal_operator(system)
        normal = (op.matrix.T @ op.matrix).diagonal()
        empty = normal == 0.0
        np.testing.assert_array_equal(empty, op.unknowns(dom.mesh[0]) == 0.0)
        diag = _smoother_diagonal(op.gram)
        assert (diag[empty] == 1.0).all()
        np.testing.assert_allclose(diag[~empty], normal[~empty], rtol=1e-13)


# the 2-D lattices up to _COARSEST[2] unknowns are solved directly, with
# no coarse level; the 3-D ones and "grushin-wide" keep one
MULTIGRID_CASES = {
    "grushin": (fx.grushin, Lattice([(-2, 2), (-2, 2)], 0.125)),
    "grushin-even": (fx.grushin, Lattice([(-2, 2.125), (-2, 2.125)], 0.125)),
    # 127 x 33 = 4191 unknowns, one coarse level of 65 x 18 nodes
    "grushin-wide": (fx.grushin, Lattice([(-4, 4), (-2.125, 2.125)], [0.0625, 0.125])),
    "martinet": (fx.martinet, Lattice([(-1, 1)] * 3, 0.2)),
    "heisenberg": (fx.heisenberg, Lattice([(-1, 1)] * 3, 0.2)),
    # one interior node across axis 0: it interpolates both coarse planes
    # equally, so the selected construction's P^T A P is singular
    "euclidean-thin": (lambda: fx.euclidean(3), Lattice([(-1, 1), (0, 25), (0, 25)], 1.0)),
    "euclidean-thin-oblong": (lambda: fx.euclidean(3), Lattice([(-1, 1), (0, 21), (0, 29)], 1.0)),
    # A has the empty rows of the 23 interior nodes on {x = 0}
    "x2dy": (x_squared_dy, Lattice([(-1.5, 1.5), (-1.5, 1.5)], 0.125)),
}
THIN_CASES = ["euclidean-thin", "euclidean-thin-oblong"]


def merge_equal_columns(p):
    """P with each set of equal columns summed into the first of them."""
    from scipy import sparse

    csc = p.tocsc()
    first, group = {}, []
    for j in range(csc.shape[1]):
        lo, hi = csc.indptr[j], csc.indptr[j + 1]
        key = (csc.indices[lo:hi].tobytes(), csc.data[lo:hi].tobytes())
        group.append(first.setdefault(key, len(first)))
    merge = sparse.csr_array((np.ones(len(group)), (np.arange(len(group)), group)),
                             shape=(len(group), len(first)))
    kept = np.unique(group, return_index=True)[1]
    return (p @ merge).tocsr(), kept


def reference_prolongations(op, merge=True):
    """Each level's (P, P^T A P) as they were built with row and column selection.

    The full tensor-product interpolation of the level's grid, with rows
    restricted to the level's unknowns and columns to the coarse nodes
    they touch; with ``merge``, equal columns are summed into one.
    """
    from scipy import sparse

    a, shape, unknowns, out = op.gram, op.shape, interior_nodes(op.shape), []
    while a.shape[0] > _COARSEST[len(shape)]:
        p = _interpolation(shape[0])
        for n in shape[1:]:
            p = sparse.kron(p, _interpolation(n), format="csr")
        p = p[unknowns]
        touched = np.flatnonzero(p.count_nonzero(axis=0))
        p = p[:, touched]
        if merge:
            p, kept = merge_equal_columns(p)
            touched = touched[kept]
        a = (p.T.tocsr() @ (a @ p)).tocsr()
        out.append((p, a))
        shape = tuple((n + 1) // 2 for n in shape)
        unknowns = touched
    return out


def dense_with_unit_empty_rows(a):
    """a as a dense array, with 1 on the diagonal of each empty row."""
    dense = a.toarray()
    empty = ~dense.any(axis=1)
    dense[empty, empty] = 1.0
    return dense


class TestBlockTridiagonal:
    @pytest.mark.parametrize("case", sorted(MULTIGRID_CASES))
    def test_matches_a_dense_solve(self, case):
        make_system, dom = MULTIGRID_CASES[case]
        a = dom.horizontal_operator(make_system()).gram
        solve = BlockTridiagonal(a, tuple(n - 2 for n in dom.shape))
        rhs = np.random.default_rng(5).normal(size=(a.shape[0], 3))
        expected = np.linalg.solve(dense_with_unit_empty_rows(a), rhs)
        for r, x in zip(rhs.T, expected.T):
            np.testing.assert_allclose(solve(r), x, rtol=0, atol=1e-10 * np.abs(x).max())

    def test_agrees_with_the_pseudo_inverse_on_the_range(self):
        # x^2 d_y leaves the nodes of {x = 0} unseen: their rows are empty
        make_system, dom = MULTIGRID_CASES["x2dy"]
        a = dom.horizontal_operator(make_system()).gram
        solve = BlockTridiagonal(a, tuple(n - 2 for n in dom.shape))
        empty = a.diagonal() == 0.0
        assert empty.sum() == 23
        r = np.random.default_rng(7).normal(size=a.shape[0])
        r[empty] = 0.0
        expected = np.linalg.pinv(a.toarray(), hermitian=True) @ r
        np.testing.assert_allclose(solve(r), expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize("case", THIN_CASES)
    def test_merged_planes_give_the_pseudo_inverse_correction(self, case):
        # with the two equal columns of a one-node axis kept, P^T A P is
        # singular; merged into one, the coarse correction P (P^T A P)^-1 P^T
        # is the one the pseudo-inverse gives with both
        make_system, dom = MULTIGRID_CASES[case]
        op = dom.horizontal_operator(make_system())
        mg = op.preconditioner
        assert len(mg.levels) == 1
        (p_two, a_two), = reference_prolongations(op, merge=False)
        assert p_two.shape[1] == 2 * mg.levels[0][2].shape[1]
        assert np.linalg.matrix_rank(a_two.toarray()) == a_two.shape[0] // 2
        _, _, p, pt = mg.levels[0]
        r = np.random.default_rng(9).normal(size=p.shape[0])
        # the null eigenvalues round to about n eps lambda_max, above numpy's
        # default cutoff here, so the cutoff is matrix_rank's
        pinv = np.linalg.pinv(a_two.toarray(), hermitian=True,
                              rcond=a_two.shape[0] * np.finfo(float).eps)
        expected = p_two @ (pinv @ (p_two.T @ r))
        np.testing.assert_allclose(p @ mg.coarsest(pt @ r), expected, rtol=0,
                                   atol=1e-10 * np.abs(expected).max())

    def test_sweeps_the_longest_axis_of_a_thin_box(self):
        # 1 x 999 unknowns: 999 planes of one node each, not one dense
        # 999 x 999 block across the short axis
        dom = Lattice([(-0.25, 0.25), (-125, 125)], 0.25)
        op = dom.horizontal_operator(fx.euclidean(2))
        mg = op.preconditioner
        assert not mg.levels
        assert mg.coarsest.inverse.shape == (999, 1, 1)
        r = np.random.default_rng(11).normal(size=999)
        expected = np.linalg.solve(op.gram.toarray(), r)
        np.testing.assert_allclose(mg.coarsest(r), expected, rtol=0,
                                   atol=1e-10 * np.abs(expected).max())

    def test_refuses_a_coupling_beyond_the_next_plane(self):
        # on 7 x 5 unknowns the planes run along axis 0; unknowns 0 and 10
        # lie two planes apart
        dom = Lattice([(-1, 1), (-1, 1)], [0.25, 1 / 3])
        a = dom.horizontal_operator(fx.grushin()).gram.tolil()
        a[0, 10] = a[10, 0] = -1.0
        with pytest.raises(LatticeError, match="more than one plane apart"):
            BlockTridiagonal(a.tocsr(), (7, 5))


class TestMultigrid:
    @pytest.mark.parametrize("case", sorted(MULTIGRID_CASES))
    def test_v_cycle_is_symmetric_positive_definite(self, case):
        make_system, dom = MULTIGRID_CASES[case]
        op = dom.horizontal_operator(make_system())
        mg = op.preconditioner
        n = op.matrix.shape[1]
        assert bool(mg.levels) == (n > _COARSEST[dom.dim])
        if mg.levels:
            assert mg.levels[-1][2].shape[1] <= _COARSEST[dom.dim]
        if case == "grushin-even":
            assert all(k % 2 == 0 for k in dom.shape)
        if case == "x2dy":
            assert (op.gram.diagonal() == 0.0).sum() == 23
        rng = np.random.default_rng(3)
        if n <= 2000:
            # the cycle as a dense matrix, one column per unit vector
            basis = np.eye(n)
        else:
            # on a random 200-dimensional subspace
            basis = np.linalg.qr(rng.normal(size=(n, 200)))[0]
        m = basis.T @ np.column_stack([mg(e) for e in basis.T])
        scale = np.abs(m).max()
        np.testing.assert_allclose(m, m.T, rtol=0, atol=1e-12 * scale)
        assert np.linalg.eigvalsh(0.5 * (m + m.T)).min() > 1e-9 * scale
        u, v = rng.normal(size=(2, n))
        assert float(u @ mg(v)) == pytest.approx(float(mg(u) @ v), rel=1e-12)
        assert float(v @ mg(v)) > 0.0

    @pytest.mark.parametrize("case", sorted(MULTIGRID_CASES))
    def test_prolongations_match_the_selected_construction(self, case):
        make_system, dom = MULTIGRID_CASES[case]
        op = dom.horizontal_operator(make_system())
        mg = op.preconditioner
        ref = reference_prolongations(op)
        assert len(mg.levels) == len(ref)
        for (_, _, p, pt), (p_ref, _) in zip(mg.levels, ref):
            assert p.shape == p_ref.shape and (p != p_ref).nnz == 0
            assert (pt != p_ref.T).nnz == 0
        for (a, *_), (_, a_ref) in zip(mg.levels[1:], ref):
            assert (a != a_ref).nnz == 0
        # the coarsest level is solved exactly
        coarsest = dense_with_unit_empty_rows(ref[-1][1] if ref else op.gram)
        r = np.random.default_rng(8).normal(size=coarsest.shape[0])
        expected = np.linalg.solve(coarsest, r)
        np.testing.assert_allclose(mg.coarsest(r), expected, rtol=0,
                                   atol=1e-10 * np.abs(expected).max())

    def test_coarse_levels_halve_the_grid(self):
        system = fx.euclidean(3)
        dom = Lattice([(-8, 8)] * 3, 0.5)
        mg = dom.horizontal_operator(system).preconditioner
        # 31^3 unknowns; the coarse levels keep the 17^3, 9^3 and 5^3
        # even-index nodes that touch them, boundary nodes included
        assert [level[0].shape[0] for level in mg.levels] == [31 ** 3, 17 ** 3, 9 ** 3]
        # Galerkin: each coarse operator is P^T A P of the level above
        (a, _, p, pt), (a_coarse, *_) = mg.levels[:2]
        assert abs(pt @ a @ p - a_coarse).max() <= 1e-14 * abs(a_coarse).max()
        assert a is dom.horizontal_operator(system).gram
        # and the 5^3 coarsest one is solved exactly
        a_last, _, p_last, pt_last = mg.levels[-1]
        coarsest = (pt_last @ a_last @ p_last).toarray()
        assert coarsest.shape == (5 ** 3, 5 ** 3)
        r = np.random.default_rng(4).normal(size=5 ** 3)
        expected = np.linalg.solve(coarsest, r)
        np.testing.assert_allclose(mg.coarsest(r), expected, rtol=0,
                                   atol=1e-10 * np.abs(expected).max())

    def test_built_on_the_first_solve_and_cached(self):
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        energy_report(system, bump(dom, [0, 0], 1.0), 2.0)
        op = dom.horizontal_operator(system)
        assert "preconditioner" not in vars(op)
        minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=3, seed=0)
        mg = vars(op)["preconditioner"]
        assert op.preconditioner is mg


class TestEnergyAndGradient:
    @pytest.mark.parametrize("p", [1.7, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_operator_matches_stencil_reference(self, case, p):
        make_system, dom = PARITY_CASES[case]
        system = make_system()
        rng = np.random.default_rng(11)
        values = GridFunction(dom, rng.normal(size=dom.shape)).values
        quotient = _Quotient(system, dom, p)
        op = quotient.op
        x = op.unknowns(values)
        energy, grad = quotient.energy(x)
        ref_energy, ref_grad = reference_energy_and_gradient(system, dom, values, p)
        assert energy == pytest.approx(ref_energy, rel=1e-12)
        full = op.grid(grad)
        scale = np.abs(ref_grad).max()
        np.testing.assert_allclose(full, ref_grad, rtol=1e-12, atol=1e-12 * scale)

    def test_operator_is_cached_with_its_transpose(self):
        # the operator keeps no X_h^T: each _Quotient builds it in CSR on its
        # first p != 2 gradient and holds it, and test_gram_is_the_normal_matrix
        # checks A = X_h^T X_h
        system = fx.martinet()
        dom = Lattice([(-1, 1)] * 3, 0.5)
        op = dom.horizontal_operator(system)
        assert dom.horizontal_operator(system) is op
        assert op.matrix.format == op.gram.format == "csr"
        assert op.matrix.shape == (2 * system.m * op.n_nodes, 3 ** 3)
        assert not hasattr(op, "transpose")
        quotient = _Quotient(system, dom, 2.5)
        x = np.ones(op.matrix.shape[1])
        quotient.energy(x, need_gradient=False)
        assert quotient._matrix_t is None
        quotient.energy(x)
        matrix_t = quotient._matrix_t
        assert matrix_t.format == "csr" and (matrix_t != op.matrix.T).nnz == 0
        quotient.energy(x)
        assert quotient._matrix_t is matrix_t

    def test_diagnostics_never_form_the_gram_matrix(self, monkeypatch):
        system = fx.grushin()
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        horizontal_gradient(system, u)
        ops = [dom.horizontal_operator(system)]
        assemble = Lattice.horizontal_operator

        def recording(lattice, system):
            op = assemble(lattice, system)
            ops.append(op)
            return op

        # exponent_probe reads X_h on one dilated lattice per t
        monkeypatch.setattr(Lattice, "horizontal_operator", recording)
        exponent_probe(system, None, 4.0, u, [1.0, 0.5, 0.1])
        assert len(ops) == 4
        assert not any("gram" in vars(op) for op in ops)

    @pytest.mark.parametrize("p", [1.3, 1.7, 2.0, 2.5])
    def test_gradient_matches_finite_differences(self, p):
        # eps = 1e-8 regularizes the energy at p = 1.3 only
        system = fx.grushin()
        dom = Lattice([(-1, 1), (-1, 1)], 0.5)
        rng = np.random.default_rng(5)
        quotient = _Quotient(system, dom, p)
        assert quotient.eps == (1e-8 if p < 1.5 else 0.0)
        values = rng.normal(size=quotient.op.matrix.shape[1])
        energy, grad = quotient.energy(values)
        direction = rng.normal(size=values.size)
        h = 1e-6
        ep, _ = quotient.energy(values + h * direction, need_gradient=False)
        em, _ = quotient.energy(values - h * direction, need_gradient=False)
        numeric = (ep - em) / (2 * h)
        analytic = float(grad @ direction)
        assert numeric == pytest.approx(analytic, rel=1e-4)

    @pytest.mark.parametrize("p", [1.3, 1.7, 2.0, 2.5])
    def test_quotient_gradient_matches_finite_differences(self, p):
        # E(u) / ||S u||_{p*}^p, smoothing and quotient rule included
        system = fx.grushin()
        dom = Lattice([(-1, 1), (-1, 1)], 0.25)
        quotient = _Quotient(system, dom, p)
        rng = np.random.default_rng(7)
        x = rng.normal(size=quotient.op.matrix.shape[1])
        f, grad, nrm = quotient(x)
        assert nrm == pytest.approx(quotient.norm(x, need_gradient=False)[0])
        direction = rng.normal(size=x.size)
        h = 1e-6
        numeric = (quotient(x + h * direction)[0] - quotient(x - h * direction)[0]) / (2 * h)
        assert numeric == pytest.approx(float(grad @ direction), rel=1e-4)
        # scale invariance: the gradient is orthogonal to the iterate
        assert abs(float(grad @ x)) <= 1e-10 * np.linalg.norm(grad) * np.linalg.norm(x)

    def test_energy_report_consistency(self, euclid2, small_domain):
        u = bump(small_domain, [0, 0], 0.6)
        # Q = 2 for the plane, so pick p inside (1, Q)
        rep = energy_report(euclid2, u, 1.5)
        assert rep.p_star == pytest.approx(6.0)
        assert rep.quotient == pytest.approx(rep.energy / rep.norm_p_star ** 1.5)

    def test_p_range_validated(self, euclid2, small_domain):
        u = bump(small_domain, [0, 0], 0.6)
        with pytest.raises(SobolevError):
            energy_report(euclid2, u, 2.0)  # p = Q
        with pytest.raises(SobolevError):
            minimize_quotient(euclid2, small_domain, p=1.0)


def random_spd_map(rng, n):
    """v -> Mv for a random symmetric positive definite M with a wide spectrum."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    m = (q * rng.uniform(0.01, 100.0, size=n)) @ q.T
    return lambda v: m @ v


def random_pairs(rng, n, k, precondition):
    """k curvature pairs [s, y, By, 1/s.y] with s.y > 0, oldest first."""
    pairs = []
    for _ in range(k):
        s, y = rng.normal(size=n), rng.normal(size=n)
        y += 3.0 * s  # keeps s.y > 0
        pairs.append([s, y, precondition(y), 1.0 / float(s @ y)])
    return pairs


def two_application_direction(g, pairs, precondition):
    """-H g by the two-loop recursion that applies B to q and to the newest y."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    _, y, rho = pairs[-1]
    q = precondition(q) / (rho * float(y @ precondition(y)))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


def scaling_spread(system, res):
    """(max - min) / min of the p = 2 quotient at c u over 50 scalings c in [1/2, 2]."""
    quotient = _Quotient(system, res.minimizer.domain, 2.0)
    x = quotient.op.unknowns(res.minimizer.values)
    values = np.array([quotient(c * x)[0] for c in np.linspace(0.5, 2.0, 50)])
    return (values.max() - values.min()) / values.min()


class TestMinimize:
    def test_quotient_decreases(self):
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.25)
        res = minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=200,
                                seed=0)
        assert res.trace[-1] < res.trace[0]
        diffs = np.diff(res.trace)
        assert (diffs <= 1e-12).all()
        assert res.constant == pytest.approx(res.trace[-1])
        rep = energy_report(system, res.minimizer, 2.0)
        assert rep.quotient == pytest.approx(res.constant, rel=1e-6)

    def test_multistart_keeps_best(self):
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        res = minimize_quotient(system, dom, p=2.0, n_starts=2, max_iter=60,
                                seed=3)
        assert len(res.start_quotients) == 2
        assert res.constant == pytest.approx(min(res.start_quotients))

    def test_stop_reason_max_iter(self):
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        res = minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=5, seed=0)
        assert res.iterations == 5
        assert res.stop_reason == "max_iter"
        assert res.converged is False

    def test_stalled_line_search_is_not_converged(self):
        # one interior node: every normalized candidate has the same quotient
        dom = Lattice([(-1, 1), (-1, 1)], 1.0)
        res = minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, max_iter=50)
        assert res.stop_reason == "stalled"
        assert res.iterations == 1
        assert res.converged is False

    def test_stall_at_the_rounding_floor_is_converged(self):
        # with rel_tol = 0 the solve runs until the decrement -g.d / f is
        # below the rounding floor _DECREMENT_FLOOR, and stops there on
        # "converged" before its line search
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        res = minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=4000, rel_tol=0.0,
                                seed=0)
        assert res.stop_reason == "converged"
        assert res.iterations < 50
        assert res.evaluations < res.iterations + 10
        assert 0.0 < res.decrement < _DECREMENT_FLOOR

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_rounding_floor_is_converged_at_p_other_than_2(self, p):
        # the decrement is the stop quantity at every p: with rel_tol = 0
        # these solves stop on its floor after 817 (p = 1.5) and 155 (p = 3)
        # iterations, not on a failed line search
        dom = Lattice([(-4, 4), (-4, 4)], 0.25)
        floor = minimize_quotient(fx.grushin(), dom, p=p, n_starts=1, max_iter=4000,
                                  rel_tol=0.0, seed=0)
        assert floor.stop_reason == "converged"
        assert 0.0 < floor.decrement < _DECREMENT_FLOOR
        res = minimize_quotient(fx.grushin(), dom, p=p, n_starts=1, max_iter=4000, seed=0)
        assert res.stop_reason == "converged"
        assert res.iterations < floor.iterations
        assert 0.0 <= (res.constant - floor.constant) / floor.constant < 1e-6

    def test_r3_iterations_stay_flat_under_refinement(self):
        # 18 iterations at 33^3 from an off-node start; criterion 7 runs
        # the same solve on 65^3 nodes (20 iterations, slow)
        dom = Lattice([(-8, 8)] * 3, 0.5)
        res = minimize_quotient(fx.euclidean(3), dom, 2.0, init_centers=[[0.1, -0.2, 0.3]],
                                n_starts=1, max_iter=4000)
        assert res.stop_reason == "converged"
        assert res.iterations <= 40

    def test_stop_reason_converged(self):
        # the decrement rule stops at the first iterate whose -g.d / f is
        # below rel_tol: one iteration less ends on max_iter above it
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        res = minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=2000,
                                rel_tol=1e-4, seed=0)
        assert res.stop_reason == "converged"
        assert res.converged is True
        assert 1 < res.iterations < 2000
        assert 0.0 < res.decrement < 1e-4
        short = minimize_quotient(system, dom, p=2.0, n_starts=1,
                                  max_iter=res.iterations - 1, rel_tol=1e-4, seed=0)
        assert short.stop_reason == "max_iter"
        assert short.decrement >= 1e-4
        assert short.constant > res.constant

    def test_default_tolerance_gap_on_the_criterion_8_grid(self):
        # the default rel_tol stops 4.9e-12 (relative) above the rounding
        # floor that rel_tol = 0 reaches, after 13 iterations against 14;
        # the bound is 1e-8, the p = 2 accuracy the default promises
        dom = Lattice([(-4, 4), (-4, 4)], 0.25)
        res = minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, max_iter=800, seed=0)
        floor = minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, max_iter=800,
                                  rel_tol=0.0, seed=0)
        assert res.stop_reason == floor.stop_reason == "converged"
        assert res.iterations < floor.iterations
        assert 0.0 <= (res.constant - floor.constant) / floor.constant < 1e-8

    def test_solver_record(self):
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        res = minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=30, seed=0)
        assert res.evaluations >= res.iterations + 1
        quotient = _Quotient(system, dom, 2.0)
        f, grad, nrm = quotient(quotient.op.unknowns(res.minimizer.values))
        assert nrm == pytest.approx(1.0, rel=1e-12)
        assert f == pytest.approx(res.constant, rel=1e-12)
        assert res.grad_norm == pytest.approx(float(np.linalg.norm(grad)), rel=1e-9)

    def test_rescaled_pairs_scale_the_direction(self):
        # at c x the quotient gradient is g / c; rescaled pairs give c d
        rng = np.random.default_rng(2)
        g = rng.normal(size=40)
        precondition = random_spd_map(rng, 40)
        pairs = random_pairs(rng, 40, 4, precondition)
        d = _direction(g, precondition(g), pairs)
        c = 0.37
        _rescale_pairs(pairs, c)
        np.testing.assert_allclose(_direction(g / c, precondition(g / c), pairs), c * d,
                                   rtol=1e-12)

    def test_first_step_is_scaled_steepest_descent(self):
        # the first step is the preconditioned descent -Bg, largest entry 1
        rng = np.random.default_rng(4)
        g = rng.normal(size=30)
        precondition = random_spd_map(rng, 30)
        bg = precondition(g)
        d = _direction(g, bg, [])
        assert np.abs(d).max() == pytest.approx(1.0)
        np.testing.assert_allclose(d * np.abs(bg).max(), -bg, rtol=1e-14)

    def test_stored_preconditioned_vectors_match_two_applications(self):
        # Bq from Bg and the stored By_i equals the recursion that applies
        # B to q and to the newest y
        rng = np.random.default_rng(6)
        g = rng.normal(size=50)
        precondition = random_spd_map(rng, 50)
        pairs = random_pairs(rng, 50, 6, precondition)
        expected = two_application_direction(g, [(s, y, rho) for s, y, _, rho in pairs],
                                             precondition)
        np.testing.assert_allclose(_direction(g, precondition(g), pairs), expected, rtol=1e-12)

    @pytest.mark.parametrize("max_iter", [3, 800])
    def test_one_preconditioner_application_per_accepted_iteration(self, monkeypatch, max_iter):
        built = HorizontalOperator.preconditioner.func
        calls = []

        def counting(self):
            mg = built(self)

            def apply(r):
                calls.append(r.size)
                return mg(r)
            return apply

        monkeypatch.setattr(HorizontalOperator, "preconditioner", property(counting))
        dom = Lattice([(-4, 4), (-4, 4)], 0.25)
        res = minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, max_iter=max_iter,
                                seed=0)
        assert res.stop_reason == ("max_iter" if max_iter == 3 else "converged")
        # one application for the start's gradient, one per accepted step
        assert len(calls) == res.iterations + 1

    def test_jacobi_scaling_converges_on_the_criterion_8_grid(self):
        # the unscaled solver (identity initial inverse Hessian, as before
        # any preconditioning) converged on this grid after 1181 iterations
        # to C = 2.8182942726610074 (max_iter=20000, n_starts=1, seed=0)
        unscaled_constant = 2.8182942726610074
        dom = Lattice([(-4, 4), (-4, 4)], 0.25)
        res = minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, max_iter=800, seed=0)
        assert res.stop_reason == "converged"
        assert res.iterations < 300
        assert res.constant == pytest.approx(unscaled_constant, rel=1e-4)

    def test_scaling_spread_below_roundoff_on_the_criterion_8_grid(self):
        # the line search counts a drop below _ROUNDOFF * f as no decrease,
        # so the rounding noise of the quotient along the ray c x must stay
        # below it at the minimizer
        dom = Lattice([(-4, 4), (-4, 4)], 0.25)
        res = minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, max_iter=800, seed=0)
        assert res.stop_reason == "converged"
        assert scaling_spread(fx.grushin(), res) < _ROUNDOFF

    @pytest.mark.slow
    def test_scaling_spread_below_roundoff_on_the_decay_grid(self):
        dom = Lattice([(-8, 8), (-80, 80)], [0.125, 1.0])
        x, y = dom.mesh
        u0 = GridFunction(dom, (0.0625 + x ** 2 + (np.abs(y) / 3.0) ** (2.0 / 3.0)) ** -1.0)
        res = minimize_quotient(fx.grushin(), dom, 2.0, init=u0, n_starts=1, max_iter=15000)
        assert res.stop_reason == "converged"
        assert scaling_spread(fx.grushin(), res) < _ROUNDOFF

    def test_n_starts_cuts_one_list_of_starts(self):
        # the starts are init, then init_centers, then random centres, and
        # n_starts takes the first of them with or without init
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        centers = [[0.0, 0.0], [0.75, -0.75]]
        u0 = bump(dom, [0.75, 0.75], 1.0)

        def start_quotients(**options):
            return minimize_quotient(system, dom, p=2.0, max_iter=5, seed=0,
                                     **options).start_quotients

        first = start_quotients(init_centers=centers, n_starts=1)
        assert first == start_quotients(init_centers=centers[:1], n_starts=1)
        from_init = start_quotients(init=u0, n_starts=1)
        assert start_quotients(init=u0, init_centers=centers, n_starts=1) == from_init
        assert start_quotients(init=u0, init_centers=centers, n_starts=2) == from_init + first
        assert len(start_quotients(init_centers=centers, n_starts=3)) == 3
        with pytest.raises(SobolevError):
            start_quotients(init_centers=centers, n_starts=0)

    def test_negative_max_iter_is_rejected(self):
        # the max_iter stop would never fire, and the solve would run unbounded
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        with pytest.raises(SobolevError, match="max_iter"):
            minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, max_iter=-1)

    def test_nan_rel_tol_is_rejected(self):
        # no decrement is below NaN, so the solve could only end stalled
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        with pytest.raises(SobolevError, match="rel_tol"):
            minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, rel_tol=math.nan)

    def test_explicit_init_is_used(self):
        system = fx.grushin()
        dom = Lattice([(-3, 3), (-3, 3)], 0.375)
        u0 = bump(dom, [0, 0], 1.0)
        res = minimize_quotient(system, dom, p=2.0, init=u0, n_starts=1,
                                max_iter=5, seed=0)
        assert res.iterations <= 5
        other = Lattice([(-1.5, 1.5)] * 2, 0.375)
        with pytest.raises(SobolevError):
            minimize_quotient(system, dom, init=bump(other, [0, 0], 1.0),
                              n_starts=1, max_iter=5)


class TestDilation:
    def test_exact_norm_scaling(self):
        system = fx.grushin()  # weights (1, 3), Q = 4
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.7)
        t = 0.5
        ut = dilate_function(system, u, t)
        for q in (2.0, 4.0):
            assert ut.norm(q) == pytest.approx(t ** (4.0 / q) * u.norm(q))

    def test_rejects_bad_t(self):
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.7)
        with pytest.raises(SobolevError):
            dilate_function(fx.grushin(), u, 0.0)


class TestExponentProbe:
    def test_critical_kappa_is_flat(self):
        system = fx.grushin()
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        report = exponent_probe(system, None, 4.0, u, [1.0, 0.5, 0.1])
        assert report.spread == pytest.approx(1.0, abs=1e-9)

    def test_subcritical_kappa_slope_exact(self):
        # R(t) = t^(1 - Q/kappa) exactly under lattice dilation
        system = fx.grushin()
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        report = exponent_probe(system, None, 3.5, u, [1.0, 0.1, 0.01])
        assert report.slope == pytest.approx(1.0 - 4.0 / 3.5, rel=1e-9)
        assert report.spread > 1.0

    def test_support_escape(self):
        system = fx.grushin()
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        spec = parse_domain_spec("dim = 2\nbox = -1,1 ; -1,1\n")
        with pytest.raises(SupportEscape):
            exponent_probe(system, spec, 3.5, u, [2.0])

    def test_checkerboard_keeps_its_interior_gradient(self):
        # the centered scheme annihilates a checkerboard away from its edge;
        # the probe's int |Xu| averages the two one-sided realizations instead
        system = fx.euclidean(2)
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        i, j = np.indices(dom.shape)
        x, y = dom.mesh
        block = (np.abs(x) <= 1) & (np.abs(y) <= 1)
        u = GridFunction(dom, np.where(block, (-1.0) ** (i + j), 0.0))
        inner = (np.abs(x) < 1) & (np.abs(y) < 1)
        assert np.allclose(horizontal_gradient(system, u)[:, inner], 0.0)
        h = dom.spacing[0]
        speeds = [np.sqrt(d(u.values, 0, h) ** 2 + d(u.values, 1, h) ** 2)
                  for d in (_fdiff, _bdiff)]
        assert np.allclose(speeds[0][inner], 2 * math.sqrt(2) / h)
        denom = 0.5 * float(sum(s.sum() for s in speeds)) * dom.cell_volume()
        report = exponent_probe(system, None, 2.0, u, [1.0])
        assert report.ratios[0] == pytest.approx(u.norm(2.0) / denom, rel=1e-12)

    def test_kappa_must_exceed_one(self):
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        with pytest.raises(SobolevError):
            exponent_probe(fx.grushin(), None, 1.0, u, [1.0])
        for kappa in (math.nan, math.inf):
            with pytest.raises(SobolevError, match="kappa"):
                exponent_probe(fx.grushin(), None, kappa, u, [1.0])


class TestRescale:
    def test_identity_parameters(self):
        from subriemann.automorph import parse_family
        from subriemann.fixtures import fixture_path

        system = fx.grushin()
        family = parse_family(fixture_path("grushin-1-1-2.family").read_text())
        dom = Lattice([(-3, 3), (-3, 3)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        v = rescale(system, u, [0, 0], 1.0, family)
        assert np.allclose(v.values, u.values, atol=1e-10)

    def test_translation_moves_mass(self):
        from subriemann.automorph import parse_family
        from subriemann.fixtures import fixture_path

        system = fx.grushin()
        family = parse_family(fixture_path("grushin-1-1-2.family").read_text())
        dom = Lattice([(-3, 3), (-3, 3)], 0.25)
        u = bump(dom, [0, 1.0], 0.5)
        # v(x) = u(T(w, x)) with T(w, x) = (x1, x2 + w2): w2 = 1 recenters
        v = rescale(system, u, [0, 1.0], 1.0, family)
        idx = np.unravel_index(np.argmax(v.values), dom.shape)
        assert dom.node_coords(idx) == (0.0, 0.0)

    def test_support_escape_raises(self):
        from subriemann.automorph import parse_family
        from subriemann.fixtures import fixture_path

        system = fx.grushin()
        family = parse_family(fixture_path("grushin-1-1-2.family").read_text())
        dom = Lattice([(-3, 3), (-3, 3)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        with pytest.raises(SupportEscape):
            rescale(system, u, [0, 5.9], 1.0, family)


class TestLevyConcentration:
    def test_monotone_profile_and_rho_half(self):
        system = fx.euclidean(2)
        dom = Lattice([(-2, 2), (-2, 2)], 0.1)
        u = bump(dom, [0, 0], 0.4)
        lat = Lattice(dom.box, dom.spacing, n_random_controls=24, tau=0.2)
        df = distance_field(system, [0, 0], lat, seed=1)
        diag = levy_concentration(u, [0.25, 0.5, 1.0, 1.5], [[0.0, 0.0]],
                                  [df], p_star=4.0)
        vals = diag.levy_values
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.95
        assert diag.rho_half is not None
        # |u|^4 has mass fraction 1 - exp(-25 rho^2) inside radius rho, so
        # the half level sits near sqrt(ln 2)/5 = 0.167; BFS distances are
        # quantized in tau = 0.2, which pushes the value upward
        assert 0.1 < diag.rho_half <= 0.45
        assert diag.best_center == (0.0, 0.0)
        dens = np.abs(u.values) ** 4.0
        # Q(rho) is the mass at d < rho, summed here in another order
        for rho, val in zip(diag.rho_grid, vals):
            assert val == pytest.approx(dens[df.values < rho].sum() / dens.sum(), rel=1e-12)
        # exactly the smallest node distance whose closed ball holds half of |u|^4
        rho = diag.rho_half
        assert rho in set(df.values.ravel().tolist())
        assert dens[df.values <= rho].sum() >= 0.5 * dens.sum()
        assert dens[df.values < rho].sum() < 0.5 * dens.sum()

    def test_spike_has_rho_half_zero(self):
        dom = Lattice([(-2, 2), (-2, 2)], 0.25)
        vals = np.zeros(dom.shape)
        vals[dom.node_index([0.5, -0.25])] = 1.0
        u = GridFunction(dom, vals)
        lat = Lattice(dom.box, dom.spacing, n_random_controls=4, tau=0.5)
        fields = [distance_field(fx.euclidean(2), c, lat, seed=1)
                  for c in ([0.0, 0.0], [0.5, -0.25])]
        diag = levy_concentration(u, [0.25, 1.0], [[0.0, 0.0], [0.5, -0.25]],
                                  fields, p_star=4.0)
        assert diag.rho_half == 0.0
        assert diag.best_center == (0.5, -0.25)

    def test_field_count_checked(self):
        dom = Lattice([(-2, 2), (-2, 2)], 0.5)
        u = bump(dom, [0, 0], 0.5)
        with pytest.raises(SobolevError):
            levy_concentration(u, [0.5], [[0.0, 0.0]], [], p_star=4.0)

    def test_shifted_lattice_rejected(self):
        dom = Lattice([(-2, 2), (-2, 2)], 0.5)
        u = bump(dom, [0, 0], 0.5)
        shifted = Lattice([(-1, 3), (-2, 2)], 0.5, n_random_controls=4, tau=0.5)
        df = distance_field(fx.euclidean(2), [0, 0], shifted, seed=1)
        assert df.values.shape == dom.shape
        with pytest.raises(SobolevError):
            levy_concentration(u, [0.5], [[0.0, 0.0]], [df], p_star=4.0)


class TestDecayProfile:
    def make_distance_field(self, dom):
        system = fx.euclidean(2)
        lat = Lattice(dom.box, dom.spacing, n_random_controls=24, tau=0.2)
        return distance_field(system, [0, 0], lat, seed=1)

    def test_recovers_synthetic_power_law(self):
        dom = Lattice([(-4, 4), (-4, 4)], 0.1)
        df = self.make_distance_field(dom)
        with np.errstate(divide="ignore"):
            vals = np.where(df.values > 0, df.values, 0.05) ** -1.5
        u = GridFunction(dom, vals)
        fit = decay_profile(u, df, 1.0, 3.0)
        assert not fit.rejected
        assert fit.exponent == pytest.approx(-1.5, abs=0.15)

    def test_constant_field_rejected(self):
        dom = Lattice([(-4, 4), (-4, 4)], 0.1)
        df = self.make_distance_field(dom)
        u = GridFunction(dom, np.ones(dom.shape))
        fit = decay_profile(u, df, 1.0, 3.0)
        assert fit.rejected

    def test_lattice_contract(self):
        dom = Lattice([(-4, 4), (-4, 4)], 0.1)
        u = bump(dom, [0, 0], 0.5)
        for box, spacing in (([(-3, 5), (-4, 4)], 0.1),      # same shape, shifted box
                             ([(-4, 4), (-4, 4)], [0.1, 0.1 + 1e-9])):
            lat = Lattice(box, spacing, n_random_controls=4, tau=0.2)
            df = distance_field(fx.euclidean(2), [0, 0], lat, seed=1)
            assert df.values.shape == dom.shape
            with pytest.raises(SobolevError, match="does not match"):
                decay_profile(u, df, 1.0, 3.0)
        # a bare values array carries no lattice: only its shape is checked
        bare = types.SimpleNamespace(values=self.make_distance_field(dom).values)
        assert decay_profile(u, bare, 1.0, 3.0).n_points > 0

    def test_empty_annulus(self):
        dom = Lattice([(-4, 4), (-4, 4)], 0.1)
        df = self.make_distance_field(dom)
        u = bump(dom, [0, 0], 0.5)
        with pytest.raises(SobolevError):
            decay_profile(u, df, 50.0, 60.0)
