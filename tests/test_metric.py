"""Lattice distance fields, ball volumes, and growth scans."""

import math
import types
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from subriemann import fixtures as fx
from subriemann.lattice import Lattice, LatticeError
from subriemann.metric import (
    BallTruncated,
    MetricError,
    RatioRow,
    _frontier_steps,
    _neighbor_tables,
    _snap_rational,
    ball_box_scan,
    ball_extent,
    ball_volume,
    control_directions,
    distance_field,
    growth_exponent_scan,
    lattice_for_ball,
)
from subriemann.fixtures import fixture_path
from subriemann.nsw import eval_lambda, parse_plan


@pytest.fixture(scope="module")
def euclid_field():
    system = fx.euclidean(2)
    lattice = Lattice([(-2, 2), (-2, 2)], 0.05, n_random_controls=24, tau=0.1)
    return system, distance_field(system, [0, 0], lattice, seed=1)


class TestLatticeSpec:
    def test_one_lattice_type(self):
        """The old names that the benchmark workloads still import."""
        from subriemann.metric import LatticeSpec
        from subriemann.sobolev import GridDomain

        assert LatticeSpec is GridDomain is Lattice

    def test_shape_and_axes(self):
        lat = Lattice([(0, 1), (-1, 1)], [0.5, 1.0])
        assert lat.shape == (3, 3)
        assert np.allclose(lat.axes[0], [0, 0.5, 1.0])
        assert lat.cell_volume() == 0.5

    def test_node_index_and_bounds(self):
        lat = Lattice([(0, 1)], 0.25)
        assert lat.node_index([0.5]) == (2,)
        with pytest.raises(LatticeError):
            lat.node_index([2.0])

    def test_validation(self):
        with pytest.raises(LatticeError):
            Lattice([], 0.1)
        with pytest.raises(LatticeError):
            Lattice([(0, 1)], -0.1)
        with pytest.raises(LatticeError):
            Lattice([(1, 0)], 0.1)
        with pytest.raises(LatticeError):  # no node off the boundary shell
            Lattice([(0, 1)], 1.0)

    def test_mesh_built_on_first_use(self):
        lat = Lattice([(0, 1), (-1, 1)], 0.5)
        assert "mesh" not in vars(lat)
        assert np.array_equal(lat.mesh[1][0], lat.axes[1])
        assert lat.mesh is lat.mesh
        # a predicate still runs on the mesh at construction, so its errors surface there
        with pytest.raises(ZeroDivisionError):
            Lattice([(0, 1), (-1, 1)], 0.5, predicate=lambda x: 1 / 0)

    def test_control_directions_are_unit(self):
        dirs = control_directions(3, 10, seed=4)
        assert dirs.shape[0] == 6 + 10
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
        # seeded: reproducible
        assert np.allclose(dirs, control_directions(3, 10, seed=4))


class TestDistanceField:
    def test_euclidean_distances(self, euclid_field):
        system, df = euclid_field
        # BFS cost is quantized in tau = 0.1
        assert abs(df.query([1.0, 0.0]) - 1.0) <= 0.15
        assert abs(df.query([0.0, -1.0]) - 1.0) <= 0.15
        assert abs(df.query([1.0, 1.0]) - math.sqrt(2)) <= 0.2

    def test_source_is_zero(self, euclid_field):
        _, df = euclid_field
        assert df.query([0, 0]) == 0.0

    def test_symmetry_under_reflection(self, euclid_field):
        _, df = euclid_field
        assert abs(df.query([0.7, 0.3]) - df.query([-0.7, -0.3])) <= 0.2

    def test_max_reliable_radius(self, euclid_field):
        _, df = euclid_field
        r = df.max_reliable_radius()
        assert 1.5 <= r <= 2.5

    def test_grushin_slow_across_x1_zero(self):
        # moving in y near x1 = 0 costs ~ y^(1/3), much more than y
        system = fx.grushin()
        lat = Lattice([(-1.5, 1.5), (-1.5, 1.5)], 0.05,
                      n_random_controls=24, tau=0.1)
        df = distance_field(system, [0, 0], lat, seed=1)
        d_y = df.query([0.0, 1.0])
        d_x = df.query([1.0, 0.0])
        assert d_y > 1.3 * d_x

    def test_unreached_nodes_are_inf(self):
        # pure horizontal system d1 on R^2 never leaves the line x2 = 0
        system_text = "dim = 2\nweights = 1,1\nX1 = 1*d1\nX2 = 1*d1\n"
        from subriemann.fields import parse_system

        system = parse_system(system_text)
        lat = Lattice([(-1, 1), (-1, 1)], 0.25, n_random_controls=0, tau=0.5)
        df = distance_field(system, [0, 0], lat, seed=0)
        assert math.isinf(df.query([0.0, 0.5]))
        assert df.query([0.5, 0.0]) < math.inf
        # steps of tau = 2 spacings along x2 = 0 reach 5 of the 81 nodes
        assert np.isfinite(df.values).sum() == 5
        assert_matches_reference(system, [0, 0], lat, seed=0)


def reference_hops(system, source, lattice, seed):
    """Hop counts by a plain FIFO breadth-first search, -1 where unreached."""
    directions = control_directions(system.m, lattice.n_random_controls, seed=seed)
    tau = lattice.tau if lattice.tau is not None else 2.0 * max(lattice.spacing)
    tables = _neighbor_tables(system, lattice, directions, tau).T.tolist()
    src = int(np.ravel_multi_index(lattice.node_index(source), lattice.shape))
    hops = [-1] * len(tables[0])
    hops[src] = 0
    queue = deque([src])
    while queue:
        node = queue.popleft()
        for tab in tables:
            nb = tab[node]
            if nb >= 0 and hops[nb] < 0:
                hops[nb] = hops[node] + 1
                queue.append(nb)
    return np.array(hops).reshape(lattice.shape)


def reference_tables(system, lattice, directions, tau):
    """Neighbour tables by the step arithmetic on the full node grid."""
    shape = lattice.shape
    comp = lattice.field_grids(system)
    tables = []
    for a in directions:
        valid = np.ones(shape, dtype=bool)
        targets = []
        for k in range(system.dim):
            disp = np.zeros(shape)
            for i in range(system.m):
                disp = disp + a[i] * comp[i][k]
            t = lattice.mesh[k] + tau * disp
            j = np.rint((t - lattice.box[k][0]) / lattice.spacing[k]).astype(np.int64)
            valid &= (j >= 0) & (j < shape[k])
            targets.append(np.clip(j, 0, shape[k] - 1))
        tables.append(np.where(valid, np.ravel_multi_index(targets, shape), -1).ravel())
    return np.array(tables)


def assert_matches_reference(system, source, lattice, seed):
    """distance_field labels every node with the reference hop count."""
    df = distance_field(system, source, lattice, seed=seed)
    hops = reference_hops(system, source, lattice, seed)
    reached = hops >= 0
    assert np.array_equal(np.isfinite(df.values), reached)
    ratio = df.values[reached] / df.tau
    assert np.array_equal(np.rint(ratio), hops[reached])
    assert np.allclose(ratio, hops[reached], rtol=0, atol=1e-9)
    assert np.array_equal(df.values[reached], hops[reached] * df.tau)


GRUSHIN_LATTICE = dict(box=[(-1.5, 1.5)] * 2, spacing=0.1, n_random_controls=12, tau=0.2)
MARTINET_LATTICE = dict(box=[(-1, 1)] * 3, spacing=0.125, n_random_controls=6, tau=0.25)


FIXTURES = ["euclidean2", "heisenberg1", "grushin-1-1-2", "bony3", "martinet",
            "r4-fourfields", "example6", "ex31"]


def small_lattice(dim):
    return Lattice([(-1, 1.1)] * dim, 0.15 if dim < 4 else 0.35,
                   n_random_controls=8, tau=0.3)


class TestFrontierBFS:
    """The level-synchronous BFS labels every node as a FIFO BFS does."""

    @pytest.mark.parametrize("name, lattice, source, seed", [
        ("grushin-1-1-2", GRUSHIN_LATTICE, [0.3, -0.2], 0),
        ("grushin-1-1-2", GRUSHIN_LATTICE, [0.3, -0.2], 1),
        ("grushin-1-1-2", GRUSHIN_LATTICE, [0.3, -0.2], 5),
        ("martinet", MARTINET_LATTICE, [0.5, 0.0, 0.25], 0),
        ("martinet", MARTINET_LATTICE, [0.5, 0.0, 0.25], 2),
        ("martinet", MARTINET_LATTICE, [0.5, 0.0, 0.25], 7),
        ("martinet", MARTINET_LATTICE, [-1.0, 0.5, 1.0], 3),  # on the boundary shell
    ] + [(name, None, None, seed) for name in FIXTURES for seed in (0, 4)])
    def test_matches_reference_bfs(self, systems, name, lattice, source, seed):
        system = systems[name]
        if lattice is None:  # every fixture on the bounded-ball tests' lattice and centre
            lattice, source = small_lattice(system.dim), [0.1] * system.dim
        else:
            lattice = Lattice(**lattice)
        assert_matches_reference(system, source, lattice, seed)

    @pytest.mark.parametrize("name", ["grushin-1-1-2", "martinet", "heisenberg1",
                                      "r4-fourfields", "ex31"])
    def test_tables_match_full_grid_arithmetic(self, systems, name):
        system = systems[name]
        lat = Lattice([(-1, 1.1)] * system.dim, 0.15 if system.dim < 4 else 0.35)
        directions = control_directions(system.m, 8, seed=1)
        tables = _neighbor_tables(system, lat, directions, 0.3)
        assert np.array_equal(tables, reference_tables(system, lat, directions, 0.3).T)

    def test_tables_are_stacked_int32(self):
        system = fx.martinet()
        lat = Lattice([(-1, 1), (-1, 1), (-1, 1)], 0.25,
                      n_random_controls=6, tau=0.25)
        directions = control_directions(system.m, 6, seed=0)
        tables = _neighbor_tables(system, lat, directions, 0.25)
        assert tables.dtype == np.int32
        assert tables.shape == (9 ** 3, len(directions))
        assert tables.min() >= -1 and tables.max() < 9 ** 3
        assert (tables == -1).any()  # steps out of the box exit

    def test_int32_node_limit(self):
        # refused before any per-node array is allocated
        lat = types.SimpleNamespace(shape=(1 << 11,) * 3, n_random_controls=0,
                                    tau=0.1, spacing=[0.01] * 3)
        with pytest.raises(MetricError, match="int32"):
            distance_field(fx.martinet(), [0, 0, 0], lat)


def reference_ball_box_scan(system, nsw, centers, radii, lattice_for, seed=0):
    """The scan as it was: a full distance field per (center, radius)."""
    rows = []
    for center in centers:
        rat_center = [Fraction(float(v)).limit_denominator(1 << 16) for v in center]
        for r in radii:
            dfield = distance_field(system, center, lattice_for(center, r), seed=seed)
            vol = ball_volume(system, center, r, dfield=dfield, check_truncation=False).estimate
            lam = float(eval_lambda(nsw, rat_center, Fraction(float(r)).limit_denominator(1 << 16)))
            rows.append(RatioRow(tuple(map(float, center)), float(r), vol, lam))
    return rows


def assert_same_volume(system, center, r, lattice, seed, check_truncation=False):
    """The bounded search counts the cells that the full field puts inside B(center, r)."""
    full = ball_volume(system, center, r, seed=seed, check_truncation=check_truncation,
                       dfield=distance_field(system, center, lattice, seed=seed))
    bounded = ball_volume(system, center, r, lattice=lattice, seed=seed,
                          check_truncation=check_truncation)
    assert bounded == full
    return full


class TestBoundedBall:
    """ball_volume(lattice=...) searches only the ball, with the full field's answer."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_frontier_steps_match_tables(self, systems, name):
        system = systems[name]
        lat = small_lattice(system.dim)
        directions = control_directions(system.m, 8, seed=1)
        tables = _neighbor_tables(system, lat, directions, 0.3)
        steps = _frontier_steps(system, lat, directions, 0.3)
        assert np.array_equal(steps(np.arange(tables.shape[0])), tables)
        nodes = np.unique(np.random.default_rng(3).integers(0, tables.shape[0], 40))
        assert np.array_equal(steps(nodes), tables[nodes])

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("seed", [0, 4])
    def test_volumes_match_full_field(self, systems, name, seed):
        system = systems[name]
        lat = small_lattice(system.dim)
        center = [0.1] * system.dim
        # 0.6 is 2 * 0.3 exactly in floats; 3 * 0.3 lands just below 0.9
        for r in (0.0, 0.3, 0.45, 0.6, 0.9, 1.2, math.inf):
            assert_same_volume(system, center, r, lat, seed)

    @pytest.mark.parametrize("name", ["grushin-1-1-2", "martinet", "r4-fourfields"])
    def test_search_stays_local(self, systems, name):
        # neither the whole-box mesh nor the coefficient grids (evaluated on it) are built
        system = systems[name]
        lat = small_lattice(system.dim)
        center = [0.1] * system.dim
        bounded = ball_volume(system, center, 0.9, lattice=lat, seed=4, check_truncation=False)
        assert "mesh" not in vars(lat)
        full = ball_volume(system, center, 0.9, dfield=distance_field(system, center, lat, seed=4),
                           check_truncation=False)
        assert bounded == full
        # the tables evaluate the coefficients on sub-grids, not on the mesh
        assert "mesh" not in vars(lat)

    def test_radius_on_a_level(self):
        # tau = 0.125 and r = 4 tau = 0.5: the level-4 shell lies outside the ball
        system = fx.grushin()
        lat = Lattice([(-1.5, 1.5)] * 2, 0.05, n_random_controls=12, tau=0.125)
        df = distance_field(system, [0.2, 0.0], lat, seed=2)
        assert (df.values == 0.5).any()
        full = assert_same_volume(system, [0.2, 0.0], 0.5, lat, seed=2)
        assert full.sample_count == int((df.values < 0.5).sum())
        assert full.sample_count < int((df.values <= 0.5).sum())

    def test_frontier_empties_before_the_radius(self):
        # d1 steps never leave the line x2 = 0: 5 nodes are reachable
        from subriemann.fields import parse_system

        system = parse_system("dim = 2\nweights = 1,1\nX1 = 1*d1\nX2 = 1*d1\n")
        lat = Lattice([(-1, 1), (-1, 1)], 0.25, n_random_controls=0, tau=0.5)
        for r in (10.0, math.inf):
            est = assert_same_volume(system, [0, 0], r, lat, seed=0)
            assert est.sample_count == 5

    def test_truncation_raises_on_both_paths(self):
        system = fx.euclidean(2)
        lat = Lattice([(-1, 1), (-1, 1)], 0.1, n_random_controls=8, tau=0.2)
        with pytest.raises(BallTruncated):
            ball_volume(system, [0, 0], 1.5, lattice=lat, seed=1)
        with pytest.raises(BallTruncated):
            ball_volume(system, [0, 0], 1.5, dfield=distance_field(system, [0, 0], lat, seed=1))
        assert_same_volume(system, [0, 0], 1.5, lat, seed=1)
        assert_same_volume(system, [0, 0], 0.5, lat, seed=1, check_truncation=True)

    def test_scan_matches_full_field_scan(self, systems, bases, nsw_polys):
        # criterion 4's Grushin inputs
        name = "grushin-1-1-2"
        basis = bases[name]
        args = (systems[name], nsw_polys[name], [[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]],
                [2.0 ** -k for k in range(1, 6)], lambda c, r: lattice_for_ball(basis, c, r))
        assert ball_box_scan(*args, seed=2).rows == reference_ball_box_scan(*args, seed=2)


class TestBallVolume:
    def test_euclidean_disc_area(self, euclid_field):
        system, df = euclid_field
        vol = ball_volume(system, [0, 0], 1.0, dfield=df).estimate
        assert abs(vol - math.pi) / math.pi < 0.25

    def test_monotone_in_radius(self, euclid_field):
        system, df = euclid_field
        vols = [ball_volume(system, [0, 0], r, dfield=df).estimate
                for r in (0.5, 1.0, 1.5)]
        assert vols[0] < vols[1] < vols[2]

    def test_truncation_detected(self, euclid_field):
        system, df = euclid_field
        with pytest.raises(BallTruncated):
            ball_volume(system, [0, 0], 5.0, dfield=df)

    def test_center_must_be_the_field_source(self, euclid_field):
        # the field only knows balls about its source; a centre on the same
        # node (0.01 is within half a spacing of 0) reads the same ball
        system, df = euclid_field
        with pytest.raises(MetricError):
            ball_volume(system, [1, 1], 0.5, dfield=df)
        at_source = ball_volume(system, [0, 0], 0.5, dfield=df)
        assert ball_volume(system, [0.01, -0.01], 0.5, dfield=df) == at_source


class TestBallExtent:
    def test_martinet_extent(self, bases):
        ext = ball_extent(bases["martinet"], [0, 0, 0], 0.5)
        assert ext[0] == pytest.approx(0.5)
        assert ext[1] == pytest.approx(0.5)
        assert ext[2] == pytest.approx(4 * 0.5 ** 3)

    def test_extent_grows_off_axis(self, bases):
        at0 = ball_extent(bases["grushin-1-1-2"], [0, 0], 0.5)
        at1 = ball_extent(bases["grushin-1-1-2"], [1, 0], 0.5)
        assert at1[1] > at0[1]

    def test_lattice_for_ball_shape(self, bases):
        lat = lattice_for_ball(bases["martinet"], [0, 0, 0], 0.25)
        assert all(n == 49 for n in lat.shape)
        assert lat.tau == pytest.approx(0.025)


class TestBallBoxScan:
    def test_small_grushin_scan(self, systems, bases, nsw_polys):
        basis = bases["grushin-1-1-2"]
        report = ball_box_scan(
            systems["grushin-1-1-2"], nsw_polys["grushin-1-1-2"],
            centers=[[0.0, 0.0], [1.0, 1.0]],
            radii=[0.5, 0.25],
            lattice_for=lambda c, r: lattice_for_ball(basis, c, r, nodes_per_axis=32),
            seed=2,
        )
        assert len(report.rows) == 4
        assert report.min_ratio > 0
        assert report.spread < 50


class TestGrowthScan:
    def test_lambda_mode_exact_values(self, nsw_polys):
        nsw = nsw_polys["grushin-1-1-2"]
        plan = [([Fraction(0), Fraction(0)], Fraction(1, 2))]
        report = growth_exponent_scan(nsw, [2.0, 4.0], plan)
        # Lambda(0, r) = 24 r^4
        assert report.kappa_infima[4.0] == pytest.approx(24.0)
        assert report.kappa_infima[2.0] == pytest.approx(24.0 * 0.25)

    def test_exact_plan_rows_are_not_moved(self, nsw_polys):
        # ex31.plan has x2 = 125893/198881, which a denominator <= 2^16
        # snap would move; Lambda must be evaluated at the row itself
        nsw = nsw_polys["ex31"]
        plan = parse_plan(fixture_path("ex31.plan").read_text(), 3)
        assert any(v.denominator > 1 << 16 for x, _ in plan for v in x)
        report = growth_exponent_scan(nsw, [1.0], plan)
        for (x, r), (_, center, radius, value) in zip(plan, report.table):
            assert center == tuple(x) and radius == float(r)
            assert value == float(eval_lambda(nsw, x, r)) / float(r)
        assert _snap_rational(3) == 3 and _snap_rational(Fraction(1, 3)) == Fraction(1, 3)

    def test_kappa_range_enforced(self, nsw_polys):
        with pytest.raises(ValueError):
            growth_exponent_scan(nsw_polys["grushin-1-1-2"], [5.0], [([0, 0], 0.5)])
