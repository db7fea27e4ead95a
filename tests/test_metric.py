"""Lattice distance fields, ball volumes, and growth scans."""

import math
from fractions import Fraction

import numpy as np
import pytest

from subriemann import fixtures as fx
from subriemann.lattice import Lattice, LatticeError
from subriemann.metric import (
    BallTruncated,
    LatticeSpec,
    ball_box_scan,
    ball_extent,
    ball_volume,
    control_directions,
    distance_field,
    doubling_check,
    growth_exponent_scan,
    isometry_checks,
    lattice_for_ball,
    poincare_check,
)
from subriemann.nsw import eval_lambda, parse_domain_spec
from subriemann.automorph import PolynomialMap
from subriemann.polynomials import parse_polynomial
from subriemann.sobolev import GridDomain


@pytest.fixture(scope="module")
def euclid_field():
    system = fx.euclidean(2)
    lattice = LatticeSpec([(-2, 2), (-2, 2)], 0.05, n_random_controls=24, tau=0.1)
    return system, distance_field(system, [0, 0], lattice, seed=1)


class TestLatticeSpec:
    def test_one_lattice_type(self):
        assert LatticeSpec is GridDomain is Lattice

    def test_shape_and_axes(self):
        lat = LatticeSpec([(0, 1), (-1, 1)], [0.5, 1.0])
        assert lat.shape == (3, 3)
        assert np.allclose(lat.axes[0], [0, 0.5, 1.0])
        assert lat.cell_volume() == 0.5

    def test_node_index_and_bounds(self):
        lat = LatticeSpec([(0, 1)], 0.25)
        assert lat.node_index([0.5]) == (2,)
        with pytest.raises(LatticeError):
            lat.node_index([2.0])

    def test_validation(self):
        with pytest.raises(LatticeError):
            LatticeSpec([], 0.1)
        with pytest.raises(LatticeError):
            LatticeSpec([(0, 1)], -0.1)
        with pytest.raises(LatticeError):
            LatticeSpec([(1, 0)], 0.1)
        with pytest.raises(LatticeError):  # no node off the boundary shell
            LatticeSpec([(0, 1)], 1.0)

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
        lat = LatticeSpec([(-1.5, 1.5), (-1.5, 1.5)], 0.05,
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
        lat = LatticeSpec([(-1, 1), (-1, 1)], 0.25, n_random_controls=0, tau=0.5)
        df = distance_field(system, [0, 0], lat, seed=0)
        assert math.isinf(df.query([0.0, 0.5]))
        assert df.query([0.5, 0.0]) < math.inf


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
        assert "center,radius" in report.to_csv()


class TestDoubling:
    def test_euclidean_doubling(self):
        system = fx.euclidean(2)
        report = doubling_check(
            system, [[0.0, 0.0]], [0.4, 0.6],
            lattice_for=lambda c: LatticeSpec([(-2, 2), (-2, 2)], 0.05,
                                              n_random_controls=24, tau=0.1),
            seed=1,
        )
        # area ratio should be near 2^2 = 4 and max_constant near 1
        for *_rest, ratio in report.rows:
            assert 2.5 < ratio < 6.0
        assert 0.5 < report.max_constant < 1.6


class TestGrowthScan:
    def test_lambda_mode_exact_values(self, systems, nsw_polys):
        system = systems["grushin-1-1-2"]
        nsw = nsw_polys["grushin-1-1-2"]
        domain = parse_domain_spec("dim = 2\nbox = -1,1 ; -1,1\n")
        plan = [([Fraction(0), Fraction(0)], Fraction(1, 2))]
        report = growth_exponent_scan(system, nsw, domain, [2.0, 4.0], plan)
        # Lambda(0, r) = 24 r^4
        assert report.kappa_infima[4.0] == pytest.approx(24.0)
        assert report.kappa_infima[2.0] == pytest.approx(24.0 * 0.25)

    def test_volume_mode_uses_callback(self, systems, nsw_polys):
        domain = parse_domain_spec("dim = 2\nbox = -1,1 ; -1,1\n")
        plan = [([0.0, 0.0], 0.5)]
        report = growth_exponent_scan(
            systems["grushin-1-1-2"], nsw_polys["grushin-1-1-2"], domain,
            [3.0], plan, mode="volume", volume_for=lambda x, r: 8.0 * r ** 3,
        )
        assert report.kappa_infima[3.0] == pytest.approx(8.0)

    def test_kappa_range_enforced(self, systems, nsw_polys):
        domain = parse_domain_spec("dim = 2\nbox = -1,1 ; -1,1\n")
        with pytest.raises(ValueError):
            growth_exponent_scan(systems["grushin-1-1-2"],
                                 nsw_polys["grushin-1-1-2"], domain,
                                 [5.0], [([0, 0], 0.5)])

    def test_csv_output(self, systems, nsw_polys):
        domain = parse_domain_spec("dim = 2\nbox = -1,1 ; -1,1\n")
        report = growth_exponent_scan(
            systems["grushin-1-1-2"], nsw_polys["grushin-1-1-2"], domain,
            [4.0], [([Fraction(0), Fraction(0)], Fraction(1, 2))],
        )
        assert report.to_csv().startswith("kappa,center,r,")


class TestIsometry:
    def test_translation_is_isometry(self):
        system = fx.euclidean(2)
        amap = PolynomialMap.translation([Fraction(1, 4), Fraction(-1, 4)])
        report = isometry_checks(
            system, [([0.0, 0.0], [0.5, 0.0])], amap, [0.5],
            lattice_for=lambda c: LatticeSpec(
                [(c[0] - 1.5, c[0] + 1.5), (c[1] - 1.5, c[1] + 1.5)],
                0.05, n_random_controls=24, tau=0.1),
            seed=1,
        )
        assert report.max_rel_error < 0.25


class TestPoincare:
    def test_constant_and_linear(self):
        system = fx.euclidean(2)
        lat = LatticeSpec([(-1.5, 1.5), (-1.5, 1.5)], 0.05,
                          n_random_controls=24, tau=0.1)
        const = parse_polynomial("3", 2)
        linear = parse_polynomial("x1", 2)
        report = poincare_check(system, [0, 0], 1.0,
                                [("const", const), ("linear", linear)], lat, seed=1)
        by_label = {row[0]: row for row in report.rows}
        assert by_label["const"][3] == 0.0
        assert 0.0 < by_label["linear"][3] < 2.0
