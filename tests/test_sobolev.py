"""Discrete Sobolev quotient: energies, minimization, diagnostics."""

import math
import types

import numpy as np
import pytest

from subriemann import fixtures as fx
from subriemann.lattice import LatticeError
from subriemann.metric import LatticeSpec, distance_field
from subriemann.sobolev import (
    GridDomain,
    GridFunction,
    SobolevError,
    SupportEscape,
    _energy_and_gradient,
    bump,
    decay_profile,
    dilate_function,
    domain_independence,
    energy_report,
    exponent_probe,
    horizontal_gradient,
    levy_concentration,
    minimize_quotient,
    rescale,
)
from subriemann.nsw import parse_domain_spec


@pytest.fixture(scope="module")
def euclid2():
    return fx.euclidean(2)


@pytest.fixture(scope="module")
def small_domain():
    return GridDomain([(-2, 2), (-2, 2)], 0.25)


class TestGridDomain:
    def test_shape_and_mask(self, small_domain):
        assert small_domain.shape == (17, 17)
        assert not small_domain.free[0].any()
        assert not small_domain.free[:, -1].any()
        assert small_domain.free[8, 8]

    def test_predicate_restricts(self):
        dom = GridDomain([(-1, 1), (-1, 1)], 0.5,
                         predicate=lambda x: x[0] >= 0)
        assert not dom.free[0, 2]
        assert dom.free[3, 2]

    def test_clamp(self, small_domain):
        vals = np.ones(small_domain.shape)
        clamped = small_domain.clamp(vals)
        assert clamped[0, 0] == 0.0
        assert clamped[8, 8] == 1.0

    def test_rejects_bad_spacing(self):
        with pytest.raises(LatticeError):
            GridDomain([(-1, 1)], [0.5, 0.5])


class TestGridFunction:
    def test_norm_matches_manual(self, euclid2, small_domain):
        u = GridFunction(small_domain, np.ones(small_domain.shape))
        cv = small_domain.cell_volume()
        manual = (float(small_domain.free.sum()) * cv) ** 0.5
        assert u.norm(2.0) == pytest.approx(manual)

    def test_normalized(self, small_domain):
        u = bump(small_domain, [0, 0], 0.5)
        assert u.normalized(4.0).norm(4.0) == pytest.approx(1.0)
        zero = GridFunction(small_domain, np.zeros(small_domain.shape))
        with pytest.raises(SobolevError):
            zero.normalized(2.0)

    def test_bump_peaks_at_center(self, small_domain):
        u = bump(small_domain, [0.5, -0.5], 0.5)
        idx = np.unravel_index(np.argmax(u.values), small_domain.shape)
        assert small_domain.node_coords(idx) == (0.5, -0.5)


class TestHorizontalGradient:
    def test_exact_on_linear_functions(self, euclid2, small_domain):
        x, y = small_domain.mesh
        u = GridFunction(small_domain, small_domain.clamp(x + 2 * y))
        g = horizontal_gradient(euclid2, u)
        interior = small_domain.free.copy()
        # one extra layer in from the clamped shell (stencil touches it)
        interior[1:3] = interior[-3:-1] = False
        interior[:, 1:3] = interior[:, -3:-1] = False
        assert np.allclose(g[0][interior], 1.0)
        assert np.allclose(g[1][interior], 2.0)

    def test_grushin_coefficients_enter(self):
        system = fx.grushin()
        dom = GridDomain([(-2, 2), (-2, 2)], 0.25)
        x, y = dom.mesh
        u = GridFunction(dom, dom.clamp(y))
        g = horizontal_gradient(system, u)
        # X2 u = 3 x^2 at interior nodes away from the clamp shell
        i = dom.shape[0] // 2 + 2
        j = dom.shape[1] // 2
        x_val = dom.axes[0][i]
        assert g[1][i, j] == pytest.approx(3.0 * x_val ** 2)


class TestEnergyAndGradient:
    @pytest.mark.parametrize("p", [1.7, 2.0, 2.5])
    def test_gradient_matches_finite_differences(self, p):
        system = fx.grushin()
        dom = GridDomain([(-1, 1), (-1, 1)], 0.5)
        rng = np.random.default_rng(5)
        values = dom.clamp(rng.normal(size=dom.shape))
        grids = dom.field_grids(system)
        eps = 1e-8 if p < 2 else 0.0
        energy, grad = _energy_and_gradient(system, dom, values, p, grids, eps)
        direction = dom.clamp(rng.normal(size=dom.shape))
        h = 1e-6
        ep, _ = _energy_and_gradient(system, dom, values + h * direction, p,
                                     grids, eps, need_gradient=False)
        em, _ = _energy_and_gradient(system, dom, values - h * direction, p,
                                     grids, eps, need_gradient=False)
        numeric = (ep - em) / (2 * h)
        analytic = float((grad * direction).sum())
        assert numeric == pytest.approx(analytic, rel=1e-4)

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


class TestMinimize:
    def test_quotient_decreases(self):
        system = fx.grushin()
        dom = GridDomain([(-3, 3), (-3, 3)], 0.25)
        res = minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=200,
                                seed=0)
        assert res.trace[-1] < res.trace[0]
        diffs = np.diff(res.trace)
        assert (diffs <= 1e-12).all()
        assert res.constant == pytest.approx(res.trace[-1])
        assert res.report.quotient == pytest.approx(res.constant, rel=1e-6)

    def test_multistart_keeps_best(self):
        system = fx.grushin()
        dom = GridDomain([(-3, 3), (-3, 3)], 0.375)
        res = minimize_quotient(system, dom, p=2.0, n_starts=2, max_iter=60,
                                seed=3)
        assert len(res.start_quotients) == 2
        assert res.constant == pytest.approx(min(res.start_quotients))

    def test_stop_reason_max_iter(self):
        system = fx.grushin()
        dom = GridDomain([(-3, 3), (-3, 3)], 0.375)
        res = minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=5, seed=0)
        assert res.iterations == 5
        assert res.stop_reason == "max_iter"
        assert res.converged is False

    def test_stalled_line_search_is_not_converged(self):
        # one free node: every normalized candidate has the same quotient
        dom = GridDomain([(-1, 1), (-1, 1)], 1.0)
        res = minimize_quotient(fx.grushin(), dom, p=2.0, n_starts=1, max_iter=50)
        assert res.stop_reason == "stalled"
        assert res.iterations == 1
        assert res.converged is False

    def test_stop_reason_converged(self):
        system = fx.grushin()
        dom = GridDomain([(-3, 3), (-3, 3)], 0.375)
        res = minimize_quotient(system, dom, p=2.0, n_starts=1, max_iter=2000,
                                patience=5, rel_tol=1e-2, seed=0)
        assert res.stop_reason == "converged"
        assert res.converged is True
        assert res.iterations < 2000

    def test_explicit_init_is_used(self):
        system = fx.grushin()
        dom = GridDomain([(-3, 3), (-3, 3)], 0.375)
        u0 = bump(dom, [0, 0], 1.0)
        res = minimize_quotient(system, dom, p=2.0, init=u0, n_starts=1,
                                max_iter=5, seed=0)
        assert res.iterations <= 5
        other = GridDomain([(-2, 2), (-2, 2)], 0.375)
        with pytest.raises(SobolevError):
            minimize_quotient(system, dom, init=bump(other, [0, 0], 1.0),
                              n_starts=1, max_iter=5)


class TestDilation:
    def test_exact_norm_scaling(self):
        system = fx.grushin()  # weights (1, 3), Q = 4
        dom = GridDomain([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.7)
        t = 0.5
        ut = dilate_function(system, u, t)
        for q in (2.0, 4.0):
            assert ut.norm(q) == pytest.approx(t ** (4.0 / q) * u.norm(q))

    def test_rejects_bad_t(self):
        dom = GridDomain([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.7)
        with pytest.raises(SobolevError):
            dilate_function(fx.grushin(), u, 0.0)


class TestExponentProbe:
    def test_critical_kappa_is_flat(self):
        system = fx.grushin()
        dom = GridDomain([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        report = exponent_probe(system, None, 4.0, u, [1.0, 0.5, 0.1])
        assert report.spread == pytest.approx(1.0, abs=1e-9)

    def test_subcritical_kappa_slope_exact(self):
        # R(t) = t^(1 - Q/kappa) exactly under lattice dilation
        system = fx.grushin()
        dom = GridDomain([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        report = exponent_probe(system, None, 3.5, u, [1.0, 0.1, 0.01])
        assert report.slope == pytest.approx(1.0 - 4.0 / 3.5, rel=1e-9)
        assert report.spread > 1.0

    def test_support_escape(self):
        system = fx.grushin()
        dom = GridDomain([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        spec = parse_domain_spec("dim = 2\nbox = -1,1 ; -1,1\n")
        with pytest.raises(SupportEscape):
            exponent_probe(system, spec, 3.5, u, [2.0])

    def test_kappa_must_exceed_one(self):
        dom = GridDomain([(-2, 2), (-2, 2)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        with pytest.raises(SobolevError):
            exponent_probe(fx.grushin(), None, 1.0, u, [1.0])


class TestRescale:
    def test_identity_parameters(self):
        from subriemann.automorph import parse_family
        from subriemann.fixtures import fixture_path

        system = fx.grushin()
        family = parse_family(fixture_path("grushin-1-1-2.family").read_text())
        dom = GridDomain([(-3, 3), (-3, 3)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        v = rescale(system, u, [0, 0], 1.0, family)
        assert np.allclose(v.values, u.values, atol=1e-10)

    def test_translation_moves_mass(self):
        from subriemann.automorph import parse_family
        from subriemann.fixtures import fixture_path

        system = fx.grushin()
        family = parse_family(fixture_path("grushin-1-1-2.family").read_text())
        dom = GridDomain([(-3, 3), (-3, 3)], 0.25)
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
        dom = GridDomain([(-3, 3), (-3, 3)], 0.25)
        u = bump(dom, [0, 0], 0.5)
        with pytest.raises(SupportEscape):
            rescale(system, u, [0, 5.9], 1.0, family)


class TestLevyConcentration:
    def test_monotone_profile_and_rho_half(self):
        system = fx.euclidean(2)
        dom = GridDomain([(-2, 2), (-2, 2)], 0.1)
        u = bump(dom, [0, 0], 0.4)
        lat = LatticeSpec(dom.box, dom.spacing, n_random_controls=24, tau=0.2)
        df = distance_field(system, [0, 0], lat, seed=1)
        diag = levy_concentration(u, [0.25, 0.5, 1.0, 1.5], [[0.0, 0.0]],
                                  [df], p_star=4.0)
        vals = diag.levy_values
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.95
        assert diag.rho_half is not None
        # |u|^4 has mass fraction 1 - exp(-25 rho^2) inside radius rho, so
        # the half level sits near sqrt(ln 2)/5 = 0.167; BFS distances are
        # quantized in tau = 0.2, which pushes the bisected value upward
        assert 0.1 < diag.rho_half <= 0.45
        assert diag.best_center == (0.0, 0.0)

    def test_field_count_checked(self):
        dom = GridDomain([(-2, 2), (-2, 2)], 0.5)
        u = bump(dom, [0, 0], 0.5)
        with pytest.raises(SobolevError):
            levy_concentration(u, [0.5], [[0.0, 0.0]], [], p_star=4.0)

    def test_shifted_lattice_rejected(self):
        dom = GridDomain([(-2, 2), (-2, 2)], 0.5)
        u = bump(dom, [0, 0], 0.5)
        shifted = LatticeSpec([(-1, 3), (-2, 2)], 0.5, n_random_controls=4, tau=0.5)
        df = distance_field(fx.euclidean(2), [0, 0], shifted, seed=1)
        assert df.values.shape == dom.shape
        with pytest.raises(SobolevError):
            levy_concentration(u, [0.5], [[0.0, 0.0]], [df], p_star=4.0)


class TestDecayProfile:
    def make_distance_field(self, dom):
        system = fx.euclidean(2)
        lat = LatticeSpec(dom.box, dom.spacing, n_random_controls=24, tau=0.2)
        return distance_field(system, [0, 0], lat, seed=1)

    def test_recovers_synthetic_power_law(self):
        dom = GridDomain([(-4, 4), (-4, 4)], 0.1)
        df = self.make_distance_field(dom)
        with np.errstate(divide="ignore"):
            vals = np.where(df.values > 0, df.values, 0.05) ** -1.5
        u = GridFunction(dom, dom.clamp(vals))
        fit = decay_profile(u, df, 1.0, 3.0)
        assert not fit.rejected
        assert fit.exponent == pytest.approx(-1.5, abs=0.15)

    def test_constant_field_rejected(self):
        dom = GridDomain([(-4, 4), (-4, 4)], 0.1)
        df = self.make_distance_field(dom)
        u = GridFunction(dom, np.ones(dom.shape))
        fit = decay_profile(u, df, 1.0, 3.0)
        assert fit.rejected

    def test_lattice_contract(self):
        dom = GridDomain([(-4, 4), (-4, 4)], 0.1)
        u = bump(dom, [0, 0], 0.5)
        for box, spacing in (([(-3, 5), (-4, 4)], 0.1),      # same shape, shifted box
                             ([(-4, 4), (-4, 4)], [0.1, 0.1 + 1e-9])):
            lat = LatticeSpec(box, spacing, n_random_controls=4, tau=0.2)
            df = distance_field(fx.euclidean(2), [0, 0], lat, seed=1)
            assert df.values.shape == dom.shape
            with pytest.raises(SobolevError, match="does not match"):
                decay_profile(u, df, 1.0, 3.0)
        # a bare values array carries no lattice: only its shape is checked
        bare = types.SimpleNamespace(values=self.make_distance_field(dom).values)
        assert decay_profile(u, bare, 1.0, 3.0).n_points > 0

    def test_empty_annulus(self):
        dom = GridDomain([(-4, 4), (-4, 4)], 0.1)
        df = self.make_distance_field(dom)
        u = bump(dom, [0, 0], 0.5)
        with pytest.raises(SobolevError):
            decay_profile(u, df, 50.0, 60.0)


class TestDomainIndependence:
    def test_comparison_runs(self):
        system = fx.grushin()
        a = GridDomain([(-3, 3), (-3, 3)], 0.375)
        b = GridDomain([(-3, 3), (2, 8)], 0.375)
        cmp = domain_independence(system, a, b, p=2.0, n_starts=1,
                                  max_iter=40, seed=0)
        assert cmp.rel_difference >= 0.0
        assert cmp.constant_a > 0 and cmp.constant_b > 0
