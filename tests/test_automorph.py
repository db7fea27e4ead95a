"""Automorphism certification and transitive-family verification."""

from fractions import Fraction

import pytest

from subriemann.automorph import (
    PolynomialMap,
    TransitiveFamily,
    certify,
    parse_family,
    translation_directions,
    verify_transitive_family,
)
from subriemann.fields import FieldError
from subriemann.fixtures import fixture_path
from subriemann.nsw import top_stratum
from subriemann.polynomials import Polynomial, parse_polynomial


def load_family(name):
    return parse_family(fixture_path(name).read_text())


class TestPolynomialMap:
    def test_identity_and_translation(self):
        ident = PolynomialMap.identity(3)
        assert ident([1, 2, 3]) == [1, 2, 3]
        tr = PolynomialMap.translation([Fraction(1, 2), -1])
        assert tr([0, 0]) == [Fraction(1, 2), -1]

    def test_at_params_binds_parameters(self):
        # A(x) = x1 + w in one ambient variable, one parameter
        comp = parse_polynomial("x1 + x2", 2)
        pmap = PolynomialMap([comp], n_params=1)
        bound = pmap.at_params([Fraction(3)])
        assert bound([2]) == [5]

    def test_parametric_map_rejects_direct_call(self):
        pmap = PolynomialMap([parse_polynomial("x1 + x2", 2)], n_params=1)
        with pytest.raises(FieldError):
            pmap([1])


class TestCertify:
    def test_translation_along_invariant_axes(self, martinet):
        tr = PolynomialMap.translation([0, Fraction(1, 3), -2])
        cert = certify(martinet, tr)
        assert cert.ok

    def test_translation_along_x1_fails(self, martinet):
        tr = PolynomialMap.translation([1, 0, 0])
        cert = certify(martinet, tr)
        assert not cert.pushforward_ok
        assert cert.unimodular  # translations always preserve volume

    def test_scaling_is_not_unimodular(self, grushin):
        smap = PolynomialMap([parse_polynomial("2*x1", 2),
                              parse_polynomial("8*x2", 2)])
        cert = certify(grushin, smap)
        assert not cert.unimodular
        assert "FAIL" in str(cert)

    def test_heisenberg_rotation(self, systems):
        # (x, y, z) -> (-y, x, z) intertwines the generators' span but
        # not each generator, so the per-field identity fails...
        h = systems["heisenberg1"]
        rot = PolynomialMap([parse_polynomial("-x2", 3),
                             parse_polynomial("x1", 3),
                             parse_polynomial("x3", 3)])
        assert not certify(h, rot).pushforward_ok
        # ...while the group translation by (a, b, c) passes
        a, b, c = Fraction(1), Fraction(-2), Fraction(1, 2)
        x1, x2, x3 = (Polynomial.variable(3, j) for j in (1, 2, 3))
        trans = PolynomialMap([x1 + a, x2 + b, x3 + c + 2 * b * x1 - 2 * a * x2])
        assert certify(h, trans).ok


class TestTranslationDirections:
    def test_fixture_directions(self, systems):
        assert translation_directions(systems["martinet"]) == {2, 3}
        assert translation_directions(systems["grushin-1-1-2"]) == {2}
        assert translation_directions(systems["heisenberg1"]) == {3}
        assert translation_directions(systems["euclidean2"]) == {1, 2}
        assert translation_directions(systems["r4-fourfields"]) == {3, 4}


SAMPLE_PAIRS = {
    "grushin-1-1-2": [([0, Fraction(1, 2)], [0, Fraction(-1, 3)]),
                      ([0, 2], [0, 5])],
    "martinet": [([0, 1, 2], [0, Fraction(-1, 2), Fraction(1, 3)])],
    "example6": [([0, 1, Fraction(1, 2)], [0, -1, 2]),
                 ([0, Fraction(1, 3), 0], [0, 0, Fraction(2, 5)])],
    "r4-fourfields": [([0, 1, 2, 3], [0, -1, Fraction(1, 2), 1])],
}

FAMILY_FILES = {
    "grushin-1-1-2": "grushin-1-1-2.family",
    "martinet": "martinet.family",
    "example6": "example6.family",
    "r4-fourfields": "r4-fourfields.family",
}


class TestTransitiveFamilies:
    @pytest.mark.parametrize("name", sorted(FAMILY_FILES))
    def test_shipped_families_pass(self, name, systems, nsw_polys):
        family = load_family(FAMILY_FILES[name])
        rep = verify_transitive_family(
            systems[name], nsw_polys[name], family, SAMPLE_PAIRS[name]
        )
        assert rep.ok, str(rep)

    def test_mutated_component_fails(self, systems, nsw_polys):
        family = load_family("example6.family")
        # perturb the x1*w2^2 coefficient of T3 by 1
        broken = list(family.components)
        broken[2] = broken[2] + parse_polynomial("x1*x5^2", 6)
        mutated = TransitiveFamily(3, (1,), broken, family.witness)
        rep = verify_transitive_family(
            systems["example6"], nsw_polys["example6"], mutated,
            SAMPLE_PAIRS["example6"],
        )
        assert not rep.ok
        assert not rep.certificate.pushforward_ok

    def test_parameter_outside_level_set_rejected(self):
        family = load_family("martinet.family")
        with pytest.raises(FieldError):
            family.at([1, 0, 0])

    def test_witness_lands_in_level_set(self):
        family = load_family("grushin-1-1-2.family")
        w = family.witness_for([0, Fraction(1, 2)], [0, 3])
        assert family.in_candidate_h(w)
        assert family.at(w)([0, Fraction(1, 2)]) == [0, 3]

    def test_bad_sample_pair_reported(self, systems, nsw_polys):
        family = load_family("grushin-1-1-2.family")
        rep = verify_transitive_family(
            systems["grushin-1-1-2"], nsw_polys["grushin-1-1-2"], family,
            [([1, 0], [0, 1])],  # p has nu < Q
        )
        assert not rep.ok
        assert rep.bad_samples


class TestFamilyLevelSets:
    def test_h_zero_axes_match_top_stratum(self, nsw_polys):
        # hand-written .family data against the certificate read off Lambda
        paths = sorted(fixture_path("martinet.family").parent.glob("*.family"))
        assert [p.stem for p in paths] == sorted(FAMILY_FILES)
        for path in paths:
            family = parse_family(path.read_text())
            assert set(family.h_zero_axes) == top_stratum(nsw_polys[path.stem]), path.name


class TestFamilyParsing:
    def test_round_trip_semantics(self):
        family = load_family("martinet.family")
        assert family.dim == 3
        assert family.h_zero_axes == (1,)
        ident = family.at([0, 0, 0])
        assert ident([1, 2, 3]) == [1, 2, 3]

    @pytest.mark.parametrize("axis", [0, -1, 3])
    def test_rejects_h_zero_axis_out_of_range(self, axis):
        # axis 0 or -1 would pin a point coordinate; axis 3 would name no variable
        text = fixture_path("grushin-1-1-2.family").read_text().replace("h_zero = 1", f"h_zero = {axis}")
        with pytest.raises(FieldError, match=f"h_zero axis {axis} out of range 1..2"):
            parse_family(text)

    def test_rejects_incomplete_spec(self):
        with pytest.raises(FieldError):
            parse_family("dim = 2\nT1 = x1\n")
        with pytest.raises(FieldError):
            parse_family("T1 = x1\nT2 = x2\n")
