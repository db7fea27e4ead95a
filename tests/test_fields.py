"""Lie brackets, homogeneity checks, commutator enumeration, flags."""

import random
from fractions import Fraction

import pytest

from subriemann import fixtures as fx
from subriemann.fields import (
    FieldError,
    FlagData,
    H2Report,
    VectorField,
    VectorFieldSystem,
    check_h1,
    check_h2,
    enumerate_commutators,
    field_homogeneity_ok,
    flag_at,
    format_system,
    homogeneous_dimension,
    lie_bracket,
    parse_field,
    parse_system,
    rational_rank,
)
from subriemann.nsw import build_nsw, pointwise_nu
from subriemann.polynomials import Polynomial, _monomial_values, _point_powers, parse_polynomial

from test_polynomials import assert_invariants, partial_var_poly, random_poly, random_point


def reference_rank(vectors):
    """Rank by a full elimination of the whole list, as before echelon growth."""
    rows = [list(map(Fraction, v)) for v in vectors if any(x != 0 for x in v)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    col = 0
    while col < ncols and rank < len(rows):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def reference_flag_at(basis, point):
    """flag_at with one full rank computation per prefix of degree blocks."""
    system = basis.system
    n = system.dim
    pt = tuple(Fraction(v) for v in point)
    values = {}
    for e in basis:
        values.setdefault(e.degree, []).append(e.vf.at(pt))
    nu_j = []
    acc = []
    for j in range(1, system.weights[-1] + 1):
        acc.extend(values.get(j, []))
        nu_j.append(reference_rank(acc))
    assert nu_j[-1] == n
    step = next(j for j, r in enumerate(nu_j, start=1) if r == n)
    weights = []
    prev = 0
    for s, r in enumerate(nu_j, start=1):
        weights.extend([s] * (r - prev))
        prev = r
    return FlagData(pt, nu_j, tuple(weights), sum(weights), step)


def reference_check_h2(system, basis):
    """check_h2 by a Fraction elimination of the values ``VectorField.at`` gives.

    The entries are taken in basis order, with a rank test over the whole
    prefix for each; ``check_h2`` reads the flag kernel's integer rows.
    """
    origin = [0] * system.dim
    vectors = [e.vf.at(origin) for e in basis]
    rank = reference_rank(vectors)
    monomials = sorted(
        {(k, e) for f in system.fields for k, c in enumerate(f.coeffs) for e in c.terms}
    )
    coeff_rows = [[f.coeffs[k].terms.get(e, Fraction(0)) for (k, e) in monomials]
                  for f in system.fields]
    independent = reference_rank(coeff_rows) == system.m
    degrees = {}
    seen = []
    for e in basis:
        v = e.vf.at(origin)
        if reference_rank(seen + [v]) > len(seen):
            seen.append(v)
            degrees[e.degree] = degrees.get(e.degree, 0) + 1
    return H2Report(rank == system.dim and independent, rank, independent, degrees)


# the three hypothesis failures that ``subriemann analyze`` exits 2 on
INHOMOGENEOUS = "dim = 2\nweights = 1,1\nX1 = 1*d1\nX2 = x1*d2\n"
RANK_TWO = "dim = 3\nweights = 1,2,3\nX1 = 1*d1\nX2 = x1*d2\n"
DEPENDENT_GENERATORS = "dim = 2\nweights = 1,1\nX1 = 1*d1\nX2 = 1*d2\nX3 = 1*d1 + 1*d2\n"


def random_field(rng, dim):
    return VectorField([random_poly(rng, dim, max_terms=2, max_deg=2)
                        for _ in range(dim)])


class TestLieBracket:
    def test_antisymmetry_random(self):
        rng = random.Random(5)
        for _ in range(40):
            dim = rng.randint(2, 3)
            a = random_field(rng, dim)
            b = random_field(rng, dim)
            assert lie_bracket(a, b) == -lie_bracket(b, a)

    def test_jacobi_random(self):
        rng = random.Random(9)
        for _ in range(25):
            dim = rng.randint(2, 3)
            a = random_field(rng, dim)
            b = random_field(rng, dim)
            c = random_field(rng, dim)
            j = (lie_bracket(a, lie_bracket(b, c))
                 + lie_bracket(b, lie_bracket(c, a))
                 + lie_bracket(c, lie_bracket(a, b)))
            assert j.is_zero()

    def test_bracket_acts_as_commutator(self):
        # [Y, Z]f = Y(Zf) - Z(Yf) on random polynomials
        rng = random.Random(13)
        for _ in range(20):
            dim = rng.randint(2, 3)
            y = random_field(rng, dim)
            z = random_field(rng, dim)
            f = random_poly(rng, dim)
            lhs = lie_bracket(y, z).apply(f)
            rhs = y.apply(z.apply(f)) - z.apply(y.apply(f))
            assert lhs == rhs

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_bracket_with_a_multiple_is_a_multiple(self, dim):
        # [Y, fY] = (Yf) Y: the f Y_i d_i Y_k products cancel inside the
        # fused bracket; Yf comes from the independent VectorField.apply
        rng = random.Random(400 + dim)
        for _ in range(15):
            y = VectorField([partial_var_poly(rng, dim, max_terms=3, max_deg=2)
                             for _ in range(dim)])
            f = partial_var_poly(rng, dim)
            bracket = lie_bracket(y, y * f)
            for comp in bracket.coeffs:
                assert_invariants(comp, dim)
            assert bracket == y * y.apply(f)
            assert lie_bracket(y * f, y) == -bracket

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_result_meets_the_polynomial_invariants(self, dim):
        # coefficients that omit variables exercise the skipped products;
        # the reference is the textbook sum, built only through the
        # validating constructor
        def reference(y, z):
            comps = []
            for k in range(dim):
                acc = {}
                for i in range(dim):
                    for sign, a, b in ((1, y, z), (-1, z, y)):
                        for ea, ca in a.coeffs[i].terms.items():
                            for eb, cb in b.coeffs[k].terms.items():
                                if eb[i]:
                                    e = tuple(s + t - (j == i) for j, (s, t)
                                              in enumerate(zip(ea, eb)))
                                    acc[e] = acc.get(e, Fraction(0)) + sign * ca * cb * eb[i]
                comps.append(Polynomial(dim, acc))
            return comps

        rng = random.Random(200 + dim)
        for _ in range(15):
            y = VectorField([partial_var_poly(rng, dim, max_terms=3, max_deg=2)
                             for _ in range(dim)])
            z = VectorField([partial_var_poly(rng, dim, max_terms=3, max_deg=2)
                             for _ in range(dim)])
            for a, b in ((y, z), (z, y), (y, y)):
                bracket = lie_bracket(a, b)
                for comp, ref in zip(bracket.coeffs, reference(a, b)):
                    assert_invariants(comp, dim)
                    assert comp == ref
            assert lie_bracket(y, y).is_zero()

    def test_coordinate_fields_commute(self):
        a = VectorField.coordinate(3, 1)
        b = VectorField.coordinate(3, 2)
        assert lie_bracket(a, b).is_zero()

    def test_known_bracket(self, martinet):
        b = lie_bracket(martinet.fields[0], martinet.fields[1])
        assert b == parse_field("2*x1*d3", 3)


class TestHomogeneity:
    def test_all_fixture_generators_degree_one(self, systems):
        for name, system in systems.items():
            for f in system.fields:
                ok, bad = field_homogeneity_ok(f, system.weights, 1)
                assert ok, (name, bad)

    def test_h1_catches_violations(self):
        # d2 + x1 d1 is not homogeneous of degree 1 under weights (1,2)
        f = parse_field("x1*d1 + 1*d2", 2)
        system = VectorFieldSystem([VectorField.coordinate(2, 1), f], [1, 2])
        assert not check_h1(system).ok

    def test_h1_passes_fixtures(self, systems):
        for name, system in systems.items():
            assert check_h1(system).ok, name

    def test_brackets_inherit_degree(self, systems, bases):
        for name, basis in bases.items():
            w = basis.system.weights
            for e in basis:
                ok, bad = field_homogeneity_ok(e.vf, w, e.degree)
                assert ok, (name, e.word, bad)


class TestHormanderRank:
    def test_rational_rank(self):
        rows = [[1, 0, 2], [2, 0, 4], [0, 1, 0]]
        assert rational_rank([[Fraction(v) for v in r] for r in rows]) == 2

    def test_h2_passes_fixtures(self, systems, bases):
        for name, system in systems.items():
            assert check_h2(system, bases[name]).ok, name

    def test_h2_fails_for_deficient_system(self):
        # two copies of d1 on R^2 never span the missing direction
        f = VectorField.coordinate(2, 1)
        system = VectorFieldSystem([f, f], [1, 2])
        rep = check_h2(system)
        assert not rep.ok
        assert rep.rank_at_origin == 1


class TestEnumeration:
    def test_entry_counts_martinet(self, bases):
        assert bases["martinet"].canonical_degrees() == {1: 2, 2: 1, 3: 1}

    def test_entry_counts_heisenberg(self, bases):
        assert bases["heisenberg1"].canonical_degrees() == {1: 2, 2: 1}

    def test_words_are_right_nested(self, bases):
        basis = bases["bony3"]
        system = basis.system
        for e in basis:
            vf = system.fields[e.word[-1] - 1]
            for j in reversed(e.word[:-1]):
                vf = lie_bracket(system.fields[j - 1], vf)
            assert vf == e.vf

    def test_degrees_stop_at_top_weight(self, systems):
        for name, system in systems.items():
            basis = enumerate_commutators(system)
            assert max(e.degree for e in basis) <= system.weights[-1]


class TestFlags:
    def test_martinet_flag_values(self, bases):
        basis = bases["martinet"]
        at0 = flag_at(basis, [0, 0, 0])
        assert at0.nu_j == [2, 2, 3]
        assert at0.weights == (1, 1, 3)
        assert at0.nu == 5
        off = flag_at(basis, [1, 0, 0])
        assert off.nu_j == [2, 3, 3]
        assert off.nu == 4

    def test_flag_nu_bounded_by_q(self, systems, bases):
        rng = random.Random(17)
        for name, system in systems.items():
            q = homogeneous_dimension(system)
            for _ in range(10):
                pt = random_point(rng, system.dim)
                fd = flag_at(bases[name], pt)
                assert system.dim <= fd.nu <= q

    def test_flag_rejects_degenerate_point(self):
        # d1, x1 d2 with weights 1, 2, 3: no bracket reaches d3, so rank 2
        basis = enumerate_commutators(parse_system(RANK_TWO))
        with pytest.raises(FieldError):
            flag_at(basis, [0, 0, 0])


class TestIncrementalElimination:
    def test_rank_matches_full_elimination(self):
        rng = random.Random(71)
        entries = [
            lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            lambda: Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12)),
            lambda: rng.choice([0.0, 0.1, -2.5, 1e-3, 0.75, -1 / 3]),
        ]
        for trial in range(600):
            ncols = rng.randint(1, 5)
            entry = entries[trial % 3]
            base = [[entry() for _ in range(ncols)] for _ in range(rng.randint(1, 3))]
            rows = []
            for _ in range(rng.randint(0, 7)):
                kind = rng.random()
                if kind < 0.2:
                    rows.append([0] * ncols)
                elif kind < 0.6:
                    # a combination of the base rows: rank stays low
                    coef = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in base]
                    rows.append([sum(c * Fraction(b[i]) for c, b in zip(coef, base))
                                 for i in range(ncols)])
                elif kind < 0.8:
                    rows.append([entry() for _ in range(ncols)])
                else:
                    rows.append([rng.randint(-2, 2) for _ in range(ncols)])
            assert rational_rank(rows) == reference_rank(rows), rows

    def test_float_entries_are_exact(self):
        # 0.1 is not 1/10, so (0.1, 1) and (1/10, 1) are independent
        assert rational_rank([[0.1, 1], [Fraction(1, 10), 1]]) == 2
        assert rational_rank([[0.1, 1], [Fraction(0.1), 1]]) == 1

    def test_integer_rows_are_positive_multiples_of_values(self, wide_bases, query_points):
        """Each row is L * D^T times the entry's value, one factor for all components."""
        for name, basis in wide_bases.items():
            degrees, top, forms = basis._integer_rows
            entries = [e for e in sorted(basis, key=lambda e: e.degree)
                       if e.degree <= basis.system.weights[-1]]
            assert [e.degree for e in entries] == [f[0] for f in forms]
            for x in query_points[name]:
                powers = _point_powers(x, degrees, top)
                for e, (_, monomials, comps) in zip(entries, forms):
                    values = _monomial_values(monomials, powers)
                    row = [0] * basis.system.dim
                    for k, terms in comps:
                        row[k] = sum(c * values[i] for c, i in terms)
                    exact = e.vf.at(x)
                    assert all(r == 0 for r, v in zip(row, exact) if not v)
                    factors = {Fraction(r) / v for r, v in zip(row, exact) if v}
                    assert len(factors) <= 1 and all(f > 0 for f in factors), (name, e.word, x)

    def test_rows_share_one_power_of_d(self):
        """Two fields whose components differ in top degree meet at (1/2, 1/4, 0).

        X2 = x1 d2 + x1^2 d3 and X3 = x1 d2 + x2 d3 both take the value
        (0, 1/2, 1/4) there, so nu_1 = 2.  With D = 4, scaling each
        component by its own power of D would give the rows (0, 2, 4) and
        (0, 2, 1), which are independent, and a flag with nu_1 = 3.
        """
        system = parse_system(
            "dim = 3\nweights = 1,2,3\n"
            "X1 = 1*d1\nX2 = x1*d2 + x1^2*d3\nX3 = x1*d2 + x2*d3\n"
        )
        assert check_h1(system).ok and check_h2(system).ok
        basis = enumerate_commutators(system)
        x = [Fraction(1, 2), Fraction(1, 4), 0]
        fd = flag_at(basis, x)
        assert fd.nu_j == [2, 3, 3] and fd.nu == 4
        assert fd == reference_flag_at(basis, x)
        assert pointwise_nu(build_nsw(basis), x) == 4

    def test_flag_matches_prefix_ranks(self, wide_bases, query_points):
        for name, basis in wide_bases.items():
            for x in query_points[name]:
                assert flag_at(basis, x) == reference_flag_at(basis, x), (name, x)

    def test_h2_report_matches(self, wide_bases):
        for name, basis in wide_bases.items():
            assert check_h2(basis.system, basis) == reference_check_h2(basis.system, basis), name
        # repeated and dependent generators, full rank reached late
        x1 = parse_polynomial("x1", 3)
        fields = [VectorField.coordinate(3, 1),
                  VectorField.coordinate(3, 1) * 2,
                  VectorField([Polynomial.zero(3), x1, x1 * x1])]
        system = VectorFieldSystem(fields, [1, 2, 3])
        basis = enumerate_commutators(system)
        rep = check_h2(system, basis)
        assert rep == reference_check_h2(system, basis)
        assert not rep.fields_independent
        # rank short of n at the origin, and dependent generators
        for text, rank, degrees in [(RANK_TWO, 2, {1: 1, 2: 1}),
                                    (DEPENDENT_GENERATORS, 2, {1: 2})]:
            system = parse_system(text)
            basis = enumerate_commutators(system)
            rep = check_h2(system, basis)
            assert rep == reference_check_h2(system, basis)
            assert not rep.ok
            assert (rep.rank_at_origin, rep.spanning_degrees) == (rank, degrees)

    def test_h2_needs_h1(self):
        system = parse_system(INHOMOGENEOUS)
        assert not check_h1(system).ok
        with pytest.raises(FieldError):
            check_h2(system)

    def test_flag_wrong_point_length_raises(self, bases):
        for x in ([0, 0], [0, 0, 0, 0]):
            with pytest.raises(FieldError):
                flag_at(bases["martinet"], x)


class TestSpecFiles:
    @pytest.mark.parametrize("name", list(fx.ALL_BUILDERS))
    def test_parametric_builders_match_shipped_files(self, name):
        """Every registered builder gives the system of the `<name>.vf` file it ships.

        The parametric builders (euclidean2, heisenberg1, grushin-1-1-2,
        bony3) construct their fields, so their files are a second
        definition; the other builders parse their file.
        """
        built = fx.ALL_BUILDERS[name]()
        shipped = parse_system(fx.fixture_path(f"{name}.vf").read_text())
        assert built.fields == shipped.fields
        assert built.weights == shipped.weights
        assert built.name == shipped.name == name

    def test_round_trip_fixtures(self, systems):
        for name, system in systems.items():
            back = parse_system(format_system(system))
            assert back.weights == system.weights
            assert back.fields == system.fields, name

    def test_parenthesized_coefficients(self):
        vf = parse_field("(x1^2 - 2*x1*x2 + x2^2)*d3", 3)
        assert vf.coeffs[2] == parse_polynomial("x1^2 - 2*x1*x2 + x2^2", 3)

    def test_rejects_gap_in_field_numbering(self):
        text = "dim = 2\nweights = 1,2\nX1 = 1*d1\nX3 = 1*d2\n"
        with pytest.raises(FieldError):
            parse_system(text)

    def test_rejects_bad_weights(self):
        with pytest.raises(FieldError):
            VectorFieldSystem([VectorField.coordinate(2, 1),
                               VectorField.coordinate(2, 2)], [2, 1])
