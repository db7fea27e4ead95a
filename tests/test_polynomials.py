"""Exact polynomial arithmetic, substitution, and determinant tests."""

import itertools
import random
from fractions import Fraction

import pytest

from subriemann.fields import VectorField
from subriemann.polynomials import (
    Polynomial,
    PolynomialError,
    _extend_minors,
    format_polynomial,
    parse_polynomial,
    poly_det,
)


def random_poly(rng, dim, max_terms=4, max_deg=3, max_coef=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(dim))
        c = Fraction(rng.randint(-max_coef, max_coef), rng.randint(1, 4))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial(dim, terms)


def random_point(rng, dim, max_num=6):
    return [Fraction(rng.randint(-max_num, max_num), rng.randint(1, 5)) for _ in range(dim)]


def partial_var_poly(rng, dim, max_terms=4, max_deg=3):
    """A random polynomial in a random proper subset of the variables."""
    live = set(rng.sample(range(dim), rng.randint(0, dim - 1)))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) if j in live else 0 for j in range(dim))
        terms[e] = terms.get(e, Fraction(0)) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return Polynomial(dim, terms)


def assert_invariants(p, dim):
    """What ``Polynomial.__init__`` guarantees, checked on any result."""
    assert p.dim == dim
    for e, c in p.terms.items():
        assert type(c) is Fraction and c != 0
        assert type(e) is tuple and len(e) == dim
        assert all(type(k) is int and k >= 0 for k in e)


def leibniz_det(mat):
    """Reference determinant: the signed sum over all permutations."""
    n = len(mat)
    dim = mat[0][0].dim
    total = Polynomial.zero(dim)
    for perm in itertools.permutations(range(n)):
        if any(mat[i][j].is_zero() for i, j in enumerate(perm)):
            continue
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Polynomial.constant(dim, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * mat[i][j]
        total = total + term
    return total


def sparse_matrix(rng, n, dim=2, zero_frac=0.5):
    return [[Polynomial.zero(dim) if rng.random() < zero_frac
             else random_poly(rng, dim, max_terms=2, max_deg=2)
             for _ in range(n)] for _ in range(n)]


class TestArithmetic:
    def test_ring_laws_random(self):
        rng = random.Random(7)
        for _ in range(60):
            dim = rng.randint(1, 3)
            a = random_poly(rng, dim)
            b = random_poly(rng, dim)
            c = random_poly(rng, dim)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert a - a == Polynomial.zero(dim)

    def test_eval_is_a_homomorphism(self):
        rng = random.Random(11)
        for _ in range(60):
            dim = rng.randint(1, 3)
            a = random_poly(rng, dim)
            b = random_poly(rng, dim)
            pt = random_point(rng, dim)
            assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
            assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)

    def test_eval_point_types(self):
        # int and Fraction coordinates are used as they are, floats and
        # strings go through Fraction; every kind gives the value of the
        # all-Fraction point
        def reference(poly, point):
            pt = [Fraction(v) for v in point]
            total = Fraction(0)
            for e, c in poly.terms.items():
                v = c
                for x, k in zip(pt, e):
                    v *= x ** k
                total += v
            return total

        rng = random.Random(17)
        for _ in range(40):
            dim = rng.randint(1, 3)
            poly = random_poly(rng, dim)
            ints = [rng.randint(-6, 6) for _ in range(dim)]
            fracs = random_point(rng, dim)
            floats = [rng.randint(-24, 24) / 8 for _ in range(dim)]
            mixed = [(ints, fracs, floats)[i % 3][i] for i in range(dim)]
            strings = [str(v) for v in fracs]
            for point in (ints, fracs, floats, mixed, strings):
                value = poly.eval(point)
                assert type(value) is Fraction
                assert value == reference(poly, point)
        assert type(Polynomial.zero(2).eval([1, 2])) is Fraction
        assert Polynomial.constant(2, 3).eval([True, 0.5]) == Fraction(3)
        for bad in ([1], [1, 2, 3], [Fraction(1, 2)] * 3):
            with pytest.raises(PolynomialError):
                Polynomial.variable(2, 1).eval(bad)

    def test_pow(self):
        x = Polynomial.variable(2, 1)
        y = Polynomial.variable(2, 2)
        p = (x + y) ** 3
        assert p.eval([2, 3]) == Fraction(125)

    def test_partial_product_rule(self):
        rng = random.Random(3)
        for _ in range(40):
            dim = rng.randint(1, 3)
            a = random_poly(rng, dim)
            b = random_poly(rng, dim)
            j = rng.randint(1, dim)
            assert (a * b).partial(j) == a.partial(j) * b + a * b.partial(j)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_partial_and_difference_meet_the_invariants(self, dim):
        # both skip the validating constructor; the references use only it
        rng = random.Random(100 + dim)
        for _ in range(30):
            a = partial_var_poly(rng, dim)
            b = partial_var_poly(rng, dim)
            for j in range(1, dim + 1):
                d = a.partial(j)
                assert_invariants(d, dim)
                ref = {e[:j - 1] + (e[j - 1] - 1,) + e[j:]: c * e[j - 1]
                       for e, c in a.terms.items() if e[j - 1]}
                assert d == Polynomial(dim, ref)
            const = a.terms.get((0,) * dim, Fraction(0))
            for other in (b, a, 3, Fraction(1, 2), const):
                diff = a - other
                assert_invariants(diff, dim)
                if not isinstance(other, Polynomial):
                    other = Polynomial(dim, {(0,) * dim: other})
                ref = dict(a.terms)
                for e, c in other.terms.items():
                    ref[e] = ref.get(e, Fraction(0)) - c
                assert diff == Polynomial(dim, ref)
            assert (a - a).is_zero()
            assert (a - const).terms.get((0,) * dim) is None
        three = Polynomial.constant(dim, 3) + Polynomial.variable(dim, 1)
        assert three - 3 == Polynomial.variable(dim, 1)
        assert_invariants(three - 3, dim)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_products_meet_the_invariants(self, dim):
        # the product kernel stores first products directly and leaves
        # cancelled sums for __mul__ to drop; the reference uses only the
        # validating constructor
        def reference(a, b):
            ref = {}
            for e1, c1 in a.terms.items():
                for e2, c2 in b.terms.items():
                    e = tuple(s + t for s, t in zip(e1, e2))
                    ref[e] = ref.get(e, Fraction(0)) + c1 * c2
            return Polynomial(dim, ref)

        x1 = Polynomial.variable(dim, 1)
        x2 = Polynomial.variable(dim, 2)
        cube_sum = Polynomial(dim, {(3,) + (0,) * (dim - 1): 1,
                                    (0, 3) + (0,) * (dim - 2): 1})
        squares = Polynomial(dim, {(2,) + (0,) * (dim - 1): 1,
                                   (0, 2) + (0,) * (dim - 2): -1})
        pairs = [(x1 + x2, x1 - x2), (x1 + x2, x1 * x1 - x1 * x2 + x2 * x2)]
        assert pairs[0][0] * pairs[0][1] == squares
        assert pairs[1][0] * pairs[1][1] == cube_sum
        rng = random.Random(300 + dim)
        pairs += [(partial_var_poly(rng, dim), partial_var_poly(rng, dim))
                  for _ in range(30)]
        for a, b in pairs:
            for left, right in ((a, b), (b, a), (a, a), (a, -a)):
                prod = left * right
                assert_invariants(prod, dim)
                assert prod == reference(left, right)
            for c in (0, 3, Fraction(1, 2)):
                ref = Polynomial(dim, {e: v * c for e, v in a.terms.items()})
                for prod in (a * c, c * a):
                    assert_invariants(prod, dim)
                    assert prod == ref
            assert (a * Polynomial.zero(dim)).is_zero()

    def test_non_exact_operands_are_type_errors(self):
        # floats (and other non-rationals) never enter the exact layer
        p = Polynomial.variable(2, 1) + 1
        for bad in (lambda: p * 0.5, lambda: 0.5 * p, lambda: p + 0.5,
                    lambda: 0.5 + p, lambda: p - 0.5, lambda: 0.5 - p,
                    lambda: p * "a", lambda: VectorField([p, p]) * 0.5):
            with pytest.raises(TypeError, match="Polynomial|VectorField"):
                bad()
        with pytest.raises(PolynomialError, match="int"):
            p ** 1.5
        assert (p == 0.5) is False
        assert p != 0.5
        half = Fraction(1, 2)
        assert p * half == half * p == Polynomial(2, {(1, 0): half, (0, 0): half})
        assert 2 - p == Polynomial(2, {(1, 0): -1, (0, 0): 1})

    def test_constant_and_zero_predicates(self):
        z = Polynomial.zero(2)
        assert z.is_zero() and z.is_constant()
        c = Polynomial.constant(2, Fraction(3, 4))
        assert c.is_constant() and c.constant_value() == Fraction(3, 4)
        assert not Polynomial.variable(2, 1).is_constant()


class TestSubstitution:
    def test_compose_matches_pointwise(self):
        rng = random.Random(19)
        for _ in range(30):
            dim = rng.randint(1, 3)
            inner_dim = rng.randint(1, 3)
            p = random_poly(rng, dim)
            maps = [random_poly(rng, inner_dim) for _ in range(dim)]
            pt = random_point(rng, inner_dim)
            composed = p.compose(maps)
            assert composed.eval(pt) == p.eval([m.eval(pt) for m in maps])

    def test_substitute_value(self):
        p = parse_polynomial("x1^2*x2 + 3*x2", 2)
        q = p.substitute_value(1, Fraction(1, 2))
        assert q == parse_polynomial("13/4*x2", 2)

    def test_lift_keeps_values(self):
        p = parse_polynomial("x1*x2 - 1", 2)
        lifted = p.lift(4)
        assert lifted.eval([2, 3, 99, 99]) == p.eval([2, 3])


class TestHomogeneity:
    def test_dilate_adds_t_variable(self):
        p = parse_polynomial("x1^2 + x2", 2)
        d = p.dilate([1, 2])
        # both monomials acquire t-degree 2
        assert d.homogeneity_degree([0, 0, 1]) == 2

    def test_homogeneity_degree_mixed(self):
        p = parse_polynomial("x1 + x2", 2)
        assert p.homogeneity_degree([1, 2]) is None

    def test_zero_is_vacuously_homogeneous(self):
        assert Polynomial.zero(3).inhomogeneous_monomials([1, 2, 3], 5) == []


class TestTextForm:
    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(60):
            dim = rng.randint(1, 4)
            p = random_poly(rng, dim)
            assert parse_polynomial(format_polynomial(p), dim) == p

    def test_rational_coefficients(self):
        p = parse_polynomial("1/3*x1 - 5/2", 1)
        assert p.eval([3]) == Fraction(-3, 2)

    def test_rejects_garbage(self):
        with pytest.raises(PolynomialError):
            parse_polynomial("x1 ** 2", 1)
        with pytest.raises(PolynomialError):
            parse_polynomial("x5", 2)


class TestDeterminant:
    def test_matches_numeric_determinant(self):
        import numpy as np

        rng = random.Random(31)
        for _ in range(20):
            n = rng.randint(1, 4)
            mat = [[random_poly(rng, 2, max_terms=2, max_deg=1) for _ in range(n)]
                   for _ in range(n)]
            pt = random_point(rng, 2)
            det = poly_det(mat)
            num = np.array([[float(mat[i][j].eval(pt)) for j in range(n)]
                            for i in range(n)])
            assert abs(float(det.eval(pt)) - float(np.linalg.det(num))) < 1e-6

    def test_alternating(self):
        rng = random.Random(37)
        mat = [[random_poly(rng, 2) for _ in range(3)] for _ in range(3)]
        swapped = [mat[1], mat[0], mat[2]]
        assert poly_det(swapped) == -poly_det(mat)

    def test_singular(self):
        row = [parse_polynomial("x1", 2), parse_polynomial("x2", 2)]
        assert poly_det([row, row]).is_zero()
        # proportional rows: every term cancels, none is structurally zero
        dependent = [[parse_polynomial(e, 2) for e in row]
                     for row in (["x1", "x2"], ["x1*x2", "x2^2"])]
        assert poly_det(dependent).is_zero()
        rng = random.Random(47)
        mat = sparse_matrix(rng, 5, zero_frac=0.2)
        assert poly_det(mat[:4] + [mat[1]]).is_zero()
        assert poly_det(mat[:2] + [[Polynomial.zero(2)] * 5] + mat[3:]).is_zero()

    def test_matches_leibniz_up_to_seven(self):
        rng = random.Random(41)
        mats = [sparse_matrix(rng, n) for n in range(1, 8) for _ in range(6 if n <= 5 else 2)]
        mats += [sparse_matrix(rng, n, zero_frac=0.0) for n in (5, 6)]
        for mat in mats:
            assert poly_det(mat) == leibniz_det(mat)

    def test_cancelling_minors(self):
        # the top 2x2 minor on columns {0, 1} is x1*x2*x2 - x2^2*x1 = 0
        rows = [["x1*x2", "x2^2", "1", "0"],
                ["x1", "x2", "0", "1"],
                ["0", "1", "x2", "1"],
                ["1", "x1", "0", "x2"]]
        mat = [[parse_polynomial(e, 2) for e in row] for row in rows]
        det = poly_det(mat)
        assert det == leibniz_det(mat)
        assert not det.is_zero()

    def test_transpose(self):
        rng = random.Random(53)
        for n in range(1, 7):
            for zero_frac in (0.3, 0.6):
                mat = sparse_matrix(rng, n, zero_frac=zero_frac)
                assert poly_det([list(col) for col in zip(*mat)]) == poly_det(mat)

    def test_fold_gives_every_minor_of_the_top_rows(self):
        rng = random.Random(59)
        for n in range(1, 7):
            mat = sparse_matrix(rng, n, zero_frac=0.4)
            minors = {0: Polynomial.constant(2, 1)}
            for k, row in enumerate(mat, start=1):
                minors = _extend_minors(minors, row)
                assert all(m.bit_count() == k and not p.is_zero() for m, p in minors.items())
                for cols in itertools.combinations(range(n), k):
                    mask = sum(1 << j for j in cols)
                    sub = [[r[j] for j in cols] for r in mat[:k]]
                    assert minors.get(mask, Polynomial.zero(2)) == leibniz_det(sub), (n, cols)

    def test_rejects_malformed(self):
        x = parse_polynomial("x1", 2)
        with pytest.raises(PolynomialError):
            poly_det([])
        with pytest.raises(PolynomialError):
            poly_det([[x, x]])
        with pytest.raises(PolynomialError):
            poly_det([[x, x], [x, parse_polynomial("x1", 3)]])
