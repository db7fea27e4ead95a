"""Ball-volume polynomial: exact coefficients, scaling, level sets."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from subriemann import fixtures as fx
from subriemann import nsw as nsw_module
from subriemann.fields import FieldError, enumerate_commutators, homogeneous_dimension
from subriemann.nsw import (
    BallPolynomial,
    BudgetExceeded,
    DomainSpec,
    LambdaEntry,
    _has_perfect_matching,
    build_nsw,
    eval_lambda,
    level_set_probe,
    nu_tilde,
    parse_domain_spec,
    pointwise_nu,
)

from subriemann.polynomials import Polynomial, PolynomialError, parse_polynomial, poly_det

from test_polynomials import random_point


def brute_force_lambda(basis, x, r):
    """Independent oracle: sum |det| over all ordered n-tuples, numerically."""
    n = basis.system.dim
    cols = [[float(c.eval(x)) for c in e.vf.coeffs] for e in basis.entries]
    degs = [e.degree for e in basis.entries]
    total = 0.0
    for tup in itertools.permutations(range(len(cols)), n):
        mat = np.array([cols[i] for i in tup]).T
        det = abs(np.linalg.det(mat))
        if det > 1e-12:
            total += det * float(r) ** sum(degs[i] for i in tup)
    return total


def reference_build_nsw(basis):
    """The assembly loop without the structural-zero skip: every determinant."""
    n = basis.system.dim
    slots = {}
    for combo in itertools.combinations(range(len(basis.entries)), n):
        entries = [basis.entries[i] for i in combo]
        det = poly_det([list(e.vf.coeffs) for e in entries])
        if det.is_zero():
            continue
        degree = sum(e.degree for e in entries)
        slots.setdefault(degree, []).append(
            LambdaEntry(tuple(i + 1 for i in combo), det, degree, math.factorial(n))
        )
    return BallPolynomial(basis, slots)


def reference_f_k(nsw, k, x):
    """f_k as the per-entry loop over unmerged slots."""
    total = Fraction(0)
    for e in nsw.slots.get(k, []):
        total += e.multiplicity * abs(e.poly.eval(x))
    return total


def reference_lambda(nsw, x, r):
    r = Fraction(r)
    total = Fraction(0)
    for k in nsw.slots:
        fk = reference_f_k(nsw, k, x)
        if fk:
            total += fk * r ** k
    return total


def reference_nu(nsw, x):
    return next(k for k in nsw.slots if reference_f_k(nsw, k, x) != 0)


class TestAssembly:
    def test_matches_brute_force(self, bases, nsw_polys):
        rng = random.Random(41)
        for name in ("euclidean2", "heisenberg1", "grushin-1-1-2", "martinet"):
            basis = bases[name]
            nsw = nsw_polys[name]
            for _ in range(5):
                x = random_point(rng, basis.system.dim, max_num=2)
                r = Fraction(rng.randint(1, 4), rng.randint(1, 4))
                exact = float(eval_lambda(nsw, x, r))
                brute = brute_force_lambda(basis, x, r)
                assert math.isclose(exact, brute, rel_tol=1e-9), name

    def test_tuple_counts_martinet(self, nsw_polys):
        assert nsw_polys["martinet"].degree_counts() == {4: 12, 5: 12}

    def test_top_slot_is_constant(self, systems, nsw_polys):
        for name, nsw in nsw_polys.items():
            q = homogeneous_dimension(systems[name])
            assert nsw.Q == q
            consts = [e for e in nsw.slots[q] if e.poly.is_constant()]
            assert consts, name

    def test_budget_cap(self, bases, monkeypatch):
        monkeypatch.setattr(nsw_module, "DEFAULT_TUPLE_CAP", 10)
        with pytest.raises(BudgetExceeded):
            build_nsw(bases["r4-fourfields"])
        # allow_over_cap proceeds anyway
        monkeypatch.setattr(nsw_module, "DEFAULT_TUPLE_CAP", 1)
        nsw = build_nsw(bases["martinet"], allow_over_cap=True)
        assert nsw.Q == 5

    @pytest.mark.parametrize("make, q", [
        (lambda: fx.heisenberg(3), 8),   # 12^7 ordered tuples, C(12, 7) = 792
        (lambda: fx.bony(6), 21),        # 12^6 ordered tuples, C(12, 6) = 924
    ], ids=["heisenberg3", "bony6"])
    def test_budget_counts_determinants(self, make, q):
        nsw = build_nsw(enumerate_commutators(make()))
        assert nsw.Q == q

    def test_json_dump(self, nsw_polys):
        payload = json.loads(nsw_polys["grushin-1-1-2"].to_json())
        assert payload["schema_version"] == 1
        assert payload["homogeneous_dimension"] == 4
        assert set(payload["degrees"]) == {"2", "3", "4"}


class TestStructuralZeros:
    def test_matching_agrees_with_permutations(self):
        rng = random.Random(67)
        for _ in range(400):
            n = rng.randint(1, 5)
            rows = [rng.randrange(1 << n) for _ in range(n)]
            brute = any(all(rows[i] >> perm[i] & 1 for i in range(n))
                        for perm in itertools.permutations(range(n)))
            assert _has_perfect_matching(rows, n) == brute, rows

    def test_known_patterns(self):
        assert not _has_perfect_matching([0b011, 0b011, 0b011], 3)  # column 3 empty
        assert not _has_perfect_matching([0b111, 0b001, 0b001], 3)  # two rows, one column
        assert _has_perfect_matching([0b100, 0b011, 0b001], 3)      # needs one augmenting path
        assert _has_perfect_matching([0b111, 0b111, 0b111], 3)

    def test_same_polynomial_as_every_determinant(self, wide_bases, wide_polys):
        for name, basis in wide_bases.items():
            ref = reference_build_nsw(basis)
            nsw = wide_polys[name]
            assert nsw.to_json() == ref.to_json(), name
            assert nsw.degree_counts() == ref.degree_counts(), name

    def test_structural_zeros_are_not_computed(self, wide_bases, monkeypatch):
        calls = []

        def counting_det(matrix):
            calls.append(len(matrix))
            return poly_det(matrix)

        monkeypatch.setattr(nsw_module, "poly_det", counting_det)
        nsw = build_nsw(wide_bases["heisenberg(3)"])
        # C(12, 7) = 792 combinations; only the 6 with a matching remain
        assert len(calls) == 6
        assert sum(len(v) for v in nsw.slots.values()) == 6


class TestMergedSlots:
    def test_queries_match_per_entry_loop(self, wide_polys, query_points):
        rng = random.Random(73)
        radii = [Fraction(1, 2), Fraction(7, 3), Fraction(1, 10 ** 9), 0.25, 3]
        below_q = 0
        for name, nsw in wide_polys.items():
            for x in query_points[name]:
                for k in range(nsw.n, nsw.Q + 1):
                    assert nsw.f_k(k, x) == reference_f_k(nsw, k, x), (name, k, x)
                r = rng.choice(radii)
                lam = eval_lambda(nsw, x, r)
                assert type(lam) is Fraction
                assert lam == reference_lambda(nsw, x, r), (name, x, r)
                nu = pointwise_nu(nsw, x)
                assert nu == reference_nu(nsw, x), (name, x)
                below_q += nu < nsw.Q
        assert below_q > 0
        # grushin(2,2,2) has lambda_I with several monomials
        assert any(len(e.poly.terms) > 1
                   for v in wide_polys["grushin(2,2,2)"].slots.values() for e in v)

    def test_merge_counts(self, wide_polys):
        merged = {name: sum(len(t) for t in nsw._slot_terms.values())
                  for name, nsw in wide_polys.items()}
        entries = {name: sum(len(v) for v in nsw.slots.values())
                   for name, nsw in wide_polys.items()}
        for name, before, after in [("r4-fourfields", 147, 8), ("grushin(1,2,6)", 169, 13),
                                    ("bony(6)", 112, 6), ("heisenberg(3)", 6, 1)]:
            assert (entries[name], merged[name]) == (before, after), name

    def test_scalar_multiples_share_one_term(self, bases):
        basis = bases["grushin-1-1-2"]
        p = parse_polynomial("3*x1^2 - 1/2*x1*x2", 2)
        y = parse_polynomial("x2", 2)
        slots = {
            2: [LambdaEntry((1, 2), p, 2, 2),
                LambdaEntry((1, 3), p * Fraction(-5, 2), 2, 2),
                LambdaEntry((1, 4), p * Fraction(1, 7), 2, 1),
                LambdaEntry((2, 3), y * Fraction(-4, 9), 2, 2)],
            3: [LambdaEntry((2, 4), y * 6, 3, 2)],
            4: [LambdaEntry((3, 4), Polynomial.constant(2, Fraction(-3, 4)), 4, 2)],
        }
        nsw = BallPolynomial(basis, slots)
        assert [len(nsw._slot_terms[k]) for k in (2, 3, 4)] == [2, 1, 1]
        rng = random.Random(79)
        points = [[0, 0], [0, 1], [Fraction(1, 6), 1], [-0.5, 3]]
        points += [random_point(rng, 2) for _ in range(10)]
        for x in points:
            for k in (2, 3, 4):
                assert nsw.f_k(k, x) == reference_f_k(nsw, k, x), (k, x)
            assert eval_lambda(nsw, x, Fraction(2, 3)) == reference_lambda(nsw, x, Fraction(2, 3))
            assert pointwise_nu(nsw, x) == reference_nu(nsw, x)
        # p vanishes at (1/6, 1) but y does not; at the origin both do
        assert pointwise_nu(nsw, [Fraction(1, 6), 1]) == 2
        assert pointwise_nu(nsw, [0, 0]) == 4

    @pytest.mark.parametrize("query", [
        lambda nsw, x: nsw.f_k(4, x),
        lambda nsw, x: nsw.f_k(2, x),  # no degree-2 slot: still checked
        lambda nsw, x: eval_lambda(nsw, x, 1),
        pointwise_nu,
    ], ids=["f_k", "f_k-empty-slot", "eval_lambda", "pointwise_nu"])
    def test_wrong_point_length_raises(self, nsw_polys, query):
        nsw = nsw_polys["martinet"]
        for x in ([1, 0], [1, 0, 0, 0]):
            with pytest.raises(PolynomialError):
                query(nsw, x)


class TestEvaluation:
    def test_grushin_closed_form(self, nsw_polys):
        # f_2 = 6 x^2, f_3 = 24|x|, f_4 = 24 for (d_x, 3x^2 d_y)
        nsw = nsw_polys["grushin-1-1-2"]
        x = [Fraction(1, 2), Fraction(7)]
        assert nsw.f_k(2, x) == Fraction(3, 2)
        assert nsw.f_k(3, x) == 12
        assert nsw.f_k(4, x) == 24
        assert eval_lambda(nsw, [0, 0], Fraction(1, 2)) == Fraction(24, 16)

    def test_martinet_at_origin(self, nsw_polys):
        nsw = nsw_polys["martinet"]
        assert eval_lambda(nsw, [0, 0, 0], Fraction(1, 2)) == Fraction(3, 4)
        assert nsw.f_k(4, [1, 0, 0]) == 24

    def test_scaling_identity_random(self, systems, nsw_polys):
        rng = random.Random(43)
        for name, nsw in nsw_polys.items():
            system = systems[name]
            for _ in range(5):
                x = random_point(rng, system.dim, max_num=3)
                r = Fraction(rng.randint(1, 5), rng.randint(1, 5))
                t = Fraction(rng.randint(1, 4), rng.randint(1, 4))
                lhs = eval_lambda(nsw, system.dilation(x, t), t * r)
                rhs = t ** nsw.Q * eval_lambda(nsw, x, r)
                assert lhs == rhs, name

    def test_radius_must_be_positive(self, nsw_polys):
        with pytest.raises(ValueError):
            eval_lambda(nsw_polys["martinet"], [0, 0, 0], 0)


class TestPointwiseNu:
    def test_matches_flag_nu(self, bases, nsw_polys):
        from subriemann.fields import flag_at

        rng = random.Random(47)
        for name, nsw in nsw_polys.items():
            basis = bases[name]
            for _ in range(20):
                pt = random_point(rng, basis.system.dim, max_num=3)
                assert pointwise_nu(nsw, pt) == flag_at(basis, pt).nu, name

    def test_known_values(self, nsw_polys):
        assert pointwise_nu(nsw_polys["martinet"], [0, 0, 0]) == 5
        assert pointwise_nu(nsw_polys["martinet"], [1, 0, 0]) == 4
        assert pointwise_nu(nsw_polys["grushin-1-1-2"], [0, 5]) == 4
        assert pointwise_nu(nsw_polys["grushin-1-1-2"], [Fraction(1, 3), 0]) == 2


class TestLevelSets:
    H_AXIS_1 = ("grushin-1-1-2", "bony3", "martinet", "r4-fourfields", "example6")

    def test_maximal_level_set_is_x1_zero(self, nsw_polys):
        rng = random.Random(53)
        for name in self.H_AXIS_1:
            nsw = nsw_polys[name]
            dim = nsw.n
            samples = [random_point(rng, dim, max_num=3) for _ in range(40)]
            samples += [[0] + random_point(rng, dim - 1, max_num=3) for _ in range(20)]
            rep = level_set_probe(nsw, lambda pt: pt[0] == 0, samples)
            assert rep.ok, (name, str(rep))

    def test_probe_reports_counterexamples(self, nsw_polys):
        rep = level_set_probe(
            nsw_polys["martinet"], lambda pt: pt[1] == 0, [[0, 1, 0]]
        )
        assert not rep.ok
        assert rep.counterexamples


class TestDomainSpec:
    def test_parse_and_nu_tilde(self, nsw_polys):
        text = (
            "dim = 3\n"
            "box = 0,1 ; -1,1 ; -1,1\n"
            "interior = 1/2, 0, 0\n"
            "closure = 0, 0, 0\n"
        )
        dom = parse_domain_spec(text)
        assert dom.dim == 3
        assert dom.contains([Fraction(1, 2), 0, 0])
        assert dom.contains([0, -1, 1])  # the box is closed
        assert not dom.contains([2, 0, 0])
        assert not dom.contains([Fraction(1, 2), 0, Fraction(-3, 2)])
        assert nu_tilde(nsw_polys["ex31"], dom) == 6

    def test_interior_sample_must_lie_in_the_box(self):
        with pytest.raises(ValueError, match="outside the box"):
            parse_domain_spec("dim = 1\nbox = 0,1\ninterior = 2\n")
        # a closure sample may lie anywhere
        dom = parse_domain_spec("dim = 1\nbox = 0,1\nclosure = 2\n")
        assert dom.sample_points() == [(Fraction(2),)]

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_domain_spec("box = 0,1\n")
        with pytest.raises(ValueError):
            parse_domain_spec("dim = 1\nbox = 0,1\nwhatever = 3\n")

    def test_domain_spec_tags(self):
        with pytest.raises(ValueError):
            DomainSpec(1, [(Fraction(0), Fraction(1))], [((Fraction(0),), "edge")])
