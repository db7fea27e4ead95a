"""Ball-volume polynomial: exact coefficients, scaling, the maximal level set."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from subriemann import fixtures as fx
from subriemann import nsw as nsw_module
from subriemann.fields import (
    FieldError,
    enumerate_commutators,
    homogeneous_dimension,
    parse_system,
)
from subriemann.nsw import (
    BallPolynomial,
    BudgetExceeded,
    DomainSpec,
    LambdaEntry,
    _has_perfect_matching,
    build_nsw,
    eval_lambda,
    nu_tilde,
    parse_domain_spec,
    pointwise_nu,
    top_stratum,
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

    @pytest.fixture
    def build_calls(self, monkeypatch):
        """The matching searches and Laplace row steps that ``build_nsw`` makes."""
        calls = {"searches": [], "steps": []}
        search, extend = nsw_module._has_perfect_matching, nsw_module._extend_minors

        def counting_search(rows, n):
            calls["searches"].append(tuple(rows))
            return search(rows, n)

        def counting_extend(minors, row):
            calls["steps"].append(row)
            return extend(minors, row)

        monkeypatch.setattr(nsw_module, "_has_perfect_matching", counting_search)
        monkeypatch.setattr(nsw_module, "_extend_minors", counting_extend)
        return calls

    def test_structural_zeros_are_not_computed(self, wide_bases, build_calls):
        basis = wide_bases["heisenberg(3)"]
        nsw = build_nsw(basis)
        # C(12, 7) = 792 combinations share 63 sorted support patterns,
        # one search each; only 6 combinations have a matching
        searches = build_calls["searches"]
        assert len(searches) == len(set(searches)) == 63
        entries = [e for v in nsw.slots.values() for e in v]
        assert len(entries) == 6
        # only rows of those 6 are expanded, at most 7 steps each
        kept = {id(basis.entries[i - 1].vf.coeffs) for e in entries for i in e.indices}
        steps = build_calls["steps"]
        assert len(steps) <= 6 * 7
        assert all(id(row) in kept for row in steps)

    def test_one_search_per_support_pattern(self, wide_bases, build_calls):
        searches = build_calls["searches"]
        counts = {}
        for name, basis in wide_bases.items():
            searches.clear()
            build_nsw(basis)
            supports = [sum(1 << k for k, c in enumerate(e.vf.coeffs) if not c.is_zero())
                        for e in basis.entries]
            patterns = {tuple(sorted(supports[i] for i in combo))
                        for combo in itertools.combinations(range(len(supports)), basis.system.dim)}
            assert sorted(searches) == sorted(patterns), name
            counts[name] = len(searches)
        assert counts == {
            "euclidean2": 1, "heisenberg1": 3, "grushin-1-1-2": 2, "bony3": 6,
            "martinet": 4, "r4-fourfields": 24, "example6": 4, "ex31": 7,
            "heisenberg(3)": 63, "bony(6)": 122, "grushin(1,2,4)": 7,
            "grushin(1,2,6)": 7, "grushin(2,2,2)": 16,
        }
        assert sum(counts.values()) == 266  # for 13 796 combinations
        # matchable combinations share the minors of their common prefix:
        # 3 708 row steps with a separate expansion per combination
        assert len(build_calls["steps"]) == 1121


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


# the x1 + x2 coefficient makes {nu = Q} the plane x1 + x2 = 0: nu(1, -1, 0) = Q = 4
SKEW_PLANE = "dim = 3\nweights = 1,1,2\nX1 = 1*d1\nX2 = 1*d2\nX3 = x1*d3 + x2*d3\n"


class TestLevelSets:
    H_AXIS_1 = ("grushin-1-1-2", "bony3", "martinet", "r4-fourfields", "example6")
    VERDICTS = {
        "euclidean2": (), "heisenberg1": (), "heisenberg(3)": (),
        "grushin-1-1-2": (1,), "bony3": (1,), "martinet": (1,), "r4-fourfields": (1,),
        "example6": (1,), "bony(6)": (1,), "grushin(1,2,4)": (1,), "grushin(1,2,6)": (1,),
        "ex31": (1, 2), "grushin(2,2,2)": (1, 2),
    }

    def test_maximal_level_set_is_x1_zero(self, nsw_polys):
        for name in self.H_AXIS_1:
            assert top_stratum(nsw_polys[name]) == {1}, name

    def test_verdicts(self, wide_polys):
        assert {name: tuple(sorted(top_stratum(nsw))) for name, nsw in wide_polys.items()} \
            == self.VERDICTS

    def test_agrees_with_pointwise_nu(self, wide_polys, query_points):
        rng = random.Random(71)
        for name, nsw in wide_polys.items():
            axes = top_stratum(nsw)
            assert axes is not None, name
            on_l = []
            for _ in range(6):
                pt = random_point(rng, nsw.n, max_num=3)
                on_l.append([0 if a in axes else v for a, v in enumerate(pt, 1)])
            for pt in query_points[name] + on_l:
                in_l = all(pt[a - 1] == 0 for a in axes)
                assert (pointwise_nu(nsw, pt) == nsw.Q) == in_l, (name, pt)

    def test_undecided_off_coordinate_subspaces(self):
        nsw = build_nsw(enumerate_commutators(parse_system(SKEW_PLANE)))
        assert pointwise_nu(nsw, [1, -1, 0]) == nsw.Q == 4
        assert pointwise_nu(nsw, [1, 0, 0]) < nsw.Q
        assert top_stratum(nsw) is None


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
