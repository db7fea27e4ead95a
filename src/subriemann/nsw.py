"""The Nagel-Stein-Wainger ball-volume polynomial and its level sets.

Lambda(x, r) = sum_I |lambda_I(x)| r^d(I), where I ranges over ordered
n-tuples of commutator basis entries and lambda_I is the exact
determinant of their coefficient matrix.  The signed determinants are
stored symbolically; absolute values are applied only at evaluation, so
the symbolic layer stays exact.  ``build_nsw`` computes them in one
sweep over the sorted index combinations: a combination whose support
pattern admits no perfect matching is a structural zero and is never
expanded, and the others share the Laplace minors (``_extend_minors``,
the kernel of ``poly_det``) of the rows they have in common with the
combination expanded before them.

Point queries (``f_k``, ``eval_lambda``, ``pointwise_nu``) read a merged
form of each degree slot, built once with the polynomial: most lambda_I
are rational multiples of one another, and |c p(x)| = |c| |p(x)|, so a
slot is a short sum of weights times |primitive integer polynomial|.  A
query clears the point's common denominator, evaluates each distinct
monomial once in integers and builds one Fraction at the end.  The
integer point evaluator is the one in ``polynomials`` that
``fields.flag_at`` uses for its rows too, so Lambda, nu and the flag are
all decided over the integers.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .fields import CommutatorBasis, FieldError, spec_lines
from .polynomials import (
    Polynomial,
    PolynomialError,
    _extend_minors,
    _monomial_values,
    _point_powers,
    format_polynomial,
)

# most C(q, n) index combinations ``build_nsw`` enumerates unless told
# otherwise; it checks the count before enumerating any
DEFAULT_TUPLE_CAP = 2_000_000


class BudgetExceeded(RuntimeError):
    """A basis has ``count`` = C(q, n) index combinations, more than ``cap``.

    Raised by ``build_nsw`` before any combination is enumerated; most
    of them are structural zeros, but the count bounds the sweep itself.
    """

    def __init__(self, message: str, count: int, cap: int):
        super().__init__(message)
        self.count, self.cap = count, cap


@dataclass
class LambdaEntry:
    """One determinant lambda_I with its degree and ordered-tuple count.

    ``multiplicity`` is the number of ordered n-tuples sharing this
    (sorted) index combination: n! for distinct indices.  Tuples with a
    repeated index have zero determinant and are skipped outright.
    """

    indices: tuple[int, ...]
    poly: Polynomial
    degree: int
    multiplicity: int


def _primitive(poly: Polynomial) -> tuple[Fraction, dict[tuple[int, ...], int]]:
    """Split p = c * q with q a primitive integer polynomial.

    q's coefficients are coprime and the one at its least exponent tuple
    is positive, so every nonzero rational multiple of p has the same q.
    """
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    ints = {e: int(c * den) for e, c in poly.terms.items()}
    g = math.gcd(*ints.values())
    if ints[min(ints)] < 0:
        g = -g
    return Fraction(g, den), {e: v // g for e, v in ints.items()}


class BallPolynomial:
    """Coefficient family {f_k}, k in [n, Q], of Lambda(x, r).

    ``slots`` keeps every nonzero lambda_I per degree k.  For evaluation
    each slot is merged into f_k(x) = sum_q w_q |q(x)| / scale over the
    distinct primitive integer polynomials q of its entries, with
    w_q = scale * sum of multiplicity * |c| over the entries c * q.  One
    integer ``scale`` (the lcm of the weights' denominators) serves all
    slots, and the distinct monomials of all slots are listed once.
    """

    def __init__(self, basis: CommutatorBasis, slots: dict[int, list[LambdaEntry]]):
        self.basis = basis
        self.n = basis.system.dim
        self.Q = sum(basis.system.weights)
        self.slots = {k: list(v) for k, v in sorted(slots.items())}
        top = self.slots.get(self.Q, [])
        if not any(e.poly.is_constant() and not e.poly.is_zero() for e in top):
            raise FieldError("degree-Q slot must contain a nonzero constant")
        self._merge()

    def _merge(self) -> None:
        merged: dict[int, dict[tuple, Fraction]] = {}
        for k, entries in self.slots.items():
            weights = merged[k] = {}
            for e in entries:
                c, q = _primitive(e.poly)
                key = tuple(sorted(q.items()))
                weights[key] = weights.get(key, Fraction(0)) + e.multiplicity * abs(c)
        self._scale = math.lcm(*(w.denominator for ws in merged.values() for w in ws.values()))
        index: dict[tuple[int, ...], int] = {}
        self._slot_terms: dict[int, list[tuple[int, tuple[tuple[int, int], ...]]]] = {}
        for k, weights in merged.items():
            self._slot_terms[k] = [
                (int(w * self._scale), tuple((c, index.setdefault(e, len(index))) for e, c in key))
                for key, w in weights.items()
            ]
        # x^e * D^(top - |e|) is an integer for x = a / D and every monomial
        self._top = max(sum(e) for e in index)
        self._degrees = [max(e[j] for e in index) for j in range(self.n)]
        self._monomials = [
            (self._top - sum(e), tuple((j, k) for j, k in enumerate(e) if k))
            for e in index
        ]

    def _point_values(self, x) -> tuple[list[int], int]:
        """x^e * D^(top - |e|) for each monomial, in integers, and D^top.

        D is the common denominator of the point's coordinates; the
        values come from the integer point evaluator that ``flag_at``
        uses too.
        """
        if len(x) != self.n:
            raise PolynomialError(f"point length {len(x)} != dimension {self.n}")
        powers = _point_powers(x, self._degrees, self._top)
        return _monomial_values(self._monomials, powers), powers[1][self._top]

    def _slot_sum(self, k: int, values: list[int]) -> int:
        """scale * D^top * f_k(x), an integer."""
        return sum(
            w * abs(sum(c * values[i] for c, i in terms))
            for w, terms in self._slot_terms[k]
        )

    def f_k(self, k: int, x) -> Fraction:
        """Exact f_k(x) = sum over tuples of |lambda_I(x)|, from the merged slot.

        The per-degree reference that the merged slots are tested against.
        """
        values, d_top = self._point_values(x)
        if k not in self._slot_terms:
            return Fraction(0)
        return Fraction(self._slot_sum(k, values), self._scale * d_top)

    def degree_counts(self) -> dict[int, int]:
        """Ordered-tuple counts per degree k."""
        return {k: sum(e.multiplicity for e in v) for k, v in self.slots.items()}

    def to_json(self) -> str:
        payload = {
            "schema_version": 1,
            "dim": self.n,
            "homogeneous_dimension": self.Q,
            "degrees": {
                str(k): [
                    {
                        "indices": list(e.indices),
                        "multiplicity": e.multiplicity,
                        "lambda": format_polynomial(e.poly),
                    }
                    for e in v
                ]
                for k, v in self.slots.items()
            },
        }
        return json.dumps(payload, indent=2)


def _has_perfect_matching(rows: Sequence[int], n: int) -> bool:
    """Whether n row bitmasks over n columns admit a perfect matching.

    Kuhn's augmenting-path search.  Without one, every term of the
    Leibniz expansion of a matrix with this nonzero pattern has a zero
    factor, so its determinant is identically zero.
    """
    owner = [-1] * n  # column -> matched row

    def augment(r: int, seen: list[bool]) -> bool:
        for c in range(n):
            if rows[r] >> c & 1 and not seen[c]:
                seen[c] = True
                if owner[c] < 0 or augment(owner[c], seen):
                    owner[c] = r
                    return True
        return False

    return all(augment(r, [False] * n) for r in range(len(rows)))


def build_nsw(basis: CommutatorBasis, allow_over_cap: bool = False) -> BallPolynomial:
    """Assemble the ball-volume polynomial from a commutator basis.

    Covers all ordered n-tuples of basis indices.  Repeated-index
    tuples determine singular matrices and are skipped; the remaining
    ordered tuples are grouped by sorted combination (the determinant is
    sign-invariant under column permutation and only |lambda_I| enters),
    each carrying multiplicity n!.  ``DEFAULT_TUPLE_CAP``, read at call
    time, bounds the C(q, n) combinations of q basis entries before any
    is enumerated, unless ``allow_over_cap`` is set.

    One sweep in ``itertools.combinations`` order.  A combination whose
    pattern of nonzero coefficients admits no perfect matching between
    entries and coordinates has an identically zero determinant and is
    skipped; the search runs once per sorted support pattern (266 times
    for the 13 796 combinations of the ``exact`` benchmark's 13 systems,
    122 for the 924 of ``bony(6)``).  A matchable combination extends
    the minors of the longest prefix of rows it shares with the last one
    expanded, one ``_extend_minors`` step per remaining row, and its
    determinant is the minor on all n columns: 1 121 row steps and
    2 123 polynomial products over the 13 systems, against 3 708 and
    5 644 for a separate ``poly_det`` per combination.
    """
    system = basis.system
    n = system.dim
    q = len(basis.entries)
    n_combos = math.comb(q, n)
    if n_combos > DEFAULT_TUPLE_CAP and not allow_over_cap:
        raise BudgetExceeded(
            f"C({q}, {n}) = {n_combos} index combinations exceed the cap of {DEFAULT_TUPLE_CAP}; "
            "pass allow_over_cap=True to proceed",
            n_combos, DEFAULT_TUPLE_CAP,
        )
    rows = [e.vf.coeffs for e in basis.entries]
    supports = [sum(1 << k for k, c in enumerate(row) if not c.is_zero()) for row in rows]
    matchable: dict[tuple[int, ...], bool] = {}
    # path[k] = (index of row k - 1, minors of the first k rows) of the last expansion
    path = [(-1, {0: Polynomial.constant(n, 1)})]
    full = (1 << n) - 1
    slots: dict[int, list[LambdaEntry]] = {}
    perm = math.factorial(n)
    for combo in itertools.combinations(range(q), n):
        pattern = tuple(sorted(supports[i] for i in combo))
        if pattern not in matchable:
            matchable[pattern] = _has_perfect_matching(pattern, n)
        if not matchable[pattern]:
            continue
        k = 1
        while k < len(path) and path[k][0] == combo[k - 1]:
            k += 1
        del path[k:]
        for i in combo[k - 1:]:
            path.append((i, _extend_minors(path[-1][1], rows[i])))
        det = path[-1][1].get(full)
        if det is None:
            continue
        degree = sum(basis.entries[i].degree for i in combo)
        slots.setdefault(degree, []).append(
            LambdaEntry(tuple(i + 1 for i in combo), det, degree, perm)
        )
    return BallPolynomial(basis, slots)


def eval_lambda(nsw: BallPolynomial, x, r) -> Fraction:
    """Exact Lambda(x, r) for rational x and r > 0.

    With r = p/q and K the top degree, Lambda(x, r) is the integer
    sum_k S_k p^k q^(K-k) over scale * D^top * q^K, where S_k is f_k(x)
    on the common denominator scale * D^top of every slot.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("radius must be positive")
    values, d_top = nsw._point_values(x)
    p, q = r.numerator, r.denominator
    top = max(nsw.slots)
    num = sum(nsw._slot_sum(k, values) * p ** k * q ** (top - k) for k in nsw.slots)
    return Fraction(num, nsw._scale * d_top * q ** top)


def pointwise_nu(nsw: BallPolynomial, x) -> int:
    """nu(x) = min{ d(I) : lambda_I(x) != 0 }, decided exactly.

    f_k(x) is a sum of nonnegative terms, so it is nonzero exactly when
    some lambda_I of degree k is; the integer slot sums decide it.
    """
    values, _ = nsw._point_values(x)
    for k in nsw.slots:
        if nsw._slot_sum(k, values):
            return k
    raise FieldError(f"all lambda_I vanish at {x}; Hormander fails there")


@dataclass
class DomainSpec:
    """A closed rational box and sample points; interior samples must lie in it.

    Samples are rational points tagged 'interior' or 'closure'.  All
    closure-based quantities computed from a DomainSpec are certificates
    over the sample set, not decisions about the uncountable closure.
    """

    dim: int
    box: list[tuple[Fraction, Fraction]]
    samples: list[tuple[tuple[Fraction, ...], str]] = field(default_factory=list)

    def __post_init__(self):
        for pt, tag in self.samples:
            if len(pt) != self.dim:
                raise ValueError("sample dimension mismatch")
            if tag not in ("interior", "closure"):
                raise ValueError(f"unknown sample tag {tag!r}")
            if tag == "interior" and not self.contains(pt):
                raise ValueError(f"interior sample {pt} lies outside the box")

    def contains(self, point) -> bool:
        return all(lo <= Fraction(x) <= hi for x, (lo, hi) in zip(point, self.box))

    def sample_points(self):
        return [pt for pt, _ in self.samples]


def parse_domain_spec(text: str) -> DomainSpec:
    """Domain spec file: a rational box plus tagged sample points.

        dim = 3
        box = 0,1 ; -1,1 ; -1,1
        interior = 1/2, 0, 0
        closure = 0, 0, 0

    Membership is closed-box containment; `interior` and `closure`
    lines (repeatable) list sample points with their tags.
    """
    dim = None
    box = None
    samples: list[tuple[tuple[Fraction, ...], str]] = []
    for raw, key, value in spec_lines(text):
        if key == "dim":
            dim = int(value)
        elif key == "box":
            box = []
            for part in value.split(";"):
                lo, hi = (Fraction(v.strip()) for v in part.split(","))
                box.append((lo, hi))
        elif key in ("interior", "closure"):
            pt = tuple(Fraction(v.strip()) for v in value.split(","))
            samples.append((pt, key))
        else:
            raise ValueError(f"unrecognized line in domain spec: {raw!r}")
    if dim is None or box is None:
        raise ValueError("domain spec must declare dim and box")
    if len(box) != dim:
        raise ValueError("box must have one interval per coordinate")
    return DomainSpec(dim, box, samples)


def nu_tilde(nsw: BallPolynomial, domain: DomainSpec) -> int:
    """The paper's nu~ on the sample set: max of nu over every sample point.

    The max over the samples is a lower bound for the max over the closure.
    """
    pts = domain.sample_points()
    if not pts:
        raise ValueError("domain has no sample points")
    return max(pointwise_nu(nsw, pt) for pt in pts)


@dataclass
class LevelSetReport:
    ok: bool
    counterexamples: list  # (point, nu, candidate verdict)

    def __str__(self) -> str:
        if self.ok:
            return "level set candidate PASS"
        return "level set candidate FAIL at " + ", ".join(str(p) for p, _, _ in self.counterexamples[:5])


def level_set_probe(
    nsw: BallPolynomial,
    candidate: Callable[[Sequence[Fraction]], bool],
    samples: Sequence[Sequence[Fraction]],
) -> LevelSetReport:
    """Check nu(x) = Q <=> candidate(x) on every sample point (criterion 3)."""
    bad = []
    for pt in samples:
        pt = tuple(Fraction(v) for v in pt)
        nu = pointwise_nu(nsw, pt)
        inside = bool(candidate(pt))
        if (nu == nsw.Q) != inside:
            bad.append((pt, nu, inside))
    return LevelSetReport(not bad, bad)


def parse_rows(text: str, width: int) -> list[tuple[Fraction, ...]]:
    """Rational CSV rows, each cut to its first ``width`` cells.

    Blank rows and rows whose first cell starts with ``#`` are skipped.  A
    row with fewer than ``width`` cells, or a cell that is not a rational
    number, raises ValueError naming the row.
    """
    rows = []
    for row in csv.reader(text.splitlines()):
        if not any(cell.strip() for cell in row) or row[0].lstrip().startswith("#"):
            continue
        if len(row) < width:
            raise ValueError(f"row {row} has fewer than {width} columns")
        try:
            rows.append(tuple(Fraction(cell) for cell in row[:width]))
        except ValueError as exc:
            raise ValueError(f"row {row}: {exc}") from None
    return rows


def parse_plan(text: str, dim: int) -> list[tuple[list[Fraction], Fraction]]:
    """(x, r) pairs from CSV rows x1, ..., x_dim, r (the ``.plan`` fixture format)."""
    return [(list(row[:dim]), row[dim]) for row in parse_rows(text, dim + 1)]
