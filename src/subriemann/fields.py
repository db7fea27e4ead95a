"""Vector fields with polynomial coefficients on R^n.

Provides Lie brackets, dilation-homogeneity verification of a system
(per-field coefficient criterion), exact Hormander rank checks at the
origin, enumeration of right-nested commutators, and per-point flag data
(step dimensions, weights, pointwise homogeneous dimension).

Every rank decision (``flag_at``, ``check_h2``, ``rational_rank``) is
made over the integers, by one fraction-free echelon, ``_echelon_add``.
``flag_at`` and ``check_h2`` share one flag kernel, ``_flag_counts``, which
evaluates each basis entry as an integer row through the integer point
evaluator of ``polynomials`` (``_point_powers``), the one that Lambda
and nu use in ``nsw``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .polynomials import (
    Polynomial,
    _add_products,
    _clean,
    _integer_point,
    _monomial_values,
    _point_powers,
    format_polynomial,
    parse_polynomial,
)


class FieldError(ValueError):
    pass


_ZERO = Fraction(0)


class VectorField:
    """Y = sum_k b_k(x) d/dx_k with polynomial b_k."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, coeffs: Sequence[Polynomial]):
        if not coeffs:
            raise FieldError("a vector field needs at least one component")
        dim = coeffs[0].dim
        if len(coeffs) != dim:
            raise FieldError("component count must equal the ambient dimension")
        for c in coeffs:
            if c.dim != dim:
                raise FieldError("components have mixed dimensions")
        self.dim = dim
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, dim: int) -> "VectorField":
        return cls([Polynomial.zero(dim)] * dim)

    @classmethod
    def coordinate(cls, dim: int, j: int) -> "VectorField":
        """d/dx_j."""
        comps = [Polynomial.zero(dim)] * dim
        comps[j - 1] = Polynomial.constant(dim, 1)
        return cls(comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def apply(self, f: Polynomial) -> Polynomial:
        """Yf = sum_k b_k df/dx_k, the reference of the [Y, Z]f = Y(Zf) - Z(Yf) test."""
        out = Polynomial.zero(self.dim)
        for k, b in enumerate(self.coeffs, start=1):
            if not b.is_zero():
                out = out + b * f.partial(k)
        return out

    def at(self, point) -> list[Fraction]:
        """Exact value YI(x) as a rational vector.

        The library decides flags and H.2 on integer rows instead; this is
        the reference that those rows and ``check_h2`` are tested against.
        """
        return [c.eval(point) if c.terms else _ZERO for c in self.coeffs]

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "VectorField":
        return VectorField([-c for c in self.coeffs])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, scalar) -> "VectorField":
        if not isinstance(scalar, (Polynomial, int, Fraction)):
            return NotImplemented
        return VectorField([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, VectorField) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        return format_field(self)

    def __repr__(self) -> str:
        return f"VectorField({format_field(self)!r})"


def lie_bracket(Y: VectorField, Z: VectorField) -> VectorField:
    """[Y, Z], computed exactly.

    Component k is sum_i Y_i * d_i Z_k + Z_i * (-d_i Y_k), added into one
    term dict by ``Polynomial.__mul__``'s kernel; zero sums are dropped
    once at the end.  A product is skipped when its field coefficient is
    zero or its differentiated coefficient does not depend on x_i, since
    it would add nothing.
    """
    if Y.dim != Z.dim:
        raise FieldError(f"dimension mismatch: {Y.dim} vs {Z.dim}")
    n = Y.dim
    comps = []
    for k in range(n):
        out: dict[tuple[int, ...], Fraction] = {}
        Yk, Zk = Y.coeffs[k], Z.coeffs[k]
        for i in range(1, n + 1):
            b = Y.coeffs[i - 1].terms
            c = Z.coeffs[i - 1].terms
            if b and Zk.degree_in(i) > 0:
                _add_products(out, b, Zk.partial(i).terms)
            if c and Yk.degree_in(i) > 0:
                _add_products(out, c, (-Yk.partial(i)).terms)
        comps.append(_clean(n, {e: v for e, v in out.items() if v}))
    return VectorField(comps)


class VectorFieldSystem:
    """m polynomial fields plus dilation exponents (alpha_1..alpha_n)."""

    def __init__(self, fields: Sequence[VectorField], weights: Sequence[int], name: str = ""):
        if not fields:
            raise FieldError("a system needs at least one field")
        dim = fields[0].dim
        if dim < 2:
            raise FieldError("ambient dimension must be at least 2")
        for f in fields:
            if f.dim != dim:
                raise FieldError("fields have mixed dimensions")
        w = [int(a) for a in weights]
        if len(w) != dim:
            raise FieldError("one dilation exponent per coordinate is required")
        if w[0] != 1:
            raise FieldError("the first dilation exponent must be 1")
        if any(b < a for a, b in zip(w, w[1:])):
            raise FieldError("dilation exponents must be non-decreasing")
        if any(a < 1 for a in w):
            raise FieldError("dilation exponents must be positive")
        self.fields = tuple(fields)
        self.weights = tuple(w)
        self.name = name
        self.dim = dim
        self.m = len(fields)

    def dilation(self, point, t) -> list[Fraction]:
        t = Fraction(t)
        return [Fraction(x) * t ** a for x, a in zip(point, self.weights)]


def field_homogeneity_ok(Y: VectorField, weights: Sequence[int], sigma: int):
    """Check that Y is delta_t-homogeneous of degree sigma.

    Component k must be zero or homogeneous of weighted degree
    alpha_k - sigma.  Returns (ok, offending) where offending lists
    (component index, exponent tuple) pairs for the failing monomials.
    """
    offending = []
    for k, coeff in enumerate(Y.coeffs, start=1):
        if coeff.is_zero():
            continue
        target = weights[k - 1] - sigma
        if target < 0:
            offending.extend((k, e) for e in sorted(coeff.terms))
            continue
        offending.extend((k, e) for e in coeff.inhomogeneous_monomials(weights, target))
    return (not offending), offending


@dataclass
class H1Report:
    ok: bool
    per_field: list  # (field index, ok, offending monomials)

    def __str__(self) -> str:
        lines = [f"H.1 {'PASS' if self.ok else 'FAIL'}"]
        for idx, ok, bad in self.per_field:
            lines.append(f"  X{idx}: {'ok' if ok else 'inhomogeneous at ' + str(bad)}")
        return "\n".join(lines)


def check_h1(system: VectorFieldSystem) -> H1Report:
    """Each X_j must be delta_t-homogeneous of degree 1."""
    per = []
    for idx, f in enumerate(system.fields, start=1):
        ok, bad = field_homogeneity_ok(f, system.weights, 1)
        if f.is_zero():
            ok, bad = False, [(0, ())]  # a zero generator is never degree-1 homogeneous
        per.append((idx, ok, bad))
    return H1Report(all(ok for _, ok, _ in per), per)


@dataclass
class BasisEntry:
    word: tuple[int, ...]
    vf: VectorField
    degree: int


class CommutatorBasis:
    """Nonzero right-nested brackets X_J, |J| <= alpha_n, with degrees.

    ``enumerate_commutators`` lists the words in degree (length) order,
    lexicographically within a length; +/- duplicate
    fields are retained deliberately, matching the ordered-tuple
    convention of the ball-volume polynomial.
    """

    def __init__(self, system: VectorFieldSystem, entries: Sequence[BasisEntry]):
        for e in entries:
            if e.vf.is_zero():
                raise FieldError("basis entries must be nonzero")
            ok, _ = field_homogeneity_ok(e.vf, system.weights, e.degree)
            if not ok:
                raise FieldError(
                    f"bracket {e.word} of degree {e.degree} is not homogeneous of that degree"
                )
        self.system = system
        self.entries = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def degrees(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.entries:
            out[e.degree] = out.get(e.degree, 0) + 1
        return out

    @cached_property
    def _integer_rows(self):
        """(degrees, top, rows): each entry of degree 1..alpha_n as an integer row form.

        Rows are (degree, monomials, comps), stably sorted by degree.  With
        L the lcm of an entry's coefficient denominators and T its top
        total degree, ``monomials`` lists its distinct monomials as
        (T - |e|, nonzero exponents) and ``comps`` pairs each nonzero
        component k with its terms (L * c, monomial index).  At x = a / D,
        component k is then the integer sum L * c * a^e * D^(T - |e|) =
        L * D^T * b_k(x): every component of a row shares the positive
        factor L * D^T, so ranks are those of the values.  (Scaling each
        component by its own D power would change them.)  ``degrees`` holds
        the highest power of each coordinate and ``top`` the largest T:
        the powers of a_j and D that ``_flag_counts`` prepares once per point.
        """
        rows = []
        top = 0
        degrees = [0] * self.system.dim
        for entry in sorted(self.entries, key=lambda e: e.degree):
            if not 1 <= entry.degree <= self.system.weights[-1]:
                continue
            coeffs = [c.terms for c in entry.vf.coeffs]
            scale = math.lcm(*(c.denominator for terms in coeffs for c in terms.values()))
            t = max(sum(e) for terms in coeffs for e in terms)
            top = max(top, t)
            index: dict[tuple[int, ...], int] = {}
            comps = tuple(
                (k, tuple((int(c * scale), index.setdefault(e, len(index)))
                          for e, c in terms.items()))
                for k, terms in enumerate(coeffs) if terms
            )
            monomials = tuple(
                (t - sum(e), tuple((j, p) for j, p in enumerate(e) if p)) for e in index
            )
            degrees = [max(column) for column in zip(degrees, *index)]
            rows.append((entry.degree, monomials, comps))
        return degrees, top, tuple(rows)

    def canonical_degrees(self) -> dict[int, int]:
        """Entry counts per degree after identifying Y with -Y."""
        seen: set = set()
        out: dict[int, int] = {}
        for e in self.entries:
            key = _sign_canonical(e.vf)
            if key in seen:
                continue
            seen.add(key)
            out[e.degree] = out.get(e.degree, 0) + 1
        return out


def _sign_canonical(vf: VectorField):
    """Hashable key identifying Y with -Y (flip so the lead is positive)."""
    for c in vf.coeffs:
        if c.is_zero():
            continue
        lead = max(c.terms, key=lambda e: (sum(e), e))
        return (-vf).coeffs if c.terms[lead] < 0 else vf.coeffs
    return vf.coeffs


def enumerate_commutators(system: VectorFieldSystem) -> CommutatorBasis:
    """All nonzero right-nested brackets with word length <= alpha_n, in degree order.

    A longer word has weighted degree above alpha_n, so every component
    of a homogeneous bracket of it vanishes (and `CommutatorBasis`
    refuses one that is not homogeneous); a shorter bound would cut the
    basis that flags, H.2 and Lambda read.
    """
    entries: list[BasisEntry] = []
    # by_word holds possibly-zero fields so longer words can nest into them
    by_word: dict[tuple[int, ...], VectorField] = {}
    for j, f in enumerate(system.fields, start=1):
        by_word[(j,)] = f
        if not f.is_zero():
            entries.append(BasisEntry((j,), f, 1))
    for length in range(2, system.weights[-1] + 1):
        for word in itertools.product(range(1, system.m + 1), repeat=length):
            inner = by_word[word[1:]]
            if inner.is_zero():
                vf = VectorField.zero(system.dim)
            else:
                vf = lie_bracket(system.fields[word[0] - 1], inner)
            by_word[word] = vf
            if not vf.is_zero():
                entries.append(BasisEntry(word, vf, length))
    return CommutatorBasis(system, entries)


def _echelon_add(rows: list[tuple[int, list[int]]], vector: list[int]) -> bool:
    """Grow a fraction-free echelon basis by one integer vector; True if it was new.

    ``rows`` holds (pivot column, row) pairs of primitive integer rows,
    each zero at the pivot columns of the rows before it.  The vector is
    reduced against them in order: by a row whose pivot entry is p,
    v <- p*v - v[col]*row (both factors first divided by their gcd),
    which zeroes v[col] without leaving the integers, and v is then
    divided by the gcd of its entries (Bareiss, Math. Comp. 22, 1968,
    keeps the entries small the same way).  If anything is left, it is
    appended, pivoted at its first nonzero entry; the caller passes a
    fresh list, which may become that row.  Every rank decision in the
    exact layer is made here, over the integers: the flag rows of
    ``flag_at`` and ``check_h2`` come from the point evaluator that Lambda
    and nu share, and ``rational_rank`` clears denominators with its
    ``_integer_point``.
    """
    v = vector
    for col, row in rows:
        c = v[col]
        if c:
            p = row[col]
            g = math.gcd(p, c)
            if g > 1:
                p //= g
                c //= g
            v = [p * a - c * b if b else p * a for a, b in zip(v, row)]
            g = math.gcd(*v)
            if g > 1:
                v = [a // g for a in v]
    pivot = next((j for j, a in enumerate(v) if a), None)
    if pivot is None:
        return False
    g = math.gcd(*v)
    rows.append((pivot, [a // g for a in v] if g > 1 else v))
    return True


def rational_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of a list of rational vectors, decided over the integers.

    Each vector is multiplied by the lcm of its denominators (floats are
    taken at their exact value) by ``polynomials._integer_point``, the
    helper that also writes query points over one denominator for
    flags, Lambda and nu, and grows one fraction-free echelon.
    """
    rows: list = []
    for v in vectors:
        _echelon_add(rows, _integer_point(v)[0])
    return len(rows)


@dataclass
class H2Report:
    ok: bool
    rank_at_origin: int
    fields_independent: bool
    spanning_degrees: dict[int, int] = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"H.2 {'PASS' if self.ok else 'FAIL'}: rank at 0 = {self.rank_at_origin}, "
            f"generators independent = {self.fields_independent}"
        )


def check_h2(system: VectorFieldSystem, basis: CommutatorBasis | None = None) -> H2Report:
    """Hormander condition at the origin plus generator independence.

    Needs H.1: the basis of a system with an inhomogeneous generator is
    refused by `CommutatorBasis`.  The rank at 0 and ``spanning_degrees``
    are the flag at the origin (`_flag_counts`): the new directions per
    degree, counted in degree order, as ``flag_at`` counts them, also on
    a hand-built basis whose entries are not in that order.  The
    generators' coefficient rows are ranked over the integers.
    """
    if basis is None:
        basis = enumerate_commutators(system)
    counts = _flag_counts(basis, [0] * system.dim)
    rank = sum(counts)
    degrees = {j: c for j, c in enumerate(counts, start=1) if c}
    # symbolic linear independence of X_1..X_m: rank of the coefficient matrix
    monomials = sorted(
        {(k, e) for f in system.fields for k, c in enumerate(f.coeffs) for e in c.terms}
    )
    coeff_rows = [
        [f.coeffs[k].terms.get(e, Fraction(0)) for (k, e) in monomials]
        for f in system.fields
    ]
    independent = rational_rank(coeff_rows) == system.m
    return H2Report(rank == system.dim and independent, rank, independent, degrees)


def homogeneous_dimension(system: VectorFieldSystem) -> int:
    """Q = sum of the dilation exponents."""
    return sum(system.weights)


@dataclass
class FlagData:
    point: tuple[Fraction, ...]
    nu_j: list[int]          # nu_1(x) .. nu_{alpha_n}(x)
    weights: tuple[int, ...]  # w_1(x) .. w_n(x)
    nu: int
    step: int                # degree of nonholonomy r(x)


def _flag_counts(basis: CommutatorBasis, point) -> list[int]:
    """New directions per degree 1..alpha_n that the basis values add at a point.

    One fraction-free elimination runs over the degree blocks in order,
    and entries are no longer evaluated once the rank reaches n.  Each
    entry is evaluated as its integer row (``CommutatorBasis._integer_rows``),
    a positive multiple of its value, by the same integer point evaluator
    that Lambda and nu use in ``nsw``, so the counts are decided over the
    integers.  Their sum is the rank at the point; nothing is raised when
    it is below n.
    """
    n = basis.system.dim
    degrees, top, flag_rows = basis._integer_rows
    powers = _point_powers(point, degrees, top)
    counts = [0] * basis.system.weights[-1]
    rows: list = []
    for degree, monomials, comps in flag_rows:
        if len(rows) == n:
            break
        values = _monomial_values(monomials, powers)
        row = [0] * n
        for k, terms in comps:
            row[k] = sum(c * values[i] for c, i in terms)
        if _echelon_add(rows, row):
            counts[degree - 1] += 1
    return counts


def flag_at(basis: CommutatorBasis, point) -> FlagData:
    """Exact flag dimensions, weights, and nu(x) at a rational point.

    nu_j(x) is the rank of the basis values of degree <= j at x, summed
    from `_flag_counts`.  A point where the rank stays below n raises.
    """
    n = basis.system.dim
    pt = tuple(Fraction(v) for v in point)
    if len(pt) != n:
        raise FieldError("point dimension mismatch")
    nu_j = list(itertools.accumulate(_flag_counts(basis, pt)))
    if nu_j[-1] != n:
        raise FieldError(f"flag does not reach full rank at {pt}; Hormander fails there")
    step = next(j for j, r in enumerate(nu_j, start=1) if r == n)
    weights = []
    prev = 0
    for s, r in enumerate(nu_j, start=1):
        for _ in range(r - prev):
            weights.append(s)
        prev = r
    nu = sum(weights)
    return FlagData(pt, nu_j, tuple(weights), nu, step)


# ---------------------------------------------------------------------
# system specification files
#
#   dim = 3
#   weights = 1,1,3
#   name = martinet
#   X1 = 1*d1
#   X2 = 1*d2 + x1^2*d3
# ---------------------------------------------------------------------

_DERIV = re.compile(r"\*d(\d+)$")


def format_field(vf: VectorField) -> str:
    parts = []
    for k, c in enumerate(vf.coeffs, start=1):
        if c.is_zero():
            continue
        text = format_polynomial(c)
        if ("+" in text[1:]) or ("-" in text[1:]):
            text = "(" + text + ")"
        parts.append(f"{text}*d{k}")
    return " + ".join(parts) if parts else "0"


def _split_top_level(body: str) -> list[str]:
    # split on '+' only outside parentheses
    chunks, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            chunks.append(body[start:i])
            start = i + 1
    chunks.append(body[start:])
    return chunks


def parse_field(text: str, dim: int) -> VectorField:
    comps = [Polynomial.zero(dim) for _ in range(dim)]
    body = text.strip()
    if body == "0":
        return VectorField(comps)
    for chunk in _split_top_level(body):
        chunk = chunk.strip()
        m = _DERIV.search(chunk)
        if not m:
            raise FieldError(f"field term {chunk!r} lacks a *d<k> factor")
        k = int(m.group(1))
        if not 1 <= k <= dim:
            raise FieldError(f"derivative axis d{k} out of range for dimension {dim}")
        poly_text = chunk[: m.start()].strip()
        if poly_text.startswith("(") and poly_text.endswith(")"):
            poly_text = poly_text[1:-1]
        comps[k - 1] = comps[k - 1] + parse_polynomial(poly_text, dim)
    return VectorField(comps)


def spec_lines(text: str):
    """(raw line, key, value) for each ``key = value`` line of a spec file.

    ``#`` starts a comment and blank lines are skipped; key and value are
    stripped.
    """
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            yield raw, key.strip(), value.strip()


def parse_system(text: str) -> VectorFieldSystem:
    dim = None
    weights = None
    name = ""
    field_lines: list[tuple[int, str]] = []
    for raw, key, value in spec_lines(text):
        if key == "dim":
            dim = int(value)
        elif key == "weights":
            weights = [int(v) for v in value.split(",")]
        elif key == "name":
            name = value
        elif re.fullmatch(r"X\d+", key):
            field_lines.append((int(key[1:]), value))
        else:
            raise FieldError(f"unrecognized line in system spec: {raw!r}")
    if dim is None or weights is None:
        raise FieldError("system spec must declare dim and weights")
    field_lines.sort()
    expected = list(range(1, len(field_lines) + 1))
    if [i for i, _ in field_lines] != expected:
        raise FieldError("fields must be numbered X1..Xm without gaps")
    fields = [parse_field(body, dim) for _, body in field_lines]
    return VectorFieldSystem(fields, weights, name=name)


def format_system(system: VectorFieldSystem) -> str:
    """The `.vf` text of a system, the inverse of `parse_system` (round-trip tested)."""
    lines = [
        f"dim = {system.dim}",
        f"weights = {','.join(str(a) for a in system.weights)}",
    ]
    if system.name:
        lines.append(f"name = {system.name}")
    for i, f in enumerate(system.fields, start=1):
        lines.append(f"X{i} = {format_field(f)}")
    return "\n".join(lines) + "\n"
