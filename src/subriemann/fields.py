"""Vector fields with polynomial coefficients on R^n.

Provides Lie brackets, dilation-homogeneity verification of a system
(per-field coefficient criterion), exact Hormander rank checks at the
origin, enumeration of right-nested commutators, and per-point flag data
(step dimensions, weights, pointwise homogeneous dimension).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .polynomials import Polynomial, PolynomialError, format_polynomial, parse_polynomial


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
        """Yf = sum_k b_k df/dx_k."""
        out = Polynomial.zero(self.dim)
        for k, b in enumerate(self.coeffs, start=1):
            if not b.is_zero():
                out = out + b * f.partial(k)
        return out

    def at(self, point) -> list[Fraction]:
        """Exact value YI(x) as a rational vector."""
        return [c.eval(point) if c.terms else _ZERO for c in self.coeffs]

    def __add__(self, other: "VectorField") -> "VectorField":
        return VectorField([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "VectorField":
        return VectorField([-c for c in self.coeffs])

    def __sub__(self, other: "VectorField") -> "VectorField":
        return VectorField([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, scalar) -> "VectorField":
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
    """[Y, Z], computed exactly."""
    if Y.dim != Z.dim:
        raise FieldError(f"dimension mismatch: {Y.dim} vs {Z.dim}")
    n = Y.dim
    comps = []
    for k in range(n):
        acc = Polynomial.zero(n)
        for i in range(1, n + 1):
            b = Y.coeffs[i - 1]
            c = Z.coeffs[i - 1]
            if not b.is_zero():
                acc = acc + b * Z.coeffs[k].partial(i)
            if not c.is_zero():
                acc = acc - c * Y.coeffs[k].partial(i)
        comps.append(acc)
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

    def dilation_float(self, point, t: float) -> list[float]:
        return [float(x) * float(t) ** a for x, a in zip(point, self.weights)]


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
    """Nonzero right-nested brackets X_J, |J| <= max length, with degrees.

    Words are enumerated in lexicographic order per length; +/- duplicate
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


def enumerate_commutators(system: VectorFieldSystem, max_length: int | None = None) -> CommutatorBasis:
    """All nonzero right-nested brackets with word length <= max_length.

    max_length defaults to alpha_n, the Hormander index of the system.
    """
    if max_length is None:
        max_length = system.weights[-1]
    entries: list[BasisEntry] = []
    # by_word holds possibly-zero fields so longer words can nest into them
    by_word: dict[tuple[int, ...], VectorField] = {}
    for j, f in enumerate(system.fields, start=1):
        by_word[(j,)] = f
        if not f.is_zero():
            entries.append(BasisEntry((j,), f, 1))
    for length in range(2, max_length + 1):
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


def _echelon_add(rows: list[tuple[int, list[Fraction]]], vector) -> bool:
    """Grow an echelon basis over Q by one vector; True if it was new.

    ``rows`` holds (pivot column, row) pairs with a 1 at the pivot and 0
    at the pivot columns of earlier rows.  The vector, a list of
    Fractions, is reduced against them in order; if anything is left it
    is scaled to a 1 at its first nonzero entry and appended.
    """
    v = list(vector)
    for col, row in rows:
        c = v[col]
        if c:
            v = [a - c * b if b else a for a, b in zip(v, row)]
    pivot = next((j for j, a in enumerate(v) if a), None)
    if pivot is None:
        return False
    inv = v[pivot]
    rows.append((pivot, [a / inv if a else a for a in v]))
    return True


def rational_rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q of a list of rational vectors, by exact elimination."""
    rows: list = []
    for v in vectors:
        _echelon_add(rows, [Fraction(x) for x in v])
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

    One elimination runs over the basis values at the origin, in basis
    order: its rank is the rank at 0, and each entry that adds a new
    direction is counted under its degree in ``spanning_degrees``.
    """
    if basis is None:
        basis = enumerate_commutators(system)
    origin = [0] * system.dim
    rows: list = []
    degrees: dict[int, int] = {}
    for e in basis:
        if _echelon_add(rows, e.vf.at(origin)):
            degrees[e.degree] = degrees.get(e.degree, 0) + 1
    rank = len(rows)
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


def flag_at(basis: CommutatorBasis, point) -> FlagData:
    """Exact flag dimensions, weights, and nu(x) at a rational point.

    nu_j(x) is the rank of the basis values of degree <= j at x.  One
    elimination runs over the degree blocks in order, and entries are
    no longer evaluated once the rank reaches n.
    """
    system = basis.system
    n = system.dim
    pt = tuple(Fraction(v) for v in point)
    if len(pt) != n:
        raise FieldError("point dimension mismatch")
    max_deg = system.weights[-1]
    by_degree: dict[int, list[BasisEntry]] = {}
    for e in basis:
        by_degree.setdefault(e.degree, []).append(e)
    nu_j = []
    rows: list = []
    for j in range(1, max_deg + 1):
        for e in by_degree.get(j, []):
            if len(rows) == n:
                break
            _echelon_add(rows, e.vf.at(pt))
        nu_j.append(len(rows))
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
    lines = [
        f"dim = {system.dim}",
        f"weights = {','.join(str(a) for a in system.weights)}",
    ]
    if system.name:
        lines.append(f"name = {system.name}")
    for i, f in enumerate(system.fields, start=1):
        lines.append(f"X{i} = {format_field(f)}")
    return "\n".join(lines) + "\n"
