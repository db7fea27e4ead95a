"""Exact multivariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction` throughout, and `eval` converts a
float coordinate to its exact `Fraction`; floating point never enters
this layer (`lattice.eval_grid` evaluates on floats, and a float operand
of `+`, `-` or `*` is a `TypeError`), so sign and vanishing decisions are
exact.  Monomials are stored sparsely as a map from exponent tuples to
nonzero coefficients, which makes structural equality a canonical-form
comparison.  Products and `fields.lie_bracket` share one kernel,
`_add_products`; its callers drop the sums that cancelled to zero.
Determinants have one kernel too: `poly_det` folds the Laplace step
`_extend_minors` over a matrix's rows, and `nsw.build_nsw` folds it over
the rows of its index combinations.

Point queries that decide a rank or a sign (`fields.flag_at`, and
Lambda and nu in `nsw`) do not evaluate in Fractions: they write the
point as x = a / D over one common denominator (`_integer_point`) and
evaluate monomials as integers x^e D^(T - |e|) from powers computed once
per point (`_point_powers`, `_monomial_values`).
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Mapping, Sequence


class PolynomialError(ValueError):
    pass


def _grlex_key(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


def _clean(dim: int, terms: dict[tuple[int, ...], Fraction]) -> "Polynomial":
    """Wrap terms that already meet the invariants, skipping ``__init__``.

    The caller guarantees ``dim``-length exponent tuples of non-negative
    ints, each mapped to a nonzero ``Fraction``.
    """
    res = Polynomial.__new__(Polynomial)
    res.dim = dim
    res.terms = terms
    return res


_ZERO = Fraction(0)


def _add_products(out: dict, f_terms: Mapping, g_terms: Mapping) -> None:
    """Add c1*c2 at e1 + e2 into ``out``; zero sums stay for the caller to drop."""
    for e1, c1 in f_terms.items():
        for e2, c2 in g_terms.items():
            e = tuple(map(operator.add, e1, e2))
            s = out.get(e)
            out[e] = c1 * c2 if s is None else s + c1 * c2


def _integer_point(point) -> tuple[list[int], int]:
    """Numerators a and common denominator D > 0 with x = a / D.

    D is the lcm of the coordinates' denominators.  ``int`` and
    ``Fraction`` coordinates are used as they are; any other (a float, a
    decimal string) goes through ``Fraction`` first.  The caller checks
    the point's length and raises its own error.
    """
    pt = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in point]
    d = math.lcm(*(v.denominator for v in pt))
    return [v.numerator * (d // v.denominator) for v in pt], d


def _point_powers(point, degrees: Sequence[int], top: int) -> tuple[list[list[int]], list[int]]:
    """a_j^k for k <= degrees[j] and D^k for k <= top, with x = a / D.

    The point is split as in ``_integer_point``; ``degrees`` holds the
    highest power of each coordinate that the caller's monomials use.
    """
    a, d = _integer_point(point)
    pa = []
    for v, deg in zip(a, degrees):
        p = [1]
        for _ in range(deg):
            p.append(p[-1] * v)
        pa.append(p)
    pd = [1]
    for _ in range(top):
        pd.append(pd[-1] * d)
    return pa, pd


def _monomial_values(monomials, powers) -> list[int]:
    """x^e * D^deficit in integers for each monomial (deficit, ((j, e_j), ...)).

    ``powers`` is ``_point_powers`` of the point; the factors list the
    nonzero exponents only, with 0-based j.  For a form of top total
    degree T, deficit = T - |e| gives every monomial the same factor D^T.
    """
    pa, pd = powers
    out = []
    for deficit, factors in monomials:
        v = pd[deficit]
        for j, k in factors:
            v *= pa[j][k]
        out.append(v)
    return out


class Polynomial:
    """Sparse polynomial in ``dim`` variables with Fraction coefficients.

    Immutable by convention: no public method mutates ``terms`` after
    construction, so instances can be shared freely across workers.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        if dim < 0:
            raise PolynomialError("dimension must be non-negative")
        self.dim = dim
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != dim:
                    raise PolynomialError(f"exponent tuple {exps} does not match dimension {dim}")
                if any(e < 0 for e in exps):
                    raise PolynomialError(f"negative exponent in {exps}")
                c = Fraction(coeff)
                if c != 0:
                    clean[exps] = clean.get(exps, _ZERO) + c
                    if clean[exps] == 0:
                        del clean[exps]
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, value) -> "Polynomial":
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def variable(cls, dim: int, j: int) -> "Polynomial":
        """The monomial x_j (1-based index)."""
        if not 1 <= j <= dim:
            raise PolynomialError(f"variable index {j} out of range 1..{dim}")
        exps = [0] * dim
        exps[j - 1] = 1
        return cls(dim, {tuple(exps): Fraction(1)})

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise PolynomialError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def degree_in(self, j: int) -> int:
        if not 1 <= j <= self.dim:
            raise PolynomialError(f"axis {j} out of range 1..{self.dim}")
        if not self.terms:
            return -1
        return max(e[j - 1] for e in self.terms)

    # -- arithmetic ---------------------------------------------------

    def _check_dim(self, other: "Polynomial") -> None:
        if self.dim != other.dim:
            raise PolynomialError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _combine(self, other, op) -> "Polynomial":
        """``op(self, other)`` for ``op`` = ``operator.add`` or ``operator.sub``, in one pass."""
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = op(out.get(e, _ZERO), c)
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return _clean(self.dim, out)

    def __add__(self, other) -> "Polynomial":
        return self._combine(other, operator.add)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return _clean(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self._combine(other, operator.sub)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other if isinstance(other, (int, Fraction)) else NotImplemented

    def __mul__(self, other) -> "Polynomial":
        """Exact product with an ``int``, a ``Fraction`` or a polynomial.

        A polynomial goes through ``_add_products``, and the sums that
        cancelled are dropped once; any other operand is a ``TypeError``.
        """
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0:
                return Polynomial.zero(self.dim)
            return _clean(self.dim, {e: k * c for e, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dim(other)
        out: dict[tuple[int, ...], Fraction] = {}
        _add_products(out, self.terms, other.terms)
        return _clean(self.dim, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if not isinstance(k, int):
            raise PolynomialError(f"exponent must be an int, not {type(k).__name__}")
        if k < 0:
            raise PolynomialError("negative power")
        out = Polynomial.constant(self.dim, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dim, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.terms.items())))

    # -- calculus -----------------------------------------------------

    def partial(self, j: int) -> "Polynomial":
        """Exact partial derivative with respect to x_j (1-based)."""
        if not 1 <= j <= self.dim:
            raise PolynomialError(f"axis {j} out of range 1..{self.dim}")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[j - 1]
            if k == 0:
                continue
            ne = list(e)
            ne[j - 1] = k - 1
            out[tuple(ne)] = c * k
        return _clean(self.dim, out)

    def eval(self, point: Sequence) -> Fraction:
        """Exact evaluation at a rational point.

        ``int`` and ``Fraction`` coordinates are used as they are; any
        other coordinate (a float, a decimal string) goes through
        ``Fraction`` first.
        """
        if len(point) != self.dim:
            raise PolynomialError(f"point length {len(point)} != dimension {self.dim}")
        pt = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x ** k
            total += v
        return total

    # -- dilation and homogeneity ------------------------------------

    def dilate(self, weights: Sequence[int]) -> "Polynomial":
        """Return p(t^a1 x1, ..., t^an xn) in n+1 variables, t last."""
        if len(weights) != self.dim:
            raise PolynomialError("weight count mismatch")
        w = [int(a) for a in weights]
        if any(a <= 0 for a in w):
            raise PolynomialError("weights must be positive integers")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            tdeg = sum(a * k for a, k in zip(w, e))
            out[e + (tdeg,)] = c
        return Polynomial(self.dim + 1, out)

    def homogeneity_degree(self, weights: Sequence[int]) -> int | None:
        """Common weighted degree of all monomials, or None if mixed.

        The zero polynomial returns None (it is vacuously homogeneous of
        every degree; callers flag that case separately).  Criterion 2
        checks the Lambda slot entries with it.
        """
        if len(weights) != self.dim:
            raise PolynomialError("weight count mismatch")
        degs = {sum(a * k for a, k in zip(weights, e)) for e in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def inhomogeneous_monomials(self, weights: Sequence[int], sigma: int) -> list[tuple[int, ...]]:
        """Exponent tuples whose weighted degree differs from sigma."""
        return sorted(
            e for e in self.terms if sum(a * k for a, k in zip(weights, e)) != sigma
        )

    # -- substitution -------------------------------------------------

    def compose(self, maps: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute x_j -> maps[j-1]; all maps share one dimension."""
        if len(maps) != self.dim:
            raise PolynomialError("substitution needs one polynomial per variable")
        if not maps:
            return Polynomial(0, dict(self.terms))
        new_dim = maps[0].dim
        for m in maps:
            if m.dim != new_dim:
                raise PolynomialError("substitution maps must share a dimension")
        # cache powers of each map
        powers: list[dict[int, Polynomial]] = [
            {0: Polynomial.constant(new_dim, 1)} for _ in maps
        ]
        result = Polynomial.zero(new_dim)
        for e, c in self.terms.items():
            term = Polynomial.constant(new_dim, c)
            for j, k in enumerate(e):
                if k == 0:
                    continue
                cache = powers[j]
                if k not in cache:
                    p = max(cache)
                    acc = cache[p]
                    while p < k:
                        acc = acc * maps[j]
                        p += 1
                        cache[p] = acc
                term = term * cache[k]
            result = result + term
        return result

    def lift(self, new_dim: int) -> "Polynomial":
        """Embed into ``new_dim`` variables; the added ones come last, unused."""
        if self.dim > new_dim:
            raise PolynomialError("lift target too small")
        pad = (0,) * (new_dim - self.dim)
        return Polynomial(new_dim, {e + pad: c for e, c in self.terms.items()})

    def substitute_value(self, j: int, value) -> "Polynomial":
        """Set x_j = value (a rational constant), keeping the dimension."""
        if not 1 <= j <= self.dim:
            raise PolynomialError(f"axis {j} out of range 1..{self.dim}")
        v = Fraction(value)
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[j - 1]
            ne = list(e)
            ne[j - 1] = 0
            ne = tuple(ne)
            add = c * v ** k if k else c
            s = out.get(ne, _ZERO) + add
            if s == 0:
                out.pop(ne, None)
            else:
                out[ne] = s
        return Polynomial(self.dim, out)

    # -- printing / parsing ------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({self.dim}, '{format_polynomial(self)}')"


# ---------------------------------------------------------------------
# text form: `c * x1^a * x2^b` terms joined by + / -, rationals as p/q
# ---------------------------------------------------------------------


def format_polynomial(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    pieces = []
    for exps in sorted(p.terms, key=_grlex_key, reverse=True):
        c = p.terms[exps]
        factors = [
            f"x{j + 1}" if k == 1 else f"x{j + 1}^{k}"
            for j, k in enumerate(exps)
            if k > 0
        ]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        pieces.append(("- " if c < 0 else "+ ") + body)
    first = pieces[0]
    out = ("-" + first[2:]) if first.startswith("- ") else first[2:]
    for piece in pieces[1:]:
        out += " " + piece
    return out


_TERM_SPLIT = re.compile(r"(?=[+-])")
_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_polynomial(text: str, dim: int) -> Polynomial:
    """Parse the canonical text syntax back into a polynomial."""
    s = text.strip()
    if not s:
        raise PolynomialError("empty polynomial text")
    if s == "0":
        return Polynomial.zero(dim)
    s = s.replace(" ", "")
    terms: dict[tuple[int, ...], Fraction] = {}
    for chunk in (c for c in _TERM_SPLIT.split(s) if c):
        sign = Fraction(1)
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = Fraction(-1)
            chunk = chunk[1:]
        if not chunk:
            raise PolynomialError(f"dangling sign in {text!r}")
        coeff = sign
        exps = [0] * dim
        for factor in chunk.split("*"):
            m = _FACTOR.match(factor)
            if m:
                j = int(m.group(1))
                if not 1 <= j <= dim:
                    raise PolynomialError(f"variable x{j} out of range for dimension {dim}")
                exps[j - 1] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= Fraction(factor)
                except ValueError as exc:
                    raise PolynomialError(f"bad factor {factor!r} in {text!r}") from exc
        key = tuple(exps)
        terms[key] = terms.get(key, _ZERO) + coeff
    return Polynomial(dim, terms)


# ---------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------


def _extend_minors(minors: Mapping[int, Polynomial], row: Sequence[Polynomial]) -> dict[int, Polynomial]:
    """One Laplace step: the minors of the rows so far with ``row`` appended below.

    ``minors`` maps a column bitmask to the determinant of the rows so
    far on those columns (``{0: 1}`` before the first row).  Each mask
    is extended by every nonzero entry of ``row`` in a new column j,
    signed by the parity of the mask's columns to the right of j, which
    is the cofactor sign of the entry in the bottom row.  Minors that
    vanish are dropped, so sparse and singular matrices stay cheap.
    """
    entries = [(1 << j, j, p) for j, p in enumerate(row) if not p.is_zero()]
    extended: dict[int, Polynomial] = {}
    for mask, minor in minors.items():
        for bit, j, entry in entries:
            if mask & bit:
                continue
            term = entry * minor
            if (mask >> j).bit_count() % 2:
                term = -term
            key = mask | bit
            extended[key] = extended[key] + term if key in extended else term
    return {mask: p for mask, p in extended.items() if not p.is_zero()}


def poly_det(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant of a square polynomial matrix.

    Division-free Laplace expansion, memoised by column set: starting
    from ``{0: 1}``, ``_extend_minors`` appends the rows top-down, so
    after k rows every stored mask holds the determinant of the top k
    rows on those k columns, and the full mask holds the answer.  The
    term for entry (k, j) is signed by the parity of the mask's columns
    to the right of j.  ``nsw.build_nsw`` folds the same kernel over
    its combinations of basis entries, sharing the minors of a common
    prefix of rows.
    """
    n = len(matrix)
    if n == 0:
        raise PolynomialError("empty matrix")
    for row in matrix:
        if len(row) != n:
            raise PolynomialError("matrix is not square")
    dim = matrix[0][0].dim
    for row in matrix:
        for p in row:
            if p.dim != dim:
                raise PolynomialError("matrix entries have mixed dimensions")
    minors = {0: Polynomial.constant(dim, 1)}
    for row in matrix:
        minors = _extend_minors(minors, row)
    return minors.get((1 << n) - 1, Polynomial.zero(dim))
