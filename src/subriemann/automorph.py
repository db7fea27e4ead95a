"""Certification of volume-preserving automorphisms of a field system.

A polynomial map A is certified when the pushforward identity
J_A(x) . X_iI(x) = (X_iI)(A(x)) holds as a polynomial identity for every
generator and |det J_A| is identically 1.  Maps may carry formal
parameters (used for transitive families T(w, .) with w ranging over the
maximal level set), in which case residuals must vanish as polynomials
in point and parameters jointly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .fields import FieldError, VectorFieldSystem, check_h1, spec_lines
from .nsw import BallPolynomial, pointwise_nu
from .polynomials import Polynomial, format_polynomial, parse_polynomial, poly_det


class PolynomialMap:
    """A : R^n -> R^n with polynomial components, optionally parametric.

    Components are polynomials in n + n_params variables: the ambient
    point first, formal parameters after.  No inverse is kept: a
    certificate needs only the map and its Jacobian.
    """

    def __init__(self, components: Sequence[Polynomial], n_params: int = 0):
        if not components:
            raise FieldError("a map needs components")
        n = len(components)
        for c in components:
            if c.dim != n + n_params:
                raise FieldError("component dimension must be n + n_params")
        self.dim = n
        self.n_params = n_params
        self.components = tuple(components)

    @classmethod
    def identity(cls, n: int) -> "PolynomialMap":
        """The identity map, the base case of the planned symmetry-flow maps."""
        return cls([Polynomial.variable(n, j) for j in range(1, n + 1)])

    @classmethod
    def translation(cls, shift: Sequence) -> "PolynomialMap":
        """x -> x + shift, the simplest certified move of a box."""
        n = len(shift)
        return cls([Polynomial.variable(n, j) + Fraction(shift[j - 1]) for j in range(1, n + 1)])

    def __call__(self, point):
        """Exact image of a rational point (parameter-free maps only)."""
        if self.n_params:
            raise FieldError("parametric map needs parameter values; use at_params()")
        return [c.eval(point) for c in self.components]

    def at_params(self, params: Sequence) -> "PolynomialMap":
        """Bind the formal parameters to rational values."""
        if len(params) != self.n_params:
            raise FieldError("parameter count mismatch")
        n = self.dim
        bound = []
        for c in self.components:
            for k, v in enumerate(params, start=1):
                c = c.substitute_value(n + k, v)
            bound.append(_drop_trailing_vars(c, n))
        return PolynomialMap(bound)


def _drop_trailing_vars(p: Polynomial, n: int) -> Polynomial:
    out = {}
    for e, c in p.terms.items():
        if any(e[n:]):
            raise FieldError("polynomial still involves formal parameters")
        out[e[:n]] = c
    return Polynomial(n, out)


@dataclass
class AutomorphismCertificate:
    map: PolynomialMap
    residuals: list  # per field: list of residual component polynomials
    jacobian_det: Polynomial
    pushforward_ok: bool
    unimodular: bool

    @property
    def ok(self) -> bool:
        return self.pushforward_ok and self.unimodular

    def __str__(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        lines = [f"automorphism certificate: {verdict}"]
        if not self.pushforward_ok:
            for i, res in enumerate(self.residuals, start=1):
                bad = [f"slot {k + 1}: {format_polynomial(p)}" for k, p in enumerate(res) if not p.is_zero()]
                if bad:
                    lines.append(f"  X{i} residual " + "; ".join(bad))
        if not self.unimodular:
            lines.append(f"  det J = {format_polynomial(self.jacobian_det)}")
        return "\n".join(lines)


def certify(system: VectorFieldSystem, pmap: PolynomialMap) -> AutomorphismCertificate:
    """Symbolic pushforward and unimodularity check; failures are reported."""
    n = system.dim
    if pmap.dim != n:
        raise FieldError("map dimension does not match the system")
    total = n + pmap.n_params
    jac = [[pmap.components[k].partial(j) for j in range(1, n + 1)] for k in range(n)]
    residuals = []
    all_zero = True
    for fld in system.fields:
        lifted = [c.lift(total) for c in fld.coeffs]
        res_field = []
        for k in range(n):
            lhs = Polynomial.zero(total)
            for j in range(n):
                if not jac[k][j].is_zero() and not lifted[j].is_zero():
                    lhs = lhs + jac[k][j] * lifted[j]
            rhs = fld.coeffs[k].compose(list(pmap.components))
            res = lhs - rhs
            res_field.append(res)
            if not res.is_zero():
                all_zero = False
        residuals.append(res_field)
    det = poly_det(jac)
    unimodular = det.is_constant() and abs(det.constant_value()) == 1
    return AutomorphismCertificate(pmap, residuals, det, all_zero, unimodular)


def translation_directions(system: VectorFieldSystem) -> set[int]:
    """Axes j such that every generator coefficient is independent of x_j.

    Kept until the symmetry algebra {Z : [Z, X_j] = 0, div Z = 0} replaces it.
    """
    out = set()
    for j in range(1, system.dim + 1):
        if all(c.degree_in(j) <= 0 for f in system.fields for c in f.coeffs):
            out.add(j)
    if check_h1(system).ok:
        top = {j for j, a in enumerate(system.weights, start=1) if a == system.weights[-1]}
        if not top <= out:
            raise FieldError(
                "translation-invariance inclusion violated for top-weight axes; "
                "the system data are inconsistent"
            )
    return out


class TransitiveFamily:
    """Template T(w, x) with w restricted to a coordinate-subspace H.

    Components are polynomials in 2n variables: x1..xn then w1..wn.
    ``h_zero_axes`` lists the axes pinned to 0 on the candidate H; those
    parameters are substituted away before any check, since T(w, .) is
    only defined for w in H.
    """

    def __init__(self, dim: int, h_zero_axes: Sequence[int],
                 components: Sequence[Polynomial],
                 witness: Sequence[Polynomial] | None = None):
        if len(components) != dim:
            raise FieldError("one component per coordinate is required")
        for c in components:
            if c.dim != 2 * dim:
                raise FieldError("family components live in 2n variables (x then w)")
        self.dim = dim
        self.h_zero_axes = tuple(sorted(set(int(a) for a in h_zero_axes)))
        comps = []
        for c in components:
            for a in self.h_zero_axes:
                c = c.substitute_value(dim + a, 0)
            comps.append(c)
        self.components = tuple(comps)
        self.witness = tuple(witness) if witness is not None else None
        if self.witness is not None:
            if len(self.witness) != dim:
                raise FieldError("one witness component per coordinate is required")
            for wpoly in self.witness:
                if wpoly.dim != 2 * dim:
                    raise FieldError("witness components live in 2n variables (p then q)")

    def in_candidate_h(self, point) -> bool:
        return all(Fraction(point[a - 1]) == 0 for a in self.h_zero_axes)

    def as_map(self) -> PolynomialMap:
        """T with the unconstrained w-components left formal."""
        return PolynomialMap(list(self.components), n_params=self.dim)

    def at(self, w_point) -> PolynomialMap:
        if len(w_point) != self.dim:
            raise FieldError("parameter point dimension mismatch")
        if not self.in_candidate_h(w_point):
            raise FieldError(f"parameter {w_point} is not in the candidate level set")
        return self.as_map().at_params(w_point)

    def witness_for(self, p, q) -> list[Fraction]:
        if self.witness is None:
            raise FieldError("family has no witness formula")
        args = [Fraction(v) for v in p] + [Fraction(v) for v in q]
        return [wp.eval(args) for wp in self.witness]


@dataclass
class FamilyReport:
    anchored: bool          # T(w, 0) = w as polynomials
    certificate: AutomorphismCertificate
    pair_results: list      # (p, q, w, ok)
    bad_samples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.anchored
            and self.certificate.ok
            and not self.bad_samples
            and all(ok for *_, ok in self.pair_results)
        )

    def __str__(self) -> str:
        lines = [f"transitive family: {'PASS' if self.ok else 'FAIL'}"]
        lines.append(f"  anchor T(w,0)=w: {'ok' if self.anchored else 'violated'}")
        lines.append(f"  automorphism identity: {'ok' if self.certificate.ok else 'violated'}")
        for p, q, w, ok in self.pair_results:
            lines.append(f"  T(w,p)=q for p={p}, q={q}: {'ok' if ok else 'FAIL'} (w={w})")
        for p, why in self.bad_samples:
            lines.append(f"  sample {p}: {why}")
        return "\n".join(lines)


def verify_transitive_family(
    system: VectorFieldSystem,
    nsw: BallPolynomial,
    family: TransitiveFamily,
    sample_pairs: Sequence[tuple[Sequence, Sequence]] = (),
) -> FamilyReport:
    """Check anchoring, the parametric pushforward identity, and witnesses."""
    n = system.dim
    if family.dim != n:
        raise FieldError("family dimension does not match the system")
    # (a) anchoring: substituting x = 0 must recover the parameter vector
    anchored = True
    for i, comp in enumerate(family.components, start=1):
        at_zero = comp
        for j in range(1, n + 1):
            at_zero = at_zero.substitute_value(j, 0)
        expected = (
            Polynomial.zero(2 * n)
            if i in family.h_zero_axes
            else Polynomial.variable(2 * n, n + i)
        )
        if at_zero != expected:
            anchored = False
    # (b) the pushforward identity with formal parameters
    cert = certify(system, family.as_map())
    # (c) witness closure on sample pairs
    pair_results = []
    bad = []
    for p, q in sample_pairs:
        p = [Fraction(v) for v in p]
        q = [Fraction(v) for v in q]
        for label, pt in (("p", p), ("q", q)):
            if pointwise_nu(nsw, pt) != nsw.Q:
                bad.append((tuple(pt), f"sample {label} is not in the maximal level set"))
        w = family.witness_for(p, q)
        if not family.in_candidate_h(w):
            bad.append((tuple(w), "witness leaves the candidate level set"))
            continue
        image = family.at(w)(p)
        pair_results.append((tuple(p), tuple(q), tuple(w), image == q))
    return FamilyReport(anchored, cert, pair_results, bad)


# ---------------------------------------------------------------------
# family specification files
#
#   dim = 3
#   h_zero = 1
#   T1 = x1
#   T2 = x2 + w2
#   T3 = x3 + w3 - 2*x1*x2*w2 - x1*w2^2 + 2*x2^2*w2 + 2*x2*w2^2
#   W1 = 0
#   W2 = q2 - p2
#   W3 = q3 - p3 + 2*p2^2*q2 - 2*p2*q2^2
# ---------------------------------------------------------------------

_W_VAR = re.compile(r"\bw(\d+)\b")
_P_VAR = re.compile(r"\bp(\d+)\b")
_Q_VAR = re.compile(r"\bq(\d+)\b")


def parse_family(text: str) -> TransitiveFamily:
    dim = None
    h_zero: list[int] = []
    t_lines: dict[int, str] = {}
    w_lines: dict[int, str] = {}
    for raw, key, value in spec_lines(text):
        if key == "dim":
            dim = int(value)
        elif key == "h_zero":
            h_zero = [int(v) for v in value.split(",") if v.strip()]
        elif re.fullmatch(r"T\d+", key):
            t_lines[int(key[1:])] = value
        elif re.fullmatch(r"W\d+", key):
            w_lines[int(key[1:])] = value
        else:
            raise FieldError(f"unrecognized line in family spec: {raw!r}")
    if dim is None:
        raise FieldError("family spec must declare dim")
    if sorted(t_lines) != list(range(1, dim + 1)):
        raise FieldError("family spec must define T1..Tn")
    components = [
        parse_polynomial(_W_VAR.sub(lambda m: f"x{dim + int(m.group(1))}", t_lines[i]), 2 * dim)
        for i in range(1, dim + 1)
    ]
    witness = None
    if w_lines:
        if sorted(w_lines) != list(range(1, dim + 1)):
            raise FieldError("family spec must define W1..Wn or none")
        witness = []
        for i in range(1, dim + 1):
            body = _Q_VAR.sub(lambda m: f"x{dim + int(m.group(1))}", w_lines[i])
            body = _P_VAR.sub(lambda m: f"x{m.group(1)}", body)
            witness.append(parse_polynomial(body, 2 * dim))
    return TransitiveFamily(dim, h_zero, components, witness)
