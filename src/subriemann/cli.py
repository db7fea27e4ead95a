"""Command-line entry point.

Subcommands: analyze, nu, nsw, dist, ballvol, growth, verify-auto,
probe-exponent, sobolev.  Exit codes: 0 success, 1 usage error (a
malformed or mis-sized option value, or a system whose ball-volume
polynomial needs more index combinations than the cap allows), 2
structural-hypothesis failure, 3 property-check failure.  All floats
print with 12 significant digits; exact rationals print as p/q.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .fields import (
    FieldError,
    check_h1,
    check_h2,
    enumerate_commutators,
    homogeneous_dimension,
    parse_system,
)
from .lattice import Lattice, LatticeError
from .metric import (
    MetricError,
    ball_volume,
    distance_field,
    growth_exponent_scan,
)
from .nsw import (
    BudgetExceeded,
    build_nsw,
    eval_lambda,
    nu_tilde,
    parse_domain_spec,
    parse_plan,
    parse_rows,
    pointwise_nu,
)
from .automorph import parse_family, verify_transitive_family
from .polynomials import PolynomialError
from .sobolev import SobolevError, bump, exponent_probe, minimize_quotient

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESIS = 2
EXIT_PROPERTY = 3


class _Parser(argparse.ArgumentParser):
    # argparse prints plain text and exits with 2 on bad usage; here every
    # usage error is the one JSON object of _fail_usage and exit code 1
    def error(self, message):
        _fail_usage(message)


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _load_system(path: str):
    try:
        return parse_system(Path(path).read_text())
    except (OSError, FieldError, PolynomialError, ValueError) as exc:
        _fail_usage(f"cannot load system spec {path!r}: {exc}")


def _fail_usage(msg: str):
    print(json.dumps({"schema_version": SCHEMA_VERSION, "error": "usage", "message": msg}),
          file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _fail_property(msg: str):
    print(json.dumps({"schema_version": SCHEMA_VERSION, "error": "property", "message": msg}),
          file=sys.stderr)
    raise SystemExit(EXIT_PROPERTY)


def _read_csv(path: str, parse, width: int):
    """``parse(text, width)`` of the file at ``path``; a bad row is a usage error."""
    try:
        return parse(Path(path).read_text(), width)
    except (OSError, ValueError) as exc:
        _fail_usage(f"cannot read {path!r}: {exc}")


# argparse types: an ArgumentTypeError reaches _Parser.error as a usage error


def _floats(text: str) -> list[float]:
    """A comma-separated list of one or more finite numbers."""
    try:
        vals = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        vals = []
    if not vals or not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"not a comma-separated list of finite numbers: {text!r}")
    return vals


def _box(text: str) -> list[tuple[float, float]]:
    """Semicolon-separated lo,hi intervals."""
    out = []
    for part in text.split(";"):
        interval = _floats(part)
        if len(interval) != 2:
            raise argparse.ArgumentTypeError(f"each interval of {text!r} must be lo,hi")
        out.append(tuple(interval))
    return out


def _point(values: list[float], option: str, dim: int) -> list[float]:
    """The point of ``option``, which must have ``dim`` coordinates."""
    if len(values) != dim:
        _fail_usage(f"{option} needs {dim} coordinates; got {len(values)}")
    return values


def _write(path_opt, text: str):
    if path_opt:
        Path(path_opt).write_text(text)
    else:
        sys.stdout.write(text)


def _write_csv(path_opt, header, rows):
    """One CSV header row, then ``rows``, to ``path_opt`` or stdout; rows end in \\n."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _write(path_opt, buf.getvalue())


# ------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    """Print the hypotheses, Q, the bracket basis, Lambda's slots and the nu table.

    A failed H.1 stops before the basis (`CommutatorBasis` refuses an
    inhomogeneous bracket), and a rank below n at the origin stops before
    Lambda (its degree-Q slot would be empty); what was not computed is
    null in the JSON report.
    """
    system = _load_system(args.system)
    h1 = check_h1(system)
    Q = homogeneous_dimension(system)
    basis = h2 = nsw = None
    if h1.ok:
        basis = enumerate_commutators(system)
        h2 = check_h2(system, basis)
        if h2.rank_at_origin == system.dim:
            nsw = build_nsw(basis)
    points = [tuple(Fraction(0) for _ in range(system.dim))]
    if args.points:
        points = _read_csv(args.points, parse_rows, system.dim)
    nu_rows = [(pt, pointwise_nu(nsw, pt)) for pt in points] if nsw is not None else []
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": system.name,
        "dim": system.dim,
        "m": system.m,
        "weights": list(system.weights),
        "Q": Q,
        "h1": h1.ok,
        "h2": h2.ok if h2 is not None else None,
        "basis_degrees": basis.degrees() if basis is not None else None,
        "basis_degrees_canonical": basis.canonical_degrees() if basis is not None else None,
        "nsw_tuple_counts": nsw.degree_counts() if nsw is not None else None,
        "nu_table": [
            {"point": [str(v) for v in pt], "nu": nu} for pt, nu in nu_rows
        ] if nsw is not None else None,
    }
    print(f"system: {system.name or args.system}")
    print(f"dim = {system.dim}, fields = {system.m}, weights = "
          + ",".join(map(str, system.weights)))
    print(f"Q = {Q}")
    print(str(h1))
    if h2 is not None:
        print(str(h2))
        print("bracket basis entries per degree (canonical): "
              + ", ".join(f"{k}:{v}" for k, v in sorted(basis.canonical_degrees().items())))
    if nsw is not None:
        print("ball-volume polynomial ordered-tuple counts per degree: "
              + ", ".join(f"{k}:{v}" for k, v in sorted(nsw.degree_counts().items())))
    for pt, nu in nu_rows:
        print("nu(" + ",".join(str(v) for v in pt) + f") = {nu}")
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    if not (h1.ok and h2.ok):
        return EXIT_HYPOTHESIS
    return EXIT_OK


def cmd_nu(args) -> int:
    system = _load_system(args.system)
    nsw = build_nsw(enumerate_commutators(system))
    points = _read_csv(args.points, parse_rows, system.dim)
    _write_csv(args.out, [f"x{i+1}" for i in range(system.dim)] + ["nu"],
               ([str(v) for v in pt] + [pointwise_nu(nsw, pt)] for pt in points))
    return EXIT_OK


def cmd_nsw(args) -> int:
    system = _load_system(args.system)
    nsw = build_nsw(enumerate_commutators(system))
    if args.json:
        Path(args.json).write_text(nsw.to_json() + "\n")
    else:
        print(nsw.to_json())
    if args.eval:
        rows = _read_csv(args.eval, parse_plan, system.dim)
        # floats, not p/q: exact Lambda at a plan row can run to a long fraction
        _write_csv(args.out, [f"x{i+1}" for i in range(system.dim)] + ["r", "lambda"],
                   ([_fmt(float(v)) for v in (*x, r, eval_lambda(nsw, x, r))]
                    for x, r in rows))
    return EXIT_OK


def _lattice(args, dim: int, **options) -> Lattice:
    """The lattice of ``--box`` and ``--spacing`` (one value, or one per axis)."""
    if len(args.box) != dim:
        _fail_usage(f"--box needs {dim} intervals, one per coordinate; got {len(args.box)}")
    if len(args.spacing) not in (1, dim):
        _fail_usage(f"--spacing needs 1 or {dim} values; got {len(args.spacing)}")
    spacing = args.spacing[0] if len(args.spacing) == 1 else args.spacing
    return Lattice(args.box, spacing, **options)


def cmd_dist(args) -> int:
    system = _load_system(args.system)
    source = _point(args.source, "--source", system.dim)
    lattice = _lattice(args, system.dim, n_random_controls=args.controls, tau=args.tau)
    dfield = distance_field(system, source, lattice, seed=args.seed)
    if args.query:
        points = ([float(v) for v in row]
                  for row in _read_csv(args.query, parse_rows, system.dim))
        rows = ([_fmt(v) for v in pt] + [_fmt(dfield.query(pt))] for pt in points)
    else:
        rows = ([_fmt(c) for c in lattice.node_coords(idx)]
                + [_fmt(float(dfield.values[idx]))] for idx in np.ndindex(*lattice.shape))
    _write_csv(args.out, [f"x{i+1}" for i in range(system.dim)] + ["distance"], rows)
    return EXIT_OK


def cmd_ballvol(args) -> int:
    system = _load_system(args.system)
    center = _point(args.center, "--center", system.dim)
    lattice = _lattice(args, system.dim, n_random_controls=args.controls, tau=args.tau)
    dfield = distance_field(system, center, lattice, seed=args.seed)
    _write_csv(args.out, ["radius", "volume"],
               ([_fmt(r), _fmt(ball_volume(system, center, r, dfield=dfield).estimate)]
                for r in args.radii))
    return EXIT_OK


def cmd_growth(args) -> int:
    system = _load_system(args.system)
    nsw = build_nsw(enumerate_commutators(system))
    try:
        domain = parse_domain_spec(Path(args.domain).read_text())
    except (OSError, ValueError) as exc:
        _fail_usage(f"cannot load domain spec: {exc}")
    if args.plan:
        plan = _read_csv(args.plan, parse_plan, system.dim)
    else:
        radii = [Fraction(1, 2 ** k) for k in range(1, 9)]
        plan = [(list(pt), r) for pt in domain.sample_points() for r in radii]
    report = growth_exponent_scan(nsw, args.kappa, plan)
    _write_csv(args.out, ["kappa", "center", "r", "volume_over_r_kappa"],
               ([_fmt(kappa), ";".join(_fmt(float(v)) for v in center), _fmt(r), _fmt(value)]
                for kappa, center, r, value in report.table))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kappa_infima": {f"{k:.12g}": f"{v:.12g}" for k, v in report.kappa_infima.items()},
        # the largest nu over the domain's sample points; null without samples
        "nu_tilde": nu_tilde(nsw, domain) if domain.samples else None,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_verify_auto(args) -> int:
    system = _load_system(args.system)
    try:
        family = parse_family(Path(args.family).read_text())
    except (OSError, FieldError, PolynomialError) as exc:
        _fail_usage(f"cannot load family spec: {exc}")
    nsw = build_nsw(enumerate_commutators(system))
    n = system.dim
    pairs = []
    if args.pairs:
        pairs = [(row[:n], row[n:]) for row in _read_csv(args.pairs, parse_rows, 2 * n)]
    report = verify_transitive_family(system, nsw, family, pairs)
    print(str(report))
    return EXIT_OK if report.ok else EXIT_PROPERTY


def cmd_probe_exponent(args) -> int:
    system = _load_system(args.system)
    dom = _lattice(args, system.dim)
    center = [0.5 * (lo + hi) for lo, hi in dom.box]
    widths = [(hi - lo) / 8.0 for lo, hi in dom.box]
    seed_fn = bump(dom, center, widths)
    report = exponent_probe(system, None, args.kappa, seed_fn, args.t)
    _write_csv(args.out, ["t", "R"],
               ([_fmt(t), _fmt(r)] for t, r in zip(report.t_values, report.ratios)))
    print(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "kappa": f"{report.kappa:.12g}",
        "slope": f"{report.slope:.12g}",
        "spread": f"{report.spread:.12g}",
    }, indent=2))
    return EXIT_OK


def cmd_sobolev(args) -> int:
    system = _load_system(args.system)
    dom = _lattice(args, system.dim)
    res = minimize_quotient(
        system, dom, p=args.p, n_starts=args.starts,
        max_iter=args.max_iter, rel_tol=args.tol, seed=args.seed,
    )
    summary = {
        "schema_version": SCHEMA_VERSION,
        "constant": f"{res.constant:.12g}",
        "iterations": res.iterations,
        "evaluations": res.evaluations,
        "grad_norm": f"{res.grad_norm:.12g}",
        "decrement": f"{res.decrement:.12g}",
        "converged": res.converged,
        "stop_reason": res.stop_reason,
        "start_quotients": [f"{q:.12g}" for q in res.start_quotients],
        "p": f"{args.p:.12g}",
        "p_star": f"{res.p_star:.12g}",
        "box": dom.box,
        "spacing": dom.spacing,
    }
    print(json.dumps(summary, indent=2))
    if args.trace:
        _write_csv(args.trace, ["iteration", "quotient"],
                   ([i, _fmt(q)] for i, q in enumerate(res.trace)))
    if args.dump_grid:
        raw = Path(args.dump_grid)
        res.minimizer.values.astype("<f8").tofile(raw)
        raw.with_suffix(raw.suffix + ".json").write_text(json.dumps({
            "schema_version": SCHEMA_VERSION,
            "dtype": "<f8",
            "order": "C",
            "shape": list(dom.shape),
            "box": dom.box,
            "spacing": dom.spacing,
        }, indent=2) + "\n")
    return EXIT_OK


# ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="subriemann", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def csv_out(p):
        p.add_argument("--out", default=None, help="CSV output file (default: stdout)")

    p = sub.add_parser("analyze", help="hypothesis checks, Q, bracket basis, nu table")
    p.add_argument("system")
    p.add_argument("--points", help="CSV of rational sample points for the nu table")
    p.add_argument("--json", help="write the JSON report here")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("nu", help="pointwise homogeneous dimension at sample points")
    p.add_argument("system")
    p.add_argument("--points", required=True)
    csv_out(p)
    p.set_defaults(func=cmd_nu)

    p = sub.add_parser("nsw", help="ball-volume polynomial dump and evaluation")
    p.add_argument("system")
    p.add_argument("--json", help="write the polynomial JSON here")
    p.add_argument("--eval", help="CSV of x...,r rows to evaluate")
    csv_out(p)
    p.set_defaults(func=cmd_nsw)

    def box_opts(p):
        p.add_argument("--box", type=_box, required=True, help="lo,hi;lo,hi;...")
        p.add_argument("--spacing", type=_floats, required=True,
                       help="h, or h per axis, comma separated")

    def lattice_opts(p):
        box_opts(p)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--controls", type=int, default=None,
                       help="extra random control directions")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the random control directions")

    p = sub.add_parser("dist", help="lattice subunit distance field")
    p.add_argument("system")
    p.add_argument("--source", type=_floats, required=True)
    lattice_opts(p)
    p.add_argument("--query", help="CSV of target points (default: dump all nodes)")
    csv_out(p)
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("ballvol", help="subunit ball volume estimates")
    p.add_argument("system")
    p.add_argument("--center", type=_floats, required=True)
    p.add_argument("--radii", type=_floats, required=True)
    lattice_opts(p)
    csv_out(p)
    p.set_defaults(func=cmd_ballvol)

    p = sub.add_parser("growth", help="volume-growth exponent scan (Lambda proxy)")
    p.add_argument("system")
    p.add_argument("--domain", required=True)
    p.add_argument("--kappa", type=_floats, required=True)
    p.add_argument("--plan", help="CSV of x...,r evaluation rows")
    csv_out(p)
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("verify-auto", help="certify a transitive automorphism family")
    p.add_argument("system")
    p.add_argument("family")
    p.add_argument("--pairs", help="CSV rows p...,q... of level-set sample pairs")
    p.set_defaults(func=cmd_verify_auto)

    p = sub.add_parser("probe-exponent", help="R(t) scaling probe for one kappa")
    p.add_argument("system")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--t", type=_floats, required=True, help="comma-separated t values")
    box_opts(p)
    csv_out(p)
    p.set_defaults(func=cmd_probe_exponent)

    p = sub.add_parser("sobolev", help="minimize the discrete Sobolev quotient")
    p.add_argument("system")
    box_opts(p)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--max-iter", type=int, default=20000)
    p.add_argument("--tol", type=float,
                   default=inspect.signature(minimize_quotient).parameters["rel_tol"].default,
                   help="stop when the decrease that the L-BFGS model predicts (-g.d) "
                        "falls below TOL times the quotient (default %(default)g); a TOL "
                        "below 1e-12, 0 included, stops at that rounding floor")
    p.add_argument("--starts", type=int, default=3)
    p.add_argument("--trace", help="write the per-iterate quotient CSV here")
    p.add_argument("--dump-grid", help="write the raw minimizer grid (little-endian f8)")
    p.add_argument("--seed", type=int, default=0, help="seed of the random starts")
    p.set_defaults(func=cmd_sobolev)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except BudgetExceeded as exc:
        # the library's way past the cap (allow_over_cap) is no option here
        _fail_usage(f"the ball-volume polynomial needs {exc.count} index combinations, "
                    f"more than the cap of {exc.cap}")
    except (FieldError, PolynomialError, LatticeError, MetricError, SobolevError,
            ValueError) as exc:
        _fail_property(str(exc))


if __name__ == "__main__":
    sys.exit(main())
