"""The two benchmark workloads and the checks on their outputs.

``exact`` runs the exact symbolic layers.  ``numeric`` runs three parts
in sequence: the lattice metric (``MetricPart``), Euclidean R^3 Sobolev
(``SobolevR3Part``) and Grushin Sobolev (``SobolevGrushinPart``).  Each
workload makes its inputs from the run seed in ``setup`` and then runs
identical passes.  A pass calls the library's public functions
through ``Tracer.call`` and records every checked operation in a
``PassOutput``; it never raises for a failed rule.  The configurations
are those of the acceptance criteria in ``tests/test_acceptance.py``;
the benchmark re-implements them here and never runs pytest.

Importing this module imports numpy, scipy and the library, so the
runner imports it inside the timed set-up.
"""

from __future__ import annotations

import hashlib
import math
import random
import types
from fractions import Fraction

import numpy as np

from subriemann import fixtures as fx
from subriemann.automorph import TransitiveFamily, parse_family, verify_transitive_family
from subriemann.fields import (
    VectorField,
    check_h1,
    check_h2,
    enumerate_commutators,
    flag_at,
    lie_bracket,
    parse_system,
)
from subriemann.fixtures import fixture_path
from subriemann.metric import (
    BallBoxReport,
    LatticeSpec,
    ball_box_scan,
    ball_volume,
    distance_field,
    lattice_for_ball,
)
from subriemann.nsw import build_nsw, eval_lambda, pointwise_nu
from subriemann.polynomials import Polynomial, parse_polynomial
from subriemann.sobolev import (
    GridDomain,
    GridFunction,
    bump,
    decay_profile,
    energy_report,
    exponent_probe,
    minimize_quotient,
)


class PassOutput:
    """Checked operations, reported values and the output digest of a pass.

    An ``exact`` check has one right answer (an exact identity, or a
    well-formed output); when it fails the program is wrong.  The other
    checks are the numerical acceptance rules at the workload's fixed
    budgets; when one fails the operation counts as failed, but the
    outputs are still those the program gives.
    """

    def __init__(self):
        self.checks: list[tuple[str, bool, bool, str]] = []
        self.values: dict[str, float] = {}
        self._digest = hashlib.sha256()

    def check(self, name: str, ok: bool, detail: str = "", exact: bool = True) -> bool:
        self.checks.append((name, bool(ok), exact, detail))
        return bool(ok)

    def error(self, name: str, exc: Exception) -> None:
        self.check(name, False, f"raised {exc!r}")

    def digest(self, *items) -> None:
        for item in items:
            if isinstance(item, np.ndarray):
                self._digest.update(str(item.dtype).encode())
                self._digest.update(np.ascontiguousarray(item).tobytes())
            else:
                self._digest.update(repr(item).encode())

    @property
    def fingerprint(self) -> str:
        return self._digest.hexdigest()


def _nodes(shape) -> int:
    return int(np.prod(shape))


def _load_fixture(tr, name: str):
    """A shipped system, parsed from its .vf spec file."""
    return tr.call("fields.parse_system", parse_system, fixture_path(f"{name}.vf").read_text())


# ---------------------------------------------------------------------
# exact: commutators, hypotheses, Lambda, nu, flags, families, laws
# ---------------------------------------------------------------------

# expected-Q table of criterion 1, for the shipped .vf fixtures
FIXTURE_Q = {
    "euclidean2": 2,
    "heisenberg1": 4,
    "grushin-1-1-2": 4,
    "bony3": 6,
    "martinet": 5,
    "r4-fourfields": 11,
    "example6": 5,
    "ex31": 6,
}

# larger parametric systems; Q = 2n+2, n(n+1)/2 and m + l(alpha+1)
PARAMETRIC = {
    "heisenberg(3)": (lambda: fx.heisenberg(3), 8),
    "bony(6)": (lambda: fx.bony(6), 21),
    "grushin(1,2,4)": (lambda: fx.grushin(1, 2, 4), 11),
    "grushin(1,2,6)": (lambda: fx.grushin(1, 2, 6), 15),
    "grushin(2,2,2)": (lambda: fx.grushin(2, 2, 2), 8),
}

# criterion 10: witness pairs inside the maximal level set
FAMILY_PAIRS = {
    "example6": [([0, 1, Fraction(1, 2)], [0, -1, 2]),
                 ([0, Fraction(1, 3), 0], [0, 0, Fraction(2, 5)])],
    "r4-fourfields": [([0, 1, 2, 3], [0, -1, Fraction(1, 2), 1])],
}


def _rational(rng: random.Random, max_num: int = 6) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, 5))


def _random_poly(rng: random.Random, dim: int) -> Polynomial:
    terms: dict = {}
    for _ in range(rng.randint(1, 2)):
        e = tuple(rng.randint(0, 2) for _ in range(dim))
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if c:
            terms[e] = terms.get(e, Fraction(0)) + c
    return Polynomial(dim, terms)


def _law_instance(f, g, point, weights, Y, Z, W) -> bool:
    """The criterion-11 identities on one random instance."""
    ok = (f + g).eval(point) == f.eval(point) + g.eval(point)
    ok = ok and (f * g).eval(point) == f.eval(point) * g.eval(point)
    ok = ok and (f * g).dilate(weights) == f.dilate(weights) * g.dilate(weights)
    ok = ok and (f + g).dilate(weights) == f.dilate(weights) + g.dilate(weights)
    ok = ok and lie_bracket(Y, Z) == -lie_bracket(Z, Y)
    jacobi = (lie_bracket(Y, lie_bracket(Z, W))
              + lie_bracket(Z, lie_bracket(W, Y))
              + lie_bracket(W, lie_bracket(Y, Z)))
    return ok and jacobi.is_zero()


class Exact:
    # a pass takes several seconds, so each pass already averages over
    # short CPU-speed swings of a shared host
    points_per_system = 100
    law_instances = 200

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr) -> None:
        self.systems = []
        for name, q in FIXTURE_Q.items():
            self.systems.append((name, _load_fixture(tr, name), q))
        for label, (make, q) in PARAMETRIC.items():
            self.systems.append((label, make(), q))
        self.families = {
            name: tr.call("automorph.parse_family", parse_family,
                          fixture_path(f"{name}.family").read_text())
            for name in FAMILY_PAIRS
        }
        # criterion 10's perturbed map: must fail certification
        fam = self.families["example6"]
        broken = list(fam.components)
        broken[2] = broken[2] + tr.call("polynomials.parse_polynomial", parse_polynomial,
                                        "x1*x5^2", 6)
        self.mutated = TransitiveFamily(3, (1,), broken, fam.witness)

        rng = random.Random(self.seed)
        self.points = {
            label: [
                ([_rational(rng) for _ in range(system.dim)],
                 Fraction(rng.randint(1, 8), rng.randint(1, 8)),
                 Fraction(rng.randint(1, 6), rng.randint(1, 6)))
                for _ in range(self.points_per_system)
            ]
            for label, system, _ in self.systems
        }
        self.laws = []
        for _ in range(self.law_instances):
            dim = rng.randint(2, 3)
            weights = sorted(rng.randint(1, 3) for _ in range(dim))
            f, g = _random_poly(rng, dim), _random_poly(rng, dim)
            point = [_rational(rng, 4) for _ in range(dim)]
            fields = [VectorField([_random_poly(rng, dim) for _ in range(dim)])
                      for _ in range(3)]
            self.laws.append((f, g, point, weights, *fields))

    def run_pass(self, tr, out: PassOutput) -> None:
        with tr.step("analyse") as step:
            analysed = {label: (system, self._analyse(tr, out, label, system, q_expected))
                        for label, system, q_expected in self.systems}
        out.values["exact.analyses_per_s"] = len(self.systems) / step.seconds

        with tr.step("families"):
            for name, pairs in FAMILY_PAIRS.items():
                rep = tr.call("automorph.verify_transitive_family", verify_transitive_family,
                              *analysed[name], self.families[name], pairs)
                out.check(f"{name}: family verifies", rep.ok)
                out.digest(str(rep))
            rep = tr.call("automorph.verify_transitive_family", verify_transitive_family,
                          *analysed["example6"], self.mutated, FAMILY_PAIRS["example6"])
            residual = any(not p.is_zero() for res in rep.certificate.residuals for p in res)
            out.check("example6: mutated family fails", not rep.ok and residual)
            out.digest(str(rep))

        with tr.step("laws"):
            for i, inst in enumerate(self.laws):
                ok = tr.call("polynomials.laws", _law_instance, *inst)
                out.check(f"law instance {i}", ok)
                out.digest(ok)

    def _analyse(self, tr, out, label, system, q_expected):
        """Check one system end to end; return its ball-volume polynomial."""
        basis = tr.call("fields.enumerate_commutators", enumerate_commutators, system)
        h1 = tr.call("fields.check_h1", check_h1, system)
        h2 = tr.call("fields.check_h2", check_h2, system, basis)
        nsw = tr.call("nsw.build_nsw", build_nsw, basis, allow_over_cap=True)
        tr.count("exact.systems")
        tr.count("fields.basis_entries", len(basis))
        tr.count("nsw.determinants", math.comb(len(basis), system.dim))
        tr.count("nsw.nonzero", sum(len(v) for v in nsw.slots.values()))
        out.check(f"{label}: Q table", nsw.Q == q_expected, f"Q = {nsw.Q}, expected {q_expected}")
        out.check(f"{label}: H.1 and H.2 hold", h1.ok and h2.ok)
        out.digest(label, tr.call("nsw.to_json", nsw.to_json))
        for x, r, t in self.points[label]:
            lam = tr.call("nsw.eval_lambda", eval_lambda, nsw, x, r)
            nu = tr.call("nsw.pointwise_nu", pointwise_nu, nsw, x)
            flag = tr.call("fields.flag_at", flag_at, basis, x)
            lam_t = tr.call("nsw.eval_lambda", eval_lambda, nsw, system.dilation(x, t), t * r)
            out.check(f"{label}: nu = flag sum at {x}", nu == flag.nu, f"{nu} vs {flag.nu}")
            out.check(f"{label}: Lambda covariance at {x}, r={r}, t={t}",
                      lam > 0 and lam_t == t ** nsw.Q * lam)
            out.digest(lam, nu, flag.nu_j, lam_t)
        return nsw


# ---------------------------------------------------------------------
# metric: criterion-4 ball-box scan, one large Martinet field
# ---------------------------------------------------------------------

# criterion 4; a system's spread is max/min of |B|/Lambda over its 15 rows
SCAN_CENTRES = {
    "grushin-1-1-2": [[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]],
    "martinet": [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.5, 0.25]],
}
SCAN_RADII = [2.0 ** -k for k in range(1, 6)]
SPREAD_LIMIT = 50.0

# 65^3 nodes sized for B(x, 2r) at r = 1/4; every node is reached
FIELD_CENTRE = [0.5, 0.0, 0.0]
FIELD_RADIUS = 0.25
FIELD_NODES_PER_AXIS = 64
DOUBLING_RADII = (0.05, 0.1, 0.15)  # 2r stays inside max_reliable_radius (0.4)
# The 65^3 BFS takes 2.0 s to 3.5 s depending on the direction set alone,
# which would swamp run-to-run comparisons, so this field's control seed
# is fixed (the decay test's); the scan's seeds come from --seed.
FIELD_SEED = 3


def _count_field(tr, system, lattice) -> int:
    """Count one distance field: nodes and neighbour-table entries."""
    nodes = _nodes(lattice.shape)
    n_random = lattice.n_random_controls
    directions = 2 * system.m + (2 * system.m ** 2 if n_random is None else n_random)
    tr.count("metric.distance_fields")
    tr.count("metric.nodes", nodes)
    tr.count("metric.table_entries", nodes * directions)
    return nodes


def _check_field(tr, out, label, df, nodes: int) -> None:
    """A BFS labelling: 0 at the source, whole hops of tau elsewhere."""
    finite = np.isfinite(df.values)
    hops = df.values[finite] / df.tau
    ok = (df.query(df.source) == 0.0 and bool(finite.any())
          and bool(np.all(np.abs(hops - np.rint(hops)) < 1e-9)))
    out.check(f"{label}: distance field well formed", ok)
    tr.count("metric.reached_nodes", int(finite.sum()))
    tr.count("metric.direct_nodes", nodes)
    out.digest(df.values)


def _add_labelling(out, nodes: int, seconds: float) -> None:
    """Accumulate lattice nodes labelled and the time spent labelling them."""
    out.values["metric.labelled_nodes"] = out.values.get("metric.labelled_nodes", 0) + nodes
    out.values["metric.labelling_s"] = out.values.get("metric.labelling_s", 0.0) + seconds
    out.values["metric.nodes_per_s"] = (out.values["metric.labelled_nodes"]
                                        / out.values["metric.labelling_s"])


class MetricPart:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr) -> None:
        self.systems = {name: _load_fixture(tr, name) for name in SCAN_CENTRES}
        rng = random.Random(self.seed)
        # one control seed per scan centre: the BFS cost depends on the
        # direction set, and six sets vary less than one
        self.scan_seeds = {name: [rng.randrange(2 ** 31) for _ in centres]
                           for name, centres in SCAN_CENTRES.items()}

    def run_pass(self, tr, out: PassOutput) -> None:
        with tr.step("exact_layer"):
            bases, polys = {}, {}
            for name, system in self.systems.items():
                bases[name] = tr.call("fields.enumerate_commutators", enumerate_commutators, system)
                polys[name] = tr.call("nsw.build_nsw", build_nsw, bases[name])

        spreads = []
        nodes_before = tr.counts["metric.nodes"]
        with tr.step("scan") as scan_step:
            for name, centres in SCAN_CENTRES.items():
                system, basis = self.systems[name], bases[name]

                def lattice_for(c, r, system=system, basis=basis):
                    lat = tr.call("metric.lattice_for_ball", lattice_for_ball, basis, c, r)
                    _count_field(tr, system, lat)
                    return lat

                rows = []
                for centre, seed in zip(centres, self.scan_seeds[name]):
                    rows += tr.call("metric.ball_box_scan", ball_box_scan, system, polys[name],
                                    [centre], SCAN_RADII, lattice_for=lattice_for,
                                    seed=seed).rows
                rep = BallBoxReport(rows)
                spreads.append(rep.spread)
                out.check(f"{name}: ball-box spread <= {SPREAD_LIMIT:g}",
                          rep.spread <= SPREAD_LIMIT, f"{rep.spread:.2f}", exact=False)
                out.digest(name, [(row.volume, row.lam) for row in rep.rows])
        out.values["metric.ballbox_spread"] = max(spreads)

        martinet = self.systems["martinet"]
        with tr.step("field") as field_step:
            lat = tr.call("metric.lattice_for_ball", lattice_for_ball, bases["martinet"],
                          FIELD_CENTRE, FIELD_RADIUS, nodes_per_axis=FIELD_NODES_PER_AXIS)
            nodes = _count_field(tr, martinet, lat)
            df = tr.call("metric.distance_field", distance_field, martinet, FIELD_CENTRE, lat,
                         seed=FIELD_SEED)
        _check_field(tr, out, "martinet 65^3", df, nodes)
        _add_labelling(out, tr.counts["metric.nodes"] - nodes_before,
                       scan_step.seconds + field_step.seconds)

        with tr.step("doubling"):
            for r in DOUBLING_RADII:
                v1 = tr.call("metric.ball_volume", ball_volume, martinet, FIELD_CENTRE, r,
                             dfield=df).estimate
                v2 = tr.call("metric.ball_volume", ball_volume, martinet, FIELD_CENTRE, 2 * r,
                             dfield=df).estimate
                out.check(f"doubling at r={r}: 0 < |B(r)| <= |B(2r)|", 0 < v1 <= v2,
                          f"{v1:.6g}, {v2:.6g}")
                out.digest(v1, v2)


# ---------------------------------------------------------------------
# sobolev-r3: Euclidean R^3, p = 2, 33^3 grid
# ---------------------------------------------------------------------

R3_BOX = [(-8.0, 8.0)] * 3
R3_SPACING = 0.5
R3_MAX_ITER = 4000
ORACLE_LAMBDAS = (1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)
ORACLE_R0 = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
ORACLE_TOL = 0.05          # criterion 7
EUCLIDEAN_DECAY = (-1.0, 0.15, 0.5, 1.5)  # target, tolerance, annulus


def _tail_rel_drop(res, patience: int = 50) -> float:
    """Relative quotient drop over the last ``patience`` accepted iterates."""
    trace = res.trace
    prev = trace[max(0, len(trace) - 1 - patience)]
    return (prev - trace[-1]) / prev


def _record_solve(tr, out, res, max_iter: int) -> None:
    tr.count("sobolev.iterations", res.iterations)
    tr.count("sobolev.stop_max_iter", int(res.iterations == max_iter))
    drop = _tail_rel_drop(res)
    out.values["sobolev.tail_rel_drop"] = max(out.values.get("sobolev.tail_rel_drop", drop), drop)
    out.digest(res.constant, res.iterations, res.minimizer.values)


def _grid(tr, system, box, spacing) -> GridDomain:
    dom = tr.call("sobolev.GridDomain", GridDomain, box, spacing)
    tr.call("sobolev.field_grids", dom.field_grids, system)
    return dom


class SobolevR3Part:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr) -> None:
        self.system = fx.euclidean(3)
        rng = random.Random(self.seed)
        self.centre = [rng.uniform(-0.5, 0.5) for _ in range(3)]

    def run_pass(self, tr, out: PassOutput) -> None:
        system = self.system
        with tr.step("grid"):
            dom = _grid(tr, system, R3_BOX, R3_SPACING)
        with tr.step("oracle"):
            oracle, lam_best = self._oracle(tr, dom)
        out.check("bubble oracle minimum is interior in lambda",
                  ORACLE_LAMBDAS[0] < lam_best < ORACLE_LAMBDAS[-1], f"lambda = {lam_best:g}",
                  exact=False)
        with tr.step("minimize") as solve:
            res = tr.call("sobolev.minimize_quotient", minimize_quotient, system, dom, 2.0,
                          init_centers=[self.centre], n_starts=1, max_iter=R3_MAX_ITER)
        _record_solve(tr, out, res, R3_MAX_ITER)
        rel = (res.constant - oracle) / oracle
        out.values["sobolev.time_to_solution_s"] = solve.seconds
        out.values["sobolev.constant_rel_oracle"] = rel
        out.check(f"R^3 constant within {ORACLE_TOL:.0%} of the oracle", abs(rel) <= ORACLE_TOL,
                  f"{res.constant:.4f} vs {oracle:.4f}, rel {rel:+.2%}", exact=False)
        out.digest(oracle)

        with tr.step("decay"):
            u = res.minimizer
            peak = np.unravel_index(np.abs(u.values).argmax(), dom.shape)
            c = dom.node_coords(peak)
            rr = np.sqrt(sum((m - ck) ** 2 for m, ck in zip(dom.mesh, c)))
            target, tol, r_in, r_out = EUCLIDEAN_DECAY
            fit = tr.call("sobolev.decay_profile", decay_profile, u,
                          types.SimpleNamespace(values=rr), r_in, r_out)
        out.check(f"Euclidean decay {target:g} +/- {tol:g}",
                  not fit.rejected and abs(fit.exponent - target) <= tol,
                  f"{fit.exponent:.3f}", exact=False)
        out.digest(fit.exponent)

    def _oracle(self, tr, dom):
        """Criterion 7's cut-off Aubin-Talenti bubbles, evaluated on the grid."""
        r = np.sqrt(sum(m ** 2 for m in dom.mesh))
        best = (math.inf, None)
        for lam in ORACLE_LAMBDAS:
            prof = lam ** 0.5 * (1.0 + lam ** 2 * r ** 2) ** -0.5
            for r0 in ORACLE_R0:
                cut = np.cos(0.5 * np.pi * np.clip((r - r0) / (7.5 - r0), 0.0, 1.0)) ** 2
                rep = tr.call("sobolev.energy_report", energy_report, self.system,
                              GridFunction(dom, prof * cut), 2.0)
                tr.count("sobolev.energy_nodes", _nodes(dom.shape))
                best = min(best, (rep.quotient, lam))
        return best


# ---------------------------------------------------------------------
# sobolev-grushin: criteria 8 and 9, a p = 3 solve, the decay grid
# ---------------------------------------------------------------------

GRUSHIN_SPACING = 0.25
C8_BOXES = ([(-4.0, 4.0), (-4.0, 4.0)], [(-4.0, 4.0), (1.0, 9.0)])
C8_MAX_ITER = 800
C8_TOL = 0.10
C9_BOX = [(-2.0, 2.0), (-2.0, 2.0)]
C9_T = [1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5]
C9_SUB = (3.5, 4.0)        # kappa = Q - 1/2: spread must reach 4
C9_CRIT = (4.0, 1.05)      # kappa = Q: spread must stay within 1.05
DECAY_BOX = [(-8.0, 8.0), (-80.0, 80.0)]
DECAY_SPACING = [0.125, 1.0]
DECAY_MAX_ITER = 1000      # fixed budget; the fit below is expected to miss
GRUSHIN_DECAY = (-2.0, 0.3)


class SobolevGrushinPart:
    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, tr) -> None:
        self.system = _load_fixture(tr, "grushin-1-1-2")
        rng = random.Random(self.seed)
        # bump centres move along y, the translation-invariant axis, so
        # the two criterion-8 domains stay translates of each other
        self.dy = rng.uniform(-0.5, 0.5)
        self.dy_probe = rng.uniform(-0.25, 0.25)
        self.control_seed = rng.randrange(2 ** 31)

    def run_pass(self, tr, out: PassOutput) -> None:
        g = self.system
        with tr.step("grid"):
            doms = [_grid(tr, g, box, GRUSHIN_SPACING) for box in C8_BOXES]
        constants = []
        with tr.step("criterion8"):
            for dom, box in zip(doms, C8_BOXES):
                centre = [0.0, 0.5 * (box[1][0] + box[1][1]) + self.dy]
                res = tr.call("sobolev.minimize_quotient", minimize_quotient, g, dom, 2.0,
                              init_centers=[centre], n_starts=1, max_iter=C8_MAX_ITER)
                _record_solve(tr, out, res, C8_MAX_ITER)
                constants.append(res.constant)
        rel = abs(constants[0] - constants[1]) / min(constants)
        out.values["sobolev.grushin_quotient"] = constants[0]
        out.check(f"criterion 8: domain constants within {C8_TOL:.0%}", rel <= C8_TOL,
                  f"{constants[0]:.4f} vs {constants[1]:.4f}", exact=False)

        with tr.step("p3"):
            res = tr.call("sobolev.minimize_quotient", minimize_quotient, g, doms[0], 3.0,
                          init_centers=[[0.0, self.dy]], n_starts=1, max_iter=C8_MAX_ITER)
        _record_solve(tr, out, res, C8_MAX_ITER)
        out.check("p = 3 solve returns a positive finite quotient",
                  math.isfinite(res.constant) and res.constant > 0, f"{res.constant:.4f}")

        with tr.step("criterion9"):
            dom = _grid(tr, g, C9_BOX, GRUSHIN_SPACING)
            u = tr.call("sobolev.bump", bump, dom, [0.0, self.dy_probe], 0.5)
            sub = tr.call("sobolev.exponent_probe", exponent_probe, g, None, C9_SUB[0], u, C9_T)
            crit = tr.call("sobolev.exponent_probe", exponent_probe, g, None, C9_CRIT[0], u, C9_T)
        out.check(f"criterion 9: kappa={C9_SUB[0]:g} spread >= {C9_SUB[1]:g}",
                  sub.spread >= C9_SUB[1], f"{sub.spread:.3f}", exact=False)
        out.check(f"criterion 9: kappa={C9_CRIT[0]:g} spread <= {C9_CRIT[1]:g}",
                  crit.spread <= C9_CRIT[1], f"{crit.spread:.5f}", exact=False)
        out.digest(sub.ratios, crit.ratios)

        with tr.step("decay_solve"):
            dom = _grid(tr, g, DECAY_BOX, DECAY_SPACING)
            x, y = dom.mesh
            gauge2 = x ** 2 + (np.abs(y) / 3.0) ** (2.0 / 3.0)
            u0 = GridFunction(dom, (0.0625 + gauge2) ** -1.0)
            res = tr.call("sobolev.minimize_quotient", minimize_quotient, g, dom, 2.0, init=u0,
                          n_starts=1, max_iter=DECAY_MAX_ITER)
        _record_solve(tr, out, res, DECAY_MAX_ITER)
        with tr.step("decay_field") as field_step:
            peak = np.unravel_index(np.abs(res.minimizer.values).argmax(), dom.shape)
            centre = dom.node_coords(peak)
            lat = LatticeSpec(dom.box, dom.spacing, n_random_controls=24, tau=0.1)
            nodes = _count_field(tr, g, lat)
            df = tr.call("metric.distance_field", distance_field, g, centre, lat,
                         seed=self.control_seed)
        _check_field(tr, out, "grushin decay grid", df, nodes)
        _add_labelling(out, nodes, field_step.seconds)
        with tr.step("decay_fit"):
            fit = tr.call("sobolev.decay_profile", decay_profile, res.minimizer, df, 1.0,
                          0.65 * df.max_reliable_radius())
        target, tol = GRUSHIN_DECAY
        out.values["sobolev.decay_exponent"] = fit.exponent
        out.check(f"Grushin decay {target:g} +/- {tol:g} at {DECAY_MAX_ITER} iterations",
                  not fit.rejected and abs(fit.exponent - target) <= tol,
                  f"{fit.exponent:.3f}", exact=False)
        out.digest(fit.exponent)


class Numeric:
    """The two numerical layers: metric, then Sobolev on R^3 and on Grushin."""

    def __init__(self, seed: int):
        self.parts = [MetricPart(seed), SobolevR3Part(seed), SobolevGrushinPart(seed)]

    def setup(self, tr) -> None:
        for part in self.parts:
            part.setup(tr)

    def run_pass(self, tr, out: PassOutput) -> None:
        for part in self.parts:
            part.run_pass(tr, out)


WORKLOADS = {"exact": Exact, "numeric": Numeric}
