"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.  The
slow entries are criterion 7 with the Euclidean decay fit that shares
its critical-exponent minimization on an R^3 grid (~10 s on 2 vCPUs)
and the Grushin far-field decay fit (~2 s); they carry the ``slow``
marker, and both solves must stop on the convergence rule (the L-BFGS
decrement below rel_tol), the Grushin one inside the benchmark's
1000-iteration budget.  Everything else
finishes in seconds; criterion 4's ball-box scan, which searches each
ball only out to its radius, takes about 0.3 s.
"""

import random
import time
import types
from fractions import Fraction

import numpy as np
import pytest

from subriemann import fixtures as fx
from subriemann.automorph import TransitiveFamily, parse_family, verify_transitive_family
from subriemann.fields import (
    enumerate_commutators,
    field_homogeneity_ok,
    flag_at,
    homogeneous_dimension,
    lie_bracket,
)
from subriemann.fixtures import fixture_path
from subriemann.lattice import Lattice
from subriemann.metric import (
    ball_box_scan,
    ball_volume,
    distance_field,
    growth_exponent_scan,
    lattice_for_ball,
)
from subriemann.nsw import (
    build_nsw,
    eval_lambda,
    parse_plan,
    pointwise_nu,
    top_stratum,
)
from subriemann.polynomials import Polynomial, parse_polynomial
from subriemann.sobolev import (
    GridFunction,
    bump,
    decay_profile,
    energy_report,
    exponent_probe,
    minimize_quotient,
)

from test_polynomials import random_point, random_poly

EXPECTED_Q = {
    "euclidean2": 2,
    "heisenberg1": 4,
    "grushin-1-1-2": 4,
    "bony3": 6,
    "martinet": 5,
    "r4-fourfields": 11,
    "example6": 5,
    "ex31": 6,
}

HYPERPLANE_SYSTEMS = ("grushin-1-1-2", "bony3", "martinet", "r4-fourfields", "example6")


def check(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:>2} ({label}): {status}{suffix}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


# ---------------------------------------------------------------------
# 1. homogeneous dimensions
# ---------------------------------------------------------------------

def test_criterion_1_homogeneous_dimensions(systems):
    worst = 0.0
    ok = True
    for name, expected in EXPECTED_Q.items():
        t0 = time.perf_counter()
        q = homogeneous_dimension(systems[name])
        worst = max(worst, time.perf_counter() - t0)
        ok = ok and q == expected
    check(1, "exact Q values", ok and worst < 1.0,
          f"{len(EXPECTED_Q)} systems, slowest {worst * 1e3:.2f} ms")


# ---------------------------------------------------------------------
# 2. symbolic homogeneity of brackets and determinant entries
# ---------------------------------------------------------------------

def test_criterion_2_symbolic_homogeneity(systems, bases, nsw_polys):
    t0 = time.perf_counter()
    n_brackets = n_entries = 0
    ok = True
    for name in EXPECTED_Q:
        weights = systems[name].weights
        for entry in bases[name]:
            good, _ = field_homogeneity_ok(entry.vf, weights, entry.degree)
            ok = ok and good
            n_brackets += 1
        nsw = nsw_polys[name]
        for k, slot in nsw.slots.items():
            for e in slot:
                ok = (ok and not e.poly.is_zero()
                      and not e.poly.inhomogeneous_monomials(weights, nsw.Q - k))
                n_entries += 1
    elapsed = time.perf_counter() - t0
    check(2, "dilation homogeneity, symbolic", ok and elapsed < 10.0,
          f"{n_brackets} brackets + {n_entries} determinants in {elapsed:.2f} s")


# ---------------------------------------------------------------------
# 3. pointwise nu vs the commutator flag; the maximal level set, certified
# ---------------------------------------------------------------------

def test_criterion_3_nu_matches_flag(systems, bases, nsw_polys):
    t0 = time.perf_counter()
    rng = random.Random(5)
    ok = True
    for name in EXPECTED_Q:
        system = systems[name]
        for _ in range(100):
            pt = random_point(rng, system.dim)
            ok = ok and pointwise_nu(nsw_polys[name], pt) == flag_at(bases[name], pt).nu
    for name in HYPERPLANE_SYSTEMS:
        ok = ok and top_stratum(nsw_polys[name]) == {1}
    elapsed = time.perf_counter() - t0
    check(3, "nu = flag dimension sum; H is a hyperplane", ok and elapsed < 30.0,
          f"100 points x {len(EXPECTED_Q)} systems in {elapsed:.2f} s")


# ---------------------------------------------------------------------
# 4. ball-box comparability
# ---------------------------------------------------------------------

def test_criterion_4_ball_box_ratios(systems, bases, nsw_polys):
    t0 = time.perf_counter()
    radii = [2.0 ** -k for k in range(1, 6)]
    spreads = {}
    for name, centers in (
        ("grushin-1-1-2", [[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]]),
        ("martinet", [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.5, 0.25]]),
    ):
        basis = bases[name]
        rep = ball_box_scan(
            systems[name], nsw_polys[name], centers, radii,
            lattice_for=lambda c, r: lattice_for_ball(basis, c, r), seed=2,
        )
        spreads[name] = rep.spread
    elapsed = time.perf_counter() - t0
    ok = all(s <= 50.0 for s in spreads.values()) and elapsed < 600.0
    check(4, "|B| / Lambda spread over 3 centers x 5 radii", ok,
          ", ".join(f"{n}: {s:.1f}" for n, s in spreads.items()) + f"; {elapsed:.0f} s")


# ---------------------------------------------------------------------
# 5. scaling: exact Lambda covariance, measured volumes and distances
# ---------------------------------------------------------------------

def test_criterion_5_dilation_scaling(systems, nsw_polys, bases, grushin):
    t0 = time.perf_counter()
    rng = random.Random(23)
    ok = True
    names = list(EXPECTED_Q)
    for i in range(20):
        name = names[i % len(names)]
        system, nsw = systems[name], nsw_polys[name]
        x = random_point(rng, system.dim)
        r = Fraction(rng.randint(1, 8), rng.randint(1, 8))
        t = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        lhs = eval_lambda(nsw, system.dilation(x, t), t * r)
        ok = ok and lhs == t ** nsw.Q * eval_lambda(nsw, x, r)

    basis = bases["grushin-1-1-2"]
    Q = 4
    ratios = []
    for i, t in enumerate((0.5, 1.0, 2.0)):
        lat = lattice_for_ball(basis, [0.0, 0.0], t)
        vol = ball_volume(grushin, [0.0, 0.0], t, lattice=lat, seed=10 + i).estimate
        ratios.append(vol / t ** Q)
    vol_spread = max(ratios) / min(ratios)
    ok = ok and vol_spread <= 1.15

    y = [0.5, 0.25]
    d1 = distance_field(grushin, [0.0, 0.0],
                        lattice_for_ball(basis, [0.0, 0.0], 1.0), seed=3).query(y)
    dist_err = 0.0
    for t in (0.5, 2.0):
        lat = lattice_for_ball(basis, [0.0, 0.0], t)
        dt = distance_field(grushin, [0.0, 0.0], lat, seed=3).query(
            [float(v) for v in grushin.dilation(y, t)])
        dist_err = max(dist_err, abs(dt - t * d1) / (t * d1))
    ok = ok and dist_err <= 0.10
    elapsed = time.perf_counter() - t0
    check(5, "Lambda covariance exact; |B|, d scale with dilations",
          ok and elapsed < 600.0,
          f"vol spread {vol_spread:.3f}, dist err {dist_err:.1%}, {elapsed:.0f} s")


# ---------------------------------------------------------------------
# 6. non-integer domain growth exponent on the cusp domain
# ---------------------------------------------------------------------

def test_criterion_6_cusp_growth_exponent():
    t0 = time.perf_counter()
    system = fx.chain3()
    nsw = build_nsw(enumerate_commutators(system))
    plan = parse_plan(fixture_path("ex31.plan").read_text(), system.dim)
    rep = growth_exponent_scan(nsw, [3.9, 3.95], plan)
    sub = [v for k, c, r, v in rep.table if k == 3.9]
    crit = [v for k, c, r, v in rep.table if k == 3.95]
    monotone = all(b < a for a, b in zip(sub, sub[1:]))
    ratio = sub[0] / sub[-1]
    lower = min(crit)
    elapsed = time.perf_counter() - t0
    ok = monotone and ratio >= 3.0 and lower > 1.0 and elapsed < 120.0
    check(6, "growth exponent 4 - beta on the cusp domain", ok,
          f"kappa=3.9 falls {ratio:.1f}x monotonically, kappa=3.95 min {lower:.2f}, "
          f"{elapsed:.0f} s")


# ---------------------------------------------------------------------
# 7. Euclidean R^3 critical Sobolev constant vs the bubble oracle
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def euclidean_bubble_run():
    """Oracle sweep + full minimization on the R^3 desk grid (slow)."""
    t0 = time.perf_counter()
    system = fx.euclidean(3)
    dom = Lattice([(-8, 8)] * 3, 0.25)
    x, y, z = dom.mesh
    r = np.sqrt(x ** 2 + y ** 2 + z ** 2)

    def bubble(lam, r0):
        prof = lam ** 0.5 * (1.0 + lam ** 2 * r ** 2) ** -0.5
        cut = np.cos(0.5 * np.pi * np.clip((r - r0) / (7.5 - r0), 0.0, 1.0)) ** 2
        return GridFunction(dom, prof * cut)

    oracle = min(
        energy_report(system, bubble(lam, r0), 2.0).quotient
        for lam in (1.5, 2, 3, 4, 6, 8, 12, 16)
        for r0 in (1.5, 2.0, 2.5, 3.0, 3.5)
    )
    res = minimize_quotient(system, dom, 2.0, n_starts=1, max_iter=4000, seed=0)
    return {
        "oracle": oracle,
        "result": res,
        "domain": dom,
        "radius": r,
        "elapsed": time.perf_counter() - t0,
    }


@pytest.mark.slow
def test_criterion_7_euclidean_constant(euclidean_bubble_run):
    run = euclidean_bubble_run
    res = run["result"]
    assert res.stop_reason == "converged"
    rel = (res.constant - run["oracle"]) / run["oracle"]
    ok = abs(rel) <= 0.05 and run["elapsed"] < 900.0
    check(7, "R^3 p=2 minimizer vs bubble oracle", ok,
          f"oracle {run['oracle']:.4f}, minimizer {res.constant:.4f}, "
          f"rel {rel:+.1%}, {res.iterations} iterations, {run['elapsed']:.0f} s")


@pytest.mark.slow
def test_criterion_7_iterations_are_grid_independent(euclidean_bubble_run):
    """The multigrid-preconditioned solve takes as many iterations at 65^3 as at 33^3.

    Measured with the decrement stop: 18 iterations at 33^3 (test_sobolev),
    20 at 65^3 with C = 5.9963070, the constant of the Jacobi-scaled solve
    (128 iterations).
    """
    res = euclidean_bubble_run["result"]
    assert res.stop_reason == "converged"
    assert res.iterations <= 40
    assert res.constant == pytest.approx(5.996307, rel=1e-5)


# ---------------------------------------------------------------------
# 8. domain independence of the Grushin constant
# ---------------------------------------------------------------------

def test_criterion_8_domain_independence(grushin):
    t0 = time.perf_counter()
    a = Lattice([(-4, 4), (-4, 4)], 0.25)
    b = Lattice([(-4, 4), (1, 9)], 0.25)
    ca, cb = (minimize_quotient(grushin, dom, 2.0, n_starts=1, max_iter=800, seed=0).constant
              for dom in (a, b))
    rel = abs(ca - cb) / min(ca, cb)
    elapsed = time.perf_counter() - t0
    ok = rel <= 0.10 and elapsed < 1800.0
    check(8, "Grushin constant independent of the center in H", ok,
          f"{ca:.4f} vs {cb:.4f}, rel {rel:.2%}, {elapsed:.0f} s")


# ---------------------------------------------------------------------
# 9. exponent probe: divergence below Q, flatness at Q
# ---------------------------------------------------------------------

def test_criterion_9_exponent_probe(grushin):
    t0 = time.perf_counter()
    dom = Lattice([(-2, 2), (-2, 2)], 0.25)
    u = bump(dom, [0, 0], 0.5)
    ts = [1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5]
    sub = exponent_probe(grushin, None, 3.5, u, ts)
    crit = exponent_probe(grushin, None, 4.0, u, ts)
    elapsed = time.perf_counter() - t0
    ok = sub.spread >= 4.0 and crit.spread <= 1.05 and elapsed < 120.0
    check(9, "R(t) diverges for kappa < Q, flat at kappa = Q", ok,
          f"kappa=Q-1/2 spread {sub.spread:.2f}, kappa=Q spread {crit.spread:.4f}, "
          f"{elapsed:.0f} s")


# ---------------------------------------------------------------------
# 10. transitive families verify; a perturbed map fails
# ---------------------------------------------------------------------

def test_criterion_10_transitive_families(systems, nsw_polys):
    t0 = time.perf_counter()
    pairs = {
        "example6": [([0, 1, Fraction(1, 2)], [0, -1, 2]),
                     ([0, Fraction(1, 3), 0], [0, 0, Fraction(2, 5)])],
        "r4-fourfields": [([0, 1, 2, 3], [0, -1, Fraction(1, 2), 1])],
    }
    ok = True
    for name, sample_pairs in pairs.items():
        family = parse_family(fixture_path(f"{name}.family").read_text())
        rep = verify_transitive_family(systems[name], nsw_polys[name], family,
                                       sample_pairs)
        ok = ok and rep.ok

    family = parse_family(fixture_path("example6.family").read_text())
    broken = list(family.components)
    broken[2] = broken[2] + parse_polynomial("x1*x5^2", 6)
    mutated = TransitiveFamily(3, (1,), broken, family.witness)
    rep = verify_transitive_family(systems["example6"], nsw_polys["example6"],
                                   mutated, pairs["example6"])
    residual_nonzero = any(
        not p.is_zero() for field_res in rep.certificate.residuals for p in field_res
    )
    elapsed = time.perf_counter() - t0
    ok = ok and not rep.ok and residual_nonzero and elapsed < 10.0
    check(10, "transitive families verified; mutation caught", ok,
          f"perturbed pushforward residual nonzero, {elapsed:.2f} s")


# ---------------------------------------------------------------------
# 11. algebraic laws on random instances
# ---------------------------------------------------------------------

def test_criterion_11_algebraic_laws():
    t0 = time.perf_counter()
    rng = random.Random(41)
    ok = True
    for _ in range(200):
        dim = rng.randint(2, 3)
        weights = sorted(rng.randint(1, 3) for _ in range(dim))
        f = random_poly(rng, dim, max_terms=2, max_deg=2)
        g = random_poly(rng, dim, max_terms=2, max_deg=2)
        pt = random_point(rng, dim, max_num=4)

        # evaluation is a ring homomorphism
        ok = ok and (f + g).eval(pt) == f.eval(pt) + g.eval(pt)
        ok = ok and (f * g).eval(pt) == f.eval(pt) * g.eval(pt)
        # dilation is a ring homomorphism
        ok = ok and (f * g).dilate(weights) == f.dilate(weights) * g.dilate(weights)
        ok = ok and (f + g).dilate(weights) == f.dilate(weights) + g.dilate(weights)

        from subriemann.fields import VectorField

        def rand_field():
            return VectorField(
                [random_poly(rng, dim, max_terms=2, max_deg=2) for _ in range(dim)]
            )

        Y, Z, W = rand_field(), rand_field(), rand_field()
        ok = ok and lie_bracket(Y, Z) == -lie_bracket(Z, Y)
        jac = (lie_bracket(Y, lie_bracket(Z, W))
               + lie_bracket(Z, lie_bracket(W, Y))
               + lie_bracket(W, lie_bracket(Y, Z)))
        ok = ok and jac.is_zero()
    elapsed = time.perf_counter() - t0
    check(11, "antisymmetry, Jacobi, eval/dilate homomorphisms",
          ok and elapsed < 30.0, f"200 instances in {elapsed:.2f} s")


# ---------------------------------------------------------------------
# far-field decay fits (coverage riders)
# ---------------------------------------------------------------------

@pytest.mark.slow
def test_decay_exponent_euclidean(euclidean_bubble_run):
    """The R^3 p=2 minimizer decays like d^-1 away from its peak."""
    run = euclidean_bubble_run
    u = run["result"].minimizer
    dom = run["domain"]
    peak = np.unravel_index(np.abs(u.values).argmax(), dom.shape)
    c = dom.node_coords(peak)
    x, y, z = dom.mesh
    rr = np.sqrt((x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2)
    dfield = types.SimpleNamespace(values=rr)
    # annulus between the concentration core (width ~0.2) and the region
    # where Dirichlet truncation steepens the tail (slope ~ -1/(1 - r/8))
    fit = decay_profile(u, dfield, 0.5, 1.5)
    ok = not fit.rejected and abs(fit.exponent - (-1.0)) <= 0.15
    print(f"decay fit (Euclidean R^3): exponent {fit.exponent:.3f} "
          f"(target -1 +/- 0.15), residual {fit.residual:.3f}")
    assert ok, f"Euclidean decay exponent {fit.exponent:.3f} outside -1 +/- 0.15"


@pytest.mark.slow
def test_decay_exponent_grushin(grushin):
    """The Grushin minimizer decays like d^-2 in the control distance."""
    t0 = time.perf_counter()
    dom = Lattice([(-8, 8), (-80, 80)], [0.125, 1.0])
    x, y = dom.mesh
    gauge2 = x ** 2 + (np.abs(y) / 3.0) ** (2.0 / 3.0)
    u0 = GridFunction(dom, (0.0625 + gauge2) ** -1.0)
    res = minimize_quotient(grushin, dom, 2.0, init=u0, n_starts=1,
                            max_iter=15000, seed=0)
    assert res.stop_reason == "converged"
    # inside the benchmark's fixed budget for the same solve (DECAY_MAX_ITER),
    # with room over the 32 iterations measured with the multigrid
    # preconditioner and the decrement stop
    assert res.iterations < 1000
    assert res.iterations <= 110
    peak = np.unravel_index(np.abs(res.minimizer.values).argmax(), dom.shape)
    center = dom.node_coords(peak)
    lat = Lattice(dom.box, dom.spacing, n_random_controls=24, tau=0.1)
    df = distance_field(grushin, center, lat, seed=3)
    fit = decay_profile(res.minimizer, df, 1.0, 0.65 * df.max_reliable_radius())
    elapsed = time.perf_counter() - t0
    ok = not fit.rejected and abs(fit.exponent - (-2.0)) <= 0.3
    print(f"decay fit (Grushin): exponent {fit.exponent:.3f} "
          f"(target -2 +/- 0.3), residual {fit.residual:.3f}, "
          f"{res.iterations} iterations, {elapsed:.0f} s")
    assert ok, f"Grushin decay exponent {fit.exponent:.3f} outside -2 +/- 0.3"


def test_decay_fit_rejects_constant_field():
    """A flat function must not produce a spurious decay exponent."""
    dom = Lattice([(-4, 4)] * 2, 0.25)
    u = GridFunction(dom, np.full(dom.shape, 0.7))
    x, y = dom.mesh
    dfield = types.SimpleNamespace(values=np.sqrt(x ** 2 + y ** 2))
    fit = decay_profile(u, dfield, 0.5, 3.0)
    assert fit.rejected
