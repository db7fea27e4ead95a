"""Volume growth on a cusped domain of the chain system (d1, x1 d2, x2 d3).

On the unit box the homogeneous dimension is Q = 6, but the *domain*
growth exponent can drop below the pointwise one: along the curve
x2 = f(x1) = x1^(-0.1) / (|ln x1| + 1), r = x1, the ratio
Lambda(x, r) / r^kappa keeps decreasing for kappa = 3.9 = 4 - beta
(beta = 0.1) while staying bounded below for kappa slightly larger.
The infimal growth exponent of this domain is 4 - beta, not an integer.
"""

from subriemann import fixtures as fx
from subriemann.fields import enumerate_commutators
from subriemann.fixtures import fixture_path
from subriemann.metric import growth_exponent_scan
from subriemann.nsw import build_nsw, nu_tilde, parse_domain_spec, parse_plan


def main():
    system = fx.chain3()
    nsw = build_nsw(enumerate_commutators(system))
    domain = parse_domain_spec(fixture_path("ex31.domain").read_text())
    plan = parse_plan(fixture_path("ex31.plan").read_text(), system.dim)

    kappas = [3.9, 3.95, 4.0]
    report = growth_exponent_scan(nsw, kappas, plan)

    print("Lambda(x, r) / r^kappa along the cusp curve (r = x1):")
    header = "r".rjust(12) + "".join(f"  kappa={k:<6}" for k in kappas)
    print(header)
    radii = [r for _, r in plan]
    for i, r in enumerate(radii):
        vals = [report.table[i * len(kappas) + j][3] for j in range(len(kappas))]
        print(f"{float(r):12.6f}" + "".join(f"  {v:12.4f}" for v in vals))
    print("\ninfima:", {k: f"{v:.4f}" for k, v in report.kappa_infima.items()})
    print("kappa = 3.9 keeps falling (13x end to end); "
          "larger kappa stays bounded well away from zero.")
    print(f"nu~ over the domain's sample points: {nu_tilde(nsw, domain)} (Q = {nsw.Q})")


if __name__ == "__main__":
    main()
