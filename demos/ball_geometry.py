"""Subunit balls of the Grushin plane: distances, volumes, ball-box ratios.

The ball B(x, r) is pancake-shaped near the degeneracy line x1 = 0: the
vertical direction is only reachable through a bracket, so its extent
scales like r^3 instead of r.  The Nagel-Stein-Wainger polynomial
Lambda(x, r) tracks |B(x, r)| up to fixed constants; the scan at the end
measures that ratio over centers and dyadic radii.
"""

import numpy as np

from subriemann import fixtures as fx
from subriemann.fields import enumerate_commutators
from subriemann.lattice import Lattice
from subriemann.metric import (
    ball_box_scan,
    ball_volume,
    distance_field,
    lattice_for_ball,
)
from subriemann.nsw import build_nsw, eval_lambda


def main():
    system = fx.grushin()
    basis = enumerate_commutators(system)
    nsw = build_nsw(basis)

    lattice = Lattice([(-1.5, 1.5), (-1.5, 1.5)], 0.05,
                      n_random_controls=24, tau=0.1)
    df = distance_field(system, [0.0, 0.0], lattice, seed=1)
    print("distances from the origin:")
    for target in ([1.0, 0.0], [0.0, 0.5], [0.0, 1.0], [0.5, 0.5]):
        print(f"  d(0, {target}) ~ {df.query(target):.3f}")
    print("(moving vertically near x1 = 0 is expensive: ~ |y|^(1/3))")

    print("\nball volumes at the origin:")
    for r in (0.25, 0.5, 1.0):
        lat = lattice_for_ball(basis, [0.0, 0.0], r)
        vol = ball_volume(system, [0.0, 0.0], r, lattice=lat, seed=1)
        lam = float(eval_lambda(nsw, [0, 0], round(r * 4096) / 4096))
        print(f"  r = {r}: |B| ~ {vol.estimate:.5f}, Lambda = {lam:.5f}, "
              f"ratio {vol.estimate / lam:.3f}")

    print("\nball-box scan (3 centers x 4 radii):")
    report = ball_box_scan(
        system, nsw,
        centers=[[0.0, 0.0], [0.5, 0.0], [1.0, 1.0]],
        radii=[2.0 ** -k for k in range(1, 5)],
        lattice_for=lambda c, r: lattice_for_ball(basis, c, r),
        seed=2,
    )
    for row in report.rows:
        print(f"  x = {row.center}, r = {row.radius:.4g}: "
              f"ratio = {row.ratio:.3f}")
    print(f"  spread (max/min) = {report.spread:.2f}")


if __name__ == "__main__":
    main()
