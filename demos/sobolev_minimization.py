"""Minimize the discrete Sobolev quotient for the Grushin fields.

The constant C0 = inf int |Xu|^2 / ||u||_{p*}^2 (p* = 2Q/(Q-2), Q = 4)
is approached on a Dirichlet box by L-BFGS on the interior-node values,
with the energy built from the lattice's sparse horizontal-gradient
operator X_h.  The script prints the solver record (iterations,
evaluations, stop reason, final gradient norm and decrement), where
the minimizer concentrates (its Levy profile) and the fitted far-field
decay exponent, which should sit near (p - Q)/(p - 1) = -2.
"""

import numpy as np

from subriemann import fixtures as fx
from subriemann.lattice import Lattice
from subriemann.metric import distance_field
from subriemann.sobolev import (
    GridFunction,
    decay_profile,
    levy_concentration,
    minimize_quotient,
)


def main():
    system = fx.grushin()
    # one lattice carries the minimizer and the distance field the
    # concentration and decay diagnostics compare it with
    dom = Lattice([(-6, 6), (-40, 40)], [0.15, 1.0], n_random_controls=24, tau=0.1)
    x, y = dom.mesh
    gauge2 = x ** 2 + (np.abs(y) / 3.0) ** (2.0 / 3.0)
    u0 = GridFunction(dom, (0.0625 + gauge2) ** -1.0)

    res = minimize_quotient(system, dom, p=2.0, init=u0, n_starts=1,
                            max_iter=4000, seed=0)
    print(f"quotient: {res.trace[0]:.4f} -> {res.constant:.4f} "
          f"after {res.iterations} iterations, {res.evaluations} evaluations "
          f"(stop reason: {res.stop_reason}, gradient norm {res.grad_norm:.3g}, "
          f"decrement {res.decrement:.3g})")

    peak = np.unravel_index(np.abs(res.minimizer.values).argmax(), dom.shape)
    center = dom.node_coords(peak)
    print(f"concentration peak at {center}")

    df = distance_field(system, center, dom, seed=3)

    diag = levy_concentration(res.minimizer, [0.25, 0.5, 1.0, 2.0, 3.0],
                              [center], [df], p_star=4.0)
    print("Levy concentration Q(rho):")
    for rho, val in zip(diag.rho_grid, diag.levy_values):
        print(f"  rho = {rho}: {val:.4f}")
    print(f"half-mass radius: {diag.rho_half:.3f}")

    outer = 0.65 * df.max_reliable_radius()
    fit = decay_profile(res.minimizer, df, 1.0, outer)
    print(f"far-field decay fit on [1.0, {outer:.2f}]: "
          f"u ~ d^{fit.exponent:.2f} (residual {fit.residual:.3f})")
    print("(the fit range is short on this box; "
          "a larger box sharpens the fit toward d^-2)")


if __name__ == "__main__":
    main()
