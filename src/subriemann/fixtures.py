"""Built-in vector field systems used across tests and demos.

Each builder returns a fresh `VectorFieldSystem`.  The parametric
builders construct their fields directly, and their default instances
ship as spec files too, for the command line.  `martinet` and `chain3`
parse their spec files under ``subriemann/fixtures/``.  `ALL_BUILDERS`
maps the name of each shipped system to its builder; `r4-fourfields`
and `example6` have no builder of their own and parse their file.
"""

from __future__ import annotations

from importlib import resources

from .fields import VectorField, VectorFieldSystem, parse_system
from .polynomials import Polynomial


def euclidean(n: int = 2) -> VectorFieldSystem:
    """The abelian system (d1, ..., dn), weights all 1."""
    fields = [VectorField.coordinate(n, j) for j in range(1, n + 1)]
    return VectorFieldSystem(fields, [1] * n, name=f"euclidean{n}")


def heisenberg(n: int = 1) -> VectorFieldSystem:
    """Generators of the Heisenberg group on R^(2n+1); Q = 2n+2."""
    dim = 2 * n + 1
    fields = []
    for j in range(1, n + 1):
        cx = [Polynomial.zero(dim) for _ in range(dim)]
        cx[j - 1] = Polynomial.constant(dim, 1)
        cx[dim - 1] = 2 * Polynomial.variable(dim, n + j)
        fields.append(VectorField(cx))
    for j in range(1, n + 1):
        cy = [Polynomial.zero(dim) for _ in range(dim)]
        cy[n + j - 1] = Polynomial.constant(dim, 1)
        cy[dim - 1] = -2 * Polynomial.variable(dim, j)
        fields.append(VectorField(cy))
    weights = [1] * (2 * n) + [2]
    return VectorFieldSystem(fields, weights, name=f"heisenberg{n}")


def grushin(m: int = 1, l: int = 1, alpha: int = 2) -> VectorFieldSystem:
    """Grushin-type fields: d_x_i and (alpha+1)|x|^alpha d_y_j.

    alpha must be a positive even integer so |x|^alpha is polynomial.
    Q = m + l(alpha+1).
    """
    if alpha <= 0 or alpha % 2:
        raise ValueError("alpha must be a positive even integer")
    n = m + l
    fields = [VectorField.coordinate(n, j) for j in range(1, m + 1)]
    r2 = Polynomial.zero(n)
    for j in range(1, m + 1):
        r2 = r2 + Polynomial.variable(n, j) ** 2
    radial = (alpha + 1) * r2 ** (alpha // 2)
    for j in range(1, l + 1):
        comps = [Polynomial.zero(n) for _ in range(n)]
        comps[m + j - 1] = radial
        fields.append(VectorField(comps))
    weights = [1] * m + [alpha + 1] * l
    return VectorFieldSystem(fields, weights, name=f"grushin-{m}-{l}-{alpha}")


def bony(n: int = 3) -> VectorFieldSystem:
    """Bony-type fields d1 and sum_k x1^(k-1) d_k; Q = n(n+1)/2."""
    x1 = Polynomial.variable(n, 1)
    comps = [Polynomial.zero(n) for _ in range(n)]
    for k in range(2, n + 1):
        comps[k - 1] = x1 ** (k - 1)
    fields = [VectorField.coordinate(n, 1), VectorField(comps)]
    return VectorFieldSystem(fields, list(range(1, n + 1)), name=f"bony{n}")


def _shipped(name: str) -> VectorFieldSystem:
    """The system of the shipped spec file ``<name>.vf``."""
    return parse_system(fixture_path(f"{name}.vf").read_text())


def martinet() -> VectorFieldSystem:
    """Martinet fields d1 and d2 + x1^2 d3; weights (1,1,3), Q = 5."""
    return _shipped("martinet")


def chain3() -> VectorFieldSystem:
    """The chained system (d1, x1 d2, x2 d3); weights (1,2,3), Q = 6."""
    return _shipped("ex31")


ALL_BUILDERS = {
    "euclidean2": lambda: euclidean(2),
    "heisenberg1": lambda: heisenberg(1),
    "grushin-1-1-2": lambda: grushin(1, 1, 2),
    "bony3": lambda: bony(3),
    "martinet": martinet,
    "r4-fourfields": lambda: _shipped("r4-fourfields"),
    "example6": lambda: _shipped("example6"),
    "ex31": chain3,
}


def fixture_path(name: str):
    """Filesystem path of a shipped fixture file (e.g. 'martinet.vf')."""
    return resources.files("subriemann") / "fixtures" / name
