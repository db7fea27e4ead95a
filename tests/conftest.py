import random
from fractions import Fraction

import pytest

from subriemann import fixtures as fx
from subriemann.fields import enumerate_commutators
from subriemann.nsw import build_nsw

# larger systems of the exact benchmark workload, beside the 8 fixtures
PARAMETRIC = {
    "heisenberg(3)": lambda: fx.heisenberg(3),
    "bony(6)": lambda: fx.bony(6),
    "grushin(1,2,4)": lambda: fx.grushin(1, 2, 4),
    "grushin(1,2,6)": lambda: fx.grushin(1, 2, 6),
    "grushin(2,2,2)": lambda: fx.grushin(2, 2, 2),
}


@pytest.fixture(scope="session")
def systems():
    return {name: make() for name, make in fx.ALL_BUILDERS.items()}


@pytest.fixture(scope="session")
def bases(systems):
    return {name: enumerate_commutators(sys) for name, sys in systems.items()}


@pytest.fixture(scope="session")
def nsw_polys(bases):
    return {name: build_nsw(basis) for name, basis in bases.items()}


@pytest.fixture(scope="session")
def wide_bases(bases):
    """The 8 fixtures plus the five larger parametric systems."""
    out = dict(bases)
    out.update({label: enumerate_commutators(make()) for label, make in PARAMETRIC.items()})
    return out


@pytest.fixture(scope="session")
def wide_polys(wide_bases):
    return {name: build_nsw(basis) for name, basis in wide_bases.items()}


@pytest.fixture(scope="session")
def query_points(wide_bases):
    """Seeded point-query inputs per system.

    The origin, a point on each side of {x1 = 0}, points with only
    negative coordinates, points with denominators up to 10^12, float
    coordinates, and small random rationals.
    """
    rng = random.Random(61)

    def small():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    out = {}
    for name, basis in wide_bases.items():
        dim = basis.system.dim
        pts = [[0] * dim, [1] + [0] * (dim - 1)]
        pts += [[0] + [small() for _ in range(dim - 1)] for _ in range(2)]
        pts += [[Fraction(rng.randint(-6, -1), rng.randint(1, 5)) for _ in range(dim)]
                for _ in range(2)]
        pts += [[Fraction(rng.randint(-10 ** 12, 10 ** 12), rng.randint(1, 10 ** 12))
                 for _ in range(dim)] for _ in range(2)]
        pts += [[rng.choice([0.1, -2.5, 1e-3, 0.75, -1 / 3]) for _ in range(dim)]
                for _ in range(2)]
        pts += [[small() for _ in range(dim)] for _ in range(4)]
        out[name] = pts
    return out


@pytest.fixture(scope="session")
def martinet(systems):
    return systems["martinet"]


@pytest.fixture(scope="session")
def grushin(systems):
    return systems["grushin-1-1-2"]
