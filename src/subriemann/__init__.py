"""Toolkit for dilation-homogeneous Hormander vector field systems.

Exact layer: rational polynomial algebra, Lie brackets, homogeneity and
rank certificates, the ball-volume polynomial and its level sets, and
automorphism certification.  Numerical layer: one box lattice type
shared by lattice subunit distance fields, ball volume estimates,
growth-exponent scans, and a discretized minimizer for the optimal
Sobolev constant.
"""

from .polynomials import Polynomial, PolynomialError, format_polynomial, parse_polynomial, poly_det
from .fields import (
    CommutatorBasis,
    FieldError,
    FlagData,
    VectorField,
    VectorFieldSystem,
    check_h1,
    check_h2,
    enumerate_commutators,
    flag_at,
    format_system,
    homogeneous_dimension,
    lie_bracket,
    parse_system,
)
from .nsw import (
    BallPolynomial,
    DomainSpec,
    build_nsw,
    eval_lambda,
    level_set_probe,
    metivier_report,
    nu_tilde,
    parse_domain_spec,
    pointwise_nu,
)
from .automorph import (
    AutomorphismCertificate,
    PolynomialMap,
    TransitiveFamily,
    certify,
    parse_family,
    translation_directions,
    verify_transitive_family,
)
from .lattice import Lattice, LatticeError
from .metric import (
    BallVolumeEstimate,
    DistanceField,
    LatticeSpec,
    ball_box_scan,
    ball_volume,
    distance_field,
    doubling_check,
    growth_exponent_scan,
    isometry_checks,
    poincare_check,
)
from .sobolev import (
    EnergyReport,
    GridDomain,
    GridFunction,
    decay_profile,
    domain_independence,
    energy_report,
    exponent_probe,
    horizontal_gradient,
    levy_concentration,
    minimize_quotient,
    rescale,
)
from . import fixtures

__version__ = "0.1.0"
