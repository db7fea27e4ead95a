"""Toolkit for dilation-homogeneous Hormander vector field systems.

Exact layer: rational polynomial algebra, Lie brackets, homogeneity and
rank certificates, the ball-volume polynomial, pointwise nu and its
level sets, domain specs and evaluation plans, and automorphism
certification.  Numerical layer: one box lattice type shared by lattice
subunit distance fields, ball volume estimates and ball-box ratio
scans; the growth-exponent scan of the ball-volume polynomial; and a
discretized minimizer for the optimal Sobolev constant with its
concentration, exponent and decay diagnostics.
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
    nu_tilde,
    parse_domain_spec,
    parse_plan,
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
    growth_exponent_scan,
)
from .sobolev import (
    EnergyReport,
    GridDomain,
    GridFunction,
    decay_profile,
    energy_report,
    exponent_probe,
    horizontal_gradient,
    levy_concentration,
    minimize_quotient,
    rescale,
)
from . import fixtures

__version__ = "0.1.0"
