"""Exact-arithmetic calculator for Pluecker degrees of Quot schemes.

The package computes intersection numbers and symmetric-product classes
attached to length-l quotient schemes of split bundles on products of
projective spaces, through several independent pipelines that must agree
exactly.  See the README for the module map and the CLI.
"""

from .errors import CrossCheckError, DomainError, RingMismatchError
from .exactpoly import (
    DegreePolynomial,
    Monomial,
    RingDescriptor,
    TruncPoly,
    binomial,
    compositions,
    permute_blocks,
    poly_interpolate,
    series_inverse,
)
from .grassmann import catalan_degree, schubert_degree, syt_count
from .hilb2 import blowup_power_pushforward, hilb2_degree, pair_power_pushforward_table
from .jacobi import JacobiParams, a_coeff, jacobi_finite_sum, jacobi_hyp
from .localise import (
    FixedPointDatum,
    WeightAssignment,
    degree_polynomial_localised,
    enumerate_fixed_points,
    plucker_degree_localised,
    tangent_weights,
    taut_weight_sum,
)
from .quot2 import (
    Quot2Instance,
    degree2_all,
    degree2_formula,
    degree2_geometric,
    degree2_polynomial,
    degree2_projbundle,
    delta2_classes,
    mu2_classes,
)
from .symquot import (
    MembershipCertificate,
    SymClassRep,
    beauville_k3,
    diagonal_membership,
    integrate_sym,
    leading_term,
    mu_p1_coeffs,
    multint,
    nu_class,
    nu_twist_check,
)
from .varieties import (
    ProjBundle,
    ProjProduct,
    SpaceDescriptor,
    SplitBundle,
    chern_total,
    diagonal_class,
    diagonal_pushforward,
    divisor_from_vector,
    euler_number,
    hyperplane,
    integrate,
    ring_of,
    segre_class,
    segre_scheme,
    segre_total,
    twist,
    zeta,
)

__version__ = "0.1.0"
