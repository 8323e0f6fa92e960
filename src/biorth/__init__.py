"""Biorthogonal polynomials for Moebius-quotient moment families.

A family assigns to each order n a quadruple (alpha_n, beta_n, gamma_n,
delta_n), and its moments are the running products

    m_n(mu) = prod_{l<n} (alpha_l + mu beta_l) / (gamma_l + mu delta_l).

The package constructs the degree-n polynomials p_n(x; mu_1..mu_n)
annihilated by the moment functionals at the parameter values mu_l, by
three routes that are cross-checked against each other: a mixed-basis
expansion, a divided-difference recursion over the nodes
lambda_j = -alpha_j/beta_j, and a dense moment-matrix null space.  The
weight functions behind the moments are characterized by deriving their
order-s differential equation and classifying the Frobenius solution as
a generalized hypergeometric series.
"""
from .construction import (
    BiorthResult,
    MixedBasis,
    ZeroLocationReport,
    biorthogonal_poly,
    divided_difference_solve,
    expand_in_mixed_basis,
    mixed_basis,
    oracle_nullspace,
    orthogonality_residuals,
    qtilde_values,
    zero_location_check,
)
from .errors import (
    BetaZero,
    BiorthError,
    ConfigError,
    DegenerateAB,
    DegenerateMu,
    Divergence,
    InvalidLowerParameter,
    KappaZero,
    LeadingZero,
    NoExistence,
    NonConvergence,
    NonpositiveLowerParameter,
    NullSpaceDimension,
    PoleAt,
    QuadratureFailure,
    RemovableSingularity,
    Resonance,
    SigmaZero,
    SingularBasis,
    SingularNode,
    SingularPivot,
    ThetaNotIndicial,
)
from .families import (
    MqfFamily,
    ValidityReport,
    existence_determinant,
    family_from_config,
    lambda_node,
    load_family,
    moment,
    moment_rational,
    moment_row,
    validity_check,
)
from .hyper import (
    HypergeometricForm,
    PFQ,
    BesselWeight,
    PowerWeight,
    bessel_i,
    bessel_weight,
    eval_pFq,
    hypergeometric_form,
    series_from_form,
    weight_from_config,
)
from .odes import (
    FrobeniusOde,
    LinearOde,
    ResidualReport,
    frak_pq,
    frobenius_ode,
    indicial_polynomial,
    indicial_roots,
    linear_closed_form,
    linear_ode,
    ode_residual,
    power_weight_params,
    recurrence_polys,
    select_theta,
    series_coefficients,
)
from .polynomials import Polynomial, RationalFunction, rf_eval
from .quadrature import (
    adaptive_integrate,
    integrate_support,
    verify_moment_quotient,
)
from .roots import RootSet, poly_roots
from .scalars import (
    falling_factorial,
    format_scalar,
    parse_rational,
    pochhammer,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
