"""Coefficient bounds for subordination-defined analytic function classes.

The package computes the sharp coefficient bounds for the core
four-parameter subordination class and its named subclasses, generates
the extremal members that certify sharpness, stress-tests the bounds
with randomized Schwarz-function sampling, and provides grid-based disk
criteria for spiral-likeness together with the matching growth bounds.
"""

from . import errors
from .bounds import (
    case_i_value,
    case_ii_value,
    case_iii_value,
    cauchy_euler_factor,
    coefficient_bound,
    coefficient_bound_cauchy_euler,
    spiral_bound_cross_check,
    spiral_product_bound,
    telescoping_identity_residual,
)
from .extremals import (
    ExtremalSpec,
    build_extremal,
    certify_sharpness,
    extremal_case_i,
    extremal_case_ii,
    transfer_cauchy_euler,
)
from .jack import (
    build_gb_instance,
    build_spiral_instance,
    gb_membership,
    gb_spiral_threshold,
    gb_threshold_closed_form,
    growth_check,
    growth_extremal,
    growth_extremal_profile,
    growth_extremal_starlike_order,
    quotient_source_ratio,
    second_coeff_check,
    spiral_membership,
    starlike_membership,
    winding_number,
)
from .params import (
    CauchyEulerParams,
    ClassParams,
    Reduction,
    classify_case,
    reduce_subclass,
    spiral_gamma,
)
from .series import ComplexSeries, identity, monomial, solve_log_derivative
from .subordination import (
    fuzz_bounds,
    is_member,
    member_from_schwarz,
    quadratic_sum_slack,
    sample_schwarz,
    schwarz_from_member,
)

__version__ = "0.1.0"

__all__ = [
    "CauchyEulerParams",
    "ClassParams",
    "ComplexSeries",
    "ExtremalSpec",
    "Reduction",
    "build_extremal",
    "build_gb_instance",
    "build_spiral_instance",
    "case_i_value",
    "case_ii_value",
    "case_iii_value",
    "cauchy_euler_factor",
    "certify_sharpness",
    "classify_case",
    "coefficient_bound",
    "coefficient_bound_cauchy_euler",
    "errors",
    "extremal_case_i",
    "extremal_case_ii",
    "fuzz_bounds",
    "gb_membership",
    "gb_spiral_threshold",
    "gb_threshold_closed_form",
    "growth_check",
    "growth_extremal",
    "growth_extremal_profile",
    "growth_extremal_starlike_order",
    "identity",
    "is_member",
    "member_from_schwarz",
    "monomial",
    "quadratic_sum_slack",
    "quotient_source_ratio",
    "reduce_subclass",
    "sample_schwarz",
    "schwarz_from_member",
    "second_coeff_check",
    "solve_log_derivative",
    "spiral_bound_cross_check",
    "spiral_gamma",
    "spiral_membership",
    "spiral_product_bound",
    "starlike_membership",
    "telescoping_identity_residual",
    "transfer_cauchy_euler",
    "winding_number",
]
