"""splinezeros: exact zero counting for univariate splines, cardinal
B-splines with compact-support extension, and box-spline collocation
matrices with exact determinants.

Everything is computed over arbitrary-precision rationals; there is no
floating-point path anywhere.
"""

from .rational import Rational, as_rational, format_rational, parse_rational
from .linalg import (
    IntegerMatrix,
    RationalMatrix,
    lattice_basis,
    lattice_determinant,
    mat_determinant,
    mat_solve,
)
from .polynomial import Polynomial, count_distinct_roots
from .spline import (
    DomainCensus,
    InteriorBoundVerdict,
    Spline,
    TruncatedPowerSpec,
    VanishingVerdict,
    ZeroBoundVerdict,
    ZeroReport,
    check_interior_bound,
    check_vanishing_criterion,
    check_zero_bound,
    insert_knot,
    normalize,
    open_component_count,
    piecewise_linear,
    separated_zero_count,
    spline_derivative,
    spline_eval,
    spline_from_document,
    spline_from_truncated_powers,
    spline_to_document,
    vanishing_from_report,
    zero_order_at,
)
from .bspline import (
    CardinalBSpline,
    cardinal_bspline,
    convolution_bspline_pieces,
    extend_compact,
)
from .boxspline import (
    ConjectureVerdict,
    Omega,
    UnimodularityReport,
    VectorConfig,
    Zonotope,
    box_spline_eval,
    conjecture_matrix,
    conjecture_verdict,
    format_matrix,
    parse_vector_config,
    point_strictly_inside,
    semi_integral_interior_points,
    unimodular_check,
    zonotope_support,
)
from .harness import (
    GeneratorConfig,
    TrialReport,
    random_spline,
    run_verification_suite,
    zigzag_spline,
)
from . import errors

__all__ = [
    "Rational", "as_rational", "format_rational", "parse_rational",
    "IntegerMatrix", "RationalMatrix", "lattice_basis",
    "lattice_determinant", "mat_determinant", "mat_solve",
    "Polynomial", "count_distinct_roots",
    "DomainCensus", "InteriorBoundVerdict", "Spline", "TruncatedPowerSpec",
    "VanishingVerdict", "ZeroBoundVerdict", "ZeroReport",
    "check_interior_bound", "check_vanishing_criterion", "check_zero_bound",
    "insert_knot", "normalize", "open_component_count", "piecewise_linear",
    "separated_zero_count", "spline_derivative", "spline_eval",
    "spline_from_document", "spline_from_truncated_powers",
    "spline_to_document", "vanishing_from_report", "zero_order_at",
    "CardinalBSpline", "cardinal_bspline",
    "convolution_bspline_pieces", "extend_compact",
    "ConjectureVerdict", "Omega", "UnimodularityReport", "VectorConfig",
    "Zonotope", "box_spline_eval", "conjecture_matrix", "conjecture_verdict",
    "format_matrix", "parse_vector_config", "point_strictly_inside",
    "semi_integral_interior_points", "unimodular_check", "zonotope_support",
    "GeneratorConfig", "TrialReport", "random_spline",
    "run_verification_suite", "zigzag_spline",
    "errors",
]
