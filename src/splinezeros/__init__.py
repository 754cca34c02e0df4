"""splinezeros: exact zero counting for univariate splines, cardinal
B-splines with compact-support extension, and box-spline collocation
matrices with exact determinants.

Everything is computed over arbitrary-precision rationals; there is no
floating-point path anywhere.

The package namespace exports what the demos and the benchmark import; every
other name lives in its submodule (``splinezeros.linalg``,
``splinezeros.spline``, ...).
"""

from .polynomial import Polynomial
from .spline import (
    Spline,
    check_interior_bound,
    check_zero_bound,
    insert_knot,
    normalize,
    piecewise_linear,
    separated_zero_count,
    spline_eval,
    spline_from_truncated_powers,
    zero_order_at,
)
from .bspline import cardinal_bspline, convolution_bspline_pieces, extend_compact
from .boxspline import (
    VectorConfig,
    box_spline_eval,
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
    random_spline,
    run_verification_suite,
    zigzag_spline,
)

__all__ = [
    "Polynomial",
    "Spline", "check_interior_bound", "check_zero_bound", "insert_knot",
    "normalize", "piecewise_linear", "separated_zero_count", "spline_eval",
    "spline_from_truncated_powers", "zero_order_at",
    "cardinal_bspline", "convolution_bspline_pieces", "extend_compact",
    "VectorConfig", "box_spline_eval", "conjecture_verdict", "format_matrix",
    "parse_vector_config", "point_strictly_inside",
    "semi_integral_interior_points", "unimodular_check", "zonotope_support",
    "GeneratorConfig", "random_spline", "run_verification_suite",
    "zigzag_spline",
]
