import random
from fractions import Fraction as F

import pytest

from splinezeros import (
    GeneratorConfig,
    Polynomial,
    Spline,
    bspline_combination,
    cardinal_bspline,
    check_interior_bound,
    check_zero_bound,
    convolution_bspline_pieces,
    extend_compact,
    normalize,
    open_component_count,
    random_spline,
    separated_zero_count,
    spline_derivative,
    spline_eval,
    spline_translate,
    zero_order_at,
)
from splinezeros.errors import DegreeError, DuplicateShiftError, KnotRangeError

ZERO = Polynomial()


def bspline_value_oracle(m, x):
    """Independent pointwise oracle: the two-term cardinal recurrence
    B_m(x) = (x/m) B_{m-1}(x) + ((m+1-x)/m) B_{m-1}(x-1), grounded at the
    half-open unit indicator."""
    x = F(x)
    if m == 0:
        return F(1) if 0 <= x < 1 else F(0)
    return (x / m) * bspline_value_oracle(m - 1, x) \
        + ((m + 1 - x) / m) * bspline_value_oracle(m - 1, x - 1)


def test_b1_is_the_hat():
    b1 = cardinal_bspline(1)
    assert b1.spline.pieces == (ZERO, Polynomial([0, 1]), Polynomial([2, -1]), ZERO)


def test_b2_value():
    assert bspline_value_oracle(2, F(3, 2)) == F(3, 4)
    assert cardinal_bspline(2).eval(F(3, 2)) == F(3, 4)


def test_b3_value():
    assert bspline_value_oracle(3, 2) == F(2, 3)
    assert cardinal_bspline(3).eval(2) == F(2, 3)


def test_degree_range_enforced():
    with pytest.raises(KnotRangeError):
        cardinal_bspline(0)
    with pytest.raises(KnotRangeError):
        cardinal_bspline(13)


def test_two_constructions_agree_up_to_degree_8():
    for m in range(1, 9):
        b = cardinal_bspline(m)
        assert b.spline.pieces[1:-1] == convolution_bspline_pieces(m)


def test_pointwise_recurrence_oracle():
    rng = random.Random(11)
    for m in range(1, 6):
        for _ in range(10):
            x = F(rng.randint(-2, 4 * (m + 1)), 4)
            assert cardinal_bspline(m).eval(x) == bspline_value_oracle(m, x)


def test_support_and_boundary_orders():
    for m in range(1, 7):
        s = cardinal_bspline(m).spline
        assert s.knots == tuple(F(k) for k in range(m + 2))
        assert s.pieces[0].is_zero and s.pieces[-1].is_zero
        assert zero_order_at(s, 0) == m
        assert zero_order_at(s, m + 1) == m


def test_interior_positivity_census():
    for m in range(1, 7):
        s = cardinal_bspline(m).spline
        z, report = separated_zero_count(s, 0, m + 1)
        assert z == 2  # exactly the two support endpoints
        assert all(d.open_interior_distinct_roots == 0 for d in report.domains)
        assert all(not d.identically_zero for d in report.domains)


def test_support_has_m_plus_1_domains():
    for m in range(1, 7):
        assert len(cardinal_bspline(m).spline.pieces) - 2 == m + 1


def test_interior_bound_on_bsplines():
    for m in (1, 2, 3):
        verdict = check_interior_bound(cardinal_bspline(m).spline)
        assert verdict.applicable
        assert verdict.n_ge_m_plus_1
        assert verdict.interior_Z == 0
        assert verdict.interior_bound == 0  # n = m + 1
        assert verdict.passed


def test_partition_of_unity_exact():
    rng = random.Random(22)
    for m in range(1, 7):
        for _ in range(20):
            x = F(rng.randint(0, 12 * 7), rng.randint(1, 7))
            total = sum(cardinal_bspline(m).eval(x - j)
                        for j in range(-m - 1, int(x) + 2))
            assert total == 1


def test_translate_examples():
    b1 = cardinal_bspline(1).spline
    assert spline_eval(spline_translate(b1, 1), F(3, 2)) == F(1, 2)
    assert spline_translate(b1, 0) == b1
    assert spline_translate(spline_translate(b1, F(7, 3)), F(-7, 3)) == b1


def test_combination_single_term_is_bspline():
    for m in (1, 2, 3):
        assert bspline_combination(m, [(0, 1)]) == cardinal_bspline(m).spline


def test_combination_partition_window():
    m = 3
    s = bspline_combination(m, [(j, 1) for j in range(-m, m + 2)])
    rng = random.Random(33)
    for _ in range(20):
        x = F(rng.randint(0, 8), 8)
        assert spline_eval(s, x) == 1


def test_combination_zero_coefficients():
    s = bspline_combination(2, [(0, 0), (3, 0)])
    assert all(p.is_zero for p in s.pieces)


def test_combination_duplicate_shift_rejected():
    with pytest.raises(DuplicateShiftError):
        bspline_combination(2, [(0, 1), (0, 2)])
    with pytest.raises(DuplicateShiftError):
        bspline_combination(2, [])


def test_extension_of_constant_is_trapezoid():
    s = Spline(1, (0, 1), (Polynomial([1]), Polynomial([1]), Polynomial([1])))
    ext = extend_compact(s)
    assert ext.knots == (F(-1), F(0), F(1), F(2))
    assert ext.pieces == (ZERO, Polynomial([1, 1]), Polynomial([1]),
                          Polynomial([2, -1]), ZERO)


def test_extension_fixes_bsplines():
    for m in (1, 2, 3, 4):
        b = cardinal_bspline(m).spline
        assert extend_compact(b) == b


def test_extension_contract_on_random_splines():
    for trial in range(40):
        m = 1 + trial % 4
        cfg = GeneratorConfig(seed=9000 + trial, degree=m,
                              interior_knots=1 + trial % 4)
        s = random_spline(cfg)
        sn = normalize(s)
        ext = extend_compact(s)
        a0, an = sn.window
        # (a) exact coincidence on the original window
        rng = random.Random(trial)
        for _ in range(10):
            x = a0 + (an - a0) * F(rng.randint(0, 16), 16)
            assert spline_eval(ext, x) == spline_eval(s, x)
        # (b) compact support within the widened window
        assert ext.pieces[0].is_zero and ext.pieces[-1].is_zero
        assert ext.knots[0] >= a0 - m
        assert ext.knots[-1] <= an + m
        # (c) knots confined to the allowed unit-spaced set
        allowed = set(s.knots) | {a0 - m + i for i in range(m)} \
            | {an + i for i in range(1, m + 1)}
        assert set(ext.knots) <= allowed
        # (d) support-end zeros have full order
        assert zero_order_at(ext, ext.knots[0]) >= m
        assert zero_order_at(ext, ext.knots[-1]) >= m


def test_extension_chained_zero_bound():
    """Extensions never carry more zeros than the originating window bound
    allows: Z(ext) components meeting the widened open interval stay within
    n + m - 1."""
    for trial in range(30):
        m = 1 + trial % 3
        cfg = GeneratorConfig(seed=12000 + trial, degree=m, interior_knots=3)
        s = random_spline(cfg)
        sn = normalize(s)
        ext = extend_compact(s)
        verdict = check_zero_bound(ext)
        z = verdict.Z
        report = verdict.report
        if ext.knots[0] == sn.knots[0] - m and report.knot_value_zero[0] \
                and not report.domains[0].identically_zero:
            z -= 1
        if ext.knots[-1] == sn.knots[-1] + m and report.knot_value_zero[-1] \
                and not report.domains[-1].identically_zero:
            z -= 1
        assert z <= sn.n + m - 1


def test_derivative_zero_propagation():
    """Compact-support splines of degree >= 2: the derivative has at least
    one more separated zero on the open support."""
    for trial in range(30):
        m = 2 + trial % 3
        cfg = GeneratorConfig(seed=15000 + trial, degree=m, interior_knots=2)
        ext = extend_compact(random_spline(cfg))
        _, rep = separated_zero_count(ext, ext.knots[0], ext.knots[-1])
        d = spline_derivative(ext)
        _, rep_d = separated_zero_count(d, d.knots[0], d.knots[-1])
        assert open_component_count(rep_d) >= open_component_count(rep) + 1


def test_extension_requires_degree():
    step = spline_derivative(cardinal_bspline(1).spline)
    with pytest.raises(DegreeError):
        extend_compact(step)
