import json
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from splinezeros import (
    Polynomial,
    Spline,
    TruncatedPowerSpec,
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
    spline_reflect,
    spline_scale,
    spline_to_document,
    spline_translate,
    zero_order_at,
    zigzag_spline,
)
from splinezeros.errors import (
    DegreeError,
    FormatError,
    IntervalError,
    KnotOrderError,
    KnotRangeError,
    SmoothnessError,
)
from splinezeros.spline import _binomial_power

ZERO = Polynomial()


def ramp(window=(0, 1)):
    """max(x, 0) restricted bookkeeping on the given window."""
    spec = TruncatedPowerSpec(ZERO, ((F(0), F(1)),), window)
    return spline_from_truncated_powers(spec, 1)


# -- construction and validation -----------------------------------------------------


def test_spline_requires_two_knots():
    with pytest.raises(KnotOrderError):
        Spline(1, (F(0),), (ZERO, ZERO))


def test_spline_rejects_unsorted_knots():
    with pytest.raises(KnotOrderError):
        Spline(1, (1, 0), (ZERO, ZERO, ZERO))


def test_spline_rejects_wrong_piece_count():
    with pytest.raises(FormatError):
        Spline(1, (0, 1), (ZERO, ZERO))


def test_spline_rejects_piece_degree_above_m():
    with pytest.raises(DegreeError):
        Spline(1, (0, 1), (ZERO, Polynomial([0, 0, 1]), ZERO))


def test_spline_rejects_bool_degree():
    for flag in (True, False):
        with pytest.raises(DegreeError):
            Spline(flag, (0, 1), (ZERO, ZERO, ZERO))


def test_spline_rejects_smoothness_violation():
    # jump from 0 to 1 at knot 0 is not C^0
    with pytest.raises(SmoothnessError):
        Spline(1, (0, 1), (ZERO, Polynomial([1]), Polynomial([1])))
    # C^0 but not C^1 for degree 2
    with pytest.raises(SmoothnessError):
        Spline(2, (0, 1), (ZERO, Polynomial([0, 1]), Polynomial([0, 1])))


def smooth_by_derivative_chains(degree, knots, pieces):
    """Reference C^(degree-1) check: derivatives 0 .. degree-1 of the two
    adjacent pieces agree at every knot (exact Horner values)."""
    for j, knot in enumerate(knots):
        left, right = pieces[j], pieces[j + 1]
        for _ in range(degree):
            if left.eval(knot) != right.eval(knot):
                return False
            left, right = left.derivative(), right.derivative()
    return True


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_smoothness_rule_matches_derivative_chains(m, data):
    """Pieces left and left + c (x - k)^r g with g(k) != 0: the jump has a
    root of order exactly r at k, so C^(m-1) holds exactly when r >= m."""
    k = data.draw(small_rationals)
    r = data.draw(st.integers(0, m))
    c = data.draw(small_rationals.filter(bool))
    left = Polynomial(data.draw(st.lists(small_rationals, max_size=m + 1)))
    g = Polynomial(data.draw(st.lists(small_rationals, max_size=m - r + 1)))
    if g.eval(k) == 0:
        g = g + Polynomial([1])
    right = left + (Polynomial.from_roots([k] * r) * g).scale(c)
    knots = (k, k + 1)
    pieces = (left, right, right)
    smooth = smooth_by_derivative_chains(m, knots, pieces)
    assert smooth == (r >= m)
    if smooth:
        Spline(m, knots, pieces)
    else:
        with pytest.raises(SmoothnessError):
            Spline(m, knots, pieces)


def test_truncated_powers_ramp():
    s = ramp()
    assert s.knots == (F(0), F(1))
    assert s.pieces == (ZERO, Polynomial([0, 1]), Polynomial([0, 1]))


def test_truncated_powers_flattening_jump():
    # 1 - x + (x)_+ : pieces 1-x then constant 1
    spec = TruncatedPowerSpec(Polynomial([1, -1]), ((F(0), F(1)),), (0, 1))
    s = spline_from_truncated_powers(spec, 1)
    assert s.pieces == (Polynomial([1, -1]), Polynomial([1]), Polynomial([1]))


def test_truncated_powers_drops_zero_jumps():
    spec = TruncatedPowerSpec(ZERO, ((F(0), F(1)), (F(1, 2), F(0))), (0, 1))
    s = spline_from_truncated_powers(spec, 1)
    assert F(1, 2) not in s.knots


def test_truncated_powers_rejects_unordered_jumps():
    with pytest.raises(KnotOrderError):
        TruncatedPowerSpec(ZERO, ((F(1), F(1)), (F(0), F(1))), (0, 2))


# -- evaluation and calculus ---------------------------------------------------------


def test_eval_examples():
    s = ramp()
    assert spline_eval(s, -1) == 0
    assert spline_eval(s, 2) == 2
    assert s(F(1, 2)) == F(1, 2)


def test_derivative_of_ramp_is_step():
    d = spline_derivative(ramp())
    assert d.degree == 0
    assert spline_eval(d, -1) == 0
    assert spline_eval(d, F(1, 2)) == 1
    with pytest.raises(DegreeError):
        spline_derivative(d)


def test_derivative_of_polynomial_spline():
    spec = TruncatedPowerSpec(Polynomial([-2, 0, 1]), (), (0, 2))
    s = spline_from_truncated_powers(spec, 2)
    d = spline_derivative(s)
    assert d.degree == 1
    assert all(p == Polynomial([0, 2]) for p in d.pieces)


def test_zero_order_examples():
    s = ramp()
    assert zero_order_at(s, 0) == 1
    assert zero_order_at(s, F(1, 2)) == 0
    assert zero_order_at(s, -5) == float("inf")


def test_zero_order_at_one_sided_flat_knot():
    # zero left of the knot, (x_+)^2 right of it: all derivatives below the
    # degree vanish, so the order caps at the degree
    spec = TruncatedPowerSpec(ZERO, ((F(0), F(1)),), (0, 1))
    s = spline_from_truncated_powers(spec, 2)
    assert zero_order_at(s, 0) == 2
    assert zero_order_at(s, F(-1, 2)) == float("inf")
    assert zero_order_at(s, F(1, 2)) == 0


def test_normalize_trim_ends():
    zero = Polynomial()
    ramp_up = Polynomial([1, 1])
    s = Spline(1, (-2, -1, 0, 1), (zero, zero, ramp_up, Polynomial([1]),
                                   Polynomial([1])))
    # both outermost knots are non-genuine: the zero tail and the constant
    # tail each continue across them
    trimmed = normalize(s, trim_ends=True)
    assert trimmed.knots == (F(-1), F(0))
    assert trimmed.pieces == (zero, ramp_up, Polynomial([1]))
    # plain normalization keeps window ends no matter what
    assert normalize(s).knots == (F(-2), F(-1), F(0), F(1))


def test_normalize_returns_input_when_nothing_drops():
    for s in (zigzag_spline(4), ramp(), ramp((-1, 1))):
        assert normalize(s) is s
    tent = Spline(1, (-1, 0, 1), (ZERO, Polynomial([1, 1]),
                                  Polynomial([1, -1]), ZERO))
    assert normalize(tent, trim_ends=True) is tent
    # a dropped knot still builds a new spline
    inserted = insert_knot(tent, F(1, 2))
    assert normalize(inserted, trim_ends=True) == tent


@given(small_rationals, small_rationals.filter(bool), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_binomial_power_matches_products_and_sympy(knot, c, m):
    expanded = _binomial_power(c, knot, m)
    product = Polynomial([1])
    for _ in range(m):
        product = product * Polynomial((-knot, 1))
    assert expanded == product.scale(c)
    x = sympy.Symbol("x")
    reference = sympy.Poly(
        sympy.expand(sympy.Rational(c.numerator, c.denominator)
                     * (x - sympy.Rational(knot.numerator, knot.denominator)) ** m),
        x)
    assert expanded.coeffs == tuple(
        F(int(v.p), int(v.q)) for v in reversed(reference.all_coeffs()))


def test_transforms_commute_with_knot_insertion():
    s = zigzag_spline(3)
    inserted = insert_knot(s, F(1, 2))
    t = spline_translate(inserted, 5)
    assert F(11, 2) in t.knots
    assert normalize(t) == spline_translate(s, 5)
    r = spline_reflect(inserted)
    assert F(-1, 2) in r.knots
    assert normalize(r) == spline_reflect(s)


def test_degree_zero_eval_uses_right_piece():
    d = spline_derivative(ramp())  # 0 left of the kink, 1 right of it
    assert spline_eval(d, 0) == 1


# -- census -------------------------------------------------------------------------


def test_zigzag_census_meets_bound():
    s = zigzag_spline(4)
    z, report = separated_zero_count(s, 0, 4)
    assert z == 4
    assert all(d.open_interior_distinct_roots == 1 for d in report.domains)
    verdict = check_zero_bound(s)
    assert verdict.Z == 4 and verdict.bound == 4 and verdict.passed
    assert verdict.Z <= verdict.gross_bound


def test_plateau_insertion_regression():
    # zero value at a knot vs. an inserted flat zero domain: same Z
    touching = piecewise_linear([0, 1, 2], [1, 0, 1])
    plateau = piecewise_linear([0, 1, 2, 3], [1, 0, 0, 1])
    z1, _ = separated_zero_count(touching, 0, 2)
    z2, rep2 = separated_zero_count(plateau, 0, 3)
    assert z1 == z2 == 1
    assert rep2.domains[1].identically_zero
    assert rep2.domains[1].open_interior_distinct_roots is None


def test_census_errors():
    s = zigzag_spline(3)
    with pytest.raises(IntervalError):
        separated_zero_count(s, 2, 2)
    with pytest.raises(KnotRangeError):
        separated_zero_count(s, 0, F(5, 2))


def test_census_window_subinterval():
    s = zigzag_spline(4)
    z, _ = separated_zero_count(s, 1, 3)
    assert z == 2


def test_polynomial_spline_zero_bound():
    # x^2 - 2 as a degree-2 spline on declared knots {0, 2}: Z = 1 <= 2
    spec = TruncatedPowerSpec(Polynomial([-2, 0, 1]), (), (0, 2))
    s = spline_from_truncated_powers(spec, 2)
    verdict = check_zero_bound(s)
    assert verdict.n == 1
    assert verdict.Z == 1
    assert verdict.bound == 2
    assert verdict.passed


def test_open_component_count():
    # zeros exactly at both window ends and one inside
    s = piecewise_linear([0, 1, 2], [0, 1, 0])
    z, report = separated_zero_count(s, 0, 2)
    assert z == 2
    assert open_component_count(report) == 0
    flat = piecewise_linear([0, 1, 2, 3], [0, 0, 1, 0])
    z, report = separated_zero_count(flat, 0, 3)
    assert z == 2
    # the [0,1] plateau still meets the open interval
    assert open_component_count(report) == 1


# -- knot insertion and invariances ---------------------------------------------------


def test_insert_knot_roundtrip():
    s = ramp()
    s2 = insert_knot(s, F(1, 2))
    assert s2.knots == (F(0), F(1, 2), F(1))
    assert normalize(s2) == s
    rng = random.Random(31)
    for _ in range(100):
        x = F(rng.randint(-8, 16), rng.randint(1, 8))
        assert spline_eval(s2, x) == spline_eval(s, x)


def test_insert_knot_errors():
    s = ramp()
    with pytest.raises(KnotRangeError):
        insert_knot(s, 2)
    with pytest.raises(KnotRangeError):
        insert_knot(s, F(0))


def test_zero_count_invariant_under_insert_reflect_scale():
    rng = random.Random(99)
    from splinezeros import GeneratorConfig, random_spline
    for trial in range(25):
        cfg = GeneratorConfig(seed=5000 + trial, degree=rng.randint(1, 3),
                              interior_knots=rng.randint(1, 5))
        s = random_spline(cfg)
        z = check_zero_bound(s).Z
        lo, hi = s.window
        x = (lo + hi) / 2
        s_ins = insert_knot(s, x) if x not in s.knots else s
        assert check_zero_bound(s_ins).Z == z
        assert check_zero_bound(spline_reflect(s)).Z == z
        assert check_zero_bound(spline_scale(s, F(-7, 3))).Z == z


def test_scale_by_zero_gives_zero_spline():
    s = zigzag_spline(3)
    z = spline_scale(s, 0)
    assert all(p.is_zero for p in z.pieces)


# -- interior bound and vanishing criterion -------------------------------------------


def test_interior_bound_not_applicable_when_endpoint_nonzero():
    s = zigzag_spline(3)  # s(0) = 1 != 0
    verdict = check_interior_bound(s)
    assert not verdict.applicable
    assert not verdict.passed
    assert verdict.reason


def test_interior_bound_not_applicable_on_zero_window():
    zero = Spline(1, (0, 1), (ZERO, ZERO, ZERO))
    verdict = check_interior_bound(zero)
    assert not verdict.applicable


def test_vanishing_criterion_zero_spline():
    zero = Spline(1, (0, 1), (ZERO, ZERO, ZERO))
    v = check_vanishing_criterion(zero)
    assert v.enough_zeros and v.scattered and v.identically_zero and v.consistent


def test_vanishing_criterion_zigzag():
    v = check_vanishing_criterion(zigzag_spline(4))
    # 4 zeros < n + m = 5: first hypothesis fails, vacuously consistent
    assert not v.enough_zeros
    assert v.consistent


# -- planted-root census oracle --------------------------------------------------------


def test_first_domain_census_matches_planted_roots():
    """Plant rational roots in the first domain via the base polynomial;
    jumps further right cannot disturb that domain."""
    rng = random.Random(1234)
    for _ in range(60):
        m = rng.randint(2, 4)
        roots = sorted({F(rng.randint(1, 19), 20) for _ in
                        range(rng.randint(1, m))})
        base = Polynomial.from_roots(roots)
        if base.degree > m:
            continue
        jumps = ((F(1), F(rng.randint(1, 5))),)
        spec = TruncatedPowerSpec(base, jumps, (0, 2))
        s = spline_from_truncated_powers(spec, m)
        _, report = separated_zero_count(s, s.knots[0], s.knots[-1])
        first = report.domains[0]
        inside = [r for r in roots if F(0) < r < F(1)]
        assert first.open_interior_distinct_roots == len(inside)


# -- JSON contract ---------------------------------------------------------------------


def test_json_roundtrip():
    s = zigzag_spline(3)
    doc = spline_to_document(s)
    text = json.dumps(doc)
    back = spline_from_document(json.loads(text))
    assert back.degree == s.degree
    assert back.knots == s.knots
    assert back.pieces == s.pieces


def test_json_rejects_smoothness_violation():
    doc = {
        "degree": 1,
        "knots": ["0", "1"],
        "pieces": [["0"], ["1"], ["1"]],
    }
    with pytest.raises(SmoothnessError):
        spline_from_document(doc)


def test_json_rejects_structural_problems():
    with pytest.raises(FormatError):
        spline_from_document({"degree": 1, "knots": ["0", "1"],
                              "pieces": [["0"], ["0"]]})
    with pytest.raises(FormatError):
        spline_from_document({"degree": 0, "knots": ["0", "1"],
                              "pieces": [[], [], []]})
    with pytest.raises(FormatError):
        spline_from_document({"degree": 1, "knots": ["0", "1/0"],
                              "pieces": [[], [], []]})
    with pytest.raises(FormatError):
        spline_from_document([1, 2, 3])
