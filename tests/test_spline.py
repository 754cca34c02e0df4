import json
import random
import time
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from splinezeros import (
    GeneratorConfig,
    Polynomial,
    Spline,
    cardinal_bspline,
    check_interior_bound,
    check_zero_bound,
    extend_compact,
    insert_knot,
    normalize,
    piecewise_linear,
    random_spline,
    separated_zero_count,
    spline_eval,
    spline_from_truncated_powers,
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
import splinezeros.spline as spline_module
from splinezeros.harness import MAX_DENOMINATOR_BOUND, MAX_NUMERATOR_BOUND
from splinezeros.polynomial import (
    _content_normalize,
    _derivative_int,
    _div_exact_int,
    _horner,
    _prem_positive,
    _trim_int,
    root_census,
    root_order,
)
from splinezeros.rational import format_rational
from splinezeros.spline import (
    DomainCensus,
    open_component_count,
    spline_derivative,
    spline_from_document,
    spline_to_document,
    vanishing_from_report,
)

ZERO = Polynomial()


def from_roots(roots, lead=1):
    """lead * prod (x - r) over the roots, repeats included."""
    p = Polynomial.constant(lead)
    for r in roots:
        p = p * Polynomial((-r, 1))
    return p


def translate(s, shift):
    """x -> s(x - shift); knots move right by shift."""
    return Spline(s.degree, tuple(k + shift for k in s.knots),
                  tuple(p.taylor_shift(-shift) for p in s.pieces))


def reflect(s):
    """x -> s(-x); knots negate and reverse."""
    return Spline(s.degree, tuple(-k for k in reversed(s.knots)),
                  tuple(p.reflect() for p in reversed(s.pieces)))


def scale(s, c):
    """c * s."""
    return Spline(s.degree, s.knots, tuple(p * Polynomial.constant(c) for p in s.pieces))


def ramp(window=(0, 1)):
    """max(x, 0) restricted bookkeeping on the given window."""
    return spline_from_truncated_powers(ZERO, ((F(0), F(1)),), window, 1)


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


def test_spline_rejects_pieces_that_are_not_polynomials():
    with pytest.raises(FormatError, match="Polynomial"):
        Spline(1, (0, 1), (ZERO, (0, 1), ZERO))


def test_piecewise_linear_refusals():
    """Too few or non-increasing knots raise KnotOrderError before any slope
    is divided; a value count that differs from the knot count is a
    FormatError."""
    for knots, values in (([], []), ([0], [1]), ([0, 0], [1, 2]),
                          ([1, 0], [1, 2]), ([0, 2, 1], [0, 1, 0])):
        with pytest.raises(KnotOrderError):
            piecewise_linear(knots, values)
    with pytest.raises(FormatError):
        piecewise_linear([0, 1], [1])


def test_spline_rejects_smoothness_violation():
    # jump from 0 to 1 at knot 0 is not C^0
    with pytest.raises(SmoothnessError):
        Spline(1, (0, 1), (ZERO, Polynomial([1]), Polynomial([1])))
    # C^0 but not C^1 for degree 2
    with pytest.raises(SmoothnessError):
        Spline(2, (0, 1), (ZERO, Polynomial([0, 1]), Polynomial([0, 1])))


def test_kink_at_a_huge_declared_degree_fails_fast():
    """Spline takes any degree; a C^0 kink declared C^299999 is refused by
    its low-order mismatch before any power of the degree is formed."""
    started = time.monotonic()
    with pytest.raises(SmoothnessError,
                       match="derivative order 1 jumps at knot 0"):
        Spline(300000, (0, 1), (ZERO, Polynomial([0, 1]), Polynomial([0, 1])))
    assert time.monotonic() - started < 1.0


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
    right = left + from_roots([k] * r) * g * Polynomial.constant(c)
    knots = (k, k + 1)
    pieces = (left, right, right)
    smooth = smooth_by_derivative_chains(m, knots, pieces)
    assert smooth == (r >= m)
    if smooth:
        Spline(m, knots, pieces)
    else:
        with pytest.raises(SmoothnessError):
            Spline(m, knots, pieces)


knots_off_the_integers = st.fractions(min_value=-40, max_value=40,
                                      max_denominator=12)


@given(st.integers(0, 12), st.data())
@settings(max_examples=300, deadline=None)
def test_smoothness_identity_matches_root_order(m, data):
    """Two knots with planted jumps c (x - k)^r g, g(k) != 0 and r in 0..m:
    the integer identity accepts exactly when root_order(jump, k, m) >= m at
    both knots, and otherwise words the first failing knot as before."""
    k1 = data.draw(knots_off_the_integers)
    k2 = k1 + data.draw(st.fractions(min_value=F(1, 7), max_value=5,
                                     max_denominator=7))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    pieces = [Polynomial(data.draw(st.lists(small, max_size=m + 1)))]
    for k in (k1, k2):
        r = data.draw(st.integers(0, m))
        g = Polynomial(data.draw(st.lists(small, max_size=m - r + 1)))
        if g.eval(k) == 0:
            g = g + Polynomial([1])
        c = data.draw(small)
        pieces.append(pieces[-1] + from_roots([k] * r) * g * Polynomial.constant(c))
    pieces.append(pieces[-1])
    knots = (k1, k2, k2 + 1)
    orders = [root_order(pieces[j + 1] - pieces[j], k, m)
              for j, k in enumerate(knots)]
    if all(order >= m for order in orders):
        Spline(m, knots, tuple(pieces))
        return
    j = next(j for j, order in enumerate(orders) if order < m)
    expected = (f"derivative order {orders[j]} jumps at knot {knots[j]} "
                f"(C^{m - 1} required)")
    with pytest.raises(SmoothnessError) as raised:
        Spline(m, knots, tuple(pieces))
    assert str(raised.value) == expected


def test_valid_splines_run_no_root_order(monkeypatch):
    """root_order only words a SmoothnessError: certifying valid splines
    runs the integer identity alone."""
    calls = 0
    real = spline_module.root_order

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(spline_module, "root_order", counting)
    for trial in range(200):
        random_spline(GeneratorConfig(seed=23000 + trial, degree=1 + trial % 12,
                                      interior_knots=trial % 9), trial)
    assert calls == 0
    with pytest.raises(SmoothnessError):
        Spline(2, (0, 1), (ZERO, Polynomial([0, 1]), Polynomial([0, 1])))
    assert calls == 1


def test_truncated_powers_ramp():
    s = ramp()
    assert s.knots == (F(0), F(1))
    assert s.pieces == (ZERO, Polynomial([0, 1]), Polynomial([0, 1]))


def test_truncated_powers_flattening_jump():
    # 1 - x + (x)_+ : pieces 1-x then constant 1
    s = spline_from_truncated_powers(Polynomial([1, -1]), ((F(0), F(1)),), (0, 1), 1)
    assert s.pieces == (Polynomial([1, -1]), Polynomial([1]), Polynomial([1]))


def test_truncated_powers_drops_zero_jumps():
    s = spline_from_truncated_powers(ZERO, ((F(0), F(1)), (F(1, 2), F(0))), (0, 1), 1)
    assert F(1, 2) not in s.knots


def test_truncated_powers_window_ends_join_the_jump_knots():
    """Jump knots may sit on either window end; a window end is a knot once,
    and a zero jump there leaves the piece unchanged."""
    base = Polynomial([1, 2])
    step = Polynomial([-2, 1])  # (x - 2)^1
    for jumps, right in ((((F(0), F(0)), (F(2), F(1))), base + step),
                         (((F(2), F(1)),), base + step),
                         ((), base)):
        s = spline_from_truncated_powers(base, jumps, (0, 2), 1)
        assert s.knots == (F(0), F(2))
        assert s.pieces == (base, base, right)
    s = spline_from_truncated_powers(
        base, ((F(0), F(3)), (F(1), F(-1)), (F(2), F(1))), (0, 2), 1)
    assert s.knots == (F(0), F(1), F(2))
    assert s.pieces[:2] == (base, base + Polynomial([0, 3]))


def test_truncated_powers_rejects_unordered_jumps():
    with pytest.raises(KnotOrderError):
        spline_from_truncated_powers(ZERO, ((F(1), F(1)), (F(0), F(1))), (0, 2), 1)


@pytest.mark.parametrize("base, jumps, window, m, error", [
    (ZERO, ((F(1), F(1)),), (0, 2), 0, DegreeError),
    (ZERO, ((F(1), F(1)),), (0, 2), 2.0, DegreeError),
    (ZERO, ((F(1), F(1)),), (0, 2), "2", DegreeError),
    (ZERO, ((F(1), F(1)),), (0, 2), True, DegreeError),
    (ZERO, ((F(1), F(1)),), (0, 2), 13, DegreeError),
    (Polynomial([0, 0, 1]), ((F(1), F(1)),), (0, 2), 1, DegreeError),
    (ZERO, ((F(1), F(0)), (F(0), F(0))), (0, 2), 1, KnotOrderError),
    (ZERO, ((F(1), F(1)), (F(1), F(2))), (0, 2), 1, KnotOrderError),
    (ZERO, ((F(3), F(1)),), (0, 2), 1, KnotRangeError),
    (ZERO, ((F(-1), F(1)), (F(1), F(1))), (0, 2), 1, KnotRangeError),
    (ZERO, ((F(3), F(0)),), (0, 2), 1, KnotRangeError),
    (ZERO, (), (1, 1), 1, KnotOrderError),
    (ZERO, (), (2, 0), 1, KnotOrderError),
    (ZERO, ((F(1), F(1)),), (1, 1), 1, KnotOrderError),
    (ZERO, ((F(1), F(1)),), (2, 0), 1, KnotOrderError),
    (ZERO, ((F(0), F(1)), (F(2), F(1))), (2, 0), 1, KnotOrderError),
    ([1, 2], ((F(1, 2), F(1)),), (0, 1), 2, FormatError),
    ([1, 2], (), (0, 1), 2, FormatError),
], ids=["degree-0", "degree-float", "degree-str", "degree-bool", "degree-13",
        "base-above-m", "unordered-zero-jumps", "repeated-knot",
        "jump-right-of-window", "jump-left-of-window", "zero-jump-outside",
        "point-window", "reversed-window", "point-window-with-jump",
        "reversed-window-with-jump", "reversed-window-with-jumps",
        "base-list-with-jump", "base-list"])
def test_truncated_powers_refusals(base, jumps, window, m, error):
    with pytest.raises(error):
        spline_from_truncated_powers(base, jumps, window, m)


def test_truncated_powers_order_each_knot_once(monkeypatch):
    """The Spline constructor is the one knot-order check: building a random
    spline makes one Fraction ordering comparison per adjacent knot pair,
    and at most three more for the window."""
    calls = 0

    def counted(real):
        def compare(self, other):
            nonlocal calls
            calls += 1
            return real(self, other)
        return compare

    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(F, name, counted(getattr(F, name)))
    for trial in range(200):
        cfg = GeneratorConfig(seed=24000 + trial, degree=1 + trial % 12,
                              interior_knots=trial % 31)
        calls = 0
        s = random_spline(cfg, trial)
        assert len(s.knots) == cfg.interior_knots + 2
        assert calls <= len(s.knots) - 1 + 3, (trial, calls)


# -- evaluation and calculus ---------------------------------------------------------


def test_eval_examples():
    s = ramp()
    assert spline_eval(s, -1) == 0
    assert spline_eval(s, 2) == 2
    assert spline_eval(s, F(1, 2)) == F(1, 2)


def test_derivative_of_ramp_is_step():
    d = spline_derivative(ramp())
    assert d.degree == 0
    assert spline_eval(d, -1) == 0
    assert spline_eval(d, F(1, 2)) == 1
    with pytest.raises(DegreeError):
        spline_derivative(d)


def test_derivative_of_polynomial_spline():
    s = spline_from_truncated_powers(Polynomial([-2, 0, 1]), (), (0, 2), 2)
    d = spline_derivative(s)
    assert d.degree == 1
    assert all(p == Polynomial([0, 2]) for p in d.pieces)


def test_zero_order_examples():
    s = ramp()
    assert zero_order_at(s, 0) == 1
    assert zero_order_at(s, F(1, 2)) == 0
    assert zero_order_at(s, -5) == s.degree  # s vanishes left of 0


def test_degree_zero_splines_have_no_census_or_zero_order():
    step = Spline(0, (0, 1), (ZERO, Polynomial([1]), ZERO))
    with pytest.raises(DegreeError):
        separated_zero_count(step, 0, 1)
    with pytest.raises(DegreeError):
        zero_order_at(step, 0)


def test_zero_order_at_one_sided_flat_knot():
    # zero left of the knot, (x_+)^2 right of it: all derivatives below the
    # degree vanish, so the order caps at the degree
    s = spline_from_truncated_powers(ZERO, ((F(0), F(1)),), (0, 1), 2)
    assert zero_order_at(s, 0) == 2
    assert zero_order_at(s, F(-1, 2)) == s.degree  # s vanishes nearby
    assert zero_order_at(s, F(1, 2)) == 0


def test_normalize_trim_ends():
    s = Spline(1, (-2, -1, 0, 1), (ZERO, ZERO, Polynomial([1, 1]),
                                   Polynomial([1]), Polynomial([1])))
    # both outermost knots are non-genuine: the zero tail and the constant
    # tail each continue across them; normalization keeps window ends no
    # matter what
    assert normalize(s).knots == (F(-2), F(-1), F(0), F(1))
    assert normalize(s) is s


def test_normalize_returns_input_when_nothing_drops():
    for s in (zigzag_spline(4), ramp(), ramp((-1, 1))):
        assert normalize(s) is s
    tent = Spline(1, (-1, 0, 1), (ZERO, Polynomial([1, 1]),
                                  Polynomial([1, -1]), ZERO))
    assert normalize(tent) is tent
    # a dropped knot still builds a new spline
    inserted = insert_knot(tent, F(1, 2))
    assert normalize(inserted) == tent


def sympy_coeffs(expr):
    """Ascending Fraction coefficients of a sympy expression in x, trailing
    zeros dropped, as Polynomial.coeffs lists them."""
    x = sympy.Symbol("x")
    coeffs = [F(int(v.p), int(v.q))
              for v in reversed(sympy.Poly(sympy.expand(expr), x).all_coeffs())]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def sympy_rational(value):
    return sympy.Rational(value.numerator, value.denominator)


@given(st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_binomial_power_matches_products_and_sympy(m, data):
    """The recipe's integer binomial sums against two independent oracles:
    the piece right of each knot equals base + sum c_i (x - k_i)^m over the
    jumps up to that knot, with each power built as a Polynomial product of
    linear factors and again as a sympy expansion. Zero jumps leave no
    knot; both window ends stay."""
    base = Polynomial(data.draw(st.lists(small_rationals, max_size=m + 1)))
    jump_knots = sorted(data.draw(st.lists(knots_off_the_integers, unique=True,
                                           max_size=5)))
    coeffs = [data.draw(small_rationals) for _ in jump_knots]
    lo = (jump_knots[0] if jump_knots else 0) - data.draw(st.integers(0, 1))
    hi = (jump_knots[-1] if jump_knots else 0) + data.draw(st.integers(0, 1))
    if lo == hi:
        hi += 1
    s = spline_from_truncated_powers(base, list(zip(jump_knots, coeffs)),
                                     (lo, hi), m)
    nonzero = {k for k, c in zip(jump_knots, coeffs) if c}
    assert s.knots == tuple(sorted({lo, hi} | nonzero))
    x = sympy.Symbol("x")
    expected = base
    reference = sum(sympy_rational(c) * x ** i for i, c in enumerate(base.coeffs))
    assert s.pieces[0] == expected
    jumps = iter(zip(jump_knots, coeffs))
    pending = next(jumps, None)
    for knot, piece in zip(s.knots, s.pieces[1:]):
        while pending is not None and pending[0] <= knot:
            k, c = pending
            expected = expected + from_roots([k] * m, lead=c)
            reference += sympy_rational(c) * (x - sympy_rational(k)) ** m
            pending = next(jumps, None)
        assert piece == expected
        assert piece.coeffs == sympy_coeffs(reference)


def test_transforms_commute_with_knot_insertion():
    s = zigzag_spline(3)
    inserted = insert_knot(s, F(1, 2))
    t = translate(inserted, 5)
    assert F(11, 2) in t.knots
    assert normalize(t) == translate(s, 5)
    r = reflect(inserted)
    assert F(-1, 2) in r.knots
    assert normalize(r) == reflect(s)


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
    assert verdict.Z <= verdict.degree * (verdict.n + 1)  # the gross bound


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
    s = zigzag_spline(3)  # knots 0, 1, 2, 3
    with pytest.raises(IntervalError):
        separated_zero_count(s, 2, 2)
    not_knots = [
        (0, F(5, 2)), (F(1, 2), 2), (F(1, 2), F(5, 2)),  # between two knots
        (-1, 2), (F(-1, 2), 0), (-2, -1),                # below the window
        (1, 4), (3, F(7, 2)), (F(7, 2), 4),              # above the window
        (-1, 4), ("1/2", "2"), (0, "5/2"),
    ]
    for a, b in not_knots:
        with pytest.raises(KnotRangeError):
            separated_zero_count(s, a, b)
    # int and string endpoints name the same knots as Fractions
    expected = separated_zero_count(s, F(1), F(3))
    assert expected[0] == 2
    assert separated_zero_count(s, 1, 3) == expected
    assert separated_zero_count(s, "1", "3") == expected
    assert separated_zero_count(s, 0, "3")[0] == 3


def test_census_window_subinterval():
    s = zigzag_spline(4)
    z, _ = separated_zero_count(s, 1, 3)
    assert z == 2


def test_polynomial_spline_zero_bound():
    # x^2 - 2 as a degree-2 spline on declared knots {0, 2}: Z = 1 <= 2
    s = spline_from_truncated_powers(Polynomial([-2, 0, 1]), (), (0, 2), 2)
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
    # a window end strictly inside (lo, hi) keeps its singleton
    assert open_component_count(report, 0, 4) == 2
    assert open_component_count(report, -1, 3) == 1
    with pytest.raises(IntervalError):
        open_component_count(report, 1, 3)


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
    with pytest.raises(KnotRangeError, match="already a knot"):
        insert_knot(zigzag_spline(3), 1)


def test_zero_count_invariant_under_insert_reflect_scale():
    rng = random.Random(99)
    for trial in range(25):
        cfg = GeneratorConfig(seed=5000 + trial, degree=rng.randint(1, 3),
                              interior_knots=rng.randint(1, 5))
        s = random_spline(cfg)
        z = check_zero_bound(s).Z
        lo, hi = s.window
        x = (lo + hi) / 2
        s_ins = insert_knot(s, x) if x not in s.knots else s
        assert check_zero_bound(s_ins).Z == z
        assert check_zero_bound(reflect(s)).Z == z
        assert check_zero_bound(scale(s, F(-7, 3))).Z == z


def test_scale_by_zero_gives_zero_spline():
    s = zigzag_spline(3)
    z = scale(s, 0)
    assert all(p.is_zero for p in z.pieces)
    # every domain vanishes, so every knot is flagged and one component
    # spans the window
    count, report = separated_zero_count(z, 0, 3)
    assert count == 1
    assert all(d.identically_zero for d in report.domains)
    assert report.knot_value_zero == (True,) * 4


# -- interior bound and vanishing criterion -------------------------------------------


def test_interior_bound_not_applicable_when_endpoint_nonzero():
    s = zigzag_spline(3)  # s(0) = 1 != 0
    verdict = check_interior_bound(s)
    assert not verdict.applicable
    assert not verdict.passed
    assert verdict.reason == "order at 0 below degree"
    verdict = check_interior_bound(ramp())  # order 1 at 0, s(1) = 1
    assert not verdict.applicable
    assert verdict.reason == "order at 1 below degree"


def test_interior_bound_not_applicable_on_zero_window():
    zero = Spline(1, (0, 1), (ZERO, ZERO, ZERO))
    verdict = check_interior_bound(zero)
    assert not verdict.applicable


def check_vanishing_criterion(s):
    """The vanishing criterion on the whole normalized window, as the
    corollary10 suite applies it."""
    sn = normalize(s)
    _, report = separated_zero_count(sn, sn.knots[0], sn.knots[-1])
    return vanishing_from_report(sn.degree, report)


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
        base = from_roots(roots)
        if base.degree > m:
            continue
        jumps = ((F(1), F(rng.randint(1, 5))),)
        s = spline_from_truncated_powers(base, jumps, (0, 2), m)
        _, report = separated_zero_count(s, s.knots[0], s.knots[-1])
        first = report.domains[0]
        inside = [r for r in roots if F(0) < r < F(1)]
        assert first.open_interior_distinct_roots == len(inside)


# -- reference: two remainder sequences per piece and Fraction knot values -----------


def reference_gcd_int(a, b):
    """Primitive gcd with positive leading coefficient (Euclidean chain with
    content normalization at every step)."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _content_normalize(_prem_positive(a, b))
    a = _content_normalize(a)
    return [-v for v in a] if a[-1] < 0 else a


def reference_squarefree_int(c):
    """c / gcd(c, c'): same distinct roots, all simple."""
    if len(c) <= 2:
        return c
    g = reference_gcd_int(c, _derivative_int(c))
    if len(g) == 1:
        return c
    return _content_normalize(_div_exact_int(c, g))


def reference_sturm_chain(c):
    """Sturm chain of an already square-free c (a second remainder sequence
    of the same pair when c had no repeated root)."""
    chain = [c]
    d = _trim_int(_derivative_int(c))
    if d:
        chain.append(d)
        while r := _prem_positive(chain[-2], chain[-1]):
            chain.append([-v for v in _content_normalize(r)])
    return chain


def reference_open_count(p, a, b):
    """Distinct roots of p in the open (a, b) by the Sturm chain of
    p/gcd(p, p'), with the gcd from its own remainder sequence."""
    c = reference_squarefree_int(_content_normalize(list(p.num)))
    if len(c) == 1:
        return 0
    chain = reference_sturm_chain(c)

    def variations(x):
        signs = [v > 0 for e in chain
                 if (v := _horner(e, x.numerator, x.denominator)[0])]
        return sum(1 for u, v in zip(signs, signs[1:]) if u != v)

    return variations(a) - variations(b) - (_horner(c, b.numerator, b.denominator)[0] == 0)


def reference_census(s, ia, ib):
    """Domains and knot flags of the census on [knots[ia], knots[ib]], the
    flags by evaluating the piece right of each knot in Fraction."""
    domains = []
    for j in range(ia + 1, ib + 1):
        piece, left, right = s.pieces[j], s.knots[j - 1], s.knots[j]
        if piece.is_zero:
            domains.append(DomainCensus(left, right, True, None))
        else:
            domains.append(DomainCensus(left, right, False,
                                        reference_open_count(piece, left, right)))
    flags = tuple(s.pieces[j + 1].eval(s.knots[j]) == 0 for j in range(ia, ib + 1))
    return tuple(domains), flags


@st.composite
def census_cases(draw):
    """A spline, a census window (knot indices ia < ib) and its ends as
    passed. Roots are planted, with repeats, at the knots and between them;
    one case in two cancels the base at a knot, which leaves an identically
    zero domain; an extension by extend_compact, padded with one zero domain
    per side, puts its zero ends inside the window; the derivative of an
    extension (degree m - 1 >= 1) is the rolle suite's census; an inserted
    knot may sit on a planted root. One case in two censuses the whole
    window, and each end is passed as a Fraction, as its canonical text, or
    as an int when it is one."""
    m = draw(st.integers(1, 5))
    pool = draw(st.lists(small_rationals, min_size=2, max_size=6, unique=True))
    knots = sorted(draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5,
                                 unique=True)))
    roots = draw(st.lists(st.sampled_from(pool), max_size=m))
    base = from_roots(roots) * Polynomial.constant(draw(small_rationals))
    jumps = {k: draw(small_rationals) for k in knots[:-1]}
    if len(knots) >= 3 and draw(st.booleans()):
        c = draw(small_rationals.filter(bool))
        base = from_roots([knots[1]] * m) * Polynomial.constant(c)
        jumps[knots[0]] = F(0)
        jumps[knots[1]] = -c
    s = spline_from_truncated_powers(base, sorted(jumps.items()),
                                     (knots[0], knots[-1]), m)
    shapes = ("plain", "extended", "padded") + (("derivative",) if m > 1 else ())
    shape = draw(st.sampled_from(shapes))
    if shape != "plain":
        s = extend_compact(s)
    if shape == "padded":
        s = Spline(m, (s.knots[0] - 1,) + s.knots + (s.knots[-1] + 1,),
                   (ZERO,) + s.pieces + (ZERO,))
    if shape == "derivative":
        s = spline_derivative(s)
    lo, hi = s.window
    inside = [x for x in pool + [(lo + hi) / 2] if lo < x < hi and x not in s.knots]
    if inside and draw(st.booleans()):
        s = insert_knot(s, draw(st.sampled_from(inside)))
    if draw(st.booleans()):
        ia, ib = 0, len(s.knots) - 1
    else:
        ia = draw(st.integers(0, len(s.knots) - 2))
        ib = draw(st.integers(ia + 1, len(s.knots) - 1))
    ends = []
    for knot in (s.knots[ia], s.knots[ib]):
        form = draw(st.sampled_from(("fraction", "text", "int")))
        if form == "text":
            knot = format_rational(knot)
        elif form == "int" and knot.denominator == 1:
            knot = int(knot)
        ends.append(knot)
    return s, ia, ib, ends


@given(census_cases())
@settings(max_examples=300, deadline=None)
def test_census_matches_two_sequence_route(case):
    s, ia, ib, ends = case
    _, report = separated_zero_count(s, *ends)
    assert report.window == (s.knots[ia], s.knots[ib])
    assert (report.domains, report.knot_value_zero) == reference_census(s, ia, ib)
    for j in range(ia + 1, ib + 1):
        piece, left, right = s.pieces[j], s.knots[j - 1], s.knots[j]
        if not piece.is_zero:
            assert root_census(piece, left, right) == (
                reference_open_count(piece, left, right),
                piece.eval(left) == 0, piece.eval(right) == 0)


# -- reference: components and Corollary 10 in separate passes ---------------------


def reference_component_count(report):
    """Z from a finished census in two passes: the interior roots of the
    non-vanishing domains, then one component per zero knot that the
    identically zero domain to its left does not join to the knot before."""
    domains, knot_zero = report.domains, report.knot_value_zero
    isolated = sum(d.open_interior_distinct_roots for d in domains
                   if not d.identically_zero)
    clusters = 0
    for idx, flag in enumerate(knot_zero):
        if not flag:
            continue
        joined = idx > 0 and knot_zero[idx - 1] and domains[idx - 1].identically_zero
        if not joined:
            clusters += 1
    return isolated + clusters


def reference_vanishing(degree, report):
    """The forced-vanishing verdict in four passes over the domains."""
    domains, knot_zero = report.domains, report.knot_value_zero
    n = len(domains)
    conclusion = all(d.identically_zero for d in domains)
    if any(d.identically_zero for d in domains):
        enough = True
    else:
        distinct = sum(d.open_interior_distinct_roots for d in domains)
        distinct += sum(knot_zero)
        enough = distinct >= n + degree
    scattered = all(
        d.identically_zero
        or d.open_interior_distinct_roots >= 1
        or (knot_zero[j] and knot_zero[j + 1])
        for j, d in enumerate(domains)
    )
    consistent = (not (enough and scattered)) or conclusion
    return (enough, scattered, conclusion, consistent)


@st.composite
def zero_gap_sums(draw):
    """sum_i c_i B_m(x - k_i) on the integer knots of its support, with
    integer shifts k_i whose gaps reach past m + 1, so that identically
    zero domains and chains of zero knots appear between the bumps (a
    coefficient 0 leaves a whole bump out), censused on the whole window or
    on a random sub-window of knots."""
    m = draw(st.integers(1, 5))
    gaps = draw(st.lists(st.integers(0, m + 3), min_size=1, max_size=4))
    shifts = [sum(gaps[:i + 1]) for i in range(len(gaps))]
    coeffs = draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                        max_denominator=3),
                           min_size=len(shifts), max_size=len(shifts)))
    b = cardinal_bspline(m)
    lo, hi = shifts[0], shifts[-1] + m + 1
    pieces = []
    for x in range(lo - 1, hi + 1):  # the piece on [x, x + 1]
        piece = ZERO
        for k, c in zip(shifts, coeffs):
            if 0 <= x - k <= m:
                piece = piece + b.pieces[x - k + 1].taylor_shift(-k) * \
                    Polynomial.constant(c)
        pieces.append(piece)
    s = Spline(m, range(lo, hi + 1), pieces)
    if draw(st.booleans()):
        return s, 0, len(s.knots) - 1
    ia = draw(st.integers(0, len(s.knots) - 2))
    return s, ia, draw(st.integers(ia + 1, len(s.knots) - 1))


def whole_or_sub_window(case):
    s, ia, ib, _ = case
    return s, ia, ib


@given(st.one_of(zero_gap_sums(), census_cases().map(whole_or_sub_window)))
@settings(max_examples=300, deadline=None)
def test_components_and_vanishing_match_multi_pass_references(case):
    """The census counts components inside its domain loop, and
    vanishing_from_report reads each domain once; both equal the separate
    passes they replaced, on zero-gap sums of shifted B_m and on the census
    cases above."""
    s, ia, ib = case
    z, report = separated_zero_count(s, s.knots[ia], s.knots[ib])
    assert z == report.component_count == reference_component_count(report)
    assert tuple(vanishing_from_report(s.degree, report)) == \
        reference_vanishing(s.degree, report)


def test_zero_gap_census_examples():
    """B_1 at 0 and -B_1 at 3 on [0, 5]: the zero knots 2 and 3 chain
    through the zero domain [2, 3], so Z = 3 (0, [2, 3] and 5); on the
    sub-window [2, 3] the one component is the whole window, which meets
    Corollary 10's hypotheses and vanishes."""
    b = cardinal_bspline(1)
    pieces = [ZERO, b.pieces[1], b.pieces[2], ZERO,
              -b.pieces[1].taylor_shift(-3), -b.pieces[2].taylor_shift(-3), ZERO]
    s = Spline(1, range(6), pieces)
    z, report = separated_zero_count(s, 0, 5)
    assert z == 3 == reference_component_count(report)
    assert report.knot_value_zero == (True, False, True, True, False, True)
    z, report = separated_zero_count(s, 2, 3)
    assert z == 1
    assert tuple(vanishing_from_report(1, report)) == (True, True, True, True)


def test_census_evaluates_no_piece(monkeypatch):
    """The knot flags come from the Sturm sequences of the domain census, so
    a census over random splines and their extensions runs no
    Polynomial.eval."""
    splines = []
    for trial in range(200):
        cfg = GeneratorConfig(seed=21000 + trial, degree=1 + trial % 4,
                              interior_knots=trial % 6)
        s = random_spline(cfg)
        splines += [s, extend_compact(s)]
    calls = 0
    evaluate = Polynomial.eval

    def counting_eval(self, x):
        nonlocal calls
        calls += 1
        return evaluate(self, x)

    monkeypatch.setattr(Polynomial, "eval", counting_eval)
    for s in splines:
        separated_zero_count(s, s.knots[0], s.knots[-1])
    assert len(splines) == 400
    assert calls == 0


def test_smoothness_check_and_census_build_no_fraction(monkeypatch):
    """Pieces hold integer numerators over one denominator, so re-verifying
    C^(m-1) smoothness (Spline(...)) and the zero census of random splines
    construct no Fraction at all."""
    splines = [random_spline(GeneratorConfig(seed=22000 + trial,
                                             degree=1 + trial % 4,
                                             interior_knots=trial % 6))
               for trial in range(200)]
    built = 0

    def counting(construct):
        def wrapper(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return construct(cls, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(F, "__new__", staticmethod(counting(F.__new__)))
    if hasattr(F, "_from_coprime_ints"):  # Python 3.12+ arithmetic results
        monkeypatch.setattr(F, "_from_coprime_ints",
                            classmethod(counting(F._from_coprime_ints.__func__)))
    F(1, 3) + F(1, 6)  # two operands and their sum
    assert built == 3
    built = 0
    for s in splines:
        Spline(s.degree, s.knots, s.pieces)
        separated_zero_count(s, s.knots[0], s.knots[-1])
    assert built == 0


# -- JSON contract ---------------------------------------------------------------------


def assert_document_contract(s):
    """The document round-trips through JSON text to an equal spline, and
    every string is the canonical text of its exact value."""
    doc = spline_to_document(s)
    assert spline_from_document(json.loads(json.dumps(doc))) == s
    assert doc["degree"] == s.degree
    assert doc["knots"] == [format_rational(k) for k in s.knots]
    assert doc["pieces"] == [[format_rational(F(v, p.den)) for v in p.num]
                             for p in s.pieces]


def test_json_roundtrip():
    """zigzag, the generator at its caps, and drawn splines with zero,
    negative and integer coefficients and denominators up to 10^30 in the
    base and the jumps."""
    assert_document_contract(zigzag_spline(3))
    rng = random.Random(5100)

    def coefficient():
        kind, num = rng.randrange(3), rng.randint(-10**6, 10**6)
        return (F(0), F(num), F(num, rng.randint(1, 10**30)))[kind]

    for trial in range(60):
        m = 1 + trial % 12
        cfg = GeneratorConfig(seed=5100 + trial, degree=m,
                              interior_knots=trial % 9,
                              numerator_bound=MAX_NUMERATOR_BOUND,
                              denominator_bound=MAX_DENOMINATOR_BOUND)
        assert_document_contract(random_spline(cfg, trial))
        base = Polynomial(coefficient() for _ in range(rng.randint(0, m + 1)))
        knots = sorted({F(rng.randint(-400, 400), rng.randint(1, 12))
                        for _ in range(rng.randint(1, 4))})
        jumps = [(k, coefficient()) for k in knots]
        assert_document_contract(spline_from_truncated_powers(
            base, jumps, (knots[0] - 1, knots[-1] + 1), m))


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
