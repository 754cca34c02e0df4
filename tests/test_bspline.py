import hashlib
import json
import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splinezeros import (
    GeneratorConfig,
    Polynomial,
    Spline,
    cardinal_bspline,
    check_interior_bound,
    check_zero_bound,
    convolution_bspline_pieces,
    extend_compact,
    insert_knot,
    normalize,
    random_spline,
    separated_zero_count,
    spline_eval,
    spline_from_truncated_powers,
    zero_order_at,
)
from splinezeros import bspline, linalg
from splinezeros.errors import (
    ConsistencyError,
    DegreeError,
    SmoothnessError,
)
from splinezeros.linalg import RationalMatrix, mat_solve
from splinezeros.spline import (
    open_component_count,
    spline_derivative,
    spline_from_document,
    spline_to_document,
)

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
    assert b1.pieces == (ZERO, Polynomial([0, 1]), Polynomial([2, -1]), ZERO)


def test_b2_value():
    assert bspline_value_oracle(2, F(3, 2)) == F(3, 4)
    assert spline_eval(cardinal_bspline(2), F(3, 2)) == F(3, 4)


def test_b3_value():
    assert bspline_value_oracle(3, 2) == F(2, 3)
    assert spline_eval(cardinal_bspline(3), 2) == F(2, 3)


def test_degree_range_enforced():
    for m in (0, 13, True, 2.0):
        with pytest.raises(DegreeError):
            cardinal_bspline(m)
    assert convolution_bspline_pieces(0) == (Polynomial.constant(1),)


@pytest.mark.parametrize("m", [-1, True, 2.0, "3", 13, 40])
def test_convolution_pieces_refuse_bad_degree(m):
    """The convolution cross-check takes degrees 0 to MAX_CARDINAL_DEGREE:
    a bool is not read as 1, and a float, a str or a degree past the cap
    is refused before any integration."""
    with pytest.raises(DegreeError):
        convolution_bspline_pieces(m)


ONE = Polynomial([1])
DEGREE_13_ENTRY_POINTS = {
    "cardinal_bspline": lambda: cardinal_bspline(13),
    "extend_compact": lambda: extend_compact(Spline(13, (0, 1), (ONE,) * 3)),
    "GeneratorConfig": lambda: GeneratorConfig(seed=1, degree=13,
                                               interior_knots=1),
    "spline_from_document": lambda: spline_from_document(
        {"degree": 13, "knots": ["0", "1"], "pieces": [["1"]] * 3}),
    "spline_from_truncated_powers": lambda: spline_from_truncated_powers(
        Polynomial(), ((0, 1),), (0, 1), 13),
}


@pytest.mark.parametrize("entry", sorted(DEGREE_13_ENTRY_POINTS))
def test_entry_points_share_one_degree_rule(entry):
    """Every public entry point that takes a degree refuses 13 with the one
    message of spline.check_degree."""
    with pytest.raises(DegreeError) as refused:
        DEGREE_13_ENTRY_POINTS[entry]()
    assert str(refused.value) == (
        "degree must be an int in [1, 12] (MAX_CARDINAL_DEGREE), got 13")


def shifted_by_one(s):
    return Spline(s.degree, tuple(k + 1 for k in s.knots),
                  tuple(p.taylor_shift(-1) for p in s.pieces))


def negated(s):
    return Spline(s.degree, s.knots, tuple(-p for p in s.pieces))


def plus_one(s):
    return Spline(s.degree, s.knots, tuple(p + Polynomial([1]) for p in s.pieces))


@pytest.mark.parametrize("m", [1, 2, 5, 12])
@pytest.mark.parametrize("corrupt, convolution_follows, message", [
    (shifted_by_one, False,
     "truncated-power and convolution constructions of B_{m} disagree"),
    (shifted_by_one, True, "B_{m} must have knots 0..{m1}"),
    (plus_one, True, "B_{m} must vanish outside [0, {m1}]"),
    (negated, True, "B_{m} not positive on (0, 1)"),
], ids=["disagree", "knots", "ends", "sign"])
def test_cardinal_bspline_certifies_what_it_returns(monkeypatch, m, corrupt,
                                                    convolution_follows, message):
    """A wrong B_m from the truncated-power route is refused with its
    ConsistencyError message: by the cross-check when the convolution route
    stays right, and by the certificate when both routes are patched to agree
    on the same wrong spline. Nothing wrong is cached."""
    good = cardinal_bspline(m)
    bad = corrupt(good)
    monkeypatch.setattr(bspline, "univariate_box_spline", lambda lengths: bad)
    if convolution_follows:
        monkeypatch.setattr(bspline, "convolution_bspline_pieces",
                            lambda degree: bad.pieces[1:-1])
    bspline._cardinal_cached.cache_clear()
    try:
        with pytest.raises(ConsistencyError) as info:
            cardinal_bspline(m)
        assert str(info.value) == message.format(m=m, m1=m + 1)
    finally:
        monkeypatch.undo()
        bspline._cardinal_cached.cache_clear()
    assert cardinal_bspline(m) == good


def test_two_constructions_agree_up_to_degree_8():
    for m in range(1, 9):
        b = cardinal_bspline(m)
        assert b.pieces[1:-1] == convolution_bspline_pieces(m)


def test_pointwise_recurrence_oracle():
    rng = random.Random(11)
    for m in range(1, 6):
        for _ in range(10):
            x = F(rng.randint(-2, 4 * (m + 1)), 4)
            assert spline_eval(cardinal_bspline(m), x) == bspline_value_oracle(m, x)


def test_support_and_boundary_orders():
    for m in range(1, 7):
        s = cardinal_bspline(m)
        assert s.knots == tuple(F(k) for k in range(m + 2))
        assert s.pieces[0].is_zero and s.pieces[-1].is_zero
        assert zero_order_at(s, 0) == m
        assert zero_order_at(s, m + 1) == m


def test_interior_positivity_census():
    for m in range(1, 7):
        s = cardinal_bspline(m)
        z, report = separated_zero_count(s, 0, m + 1)
        assert z == 2  # exactly the two support endpoints
        assert all(d.open_interior_distinct_roots == 0 for d in report.domains)
        assert all(not d.identically_zero for d in report.domains)


def test_support_has_m_plus_1_domains():
    for m in range(1, 7):
        assert len(cardinal_bspline(m).pieces) - 2 == m + 1


def test_interior_bound_on_bsplines():
    for m in (1, 2, 3):
        verdict = check_interior_bound(cardinal_bspline(m))
        assert verdict.applicable
        assert verdict.report.component_count == 2  # the support ends
        assert verdict.interior_Z == 0
        assert verdict.interior_bound == 0  # n = m + 1
        assert verdict.passed


def test_partition_of_unity_exact():
    rng = random.Random(22)
    for m in range(1, 7):
        for _ in range(20):
            x = F(rng.randint(0, 12 * 7), rng.randint(1, 7))
            total = sum(spline_eval(cardinal_bspline(m), x - j)
                        for j in range(-m - 1, int(x) + 2))
            assert total == 1


def test_combination_partition_window():
    """The m + 2 translates B_m(x - j), j = -m..m+1, cover [0, 1] and sum to
    1 there."""
    m = 3
    b = cardinal_bspline(m)
    rng = random.Random(33)
    for _ in range(20):
        x = F(rng.randint(0, 8), 8)
        assert sum(spline_eval(b, x - j) for j in range(-m, m + 2)) == 1


def test_extension_of_constant_is_trapezoid():
    s = Spline(1, (0, 1), (Polynomial([1]), Polynomial([1]), Polynomial([1])))
    ext = extend_compact(s)
    assert ext.knots == (F(-1), F(0), F(1), F(2))
    assert ext.pieces == (ZERO, Polynomial([1, 1]), Polynomial([1]),
                          Polynomial([2, -1]), ZERO)


def test_extension_fixes_bsplines():
    for m in (1, 2, 3, 4):
        b = cardinal_bspline(m)
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
        report = check_zero_bound(ext).report
        z = open_component_count(report, sn.knots[0] - m, sn.knots[-1] + m)
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
    step = spline_derivative(cardinal_bspline(1))
    with pytest.raises(DegreeError):
        extend_compact(step)
    one = Polynomial([1])
    with pytest.raises(DegreeError, match="MAX_CARDINAL_DEGREE"):
        extend_compact(Spline(13, (0, 1), (one, one, one)))


# -- oracle: the B-spline tail construction -----------------------------------------


def _reference_left_tail(s):
    """Pieces on the m unit domains of [a_0 - m, a_0]: sum_j lambda_j
    B_m(x - a_0 - j), j = -m..0, with the lambdas from one mat_solve that
    matches the first interior piece of s on [a_0, a_0 + 1]."""
    m = s.degree
    a0 = s.knots[0]
    base = cardinal_bspline(m)
    columns = []
    for j in range(-m, 1):
        segment = base.pieces[-j + 1].taylor_shift(-(a0 + j))
        columns.append(list(segment.coeffs)
                       + [F(0)] * (m + 1 - len(segment.coeffs)))
    matrix = RationalMatrix.from_rows(
        [[columns[j][row] for j in range(m + 1)] for row in range(m + 1)])
    first = s.pieces[1]
    lam = mat_solve(matrix, list(first.coeffs)
                    + [F(0)] * (m + 1 - len(first.coeffs)))
    tail = []
    for i in range(m):
        acc = Polynomial()
        for idx, j in enumerate(range(-m, 1)):
            k = i - j - m  # domain index inside B_m for this translate
            if 0 <= k <= m and lam[idx] != 0:
                acc = acc + base.pieces[k + 1].taylor_shift(-(a0 + j)) \
                    * Polynomial.constant(lam[idx])
        tail.append(acc)
    return tail


def reference_extend_compact(s):
    """extend_compact by B-spline tails: the left tail above, the right one
    through reflection, glued to the interior pieces, normalized, and with
    the outer knots shed while the zero tails continue across them (never
    below two knots)."""
    m = s.degree
    a0, an = s.knots[0], s.knots[-1]
    left = _reference_left_tail(s)
    reflected = Spline(m, tuple(-k for k in reversed(s.knots)),
                       tuple(p.reflect() for p in reversed(s.pieces)))
    right = [p.reflect() for p in reversed(_reference_left_tail(reflected))]
    knots = (tuple(a0 - m + i for i in range(m)) + s.knots
             + tuple(an + i for i in range(1, m + 1)))
    pieces = (ZERO,) + tuple(left) + s.pieces[1:-1] + tuple(right) + (ZERO,)
    s = normalize(Spline(m, knots, pieces))
    knots, pieces = list(s.knots), list(s.pieces)
    while len(knots) > 2 and pieces[0] == pieces[1]:
        del knots[0], pieces[0]
    while len(knots) > 2 and pieces[-1] == pieces[-2]:
        del knots[-1], pieces[-1]
    return Spline(m, tuple(knots), tuple(pieces))


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
wide_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)


@st.composite
def extension_inputs(draw, rationals=small_rationals):
    """Splines of degree 1..12 on 0-6 interior knots, with knots and
    coefficients drawn from rationals. The base may have any degree up to m
    and jumps may be zero, so pieces of degree below m, fewer genuine knots
    than drawn and all-zero windows occur; one input in two gets a
    non-genuine knot through insert_knot."""
    m = draw(st.integers(1, 12))
    knots = sorted(set(draw(st.lists(rationals, min_size=2, max_size=8))))
    if len(knots) < 2:
        knots.append(knots[0] + 1)
    base = Polynomial(draw(st.lists(rationals, max_size=m + 1)))
    jumps = tuple((k, draw(rationals)) for k in knots[1:-1])
    s = spline_from_truncated_powers(base, jumps, (knots[0], knots[-1]), m)
    if draw(st.booleans()):
        s = insert_knot(s, (3 * s.knots[0] + s.knots[1]) / 4)
    return s


@given(extension_inputs())
@example(Spline(3, (0, 1), (ZERO, ZERO, ZERO)))
@example(Spline(12, (F(-1, 3), F(5, 2)), (ZERO, ZERO, ZERO)))
# p_1 = 0 and a zero left tail: the first knot moves inward past a_0 and
# past a non-genuine knot to 1
@example(Spline(3, (0, F(1, 2), 1, 3),
                (ZERO, ZERO, ZERO, Polynomial([-1, 3, -3, 1]),
                 Polynomial([-1, 3, -3, 1]))))
# p_n = (x - 2)^3 - (x - 4)^3 on [0, 1]: e_0 = e_2 = 0, so p_n continues past
# a_n = 1 to the knot 2, and a_n + 2 is no knot
@example(Spline(3, (0, 1), (Polynomial([56, -36, 6]),) * 3))
# p_1 = (x + 1)^2 on [0, 1]: d_0 = 0, so a_0 is no knot of the extension
@example(Spline(2, (0, 1), (Polynomial([1, 2, 1]),) * 3))
# p_n = 0: the extension ends at 1, inside the window [0, 2]
@example(Spline(2, (0, 1, 2), (Polynomial([1, -2, 1]),) * 2 + (ZERO, ZERO)))
# a non-genuine knot next to each window end
@example(insert_knot(insert_knot(spline_from_truncated_powers(
    Polynomial([1, -1, 2]), [(1, 3), (2, -1)], (0, 3), 2), F(1, 2)), F(5, 2)))
@settings(max_examples=120, deadline=None)
def test_extension_matches_bspline_tail_construction(s):
    assert extend_compact(s) == reference_extend_compact(s)


@given(extension_inputs(wide_rationals))
@settings(max_examples=60, deadline=None)
def test_extension_matches_bspline_tail_construction_on_wide_denominators(s):
    """Knots and coefficients with denominators up to 10^6. A tail jump sits
    over the denominator of the piece shifted to the window end, which
    differs from the piece's own whenever that end is not an integer."""
    assert extend_compact(s) == reference_extend_compact(s)


def golden_extension_inputs():
    """A fixed seeded set over m = 1..12: all-zero windows, bases of any
    degree up to m (the zero base included), one jump in three zero, and one
    input in two with a non-genuine knot from insert_knot."""
    rng = random.Random(20261019)

    def rational():
        return F(rng.randint(-12, 12), rng.randint(1, 4))

    for m in range(1, 13):
        yield Spline(m, (0, 1), (ZERO,) * 3)
        yield Spline(m, (F(-m, 3), F(m, 2)), (ZERO,) * 3)
        for _ in range(12):
            knots = sorted({rational() for _ in range(rng.randint(2, 8))})
            if len(knots) < 2:
                knots.append(knots[0] + 1)
            base = Polynomial([rational() for _ in range(rng.randint(0, m + 1))])
            jumps = [(k, rational() if rng.randrange(3) else 0)
                     for k in knots[1:-1]]
            s = spline_from_truncated_powers(base, jumps, (knots[0], knots[-1]), m)
            if rng.randrange(2):
                s = insert_knot(s, (s.knots[0] + s.knots[1]) / 2)
            yield s


# sha256 of the extension documents of golden_extension_inputs(), as
# extend_compact built them when it normalized its result with end trimming
GOLDEN_EXTENSION_DIGEST = \
    "ba645e1f03c660458d757ffc5dbfeadc09dbc8956d4c452aa330ef3cc493fc9b"


def test_extensions_match_golden_digest():
    documents = [spline_to_document(extend_compact(s))
                 for s in golden_extension_inputs()]
    assert len(documents) == 168
    encoded = json.dumps(documents, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == GOLDEN_EXTENSION_DIGEST


def test_extension_matches_reference_on_low_degree_pieces():
    """Interior pieces of degree below m, unnormalized (the inserted knot
    and both neighbours carry identical pieces)."""
    for m in range(1, 13):
        line = Polynomial([F(1, 3), F(-2)])
        s = insert_knot(Spline(m, (F(1, 2), 4), (line, line, line)), 1)
        assert extend_compact(s) == reference_extend_compact(s)


def test_every_cardinal_bspline_is_a_fixed_point():
    for m in range(1, 13):
        b = cardinal_bspline(m)
        assert extend_compact(b) == b
        assert reference_extend_compact(b) == b


def test_tail_inverse_inverts_the_tail_matrix():
    """V_m W = D I for m = 1..12, by integer matrix products alone, with
    V_m[k][i] = C(m, k) i^(m-k)."""
    for m in range(1, 13):
        w, d = bspline._tail_inverse(m)
        v = [[math.comb(m, k) * i ** (m - k) for i in range(m + 1)]
             for k in range(m + 1)]
        product = [[sum(v[k][i] * w[i][c] for i in range(m + 1))
                    for c in range(m + 1)] for k in range(m + 1)]
        assert d > 0
        assert product == [[d * (k == c) for c in range(m + 1)]
                           for k in range(m + 1)]


def test_tail_inverse_matches_sympy_inverse():
    """W / D equals sympy's exact inverse of V_m entry for entry, m = 1..12,
    and D is the least denominator of the rows."""
    for m in range(1, 13):
        w, d = bspline._tail_inverse(m)
        v = sympy.Matrix(m + 1, m + 1,
                         lambda k, i: math.comb(m, k) * i ** (m - k))
        assert v.inv() == sympy.Matrix(w) / d
        assert math.gcd(d, *(x for row in w for x in row)) == 1


@pytest.mark.parametrize("side", ["left", "right"])
def test_extension_tails_are_certified(monkeypatch, side):
    """The interior pieces are reused and only the tails are assembled, so
    the Spline constructor's check at every knot is what certifies a tail.
    The left tail alone uses row m of the tail inverse (d_m at a_0 - m) and
    the right tail alone row 0 (e_0 at a_n); with one entry of that row off
    by one unit, every extension is refused."""
    for m in range(1, 13):
        rows, den = bspline._tail_inverse(m)
        bad = [list(row) for row in rows]
        bad[m if side == "left" else 0][0] += 1
        monkeypatch.setattr(bspline, "_tail_inverse",
                            lambda degree, bad=bad, den=den: (bad, den))
        for seed in range(6):
            s = random_spline(GeneratorConfig(seed=seed, degree=m,
                                              interior_knots=seed % 5))
            # the perturbed entry multiplies the value of s at that end
            assert spline_eval(s, s.knots[0 if side == "left" else -1]) != 0
            with pytest.raises(SmoothnessError):
                extend_compact(s)
        monkeypatch.undo()


def test_extension_needs_no_solve_and_no_bspline(monkeypatch):
    """After one warm call per degree, extensions run neither a linear solve
    nor the B_m lookup."""
    for m in range(1, 13):
        extend_compact(random_spline(GeneratorConfig(seed=m, degree=m,
                                                     interior_knots=2)))
    calls = []

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    assert not hasattr(bspline, "mat_solve")
    monkeypatch.setattr(linalg, "mat_solve",
                        counted("mat_solve", linalg.mat_solve))
    monkeypatch.setattr(bspline, "cardinal_bspline",
                        counted("cardinal_bspline", bspline.cardinal_bspline))
    for trial in range(50):
        cfg = GeneratorConfig(seed=31000 + trial, degree=1 + trial % 12,
                              interior_knots=1 + trial % 5)
        extend_compact(random_spline(cfg))
    assert calls == []
