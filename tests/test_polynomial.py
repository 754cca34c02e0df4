import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from splinezeros import GeneratorConfig, Polynomial, run_verification_suite
from splinezeros.errors import InfiniteRootsError, IntervalError
import splinezeros.polynomial as polynomial
import splinezeros.spline as spline
from splinezeros.polynomial import (
    _content_normalize,
    _horner,
    _sturm_chain,
    _variations,
    count_distinct_roots,
    root_census,
    root_order,
)


def from_roots(roots, lead=1):
    """lead * prod (x - r) over the roots, repeats included."""
    p = Polynomial.constant(lead)
    for r in roots:
        p = p * Polynomial((-r, 1))
    return p


def bisection_root_count(p, a, b, depth=1024):
    """Oracle for polynomials known to have only simple roots in [a, b]:
    count sign changes of p on a fine grid, refining to width 1/depth."""
    step = F(1, depth)
    count = 0
    x = a
    prev = p.eval(a)
    if prev == 0:
        count += 1
    while x < b:
        nxt = min(x + step, b)
        val = p.eval(nxt)
        if val == 0:
            count += 1
        elif prev != 0 and (prev < 0) != (val < 0):
            count += 1
        if val != 0:
            prev = val
        x = nxt
    return count


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=6)


def test_eval_examples():
    p = Polynomial([-2, 0, 1])  # x^2 - 2
    assert p.eval(F(3, 2)) == F(1, 4)
    assert Polynomial().eval(F(7, 3)) == 0
    assert Polynomial([2, -3, 1]).eval(3) == 2  # (x-1)(x-2) at 3


def test_degree_sentinel():
    assert Polynomial().degree is None
    assert Polynomial().is_zero
    assert Polynomial([5]).degree == 0
    assert Polynomial([0, 0, 1]).degree == 2
    assert Polynomial([1, 0]).degree == 0  # trailing zeros stripped


def test_derivative_examples():
    assert Polynomial([0, 0, 0, 1]).derivative() == Polynomial([0, 0, 3])
    assert Polynomial([5]).derivative() == Polynomial()
    assert Polynomial([2, -3, 1]).derivative() == Polynomial([-3, 2])


def test_polynomials_are_immutable():
    p = Polynomial([1, 2])
    with pytest.raises(AttributeError):
        p.num = (3,)
    assert p == Polynomial([1, 2])


def test_antiderivative_examples():
    assert Polynomial([1]).antiderivative() == Polynomial([0, 1])
    assert Polynomial([0, 2]).antiderivative() == Polynomial([0, 0, 1])
    assert Polynomial([0, 0, 3]).antiderivative() == Polynomial([0, 0, 0, 1])
    assert Polynomial().antiderivative() == Polynomial()


@given(st.lists(rationals, max_size=6), rationals)
@settings(max_examples=100)
def test_derivative_antiderivative_inverse(coeffs, constant):
    p = Polynomial(coeffs)
    q = p.antiderivative() + Polynomial.constant(constant)
    assert q.derivative() == p and q.eval(0) == constant
    assert p.derivative().antiderivative() + Polynomial.constant(p.eval(0)) == p


@given(st.lists(rationals, max_size=5), st.lists(rationals, max_size=5), rationals)
@settings(max_examples=100)
def test_ring_identities(a_coeffs, b_coeffs, x):
    a, b = Polynomial(a_coeffs), Polynomial(b_coeffs)
    assert (a + b).eval(x) == a.eval(x) + b.eval(x)
    assert (a * b).eval(x) == a.eval(x) * b.eval(x)
    assert (a - b).eval(x) == a.eval(x) - b.eval(x)


def test_polynomials_multiply_only_polynomials():
    """A scalar factor is written as a constant polynomial."""
    p = Polynomial([1, F(1, 2)])
    assert p * Polynomial.constant(F(-2, 3)) == Polynomial([F(-2, 3), F(-1, 3)])
    for c in (2, F(1, 2), 0.5):
        with pytest.raises(TypeError):
            p * c
        with pytest.raises(TypeError):
            c * p


@given(st.lists(rationals, max_size=5), rationals, rationals)
@settings(max_examples=100)
def test_taylor_shift_and_reflect(coeffs, h, x):
    p = Polynomial(coeffs)
    assert p.taylor_shift(h).eval(x) == p.eval(x + h)
    assert p.reflect().eval(x) == p.eval(-x)


class FractionPolynomial:
    """Reference: Polynomial as it was before its integer form, a tuple of
    Fraction coefficients, ascending, with no trailing zero."""

    def __init__(self, coeffs=()):
        cs = [F(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPolynomial(out)

    def __neg__(self):
        return FractionPolynomial(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = [F(0)] * max(len(a) + len(b) - 1, 0)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return FractionPolynomial(out)

    def eval(self, x):
        acc = F(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return FractionPolynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def antiderivative(self, constant):
        return FractionPolynomial(
            [constant] + [c / (i + 1) for i, c in enumerate(self.coeffs)])

    def taylor_shift(self, h):
        shifted = FractionPolynomial()
        for c in reversed(self.coeffs):
            shifted = shifted * FractionPolynomial((h, 1)) + FractionPolynomial((c,))
        return shifted

    def reflect(self):
        return FractionPolynomial(c if i % 2 == 0 else -c
                                  for i, c in enumerate(self.coeffs))


def assert_canonical(p):
    """Integer numerators, no trailing zero, one positive denominator, lowest
    terms; the zero polynomial is ((), 1)."""
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int for v in p.num)
    assert not p.num or p.num[-1] != 0
    assert math.gcd(p.den, *p.num) == 1


wide_rationals = st.fractions(min_value=-10**6, max_value=10**6,
                              max_denominator=720)
coefficient_lists = st.lists(st.one_of(rationals, wide_rationals), max_size=7)


@given(coefficient_lists, coefficient_lists, st.one_of(rationals, wide_rationals),
       st.one_of(rationals, wide_rationals))
@settings(max_examples=300, deadline=None)
def test_integer_form_matches_fraction_reference(a_coeffs, b_coeffs, c, x):
    a, b = Polynomial(a_coeffs), Polynomial(b_coeffs)
    ra, rb = FractionPolynomial(a_coeffs), FractionPolynomial(b_coeffs)
    pairs = [
        (a, ra), (b, rb), (a + b, ra + rb), (a - b, ra - rb), (-a, -ra),
        (a * b, ra * rb), (a * Polynomial.constant(c), ra * FractionPolynomial((c,))),
        (a.derivative(), ra.derivative()),
        (a.antiderivative() + Polynomial.constant(c), ra.antiderivative(c)),
        (a.taylor_shift(c), ra.taylor_shift(c)), (a.reflect(), ra.reflect()),
    ]
    for got, want in pairs:
        assert_canonical(got)
        assert got.coeffs == want.coeffs
        assert all(type(v) is F for v in got.coeffs)
    assert a.eval(x) == ra.eval(x) and type(a.eval(x)) is F


@given(coefficient_lists, coefficient_lists, st.one_of(rationals, wide_rationals),
       st.integers(1, 10**6))
@settings(max_examples=300, deadline=None)
def test_equal_polynomials_are_equal_and_hash_alike(a_coeffs, b_coeffs, c, k):
    """The canonical form makes == and hash structural, whatever route
    reached the value."""
    a, b = Polynomial(a_coeffs), Polynomial(b_coeffs)
    routes = [
        (a + b) - b, b + a - b, -(-a), a.reflect().reflect(),
        a.taylor_shift(c).taylor_shift(-c), Polynomial(a.coeffs),
        Polynomial.from_integers([k * v for v in a.num], k * a.den),
        a * Polynomial.constant(k) * Polynomial.constant(F(1, k)),
    ]
    if c:
        routes.append(a * Polynomial.constant(c) * Polynomial.constant(1 / c))
    for p in routes:
        assert_canonical(p)
        assert p == a and hash(p) == hash(a)
    assert (a - a) == Polynomial() and (a - a).num == () and (a - a).den == 1


def test_canonical_form_examples():
    p = Polynomial([F(1, 2), F(-3, 4), 0])
    assert (p.num, p.den) == ((2, -3), 4)
    assert p.coeffs == (F(1, 2), F(-3, 4))
    assert (Polynomial([6, 9]).num, Polynomial([6, 9]).den) == ((6, 9), 1)
    q = Polynomial.from_integers([4, 6, 0, 0], 8)
    assert (q.num, q.den) == ((2, 3), 4)
    zero = Polynomial.from_integers([0, 0], 12)
    assert (zero.num, zero.den) == ((), 1) and zero == Polynomial()
    assert repr(p) == "Polynomial(['1/2', '-3/4'])"


@given(st.lists(st.integers(-10**12, 10**12), max_size=14),
       st.integers(-10**6, 10**6), st.integers(1, 10**6))
@settings(max_examples=400, deadline=None)
def test_horner_matches_exact_fraction_value(c, a, b):
    """The homogeneous integer Horner that Polynomial.eval and the Sturm
    kernel share gives b^d times the exact value sum c_i (a/b)^i, for any
    b > 0, reduced with a or not, and eval agrees with it."""
    x = F(a, b)
    value = sum(v * x ** i for i, v in enumerate(c))
    d = max(len(c) - 1, 0)
    assert _horner(c, a, b) == (value * b ** d, b ** d)
    assert _horner(c, 3 * a, 3 * b)[0] == 3 ** d * _horner(c, a, b)[0]
    assert Polynomial(c).eval(x) == value


def test_count_roots_x2_minus_2():
    p = Polynomial([-2, 0, 1])
    # oracle first: one sign change on [0, 2]
    assert bisection_root_count(p, F(0), F(2)) == 1
    assert root_census(p, 0, 2) == (1, False, False)
    assert count_distinct_roots(p, 0, 2) == 1


def test_count_roots_distinct_only():
    # roots planted at 1 (double) and 3; only 1 lies in (0, 2)
    p = from_roots([1, 1, 3])
    assert count_distinct_roots(p, 0, 2) == 1


def test_count_roots_none():
    assert root_census(Polynomial([1, 0, 1]), -10, 10) == (0, False, False)


def test_count_roots_errors():
    with pytest.raises(InfiniteRootsError):
        count_distinct_roots(Polynomial(), 0, 1)
    with pytest.raises(IntervalError):
        count_distinct_roots(Polynomial([0, 1]), 1, 1)
    with pytest.raises(IntervalError):
        count_distinct_roots(Polynomial([0, 1]), 2, 1)


def test_count_roots_endpoint_flags():
    p = from_roots([0, 1, 2])
    count, at_a, at_b = root_census(p, 0, 2)
    assert count + at_a + at_b == 3  # closed
    assert count + at_b == 2  # open on the left
    assert count + at_a == 2  # open on the right
    assert count_distinct_roots(p, 0, 2) == count == 1
    assert root_census(p, 0, 2) == (1, True, True)
    assert root_census(p, F(1, 2), 2) == (1, False, True)
    assert root_census(from_roots([1, 1, 3]), 1, 3) == (0, True, True)
    assert root_census(Polynomial([5]), -1, 1) == (0, False, False)


def test_count_roots_against_planted_roots():
    """>= 500 randomized cases with known rational roots."""
    rng = random.Random(777)
    cases = 0
    while cases < 500:
        deg = rng.randint(1, 6)
        roots = [F(rng.randint(-10, 10), rng.randint(1, 4)) for _ in range(deg)]
        lead = F(rng.choice([-3, -2, -1, 1, 2, 3]))
        p = from_roots(roots, lead=lead)
        a = F(rng.randint(-12, 0), rng.randint(1, 3))
        b = a + F(rng.randint(1, 24), rng.randint(1, 3))
        distinct = set(roots)
        count, at_a, at_b = root_census(p, a, b)
        assert count_distinct_roots(p, a, b) == count
        for open_left, open_right in ((False, False), (True, True),
                                      (True, False), (False, True)):
            expected = sum(
                1 for r in distinct
                if (a < r or (not open_left and r == a))
                and (r < b or (not open_right and r == b))
            )
            got = count + (at_a and not open_left) + (at_b and not open_right)
            assert got == expected, (roots, a, b, open_left, open_right)
        cases += 1


def test_count_equals_squarefree_count():
    """Every root doubled: the count is still the number of distinct planted
    roots, so the Sturm sequence is that of the square-free part."""
    rng = random.Random(888)
    for _ in range(100):
        deg = rng.randint(1, 4)
        roots = [F(rng.randint(-5, 5)) for _ in range(deg)]
        p = from_roots(roots + roots)  # force multiplicities
        assert root_census(p, F(-6), F(6)) == (len(set(roots)), False, False)


def test_closed_minus_open_counts_endpoint_zeros():
    rng = random.Random(999)
    for _ in range(200):
        deg = rng.randint(1, 5)
        roots = [F(rng.randint(-6, 6)) for _ in range(deg)]
        p = from_roots(roots)
        a = F(rng.randint(-7, 5))
        b = a + F(rng.randint(1, 6))
        count, at_a, at_b = root_census(p, a, b)
        closed = sum(1 for r in set(roots) if a <= r <= b)
        assert count_distinct_roots(p, a, b) == count
        assert (at_a, at_b) == (p.eval(a) == 0, p.eval(b) == 0)
        assert closed - count == at_a + at_b


@st.composite
def polynomials_and_windows(draw):
    """Planted rational roots (repeats allowed) times a random cofactor,
    with endpoints that are sometimes roots."""
    roots = draw(st.lists(rationals, max_size=4))
    cofactor = Polynomial(draw(st.lists(rationals, min_size=1, max_size=4)))
    assume(not cofactor.is_zero)
    endpoints = st.one_of(rationals, st.sampled_from(roots)) if roots else rationals
    a, b = sorted((draw(endpoints), draw(endpoints)))
    assume(a < b)
    return from_roots(roots) * cofactor, a, b


def sympy_rational(value):
    return sympy.Rational(value.numerator, value.denominator)


@given(polynomials_and_windows(), st.booleans(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_count_roots_agrees_with_sympy_oracle(case, open_left, open_right):
    p, a, b = case
    x = sympy.Symbol("x")
    coeffs = [sympy_rational(c) for c in reversed(p.coeffs)]
    expected = sympy.Poly(coeffs, x).count_roots(sympy_rational(a),
                                                 sympy_rational(b))
    # sympy counts over the closed interval
    if open_left and p.eval(a) == 0:
        expected -= 1
    if open_right and p.eval(b) == 0:
        expected -= 1
    count, at_a, at_b = root_census(p, a, b)
    assert count + (at_a and not open_left) + (at_b and not open_right) == expected
    assert count_distinct_roots(p, a, b) == count


def sturm_census(p, a, b):
    """Reference census from the Sturm sequence alone, evaluated at both
    endpoints, with no Descartes shortcut."""
    a, b = F(a), F(b)
    chain = _sturm_chain(_content_normalize(list(p.num)))
    at_a = [_horner(e, a.numerator, a.denominator)[0] for e in chain]
    at_b = [_horner(e, b.numerator, b.denominator)[0] for e in chain]
    zero_at_b = at_b[0] == 0
    return (_variations(at_a) - _variations(at_b) - zero_at_b, at_a[0] == 0,
            zero_at_b)


def sympy_census(p, a, b):
    """Reference census from sympy: count_roots over the closed [a, b], with
    the endpoint zeros taken off."""
    a, b = F(a), F(b)
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy_rational(c) for c in reversed(p.coeffs)], x)
    zero_at_a, zero_at_b = p.eval(a) == 0, p.eval(b) == 0
    closed = poly.count_roots(sympy_rational(a), sympy_rational(b))
    return closed - zero_at_a - zero_at_b, zero_at_a, zero_at_b


HALF = F(1, 2)
# (polynomial, a, b, expected census) for which the sign variations of the
# Moebius image decide: V = 0 or V = 1, with and without endpoint roots
DESCARTES_DECIDES = [
    (Polynomial([1, 0, 1]), 0, 1, (0, False, False)),         # V = 0
    (Polynomial([-5, 1]), 0, 1, (0, False, False)),
    (Polynomial([0, 1]), 0, 1, (0, True, False)),             # root at a
    (Polynomial([-1, 1]), 0, 1, (0, False, True)),            # root at b
    (from_roots([0, 1]), 0, 1, (0, True, True)),
    (from_roots([HALF]), 0, 1, (1, False, False)),            # V = 1
    (from_roots([0, HALF]), 0, 1, (1, True, False)),
    (from_roots([HALF, 1]), 0, 1, (1, False, True)),
    (from_roots([0, HALF, 1]), 0, 1, (1, True, True)),
    (from_roots([0, 0, HALF, 1, 1]), 0, 1, (1, True, True)),  # multiple ends
    (Polynomial([7]), -3, F(1, 10**6), (0, False, False)),    # degree 0
    (Polynomial([-1, 2]), F(1, 999983), F(10**6, 999999),
     (1, False, False)),                                      # degree 1
    (from_roots([F(1, 10**6)]), F(1, 10**6), 1, (0, True, False)),
]
# the rule cannot decide: two roots, a double root inside, and a complex
# pair with no real root, so the Sturm sequence runs
STURM_DECIDES = [
    (from_roots([F(1, 3), F(2, 3)]), 0, 1, (2, False, False)),
    (from_roots([HALF, HALF]), 0, 1, (1, False, False)),
    (from_roots([HALF, HALF]) + Polynomial.constant(F(1, 100)), 0, 1,
     (0, False, False)),
    (from_roots([0, F(1, 3), F(2, 3), 1]), 0, 1, (2, True, True)),
    (from_roots([F(1, 999999), F(2, 999999), F(1, 999999)]),
     0, F(3, 10**6), (2, False, False)),
    (from_roots([F(k, 13) for k in range(1, 13)]), 0, 1, (12, False, False)),
]


@pytest.mark.parametrize("p, a, b, expected",
                         DESCARTES_DECIDES + STURM_DECIDES)
def test_census_branches_agree_with_sturm_and_sympy(p, a, b, expected):
    assert root_census(p, a, b) == expected
    assert sturm_census(p, a, b) == expected
    assert sympy_census(p, a, b) == expected


def test_census_builds_a_sturm_chain_only_when_descartes_cannot_decide(
        monkeypatch):
    calls = []
    real = polynomial._sturm_chain
    monkeypatch.setattr(polynomial, "_sturm_chain",
                        lambda c: calls.append(c) or real(c))
    for p, a, b, _ in DESCARTES_DECIDES:
        root_census(p, a, b)
    assert calls == []
    for count, (p, a, b, _) in enumerate(STURM_DECIDES, start=1):
        root_census(p, a, b)
        assert len(calls) == count


def census_stages(monkeypatch):
    """Record which later stages the census builds: "moebius" for each
    Moebius image, "sturm" for each Sturm chain."""
    built = []
    real_image, real_chain = polynomial._moebius_image, polynomial._sturm_chain
    monkeypatch.setattr(polynomial, "_moebius_image",
                        lambda *args: built.append("moebius") or real_image(*args))
    monkeypatch.setattr(polynomial, "_sturm_chain",
                        lambda c: built.append("sturm") or real_chain(c))
    return built


A, B = F(-1, 3), F(5, 7)
# (polynomial, expected census, stages built) on (A, B), one per stage of
# _census_int: V is the sign variations of the half-line shift to A
CENSUS_STAGES = [
    (from_roots([A, -1]), (0, True, False), []),               # V = 0, c(a) = 0
    (from_roots([0]), (1, False, False), []),                   # V = 1, inside
    (from_roots([1]), (0, False, False), []),                   # V = 1, beyond b
    (from_roots([B]), (0, False, True), []),                    # V = 1, at b
    (from_roots([A, HALF]), (1, True, False), []),              # V = 1, c(a) = 0
    (from_roots([1, 2]), (0, False, False), ["moebius"]),      # image decides
    (from_roots([0, 2]), (1, False, False), ["moebius"]),
    (from_roots([0, HALF]), (2, False, False), ["moebius", "sturm"]),
]


@pytest.mark.parametrize("p, expected, stages", CENSUS_STAGES)
def test_census_stages_agree_with_sturm_and_sympy(p, expected, stages,
                                                  monkeypatch):
    built = census_stages(monkeypatch)
    assert root_census(p, A, B) == expected
    assert built == stages
    assert sturm_census(p, A, B) == expected
    assert sympy_census(p, A, B) == expected


def test_half_line_test_decides_most_suite_domains(monkeypatch):
    """Over 200 theorem9 suite splines on the criterion-4 grid (degrees 1
    to 4, 2 to 8 domains), the half-line shift alone decides at least 80%
    of the non-zero domains censused (about 93% here), so no Moebius image
    is built for them. A census that always built the image fails."""
    built = census_stages(monkeypatch)
    domains = []
    real_census = polynomial._census_int

    def census(*args):
        domains.append(args)
        return real_census(*args)

    monkeypatch.setattr(spline, "_census_int", census)
    cells = [(m, n) for m in range(1, 5) for n in range(2, 9)]
    for seed in range(200):
        m, n = cells[seed % len(cells)]
        cfg = GeneratorConfig(seed=seed, degree=m, interior_knots=n - 1)
        assert run_verification_suite("theorem9", cfg, 1).violations == 0
    images = built.count("moebius")
    assert len(domains) > 1000
    assert 0 < images <= 0.2 * len(domains)


@st.composite
def high_degree_windows(draw):
    """Degree 0 to 12: planted rational roots (repeats allowed) times a
    random integer cofactor, on windows whose endpoint denominators reach
    10^6 or 10^18 and which sometimes end at a planted root. One polynomial
    in three is stored with non-primitive numerators (content 2^40 or
    more), which the census's Moebius image must not need divided out."""
    fine = st.fractions(min_value=-2, max_value=2, max_denominator=10**6)
    huge = st.fractions(min_value=-2, max_value=2, max_denominator=10**18)
    roots = draw(st.lists(st.one_of(rationals, fine), max_size=8))
    roots += draw(st.lists(st.sampled_from(roots), max_size=2)) if roots else []
    cofactor = Polynomial(draw(st.lists(st.integers(-20, 20), min_size=1,
                                        max_size=13 - len(roots))))
    assume(not cofactor.is_zero)
    endpoints = st.one_of(rationals, fine, huge,
                          *([st.sampled_from(roots)] if roots else []))
    a, b = sorted((draw(endpoints), draw(endpoints)))
    assume(a < b)
    p = from_roots(roots) * cofactor
    if draw(st.integers(0, 2)) == 0:
        p = shifted_left_40(p)
    return p, a, b


def shifted_left_40(p):
    """p times 2^40 times its denominator: integer numerators whose content
    is 2^40 or more."""
    return Polynomial.from_integers([v << 40 for v in p.num])


@given(high_degree_windows())
@example((shifted_left_40(from_roots([F(1, 3), F(2, 3)])),
          F(1, 10**12 + 39), F(999999999989, 10**12)))       # Sturm decides
@example((shifted_left_40(from_roots([F(1, 7), 3])),
          F(-1, 10**18 + 3), F(10**17 + 1, 10**18 - 11)))     # V = 1
@example((shifted_left_40(Polynomial([0, 1])), -2, 0))         # root at b
@settings(max_examples=150, deadline=None)
def test_census_agrees_with_sturm_and_sympy_up_to_degree_12(case):
    p, a, b = case
    census = root_census(p, a, b)
    assert census == sturm_census(p, a, b)
    assert census == sympy_census(p, a, b)


def sympy_root_order(p, x, cap):
    """Oracle: divide by t - x over QQ while sympy's exact remainder is 0."""
    if p.is_zero:
        return cap
    t = sympy.Symbol("t")
    poly = sympy.Poly([sympy_rational(c) for c in reversed(p.coeffs)], t,
                      domain="QQ")
    linear = sympy.Poly(t - sympy_rational(x), t, domain="QQ")
    order = 0
    while order < cap:
        quotient, remainder = sympy.div(poly, linear)
        if not remainder.is_zero:
            break
        poly = quotient
        order += 1
    return order


@given(st.lists(rationals, max_size=6), rationals, st.integers(0, 4),
       st.integers(0, 8))
@settings(max_examples=200, deadline=None)
def test_root_order_agrees_with_sympy_oracle(coeffs, x, planted, cap):
    # plant x as a root of known extra multiplicity so high orders occur
    p = Polynomial(coeffs) * from_roots([x] * planted)
    assert root_order(p, x, cap) == sympy_root_order(p, x, cap)


def test_root_order_examples():
    p = from_roots([F(2, 3)] * 3 + [F(-1, 2)])
    assert root_order(p, F(2, 3), 10) == 3
    assert root_order(p, F(2, 3), 2) == 2
    assert root_order(p, F(-1, 2), 10) == 1
    assert root_order(p, 0, 10) == 0
    assert root_order(Polynomial(), 5, 7) == 7
