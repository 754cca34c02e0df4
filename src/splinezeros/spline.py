"""Finite-knot splines with certified smoothness and the separated-zero
census.

A degree-m spline here is a C^(m-1) piecewise polynomial with finitely many
knots a_0 < ... < a_n, stored with n+2 pieces: the two unbounded end domains
plus the n interior domains. A piecewise polynomial is C^(m-1) at a knot k
exactly when the jump between its two adjacent pieces is a multiple of
(x - k)^m (the truncated-power view). The Spline constructor checks this at
every knot k = p/q with one integer identity: the jump's numerators N_i
over a common denominator must satisfy N_i q^(m-i) = N_m C(m, i) (-p)^(m-i),
the coefficients of N_m (x - k)^m, in one pass over the adjacent pieces
that skips a piece repeated as its own neighbour (no jump) and reads each
knot as the (numerator, denominator) pair the order check took. Every transformation
here builds its result through that constructor, so every Spline in
circulation is certified, and the constructor is the one check of the knot
order.
spline_from_truncated_powers(base, jumps, window, m) authors a spline as
base(x) + sum c_i (x - k_i)_+^m, which is C^(m-1) by construction. It is the
coercing public edge of one assembly kernel, _spline_from_int_jumps, which
takes each jump as (knot, c_num, c_den); its running sum, _running_pieces,
adds them on integer numerators over one running denominator. The spline
generator calls the kernel, and extend_compact the running sum for its tails.

A knot with the same polynomial on both sides is no knot: the bound
n + m - 1 counts genuine knots only. normalize states this flat-knot rule
once, keeping knot i exactly when pieces[i] != pieces[i + 1] (and both
window ends), and extend_compact applies the same test to the knots it
assembles.

Z(s) on a window counts the connected components of the zero set. Why that
equals the maximum size of a pairwise "separated" zero family (two zeros
u < v are separated iff s is not identically zero on [u, v]):

* zeros in the same component are never separated (s vanishes identically
  between them), so a separated family holds at most one zero per component;
* zeros from distinct components are always separated (some point between
  them has s != 0), so picking one zero per component is a valid family.

Hence the maximum separated family has exactly one member per component, and
Z is computable from exact per-domain root counts and knot-value flags alone
(no root locations needed). Both come from one exact census per domain
(polynomial._census_int, the integer kernel behind root_census, given each
knot as its (numerator, denominator) pair): a line's two end values, or
Descartes' rule on the piece shifted to the domain's left end, then on an
integer Moebius transform of it, or a Sturm sequence when neither decides,
counts the roots in the open domain and says whether the piece vanishes at
either end. Each knot takes its flag from an adjacent domain, which
continuity allows for degree >= 1. The census evaluates no piece on its
own.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from operator import eq
from typing import NamedTuple, Sequence

from .errors import (
    DegreeError,
    FormatError,
    IntervalError,
    KnotOrderError,
    KnotRangeError,
    SmoothnessError,
    Validated,
)
from .polynomial import Polynomial, _census_int, root_order
from .rational import (
    as_rational,
    as_rationals,
    format_ratio,
    format_rational,
    parse_rational,
)

# The largest degree a public entry point takes: a cardinal B-spline, an
# extension, a generated spline and a spline document all stop here.
MAX_CARDINAL_DEGREE = 12


def check_degree(m, lowest: int = 1) -> None:
    """Refuse m unless it is an int (not a bool) in [lowest,
    MAX_CARDINAL_DEGREE], with DegreeError: the one degree rule of every
    public entry point. Only convolution_bspline_pieces takes lowest = 0."""
    if type(m) is not int or not lowest <= m <= MAX_CARDINAL_DEGREE:
        raise DegreeError(f"degree must be an int in [{lowest}, "
                          f"{MAX_CARDINAL_DEGREE}] (MAX_CARDINAL_DEGREE), got {m!r}")


class Spline(Validated, namedtuple("Spline", "degree knots pieces")):
    """Certified piecewise polynomial: an int degree, a tuple of Fraction
    knots and a tuple of Polynomial pieces.

    pieces[0] lives on (-inf, knots[0]], pieces[j] on [knots[j-1], knots[j]],
    pieces[-1] on [knots[-1], +inf). Degree 0 is admitted only so that the
    derivative of a degree-1 spline exists as a value (its C^-1 smoothness is
    vacuous); public constructors require degree >= 1 and degree-0 splines
    cannot be differentiated further.

    Construction rejects any knot where the two adjacent pieces differ by
    something that is not a multiple of (x - knot)^degree."""

    __slots__ = ()

    def __new__(cls, degree, knots, pieces):
        return super().__new__(cls, degree, as_rationals(knots),
                               tuple(pieces))

    def __post_init__(self) -> None:
        # type() rather than isinstance(): bool is an int subclass
        if type(self.degree) is not int or self.degree < 0:
            raise DegreeError(f"invalid spline degree {self.degree!r}")
        if len(self.knots) < 2:
            raise KnotOrderError("a spline needs at least two knots")
        pairs = [(k.numerator, k.denominator) for k in self.knots]
        for j, ((p0, q0), (p1, q1)) in enumerate(zip(pairs, pairs[1:])):
            if p0 * q1 >= p1 * q0:
                a, b = self.knots[j], self.knots[j + 1]
                raise KnotOrderError(f"knots not strictly increasing: {a} >= {b}")
        if len(self.pieces) != len(self.knots) + 1:
            raise FormatError(
                f"{len(self.knots)} knots require {len(self.knots) + 1} pieces, "
                f"got {len(self.pieces)}"
            )
        for p in self.pieces:
            if not isinstance(p, Polynomial):
                raise FormatError("pieces must be Polynomial values")
            if len(p.num) > self.degree + 1:
                raise DegreeError(
                    f"piece degree {p.degree} exceeds spline degree {self.degree}"
                )
        _verify_smoothness(self.degree, pairs, self.pieces)

    # convenience accessors used throughout

    @property
    def window(self) -> tuple[Fraction, Fraction]:
        return self.knots[0], self.knots[-1]

    @property
    def n(self) -> int:
        """Index of the last knot (knots run a_0 .. a_n)."""
        return len(self.knots) - 1


def _verify_smoothness(degree: int, pairs: list[tuple[int, int]],
                       pieces) -> None:
    """Exact C^(degree-1) check, in one pass over the adjacent pieces: at
    every knot p/q, given as its (p, q) pair, the jump between the two
    pieces must be a multiple of (x - p/q)^degree. A piece that is its own
    neighbour, as at the window ends the truncated-power assembly adds, has
    no jump and is skipped by identity. Cross-multiplying the two piece denominators gives the
    jump's integer numerators, which _is_power_multiple tests. root_order
    runs only to word the error: the order found is the lowest derivative
    that jumps."""
    for (p, q), left, right in zip(pairs, pieces, pieces[1:]):
        if left is right:
            continue
        jump = [0] * max(len(left.num), len(right.num))
        for i, v in enumerate(right.num):
            jump[i] = v * left.den
        for i, v in enumerate(left.num):
            jump[i] -= v * right.den
        if not _is_power_multiple(jump, degree, p, q):
            knot = Fraction(p, q)
            order = root_order(right - left, knot, degree)
            raise SmoothnessError(
                f"derivative order {order} jumps at knot {knot} "
                f"(C^{degree - 1} required)"
            )


def _is_power_multiple(jump: list[int], m: int, p: int, q: int) -> bool:
    """Whether sum jump_i x^i (degree <= m) is a multiple of (x - p/q)^m.
    A nonzero multiple has degree m, and it is (jump_m / q^m) (q x - p)^m
    exactly when, for every i, jump_i q^(m-i) == jump_m C(m, i) (-p)^(m-i),
    an identity on ints. C(m, e) is a running product, so a mismatch at a
    low e returns before any large binomial is formed."""
    if len(jump) <= m or not jump[m]:
        return not any(jump)
    top, q_power, p_power, binom = jump[m], 1, 1, 1
    for e in range(m + 1):
        if jump[m - e] * q_power != top * binom * p_power:
            return False
        q_power *= q
        p_power *= -p
        binom = binom * (m - e) // (e + 1)
    return True


def spline_eval(s: Spline, x) -> Fraction:
    """Value of the piece whose closed domain contains x. At a knot the two
    adjacent pieces agree whenever degree >= 1; for degree-0 artifacts the
    right piece wins."""
    x = as_rational(x)
    idx = bisect_right(s.knots, x)
    return s.pieces[idx].eval(x)


def spline_derivative(s: Spline) -> Spline:
    """Piecewise derivative, degree drops by one, knot set can only shrink
    (non-genuine knots of the derivative are normalized away)."""
    if s.degree == 0:
        raise DegreeError("cannot differentiate a degree-0 spline")
    pieces = tuple(p.derivative() for p in s.pieces)
    return normalize(Spline(s.degree - 1, s.knots, pieces))


def normalize(s: Spline) -> Spline:
    """Drop the interior knots that are not genuine: the flat-knot rule
    keeps knot i exactly when pieces[i] != pieces[i + 1], since a knot with
    one polynomial on both sides is C^infinity there. The outermost knots
    are kept whatever their pieces: they mark the census window. When no
    knot is dropped the input itself is returned, before any list is built.
    Generated splines leave the assembly normalized, extend_compact applies
    the same rule to its own knots, and the bound checkers normalize what
    they are handed."""
    if not any(map(eq, s.pieces[1:-2], s.pieces[2:-1])):
        return s  # no interior knot to drop, and s is certified already
    keep = [0, *(i for i in range(1, s.n) if s.pieces[i] != s.pieces[i + 1]), s.n]
    return Spline(s.degree, [s.knots[i] for i in keep],
                  [s.pieces[i] for i in keep] + [s.pieces[-1]])


def insert_knot(s: Spline, x) -> Spline:
    """Split a domain at x without changing the function. Both pieces at the
    new knot are the same polynomial, so normalize drops the knot again and
    the bound checkers, which normalize first, never count it."""
    x = as_rational(x)
    if not (s.knots[0] < x < s.knots[-1]):
        raise KnotRangeError(f"{x} outside the open knot window")
    if x in s.knots:
        raise KnotRangeError(f"{x} is already a knot")
    idx = bisect_right(s.knots, x)
    knots = s.knots[:idx] + (x,) + s.knots[idx:]
    pieces = s.pieces[:idx] + (s.pieces[idx],) + s.pieces[idx:]
    return Spline(s.degree, knots, pieces)


# -- truncated-power construction -------------------------------------------------


def spline_from_truncated_powers(base: Polynomial, jumps: Sequence,
                                 window: Sequence, m: int) -> Spline:
    """The degree-m spline base(x) + sum_i c_i (x - k_i)_+^m on the window
    [lo, hi], for the (k_i, c_i) pairs in jumps. The truncated powers make
    C^(m-1) smoothness automatic, so this is the safe way to author splines.

    The public edge of _spline_from_int_jumps: it coerces every knot, jump
    coefficient and window end, and refuses a degree outside
    [1, MAX_CARDINAL_DEGREE] (check_degree) and a base that is not a
    Polynomial (FormatError) before any work. The jump knots must increase
    inside the window; see the kernel for the rest."""
    check_degree(m)
    if not isinstance(base, Polynomial):
        raise FormatError(f"base must be a Polynomial, got {base!r}")
    lo, hi = as_rationals(window, 2)
    pairs = as_rationals(jumps, item=lambda jump: as_rationals(jump, 2))
    int_jumps = [(knot, c.numerator, c.denominator) for knot, c in pairs]
    return _spline_from_int_jumps(base, int_jumps, lo, hi, m)


def _spline_from_int_jumps(base: Polynomial, jumps: Sequence, lo, hi,
                           m: int) -> Spline:
    """spline_from_truncated_powers for m >= 1, with each jump given as
    (knot, c_num, c_den): a Fraction knot and the coefficient c_num/c_den as
    two ints, c_den > 0, not necessarily in lowest terms. lo and hi are
    rationals (ints or Fractions). The pieces come from _running_pieces.

    The spline is built on every jump knot and on both window ends, and
    normalize then drops the knots whose jump is 0. The Spline constructor
    checks the knot order (an empty window included) and the base degree,
    and re-verifies smoothness; only a jump outside a nonempty window is
    refused here."""
    knots = [knot for knot, _, _ in jumps]
    pieces = [base, *_running_pieces(base, jumps, m)]
    if lo < hi and knots and (knots[0] < lo or knots[-1] > hi):
        raise KnotRangeError("jump knots must lie inside the window")
    if not knots or knots[0] != lo:
        knots.insert(0, lo)
        pieces.insert(0, base)
    if knots[-1] != hi:
        knots.append(hi)
        pieces.append(pieces[-1])
    return normalize(Spline(m, tuple(knots), tuple(pieces)))


def _running_pieces(base: Polynomial, jumps: Sequence, m: int):
    """Yield the piece of base(x) + sum c (x - k)_+^m right of each jump
    (knot, c_num, c_den); a zero jump repeats the piece before it.

    A jump c (x - p/q)^m adds c_num C(m, i) (-p)^(m-i) q^i to x^i over the
    lcm of c_den q^m and the running piece's denominator, with (-p)^(m-i)
    and q^i as running products; each piece is reduced once (one gcd)."""
    row = [math.comb(m, i) for i in range(m + 1)]
    cumulative = base
    for knot, c_num, c_den in jumps:
        if c_num:
            p, q = knot.numerator, knot.denominator
            q_powers = [1]
            for _ in range(m):
                q_powers.append(q_powers[-1] * q)
            jump_den = c_den * q_powers[m]
            den = math.lcm(cumulative.den, jump_den)
            num = [v * (den // cumulative.den) for v in cumulative.num]
            num += [0] * (m + 1 - len(num))
            term = c_num * (den // jump_den)  # times (-p)^(m-i) below
            for i in range(m, -1, -1):
                num[i] += term * row[i] * q_powers[i]
                term *= -p
            cumulative = Polynomial.from_integers(num, den)
        yield cumulative


def piecewise_linear(knots: Sequence, values: Sequence) -> Spline:
    """Degree-1 spline interpolating (knot, value) pairs, constant beyond the
    window. Handy for zigzag corner cases."""
    ks = as_rationals(knots)
    vs = as_rationals(values)
    if len(ks) != len(vs):
        raise FormatError("one value per knot required")
    if len(ks) < 2 or any(k0 >= k1 for k0, k1 in zip(ks, ks[1:])):
        raise KnotOrderError("need at least two strictly increasing knots")
    pieces = [Polynomial.constant(vs[0])]
    for (k0, v0), (k1, v1) in zip(zip(ks, vs), zip(ks[1:], vs[1:])):
        slope = (v1 - v0) / (k1 - k0)
        pieces.append(Polynomial((v0 - slope * k0, slope)))
    pieces.append(Polynomial.constant(vs[-1]))
    return Spline(1, tuple(ks), tuple(pieces))


# -- zero census ------------------------------------------------------------------


class DomainCensus(NamedTuple):
    """Structural zero data for one polynomiality domain [left, right]."""

    left: Fraction
    right: Fraction
    identically_zero: bool
    open_interior_distinct_roots: int | None  # None when identically zero


class ZeroReport(NamedTuple):
    """Per-domain and per-knot census on a window; Z = component_count."""

    window: tuple[Fraction, Fraction]
    domains: tuple[DomainCensus, ...]
    knot_value_zero: tuple[bool, ...]  # one flag per knot in the window
    component_count: int


def separated_zero_count(s: Spline, a, b) -> tuple[int, ZeroReport]:
    """Z and its census on [a, b], where a and b must be knots of s (use
    insert_knot first for other windows).

    The window ends are tested against the first and last knots before any
    bisection. One exact census per domain (polynomial._census_int on the
    piece's numerators and the (numerator, denominator) pairs of its knots,
    each read once: a line's end values, else Descartes' rule of signs,
    with a Sturm sequence only where the rule cannot decide) gives the distinct roots in the open
    domain and whether the piece vanishes at each end. Each knot flag is
    the left-end flag of the domain to its right, and the last knot's is
    the right-end flag of the last domain: the spline is continuous
    (degree >= 1), so either adjacent piece decides the knot value. An
    identically zero domain flags both of its knots. No piece is evaluated
    separately.

    Components are assembled from exact counts only, inside the same
    domain loop: interior roots of non-vanishing pieces are isolated
    singletons, and a zero-valued knot opens a new component unless the
    domain to its left vanishes identically, which chains it to the knot
    before. See the module docstring for why components = max separated
    family."""
    if s.degree < 1:
        raise DegreeError("census requires a spline of degree >= 1")
    a = as_rational(a)
    b = as_rational(b)
    if a.numerator * b.denominator >= b.numerator * a.denominator:
        raise IntervalError(f"need a < b, got {a} >= {b}")
    knots = s.knots
    ia = 0 if a == knots[0] else bisect_left(knots, a)
    ib = len(knots) - 1 if b == knots[-1] else bisect_left(knots, b, ia)
    if ib == len(knots) or knots[ia] != a or knots[ib] != b:
        raise KnotRangeError("census endpoints must be knots of the spline")

    domains = []
    knot_zero = []
    components = 0
    vanishing = False  # the domain left of the current knot is identically zero
    left = knots[ia]
    a1, a2 = left.numerator, left.denominator
    for right, piece in zip(knots[ia + 1:ib + 1], s.pieces[ia + 1:ib + 1]):
        b1, b2 = right.numerator, right.denominator
        if piece.num:
            count, zero_left, zero_right = _census_int(piece.num, a1, a2, b1, b2)
            components += count + (zero_left and not vanishing)
        else:
            count, zero_left, zero_right = None, True, True
            components += not vanishing
        vanishing = count is None
        domains.append(DomainCensus(left, right, vanishing, count))
        knot_zero.append(zero_left)
        left, a1, a2 = right, b1, b2
    knot_zero.append(zero_right)
    components += zero_right and not vanishing

    report = ZeroReport((a, b), tuple(domains), tuple(knot_zero), components)
    return components, report


def open_component_count(report: ZeroReport, lo=None, hi=None) -> int:
    """Components of the census's zero set that meet the OPEN interval
    (lo, hi), which must contain the window; lo and hi default to the window
    ends.

    Only a singleton component sitting on a window end that equals its bound
    disappears; components that extend inward through an identically-zero
    domain survive as nonempty sets, and a window end strictly inside
    (lo, hi) keeps its component."""
    a, b = report.window
    lo = a if lo is None else as_rational(lo)
    hi = b if hi is None else as_rational(hi)
    if lo > a or hi < b:
        raise IntervalError(f"({lo}, {hi}) does not contain the window [{a}, {b}]")
    z = report.component_count
    first, last = report.domains[0], report.domains[-1]
    if lo == a and report.knot_value_zero[0] and not first.identically_zero:
        z -= 1
    if hi == b and report.knot_value_zero[-1] and not last.identically_zero:
        z -= 1
    return z


def zero_order_at(s: Spline, z) -> int:
    """Order of z as a zero: its multiplicity as a root of the piece right
    of z, capped at degree (the smallest derivative index j <= degree-1 with
    a nonzero value, else degree). The two pieces at a knot differ by a
    multiple of (x - knot)^degree, so either gives the capped order, and a
    point where s vanishes on one side or both reads degree."""
    if s.degree < 1:
        raise DegreeError("zero order requires a spline of degree >= 1")
    z = as_rational(z)
    return root_order(s.pieces[bisect_right(s.knots, z)], z, s.degree)


# -- bound checkers ---------------------------------------------------------------


class ZeroBoundVerdict(NamedTuple):
    """Z versus the sharp bound n + m - 1 (the gross bound m(n+1) exceeds it
    by n(m-1) + 1 >= 1, so it decides nothing)."""

    Z: int
    bound: int
    n: int
    degree: int
    passed: bool
    report: ZeroReport


def check_zero_bound(s: Spline) -> ZeroBoundVerdict:
    """Census the whole (normalized) window and compare Z with n + m - 1.

    Normalization first: interior knots where both pieces are the same
    polynomial (such as those added by insert_knot) must not inflate n."""
    sn = normalize(s)
    n = sn.n
    z, report = separated_zero_count(sn, sn.knots[0], sn.knots[-1])
    bound = n + sn.degree - 1
    return ZeroBoundVerdict(Z=z, bound=bound, n=n, degree=sn.degree,
                            passed=z <= bound, report=report)


class InteriorBoundVerdict(NamedTuple):
    """For splines whose outermost knots are zeros of order >= degree:
    interior zeros obey Z_open <= n - m - 1. That implies n >= m + 1 and,
    since open_component_count drops at most the two window-end singletons,
    the closed-window Z = report.component_count <= n - m + 1. Never
    silently passes on inapplicable input."""

    applicable: bool
    reason: str | None
    interior_Z: int | None = None
    interior_bound: int | None = None
    passed: bool = False
    report: ZeroReport | None = None


def check_interior_bound(s: Spline) -> InteriorBoundVerdict:
    sn = normalize(s)
    m, n = sn.degree, sn.n
    a, b = sn.window
    if all(p.is_zero for p in sn.pieces[1:-1]):
        return InteriorBoundVerdict(False, "identically zero on the window")
    if zero_order_at(sn, a) < m:
        return InteriorBoundVerdict(False, f"order at {a} below degree")
    if zero_order_at(sn, b) < m:
        return InteriorBoundVerdict(False, f"order at {b} below degree")
    report = separated_zero_count(sn, a, b)[1]
    z, bound = open_component_count(report), n - m - 1
    return InteriorBoundVerdict(True, None, z, bound, z <= bound, report)


class VanishingVerdict(NamedTuple):
    """If a spline has >= n + m zeros on its window (hyp. enough_zeros) that
    touch every domain either in the open interior or at both ends
    (hyp. scattered), it must vanish identically on the window. ``consistent``
    is the implication itself and must never be False."""

    enough_zeros: bool
    scattered: bool
    identically_zero: bool
    consistent: bool


def vanishing_from_report(degree: int, report: ZeroReport) -> VanishingVerdict:
    """Evaluate the vanishing criterion from an existing window census, in
    one pass over its domains."""
    domains = report.domains
    knot_zero = report.knot_value_zero
    distinct = sum(knot_zero)
    zero_domains = 0
    scattered = True
    for d, zero_left, zero_right in zip(domains, knot_zero, knot_zero[1:]):
        if d.identically_zero:
            zero_domains += 1
        else:
            roots = d.open_interior_distinct_roots
            distinct += roots
            scattered = scattered and (roots >= 1 or (zero_left and zero_right))
    # an identically zero domain holds infinitely many zeros
    enough = zero_domains > 0 or distinct >= len(domains) + degree
    conclusion = zero_domains == len(domains)
    consistent = (not (enough and scattered)) or conclusion
    return VanishingVerdict(enough, scattered, conclusion, consistent)


# -- JSON document contract --------------------------------------------------------


def spline_to_document(s: Spline) -> dict:
    """Bit-exact document: canonical "p/q" strings, ascending coefficients,
    one piece per domain (knot count + 1 pieces). Coefficients are written
    from each piece's ints (format_ratio of num[i] over den: one gcd each)."""
    return {
        "degree": s.degree,
        "knots": [format_rational(k) for k in s.knots],
        "pieces": [[format_ratio(v, p.den) for v in p.num] for p in s.pieces],
    }


def spline_from_document(doc: dict) -> Spline:
    """Parse and fully validate a spline document; smoothness violations are
    rejected, not repaired. The degree is checked (check_degree) before any
    knot or piece is parsed; the Spline constructor checks the piece count."""
    if not isinstance(doc, dict):
        raise FormatError("spline document must be an object")
    try:
        degree = doc["degree"]
        knots_raw = doc["knots"]
        pieces_raw = doc["pieces"]
    except KeyError as missing:
        raise FormatError(f"spline document missing key {missing}") from None
    if type(degree) is not int or degree < 1:  # rejects true/false too
        raise FormatError(f"invalid degree {degree!r}")
    check_degree(degree)
    if not isinstance(knots_raw, list) or not isinstance(pieces_raw, list):
        raise FormatError("knots and pieces must be arrays")
    if not all(isinstance(coeffs, list) for coeffs in pieces_raw):
        raise FormatError("each piece must be an array of coefficients")
    knots = tuple(parse_rational(k) for k in knots_raw)
    pieces = tuple(Polynomial(parse_rational(c) for c in coeffs)
                   for coeffs in pieces_raw)
    return Spline(degree, knots, pieces)
