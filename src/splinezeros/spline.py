"""Finite-knot splines with certified smoothness and the separated-zero
census.

A degree-m spline here is a C^(m-1) piecewise polynomial with finitely many
knots a_0 < ... < a_n, stored with n+2 pieces: the two unbounded end domains
plus the n interior domains. A piecewise polynomial is C^(m-1) at a knot k
exactly when the jump between its two adjacent pieces is a multiple of
(x - k)^m (the truncated-power view). The Spline constructor checks this at
every knot k = p/q with one integer identity: the jump's numerators N_i
over a common denominator must satisfy N_i q^(m-i) = N_m C(m, i) (-p)^(m-i),
the coefficients of N_m (x - k)^m. Every transformation here builds its
result through that constructor, so every Spline in circulation is
certified, and the constructor is the one check of the knot order.
spline_from_truncated_powers(base, jumps, window, m) authors a spline as
base(x) + sum c_i (x - k_i)_+^m, which is C^(m-1) by construction; it sums
the pieces on integer numerators over one running denominator.

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
(polynomial.root_census): Descartes' rule on an integer Moebius transform of
the piece, or a Sturm sequence when the rule cannot decide, counts the roots
in the open domain and says whether the piece vanishes at either end. Each
knot takes its flag from an adjacent domain, which continuity allows for
degree >= 1. The census evaluates no piece on its own.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
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
from .polynomial import Polynomial, root_census, root_order
from .rational import as_rational, format_ratio, format_rational, parse_rational


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
        return super().__new__(cls, degree, tuple(map(as_rational, knots)),
                               tuple(pieces))

    def __post_init__(self) -> None:
        # type() rather than isinstance(): bool is an int subclass
        if type(self.degree) is not int or self.degree < 0:
            raise DegreeError(f"invalid spline degree {self.degree!r}")
        if len(self.knots) < 2:
            raise KnotOrderError("a spline needs at least two knots")
        for a, b in zip(self.knots, self.knots[1:]):
            if a >= b:
                raise KnotOrderError(f"knots not strictly increasing: {a} >= {b}")
        if len(self.pieces) != len(self.knots) + 1:
            raise FormatError(
                f"{len(self.knots)} knots require {len(self.knots) + 1} pieces, "
                f"got {len(self.pieces)}"
            )
        for p in self.pieces:
            if not isinstance(p, Polynomial):
                raise FormatError("pieces must be Polynomial values")
            if not p.is_zero and p.degree > self.degree:
                raise DegreeError(
                    f"piece degree {p.degree} exceeds spline degree {self.degree}"
                )
        _verify_smoothness(self.degree, self.knots, self.pieces)

    # convenience accessors used throughout

    @property
    def window(self) -> tuple[Fraction, Fraction]:
        return self.knots[0], self.knots[-1]

    @property
    def n(self) -> int:
        """Index of the last knot (knots run a_0 .. a_n)."""
        return len(self.knots) - 1


def _verify_smoothness(degree: int, knots, pieces) -> None:
    """Exact C^(degree-1) check: at every knot the jump between the adjacent
    pieces must be a multiple of (x - knot)^degree. Cross-multiplying the
    two piece denominators gives its integer numerators, which
    _is_power_multiple tests. root_order runs only to word the error: the
    order found is the lowest derivative that jumps."""
    for j, knot in enumerate(knots):
        left, right = pieces[j], pieces[j + 1]
        jump = [0] * max(len(left.num), len(right.num))
        for i, v in enumerate(right.num):
            jump[i] = v * left.den
        for i, v in enumerate(left.num):
            jump[i] -= v * right.den
        if not _is_power_multiple(jump, degree, knot):
            order = root_order(right - left, knot, degree)
            raise SmoothnessError(
                f"derivative order {order} jumps at knot {knot} "
                f"(C^{degree - 1} required)"
            )


def _is_power_multiple(jump: list[int], m: int, knot: Fraction) -> bool:
    """Whether sum jump_i x^i (degree <= m) is a multiple of (x - knot)^m.
    A nonzero multiple has degree m, and with knot = p/q it is
    (jump_m / q^m) (q x - p)^m exactly when, for every i,
    jump_i q^(m-i) == jump_m C(m, i) (-p)^(m-i), an identity on ints."""
    if len(jump) <= m or not jump[m]:
        return not any(jump)
    top, minus_p, q = jump[m], -knot.numerator, knot.denominator
    q_power = p_power = 1
    for e in range(m + 1):
        if jump[m - e] * q_power != top * math.comb(m, e) * p_power:
            return False
        q_power *= q
        p_power *= minus_p
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
    """Drop interior knots whose two adjacent pieces are identical (they are
    not genuine: the function is C^infinity there). The outermost knots are
    kept: they mark the census window. When no knot is dropped the input
    itself is returned. Library-built splines leave
    spline_from_truncated_powers normalized (extend_compact passes it only
    its nonzero jumps); the bound checkers normalize what they are handed."""
    knots = list(s.knots)
    pieces = list(s.pieces)
    kept_knots = [knots[0]]
    kept_pieces = [pieces[0], pieces[1]]
    for j in range(1, len(knots)):
        if j < len(knots) - 1 and pieces[j] == pieces[j + 1]:
            continue
        kept_knots.append(knots[j])
        kept_pieces.append(pieces[j + 1])
    if len(kept_knots) == len(knots):
        return s  # nothing dropped, and s is certified already
    return Spline(s.degree, tuple(kept_knots), tuple(kept_pieces))


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

    Pieces are summed on ints: a jump c (x - p/q)^m adds c.num C(m, i)
    (-p)^(m-i) q^i to x^i over the lcm of c.den q^m and the running piece's
    denominator, and each piece is reduced once (from_integers, one gcd).

    The jump knots must increase inside the window. The spline is built on
    every jump knot and on both window ends, and normalize then drops the
    knots whose jump is 0. The Spline constructor checks the knot order
    (an empty window included) and the base degree, and re-verifies
    smoothness; only a degree below 1 and a jump outside a nonempty window
    are refused here."""
    if m < 1:
        raise DegreeError(f"spline degree must be >= 1, got {m}")
    lo, hi = as_rational(window[0]), as_rational(window[1])
    row = [math.comb(m, i) for i in range(m + 1)]
    cumulative = base
    knots, pieces = [], [base]
    for knot, c in jumps:
        knot, c = as_rational(knot), as_rational(c)
        if c:
            p, q = knot.numerator, knot.denominator
            jump_den = c.denominator * q ** m
            den = math.lcm(cumulative.den, jump_den)
            num = [v * (den // cumulative.den) for v in cumulative.num]
            num += [0] * (m + 1 - len(num))
            scale = c.numerator * (den // jump_den)
            for i, binom in enumerate(row):
                num[i] += scale * binom * (-p) ** (m - i) * q ** i
            cumulative = Polynomial.from_integers(num, den)
        knots.append(knot)
        pieces.append(cumulative)
    if lo < hi and knots and (knots[0] < lo or knots[-1] > hi):
        raise KnotRangeError("jump knots must lie inside the window")
    if not knots or knots[0] != lo:
        knots.insert(0, lo)
        pieces.insert(0, base)
    if knots[-1] != hi:
        knots.append(hi)
        pieces.append(cumulative)
    return normalize(Spline(m, tuple(knots), tuple(pieces)))


def piecewise_linear(knots: Sequence, values: Sequence) -> Spline:
    """Degree-1 spline interpolating (knot, value) pairs, constant beyond the
    window. Handy for zigzag corner cases."""
    ks = [as_rational(k) for k in knots]
    vs = [as_rational(v) for v in values]
    if len(ks) != len(vs):
        raise FormatError("one value per knot required")
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

    One exact census per domain (polynomial.root_census: Descartes' rule of
    signs, with a Sturm sequence only where the rule cannot decide) gives the
    distinct roots in the open domain and whether the piece vanishes at each
    end. Each
    knot flag is the left-end flag of the domain to its right, and the last
    knot's is the right-end flag of the last domain: the spline is continuous
    (degree >= 1), so either adjacent piece decides the knot value. An
    identically zero domain flags both of its knots. No piece is evaluated
    separately.

    Components are assembled from exact counts only: interior roots of
    non-vanishing pieces are isolated singletons; zero-valued knots chain
    into one component exactly when the domain between them vanishes
    identically. See the module docstring for why components = max separated
    family."""
    if s.degree < 1:
        raise DegreeError("census requires a spline of degree >= 1")
    a = as_rational(a)
    b = as_rational(b)
    if a >= b:
        raise IntervalError(f"need a < b, got {a} >= {b}")
    try:
        ia = s.knots.index(a)
        ib = s.knots.index(b)
    except ValueError:
        raise KnotRangeError("census endpoints must be knots of the spline") from None

    domains = []
    knot_zero = []
    for left, right, piece in zip(s.knots[ia:ib], s.knots[ia + 1:ib + 1],
                                  s.pieces[ia + 1:ib + 1]):
        if piece.is_zero:
            domains.append(DomainCensus(left, right, True, None))
            zero_left = zero_right = True
        else:
            count, zero_left, zero_right = root_census(piece, left, right)
            domains.append(DomainCensus(left, right, False, count))
        knot_zero.append(zero_left)
    knot_zero.append(zero_right)

    isolated = sum(d.open_interior_distinct_roots for d in domains
                   if not d.identically_zero)
    clusters = 0
    for idx, flag in enumerate(knot_zero):
        if not flag:
            continue
        joined = idx > 0 and knot_zero[idx - 1] and domains[idx - 1].identically_zero
        if not joined:
            clusters += 1

    report = ZeroReport((a, b), tuple(domains), tuple(knot_zero),
                        isolated + clusters)
    return report.component_count, report


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


def zero_order_at(s: Spline, z) -> int | float:
    """Order of z as a zero: its multiplicity as a root of the piece there,
    capped at degree (the smallest derivative index j <= degree-1 with a
    nonzero value, else degree); math.inf only when s vanishes identically
    on a neighborhood of z."""
    if s.degree < 1:
        raise DegreeError("zero order requires a spline of degree >= 1")
    z = as_rational(z)
    idx = bisect_right(s.knots, z)
    relevant = [s.pieces[idx]]
    if idx >= 1 and s.knots[idx - 1] == z:
        relevant.append(s.pieces[idx - 1])
    if all(p.is_zero for p in relevant):
        return math.inf
    # the pieces on both sides of a knot differ by a multiple of
    # (x - knot)^degree, so either nonzero one gives the capped order
    probe = relevant[0] if not relevant[0].is_zero else relevant[1]
    return root_order(probe, z, s.degree)


# -- bound checkers ---------------------------------------------------------------


class ZeroBoundVerdict(NamedTuple):
    """Z versus the sharp bound n + m - 1 and the gross bound m(n+1)."""

    Z: int
    bound: int
    gross_bound: int
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
    gross = sn.degree * (n + 1)
    return ZeroBoundVerdict(
        Z=z, bound=bound, gross_bound=gross, n=n, degree=sn.degree,
        passed=(z <= bound and z <= gross), report=report,
    )


class InteriorBoundVerdict(NamedTuple):
    """For splines whose outermost knots are zeros of order >= degree:
    interior zeros obey Z_open <= n - m - 1 (and closed-window zeros obey
    Z <= n - m + 1). Never silently passes on inapplicable input."""

    applicable: bool
    reason: str | None
    n_ge_m_plus_1: bool = False
    interior_Z: int | None = None
    interior_bound: int | None = None
    total_Z: int | None = None
    total_bound: int | None = None
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
    total_z, report = separated_zero_count(sn, a, b)
    interior_z = open_component_count(report)
    n_ok = n >= m + 1
    interior_bound = n - m - 1
    total_bound = n - m + 1
    passed = n_ok and interior_z <= interior_bound and total_z <= total_bound
    return InteriorBoundVerdict(True, None, n_ok, interior_z, interior_bound,
                                total_z, total_bound, passed, report)


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
    """Evaluate the vanishing criterion from an existing window census."""
    domains = report.domains
    knot_zero = report.knot_value_zero
    n = len(domains)
    conclusion = all(d.identically_zero for d in domains)
    if any(d.identically_zero for d in domains):
        enough = True  # infinitely many zeros
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
    rejected, not repaired."""
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
    if not isinstance(knots_raw, list) or not isinstance(pieces_raw, list):
        raise FormatError("knots and pieces must be arrays")
    if not all(isinstance(coeffs, list) for coeffs in pieces_raw):
        raise FormatError("each piece must be an array of coefficients")
    if len(pieces_raw) != len(knots_raw) + 1:
        raise FormatError(
            f"{len(knots_raw)} knots require {len(knots_raw) + 1} pieces, "
            f"got {len(pieces_raw)}"
        )
    knots = tuple(parse_rational(k) for k in knots_raw)
    pieces = tuple(Polynomial(parse_rational(c) for c in coeffs)
                   for coeffs in pieces_raw)
    return Spline(degree, knots, pieces)
