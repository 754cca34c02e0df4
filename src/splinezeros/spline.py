"""Finite-knot splines with certified smoothness and the separated-zero
census.

A degree-m spline here is a C^(m-1) piecewise polynomial with finitely many
knots a_0 < ... < a_n, stored with n+2 pieces: the two unbounded end domains
plus the n interior domains. A piecewise polynomial is C^(m-1) at a knot k
exactly when the jump between its two adjacent pieces is a multiple of
(x - k)^m (the truncated-power view). The Spline constructor checks this by
exact integer division at every knot, and every transformation here builds
its result through that constructor, so every Spline in circulation is
certified.

Z(s) on a window counts the connected components of the zero set. Why that
equals the maximum size of a pairwise "separated" zero family (two zeros
u < v are separated iff s is not identically zero on [u, v]):

* zeros in the same component are never separated (s vanishes identically
  between them), so a separated family holds at most one zero per component;
* zeros from distinct components are always separated (some point between
  them has s != 0), so picking one zero per component is a valid family.

Hence the maximum separated family has exactly one member per component, and
Z is computable from exact per-domain root counts and knot-value flags alone
(no root locations needed).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegreeError,
    FormatError,
    IntervalError,
    KnotOrderError,
    KnotRangeError,
    SmoothnessError,
)
from .polynomial import Polynomial, count_distinct_roots, root_order
from .rational import as_rational, format_rational, parse_rational


@dataclass(frozen=True)
class Spline:
    """Certified piecewise polynomial.

    pieces[0] lives on (-inf, knots[0]], pieces[j] on [knots[j-1], knots[j]],
    pieces[-1] on [knots[-1], +inf). Degree 0 is admitted only so that the
    derivative of a degree-1 spline exists as a value (its C^-1 smoothness is
    vacuous); public constructors require degree >= 1 and degree-0 splines
    cannot be differentiated further.

    Construction rejects any knot where the two adjacent pieces differ by
    something that is not a multiple of (x - knot)^degree."""

    degree: int
    knots: tuple[Fraction, ...]
    pieces: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "knots", tuple(as_rational(k) for k in self.knots))
        object.__setattr__(self, "pieces", tuple(self.pieces))
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

    def eval(self, x) -> Fraction:
        return spline_eval(self, x)

    def __call__(self, x) -> Fraction:
        return spline_eval(self, x)


def _verify_smoothness(degree: int, knots, pieces) -> None:
    """Exact C^(degree-1) check: at every knot the jump between the adjacent
    pieces must have the knot as a root of order >= degree. The order found
    is the lowest derivative that jumps."""
    for j, knot in enumerate(knots):
        order = root_order(pieces[j + 1] - pieces[j], knot, degree)
        if order < degree:
            raise SmoothnessError(
                f"derivative order {order} jumps at knot {knot} "
                f"(C^{degree - 1} required)"
            )


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


def spline_scale(s: Spline, c) -> Spline:
    """c * s, exactly."""
    c = as_rational(c)
    return Spline(s.degree, s.knots, tuple(p.scale(c) for p in s.pieces))


def spline_translate(s: Spline, shift) -> Spline:
    """x -> s(x - shift); knots move right by shift."""
    shift = as_rational(shift)
    return Spline(
        s.degree,
        tuple(k + shift for k in s.knots),
        tuple(p.taylor_shift(-shift) for p in s.pieces),
    )


def spline_reflect(s: Spline) -> Spline:
    """x -> s(-x); knots negate and reverse."""
    return Spline(
        s.degree,
        tuple(-k for k in reversed(s.knots)),
        tuple(p.reflect() for p in reversed(s.pieces)),
    )


def normalize(s: Spline, trim_ends: bool = False) -> Spline:
    """Drop interior knots whose two adjacent pieces are identical (they are
    not genuine: the function is C^infinity there). The outermost knots are
    kept: they mark the census window. With trim_ends=True, outer knots whose
    outside piece equals the inside piece are shed too (used after gluing
    constructions), never going below two knots. When no knot is dropped
    the input itself is returned."""
    knots = list(s.knots)
    pieces = list(s.pieces)
    kept_knots = [knots[0]]
    kept_pieces = [pieces[0], pieces[1]]
    for j in range(1, len(knots)):
        if j < len(knots) - 1 and pieces[j] == pieces[j + 1]:
            continue
        kept_knots.append(knots[j])
        kept_pieces.append(pieces[j + 1])
    if trim_ends:
        while len(kept_knots) > 2 and kept_pieces[0] == kept_pieces[1]:
            kept_knots.pop(0)
            kept_pieces.pop(0)
        while len(kept_knots) > 2 and kept_pieces[-1] == kept_pieces[-2]:
            kept_knots.pop()
            kept_pieces.pop()
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


@dataclass(frozen=True)
class TruncatedPowerSpec:
    """Recipe base(x) + sum_i c_i * (x - k_i)_+^m  on a window [lo, hi].

    The truncated powers make C^(m-1) smoothness automatic, so this is the
    safe way to author splines. Knots with c_i = 0 are dropped up front."""

    base: Polynomial
    jumps: tuple[tuple[Fraction, Fraction], ...]
    window: tuple[Fraction, Fraction]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "jumps",
            tuple((as_rational(k), as_rational(c)) for k, c in self.jumps),
        )
        object.__setattr__(
            self, "window",
            (as_rational(self.window[0]), as_rational(self.window[1])),
        )
        for (a, _), (b, _) in zip(self.jumps, self.jumps[1:]):
            if a >= b:
                raise KnotOrderError(f"jump knots not strictly increasing: {a} >= {b}")
        lo, hi = self.window
        if lo >= hi:
            raise KnotOrderError(f"empty window [{lo}, {hi}]")
        if self.jumps:
            if self.jumps[0][0] < lo or self.jumps[-1][0] > hi:
                raise KnotRangeError("jump knots must lie inside the window")


def _binomial_power(c: Fraction, knot: Fraction, m: int) -> Polynomial:
    """c * (x - knot)^m expanded by the binomial theorem: with knot = p/q the
    x^(m-e) coefficient is c * C(m, e) * (-p)^e / q^e, one Fraction each."""
    num, den = -knot.numerator, knot.denominator
    coeffs = []
    num_power = den_power = 1
    for e in range(m + 1):
        coeffs.append(Fraction(c.numerator * math.comb(m, e) * num_power,
                               c.denominator * den_power))
        num_power *= num
        den_power *= den
    coeffs.reverse()
    return Polynomial(coeffs)


def spline_from_truncated_powers(spec: TruncatedPowerSpec, m: int) -> Spline:
    """Assemble the spline; smoothness holds by construction and is
    re-verified by the Spline constructor."""
    if m < 1:
        raise DegreeError(f"spline degree must be >= 1, got {m}")
    if not spec.base.is_zero and spec.base.degree > m:
        raise DegreeError(f"base degree {spec.base.degree} exceeds {m}")
    jumps = [(k, c) for k, c in spec.jumps if c != 0]
    lo, hi = spec.window
    knots = sorted({lo, hi} | {k for k, _ in jumps})
    jump_at = dict(jumps)
    pieces = [spec.base]
    cumulative = spec.base
    for knot in knots:
        c = jump_at.get(knot)
        if c is not None:
            cumulative = cumulative + _binomial_power(c, knot, m)
        pieces.append(cumulative)
    return Spline(m, tuple(knots), tuple(pieces))


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


@dataclass(frozen=True)
class DomainCensus:
    """Structural zero data for one polynomiality domain [left, right]."""

    left: Fraction
    right: Fraction
    identically_zero: bool
    open_interior_distinct_roots: int | None  # None when identically zero


@dataclass(frozen=True)
class ZeroReport:
    """Per-domain and per-knot census on a window; Z = component_count."""

    window: tuple[Fraction, Fraction]
    domains: tuple[DomainCensus, ...]
    knot_value_zero: tuple[bool, ...]  # one flag per knot in the window
    component_count: int


def separated_zero_count(s: Spline, a, b) -> tuple[int, ZeroReport]:
    """Z and its census on [a, b], where a and b must be knots of s (use
    insert_knot first for other windows).

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
    for j in range(ia + 1, ib + 1):
        piece = s.pieces[j]
        if piece.is_zero:
            domains.append(DomainCensus(s.knots[j - 1], s.knots[j], True, None))
        else:
            cnt = count_distinct_roots(piece, s.knots[j - 1], s.knots[j],
                                       open_left=True, open_right=True)
            domains.append(DomainCensus(s.knots[j - 1], s.knots[j], False, cnt))

    knot_zero = tuple(
        s.pieces[j + 1].eval(s.knots[j]) == 0 for j in range(ia, ib + 1)
    )

    isolated = sum(d.open_interior_distinct_roots for d in domains
                   if not d.identically_zero)
    clusters = 0
    for idx, flag in enumerate(knot_zero):
        if not flag:
            continue
        joined = idx > 0 and knot_zero[idx - 1] and domains[idx - 1].identically_zero
        if not joined:
            clusters += 1

    report = ZeroReport((a, b), tuple(domains), knot_zero, isolated + clusters)
    return report.component_count, report


def open_component_count(report: ZeroReport) -> int:
    """Components of the zero set intersected with the OPEN window.

    Only singleton components sitting exactly on a window endpoint
    disappear; components that extend inward through an identically-zero
    domain survive as nonempty sets."""
    z = report.component_count
    if report.knot_value_zero[0] and not report.domains[0].identically_zero:
        z -= 1
    if report.knot_value_zero[-1] and not report.domains[-1].identically_zero:
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


@dataclass(frozen=True)
class ZeroBoundVerdict:
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


@dataclass(frozen=True)
class InteriorBoundVerdict:
    """For splines whose outermost knots are zeros of order >= degree:
    interior zeros obey Z_open <= n - m - 1 (and closed-window zeros obey
    Z <= n - m + 1). Never silently passes on inapplicable input."""

    applicable: bool
    reason: str | None
    n_ge_m_plus_1: bool
    interior_Z: int | None
    interior_bound: int | None
    total_Z: int | None
    total_bound: int | None
    passed: bool
    report: ZeroReport | None = None


def check_interior_bound(s: Spline) -> InteriorBoundVerdict:
    sn = normalize(s)
    m, n = sn.degree, sn.n
    a, b = sn.window
    if all(p.is_zero for p in sn.pieces[1:-1]):
        return InteriorBoundVerdict(False, "identically zero on the window",
                                    False, None, None, None, None, False)
    if zero_order_at(sn, a) < m:
        return InteriorBoundVerdict(False, f"order at {a} below degree",
                                    False, None, None, None, None, False)
    if zero_order_at(sn, b) < m:
        return InteriorBoundVerdict(False, f"order at {b} below degree",
                                    False, None, None, None, None, False)
    total_z, report = separated_zero_count(sn, a, b)
    interior_z = open_component_count(report)
    n_ok = n >= m + 1
    interior_bound = n - m - 1
    total_bound = n - m + 1
    passed = n_ok and interior_z <= interior_bound and total_z <= total_bound
    return InteriorBoundVerdict(True, None, n_ok, interior_z, interior_bound,
                                total_z, total_bound, passed, report)


@dataclass(frozen=True)
class VanishingVerdict:
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


def check_vanishing_criterion(s: Spline) -> VanishingVerdict:
    sn = normalize(s)
    _, report = separated_zero_count(sn, sn.knots[0], sn.knots[-1])
    return vanishing_from_report(sn.degree, report)


# -- JSON document contract --------------------------------------------------------


def spline_to_document(s: Spline) -> dict:
    """Bit-exact document: canonical "p/q" strings, ascending coefficients,
    one piece per domain (knot count + 1 pieces)."""
    return {
        "degree": s.degree,
        "knots": [format_rational(k) for k in s.knots],
        "pieces": [[format_rational(c) for c in p.coeffs] for p in s.pieces],
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
