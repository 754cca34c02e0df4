"""Cardinal B-splines, translation, linear combinations, and the
compact-support extension.

B_m is built two independent ways: the truncated-power closed form

    B_m(x) = (1/m!) * sum_{k=0}^{m+1} (-1)^k C(m+1, k) (x - k)_+^m

and the convolution recurrence B_m(x) = integral of B_{m-1} over [x-1, x].
The two constructions must agree piecewise-exactly; cardinal_bspline checks
that once per degree (results are cached).

extend_compact goes through the same truncated-power assembly: the extension
is sum_k c_k (x - k)_+^m with m+1 jumps at a_0, a_0-1, ..., a_0-m, the jumps
of s at its interior knots, and m+1 jumps at a_n, ..., a_n+m. Each tail's
jumps solve one fixed (m+1)x(m+1) system whose exact inverse (a transposed
Vandermonde inverse on the nodes 0..m) is cached per degree, so an extension
runs no linear solve and never builds B_m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    ConsistencyError,
    DegreeError,
    DuplicateShiftError,
    KnotRangeError,
)
from .polynomial import Polynomial, count_distinct_roots
from .rational import as_rational, primitive_integers
from .spline import (
    Spline,
    TruncatedPowerSpec,
    normalize,
    spline_from_truncated_powers,
)

MAX_CARDINAL_DEGREE = 12


@dataclass(frozen=True)
class CardinalBSpline:
    """B_m with knots {0, 1, ..., m+1}: supported exactly on [0, m+1] and
    strictly positive inside (verified on construction)."""

    m: int
    spline: Spline

    def __post_init__(self) -> None:
        s = self.spline
        expected = tuple(Fraction(k) for k in range(self.m + 2))
        if s.knots != expected:
            raise ConsistencyError(f"B_{self.m} must have knots 0..{self.m + 1}")
        if not (s.pieces[0].is_zero and s.pieces[-1].is_zero):
            raise ConsistencyError(f"B_{self.m} must vanish outside [0, {self.m + 1}]")
        for j, piece in enumerate(s.pieces[1:-1]):
            if piece.is_zero:
                raise ConsistencyError(f"B_{self.m} vanishes on domain {j}")
            if count_distinct_roots(piece, j, j + 1,
                                    open_left=True, open_right=True):
                raise ConsistencyError(f"B_{self.m} has an interior zero in "
                                       f"({j}, {j + 1})")
            if piece.eval(Fraction(2 * j + 1, 2)) <= 0:
                raise ConsistencyError(f"B_{self.m} not positive on ({j}, {j + 1})")

    def eval(self, x) -> Fraction:
        return self.spline.eval(x)


def _truncated_power_pieces(m: int) -> Spline:
    fact = math.factorial(m)
    jumps = tuple(
        (Fraction(k), Fraction((-1) ** k * math.comb(m + 1, k), fact))
        for k in range(m + 2)
    )
    spec = TruncatedPowerSpec(Polynomial(), jumps, (Fraction(0), Fraction(m + 1)))
    return spline_from_truncated_powers(spec, m)


def convolution_bspline_pieces(m: int) -> tuple[Polynomial, ...]:
    """Interior pieces of B_m on [k, k+1], k = 0..m, by repeated exact
    integration of the unit indicator. Independent of the truncated-power
    route; used as its cross-check."""
    if m < 0:
        raise KnotRangeError("degree must be non-negative")
    pieces: list[Polynomial] = [Polynomial.constant(1)]
    for deg in range(1, m + 1):
        running = Fraction(0)
        accumulated: list[Polynomial] = []
        for k, p in enumerate(pieces):
            g = p.antiderivative(0)
            g = g + Polynomial.constant(running - g.eval(k))
            accumulated.append(g)
            running = g.eval(k + 1)
        new_pieces: list[Polynomial] = []
        for j in range(deg + 1):
            upper = accumulated[j] if j <= deg - 1 else Polynomial.constant(running)
            lower = accumulated[j - 1].taylor_shift(-1) if j >= 1 else Polynomial()
            new_pieces.append(upper - lower)
        pieces = new_pieces
    return tuple(pieces)


@lru_cache(maxsize=None)
def _cardinal_cached(m: int) -> CardinalBSpline:
    spline = _truncated_power_pieces(m)
    conv = convolution_bspline_pieces(m)
    if spline.pieces[1:-1] != conv:
        raise ConsistencyError(
            f"truncated-power and convolution constructions of B_{m} disagree"
        )
    return CardinalBSpline(m, spline)


def cardinal_bspline(m: int) -> CardinalBSpline:
    """B_m for 1 <= m <= 12 (two-construction cross-check included)."""
    if not isinstance(m, int) or not 1 <= m <= MAX_CARDINAL_DEGREE:
        raise KnotRangeError(
            f"degree must be an int in [1, {MAX_CARDINAL_DEGREE}], got {m!r}"
        )
    return _cardinal_cached(m)


def bspline_combination(m: int, terms) -> Spline:
    """sum_j d_j * B_m(x - shift_j) as one normalized spline.

    Shifts must be distinct. The all-zero combination collapses to the zero
    spline on the union window."""
    terms = [(as_rational(shift), as_rational(coeff)) for shift, coeff in terms]
    if not terms:
        raise DuplicateShiftError("at least one term required")
    shifts = [shift for shift, _ in terms]
    if len(set(shifts)) != len(shifts):
        raise DuplicateShiftError("duplicate shifts in combination")
    base = cardinal_bspline(m).spline
    knots = sorted({shift + k for shift in shifts for k in range(m + 2)})
    pieces: list[Polynomial] = [Polynomial()]
    for left, right in zip(knots, knots[1:]):
        mid = (left + right) / 2
        acc = Polynomial()
        for shift, coeff in terms:
            if coeff == 0:
                continue
            pos = mid - shift
            if 0 < pos < m + 1:
                segment = base.pieces[math.floor(pos) + 1]
                acc = acc + segment.taylor_shift(-shift).scale(coeff)
        pieces.append(acc)
    pieces.append(Polynomial())
    combined = Spline(m, tuple(knots), tuple(pieces))
    if all(p.is_zero for p in combined.pieces):
        zero = Polynomial()
        return Spline(m, (knots[0], knots[-1]), (zero, zero, zero))
    return normalize(combined, trim_ends=True)


@lru_cache(maxsize=None)
def _tail_inverse(m: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows W and denominator D with (W / D) = V_m^-1, where
    V_m[k][i] = C(m, k) * i^(m-k) maps jumps d_0..d_m at 0, -1, ..., -m to
    the coefficients of sum_i d_i (t + i)^m.

    Dividing row k by C(m, k) leaves the transposed Vandermonde matrix on the
    nodes 0..m, whose inverse holds the Lagrange basis coefficients:
    d_i = sum_r [t^r]L_i * q_(m-r) / C(m, r)."""
    nodes = range(m + 1)
    rows = []
    for i in nodes:
        basis = Polynomial.constant(1)
        for j in nodes:
            if j != i:
                basis = basis * Polynomial((Fraction(-j, i - j), Fraction(1, i - j)))
        coeffs = basis.coeffs
        rows.append([coeffs[m - k] / math.comb(m, k) for k in nodes])
    den = math.lcm(*(w.denominator for row in rows for w in row))
    ints = tuple(tuple(w.numerator * (den // w.denominator) for w in row)
                 for row in rows)
    return ints, den


def _tail_jumps(p: Polynomial, m: int, sign: int) -> list[Fraction]:
    """d_0..d_m with sum_i d_i (t + i)^m = sign * p(t), by the cached
    per-degree inverse (one integer dot product per jump)."""
    rows, den = _tail_inverse(m)
    coeffs = p.coeffs + (Fraction(0),) * (m + 1 - len(p.coeffs))
    content, q = primitive_integers(coeffs)
    scale = content * sign / den
    return [scale * sum(w * v for w, v in zip(row, q)) for row in rows]


def _top_coefficient(p: Polynomial, m: int) -> Fraction:
    return p.coeffs[m] if len(p.coeffs) > m else Fraction(0)


def extend_compact(s: Spline) -> Spline:
    """Extend s beyond its window to a compactly supported spline.

    The result coincides with s exactly on [a_0, a_n], vanishes outside
    [a_0 - m, a_n + m], stays C^(m-1) everywhere, and adds only unit-spaced
    knots. It is sum_k c_k (x - k)_+^m with one jump per knot:

    * d_i at a_0 - i (i = 0..m) solve sum_i d_i (t + i)^m = p_1(t + a_0),
      so the left tail rises from zero into the first interior piece p_1;
    * at an interior knot, the x^m coefficient of p_(j+1) - p_j (the
      Spline constructor certifies that jump as c * (x - knot)^m);
    * e_i at a_n + i solve sum_i e_i (u - i)^m = -p_n(u + a_n), so the right
      tail cancels the last interior piece p_n. Reflecting u -> -u turns this
      into the left system times (-1)^m.

    Both tail systems have the matrix V_m[k][i] = C(m, k) i^(m-k), which
    depends on m alone; its exact inverse is built once per degree, so no
    linear solve runs per call. Degrees above MAX_CARDINAL_DEGREE are
    refused before any work."""
    m = s.degree
    if not 1 <= m <= MAX_CARDINAL_DEGREE:
        raise DegreeError(
            f"extension needs degree in [1, {MAX_CARDINAL_DEGREE}] "
            f"(MAX_CARDINAL_DEGREE), got {m}"
        )
    a0, an = s.knots[0], s.knots[-1]
    first, last = s.pieces[1], s.pieces[-2]
    left = _tail_jumps(first.taylor_shift(a0), m, 1)
    right = _tail_jumps(last.taylor_shift(an).reflect(), m, (-1) ** (m + 1))
    interior = [
        (knot, _top_coefficient(after, m) - _top_coefficient(before, m))
        for knot, before, after in zip(s.knots[1:-1], s.pieces[1:], s.pieces[2:-1])
    ]
    jumps = (
        [(a0 - i, left[i]) for i in range(m, -1, -1)]
        + interior
        + [(an + i, right[i]) for i in range(m + 1)]
    )
    spec = TruncatedPowerSpec(Polynomial(), tuple(jumps), (a0 - m, an + m))
    return normalize(spline_from_truncated_powers(spec, m), trim_ends=True)
