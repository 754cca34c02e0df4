"""Cardinal B-splines, translation, linear combinations, and the
compact-support extension.

B_m is built two independent ways: the truncated-power closed form

    B_m(x) = (1/m!) * sum_{k=0}^{m+1} (-1)^k C(m+1, k) (x - k)_+^m

and the convolution recurrence B_m(x) = integral of B_{m-1} over [x-1, x].
The two constructions must agree piecewise-exactly; cardinal_bspline checks
that once per degree (results are cached).
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
    SingularMatrixError,
)
from .linalg import RationalMatrix, mat_solve
from .polynomial import Polynomial, count_distinct_roots
from .rational import as_rational
from .spline import (
    Spline,
    TruncatedPowerSpec,
    normalize,
    spline_from_truncated_powers,
    spline_reflect,
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


def _tail_coefficients(s: Spline, base: Spline) -> tuple[Fraction, ...]:
    """Coefficients lambda_-m..lambda_0 making sum_j lambda_j B_m(x-a_0-j)
    equal the first interior piece of s on [a_0, a_0+1].

    Restricted to one inter-knot interval the m+1 overlapping translates are
    linearly independent, so the system is invertible; a singular system here
    is an internal invariant violation."""
    m = s.degree
    a0 = s.knots[0]
    columns: list[list[Fraction]] = []
    for j in range(-m, 1):
        segment = base.pieces[-j + 1].taylor_shift(-(a0 + j))
        coeffs = list(segment.coeffs) + [Fraction(0)] * (m + 1 - len(segment.coeffs))
        columns.append(coeffs)
    matrix = RationalMatrix.from_rows(
        [[columns[j][row] for j in range(m + 1)] for row in range(m + 1)]
    )
    first = s.pieces[1]
    rhs = list(first.coeffs) + [Fraction(0)] * (m + 1 - len(first.coeffs))
    try:
        return mat_solve(matrix, rhs)
    except SingularMatrixError as exc:  # pragma: no cover - cannot happen
        raise ConsistencyError(
            "translated B-spline pieces failed to be independent"
        ) from exc


def _left_tail(s: Spline, base: Spline) -> list[Polynomial]:
    """Pieces of the left extension on the m unit domains of [a_0-m, a_0]."""
    m = s.degree
    a0 = s.knots[0]
    lam = _tail_coefficients(s, base)
    tail: list[Polynomial] = []
    for i in range(m):
        acc = Polynomial()
        for idx, j in enumerate(range(-m, 1)):
            k = i - j - m  # domain index inside B_m for this translate
            if 0 <= k <= m and lam[idx] != 0:
                acc = acc + base.pieces[k + 1].taylor_shift(-(a0 + j)).scale(lam[idx])
        tail.append(acc)
    return tail


def extend_compact(s: Spline) -> Spline:
    """Extend s beyond its window to a compactly supported spline.

    The result coincides with s exactly on [a_0, a_n], vanishes outside
    [a_0 - m, a_n + m], stays C^(m-1) everywhere, and adds only unit-spaced
    knots. The right side reuses the left-side construction through
    reflection."""
    if s.degree < 1:
        raise DegreeError("extension requires degree >= 1")
    m = s.degree
    base = cardinal_bspline(m).spline
    a0, an = s.knots[0], s.knots[-1]
    left = _left_tail(s, base)
    right = [p.reflect() for p in reversed(_left_tail(spline_reflect(s), base))]
    knots = (
        tuple(a0 - m + i for i in range(m))
        + s.knots
        + tuple(an + i for i in range(1, m + 1))
    )
    pieces = (
        (Polynomial(),)
        + tuple(left)
        + s.pieces[1:-1]
        + tuple(right)
        + (Polynomial(),)
    )
    extended = Spline(m, knots, pieces)
    return normalize(extended, trim_ends=True)
