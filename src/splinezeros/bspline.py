"""Univariate box splines, cardinal B-splines and the compact-support
extension.

B_X for nonzero ints X = (xi_1, ..., xi_k) is one truncated-power sum of
degree k - 1 (de Boor, Hollig & Riemenschneider, *Box Splines*, 1993, ch. I):

    B_X(x) = sum_S (-1)^|S| (x - o - sum_S |xi|)_+^(k-1) / (prod |xi| (k-1)!)

over the subsets S of X, with o = sum min(0, xi), so the jump at o + j is the
z^j coefficient of prod (1 - z^|xi|). B_m is the case of m + 1 ones; it is
also built by the convolution recurrence B_m(x) = integral of B_{m-1} over
[x-1, x]. cardinal_bspline returns the Spline itself; once per degree (the
result is cached) it checks piecewise-exact agreement of the two
constructions, then the knots 0..m+1, the zero end pieces, no root inside a
domain and a positive value at each domain's midpoint.

extend_compact is the truncated-power sum sum_k c_k (x - k)_+^m with m+1
jumps at a_0, a_0-1, ..., a_0-m, the jumps of s at its interior knots, and
m+1 jumps at a_n, ..., a_n+m. The basis is local, so the interior pieces of
s are reused and only the tails are assembled (spline._running_pieces).
Each tail's jumps solve one fixed (m+1)x(m+1) system, whose exact inverse
has a closed form, built once per degree (cached): an extension runs no
linear solve and never builds B_m. Its knots follow the library's one
flat-knot rule (spline.normalize): a knot is kept exactly when its two
pieces differ, so a zero tail jump or a repeated piece of s leaves no knot.

cardinal_bspline and extend_compact refuse a degree outside
[1, MAX_CARDINAL_DEGREE] by spline.check_degree (DegreeError), the rule
every public entry point shares; convolution_bspline_pieces applies it from
degree 0 up. univariate_box_spline's limit of
MAX_CARDINAL_DEGREE + 1 lengths is a capability limit (CapabilityError).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import (
    CapabilityError,
    ConsistencyError,
    FormatError,
    RankDeficiencyError,
)
from .polynomial import Polynomial, count_distinct_roots
from .spline import (
    MAX_CARDINAL_DEGREE,
    Spline,
    _running_pieces,
    check_degree,
    spline_from_truncated_powers,
)


def univariate_box_spline(lengths: tuple[int, ...]) -> Spline:
    """B_X for 2 to MAX_CARDINAL_DEGREE + 1 nonzero ints X = lengths, on the
    window [o, o + sum |xi|]; more lengths raise CapabilityError, a length
    that is not an int (a bool included) FormatError and a zero length
    RankDeficiencyError. B_X is the same for every order of X."""
    for xi in lengths:
        if type(xi) is not int:
            raise FormatError(f"lengths must be int, got {xi!r}")
        if xi == 0:
            raise RankDeficiencyError("zero lengths are not allowed")
    m = len(lengths) - 1
    if not 1 <= m <= MAX_CARDINAL_DEGREE:
        raise CapabilityError(
            f"univariate box splines need degree in [1, {MAX_CARDINAL_DEGREE}] "
            f"(MAX_CARDINAL_DEGREE), got {m}"
        )
    weights = {0: 1}  # sparse: at most 2^k terms, whatever the lengths
    for xi in lengths:
        shifted = dict(weights)
        for j, w in weights.items():
            shifted[j + abs(xi)] = shifted.get(j + abs(xi), 0) - w
        weights = shifted
    lo = sum(min(0, xi) for xi in lengths)
    scale = math.prod(abs(xi) for xi in lengths) * math.factorial(m)
    jumps = [(lo + j, Fraction(weights[j], scale))
             for j in sorted(weights) if weights[j]]
    window = (lo, lo + sum(abs(xi) for xi in lengths))
    return spline_from_truncated_powers(Polynomial(), jumps, window, m)


def convolution_bspline_pieces(m: int) -> tuple[Polynomial, ...]:
    """Interior pieces of B_m on [k, k+1], k = 0..m, by repeated exact
    integration of the unit indicator. Independent of the truncated-power
    route; used as its cross-check. A degree outside [0, MAX_CARDINAL_DEGREE]
    is refused (check_degree with lowest = 0)."""
    check_degree(m, lowest=0)
    pieces: list[Polynomial] = [Polynomial.constant(1)]
    for deg in range(1, m + 1):
        running = Fraction(0)
        accumulated: list[Polynomial] = []
        for k, p in enumerate(pieces):
            g = p.antiderivative()
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
def _cardinal_cached(m: int) -> Spline:
    s = univariate_box_spline((1,) * (m + 1))
    if s.pieces[1:-1] != convolution_bspline_pieces(m):
        raise ConsistencyError(
            f"truncated-power and convolution constructions of B_{m} disagree"
        )
    if s.knots != tuple(Fraction(k) for k in range(m + 2)):
        raise ConsistencyError(f"B_{m} must have knots 0..{m + 1}")
    if not (s.pieces[0].is_zero and s.pieces[-1].is_zero):
        raise ConsistencyError(f"B_{m} must vanish outside [0, {m + 1}]")
    for j, piece in enumerate(s.pieces[1:-1]):
        if piece.is_zero:
            raise ConsistencyError(f"B_{m} vanishes on domain {j}")
        if count_distinct_roots(piece, j, j + 1):
            raise ConsistencyError(f"B_{m} has an interior zero in "
                                   f"({j}, {j + 1})")
        if piece.eval(Fraction(2 * j + 1, 2)) <= 0:
            raise ConsistencyError(f"B_{m} not positive on ({j}, {j + 1})")
    return s


def cardinal_bspline(m: int) -> Spline:
    """B_m for 1 <= m <= MAX_CARDINAL_DEGREE (check_degree): the Spline with
    knots 0..m+1, zero outside [0, m+1] and positive inside, certified once
    per degree (see the module docstring)."""
    check_degree(m)
    return _cardinal_cached(m)


@lru_cache(maxsize=None)
def _tail_inverse(m: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer rows W and denominator D > 0, with no common factor, such
    that W / D = V_m^-1, where V_m[k][i] = C(m, k) * i^(m-k) maps jumps
    d_0..d_m at 0, -1, ..., -m to the coefficients of sum_i d_i (t + i)^m.

    By blossoming (Ramshaw, "Blossoms are polar forms", CAGD 6, 1989), the
    blossom of (t + i)^m at -S_l, S_l = {0..m} minus {l}, is
    prod_(j in S_l) (i - j), zero unless i = l, so no linear solve runs:

        V_m^-1[l][k] = (-1)^(k+m-l) e_k(S_l) k! (m-k)! C(m, l) / (m!)^2,

    with e_k(S_l) the z^k coefficient of prod_(j in S_l) (1 + j z)."""
    f = math.factorial
    rows = []
    for l in range(m + 1):
        e = [1]
        for j in range(m + 1):
            if j != l:
                e = [a + j * b for a, b in zip(e + [0], [0] + e)]
        rows.append([(-1) ** (k + m - l) * e[k] * f(k) * f(m - k)
                     * math.comb(m, l) for k in range(m + 1)])
    g = math.gcd(f(m) ** 2, *(w for row in rows for w in row))
    return tuple(tuple(w // g for w in row) for row in rows), f(m) ** 2 // g


def extend_compact(s: Spline) -> Spline:
    """Extend s beyond its window to a compactly supported spline.

    The result coincides with s exactly on [a_0, a_n], vanishes outside
    [a_0 - m, a_n + m], stays C^(m-1) everywhere, and adds only unit-spaced
    knots. It is sum_k c_k (x - k)_+^m, and only its two tails are new:

    * d_i at a_0 - i (i = 0..m) solve sum_i d_i (t + i)^m = p_1(t + a_0),
      so the left tail rises from zero into the first interior piece p_1;
    * e_i at a_n + i solve sum_i e_i (u - i)^m = -p_n(u + a_n), so the right
      tail cancels the last interior piece p_n. Reflecting u -> -u turns this
      into the left system times (-1)^m.

    Both tail systems have the matrix V_m[k][i] = C(m, k) i^(m-k), which
    depends on m alone; its exact inverse W / D is a closed form, built once
    per degree, so no linear solve runs. A tail jump is a row of W dotted
    with the numerators of the piece shifted to the window end, over D times
    that piece's denominator. The tails are running sums, of d_m .. d_1 from
    zero and of e_0 .. e_(m-1) from p_n, zeros included, and the interior of
    s is reused; the Spline constructor certifies every join, so d_0, e_m and
    the interior jumps are never formed. The flat-knot rule of normalize keeps
    knot i exactly when pieces[i] != pieces[i + 1], which sheds zero jumps,
    a window end whose d_0 or e_0 is 0, zero end pieces of s and its knots
    that are not genuine: one Spline, no normalize (a zero s gives the zero
    spline on [a_0 - m, a_n + m]). A degree outside
    [1, MAX_CARDINAL_DEGREE] is refused (check_degree) before any work."""
    m = s.degree
    check_degree(m)
    rows, den = _tail_inverse(m)
    a0, an = s.knots[0], s.knots[-1]
    first = s.pieces[1].taylor_shift(a0)
    last = s.pieces[-2].taylor_shift(an).reflect()
    sign = (-1) ** (m + 1)
    # a Fraction plus or minus an int keeps its denominator: no gcd runs
    left = [(a0 - i, sum(map(mul, rows[i], first.num)), den * first.den)
            for i in range(m, 0, -1)]
    right = [(an + i, sign * sum(map(mul, rows[i], last.num)), den * last.den)
             for i in range(m)]
    zero = Polynomial()
    knots = [k for k, _, _ in left] + list(s.knots[:-1])
    knots += [k for k, _, _ in right] + [an + m]
    pieces = [zero, *_running_pieces(zero, left, m), *s.pieces[1:-1],
              *_running_pieces(s.pieces[-2], right, m), zero]
    keep = [i for i in range(len(knots)) if pieces[i] != pieces[i + 1]]
    if not keep:  # s is identically zero on its window
        return Spline(m, (a0 - m, an + m), (zero,) * 3)
    return Spline(m, [knots[i] for i in keep], [pieces[i] for i in keep] + [zero])
