"""Exact univariate polynomial algebra and distinct-real-root counting.

Root counting is the engine behind every zero census in this library. It
never locates a root: it reports how many distinct real roots sit in an
interval, with explicit endpoint control, over exact integers, and that is
all the spline layer needs (roots are frequently irrational).

root_census returns the open-interval count together with the endpoint zero
flags p(a) == 0 and p(b) == 0. It is the coercing public edge of one integer
kernel, _census_int(num, a1, a2, b1, b2), which takes the numerators and the
interval ends as (numerator, denominator) pairs; the spline census calls the
kernel directly with the knot pairs it already holds. A line c0 + c1 x is
monotone, so its two scaled end values c0 a2 + c1 a1 and c0 b2 + c1 b1
decide it with no shift: one root inside exactly when their signs are
strictly opposite, and a zero value is that end's flag. Any other
polynomial is decided in up to three stages, each on ints, each run only
when the one before cannot decide. First one Taylor shift to a and
Descartes' rule of signs on the half-line (a, inf): no sign variation
means no root in (a, b), and one means one simple root past a, which one
Horner value at b places. Then, from that same shifted list, the integer
Moebius image of (a, b) on (0, inf) (a scaling, a reversal and a Taylor
shift by 1) and the rule again: zero or one variation is the exact count.
Only then a Sturm sequence, one remainder sequence per polynomial: the
pseudo-remainder sequence of (p, p') ends in g = gcd(p, p'), and dividing
every entry by g gives a Sturm sequence of the square-free part p/g, so no
separate gcd is computed. That sequence is evaluated once at each endpoint, and one
sign-variation count (_variations) reads the half-line shift, the Moebius
image and the Sturm values.

A Polynomial is integer numerators over one positive denominator, so its
algebra runs on ints. The half-line shift and the Moebius image are built
from the numerators as stored (a positive content changes no sign); only
the Sturm path takes a primitive copy by one content division, and its
kernel divides content out of p' and after every pseudo-remainder step,
keeping coefficients tame; each pseudo-remainder step multiplies by |lc|
and so keeps its sign. One homogeneous Taylor shift (_homogeneous_shift)
serves the census's half-line stage, taylor_shift, and root_order, which
reads a root's multiplicity from the leading zeros of the shifted
numerators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError, IntervalError, InfiniteRootsError
from .rational import as_rational, as_rationals, primitive_integers


class Polynomial:
    """Dense univariate polynomial with rational coefficients, stored as
    integer numerators ``num`` (ascending, no trailing zeros) over one
    positive denominator ``den``, in lowest terms: gcd(den, *num) == 1, and
    the zero polynomial is ((), 1). The form is canonical, so equality and
    hashing are structural; the algebra runs on ints, and ``coeffs`` gives
    the Fraction coefficients at the API edge. ``degree`` is None for the
    zero polynomial (a sentinel distinct from every int)."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable = ()) -> None:
        content, ints = primitive_integers(as_rationals(coeffs))
        self._store([content.numerator * v for v in ints], content.denominator)

    def _store(self, num: list[int], den: int) -> None:
        while num and num[-1] == 0:
            num.pop()
        g = math.gcd(den, *num)  # den itself when num is empty
        if g != 1:
            num = [v // g for v in num]
            den //= g
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((as_rational(c),))

    @classmethod
    def from_integers(cls, num: Iterable[int], den: int = 1) -> "Polynomial":
        """sum_i num[i] x^i / den for a positive int den, reduced."""
        p = cls.__new__(cls)
        p._store(list(num), den)
        return p

    # -- basic protocol --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int | None:
        return len(self.num) - 1 if self.num else None

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Polynomial) and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        return hash(("Polynomial", self.num, self.den))

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        return Polynomial.from_integers, (self.num, self.den)

    # -- algebra ---------------------------------------------------------------

    def _plus(self, other: "Polynomial", sign: int) -> "Polynomial":
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        a = [v * fa for v in self.num]
        b = [v * fb for v in other.num]
        if len(a) < len(b):
            a, b = b, a
        for i, v in enumerate(b):
            a[i] += v
        return Polynomial.from_integers(a, den)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._plus(other, -1)

    def __neg__(self) -> "Polynomial":
        return Polynomial.from_integers([-v for v in self.num], self.den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial.from_integers(out, self.den * other.den)

    def eval(self, x) -> Fraction:
        """Exact value at x = a/b: the census kernel's homogeneous integer
        Horner (_horner), then one Fraction over den times its b^d."""
        x = as_rational(x)
        if not self.num:
            return Fraction(0)
        h, power = _horner(self.num, x.numerator, x.denominator)
        return Fraction(h, self.den * power)

    def derivative(self) -> "Polynomial":
        return Polynomial.from_integers(_derivative_int(self.num), self.den)

    def antiderivative(self) -> "Polynomial":
        """The q with q' = self and q(0) = 0."""
        return Polynomial([0, *(c / (i + 1) for i, c in enumerate(self.coeffs))])

    def taylor_shift(self, h) -> "Polynomial":
        """p(x + h) with h = s/q: _homogeneous_shift by s over q gives
        den q^d p((y + s)/q), and coefficient i times q^i (a running
        product) puts y = q x."""
        h = as_rational(h)
        q = h.denominator
        c, power = _homogeneous_shift(self.num, h.numerator, q), 1
        for i in range(1, len(c)):
            power *= q
            c[i] *= power
        return Polynomial.from_integers(c, self.den * q ** max(len(c) - 1, 0))

    def reflect(self) -> "Polynomial":
        """p(-x)."""
        return Polynomial.from_integers(
            [-v if i % 2 else v for i, v in enumerate(self.num)], self.den)


# -- integer kernel for the census ---------------------------------------------


def _shift_int(c: list[int], s: int) -> list[int]:
    """c(y + s), the classic integer Taylor shift (Horner's scheme, repeated),
    computed in place and returned."""
    d = len(c) - 1
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += s * c[j + 1]
    return c


def _trim_int(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _content_normalize(c: list[int]) -> list[int]:
    """Divide by the (positive) content; sign pattern is preserved."""
    g = math.gcd(*c)
    return [v // g for v in c] if g > 1 else c


def _prem_positive(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder r with r = k * (a mod b) for some k > 0.

    Each step multiplies by |lc(b)| and eliminates with the copy of b whose
    leading coefficient is positive, so no step flips the sign, which would
    corrupt a Sturm chain."""
    if b[-1] < 0:
        b = [-v for v in b]
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    while len(r) - 1 >= db:
        lead = r[-1]
        shift = len(r) - 1 - db
        new = [c * lb for c in r[:-1]]
        for i in range(db):
            new[shift + i] -= lead * b[i]
        r = _trim_int(new)
    return r


def _div_exact_int(num: list[int], den: list[int]) -> list[int] | None:
    """Quotient of integer polynomials, or None when den does not divide num
    over Z. For a primitive den that is the same as over Q (Gauss's lemma)."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    r = num[:]
    dd = len(den) - 1
    ld = den[-1]
    q = [0] * (len(num) - dd)
    while len(r) - 1 >= dd and r:
        dr = len(r) - 1
        lead = r[-1]
        if lead % ld:
            return None
        c = lead // ld
        q[dr - dd] = c
        for i in range(dd + 1):
            r[dr - dd + i] -= c * den[i]
        r = _trim_int(r)
    return None if r else q


def _derivative_int(c: list[int]) -> list[int]:
    return [i * v for i, v in enumerate(c) if i]


def _homogeneous_shift(num: Sequence[int], s: int, b: int) -> list[int]:
    """The coefficients of sum num_i b^(d-i) (y + s)^i, d = len(num) - 1,
    which is b^d times the polynomial at (y + s)/b: a Taylor shift by s of
    the numerators scaled by running powers of b."""
    d = len(num) - 1
    c, power = [0] * (d + 1), 1
    for i in range(d, -1, -1):
        c[i] = num[i] * power
        power *= b
    return _shift_int(c, s)


def _moebius_image(h: list[int], w: int, b2: int) -> list[int]:
    """The Moebius image q(t) = D^d (1 + t)^d c((b + a t)/(1 + t)) of
    _census_int, from its half-line shift h = a2^d c(a + y/a2) and
    w = b1 a2 - a1 b2: coefficient i times w^i b2^(d-i) gives
    D^d c(a + (b - a) x), and reversing and shifting by 1 gives q. Built in
    h, which is returned."""
    d = len(h) - 1
    power = 1
    for i in range(d, -1, -1):
        h[i] *= power
        power *= b2
    power = 1
    for i in range(1, d + 1):
        power *= w
        h[i] *= power
    h.reverse()
    return _shift_int(h, 1)


def root_order(p: Polynomial, x, cap: int) -> int:
    """Multiplicity of the rational x as a root of p, capped at cap; the zero
    polynomial gets cap. With x = a/b in lowest terms, the coefficient of y^k
    in _homogeneous_shift(p.num, a, b) is b^(d-k) den p^(k)(x) / k!, so the
    order is its count of leading zero coefficients."""
    if p.is_zero:
        return cap
    x = as_rational(x)
    c = _homogeneous_shift(p.num, x.numerator, x.denominator)
    order = 0
    while order < cap and not c[order]:
        order += 1
    return order


def _horner(c: Sequence[int], num: int, den: int) -> tuple[int, int]:
    """Homogeneous integer Horner: (sum c_i num^i den^(d-i), den^d) with
    d = max(len(c) - 1, 0). The first is den^d times the value of
    sum c_i x^i at num/den, so the two make that value with no division."""
    top = reversed(c)
    acc, den_power = next(top, 0), 1
    for v in top:
        den_power *= den
        acc = acc * num + v * den_power
    return acc, den_power


def _sturm_chain(c: list[int]) -> list[list[int]]:
    """Sturm sequence of the square-free part of c, from one remainder
    sequence: the pseudo-remainder sequence of (c, c') with content divided
    out of every entry after c, so its last entry, as stored, is
    g = gcd(c, c') up to a positive factor. When deg g > 0 every entry is
    divided exactly by g, which gives a Sturm sequence of c/g (Basu, Pollack
    & Roy, Algorithms in Real Algebraic Geometry, ch. 2)."""
    chain = [c]
    d = _trim_int(_derivative_int(c))
    if not d:
        return chain
    chain.append(_content_normalize(d))
    while r := _prem_positive(chain[-2], chain[-1]):
        chain.append([-v for v in _content_normalize(r)])
    g = chain[-1]
    if len(g) == 1:
        return chain
    quotients = [_div_exact_int(entry, g) for entry in chain]
    if None in quotients:
        raise ConsistencyError("gcd does not divide its Sturm sequence")
    return quotients


def _variations(values: list[int]) -> int:
    """Sign changes along values, zeros skipped."""
    count, negative = 0, None
    for v in values:
        if v:
            if negative is not None and (v < 0) != negative:
                count += 1
            negative = v < 0
    return count


def root_census(p: Polynomial, a, b) -> tuple[int, bool, bool]:
    """(distinct real roots of p in the open interval (a, b), p(a) == 0,
    p(b) == 0): the public edge of _census_int, which coerces a and b and
    refuses the zero polynomial (InfiniteRootsError: callers must branch on
    identically-zero pieces first) and a >= b (IntervalError)."""
    if p.is_zero:
        raise InfiniteRootsError("root count of the zero polynomial")
    a = as_rational(a)
    b = as_rational(b)
    a1, a2 = a.numerator, a.denominator
    b1, b2 = b.numerator, b.denominator
    if b1 * a2 <= a1 * b2:
        raise IntervalError(f"need a < b, got {a} >= {b}")
    return _census_int(p.num, a1, a2, b1, b2)


def _census_int(num: Sequence[int], a1: int, a2: int, b1: int,
                b2: int) -> tuple[int, bool, bool]:
    """root_census of the nonzero integer numerators num on (a1/a2, b1/b2),
    with a2, b2 > 0 and a1/a2 < b1/b2 (not checked here). num, of degree d,
    is read as a polynomial c. A line is decided by its end values; any
    other c goes through the three stages in turn, each only when the one
    before cannot decide.

    Line. For d = 1, c0 a2 + c1 a1 = a2 c(a) and c0 b2 + c1 b1 = b2 c(b)
    carry the signs of c(a) and c(b) (a2, b2 > 0). A nonconstant line is
    monotone, so it has a root in (a, b) exactly when the two have strictly
    opposite signs, and c(a) == 0 or c(b) == 0 is read off directly. No
    Taylor shift is built.

    Half-line. h = _homogeneous_shift(num, a1, a2) holds the coefficients
    of a2^d c(a + y/a2), whose positive roots are the roots of c past
    a = a1/a2, and h[0] == 0 is c(a) == 0. By Descartes' rule of signs the
    sign variations V of h bound those roots, counted with multiplicity,
    with an even excess (Collins & Akritas 1976; Basu, Pollack & Roy,
    Algorithms in Real Algebraic Geometry, ch. 10). V = 0: no root in
    (a, b), and c(b) != 0. V = 1: exactly one root past a, a simple one, so
    c changes sign there and nowhere else past a; with c(b) from one
    _horner at b, it lies at b when c(b) == 0, and inside (a, b) exactly
    when c(b) and the lowest nonzero entry of h (the sign of c just right
    of a) have opposite signs.

    Moebius image. For V >= 2, _moebius_image turns h, with b = b1/b2 and
    W = b1 a2 - a1 b2 (> 0), into q(t) = D^d (1 + t)^d c((b + a t)/(1 + t)),
    D = a2 b2, whose positive roots are the roots of c in (a, b); q[0] == 0
    is c(b) == 0. Its sign variations bound those roots in the same way:
    zero means no root and one exactly one, a simple one.

    Sturm. Only when q also has two or more variations (two roots, a
    multiple root, or complex roots the rule cannot exclude) does the
    Sturm sequence of the square-free part c/gcd(c, c') (see _sturm_chain)
    run, evaluated once at each endpoint: the sign-variation difference
    V(a) - V(b), counted by the same _variations, gives the distinct roots
    in the half-open (a, b], and c(b) == 0 is subtracted to open the right
    end."""
    if len(num) == 2:
        c0, c1 = num
        at_a, at_b = c0 * a2 + c1 * a1, c0 * b2 + c1 * b1
        return int((at_a < 0 < at_b) or (at_b < 0 < at_a)), not at_a, not at_b
    h = _homogeneous_shift(num, a1, a2)
    zero_at_a = h[0] == 0
    count = _variations(h)
    if count == 0:
        return 0, zero_at_a, False
    if count == 1:
        at_b = _horner(num, b1, b2)[0]
        lowest = h[0] or next(v for v in h if v)
        inside = at_b != 0 and (at_b < 0) != (lowest < 0)
        return int(inside), zero_at_a, at_b == 0
    q = _moebius_image(h, b1 * a2 - a1 * b2, b2)
    zero_at_b = q[0] == 0
    count = _variations(q)
    if count >= 2:
        chain = _sturm_chain(_content_normalize(list(num)))
        at_a = [_horner(e, a1, a2)[0] for e in chain]
        at_b = [_horner(e, b1, b2)[0] for e in chain]
        count = _variations(at_a) - _variations(at_b) - zero_at_b
    return count, zero_at_a, zero_at_b


def count_distinct_roots(p: Polynomial, a, b) -> int:
    """Exact number of distinct real roots of p in the open interval (a, b):
    root_census without its endpoint flags, with the same errors."""
    return root_census(p, a, b)[0]
