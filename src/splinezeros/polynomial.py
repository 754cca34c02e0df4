"""Exact univariate polynomial algebra and distinct-real-root counting.

Root counting is the engine behind every zero census in this library. It
never locates a root: Sturm sequences over exact integers report how many
distinct real roots sit in an interval, with explicit endpoint control, and
that is all the spline layer needs (roots are frequently irrational).

Internals run on primitive integer coefficient sequences: content is divided
out after every pseudo-remainder step, which keeps coefficient growth tame
and is far faster than Fraction arithmetic in the inner loop.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConsistencyError, IntervalError, InfiniteRootsError
from .rational import as_rational, primitive_integers


class Polynomial:
    """Dense univariate polynomial over Fraction, coefficients ascending.

    Normalized on construction: no trailing zero coefficients, so the zero
    polynomial is the empty tuple and equality is structural. ``degree`` is
    None for the zero polynomial (a sentinel distinct from every int)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()) -> None:
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((as_rational(c),))

    @classmethod
    def x(cls) -> "Polynomial":
        return cls((0, 1))

    @classmethod
    def from_roots(cls, roots: Sequence, lead=1) -> "Polynomial":
        p = cls.constant(lead)
        for r in roots:
            p = p * cls((-as_rational(r), 1))
        return p

    # -- basic protocol --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Polynomial", self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    __rmul__ = __mul__

    def scale(self, c) -> "Polynomial":
        c = as_rational(c)
        if c == 0:
            return Polynomial()
        return Polynomial(tuple(c * v for v in self.coeffs))

    def eval(self, x) -> Fraction:
        """Exact Horner evaluation."""
        x = as_rational(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def antiderivative(self, constant=0) -> "Polynomial":
        """The q with q' = self and q(0) = constant."""
        out = [as_rational(constant)]
        out.extend(c / (i + 1) for i, c in enumerate(self.coeffs))
        return Polynomial(out)

    def taylor_shift(self, h) -> "Polynomial":
        """p(x + h), computed by Horner in the shifted variable."""
        h = as_rational(h)
        shifted = Polynomial()
        xh = Polynomial((h, 1))
        for c in reversed(self.coeffs):
            shifted = shifted * xh + Polynomial.constant(c)
        return shifted

    def reflect(self) -> "Polynomial":
        """p(-x)."""
        return Polynomial(tuple(c if i % 2 == 0 else -c
                                for i, c in enumerate(self.coeffs)))


# -- integer kernel for gcd / Sturm ---------------------------------------------


def _trim_int(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive_int(p: Polynomial) -> list[int]:
    """Primitive integer copy of p (sign preserved, positive content 1)."""
    return primitive_integers(p.coeffs)[1]


def _content_normalize(c: list[int]) -> list[int]:
    """Divide by the (positive) content; sign pattern is preserved."""
    g = 0
    for v in c:
        g = math.gcd(g, v)
    return [v // g for v in c] if g > 1 else c


def _prem_positive(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder r with r = k * (a mod b) for some k > 0.

    The classic pseudo-remainder multiplies by lc(b) once per eliminated
    degree; an odd number of negative multipliers flips the sign, which
    would corrupt a Sturm chain, so the flip is undone before returning."""
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    flips = 0
    while len(r) - 1 >= db:
        dr = len(r) - 1
        lead = r[-1]
        shift = dr - db
        new = [c * lb for c in r[:-1]]
        for i in range(db):
            new[shift + i] -= lead * b[i]
        if lb < 0:
            flips ^= 1
        r = _trim_int(new)
        if not r:
            return r
    return [-v for v in r] if flips else r


def _gcd_int(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient (Euclidean chain with
    content normalization at every step)."""
    a, b = a[:], b[:]
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _content_normalize(_prem_positive(a, b))
        a, b = b, r
    if not a:
        return []
    a = _content_normalize(a)
    return [-v for v in a] if a[-1] < 0 else a


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


def _squarefree_int(c: list[int]) -> list[int]:
    """c / gcd(c, c'): same distinct roots, all simple."""
    if len(c) <= 2:
        return c
    g = _gcd_int(c, _derivative_int(c))
    if len(g) == 1:
        return c
    q = _div_exact_int(c, g)
    if q is None:
        raise ConsistencyError("gcd does not divide its polynomial")
    return _content_normalize(q)


def root_order(p: Polynomial, x, cap: int) -> int:
    """Multiplicity of the rational x as a root of p, capped at cap; the zero
    polynomial gets cap. With x = a/b in lowest terms, the primitive integer
    copy of p is divided by b*t - a until a division is not exact."""
    if p.is_zero:
        return cap
    x = as_rational(x)
    c = _primitive_int(p)
    linear = [-x.numerator, x.denominator]
    order = 0
    while order < cap and (c := _div_exact_int(c, linear)) is not None:
        order += 1
    return order


def _sturm_chain(c: list[int]) -> list[list[int]]:
    chain = [c]
    d = _trim_int(_derivative_int(c))
    if d:
        chain.append(d)
        while True:
            r = _prem_positive(chain[-2], chain[-1])
            if not r:
                break
            chain.append([-v for v in _content_normalize(r)])
    return chain


def _sign_at(c: list[int], num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0), by homogeneous
    integer evaluation: sum c_i * num^i * den^(d-i)."""
    acc = 0
    d = len(c) - 1
    np = 1
    dp = den ** d if d >= 0 else 1
    for i, v in enumerate(c):
        acc += v * np * dp
        np *= num
        if i < d:
            dp //= den
    return (acc > 0) - (acc < 0)


def _sign_variations(chain: list[list[int]], x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    signs = [s for c in chain if (s := _sign_at(c, num, den)) != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_distinct_roots(p: Polynomial, a, b,
                         open_left: bool = False,
                         open_right: bool = False) -> int:
    """Exact number of distinct real roots of p in the interval from a to b.

    The default interval is closed; the flags drop either endpoint. Built on
    the Sturm sequence of the square-free part p/gcd(p, p'): the zero-skip
    sign-variation difference V(a) - V(b) counts distinct roots in the
    half-open (a, b], and explicit evaluations of p at a and b adjust for the
    requested endpoint inclusion.

    Raises InfiniteRootsError for the zero polynomial (callers must branch on
    identically-zero pieces first) and IntervalError when a >= b.
    """
    if p.is_zero:
        raise InfiniteRootsError("root count of the zero polynomial")
    a = as_rational(a)
    b = as_rational(b)
    if a >= b:
        raise IntervalError(f"need a < b, got {a} >= {b}")
    c = _squarefree_int(_primitive_int(p))
    if len(c) == 1:
        return 0
    chain = _sturm_chain(c)
    count = _sign_variations(chain, a) - _sign_variations(chain, b)
    if not open_left and _sign_at(c, a.numerator, a.denominator) == 0:
        count += 1
    if open_right and _sign_at(c, b.numerator, b.denominator) == 0:
        count -= 1
    return count


def squarefree_part(p: Polynomial) -> Polynomial:
    """p / gcd(p, p'), primitive with integer coefficients."""
    if p.is_zero:
        return Polynomial()
    return Polynomial(_squarefree_int(_primitive_int(p)))


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Primitive gcd (positive leading coefficient); gcd(p, 0) = p made
    primitive."""
    if p.is_zero and q.is_zero:
        return Polynomial()
    if p.is_zero:
        return Polynomial(_normalize_sign(_primitive_int(q)))
    if q.is_zero:
        return Polynomial(_normalize_sign(_primitive_int(p)))
    return Polynomial(_gcd_int(_primitive_int(p), _primitive_int(q)))


def _normalize_sign(c: list[int]) -> list[int]:
    return [-v for v in c] if c and c[-1] < 0 else c
