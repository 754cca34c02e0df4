"""Exact rational scalars.

The scalar type of the whole library is ``fractions.Fraction``: it is
arbitrary precision, always stored in canonical form (positive denominator,
reduced, zero as 0/1), and its equality is structural. The helpers here pin
down the textual contract: "p/q" with the sign on p, or just "p" when q = 1.

``primitive_integers`` is the one place where a row of rationals is scaled to
integers: Bareiss elimination, the extension's tail inverse, the box-spline
kernel basis and ``Polynomial`` construction use it. The spline generator's
``harness._random_integers`` scales its raw ints itself, so ``random_spline``
builds a ``Fraction`` only per accepted knot and per jump coefficient.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Sequence

from .errors import FormatError

RationalLike = Fraction | int | str

_RATIONAL_TEXT = re.compile(r"\s*([+-]?[0-9]+)\s*(?:/\s*([0-9]+)\s*)?")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" (ASCII digits, a sign only on p). Surrounding
    whitespace (also around '/') is tolerated; anything else, a zero
    denominator and literals past Python's int digit limit are rejected."""
    if not isinstance(text, str):
        raise FormatError(f"expected a rational string, got {type(text).__name__}")
    match = _RATIONAL_TEXT.fullmatch(text)
    if match is None:
        raise FormatError(f"malformed rational {text!r}")
    num, den = match.groups()
    try:
        return Fraction(int(num), int(den or 1))
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in rational {text!r}") from None
    except ValueError:  # a literal over sys.get_int_max_str_digits()
        raise FormatError(f"rational literal too long in {text!r}") from None


def format_ratio(num: int, den: int) -> str:
    """Canonical "p/q" (or "p") text of num/den, ints with den > 0: one gcd."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def format_rational(value: Fraction) -> str:
    """Canonical text of a rational value: format_ratio of its terms."""
    return format_ratio(*Fraction(value).as_integer_ratio())


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to a Fraction. A bool is
    refused with FormatError, not read as 0 or 1."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise FormatError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    return parse_rational(value)


def primitive_integers(values: Sequence[Fraction]) -> tuple[Fraction, list[int]]:
    """Split a row of rationals as content * ints, where the content is a
    positive Fraction and the ints are coprime integers with the signs of the
    values. An all-zero (or empty) row has content 1 and stays all zeros."""
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    content = math.gcd(*ints) or 1
    return Fraction(content, scale), [v // content for v in ints]
