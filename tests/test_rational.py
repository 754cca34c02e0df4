import math
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from splinezeros import (
    Polynomial,
    Spline,
    VectorConfig,
    box_spline_eval,
    cardinal_bspline,
    piecewise_linear,
    spline_eval,
    spline_from_truncated_powers,
)
from splinezeros.errors import FormatError
from splinezeros.linalg import RationalMatrix, mat_solve
from splinezeros.rational import (
    as_rational,
    as_rationals,
    format_ratio,
    format_rational,
    parse_rational,
    primitive_integers,
)


def test_parse_basic_forms():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("7") == F(7)
    assert parse_rational("0") == F(0)


def test_parse_tolerates_whitespace():
    assert parse_rational("  1/2 ") == F(1, 2)
    assert parse_rational("1 / 2") == F(1, 2)
    assert parse_rational(" -5 ") == F(-5)


def test_parse_rejects_zero_denominator():
    with pytest.raises(FormatError):
        parse_rational("1/0")


def test_parse_rejects_garbage():
    for bad in ("", "one half", "1/2/3", "1.5.2", None, 3.5,
                # Fraction's own grammar: outside the "p/q" or "p" contract
                "1.5", "15e-1", "1_000", "1e1000000", "1/-2", "- 1", "1/",
                "inf", "nan", "\u0663",
                # beyond the int digit limit
                "1" * 5000, "1/" + "7" * 5000):
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_format_canonical():
    assert format_rational(F(1, 2)) == "1/2"
    assert format_rational(F(-2, 4)) == "-1/2"
    assert format_rational(F(6, 2)) == "3"
    assert format_rational(F(0, 5)) == "0"


def test_as_rational_coercions():
    assert as_rational(3) == F(3)
    assert as_rational("2/8") == F(1, 4)
    assert as_rational(F(5, 7)) == F(5, 7)


def test_as_rational_refuses_bool():
    """A bool is not read as 0 or 1, here or through public entries that
    coerce with as_rational."""
    for flag in (True, False):
        with pytest.raises(FormatError):
            as_rational(flag)
        with pytest.raises(FormatError):
            Polynomial([flag, 1])
        with pytest.raises(FormatError):
            spline_eval(cardinal_bspline(2), flag)
        with pytest.raises(FormatError):
            box_spline_eval(VectorConfig(1, ((1,), (1,))), (flag,))


# every public argument that is a sequence of rationals, or of such
# sequences (jumps, matrix rows), given a value in its place
SEQUENCE_ENTRY_POINTS = {
    "Polynomial": lambda v: Polynomial(v),
    "Spline knots": lambda v: Spline(1, v, (Polynomial(),) * 3),
    "piecewise_linear knots": lambda v: piecewise_linear(v, (0, 1)),
    "piecewise_linear values": lambda v: piecewise_linear((0, 1), v),
    "truncated-power jumps": lambda v: spline_from_truncated_powers(
        Polynomial([1]), v, (0, 4), 2),
    "truncated-power jump": lambda v: spline_from_truncated_powers(
        Polynomial([1]), [v], (0, 4), 2),
    "truncated-power window": lambda v: spline_from_truncated_powers(
        Polynomial([1]), [], v, 2),
    "matrix rows": lambda v: RationalMatrix.from_rows(v),
    "matrix row": lambda v: RationalMatrix.from_rows([v]),
    "mat_solve rhs": lambda v: mat_solve(RationalMatrix.from_rows([[1, 0], [0, 1]]), v),
}


@pytest.mark.parametrize("value", ["12", b"12", 12, None], ids=repr)
@pytest.mark.parametrize("entry", sorted(SEQUENCE_ENTRY_POINTS))
def test_sequence_arguments_refuse_text_bytes_and_scalars(entry, value):
    """A str or bytes would be read character by character (Polynomial("12")
    as 1 + 2x, b"12" as 49 + 50x), and an int or None is no sequence."""
    with pytest.raises(FormatError):
        SEQUENCE_ENTRY_POINTS[entry](value)


def test_as_rationals_checks_the_length():
    assert as_rationals(("1/2", 3), 2) == (F(1, 2), F(3))
    with pytest.raises(FormatError):
        spline_from_truncated_powers(Polynomial([1]), [(1, 2, 3)], (0, 4), 2)
    with pytest.raises(FormatError):
        spline_from_truncated_powers(Polynomial([1]), [], (0, 2, 4), 2)


@given(st.integers(min_value=-10**12, max_value=10**12),
       st.integers(min_value=1, max_value=10**9))
def test_canonical_invariants_and_roundtrip(num, den):
    q = F(num, den)
    assert q.denominator > 0
    assert math.gcd(abs(q.numerator), q.denominator) == 1
    if q == 0:
        assert (q.numerator, q.denominator) == (0, 1)
    assert parse_rational(format_rational(q)) == q
    # the one-gcd formatter on unreduced terms writes what Fraction writes
    assert format_ratio(num, den) == format_rational(q) == str(q)


def test_primitive_integers_examples():
    assert primitive_integers([F(1, 2), F(-3, 4), F(0)]) == (F(1, 4), [2, -3, 0])
    assert primitive_integers([F(6), F(-9)]) == (F(3), [2, -3])
    assert primitive_integers([F(0), F(0)]) == (F(1), [0, 0])
    assert primitive_integers([]) == (F(1), [])


@given(st.lists(st.fractions(max_denominator=50), max_size=6))
def test_primitive_integers_splits_exactly(values):
    content, ints = primitive_integers(values)
    assert content > 0
    assert [content * v for v in ints] == values
    assert math.gcd(*ints) in (0, 1)
