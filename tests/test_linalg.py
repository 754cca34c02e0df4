import itertools
import math
import random
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from splinezeros.linalg import (
    RationalMatrix,
    lattice_basis,
    mat_determinant,
    mat_solve,
)
from splinezeros import boxspline
from splinezeros.boxspline import VectorConfig
from splinezeros.errors import (
    DimensionError,
    FormatError,
    RankDeficiencyError,
    SingularMatrixError,
)


def cofactor_det(rows):
    """Independent oracle: textbook cofactor expansion."""
    n = len(rows)
    if n == 0:
        return F(0) + 1
    if n == 1:
        return rows[0][0]
    acc = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        acc += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return acc


def identity(n):
    return RationalMatrix.from_rows([[int(i == j) for j in range(n)]
                                     for i in range(n)])


def sympy_matrix(rows):
    return sympy.Matrix(len(rows), len(rows[0]) if rows else 0,
                        [sympy.Rational(v.numerator, v.denominator)
                         for row in rows for v in row])


def basis_matrix(basis):
    """The basis columns as a sympy matrix."""
    return sympy.Matrix(basis).T


def lattice_determinant(basis):
    """Oracle (sympy): |det| of the basis, the lattice covolume."""
    return abs(basis_matrix(basis).det())


def in_lattice(basis, point):
    """Oracle (sympy): basis * k = point has an integer solution k."""
    k = basis_matrix(basis).solve(sympy_matrix([[p] for p in point]))
    return all(c.is_integer for c in k)


def test_det_identity():
    assert mat_determinant(identity(3)) == 1


def test_det_2x2():
    assert mat_determinant(RationalMatrix.from_rows([[2, 1], [1, 2]])) == 3


def test_det_hilbert_3x3():
    rows = [[F(1, i + j - 1) for j in range(1, 4)] for i in range(1, 4)]
    expected = cofactor_det(rows)
    assert expected == F(1, 2160)
    assert mat_determinant(RationalMatrix.from_rows(rows)) == F(1, 2160)


def test_det_empty_and_singular():
    assert mat_determinant(RationalMatrix(0, 0, ())) == 1
    assert mat_determinant(RationalMatrix.from_rows([[1, 2], [2, 4]])) == 0


def test_matrix_shape_refusals():
    with pytest.raises(DimensionError):
        RationalMatrix(2, 2, (F(1), F(2), F(3)))
    with pytest.raises(DimensionError, match="ragged"):
        RationalMatrix.from_rows([[1, 2], [3]])


def test_det_non_square_rejected():
    with pytest.raises(DimensionError):
        mat_determinant(RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def test_det_agrees_with_cofactor_oracle():
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        assert mat_determinant(RationalMatrix.from_rows(rows)) == cofactor_det(rows)


def test_det_multiplicative_on_random_pairs():
    rng = random.Random(202)
    for _ in range(25):
        a = [[F(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        b = [[F(rng.randint(-5, 5)) for _ in range(4)] for _ in range(4)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(4)) for j in range(4)]
              for i in range(4)]
        assert mat_determinant(RationalMatrix.from_rows(ab)) == \
            mat_determinant(RationalMatrix.from_rows(a)) * \
            mat_determinant(RationalMatrix.from_rows(b))


@st.composite
def rational_square_rows(draw):
    """Square rational matrices of order 0..5 whose rows may be all zero or
    carry a common factor (content) other than 1."""
    n = draw(st.integers(min_value=0, max_value=5))
    entries = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    factors = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    rows = []
    for _ in range(n):
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            rows.append([F(0)] * n)
        else:
            factor = draw(factors.filter(bool))
            rows.append([factor * draw(entries) for _ in range(n)])
    return rows


@given(rational_square_rows())
@settings(max_examples=200, deadline=None)
def test_det_agrees_with_sympy_oracle(rows):
    expected = sympy_matrix(rows).det(method="berkowitz")
    assert mat_determinant(RationalMatrix.from_rows(rows)) == \
        F(int(expected.p), int(expected.q))


def test_solve_identity():
    x = mat_solve(identity(2), [F(1, 2), 3])
    assert x == (F(1, 2), F(3))


def test_solve_diagonal():
    a = RationalMatrix.from_rows([[2, 0], [0, 4]])
    assert mat_solve(a, [1, 1]) == (F(1, 2), F(1, 4))


def test_solve_2x2_hand_checked():
    # substituting (1, 2) back: 1 + 2 = 3 and 1 + 4 = 5
    a = RationalMatrix.from_rows([[1, 1], [1, 2]])
    assert mat_solve(a, [3, 5]) == (F(1), F(2))


def test_solve_exactness_property():
    rng = random.Random(303)
    for _ in range(40):
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)]
        a = RationalMatrix.from_rows(rows)
        if mat_determinant(a) == 0:
            continue
        b = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
        x = mat_solve(a, b)
        for i in range(n):
            assert sum(rows[i][j] * x[j] for j in range(n)) == b[i]


def sympy_solution(rows, b):
    """Oracle (sympy): the solution of rows * x = b as Fractions."""
    x = sympy_matrix(rows).LUsolve(sympy_matrix([[v] for v in b]))
    return tuple(F(int(v.p), int(v.q)) for v in x)


def test_solve_agrees_with_sympy_oracle():
    """Random systems of order 1..8, integer or rational entries up to
    +-10^6, with sympy's LUsolve as the oracle; singular draws must raise."""
    rng = random.Random(1313)
    solved = 0
    for trial in range(120):
        n = 1 + trial % 8
        den = 1 if trial % 2 else 7

        def draw():
            return F(rng.randint(-10**6, 10**6), rng.randint(1, den))

        rows = [[draw() for _ in range(n)] for _ in range(n)]
        if trial % 3 == 0 and n >= 3:
            # a singular leading (n-1)x(n-1) block: the pivot at column
            # n - 2 is 0 until the last two rows swap
            rows[n - 2][:n - 1] = rows[0][:n - 1]
        elif trial % 3 == 1:
            for row in rows[:-1]:  # the first pivot sits in the last row
                row[0] = F(0)
        b = [draw() for _ in range(n)]
        if sympy_matrix(rows).det() == 0:
            with pytest.raises(SingularMatrixError):
                mat_solve(RationalMatrix.from_rows(rows), b)
            continue
        assert mat_solve(RationalMatrix.from_rows(rows), b) == \
            sympy_solution(rows, b)
        solved += 1
    assert solved > 100


def test_solve_swaps_rows_at_the_last_pivot():
    """The second pivot is 0 until the last two rows swap, the last
    elimination step that has a row below it."""
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(7)], [F(3), F(5), F(0)]]
    b = [F(1), F(-2), F(5, 3)]
    x = mat_solve(RationalMatrix.from_rows(rows), b)
    assert x == sympy_solution(rows, b)
    assert mat_determinant(RationalMatrix.from_rows(rows)) == \
        cofactor_det(rows)


def test_solve_empty_system():
    assert mat_solve(RationalMatrix(0, 0, ()), []) == ()


def test_solve_singular_and_dimension_errors_distinct():
    with pytest.raises(SingularMatrixError):
        mat_solve(RationalMatrix.from_rows([[1, 2], [2, 4]]), [1, 1])
    with pytest.raises(DimensionError):
        mat_solve(RationalMatrix.from_rows([[1, 2, 3], [4, 5, 6]]), [1, 1])
    with pytest.raises(DimensionError):
        mat_solve(identity(2), [1, 2, 3])


def test_lattice_basis_a2_is_unit_lattice():
    basis = lattice_basis([(1, 0), (1, 1), (0, 1)])
    assert lattice_determinant(basis) == 1
    # membership oracle: both unit vectors are integer combinations
    assert in_lattice(basis, (F(1), F(0)))
    assert in_lattice(basis, (F(0), F(1)))


def test_lattice_basis_even_lattice():
    basis = lattice_basis([(2, 0), (0, 2)])
    assert lattice_determinant(basis) == 4
    assert in_lattice(basis, (F(2), F(0)))
    assert not in_lattice(basis, (F(1), F(0)))


def test_lattice_basis_univariate():
    basis = lattice_basis([(1,), (1,)])
    assert basis == ((1,),)
    assert lattice_determinant(basis) == 1
    even = lattice_basis([(4,), (6,)])
    assert even == ((2,),)
    assert in_lattice(even, (F(6),))
    assert not in_lattice(even, (F(3),))


def test_lattice_basis_rank_deficiency():
    """The span refusal is lattice_basis's own; VectorConfig checks every
    other input rule before it calls here (test_boxspline)."""
    with pytest.raises(RankDeficiencyError):
        lattice_basis([(1, 2), (2, 4)])
    with pytest.raises(RankDeficiencyError):
        lattice_basis([(0,), (0,)])


def test_lattice_basis_refuses_non_int_components(monkeypatch):
    """lattice_basis trusts its input to be int; VectorConfig, its only
    caller, refuses float, bool and Fraction components with FormatError
    before any lattice is computed."""
    def never(vectors):
        raise AssertionError(f"lattice_basis reached with {vectors!r}")

    monkeypatch.setattr(boxspline, "lattice_basis", never)
    for vecs in ([(1.5, 0), (0, 2.9)], [(True, 0), (0, 1)], [(F(2), 0), (0, 1)],
                 [(4.0,), (6,)], [(False,)]):
        with pytest.raises(FormatError):
            VectorConfig(len(vecs[0]), vecs)


def test_lattice_basis_spans_same_lattice():
    """Every input lies in the basis lattice, and the basis covolume equals
    the gcd of the 2x2 minors, the covolume of the lattice the inputs
    generate: the two lattices are equal, and the Hermite form makes the
    basis the unique one. Zero, parallel and negative vectors included."""
    rng = random.Random(404)
    for bound in (4, 40):
        for _ in range(50):
            while True:
                vecs = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
                        for _ in range(rng.randint(2, 5))]
                v, k = rng.choice(vecs), rng.randint(-3, 3)
                vecs += [(0, 0), (k * v[0], k * v[1])]
                rng.shuffle(vecs)
                minors = [a[0] * b[1] - a[1] * b[0]
                          for a, b in itertools.combinations(vecs, 2)]
                if any(minors):
                    break
            basis = lattice_basis(vecs)
            (g, y), (zero, d) = basis
            assert zero == 0 and g > 0 and d > 0 and 0 <= y < d
            assert g * d == lattice_determinant(basis) == math.gcd(*minors)
            for v in vecs:
                assert in_lattice(basis, (F(v[0]), F(v[1])))
            entries = [rng.randint(-bound, bound) for _ in range(rng.randint(1, 5))]
            entries += [0, -entries[0]]
            if any(entries):
                assert lattice_basis([(c,) for c in entries]) == ((math.gcd(*entries),),)
