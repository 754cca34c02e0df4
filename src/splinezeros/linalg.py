"""Exact dense linear algebra over the rationals, plus small integer-lattice
basis computation.

Determinants use Bareiss fraction-free elimination on an integer copy of the
matrix whose rows come from ``rational.primitive_integers`` (the one
integer-scaling helper of the library), so no rounding can occur anywhere and
intermediate fractions never blow up. Solving uses exact Gaussian elimination
and verifies A*x = b by substitution before returning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ConsistencyError,
    DimensionError,
    RankDeficiencyError,
    SingularMatrixError,
)
from .rational import as_rational, primitive_integers


@dataclass(frozen=True)
class RationalMatrix:
    """Dense row-major matrix of Fractions."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionError("ragged rows")
            flat.extend(as_rational(v) for v in row)
        return cls(nrows, ncols, tuple(flat))

    def get(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def _bareiss_det_int(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss).

    Every division below is exact by the Sylvester identity; all values stay
    integers of modest size."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    m = [r[:] for r in rows]
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot_row is None:
                return 0
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            mik = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def mat_determinant(a: RationalMatrix) -> Fraction:
    """Exact determinant of a square rational matrix.

    Each row is split as content * coprime integers (``primitive_integers``),
    Bareiss runs on the integer rows, and the determinant is the product of
    the contents times the integer determinant. The empty 0x0 matrix has
    determinant 1."""
    if a.rows != a.cols:
        raise DimensionError(f"determinant of non-square {a.rows}x{a.cols} matrix")
    scale = Fraction(1)
    int_rows: list[list[int]] = []
    for i in range(a.rows):
        content, ints = primitive_integers(a.row(i))
        int_rows.append(ints)
        scale *= content
    return scale * _bareiss_det_int(int_rows)


def mat_solve(a: RationalMatrix, b: Sequence) -> tuple[Fraction, ...]:
    """Solve A*x = b exactly.

    Gaussian elimination with exact pivoting (first nonzero pivot); the
    result is substituted back into A before returning, so a wrong answer is
    structurally impossible."""
    if a.rows != a.cols:
        raise DimensionError(f"solve with non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    rhs = [as_rational(v) for v in b]
    if len(rhs) != n:
        raise DimensionError(f"rhs length {len(rhs)} != {n}")
    aug = [list(a.row(i)) + [rhs[i]] for i in range(n)]
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if aug[r][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError("matrix is singular")
        if pivot_row != k:
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pivot = aug[k][k]
        for i in range(k + 1, n):
            factor = aug[i][k] / pivot
            if factor:
                row_i = aug[i]
                row_k = aug[k]
                for j in range(k, n + 1):
                    row_i[j] -= factor * row_k[j]
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        acc = aug[i][n]
        for j in range(i + 1, n):
            acc -= aug[i][j] * x[j]
        x[i] = acc / aug[i][i]
    for i in range(n):
        row = a.row(i)
        if sum((row[j] * x[j] for j in range(n)), Fraction(0)) != rhs[i]:
            raise ConsistencyError("back-substitution check failed")  # pragma: no cover
    return tuple(x)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with u*a + v*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def lattice_basis(vectors: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Basis columns of the integer lattice generated by the given vectors
    in Z^s, s in {1, 2}: ((g,),) in 1-D, ((p, q), (0, d)) with 0 <= q < d
    in 2-D.

    Hermite-style integer reduction: vectors are folded into a triangular
    basis one at a time using extended-gcd row operations, so the output
    spans exactly the same lattice. Raises RankDeficiencyError when the
    vectors do not span R^s."""
    vecs = [tuple(int(c) for c in v) for v in vectors]
    if not vecs:
        raise RankDeficiencyError("empty vector list")
    s = len(vecs[0])
    if s not in (1, 2):
        raise RankDeficiencyError(f"ambient dimension {s} not supported (s <= 2)")
    for v in vecs:
        if len(v) != s:
            raise DimensionError("mixed vector dimensions")

    if s == 1:
        g = 0
        for (c,) in vecs:
            g = math.gcd(g, c)
        if g == 0:
            raise RankDeficiencyError("vectors do not span R^1")
        return ((g,),)

    # s == 2: maintain up to two basis rows (b0 with pivot in coord 0,
    # b1 = (0, d)); fold each vector in with xgcd combinations.
    b0: list[int] | None = None
    b1: list[int] | None = None

    def reduce_second(vec: list[int]) -> None:
        nonlocal b1
        if vec[1] == 0:
            return
        if b1 is None:
            b1 = [0, abs(vec[1])]
        else:
            g = math.gcd(b1[1], vec[1])
            b1 = [0, g]

    for v in vecs:
        vec = list(v)
        if vec == [0, 0]:
            continue
        if b0 is None:
            if vec[0] != 0:
                b0 = vec if vec[0] > 0 else [-vec[0], -vec[1]]
            else:
                reduce_second(vec)
            continue
        if vec[0] != 0:
            g, u, w = _xgcd(b0[0], vec[0])
            # new pivot row spans the same first-coordinate multiples
            new_b0 = [g, u * b0[1] + w * vec[1]]
            # leftovers have zero first coordinate
            left_a = [0, (b0[0] // g) * vec[1] - (vec[0] // g) * b0[1]]
            reduce_second(left_a)
            b0 = new_b0
        else:
            reduce_second(vec)

    if b0 is None or b1 is None or b1[1] == 0:
        raise RankDeficiencyError("vectors do not span R^2")
    # canonical form: 0 <= b0[1] < b1[1]
    return (b0[0], b0[1] % b1[1]), (0, b1[1])
