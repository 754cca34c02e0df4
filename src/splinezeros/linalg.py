"""Exact dense linear algebra over the rationals, plus small integer-lattice
basis computation for the vector configurations boxspline.VectorConfig has
checked.

One elimination serves every linear system: Bareiss fraction-free
elimination (``_bareiss``) on integer rows that come from
``rational.primitive_integers`` (the one integer-scaling helper of the
library), so no rounding can occur anywhere and intermediate fractions never
blow up. ``mat_determinant`` reads its last pivot; ``mat_solve`` runs it on
[A | b], back-substitutes over the integers and verifies A*x = b by
substitution before returning.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Sequence

from .errors import (
    ConsistencyError,
    DimensionError,
    RankDeficiencyError,
    SingularMatrixError,
    Validated,
)
from .rational import as_rationals, primitive_integers


class RationalMatrix(Validated, namedtuple("RationalMatrix", "rows cols entries")):
    """Dense row-major matrix: rows x cols Fractions, as one entries tuple."""

    __slots__ = ()

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "RationalMatrix":
        rows = as_rationals(rows, item=as_rationals)
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        flat: list[Fraction] = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionError("ragged rows")
            flat.extend(row)
        return cls(nrows, ncols, tuple(flat))

    def get(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]


def _bareiss(rows: list[list[int]]) -> int:
    """Bareiss fraction-free elimination of n integer rows (length >= n) in
    place, swapping up the first nonzero pivot of each column. Afterwards
    rows[k][k:] is the upper triangle and rows[-1][n-1] is the determinant
    of the swapped leading n x n block; every division is exact by
    Sylvester's identity. Returns the swap sign, or 0 when a column has no
    pivot."""
    n = len(rows)
    sign, prev = 1, 1
    for k in range(n):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap], sign = rows[swap], rows[k], -sign
        pivot, tail = rows[k][k], rows[k][k + 1:]
        for row in rows[k + 1:]:
            row[k + 1:] = [(v * pivot - row[k] * w) // prev
                           for v, w in zip(row[k + 1:], tail)]
        prev = pivot
    return sign


def mat_determinant(a: RationalMatrix) -> Fraction:
    """Exact determinant of a square rational matrix: each row is split as
    content * coprime integers (``primitive_integers``), Bareiss runs on the
    integer rows, and the determinant is the product of the contents, the
    swap sign and the last pivot. The empty 0x0 matrix has determinant 1."""
    if a.rows != a.cols:
        raise DimensionError(f"determinant of non-square {a.rows}x{a.cols} matrix")
    split = [primitive_integers(a.row(i)) for i in range(a.rows)]
    rows = [ints for _, ints in split]
    sign = _bareiss(rows)
    pivot = rows[-1][-1] if rows else 1
    return math.prod((content for content, _ in split), start=Fraction(sign * pivot))


def mat_solve(a: RationalMatrix, b: Sequence) -> tuple[Fraction, ...]:
    """Solve A*x = b exactly. Bareiss runs on the primitive integer rows of
    [A | b]; its last pivot D is the determinant of the swapped system, so
    y = D*x is integral (Cramer's rule) and back-substitution finds it by
    exact integer divisions. x = y / D is substituted back into A before
    returning, so a wrong answer is structurally impossible."""
    if a.rows != a.cols:
        raise DimensionError(f"solve with non-square {a.rows}x{a.cols} matrix")
    n = a.rows
    rhs = as_rationals(b)
    if len(rhs) != n:
        raise DimensionError(f"rhs length {len(rhs)} != {n}")
    rows = [primitive_integers(a.row(i) + (rhs[i],))[1] for i in range(n)]
    if not _bareiss(rows):
        raise SingularMatrixError("matrix is singular")
    det = rows[-1][n - 1] if n else 1
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        y[i] = (det * row[n] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
    x = tuple(Fraction(v, det) for v in y)
    if any(sum(r * v for r, v in zip(a.row(i), x)) != rhs[i] for i in range(n)):
        raise ConsistencyError("back-substitution check failed")  # pragma: no cover
    return x


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


def lattice_basis(vectors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Hermite basis columns of the lattice that integer vectors in Z^s,
    s in {1, 2}, generate: ((g,),) in 1-D, ((g, y), (0, d)) with g, d > 0
    and 0 <= y < d in 2-D.

    One extended-gcd fold: (g, y) spans the lattice's first coordinates, and
    each vector (a, b) replaces it by its xgcd combination with (g, y) while
    the leftover (0, (g/h) b - (a/h) y) joins (0, d). The input is trusted:
    a nonempty sequence of int tuples of one length s in {1, 2}, the rules
    boxspline.VectorConfig checks before it calls here. The one refusal is
    RankDeficiencyError when the vectors do not span R^s."""
    if len(vectors[0]) == 1:
        g = math.gcd(*(c for (c,) in vectors))
        if g == 0:
            raise RankDeficiencyError("vectors do not span R^1")
        return ((g,),)
    g = y = d = 0
    for a, b in vectors:
        h, u, w = _xgcd(g, a)
        if h:
            d = math.gcd(d, (g // h) * b - (a // h) * y)
            g, y = h, u * y + w * b
        else:
            d = math.gcd(d, b)
    if g == 0 or d == 0:
        raise RankDeficiencyError("vectors do not span R^2")
    return (g, y % d), (0, d)
