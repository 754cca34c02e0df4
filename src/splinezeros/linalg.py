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
    FormatError,
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
    """Hermite basis columns of the lattice that integer vectors in Z^s,
    s in {1, 2}, generate: ((g,),) in 1-D, ((g, y), (0, d)) with g, d > 0
    and 0 <= y < d in 2-D.

    One extended-gcd fold: (g, y) spans the lattice's first coordinates, and
    each vector (a, b) replaces it by its xgcd combination with (g, y) while
    the leftover (0, (g/h) b - (a/h) y) joins (0, d). FormatError for a
    component that is not an int; RankDeficiencyError when the vectors do
    not span R^s."""
    vecs = [tuple(v) for v in vectors]
    for c in (c for v in vecs for c in v if type(c) is not int):
        raise FormatError(f"vector components must be int, got {c!r}")
    if not vecs:
        raise RankDeficiencyError("empty vector list")
    s = len(vecs[0])
    if s not in (1, 2):
        raise RankDeficiencyError(f"ambient dimension {s} not supported (s <= 2)")
    if any(len(v) != s for v in vecs):
        raise DimensionError("mixed vector dimensions")
    if s == 1:
        g = math.gcd(*(c for (c,) in vecs))
        if g == 0:
            raise RankDeficiencyError("vectors do not span R^1")
        return ((g,),)
    g = y = d = 0
    for a, b in vecs:
        h, u, w = _xgcd(g, a)
        if h:
            d = math.gcd(d, (g // h) * b - (a // h) * y)
            g, y = h, u * y + w * b
        else:
            d = math.gcd(d, b)
    if g == 0 or d == 0:
        raise RankDeficiencyError("vectors do not span R^2")
    return (g, y % d), (0, d)
