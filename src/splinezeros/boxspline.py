"""Box splines over integer vector configurations in R^1 and R^2:
zonotope supports, semi-integral interior points, exact point evaluation,
unimodularity, and the collocation-style matrix A_X whose invertibility is
under test.

Normalization: B_X is the density of the pushforward of the uniform measure
on the unit cube [0,1]^m under t -> X t. The evaluation route follows from
the dimension. In 1-D it is bspline.univariate_box_spline (one vector: the
half-open indicator) as integer knots and piece rows: x = a/b takes the row
at a // b = floor(x), and its integer Horner builds one Fraction. In 2-D,
writing t = W x + V u with X W = I, X V = 0,

    B_X(x) = |det [W V]| * vol_(m-2){ u : W x + V u in [0,1]^m },

a point (m = 2), an interval (m = 3) or a convex polygon (m = 4), measured
exactly with rational arithmetic; planar m - s > 2 is refused. The Jacobian
needs no determinant: W is the inverse of a pivot pair P on the pivot rows,
and each kernel column is nonzero at one free index only, so with the pivot
rows first [W V] is block upper-triangular, and |det [W V]| is the product
of those free entries over |det P|.

Omega and A_X work in doubled integer coordinates c = 2x (Omega lies in the
half lattice), where the zonotope is {c : |n.(c - sum X)| <= sum_xi |n.xi|}
over the normals n of the vectors of X (de Boor, Hollig & Riemenschneider,
*Box Splines*, 1993, ch. I). A_X evaluates B_X once per distinct argument,
gives an exact 0 outside the closed zonotope, and still evaluates boundary
points, where the half-open convention decides.
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import NamedTuple, Sequence

from .bspline import univariate_box_spline
from .errors import (
    CapabilityError,
    DimensionError,
    FormatError,
    RankDeficiencyError,
    Validated,
)
from .linalg import RationalMatrix, lattice_basis, mat_determinant
from .polynomial import _horner
from .rational import as_rationals, format_rational, primitive_integers


class VectorConfig(Validated, namedtuple("VectorConfig", "dim vectors")):
    """m non-zero integer vectors (int tuples) spanning R^s, s = dim in {1, 2}.
    The one check of these rules: linalg.lattice_basis trusts them."""

    __slots__ = ()

    def __new__(cls, dim, vectors):
        try:
            vectors = tuple(tuple(v) for v in vectors)
        except TypeError:
            raise FormatError(f"not a sequence of vectors: {vectors!r}") from None
        return super().__new__(cls, dim, vectors)

    def __post_init__(self) -> None:
        for c in (c for v in self.vectors for c in v if type(c) is not int):
            raise FormatError(f"vector components must be int, got {c!r}")
        if self.dim not in (1, 2):
            raise DimensionError(f"ambient dimension must be 1 or 2, got {self.dim}")
        if len(self.vectors) < self.dim:
            raise RankDeficiencyError("need at least s vectors")
        for v in self.vectors:
            if len(v) != self.dim:
                raise DimensionError(f"vector {v} has wrong dimension")
            if all(c == 0 for c in v):
                raise RankDeficiencyError("zero vectors are not allowed")
        lattice_basis(self.vectors)  # RankDeficiencyError unless X spans R^s

    @property
    def count(self) -> int:
        return len(self.vectors)

    @property
    def box_degree(self) -> int:
        """Degree of B_X: m - s."""
        return self.count - self.dim

    def vector_sum(self) -> tuple[int, ...]:
        return tuple(sum(v[i] for v in self.vectors) for i in range(self.dim))

    def __str__(self) -> str:
        return ";".join(",".join(str(c) for c in v) for v in self.vectors)


_INTEGER_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*")


def parse_vector_config(text: str) -> VectorConfig:
    """Parse "1,0;1,1;0,1" (semicolon-separated integer vectors). Each
    component is [+-]digits in ASCII, with surrounding whitespace tolerated;
    anything else, an empty vector (";;" or a trailing ";") included, raises
    FormatError, as does a text that is not a str (bytes and None included),
    before any parsing."""
    if not isinstance(text, str):
        raise FormatError(
            f"expected a vector configuration string, got {type(text).__name__}")
    if not text.strip():
        raise FormatError("empty vector configuration")
    vectors = []
    for chunk in (chunk.strip() for chunk in text.split(";")):
        parts = chunk.split(",")
        try:
            if not all(_INTEGER_TEXT.fullmatch(c) for c in parts):
                raise ValueError
            # int() also refuses literals past sys.get_int_max_str_digits()
            vectors.append(tuple(int(c) for c in parts))
        except ValueError:
            raise FormatError(f"malformed vector {chunk!r}") from None
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise FormatError("vectors have mixed dimensions")
    return VectorConfig(dims.pop(), tuple(vectors))


# -- zonotope ---------------------------------------------------------------------


def zonotope_support(config: VectorConfig) -> tuple[tuple[Fraction, ...], ...]:
    """Z(X), the Minkowski sum of the segments [0, x] over X, as its exact
    vertices: the segment's two ends in 1-D, and in 2-D a counterclockwise
    convex polygon with strict turns from its lexicographically smallest
    vertex.

    In 2-D the boundary is the generators in angular order. Each x is turned
    into the upper half-plane ([0, x] = x + [0, -x]), parallel ones merge
    into one edge, and the walk goes up along the edges and back along their
    negatives."""
    if config.dim == 1:
        lo = sum(min(0, v[0]) for v in config.vectors)
        hi = sum(max(0, v[0]) for v in config.vectors)
        return (Fraction(lo),), (Fraction(hi),)
    x0 = y0 = 0
    lengths: dict[tuple[int, int], int] = {}
    for a, b in config.vectors:
        if (b, a) < (0, 0):
            x0, y0, a, b = x0 + a, y0 + b, -a, -b
        g = math.gcd(a, b)
        lengths[a // g, b // g] = lengths.get((a // g, b // g), 0) + g
    edges = sorted(((a * n, b * n) for (a, b), n in lengths.items()),
                   key=cmp_to_key(lambda e, f: e[1] * f[0] - e[0] * f[1]))
    walk = [(x0, y0)]
    for sign in (1, -1):
        for a, b in edges:
            walk.append((walk[-1][0] + sign * a, walk[-1][1] + sign * b))
    walk.pop()  # the walk closes at its start
    first = walk.index(min(walk))
    return tuple((Fraction(x), Fraction(y)) for x, y in walk[first:] + walk[:first])


def _as_point(point, dim: int) -> tuple[Fraction, ...]:
    """Coordinates as Fractions (as_rationals refuses a str, bytes or
    non-iterable point)."""
    pt = as_rationals(point)
    if len(pt) != dim:
        raise DimensionError(f"point dimension {len(pt)} != {dim}")
    return pt


def point_strictly_inside(verts: tuple[tuple[Fraction, ...], ...], point) -> bool:
    """Whether point lies strictly inside the zonotope_support vertices verts;
    their length is the dimension."""
    pt = _as_point(point, len(verts[0]))
    if len(pt) == 1:
        return verts[0][0] < pt[0] < verts[1][0]
    return all((b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0]) > 0
               for a, b in zip(verts, verts[1:] + verts[:1]))


def _support_slack(config: VectorConfig):
    """c -> min_n (sum_xi |n.xi| - |n.(c - sum X)|) on doubled points
    c = 2x, with n = 1 in 1-D and n = (-d_1, d_0) per vector d in 2-D:
    positive strictly inside the zonotope, 0 on its boundary, negative
    outside."""
    total = config.vector_sum()
    normals = {(1,)} if config.dim == 1 else {(-v[1], v[0]) for v in config.vectors}
    rows = [(n, sum(abs(sum(a * b for a, b in zip(n, v))) for v in config.vectors))
            for n in normals]

    def slack(c: tuple[int, ...]) -> int:
        return min(width - abs(sum(a * (b - t) for a, b, t in zip(n, c, total)))
                   for n, width in rows)
    return slack


# -- semi-integral interior points --------------------------------------------------


# Half-lattice candidates per dimension semi_integral_interior_points may
# test before refusing: A_X has |Omega|^2 entries and an exact determinant.
# In 1-D every candidate lands in Omega at degrees up to 12; a planar B_X
# has degree at most 2, so 512 candidates keep its entries short.
MAX_OMEGA_CANDIDATES = 256


def semi_integral_interior_points(
        config: VectorConfig) -> tuple[tuple[Fraction, ...], ...]:
    """Omega of the configuration: the points of half the lattice generated
    by X strictly inside the zonotope, sorted lexicographically. It always
    holds the centre sum(X)/2, so it is never empty: sum(X) lies in the
    lattice, and its slack, min_n sum_xi |n.xi|, is positive because X
    spans. CapabilityError when the bounding box holds more than
    MAX_OMEGA_CANDIDATES * dim half-lattice candidates."""
    cols = lattice_basis(config.vectors)
    # doubled coordinates: the half-lattice basis is the lattice basis, and
    # the zonotope's bounding box is [2 sum min(0, x_k), 2 sum max(0, x_k)]
    lows = [2 * sum(min(0, v[k]) for v in config.vectors) for k in range(config.dim)]
    highs = [2 * sum(max(0, v[k]) for v in config.vectors) for k in range(config.dim)]

    g = cols[0][0]
    if config.dim == 1:
        ranges = [range(lows[0] // g + 1, -(-highs[0] // g))]
    else:
        # c = k1 (g, y) + k2 (0, d) gives k1 = c_0 / g and
        # k2 = (g c_1 - y c_0) / (g d); y >= 0 fixes the extreme corners
        y, d = cols[0][1], cols[1][1]
        ranges = [range(lows[0] // g, -(-highs[0] // g) + 1),
                  range((g * lows[1] - y * highs[0]) // (g * d),
                        -((y * lows[0] - g * highs[1]) // (g * d)) + 1)]
    count = math.prod(len(r) for r in ranges)
    limit = MAX_OMEGA_CANDIDATES * config.dim
    if count > limit:
        raise CapabilityError(
            f"{count} candidate points for Omega exceed the limit of {limit}"
        )
    slack = _support_slack(config)
    doubled = []
    for ks in itertools.product(*ranges):
        c = tuple(sum(k * col[i] for k, col in zip(ks, cols))
                  for i in range(config.dim))
        if slack(c) > 0:
            doubled.append(c)
    doubled.sort()
    return tuple(tuple(Fraction(x, 2) for x in c) for c in doubled)


# -- evaluation: the 1-D table and planar fiber volumes -----------------------------


@lru_cache(maxsize=64)
def _univariate_table(config: VectorConfig):
    """The knots of univariate_box_spline(lengths) as ints, and each piece as
    a row (integer numerators, denominator), ready for _horner."""
    spline = univariate_box_spline(tuple(v[0] for v in config.vectors))
    return (tuple([int(k) for k in spline.knots]),
            tuple([(p.num, p.den) for p in spline.pieces]))


@lru_cache(maxsize=64)
def _fiber_data(config: VectorConfig):
    """Right inverse W (m x 2), integer kernel basis V (m x (m-2)), and the
    Jacobian factor |det [W V]| of a planar configuration. The pivots are
    column 0 and the first column not parallel to it; P is their 2 x 2
    matrix.

    W is P^-1 on the pivot rows and 0 elsewhere, and the kernel column of a
    free index f is 0 at the other free indices and lambda_f > 0 at f. With
    the pivot rows first, [W V] is block upper-triangular with diagonal
    blocks P^-1 and diag(lambda), so |det [W V]| = prod lambda_f / |det P|."""
    m = config.count
    a = config.vectors[0]
    pivots = (0, next(j for j, b in enumerate(config.vectors)
                      if a[0] * b[1] - a[1] * b[0] != 0))
    b = config.vectors[pivots[1]]
    det = Fraction(a[0] * b[1] - a[1] * b[0])
    inv = [[b[1] / det, -b[0] / det], [-a[1] / det, a[0] / det]]
    w_rows = [[Fraction(0)] * 2 for _ in range(m)]
    for k, j in enumerate(pivots):
        w_rows[j] = list(inv[k])
    kernel: list[list[int]] = []
    diag_prod = 1
    for free in range(m):
        if free in pivots:
            continue
        col = [Fraction(0)] * m
        col[free] = Fraction(1)
        rhs = config.vectors[free]
        for k, j in enumerate(pivots):
            col[j] = -(inv[k][0] * rhs[0] + inv[k][1] * rhs[1])
        kernel.append(primitive_integers(col)[1])
        diag_prod *= kernel[-1][free]
    factor = abs(diag_prod / det)
    return tuple(tuple(r) for r in w_rows), tuple(tuple(c) for c in kernel), factor


def _clip_half_plane(polygon, coeff, offset):
    """Keep {u : offset + coeff . u >= 0} of a convex polygon
    (Sutherland-Hodgman step, exact)."""
    if not polygon:
        return []
    def value(p):
        return offset + coeff[0] * p[0] + coeff[1] * p[1]
    out = []
    for current, following in zip(polygon, polygon[1:] + polygon[:1]):
        vc, vf = value(current), value(following)
        if vc >= 0:
            out.append(current)
            if vf < 0:
                t = vc / (vc - vf)
                out.append((current[0] + t * (following[0] - current[0]),
                            current[1] + t * (following[1] - current[1])))
        elif vf >= 0:
            t = vc / (vc - vf)
            out.append((current[0] + t * (following[0] - current[0]),
                        current[1] + t * (following[1] - current[1])))
    return out


def _polygon_area(polygon) -> Fraction:
    if len(polygon) < 3:
        return Fraction(0)
    acc = Fraction(0)
    for a, b in zip(polygon, polygon[1:] + polygon[:1]):
        acc += a[0] * b[1] - a[1] * b[0]
    return abs(acc) / 2


def box_spline_eval(config: VectorConfig, point: Sequence) -> Fraction:
    """Exact B_X at a rational point.

    The route follows from the dimension alone: in 1-D the integer-knot
    table of univariate_box_spline (degree <= MAX_CARDINAL_DEGREE), in 2-D
    fiber volumes for m - s <= 2; CapabilityError otherwise. On the support
    boundary the m = s indicator uses the half-open box convention; for
    m - s >= 1 the function is continuous wherever its slab data is
    nondegenerate, and degenerate slabs (kernel rows that vanish) reuse the
    half-open convention."""
    pt = _as_point(point, config.dim)
    if config.dim == 1:
        if config.count == 1:  # 0 <= x / xi < 1 on ints, for x = a/b
            xi = config.vectors[0][0]
            a = pt[0].numerator if xi > 0 else -pt[0].numerator
            inside = 0 <= a < abs(xi) * pt[0].denominator
            return Fraction(1, abs(xi)) if inside else Fraction(0)
        knots, rows = _univariate_table(config)
        a, b = pt[0].numerator, pt[0].denominator
        num, den = rows[bisect_right(knots, a // b)]  # a // b is floor(x)
        if not num:
            return Fraction(0)
        h, power = _horner(num, a, b)
        return Fraction(h, den * power)
    deg = config.box_degree
    if deg > 2:
        raise CapabilityError(
            f"planar box splines are evaluable up to degree m - s = 2 "
            f"(fiber volumes), got {deg}"
        )

    w_rows, kernel, factor = _fiber_data(config)
    w = [sum(w_rows[i][k] * pt[k] for k in range(config.dim))
         for i in range(config.count)]

    if deg == 0:
        inside = all(0 <= wi < 1 for wi in w)
        return factor if inside else Fraction(0)

    if deg == 1:
        lo, hi = None, None
        for i, wi in enumerate(w):
            vi = kernel[0][i]
            if vi == 0:
                if not 0 <= wi < 1:
                    return Fraction(0)
                continue
            bound_a = -wi / vi
            bound_b = (1 - wi) / vi
            if bound_a > bound_b:
                bound_a, bound_b = bound_b, bound_a
            lo = bound_a if lo is None else max(lo, bound_a)
            hi = bound_b if hi is None else min(hi, bound_b)
        if lo is None or hi is None or hi <= lo:
            return Fraction(0)
        return factor * (hi - lo)

    # deg == 2: the fiber is a convex polygon in the u-plane
    rows = [(kernel[0][i], kernel[1][i]) for i in range(config.count)]
    constraints = []
    for i, row in enumerate(rows):
        if row == (0, 0):
            if not 0 <= w[i] < 1:
                return Fraction(0)
        else:
            constraints.append((row, w[i]))
    seed = None
    for (ra, wa), (rb, wb) in itertools.combinations(constraints, 2):
        det = ra[0] * rb[1] - ra[1] * rb[0]
        if det == 0:
            continue
        corners = []
        for ta, tb in ((0, 0), (1, 0), (1, 1), (0, 1)):
            rhs = (ta - wa, tb - wb)
            u = ((rhs[0] * rb[1] - rhs[1] * ra[1]) / det,
                 (-rhs[0] * rb[0] + rhs[1] * ra[0]) / det)
            corners.append(u)
        seed = corners
        seed_pair = ((ra, wa), (rb, wb))
        break
    if seed is None:  # pragma: no cover - kernel has rank m-s
        raise CapabilityError("degenerate kernel rows")
    polygon = seed
    for row, wi in constraints:
        if (row, wi) in seed_pair:
            continue
        polygon = _clip_half_plane(polygon, row, wi)
        polygon = _clip_half_plane(polygon, (-row[0], -row[1]), 1 - wi)
        if not polygon:
            return Fraction(0)
    return factor * _polygon_area(polygon)


# -- unimodularity and the conjecture matrix ----------------------------------------


class UnimodularityReport(NamedTuple):
    unimodular: bool
    witness_indices: tuple[int, ...] | None
    witness_det: int | None


def unimodular_check(config: VectorConfig) -> UnimodularityReport:
    """True iff X is unimodular on the lattice it generates, where Omega and
    A_X live: every s x s minor divided by that lattice's determinant (g in
    1-D, g d in 2-D) lies in {-1, 0, 1}. The first minor that fails is the
    witness."""
    s = config.dim
    cols = lattice_basis(config.vectors)
    index = cols[0][0] if s == 1 else cols[0][0] * cols[1][1]
    for idx in itertools.combinations(range(config.count), s):
        if s == 1:
            det = config.vectors[idx[0]][0]
        else:
            a, b = config.vectors[idx[0]], config.vectors[idx[1]]
            det = a[0] * b[1] - a[1] * b[0]
        if det // index not in (-1, 0, 1):
            return UnimodularityReport(False, idx, det)
    return UnimodularityReport(True, None, None)


def conjecture_matrix(config: VectorConfig, omega) -> RationalMatrix:
    """A_X with entries B_X(sum(X) + w_i - 2 w_j) over the semi-integral
    interior points ``omega = semi_integral_interior_points(config)``, in
    their lexicographic order.

    Arguments are formed in doubled integer coordinates, and B_X is evaluated
    once per distinct argument. An argument outside the closed zonotope gets
    an exact 0 without evaluation; boundary points are evaluated."""
    slack = _support_slack(config)
    total = config.vector_sum()
    twice = [tuple(int(2 * c) for c in w) for w in omega]
    values: dict[tuple[int, ...], Fraction] = {}
    entries: list[Fraction] = []
    for wi in twice:
        for wj in twice:
            arg = tuple(2 * t + a - 2 * b for t, a, b in zip(total, wi, wj))
            value = values.get(arg)
            if value is None:
                value = values[arg] = (
                    box_spline_eval(config, tuple(Fraction(c, 2) for c in arg))
                    if slack(arg) >= 0 else Fraction(0))
            entries.append(value)
    return RationalMatrix(len(twice), len(twice), tuple(entries))


class ConjectureVerdict(NamedTuple):
    config: VectorConfig
    unimodular: bool
    omega: tuple[tuple[Fraction, ...], ...]
    matrix: RationalMatrix
    determinant: Fraction
    invertible: bool


def conjecture_verdict(config: VectorConfig) -> ConjectureVerdict:
    omega = semi_integral_interior_points(config)
    matrix = conjecture_matrix(config, omega)
    det = mat_determinant(matrix)
    return ConjectureVerdict(
        config=config,
        unimodular=unimodular_check(config).unimodular,
        omega=omega,
        matrix=matrix,
        determinant=det,
        invertible=(det != 0),
    )


def format_matrix(matrix: RationalMatrix) -> str:
    """Plain-text matrix with aligned columns of canonical rationals."""
    if matrix.rows == 0:
        return "(empty 0x0 matrix)"
    cells = [[format_rational(matrix.get(i, j)) for j in range(matrix.cols)]
             for i in range(matrix.rows)]
    widths = [max(len(cells[i][j]) for i in range(matrix.rows))
              for j in range(matrix.cols)]
    lines = ["[ " + "  ".join(c.rjust(w) for c, w in zip(row, widths)) + " ]"
             for row in cells]
    return "\n".join(lines)
