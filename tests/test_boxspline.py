import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splinezeros import (
    Polynomial,
    VectorConfig,
    box_spline_eval,
    cardinal_bspline,
    conjecture_verdict,
    parse_vector_config,
    point_strictly_inside,
    semi_integral_interior_points,
    spline_eval,
    unimodular_check,
    zonotope_support,
)
from splinezeros import boxspline
from splinezeros.boxspline import conjecture_matrix
from splinezeros.bspline import univariate_box_spline
from splinezeros.errors import (
    CapabilityError,
    DimensionError,
    FormatError,
    RankDeficiencyError,
)
from splinezeros.linalg import lattice_basis, mat_determinant

A2 = VectorConfig(2, ((1, 0), (1, 1), (0, 1)))
B2 = VectorConfig(2, ((1, 0), (1, 1), (0, 1), (-1, 1)))


def ones(count):
    return VectorConfig(1, tuple((1,) for _ in range(count)))


def jarvis_hull(points):
    """Gift-wrapping hull oracle (independent of the library's monotone
    chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    start = min(pts)
    hull = [start]
    current = start
    while True:
        candidate = pts[0] if pts[0] != current else pts[1]
        for p in pts:
            if p == current:
                continue
            turn = cross(current, candidate, p)
            if turn < 0 or (turn == 0 and
                            abs(p[0] - current[0]) + abs(p[1] - current[1]) >
                            abs(candidate[0] - current[0]) + abs(candidate[1] - current[1])):
                candidate = p
        if candidate == start:
            break
        hull.append(candidate)
        current = candidate
    return hull


def first_basis(vectors):
    """The first s linearly independent vectors of the list, or None."""
    first = vectors[0]
    if len(first) == 1:
        return (first,)
    for v in vectors[1:]:
        if first[0] * v[1] - first[1] * v[0]:
            return first, v
    return None


def adjugate(basis):
    """Rows of adj(M) and det M for the s x s matrix M whose columns are
    ``basis``."""
    if len(basis) == 1:
        return ((1,),), basis[0][0]
    (a0, a1), (b0, b1) = basis
    return ((b1, -b0), (-a1, a0)), a0 * b1 - a1 * b0


def in_box(basis, c, denom, directional):
    """Whether x = c / denom lies in M [0, 1)^s (half-open in t = M^-1 x), or,
    when ``directional``, in the limit from the direction (1, eps)."""
    rows, det = adjugate(basis)
    sign = 1 if det > 0 else -1
    width = abs(det) * denom
    for row in rows:
        u = sign * sum(r * x for r, x in zip(row, c))  # t_i * width
        if 0 < u < width:
            continue
        lead = sign * (row[0] or row[-1])  # sign of t_i along (1, eps)
        if u == 0 and (not directional or lead > 0):
            continue
        if u == width and directional and lead < 0:
            continue
        return False
    return True


def recurrence(vectors, counts, c, denom, scale):
    """beta(Y, c) = B_Y(c / denom) (k-s)! (denom scale)^(k-s) scale at Y = X
    (k = |Y|), by (k-s) B_Y(x) = sum_v [t_v B_(Y-v)(x) + (mu_v - t_v)
    B_(Y-v)(x - v)] with X t = x on the first basis of Y; ``scale`` is a
    multiple of every s x s minor, so each beta is an integer. Every level
    takes the limit from the direction (1, eps), where the identity holds at
    every point. A coloop xi of Y is in that basis, and B_(Y-xi) = 0 since
    Y - xi does not span (a measure on a line, not a function)."""
    s = len(c)
    memo = {}

    def beta(mults, c):
        key = (mults, c)
        value = memo.get(key)
        if value is not None:
            return value
        basis = first_basis([v for v, mu in zip(vectors, mults) if mu])
        value = 0
        if basis and sum(mults) == s:
            if in_box(basis, c, denom, True):
                value = scale // abs(adjugate(basis)[1])
        elif basis:  # None when Y does not span: X minus a coloop
            rows, det = adjugate(basis)
            weights = {v: scale // det * sum(r * x for r, x in zip(row, c))
                       for v, row in zip(basis, rows)}  # t_v denom scale
            for i, (v, mu) in enumerate(zip(vectors, mults)):
                if not mu:
                    continue
                sub = mults[:i] + (mu - 1,) + mults[i + 1:]
                t = weights.get(v, 0)
                if t:
                    value += t * beta(sub, c)
                if mu * denom * scale != t:
                    value += (mu * denom * scale - t) * beta(
                        sub, tuple(x - denom * y for x, y in zip(c, v)))
        memo[key] = value
        return value

    return beta(counts, c)


def recurrence_oracle(config):
    """B_X by the recurrence of de Boor, Hollig & Riemenschneider (*Box
    Splines*, 1993, ch. I), a route independent of the library's truncated
    powers and fiber volumes that works at every degree. It runs on
    integers: with x = c / D and L the lcm of the nonzero s x s minors it
    carries
    beta(Y, c) = B_Y(x) (k-s)! (D L)^(k-s) L and builds one Fraction at the
    end. Inside the recurrence every level takes the limit from (1, eps);
    the half-open convention applies only at the top, where B_X jumps: the
    indicator of X [0, 1)^s / |det X| when m = s, and 1[0 <= alpha < 1] for a
    coloop xi at x = alpha xi + beta d, after which alpha moves to 1/2, where
    B_X is continuous. Returns x -> B_X(x)."""
    s, deg = config.dim, config.box_degree
    counts = Counter(config.vectors)
    vectors = tuple(counts)
    minors = (adjugate(pair)[1] for pair in itertools.combinations(vectors, s))
    scale = math.lcm(*(abs(minor) for minor in minors if minor))

    def evaluate(point):
        pt = tuple(F(x) for x in point)
        for i, xi in enumerate(vectors):
            others = vectors[:i] + vectors[i + 1:]
            if deg > 0 and counts[xi] == 1 and first_basis(others) is None:
                d = others[0]
                alpha = ((pt[0] * d[1] - pt[1] * d[0])
                         / (xi[0] * d[1] - xi[1] * d[0]))
                if not 0 <= alpha < 1:
                    return F(0)
                pt = tuple(x + (F(1, 2) - alpha) * e for x, e in zip(pt, xi))
        denom = math.lcm(*(x.denominator for x in pt))
        c = tuple(int(x * denom) for x in pt)
        if deg == 0:
            inside = in_box(config.vectors, c, denom, False)
            return F(1, abs(adjugate(config.vectors)[1])) if inside else F(0)
        beta = recurrence(vectors, tuple(counts.values()), c, denom, scale)
        return F(beta, math.factorial(deg) * (denom * scale) ** deg * scale)

    return evaluate


# -- configurations --------------------------------------------------------------


def test_config_validation():
    with pytest.raises(RankDeficiencyError):
        VectorConfig(2, ((1, 1), (2, 2)))
    with pytest.raises(RankDeficiencyError):
        VectorConfig(2, ((1, 0), (0, 0)))
    with pytest.raises(RankDeficiencyError):
        VectorConfig(2, ((1, 0),))
    with pytest.raises(DimensionError):
        VectorConfig(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(DimensionError, match="wrong dimension"):
        VectorConfig(2, ((1, 0), (1,)))
    with pytest.raises(DimensionError, match="wrong dimension"):
        VectorConfig(1, ((1,), (2, 0)))
    for dim in (1, 2):
        with pytest.raises(RankDeficiencyError):
            VectorConfig(dim, ())


def test_vector_config_refuses_non_iterable_input():
    for dim, vectors in ((1, 5), (2, [(1, 0), 5]), (1, None), (1, [None])):
        with pytest.raises(FormatError):
            VectorConfig(dim, vectors)


def test_vector_components_must_be_int():
    """A float, bool, Fraction or str component is refused, not truncated."""
    for vectors in (((1.5,),), ((True, 0), (0, 2)), ((1, 0), (0, 2.9)),
                    ((F(1),),), (("1",),)):
        with pytest.raises(FormatError):
            VectorConfig(len(vectors[0]), vectors)
    assert VectorConfig(1, [[1], [2]]).vectors == ((1,), (2,))


def test_parse_vector_config():
    cfg = parse_vector_config("1,0;1,1;0,1")
    assert cfg == A2
    assert str(cfg) == "1,0;1,1;0,1"
    assert parse_vector_config("1;1;1") == ones(3)
    with pytest.raises(FormatError):
        parse_vector_config("1,0;2")
    with pytest.raises(FormatError):
        parse_vector_config("a,b")
    with pytest.raises(FormatError):
        parse_vector_config("")
    assert parse_vector_config(" +1 , -2 ; 0,1 ") == VectorConfig(
        2, ((1, -2), (0, 1)))
    for text in ("1_0;1", "\u0661;1", "1.0;1", "1e1;1", "+-1;1", "0x1;1",
                 "1,,0;1,1", "1,0;;0,1", "1,0;0,1;", "1 0;1",
                 "9" * 5000 + ";1"):
        with pytest.raises(FormatError):
            parse_vector_config(text)


# -- zonotopes -------------------------------------------------------------------


def test_zonotope_unit_square():
    z = zonotope_support(VectorConfig(2, ((1, 0), (0, 1))))
    assert set(z) == {(0, 0), (1, 0), (1, 1), (0, 1)}


def test_zonotope_a2_hexagon():
    z = zonotope_support(A2)
    expected = {(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)}
    assert set(z) == expected


def test_zonotope_matches_subset_sum_oracle():
    rng = random.Random(55)
    for _ in range(20):
        m = rng.randint(2, 5)
        while True:
            vecs = tuple((rng.randint(-3, 3), rng.randint(-3, 3))
                         for _ in range(m))
            try:
                cfg = VectorConfig(2, vecs)
                break
            except (RankDeficiencyError, DimensionError):
                continue
        sums = [tuple(sum(v[k] for v, pick in zip(vecs, picks) if pick)
                      for k in range(2))
                for picks in itertools.product((0, 1), repeat=m)]
        sums = [(F(a), F(b)) for a, b in sums]
        verts = zonotope_support(cfg)
        assert set(verts) == set(jarvis_hull(sums))
        # counterclockwise with strictly positive turns from min(vertices)
        assert verts[0] == min(verts)
        assert all((b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0]) > 0
                   for a, b, c in zip(verts, verts[1:] + verts[:1],
                                      verts[2:] + verts[:2]))
        assert verts == tuple(jarvis_hull(sums))


def test_zonotope_univariate_segment():
    z = zonotope_support(ones(4))
    assert z == ((F(0),), (F(4),))


@pytest.mark.parametrize("text, point", [
    ("1,0;1,1;0,1", "11"),        # would be B_X(1, 1) = 1
    ("1;1", "1"),                 # would be B_X(1)
    ("1;1", b"1"),                # would be B_X(49)
    ("1;1", bytearray(b"1")),
    ("1;1", 1),                   # not iterable: a bare TypeError before
    ("1,0;1,1;0,1", None),
], ids=["str-planar", "str", "bytes", "bytearray", "int", "none"])
def test_points_that_would_be_reinterpreted_are_refused(text, point):
    cfg = parse_vector_config(text)
    with pytest.raises(FormatError):
        box_spline_eval(cfg, point)
    with pytest.raises(FormatError):
        point_strictly_inside(zonotope_support(cfg), point)


def test_point_strictly_inside_checks_the_dimension():
    with pytest.raises(DimensionError):
        point_strictly_inside(zonotope_support(ones(2)), (1, 99))
    with pytest.raises(DimensionError):
        point_strictly_inside(zonotope_support(A2), (1,))


# -- semi-integral interior points --------------------------------------------------


def brute_force_omega_a2():
    """Oracle: scan all half-integer grid points of the bounding box and keep
    the strictly interior ones (inline edge tests, not the library's)."""
    hexagon = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
    def inside(p):
        for (ax, ay), (bx, by) in zip(hexagon, hexagon[1:] + hexagon[:1]):
            if (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax) <= 0:
                return False
        return True
    pts = []
    for i in range(0, 5):
        for j in range(0, 5):
            p = (F(i, 2), F(j, 2))
            if inside(p):
                pts.append(p)
    return sorted(pts)


def test_omega_a2():
    om = semi_integral_interior_points(A2)
    assert list(om) == brute_force_omega_a2()
    assert len(om) == 7
    assert om == (
        (F(1, 2), F(1, 2)), (F(1, 2), F(1)), (F(1), F(1, 2)), (F(1), F(1)),
        (F(1), F(3, 2)), (F(3, 2), F(1)), (F(3, 2), F(3, 2)),
    )
    assert lattice_basis(A2.vectors) == ((1, 0), (0, 1))


def test_omega_univariate():
    om = semi_integral_interior_points(ones(2))
    assert om == ((F(1, 2),), (F(1),), (F(3, 2),))
    for m in range(1, 7):
        assert len(semi_integral_interior_points(ones(m + 1))) == 2 * m + 1


def test_omega_strictly_interior():
    for cfg in (A2, B2, ones(4)):
        zono = zonotope_support(cfg)
        for p in semi_integral_interior_points(cfg):
            assert point_strictly_inside(zono, p)


@st.composite
def small_configs(draw):
    """Valid configurations with components in [-3, 3]: 1 to 8 vectors in
    1-D, 2 or 3 in the plane. All of these stay under the Omega candidate
    limit."""
    dim = draw(st.integers(1, 2))
    m = draw(st.integers(dim, 8 if dim == 1 else 3))
    vectors = tuple(tuple(draw(st.integers(-3, 3)) for _ in range(dim))
                    for _ in range(m))
    try:
        return VectorConfig(dim, vectors)
    except RankDeficiencyError:
        assume(False)


@given(small_configs())
@settings(max_examples=200, deadline=None)
def test_omega_always_holds_the_centre(cfg):
    """sum(X)/2 lies in Omega, so Omega is never empty: sum(X) is in the
    lattice X generates, and its slack, min_n sum_xi |n.xi|, is positive
    because X spans."""
    centre = tuple(F(c, 2) for c in cfg.vector_sum())
    assert centre in semi_integral_interior_points(cfg)


# -- evaluation ------------------------------------------------------------------


def test_indicator_case_half_open():
    cfg = VectorConfig(2, ((1, 0), (0, 1)))
    assert box_spline_eval(cfg, (F(1, 2), F(1, 2))) == 1
    assert box_spline_eval(cfg, (0, 0)) == 1     # half-open: lower corner in
    assert box_spline_eval(cfg, (1, F(1, 2))) == 0
    assert box_spline_eval(cfg, (2, 2)) == 0
    skew = VectorConfig(2, ((2, 0), (0, 1)))
    assert box_spline_eval(skew, (1, F(1, 2))) == F(1, 2)  # 1/|det X|


def test_a2_center_value():
    assert box_spline_eval(A2, (1, 1)) == 1


def test_outside_zonotope_vanishes():
    rng = random.Random(66)
    for cfg in (A2, B2):
        zono = zonotope_support(cfg)
        xs = [v[0] for v in zono]
        for _ in range(10):
            pt = (max(xs) + F(rng.randint(1, 5), 2), F(rng.randint(-3, 3)))
            assert box_spline_eval(cfg, pt) == 0


def test_univariate_matches_cardinal_bspline():
    rng = random.Random(77)
    for m in (1, 2):
        cfg = ones(m + 1)
        b = cardinal_bspline(m)
        for _ in range(50):
            x = F(rng.randint(0, (m + 1) * 12), 12)
            # 1-D: the truncated-power route, which B_m shares
            assert box_spline_eval(cfg, (x,)) == spline_eval(b, x)


def test_cardinal_delegation_beyond_fiber_cap():
    """Every 1-D degree up to MAX_CARDINAL_DEGREE evaluates, mixed signs
    included; 14 vectors in 1-D and degree 3 in 2-D are refused."""
    cfg = ones(5)  # degree 4: equals B_4
    b = cardinal_bspline(4)
    assert box_spline_eval(cfg, (F(5, 2),)) == spline_eval(b, F(5, 2))
    wide = VectorConfig(2, A2.vectors + ((-1, 1), (1, -1)))  # 2-D, degree 3
    with pytest.raises(CapabilityError):
        box_spline_eval(wide, (1, 1))
    mixed = VectorConfig(1, ((1,), (1,), (-1,), (1,), (1,)))
    oracle = recurrence_oracle(mixed)
    for k in range(-8, 21):
        x = F(k, 4)
        assert box_spline_eval(mixed, (x,)) == oracle((x,))
    with pytest.raises(CapabilityError, match="MAX_CARDINAL_DEGREE"):
        box_spline_eval(ones(14), (F(7),))


def test_cardinal_route_matches_recurrence_oracle():
    """The all-ones family of degree 3..12 takes B_m; the recurrence reaches
    the same values on its own, at every third of the support and around
    it."""
    for m in range(3, 13):
        b = cardinal_bspline(m)
        oracle = recurrence_oracle(ones(m + 1))
        for k in range(-3, 3 * (m + 2) + 1):
            x = F(k, 3)
            assert box_spline_eval(ones(m + 1), (x,)) == spline_eval(b, x) \
                == oracle((x,))


def test_choice_independence():
    """B_X does not depend on the order of X. Reversing X makes the pivot
    rule pick the independent columns that come last in the original."""
    rng = random.Random(88)
    for cfg in (A2, B2, ones(3), VectorConfig(1, ((1,), (2,), (3,)))):
        reversed_cfg = VectorConfig(cfg.dim, cfg.vectors[::-1])
        for _ in range(20):
            pt = tuple(F(rng.randint(-6, 10), 4) for _ in range(cfg.dim))
            assert box_spline_eval(cfg, pt) == box_spline_eval(reversed_cfg, pt)


def test_central_symmetry():
    rng = random.Random(99)
    for cfg in (A2, B2):
        total = cfg.vector_sum()
        for _ in range(20):
            pt = tuple(F(rng.randint(-4, 10), 4) for _ in range(2))
            mirrored = tuple(total[k] - pt[k] for k in range(2))
            assert box_spline_eval(cfg, pt) == box_spline_eval(cfg, mirrored)


def distinct_configs(rng, dim, bound, count):
    """``count`` distinct configurations with m - s <= 2 and entries in
    [-bound, bound]."""
    configs = {}
    while len(configs) < count:
        vectors = tuple(tuple(rng.randint(-bound, bound) for _ in range(dim))
                        for _ in range(rng.randint(dim, dim + 2)))
        try:
            configs.setdefault(vectors, VectorConfig(dim, vectors))
        except (RankDeficiencyError, DimensionError):
            continue
    return list(configs.values())


def quarter_grid(cfg):
    """Quarter-lattice points of the zonotope's bounding box widened by 1."""
    lows = [sum(min(0, v[k]) for v in cfg.vectors) - 1 for k in range(cfg.dim)]
    highs = [sum(max(0, v[k]) for v in cfg.vectors) + 1 for k in range(cfg.dim)]
    for c in itertools.product(*(range(4 * lo, 4 * hi + 1)
                                 for lo, hi in zip(lows, highs))):
        yield tuple(F(x, 4) for x in c)


def test_fiber_route_matches_recurrence_oracle_on_quarter_grids():
    """Exact agreement with the recurrence at every quarter-lattice point
    around the support of 1,000 configurations, 750 of them on the 1-D
    truncated-power route and 250 on the planar fiber route: knots, the
    zonotope boundary and vectors of both signs included. Outside the closed
    zonotope B_X vanishes by definition, so only the evaluator runs there."""
    rng = random.Random(20240811)
    configs = (distinct_configs(rng, 1, 5, 750)
               + distinct_configs(rng, 2, 1, 250))
    compared = 0
    for cfg in configs:
        oracle = recurrence_oracle(cfg)
        zono = zonotope_support(cfg)
        for pt in quarter_grid(cfg):
            value = box_spline_eval(cfg, pt)
            if closed_inside(zono, pt):
                assert value == oracle(pt), (str(cfg), pt)
                compared += 1
            else:
                assert value == 0, (str(cfg), pt)
    assert len(configs) == 1000 and compared > 40000


def test_fiber_route_matches_recurrence_oracle_on_wider_planar_entries():
    """Exact agreement with the recurrence on 60 planar configurations with
    entries in [-3, 3], whose pivot determinants reach past the 2 of the
    quarter-grid configurations, at 40 random points X t of each zonotope,
    t in [0, 1]^m with one denominator from 2..30 (boundary included)."""
    rng = random.Random(20240812)
    configs = distinct_configs(rng, 2, 3, 60)
    assert max(abs(adjugate(pair)[1]) for cfg in configs
               for pair in itertools.combinations(cfg.vectors, 2)) > 2
    for cfg in configs:
        oracle = recurrence_oracle(cfg)
        for _ in range(40):
            denom = rng.randint(2, 30)
            t = [F(rng.randint(0, denom), denom) for _ in cfg.vectors]
            pt = tuple(sum(ti * v[k] for ti, v in zip(t, cfg.vectors))
                       for k in range(2))
            assert box_spline_eval(cfg, pt) == oracle(pt), (str(cfg), pt)


def test_fiber_jacobian_matches_the_determinant_of_w_and_v():
    """_fiber_data's closed-form factor prod lambda_f / |det P| equals
    |det [W V]| computed by sympy from the W and V it returns, on 400 planar
    configurations with 2-4 vectors and entries in [-3, 3]. W is a right
    inverse of X and V an integer kernel basis, so the factor is the
    Jacobian of t = W x + V u."""
    rng = random.Random(20241019)
    configs = distinct_configs(rng, 2, 3, 400)
    assert {cfg.count for cfg in configs} == {2, 3, 4}
    for cfg in configs:
        w_rows, kernel, factor = boxspline._fiber_data(cfg)
        m = cfg.count
        x = sympy.Matrix(cfg.vectors).T
        w = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                          for row in w_rows])
        v = sympy.Matrix(m, m - 2, lambda i, j: kernel[j][i])
        assert x * w == sympy.eye(2)
        assert x * v == sympy.zeros(2, m - 2)
        det = abs(w.row_join(v).det())
        assert type(factor) is F and factor == F(int(det.p), int(det.q)), str(cfg)


def test_knot_values_of_a_mixed_sign_pair():
    """B_(2;-1) is continuous, so its knot values pin the convention: a
    recurrence that took the half-open rule at every level, not the limit
    from (1, eps), would get them wrong where a vector is negative."""
    cfg = parse_vector_config("2;-1")
    values = [box_spline_eval(cfg, (x,)) for x in (-1, 0, 1, 2)]
    assert values == [0, F(1, 2), F(1, 2), 0]
    oracle = recurrence_oracle(cfg)
    assert values == [oracle((x,)) for x in (-1, 0, 1, 2)]


HIGH_DEGREE = (
    "1,0;1,0;0,1;0,1;1,1",                   # (2,2,1), degree 3
    "1,0;1,0;0,1;0,1;1,1;1,1",               # (2,2,2), degree 4
    "1,0;1,0;1,0;0,1;0,1;1,1;1,1",           # (3,2,2), degree 5
    "1,0;0,1;1,1;1,-1;2,1",                  # not unimodular, degree 3
    "1,1;1,0;1,0;-2,0;3,0",                  # coloop (1,1), degree 3
    "2,1;0,1;0,-1;0,2;0,1;0,1",              # coloop (2,1), degree 4
    "1,-1;1,2;2,4;-1,-2;1,2;1,2;-1,-2",      # coloop (1,-1), degree 5
    "1;2;3;-1",                              # degree 3
    "1;-2;3;1;2;-1",                         # degree 5
)


def test_recurrence_oracle_partition_of_unity_beyond_degree_two():
    """sum_(j in Z^s) B_X(x - j) = 1 exactly, on the quarter grid of the
    unit cell (knots and, for the coloop configurations, the lines where
    B_X jumps) and at two generic points: the oracle holds past the
    library's planar fiber cap."""
    rng = random.Random(31)
    for text in HIGH_DEGREE:
        cfg = parse_vector_config(text)
        assert cfg.box_degree >= 3
        oracle = recurrence_oracle(cfg)
        cell = [tuple(F(k, 4) for k in c)
                for c in itertools.product(range(4), repeat=cfg.dim)]
        generic = [tuple(F(rng.randint(1, 96), 97) for _ in range(cfg.dim))
                   for _ in range(2)]
        shifts = list(itertools.product(*(
            range(-sum(max(0, v[k]) for v in cfg.vectors) - 1,
                  -sum(min(0, v[k]) for v in cfg.vectors) + 2)
            for k in range(cfg.dim))))
        for pt in cell + generic:
            total = sum(oracle(tuple(x - j for x, j in zip(pt, js)))
                        for js in shifts)
            assert total == 1, (text, pt)


def test_recurrence_oracle_ignores_the_order_of_x():
    """Shuffling X changes the first basis and the order of the distinct
    vectors, so the recurrence takes another path to the same values."""
    rng = random.Random(41)
    for text in HIGH_DEGREE:
        cfg = parse_vector_config(text)
        zono = zonotope_support(cfg)
        oracle = recurrence_oracle(cfg)
        grid = [pt for pt in quarter_grid(cfg) if closed_inside(zono, pt)]
        points = rng.sample(grid, 12) + [
            tuple(F(rng.randint(-40, 40), 7) for _ in range(cfg.dim))]
        for _ in range(2):
            shuffled = VectorConfig(cfg.dim, tuple(rng.sample(cfg.vectors,
                                                               cfg.count)))
            shuffled_oracle = recurrence_oracle(shuffled)
            for pt in points:
                assert shuffled_oracle(pt) == oracle(pt), (text, str(shuffled), pt)


def test_univariate_mass_is_one():
    for m in range(1, 7):
        s = cardinal_bspline(m)
        mass = F(0)
        for k, piece in enumerate(s.pieces[1:-1]):
            anti = piece.antiderivative()
            mass += anti.eval(k + 1) - anti.eval(k)
        assert mass == 1


# -- unimodularity and conjecture ---------------------------------------------------


def test_unimodular_a2():
    assert unimodular_check(A2).unimodular


def test_unimodular_b2_witness():
    report = unimodular_check(B2)
    assert not report.unimodular
    assert report.witness_indices == (1, 3)
    assert abs(report.witness_det) == 2


def test_unimodular_univariate():
    assert unimodular_check(ones(5)).unimodular


@pytest.mark.parametrize("text, unimodular, witness", [
    ("2;2;2", True, None),
    ("0,1;2,-2;2,-1", True, None),
    ("3,0;0,3;3,3", True, None),
    ("2;4", False, ((1,), 4)),
    ("2,0;0,2;2,2;2,-2", False, ((2, 3), -8)),
])
def test_unimodular_on_the_generated_lattice(text, unimodular, witness):
    """Minors are measured against the lattice X generates, not Z^s: a
    scaled or sheared unimodular X passes and gives an invertible A_X."""
    cfg = parse_vector_config(text)
    report = unimodular_check(cfg)
    assert report.unimodular == unimodular
    if witness:
        assert (report.witness_indices, report.witness_det) == witness
    assert conjecture_verdict(cfg).invertible == unimodular


def test_x1_matrix_and_determinant():
    cfg = ones(2)
    matrix = conjecture_matrix(cfg, semi_integral_interior_points(cfg))
    rows = [[matrix.get(i, j) for j in range(3)] for i in range(3)]
    assert rows == [
        [F(1, 2), F(1, 2), F(0)],
        [F(0), F(1), F(0)],
        [F(0), F(1, 2), F(1, 2)],
    ]
    assert mat_determinant(matrix) == F(1, 4)


def test_a2_verdict():
    v = conjecture_verdict(A2)
    assert len(v.omega) == 7
    assert v.unimodular
    assert v.determinant == F(1, 64)  # golden sign under lexicographic order
    assert v.invertible


def test_b2_counterexample():
    v = conjecture_verdict(B2)
    assert not v.unimodular
    assert v.determinant == 0
    assert not v.invertible


def test_univariate_family_nonsingular():
    for m in range(1, 7):
        v = conjecture_verdict(ones(m + 1))
        assert len(v.omega) == 2 * m + 1
        assert v.unimodular
        assert v.invertible


def test_mixed_sign_univariate_configuration():
    # (1), (-1): the hat on [-1, 1]; still unimodular and invertible
    cfg = VectorConfig(1, ((1,), (-1,)))
    z = zonotope_support(cfg)
    assert z == ((F(-1),), (F(1),))
    v = conjecture_verdict(cfg)
    assert len(v.omega) == 3
    assert v.unimodular
    assert v.invertible
    assert box_spline_eval(cfg, (0,)) == 1
    # one vector of either sign: the half-open indicator of xi [0, 1)
    for xi in (2, -1, -2, -3, -7):
        one = VectorConfig(1, ((xi,),))
        oracle = recurrence_oracle(one)
        assert box_spline_eval(one, (0,)) == F(1, abs(xi))
        assert box_spline_eval(one, (xi,)) == 0
        for x in (F(k, 6) for k in range(-50, 51)):
            assert box_spline_eval(one, (x,)) == oracle((x,)), (xi, x)


def test_univariate_cache_ignores_the_order_of_x():
    """B_X does not depend on the order of X: every ordering of one multiset
    builds the same spline, and each configuration's integer-knot table
    evaluates to the recurrence oracle's value."""
    orders = list(itertools.permutations((1, 2, 3, -1)))
    values = {box_spline_eval(VectorConfig(1, tuple((xi,) for xi in order)),
                              (F(5, 2),))
              for order in orders}
    assert values == {recurrence_oracle(parse_vector_config("1;2;3;-1"))((F(5, 2),))}
    assert len({univariate_box_spline(order) for order in orders}) == 1


@pytest.mark.parametrize("lengths, error", [
    ((0, 1), RankDeficiencyError),
    ((1, 2, 0), RankDeficiencyError),
    ((0,) * 20, RankDeficiencyError),  # refused before the degree check
    ((1.5, 1), FormatError),
    ((True, 1), FormatError),
    ((F(1), 1), FormatError),
    ((1, "2"), FormatError),
], ids=["zero", "zero-last", "zero-past-cap", "float", "bool", "fraction", "str"])
def test_univariate_box_spline_refuses_bad_lengths(lengths, error):
    with pytest.raises(error):
        univariate_box_spline(lengths)


@st.composite
def univariate_lengths(draw):
    """2 to 13 nonzero lengths with |xi| <= 5 of either sign, in drawn order;
    at most four distinct values keep the recurrence oracle fast."""
    pool = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=1,
                         max_size=4, unique=True))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=13))


@given(univariate_lengths())
@settings(max_examples=20, deadline=None)
def test_univariate_table_matches_spline_eval_and_recurrence_oracle(lengths):
    """The 1-D route looks a piece up among integer knots at floor(x). A
    floor-based lookup would go wrong at a knot or just beside one, so the
    points are every knot, every knot +- 1/1000003, every half-integer of
    the support and points outside it on both sides."""
    cfg = VectorConfig(1, tuple((xi,) for xi in lengths))
    spline = univariate_box_spline(tuple(sorted(lengths)))
    oracle = recurrence_oracle(cfg)
    lo, hi = spline.knots[0], spline.knots[-1]
    eps = F(1, 1000003)
    xs = [k + e for k in spline.knots for e in (-eps, 0, eps)]
    xs += [F(2 * k + 1, 2) for k in range(int(lo), int(hi))]
    xs += [lo - 7, lo - 1, lo - F(1, 2), hi + F(1, 2), hi + 1, hi + 7]
    for x in xs:
        assert box_spline_eval(cfg, (x,)) == spline_eval(spline, x) \
            == oracle((x,)), (lengths, x)


def univariate_scatter_points():
    """(configuration, point) pairs for 2 to 13 vectors in 1-D at
    boxeval-scatter-style points x = sum t_i xi_i, t_i in (0, 1), with
    every configuration's table already built."""
    rng = random.Random(25)
    configs = [parse_vector_config(text)
               for text in ("1;2", "1;2;3", "1;1;1", "1;2;3;-1")]
    configs += [ones(m) for m in range(4, 14)]
    points = []
    for cfg in configs:
        box_spline_eval(cfg, (F(1, 2),))  # builds the table
        for _ in range(20):
            t = [F(rng.randint(1, 1000002), 1000003)] + [
                F(rng.randint(1, q - 1), q)
                for q in (rng.randint(2, 16) for _ in range(cfg.count - 1))]
            points.append((cfg, (sum(ti * v[0] for ti, v in zip(t, cfg.vectors)),)))
    return points


def test_univariate_route_makes_no_fraction_comparison(monkeypatch):
    """Counted at Fraction._richcmp, the hook of every Fraction comparison:
    the 1-D route evaluates scatter-style points with none, once the table
    is built."""
    points = univariate_scatter_points()
    comparisons = []
    richcmp = F._richcmp
    monkeypatch.setattr(F, "_richcmp", lambda self, other, op:
                        comparisons.append(op) or richcmp(self, other, op))
    values = [box_spline_eval(cfg, pt) for cfg, pt in points]
    monkeypatch.undo()
    assert comparisons == []
    assert all(value > 0 for value in values)


def test_univariate_route_never_calls_polynomial_eval(monkeypatch):
    """The 1-D route runs _horner on the table's integer rows: with
    Polynomial.eval made to raise, the scatter-style points still evaluate,
    to the values the pieces give."""
    points = univariate_scatter_points()
    expected = [spline_eval(univariate_box_spline(tuple(v[0] for v in cfg.vectors)),
                            pt[0]) for cfg, pt in points]

    def refuse(self, x):
        raise AssertionError("Polynomial.eval on the 1-D route")
    monkeypatch.setattr(Polynomial, "eval", refuse)
    values = [box_spline_eval(cfg, pt) for cfg, pt in points]
    monkeypatch.undo()
    assert values == expected


def univariate_census(entries, counts):
    """(configurations, nonsingular ones, exceptions) over every multiset of
    ``entries`` with a size in ``counts``; an exception is a configuration
    whose A_X is invertible exactly when X is not unimodular."""
    total = nonsingular = 0
    exceptions = []
    for count in counts:
        for vectors in itertools.combinations_with_replacement(entries, count):
            cfg = VectorConfig(1, tuple((xi,) for xi in vectors))
            verdict = conjecture_verdict(cfg)
            total += 1
            nonsingular += verdict.invertible
            if verdict.invertible != unimodular_check(cfg).unimodular:
                exceptions.append(str(cfg))
    return total, nonsingular, exceptions


def test_univariate_census_invertible_exactly_for_equal_lengths():
    """The paper's univariate statement on small grids: det A_X != 0
    exactly when X is unimodular on the lattice it generates (all |xi|
    equal). Evidence on 660 configurations, not a proof."""
    assert univariate_census((-3, -2, -1, 1, 2, 3), range(2, 6)) == (455, 54, [])
    assert univariate_census((1, 2, 3, 4), range(2, 7)) == (205, 20, [])


def test_collocation_consistency():
    """Columns of A_{X_m} are translated B-spline evaluations at Omega:
    entry (i, j) is B_m(w_i - (2 w_j - sum X))."""
    for m in (1, 2, 3):
        cfg = ones(m + 1)
        omega = semi_integral_interior_points(cfg)
        total = cfg.vector_sum()[0]
        matrix = conjecture_matrix(cfg, semi_integral_interior_points(cfg))
        b = cardinal_bspline(m)
        for i, (wi,) in enumerate(omega):
            for j, (wj,) in enumerate(omega):
                assert matrix.get(i, j) == spline_eval(b, wi - (2 * wj - total))


def test_degree2_path_matches_convolution_oracle():
    """Independent dual route for the polygon-clipping evaluator: adding a
    vector a to a configuration convolves its box spline along [0, a], so
    B_{B2}(x) = integral over t in [0,1] of B_{A2}(x + t*(1,-1)). The
    integrand is continuous piecewise linear in t, so exact trapezoid
    integration between mesh-crossing breakpoints reproduces it exactly."""
    def convolution_oracle(x1, x2):
        breaks = {F(0), F(1)}
        for k in range(-6, 7):
            for t in (F(k) - x1, x2 - F(k), (F(k) - x1 + x2) / 2):
                if 0 < t < 1:
                    breaks.add(t)
        ts = sorted(breaks)
        total = F(0)
        for a, b in zip(ts, ts[1:]):
            fa = box_spline_eval(A2, (x1 + a, x2 - a))
            fb = box_spline_eval(A2, (x1 + b, x2 - b))
            total += (b - a) * (fa + fb) / 2
        return total

    rng = random.Random(2718)
    for _ in range(25):
        x1 = F(rng.randint(-6, 10), 4)
        x2 = F(rng.randint(-2, 14), 4)
        assert box_spline_eval(B2, (x1, x2)) == convolution_oracle(x1, x2)


def test_omega_scatters_enough_for_forced_vanishing():
    """Why nonsingularity of the univariate family is forced: a combination
    vanishing on all of Omega would have 2m+1 = (m+1) + m zeros on [0, m+1]
    with one in the open interior of every unit domain, which triggers the
    forced-vanishing criterion; the translates' independence then kills the
    coefficients. Verified structurally: Omega meets every domain interior
    and has exactly n + m members for the window's knot count."""
    for m in range(1, 7):
        cfg = ones(m + 1)
        omega = [p[0] for p in semi_integral_interior_points(cfg)]
        n = m + 1  # knots 0..m+1 on the support window
        assert len(omega) == n + m
        for k in range(m + 1):
            assert any(F(k) < w < F(k + 1) for w in omega)


# -- doubled-integer assembly against the per-entry Fraction loop ----------------


BENCHMARK_BASES = ("1,0;1,1;0,1", "1,0;1,1;0,1;-1,1", "1,0;0,1;1,1;1,-1",
                   "2,1;1,2;1,0;0,1")
UNIMODULAR_U = [u for u in itertools.product((-1, 0, 1), repeat=4)
                if abs(u[0] * u[3] - u[1] * u[2]) == 1]


def image(u, cfg):
    return VectorConfig(2, tuple((u[0] * v[0] + u[1] * v[1],
                                  u[2] * v[0] + u[3] * v[1])
                                 for v in cfg.vectors))


def naive_matrix_entries(cfg, omega):
    """Reference assembly: one box_spline_eval per entry, on Fraction
    arguments."""
    total = cfg.vector_sum()
    entries = []
    for wi in omega:
        for wj in omega:
            arg = tuple(total[k] + wi[k] - 2 * wj[k] for k in range(cfg.dim))
            entries.append(box_spline_eval(cfg, arg))
    return tuple(entries)


def assert_matrix_matches_reference(cfg):
    omega = semi_integral_interior_points(cfg)
    assert conjecture_matrix(cfg, omega).entries == \
        naive_matrix_entries(cfg, omega)


@pytest.mark.parametrize("text", BENCHMARK_BASES)
def test_matrix_matches_reference_on_benchmark_images(text):
    assert len(UNIMODULAR_U) == 40
    base = parse_vector_config(text)
    for u in UNIMODULAR_U:
        assert_matrix_matches_reference(image(u, base))


@pytest.mark.parametrize("text", ["1,0;1,1;0,1;-1,1", "1,0;0,1;1,1;1,-1"])
def test_headline_zero_has_a_kernel_vector_on_every_image(text):
    """The exact 0 of det A_X without Bareiss: on each of the 40 images U X
    of the two four-direction meshes, c_w = (-1)^(s_1 + s_2) with
    (s_1, s_2) = 2 U^-1 w is a nonzero kernel vector of A_UX, checked by
    one exact product. U^-1 is the adjugate times det U = +-1, a sign that
    no parity sees."""
    base = parse_vector_config(text)
    for u in UNIMODULAR_U:
        cfg = image(u, base)
        omega = semi_integral_interior_points(cfg)
        matrix = conjecture_matrix(cfg, omega)
        adjugate = ((u[3], -u[1]), (-u[2], u[0]))
        c = []
        for w in omega:
            s = [2 * (r[0] * w[0] + r[1] * w[1]) for r in adjugate]
            assert all(v.denominator == 1 for v in s)
            c.append((-1) ** int(sum(s)))
        assert all(sum(a * x for a, x in zip(matrix.row(i), c)) == 0
                   for i in range(matrix.rows)), u


def test_matrix_matches_reference_on_univariate_and_sublattice():
    for m in range(2, 14):
        assert_matrix_matches_reference(ones(m))
    for text in ("2", "1;2", "1;2;3", "1;1;1", "1;-2;1", "1,1;1,-1"):
        assert_matrix_matches_reference(parse_vector_config(text))


@st.composite
def fiber_configs(draw):
    """Configurations with m - s <= 2: the planar fiber route and the 1-D
    truncated-power route."""
    dim = draw(st.integers(1, 2))
    m = draw(st.integers(dim, dim + 2))
    vectors = tuple(tuple(draw(st.integers(-2, 2)) for _ in range(dim))
                    for _ in range(m))
    try:
        return VectorConfig(dim, vectors)
    except (RankDeficiencyError, DimensionError):
        assume(False)


@given(fiber_configs())
@settings(max_examples=25, deadline=None)
def test_matrix_matches_reference_on_fiber_configs(cfg):
    assert_matrix_matches_reference(cfg)


def reference_omega(cfg):
    """Reference enumeration of Omega on Fraction half-lattice points: the
    hull's bounding box bounds the coefficients, point_strictly_inside
    filters."""
    zono = zonotope_support(cfg)
    half = [tuple(F(c, 2) for c in col) for col in lattice_basis(cfg.vectors)]
    if cfg.dim == 1:
        step = half[0][0]
        lo, hi = zono[0][0], zono[1][0]
        ranges = [range(math.floor(lo / step) + 1, math.ceil(hi / step))]
    else:
        det = half[0][0] * half[1][1] - half[0][1] * half[1][0]
        xs = [v[0] for v in zono]
        ys = [v[1] for v in zono]
        k1s, k2s = [], []
        for cx in (min(xs), max(xs)):
            for cy in (min(ys), max(ys)):
                k1s.append((cx * half[1][1] - cy * half[1][0]) / det)
                k2s.append((-cx * half[0][1] + cy * half[0][0]) / det)
        ranges = [range(math.floor(min(k1s)), math.ceil(max(k1s)) + 1),
                  range(math.floor(min(k2s)), math.ceil(max(k2s)) + 1)]
    pts = []
    for ks in itertools.product(*ranges):
        q = tuple(sum(k * h[i] for k, h in zip(ks, half))
                  for i in range(cfg.dim))
        if point_strictly_inside(zono, q):
            pts.append(q)
    return tuple(sorted(pts))


def closed_inside(verts, pt):
    """Closed zonotope test by edge cross products (1-D: the segment)."""
    if len(pt) == 1:
        return verts[0][0] <= pt[0] <= verts[1][0]
    return all((b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0])
               >= 0 for a, b in zip(verts, verts[1:] + verts[:1]))


def random_configs(seed, count):
    rng = random.Random(seed)
    configs = []
    while len(configs) < count:
        dim = rng.randint(1, 2)
        vectors = tuple(tuple(rng.randint(-3, 3) for _ in range(dim))
                        for _ in range(rng.randint(dim, 5)))
        try:
            configs.append(VectorConfig(dim, vectors))
        except (RankDeficiencyError, DimensionError):
            continue
    return configs


def test_support_slack_classifies_like_the_hull():
    seen = {"inside": 0, "boundary": 0, "outside": 0}
    for cfg in random_configs(404, 60) + [A2, B2, ones(3)]:
        slack = boxspline._support_slack(cfg)
        zono = zonotope_support(cfg)
        lows = [2 * sum(min(0, v[k]) for v in cfg.vectors) - 2
                for k in range(cfg.dim)]
        highs = [2 * sum(max(0, v[k]) for v in cfg.vectors) + 2
                 for k in range(cfg.dim)]
        for c in itertools.product(*(range(lo, hi + 1)
                                     for lo, hi in zip(lows, highs))):
            pt = tuple(F(x, 2) for x in c)
            strict, closed = point_strictly_inside(zono, pt), closed_inside(zono, pt)
            assert (slack(c) > 0) == strict
            assert (slack(c) >= 0) == closed
            seen["inside" if strict else "boundary" if closed else "outside"] += 1
    assert all(seen.values())


def test_omega_matches_fraction_enumeration():
    compared = 0
    for cfg in random_configs(505, 60) + [A2, B2, ones(5),
                                          parse_vector_config("1,1;1,-1"),
                                          VectorConfig(2, ((2, 0), (0, 2), (2, 2)))]:
        try:
            omega = semi_integral_interior_points(cfg)
        except CapabilityError:  # over MAX_OMEGA_CANDIDATES
            continue
        assert omega == reference_omega(cfg)
        compared += 1
    assert compared >= 50


def test_rejected_arguments_evaluate_to_zero():
    rejected = 0
    for cfg in [parse_vector_config(t) for t in BENCHMARK_BASES] + [
            ones(4), parse_vector_config("1;-2;1")]:
        slack = boxspline._support_slack(cfg)
        twice = [tuple(2 * c for c in w)
                 for w in semi_integral_interior_points(cfg)]
        total = cfg.vector_sum()
        for wi in twice:
            for wj in twice:
                arg = tuple(2 * t + a - 2 * b for t, a, b in zip(total, wi, wj))
                if slack(arg) < 0:
                    rejected += 1
                    assert box_spline_eval(cfg, tuple(c / 2 for c in arg)) == 0
    assert rejected > 0


def test_matrix_evaluates_once_per_distinct_supported_argument(monkeypatch):
    cfg = parse_vector_config("2,1;1,2;1,0;0,1")
    omega = semi_integral_interior_points(cfg)
    zono = zonotope_support(cfg)
    total = cfg.vector_sum()
    arguments = {tuple(total[k] + wi[k] - 2 * wj[k] for k in range(2))
                 for wi in omega for wj in omega}
    supported = [a for a in arguments if closed_inside(zono, a)]
    calls = []
    original = boxspline.box_spline_eval

    def counting(config, point):
        calls.append(tuple(point))
        return original(config, point)

    monkeypatch.setattr(boxspline, "box_spline_eval", counting)
    conjecture_matrix(cfg, omega)
    assert len(arguments) == 247
    assert sorted(calls) == sorted(supported)
    assert len(calls) <= 247
