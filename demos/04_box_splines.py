#!/usr/bin/env python3
"""Box splines: the bivariate playground.

A list X of integer vectors defines the box spline B_X: the density of the
uniform measure on the unit cube pushed forward along t -> X t. Its support
is the zonotope of X, its degree is (number of vectors) - (dimension), and
its values at rational points are exact: fiber volumes (interval lengths or
clipped-polygon areas) in the plane, one truncated-power spline on the line,
never floats.
"""

import random
from fractions import Fraction as F

from splinezeros import (
    box_spline_eval,
    cardinal_bspline,
    parse_vector_config,
    point_strictly_inside,
    semi_integral_interior_points,
    spline_eval,
    zonotope_support,
)

A2 = parse_vector_config("1,0;1,1;0,1")
B2 = parse_vector_config("1,0;1,1;0,1;-1,1")

print("=" * 72)
print("Supports are zonotopes")
print("=" * 72)
for name, cfg in (("A2 (three vectors)", A2), ("B2 (four vectors)", B2)):
    z = zonotope_support(cfg)
    verts = ", ".join(f"({v[0]},{v[1]})" for v in z)
    print(f"{name}: {verts}")

print()
print("=" * 72)
print("Semi-integral interior points")
print("=" * 72)
for name, cfg in (("A2", A2), ("B2", B2)):
    omega = semi_integral_interior_points(cfg)
    print(f"{name}: |Omega| = {len(omega)}")
print("A2's seven points:",
      ", ".join(f"({p[0]},{p[1]})"
                for p in semi_integral_interior_points(A2)))

print()
print("=" * 72)
print("Exact evaluation")
print("=" * 72)
print(f"B_A2(1, 1)     = {box_spline_eval(A2, (1, 1))}   (the center)")
print(f"B_A2(1/2, 1/2) = {box_spline_eval(A2, (F(1, 2), F(1, 2)))}")
print(f"B_A2(5, 5)     = {box_spline_eval(A2, (5, 5))}   (outside the support)")
print(f"B_B2(1/2, 3/2) = {box_spline_eval(B2, (F(1, 2), F(3, 2)))}")

print()
print("=" * 72)
print("Central symmetry: B_X(x) = B_X(sum(X) - x)")
print("=" * 72)
rng = random.Random(7)
total = A2.vector_sum()
for _ in range(4):
    pt = (F(rng.randint(0, 8), 4), F(rng.randint(0, 8), 4))
    mirrored = (total[0] - pt[0], total[1] - pt[1])
    v1, v2 = box_spline_eval(A2, pt), box_spline_eval(A2, mirrored)
    print(f"  B_A2({pt[0]},{pt[1]}) = {v1} = B_A2({mirrored[0]},{mirrored[1]})")
    assert v1 == v2

print()
print("=" * 72)
print("The univariate family collapses to cardinal B-splines")
print("=" * 72)
for m in (1, 2):
    cfg = parse_vector_config(";".join(["1"] * (m + 1)))
    b = cardinal_bspline(m)
    x = F(2 * m + 1, 3)
    box = box_spline_eval(cfg, (x,))  # 1-D: the truncated-power route
    classic = spline_eval(b, x)
    print(f"  m = {m}: B_X({x}) = {box}, B_{m}({x}) = {classic}")
    assert box == classic

print()
print("every Omega point sits strictly inside its zonotope:",
      all(point_strictly_inside(zonotope_support(cfg), p)
          for cfg in (A2, B2)
          for p in semi_integral_interior_points(cfg)))
