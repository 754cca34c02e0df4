#!/usr/bin/env python3
"""How many zeros can a spline have?

A polynomial of degree m has at most m roots. Gluing polynomials into a
C^(m-1) spline with knots a_0 < ... < a_n changes the game: the smoothness
constraint caps the number of *separated* zeros at n + m - 1, far below the
naive m-per-domain count. This script builds a few splines and walks through
their exact zero censuses.
"""

from fractions import Fraction as F

from splinezeros import (
    Polynomial,
    check_zero_bound,
    insert_knot,
    piecewise_linear,
    separated_zero_count,
    spline_from_truncated_powers,
    zigzag_spline,
)

print("=" * 72)
print("1. A pure polynomial viewed as a spline")
print("=" * 72)
# x^2 - 2 on the window [0, 2]: knots declared but not genuine
s = spline_from_truncated_powers(Polynomial([-2, 0, 1]), (), (0, 2), 2)
verdict = check_zero_bound(s)
print(f"x^2 - 2 on [0, 2]: Z = {verdict.Z} (the zero at sqrt(2) is counted "
      f"without ever being located)")
print(f"bound n + m - 1 = {verdict.bound}, gross bound m(n+1) = "
      f"{verdict.degree * (verdict.n + 1)}\n")

print("=" * 72)
print("2. The zigzag: the bound is sharp")
print("=" * 72)
zz = zigzag_spline(4)
z, report = separated_zero_count(zz, 0, 4)
print("degree-1 zigzag through values +1, -1, +1, -1, +1 on knots 0..4")
for d in report.domains:
    print(f"  domain [{d.left}, {d.right}]: "
          f"{d.open_interior_distinct_roots} interior zero(s)")
print(f"Z = {z} = n + m - 1 = {4 + 1 - 1}  (equality: the bound is tight)\n")

print("=" * 72)
print("3. Plateaus do not create new zeros")
print("=" * 72)
touching = piecewise_linear([0, 1, 2], [1, 0, 1])
plateau = piecewise_linear([0, 1, 2, 3], [1, 0, 0, 1])
z_touch, _ = separated_zero_count(touching, 0, 2)
z_flat, rep = separated_zero_count(plateau, 0, 3)
print(f"V-shape touching zero at one knot:        Z = {z_touch}")
print(f"same shape with a flat zero domain [1,2]: Z = {z_flat}")
print("the identically-zero stretch is one connected component, so widening")
print("a zero into a plateau leaves the census unchanged\n")

print("=" * 72)
print("4. Synthetic knots cannot inflate the bound")
print("=" * 72)
s2 = insert_knot(zz, F(1, 3))
v2 = check_zero_bound(s2)
print(f"after inserting a synthetic knot at 1/3: Z = {v2.Z}, "
      f"bound still {v2.bound}")
print("(the checker normalizes away non-genuine knots before counting)")
