#!/usr/bin/env python3
"""Cardinal B-splines, built twice and compared to the last bit.

B_m is the minimal-support degree-m spline on knots 0..m+1. The library
assembles it from the truncated-power closed form and, independently, by
repeated exact integration of the unit indicator; the two piecewise
polynomials must agree coefficient by coefficient.
"""

import random
from fractions import Fraction as F

from splinezeros import (
    cardinal_bspline,
    convolution_bspline_pieces,
    separated_zero_count,
    spline_eval,
    zero_order_at,
)

print("=" * 72)
print("Two constructions, one spline")
print("=" * 72)
for m in range(1, 6):
    b = cardinal_bspline(m)
    conv = convolution_bspline_pieces(m)
    match = b.pieces[1:-1] == conv
    print(f"B_{m}: truncated-power pieces == convolution pieces: {match}")
    assert match

print()
print("=" * 72)
print("The shape of B_3")
print("=" * 72)
b3 = cardinal_bspline(3)
for k, piece in enumerate(b3.pieces[1:-1]):
    print(f"  on [{k}, {k + 1}]: coefficients {[str(c) for c in piece.coeffs]}")
print(f"value at the center: B_3(2) = {spline_eval(b3, 2)}")
print(f"zero order at the support ends: {zero_order_at(b3, 0)} "
      f"(= degree, maximal)")

print()
print("=" * 72)
print("Positivity inside the support")
print("=" * 72)
for m in (2, 4, 6):
    s = cardinal_bspline(m)
    z, _ = separated_zero_count(s, 0, m + 1)
    print(f"B_{m}: zero-set components on [0, {m + 1}]: {z} "
          f"(just the two support endpoints)")

print()
print("=" * 72)
print("Partition of unity, exactly")
print("=" * 72)
rng = random.Random(0)
m = 4
b = cardinal_bspline(m)
for _ in range(5):
    x = F(rng.randint(0, 60), 6)
    terms = [spline_eval(b, x - j) for j in range(-m - 1, int(x) + 2)]
    total = sum(terms)
    nonzero = sum(1 for t in terms if t)
    print(f"  sum_j B_{m}(x - j) at x = {x}: {total} ({nonzero} nonzero terms)")
    assert total == 1
