#!/usr/bin/env python3
"""The collocation-matrix invertibility question, settled exactly.

For a configuration X, collect the semi-integral interior points Omega of
its zonotope and form A_X with entries B_X(sum(X) + w_i - 2 w_j). Is A_X
always invertible? Exact arithmetic gives a clean split:

  * unimodular X (every s x s minor in {-1, 0, 1} once divided by the
    determinant of the lattice X generates): yes in every case this
    library can reach, including the full univariate family;
  * drop unimodularity and a four-vector planar configuration already has
    det A_X = 0 -- a determinant so structurally zero that floating point
    could never certify it.
"""

from splinezeros import (
    VectorConfig,
    conjecture_verdict,
    format_matrix,
    parse_vector_config,
    unimodular_check,
)

print("=" * 72)
print("The unimodular planar case: A2")
print("=" * 72)
a2 = parse_vector_config("1,0;1,1;0,1")
v = conjecture_verdict(a2)
print(f"|Omega| = {len(v.omega)}")
print(format_matrix(v.matrix))
print(f"det = {v.determinant}  -> invertible: {v.invertible}\n")

print("=" * 72)
print("Unimodularity dropped: B2")
print("=" * 72)
b2 = parse_vector_config("1,0;1,1;0,1;-1,1")
u = unimodular_check(b2)
print(f"unimodular: {u.unimodular} "
      f"(witness minor {u.witness_indices} has det {u.witness_det})")
v = conjecture_verdict(b2)
print(f"|Omega| = {len(v.omega)}, matrix is {v.matrix.rows}x{v.matrix.cols}")
print(f"det = {v.determinant}  -> invertible: {v.invertible}")
print("(an exact zero: symbolic elimination, no rounding anywhere)\n")

print("=" * 72)
print("The univariate family: always nonsingular")
print("=" * 72)
for m in range(1, 7):
    cfg = VectorConfig(1, tuple((1,) for _ in range(m + 1)))
    v = conjecture_verdict(cfg)
    print(f"  m = {m}: |Omega| = {len(v.omega):2d}, det = {v.determinant}")
    assert v.invertible
print("\nWhy it works: a vanishing combination of the translated B-splines")
print("would have 2m+1 scattered zeros on [0, m+1] -- enough to force the")
print("whole combination to vanish there, which independence of the")
print("translates forbids.")
