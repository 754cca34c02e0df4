#!/usr/bin/env python3
"""Extending a spline to compact support.

Any degree-m spline on knots a_0 < ... < a_n can be continued past its
window so that it dies off completely within m extra unit steps on each
side, staying C^(m-1) throughout. The continuation is a truncated-power
sum: m+1 jumps per side, read off an exact inverse that depends on m alone,
plus the spline's own jumps at its interior knots.

The payoff: compactly supported splines have maximal-order zeros at their
support ends, which pins their interior zero count to at most n - m - 1, and
chaining through the extension yields the general bound n + m - 1.
"""

from splinezeros import (
    GeneratorConfig,
    Polynomial,
    Spline,
    check_interior_bound,
    extend_compact,
    normalize,
    random_spline,
    spline_eval,
)

print("=" * 72)
print("1. The simplest case: extending the constant 1")
print("=" * 72)
one = Spline(1, (0, 1), (Polynomial([1]), Polynomial([1]), Polynomial([1])))
trapezoid = extend_compact(one)
print(f"knots: {[str(k) for k in trapezoid.knots]}")
for knot, piece in zip(["-inf"] + [str(k) for k in trapezoid.knots],
                       trapezoid.pieces):
    print(f"  right of {knot}: {[str(c) for c in piece.coeffs]}")
print("a trapezoid: ramp up, plateau, ramp down\n")

print("=" * 72)
print("2. A random degree-3 spline")
print("=" * 72)
cfg = GeneratorConfig(seed=12345, degree=3, interior_knots=3)
s = random_spline(cfg)
sn = normalize(s)
ext = extend_compact(s)
print(f"original window: [{sn.knots[0]}, {sn.knots[-1]}], "
      f"{len(sn.knots)} knots")
print(f"extension window: [{ext.knots[0]}, {ext.knots[-1]}], "
      f"{len(ext.knots)} knots")
probe = [sn.knots[0], (sn.knots[0] + sn.knots[-1]) / 2, sn.knots[-1]]
for x in probe:
    assert spline_eval(ext, x) == spline_eval(s, x)
print(f"coincides with the original at every point of the window "
      f"(checked at {', '.join(str(x) for x in probe)})")
print(f"vanishes identically outside: end pieces are zero -> "
      f"{ext.pieces[0].is_zero and ext.pieces[-1].is_zero}\n")

print("=" * 72)
print("3. The interior bound on the extension")
print("=" * 72)
verdict = check_interior_bound(ext)
print(f"applicable (order-m zeros at both support ends): {verdict.applicable}")
print(f"interior Z = {verdict.interior_Z} <= n' - m - 1 = "
      f"{verdict.interior_bound}: {verdict.passed}")
print(f"closed-window Z = {verdict.report.component_count} <= n' - m + 1 = "
      f"{ext.n - ext.degree + 1} (implied by the interior bound)")
