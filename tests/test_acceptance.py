"""Acceptance gate: one test per exit criterion, every assertion exact
(tolerance zero), runtime budgets enforced. Each criterion prints a PASS/FAIL
line (visible with `pytest -s` or in captured output).

Run: pytest tests/test_acceptance.py -v -s
"""

import random
import time
from fractions import Fraction as F

from splinezeros import (
    GeneratorConfig,
    VectorConfig,
    box_spline_eval,
    cardinal_bspline,
    check_interior_bound,
    conjecture_verdict,
    convolution_bspline_pieces,
    normalize,
    random_spline,
    run_verification_suite,
    semi_integral_interior_points,
    separated_zero_count,
    spline_eval,
    unimodular_check,
    zero_order_at,
)
from splinezeros.boxspline import conjecture_matrix
from splinezeros.linalg import mat_determinant
from splinezeros.spline import _verify_smoothness

A2 = VectorConfig(2, ((1, 0), (1, 1), (0, 1)))
B2 = VectorConfig(2, ((1, 0), (1, 1), (0, 1), (-1, 1)))


def ones(count):
    return VectorConfig(1, tuple((1,) for _ in range(count)))


def _report(number, description, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} PASS - {description} [{elapsed:.2f}s < {budget}s]")


def _fail_guard(number, description):
    print(f"ACCEPTANCE {number} FAIL - {description}")


def test_criterion_1_conjecture_unimodular_a2():
    started = time.monotonic()
    try:
        verdict = conjecture_verdict(A2)
        assert len(verdict.omega) == 7
        assert abs(verdict.determinant) == F(1, 64)
        # sign under the documented lexicographic ordering (golden: positive)
        assert verdict.determinant == F(1, 64)
        assert verdict.unimodular and verdict.invertible
    except BaseException:
        _fail_guard(1, "A2 determinant 1/64")
        raise
    _report(1, "A2: |Omega| = 7, det(A) = +1/64 exactly", started, 1.0)


def test_criterion_2_conjecture_counterexample_b2():
    started = time.monotonic()
    try:
        report = unimodular_check(B2)
        assert not report.unimodular
        assert abs(report.witness_det) == 2
        verdict = conjecture_verdict(B2)
        assert verdict.determinant == 0
        assert not verdict.invertible
    except BaseException:
        _fail_guard(2, "B2 determinant exactly 0")
        raise
    _report(2, "B2: non-unimodular (witness det 2), det(A) = 0 exactly",
            started, 5.0)


def test_criterion_3_univariate_family():
    started = time.monotonic()
    try:
        for m in range(1, 7):
            verdict = conjecture_verdict(ones(m + 1))
            assert len(verdict.omega) == 2 * m + 1
            assert verdict.determinant != 0
        hand = [
            [F(1, 2), F(1, 2), F(0)],
            [F(0), F(1), F(0)],
            [F(0), F(1, 2), F(1, 2)],
        ]
        matrix = conjecture_matrix(ones(2), semi_integral_interior_points(ones(2)))
        assert [[matrix.get(i, j) for j in range(3)] for i in range(3)] == hand
        det1 = mat_determinant(matrix)
        assert abs(det1) == F(1, 4)
        assert det1 == F(1, 4)  # golden sign, lexicographic ordering
    except BaseException:
        _fail_guard(3, "univariate family nonsingular")
        raise
    _report(3, "A_{X_m} nonsingular for m = 1..6, |Omega| = 2m+1, "
               "det(A_{X_1}) = +1/4", started, 10.0)


def test_criterion_4_zero_bound_property_suite():
    started = time.monotonic()
    try:
        witnesses_m1 = 0
        for m in range(1, 5):
            for n in range(2, 9):
                cfg = GeneratorConfig(seed=20240811, degree=m,
                                      interior_knots=n - 1)
                report = run_verification_suite("theorem9", cfg, 1000)
                assert report.violations == 0, (m, n)
                assert report.bound == n + m - 1
                if m == 1:
                    assert report.max_Z == report.bound  # zigzag achieves it
                    witnesses_m1 += len(report.witnesses)
        assert witnesses_m1 >= 1
    except BaseException:
        _fail_guard(4, "Z <= n + m - 1 on 28000 random splines")
        raise
    _report(4, "Z <= n+m-1 on 1000 splines per (m,n) in {1..4}x{2..8}, "
               "0 violations, tightness witnessed", started, 60.0)


def test_criterion_5_extension_chain():
    started = time.monotonic()
    try:
        from splinezeros import extend_compact
        trial = 0
        for m in range(1, 5):
            for _ in range(50):
                cfg = GeneratorConfig(seed=777000 + trial, degree=m,
                                      interior_knots=1 + trial % 5)
                s = random_spline(cfg)
                sn = normalize(s)
                ext = extend_compact(s)
                a0, an = sn.window
                # coincidence: every original domain polynomial reappears
                for j in range(1, len(sn.knots)):
                    mid = (sn.knots[j - 1] + sn.knots[j]) / 2
                    assert spline_eval(ext, mid) == spline_eval(sn, mid)
                    from bisect import bisect_right
                    assert ext.pieces[bisect_right(ext.knots, mid)] \
                        == sn.pieces[j]
                # global smoothness, re-checked explicitly
                _verify_smoothness(ext.degree,
                                   [(k.numerator, k.denominator) for k in ext.knots],
                                   ext.pieces)
                # vanishing outside the widened window
                assert ext.pieces[0].is_zero and ext.pieces[-1].is_zero
                assert ext.knots[0] >= a0 - m and ext.knots[-1] <= an + m
                # interior bound for the extension's own knot count
                verdict = check_interior_bound(ext)
                assert verdict.applicable and verdict.passed, trial
                # the closed-window bound follows from the interior one
                closed_bound = normalize(ext).n - m + 1
                assert verdict.report.component_count <= closed_bound, trial
                trial += 1
    except BaseException:
        _fail_guard(5, "extension chain on 200 splines")
        raise
    _report(5, "200 extensions: exact coincidence, C^(m-1), compact support, "
               "interior Z <= n'-m-1", started, 60.0)


def test_criterion_6_bspline_oracle_equivalence():
    started = time.monotonic()
    try:
        rng = random.Random(20240811)
        for m in range(1, 9):
            s = cardinal_bspline(m)
            assert s.pieces[1:-1] == convolution_bspline_pieces(m)
            assert s.knots == tuple(F(k) for k in range(m + 2))
            assert s.pieces[0].is_zero and s.pieces[-1].is_zero
            assert zero_order_at(s, 0) == m
            assert zero_order_at(s, m + 1) == m
            z, report = separated_zero_count(s, 0, m + 1)
            assert z == 2
            assert all(d.open_interior_distinct_roots == 0
                       for d in report.domains)
            for _ in range(20):
                x = F(rng.randint(0, 12 * (m + 2)), 12)
                total = sum(spline_eval(s, x - j) for j in range(-m - 1, int(x) + 2))
                assert total == 1
    except BaseException:
        _fail_guard(6, "B-spline two-construction equivalence")
        raise
    _report(6, "B_m oracle equivalence m = 1..8, support/order/positivity/"
               "partition of unity exact", started, 10.0)


def test_criterion_7_box_spline_univariate_consistency():
    started = time.monotonic()
    try:
        rng = random.Random(424242)
        for m in (1, 2):
            cfg = ones(m + 1)
            b = cardinal_bspline(m)
            for _ in range(50):
                x = F(rng.randint(0, 12 * (m + 1)), 12)
                # 1-D, so box_spline_eval takes the truncated-power route
                assert box_spline_eval(cfg, (x,)) == spline_eval(b, x)
    except BaseException:
        _fail_guard(7, "univariate box spline vs cardinal B-spline")
        raise
    _report(7, "B_{X_m} box-spline evaluation equals B_m at 50 random points, "
               "m = 1, 2", started, 10.0)


def test_criterion_8_vanishing_consistency():
    started = time.monotonic()
    try:
        # dedicated suite; criteria 4/5 embed the same consistency check in
        # every one of their trials
        for m in range(1, 5):
            cfg = GeneratorConfig(seed=606060 + m, degree=m, interior_knots=4)
            report = run_verification_suite("corollary10", cfg, 250)
            assert report.violations == 0
    except BaseException:
        _fail_guard(8, "forced-vanishing implication")
        raise
    _report(8, "vanishing-criterion implication never fails (1000 dedicated "
               "trials + embedded in every other suite)", started, 60.0)


def test_criterion_9_derivative_zero_propagation():
    started = time.monotonic()
    try:
        for m in (2, 3, 4):
            cfg = GeneratorConfig(seed=909090 + m, degree=m, interior_knots=3)
            report = run_verification_suite("rolle", cfg, 100)
            assert report.violations == 0
    except BaseException:
        _fail_guard(9, "derivative zero propagation")
        raise
    _report(9, "open-support Z(s') >= Z(s) + 1 on every compact-support "
               "trial, m = 2..4", started, 60.0)
