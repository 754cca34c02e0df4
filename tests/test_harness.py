import contextlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import splinezeros.harness as harness
import splinezeros.polynomial as polynomial
import splinezeros.spline as spline
from splinezeros import (
    GeneratorConfig,
    Polynomial,
    Spline,
    check_zero_bound,
    extend_compact,
    normalize,
    piecewise_linear,
    random_spline,
    run_verification_suite,
    zigzag_spline,
)
from splinezeros.errors import CapabilityError, DegreeError, FormatError
from splinezeros.spline import spline_to_document


# -- reference generator: the Fraction-based draw and assembly ------------------


def _random_rational(rng, num_bound, den_bound):
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def _random_knot(rng, lo, hi, den_bound):
    den = rng.randint(1, den_bound)
    lowest = math.floor(lo * den) + 1
    highest = math.ceil(hi * den) - 1
    if lowest > highest:
        return (lo + hi) / 2
    return Fraction(rng.randint(lowest, highest), den)


def _power_by_products(c, knot, m):
    """c (x - knot)^m as a product of m linear factors: no binomial sum."""
    term = Polynomial([c])
    for _ in range(m):
        term = term * Polynomial((-knot, 1))
    return term


def reference_random_spline(cfg, trial=0):
    """random_spline drawn and assembled on Fractions: a knot set of
    Fraction candidates, Fraction coefficients, the knots of the
    truncated-power sum sorted from a set with the jumps looked up in a
    dict, and each jump's power built from linear factors. The library must
    build the same spline from the same draws."""
    rng = random.Random(harness._trial_seed(cfg.seed, trial))
    lo, hi = Fraction(0), Fraction(cfg.interior_knots + 1)
    knots = set()
    attempts = 0
    while len(knots) < cfg.interior_knots:
        candidate = _random_knot(rng, lo, hi, cfg.denominator_bound)
        if lo < candidate < hi:
            knots.add(candidate)
        attempts += 1
        if attempts > 200 * (cfg.interior_knots + 1):
            raise FormatError("knot range too tight")

    def draw_base():
        return Polynomial(
            _random_rational(rng, cfg.numerator_bound, cfg.denominator_bound)
            for _ in range(cfg.degree + 1))

    base = draw_base()
    if cfg.interior_knots == 0:
        while base.is_zero:
            base = draw_base()
    jump_at = {}
    for knot in sorted(knots):
        coeff = Fraction(0)
        while coeff == 0:
            coeff = _random_rational(rng, cfg.numerator_bound,
                                     cfg.denominator_bound)
        jump_at[knot] = coeff
    all_knots = sorted({lo, hi} | set(jump_at))
    pieces = [base]
    for knot in all_knots:
        if knot in jump_at:
            pieces.append(pieces[-1] + _power_by_products(jump_at[knot], knot,
                                                          cfg.degree))
        else:
            pieces.append(pieces[-1])
    return Spline(cfg.degree, tuple(all_knots), tuple(pieces))


@pytest.mark.parametrize("den_bound", range(1, harness.MAX_DENOMINATOR_BOUND + 1))
def test_random_spline_matches_fraction_reference(den_bound):
    """Same rng draws in the same order, so the integer generator builds the
    reference's spline: degrees 1..12, 0..30 interior knots, every
    denominator bound up to its cap and numerator bounds up to theirs."""
    num_bounds = (1, 2, 8, 97, harness.MAX_NUMERATOR_BOUND)
    for index in range(30):
        cfg = GeneratorConfig(seed=1000 * den_bound + index,
                              degree=1 + index % 12,
                              interior_knots=(7 * index + den_bound) % 31,
                              numerator_bound=num_bounds[index % 5],
                              denominator_bound=den_bound)
        trial = index % 3
        assert (spline_to_document(random_spline(cfg, trial))
                == spline_to_document(reference_random_spline(cfg, trial)))


def test_random_spline_deterministic():
    cfg = GeneratorConfig(seed=42, degree=3, interior_knots=4)
    assert random_spline(cfg, 7) == random_spline(cfg, 7)
    assert random_spline(cfg, 7) != random_spline(cfg, 8)


def test_random_spline_zero_interior_knots():
    cfg = GeneratorConfig(seed=1, degree=2, interior_knots=0)
    s = random_spline(cfg)
    assert s.knots == (0, 1)
    assert normalize(s).knots == (0, 1)
    assert not all(p.is_zero for p in s.pieces)


def test_random_spline_all_requested_knots_genuine():
    cfg = GeneratorConfig(seed=9, degree=2, interior_knots=5)
    for trial in range(20):
        s = random_spline(cfg, trial)
        assert len(s.knots) == 7
        assert normalize(s).knots == s.knots


def test_generator_config_validation():
    with pytest.raises(DegreeError):
        GeneratorConfig(seed=1, degree=0, interior_knots=1)
    with pytest.raises(FormatError):
        GeneratorConfig(seed=1, degree=1, interior_knots=-1)
    with pytest.raises(FormatError):
        GeneratorConfig(seed=1, degree=1, interior_knots=1, numerator_bound=0)
    for degree in (13, 200):
        with pytest.raises(DegreeError, match="MAX_CARDINAL_DEGREE"):
            GeneratorConfig(seed=1, degree=degree, interior_knots=1)
    assert GeneratorConfig(seed=1, degree=12, interior_knots=1).degree == 12
    for knots in (1000, 10**7):
        with pytest.raises(CapabilityError, match="MAX_INTERIOR_KNOTS"):
            GeneratorConfig(seed=1, degree=1, interior_knots=knots)
    assert GeneratorConfig(seed=1, degree=1, interior_knots=999).interior_knots == 999
    caps = (("numerator_bound", harness.MAX_NUMERATOR_BOUND, "MAX_NUMERATOR_BOUND"),
            ("denominator_bound", harness.MAX_DENOMINATOR_BOUND,
             "MAX_DENOMINATOR_BOUND"))
    for field, cap, name in caps:
        for value in (cap + 1, 10**1000):
            with pytest.raises(CapabilityError, match=name):
                GeneratorConfig(seed=1, degree=1, interior_knots=1,
                                **{field: value})
        assert getattr(GeneratorConfig(seed=1, degree=1, interior_knots=1,
                                       **{field: cap}), field) == cap


@pytest.mark.parametrize("field", ["seed", "degree", "interior_knots",
                                   "numerator_bound", "denominator_bound"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
def test_generator_config_requires_int_fields(field, value):
    """A non-int is refused, never truncated or coerced: interior_knots=2.5
    built 3 knots on [0, 3.5] and degree=2.5 raised a bare TypeError."""
    kwargs = dict(seed=1, degree=2, interior_knots=2)
    kwargs[field] = value
    with pytest.raises(FormatError, match=field):
        GeneratorConfig(**kwargs)


def test_suite_argument_validation():
    cfg = GeneratorConfig(seed=1, degree=1, interior_knots=1)
    with pytest.raises(FormatError):
        run_verification_suite("nope", cfg, 10)
    with pytest.raises(FormatError):
        run_verification_suite("theorem9", cfg, 0)
    with pytest.raises(DegreeError):
        run_verification_suite("rolle", cfg, 10)


def test_theorem_suite_injects_zigzag_for_degree_one():
    cfg = GeneratorConfig(seed=5, degree=1, interior_knots=3)
    report = run_verification_suite("theorem9", cfg, 10)
    assert report.trials == 11  # ten random + the deterministic corner case
    assert report.violations == 0
    assert report.max_Z == report.bound == 4
    assert len(report.witnesses) >= 1
    zz = zigzag_spline(4)
    assert any(doc == harness.spline_to_document(zz)
               for doc in report.witnesses)


def test_report_deterministic_modulo_elapsed():
    cfg = GeneratorConfig(seed=99, degree=2, interior_knots=3)
    docs = []
    for _ in range(2):
        report = run_verification_suite("theorem9", cfg, 25)
        doc = json.loads(report.to_json())
        doc.pop("elapsed_ms")
        docs.append(json.dumps(doc, sort_keys=True))
    assert docs[0] == docs[1]


def test_report_schema_fields():
    cfg = GeneratorConfig(seed=3, degree=1, interior_knots=2)
    doc = run_verification_suite("corollary10", cfg, 5).to_document()
    assert list(doc) == ["command", "seed", "trials", "violations", "max_Z",
                         "bound", "witnesses", "elapsed_ms"]
    assert doc["command"] == "corollary10"
    assert doc["seed"] == 3
    assert doc["violations"] == 0


def test_witness_cap():
    cfg = GeneratorConfig(seed=11, degree=1, interior_knots=1)
    report = run_verification_suite("theorem9", cfg, 400)
    assert len(report.witnesses) <= harness.MAX_WITNESSES


def test_all_kinds_run_clean():
    for kind, degree in (("theorem9", 2), ("prop5", 2), ("corollary10", 3),
                         ("extension", 3), ("rolle", 2)):
        cfg = GeneratorConfig(seed=2024, degree=degree, interior_knots=3)
        report = run_verification_suite(kind, cfg, 15)
        assert report.violations == 0, kind


def test_stubbed_violating_checker_counts_violations(monkeypatch):
    """Self-test of the violation accounting: a checker that always fails
    must produce trials == violations."""
    real = harness.check_zero_bound

    def always_violating(s):
        verdict = real(s)
        return type(verdict)(
            Z=verdict.Z, bound=-1, gross_bound=verdict.gross_bound,
            n=verdict.n, degree=verdict.degree, passed=False,
            report=verdict.report,
        )

    monkeypatch.setattr(harness, "check_zero_bound", always_violating)
    cfg = GeneratorConfig(seed=8, degree=2, interior_knots=2)
    report = run_verification_suite("theorem9", cfg, 7)
    assert report.violations == 7


def test_zigzag_matches_piecewise_linear_interpolant():
    for n in range(1, 12):
        expected = piecewise_linear(range(n + 1), [(-1) ** k for k in range(n + 1)])
        assert zigzag_spline(n) == expected


def test_zigzag_requires_positive_n():
    with pytest.raises(FormatError):
        zigzag_spline(0)


def test_check_zero_bound_matches_direct_call():
    cfg = GeneratorConfig(seed=77, degree=3, interior_knots=4)
    s = random_spline(cfg)
    assert check_zero_bound(s).passed


def test_census_builds_few_sturm_chains_on_suite_splines(monkeypatch):
    """Descartes' rule decides almost every domain: over 200 random splines
    run through all five suite kinds at degrees 1..12, a Sturm sequence is
    built for under 2% of the non-zero domains censused. A census that
    always fell back to the Sturm sequence fails here."""
    domains, chains = [], []
    real_census, real_chain = polynomial.root_census, polynomial._sturm_chain

    def census(p, a, b):
        domains.append(p)
        return real_census(p, a, b)

    def chain(c):
        chains.append(c)
        return real_chain(c)

    monkeypatch.setattr(spline, "root_census", census)
    monkeypatch.setattr(polynomial, "root_census", census)
    monkeypatch.setattr(polynomial, "_sturm_chain", chain)
    for i in range(200):
        kind = harness.SUITE_KINDS[i % 5]
        degree = 1 + (i // 5) % 12
        if kind == "rolle":
            degree = max(degree, 2)
        cfg = GeneratorConfig(seed=i, degree=degree, interior_knots=1 + i % 8)
        assert run_verification_suite(kind, cfg, 1).violations == 0
    assert len(domains) > 2000
    assert 0 < len(chains) < 0.02 * len(domains)


# -- where splines get normalized ------------------------------------------------


@contextlib.contextmanager
def traced_calls(*functions):
    """Record (function name, caller name) for every call into functions,
    whatever name the caller bound them under."""
    names = {f.__code__: f.__name__ for f in functions}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            calls.append((names[frame.f_code], frame.f_back.f_code.co_name))

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


def test_extend_compact_normalizes_once_and_builds_one_spline():
    """The recipe's normalize is the only one an extension runs, and it
    drops nothing: extend_compact hands it the nonzero jumps alone."""
    for i in range(200):
        cfg = GeneratorConfig(seed=i, degree=1 + i % 12, interior_knots=i % 9)
        s = random_spline(cfg)
        with traced_calls(spline.normalize, Spline.__post_init__) as calls:
            extend_compact(s)
        assert sorted(calls) == [("__post_init__", "__new__"),
                                 ("normalize", "spline_from_truncated_powers")]


@pytest.mark.parametrize("kind", ["prop5", "extension", "corollary10"])
def test_suite_trials_normalize_only_in_the_recipe_and_checkers(kind):
    """Generated splines and their extensions are normalized by
    construction, so the suites leave normalize to the checkers."""
    trials = 4
    per_trial = Counter({"spline_from_truncated_powers": 2,
                         "check_interior_bound": kind == "prop5"})
    if kind == "corollary10":
        per_trial["spline_from_truncated_powers"] = 1
    for degree in (1, 5, 12):
        cfg = GeneratorConfig(seed=degree, degree=degree, interior_knots=4)
        with traced_calls(spline.normalize) as calls:
            assert run_verification_suite(kind, cfg, trials).violations == 0
        expected = Counter({caller: trials * count
                            for caller, count in per_trial.items() if count})
        assert Counter(caller for _, caller in calls) == expected
