import contextlib
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splinezeros.harness as harness
import splinezeros.polynomial as polynomial
import splinezeros.spline as spline
from splinezeros import (
    GeneratorConfig,
    Polynomial,
    Spline,
    check_zero_bound,
    extend_compact,
    insert_knot,
    normalize,
    piecewise_linear,
    random_spline,
    run_verification_suite,
    spline_from_truncated_powers,
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


WIDTHS = st.one_of(
    st.just(1),
    st.builds(lambda k, delta: max(1, 2 ** k + delta),
              st.integers(0, 70), st.sampled_from((-1, 0, 1))))
BOUNDS = st.one_of(
    st.builds(lambda lo, width: (lo, lo + width - 1),
              st.integers(-10**9, 10**9), WIDTHS),
    st.integers(1, harness.MAX_NUMERATOR_BOUND).map(lambda b: (-b, b)),
    st.integers(1, harness.MAX_DENOMINATOR_BOUND).map(lambda b: (1, b)))


@given(st.integers(0, 2**64 - 1), st.lists(BOUNDS, min_size=1, max_size=20))
@settings(max_examples=300, deadline=None)
def test_randint_draws_what_random_randint_draws(seed, ranges):
    """harness._randint over getrandbits takes, draw for draw, the values
    random.Random.randint takes from the same seed, and leaves the same
    state: widths 1, 2^k and 2^k +- 1 (redraws and power-of-two edges) and
    the generator's numerator and denominator ranges."""
    ours, reference = random.Random(seed), random.Random(seed)
    for lo, hi in ranges:
        assert harness._randint(ours.getrandbits, lo, hi) == reference.randint(lo, hi)
    assert ours.getstate() == reference.getstate()


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


@pytest.mark.parametrize("value", [True, 1.0, 2.5, "1", None])
@pytest.mark.parametrize("name, call", [
    ("trial", lambda value: random_spline(
        GeneratorConfig(seed=1, degree=2, interior_knots=2), value)),
    ("n", zigzag_spline),
], ids=["random_spline", "zigzag_spline"])
def test_harness_entry_points_require_int_counts(name, call, value):
    """A non-int trial or zigzag length is refused, never reinterpreted:
    random_spline(cfg, True) and (cfg, 1.0) built splines other than trial
    1's, and zigzag_spline(True) built n = 1."""
    with pytest.raises(FormatError, match=f"{name} must be an int"):
        call(value)


def test_suite_argument_validation():
    cfg = GeneratorConfig(seed=1, degree=1, interior_knots=1)
    with pytest.raises(FormatError):
        run_verification_suite("nope", cfg, 10)
    with pytest.raises(FormatError):
        run_verification_suite("theorem9", cfg, 0)
    for trials in (True, 2.5, "3"):
        with pytest.raises(FormatError, match="trials"):
            run_verification_suite("theorem9", cfg, trials)
    with pytest.raises(DegreeError):
        run_verification_suite("rolle", cfg, 10)


class _Generated(Exception):
    """Raised by a stubbed generator: the trial count passed its check."""


@pytest.mark.parametrize("kind", harness.SUITE_KINDS)
def test_suite_trial_cap(kind, monkeypatch):
    """More than MAX_TRIALS trials are refused with CapabilityError before
    any spline is drawn; MAX_TRIALS itself passes the check and reaches the
    generator, which a stub stops at its first call."""
    assert harness.MAX_TRIALS == 100_000
    drawn = []

    def stub(cfg, trial=0):
        drawn.append(trial)
        raise _Generated

    monkeypatch.setattr(harness, "random_spline", stub)
    cfg = GeneratorConfig(seed=1, degree=2, interior_knots=1)
    for trials in (harness.MAX_TRIALS + 1, 10**11):
        with pytest.raises(CapabilityError, match="MAX_TRIALS"):
            run_verification_suite(kind, cfg, trials)
    assert drawn == []
    with pytest.raises(_Generated):
        run_verification_suite(kind, cfg, harness.MAX_TRIALS)
    assert drawn == [0]


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
        doc = report.to_document()
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


@pytest.mark.parametrize("kind", harness.SUITE_KINDS)
def test_stubbed_violating_checker_counts_violations(kind, monkeypatch):
    """Self-test of the violation accounting: when the Corollary 10 check
    reports an inconsistency on every census, every trial of every kind is
    a violation."""
    real = harness.vanishing_from_report

    def inconsistent(degree, report):
        return real(degree, report)._replace(consistent=False)

    monkeypatch.setattr(harness, "vanishing_from_report", inconsistent)
    cfg = GeneratorConfig(seed=8, degree=2, interior_knots=2)
    report = run_verification_suite(kind, cfg, 7)
    assert report.trials == report.violations == 7


@pytest.mark.parametrize("kind, name, stub", [
    ("prop5", "check_interior_bound",
     lambda s: spline.InteriorBoundVerdict(False, "stubbed")),
    ("extension", "_check_extension_trial", lambda s, extension: False),
], ids=["prop5", "extension"])
def test_stubbed_failing_checker_records_no_zeros(kind, name, stub, monkeypatch):
    """A trial that yields no zero count (an inapplicable interior bound, a
    broken extension) is a violation and adds nothing to max_Z, bound or
    the witnesses."""
    monkeypatch.setattr(harness, name, stub)
    cfg = GeneratorConfig(seed=8, degree=2, interior_knots=2)
    report = run_verification_suite(kind, cfg, 7)
    assert report.trials == report.violations == 7
    assert report.max_Z == report.bound == 0
    assert report.witnesses == ()


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
    real_census, real_chain = polynomial._census_int, polynomial._sturm_chain

    def census(num, a1, a2, b1, b2):
        domains.append(num)
        return real_census(num, a1, a2, b1, b2)

    def chain(c):
        chains.append(c)
        return real_chain(c)

    monkeypatch.setattr(spline, "_census_int", census)
    monkeypatch.setattr(polynomial, "_census_int", census)
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


def test_extend_compact_builds_one_spline_and_never_normalizes():
    """extend_compact keeps its genuine knots by the flat-knot rule itself:
    one Spline, no normalize, and normalize finds nothing left to drop."""
    for i in range(200):
        cfg = GeneratorConfig(seed=i, degree=1 + i % 12, interior_knots=i % 9)
        s = random_spline(cfg)
        with traced_calls(spline.normalize, Spline.__post_init__) as calls:
            extension = extend_compact(s)
        assert calls == [("__post_init__", "__new__")]
        assert normalize(extension) is extension


@pytest.mark.parametrize("seed", [708, 972, 3133, 3350])
def test_extension_with_a_zero_end_jump_builds_one_spline(seed):
    """Generated splines whose jump d_0 at a_0 or e_0 at a_n is 0: the
    window end has one piece on both sides and is no knot of the extension,
    yet the extension still takes one Spline and no normalize."""
    s = random_spline(GeneratorConfig(seed=seed, degree=1 + seed % 12,
                                      interior_knots=seed % 9))
    with traced_calls(spline.normalize, Spline.__post_init__) as calls:
        extension = extend_compact(s)
    assert not {s.knots[0], s.knots[-1]} <= set(extension.knots)
    assert calls == [("__post_init__", "__new__")]


@pytest.mark.parametrize("kind", ["prop5", "extension", "corollary10"])
def test_suite_trials_normalize_only_in_the_recipe_and_checkers(kind):
    """Generated splines and their extensions are normalized by
    construction, so the suites leave normalize to the checkers, and
    extend_compact never calls it."""
    trials = 4
    per_trial = Counter({"_spline_from_int_jumps": 1,
                         "check_interior_bound": kind == "prop5"})
    for degree in (1, 5, 12):
        cfg = GeneratorConfig(seed=degree, degree=degree, interior_knots=4)
        with traced_calls(spline.normalize) as calls:
            assert run_verification_suite(kind, cfg, trials).violations == 0
        expected = Counter({caller: trials * count
                            for caller, count in per_trial.items() if count})
        assert Counter(caller for _, caller in calls) == expected


# -- the extension checker refuses bad extensions --------------------------------


def extension_cases():
    """Generated splines on [0, n] at degrees 1..12, and two with fractional
    window ends, each with its extension."""
    splines = [random_spline(GeneratorConfig(seed=31000 + i, degree=1 + i % 12,
                                             interior_knots=i % 5))
               for i in range(24)]
    splines.append(piecewise_linear((Fraction(-1, 3), Fraction(1, 2), Fraction(5, 3)),
                                    (1, -2, 1)))
    splines.append(spline_from_truncated_powers(
        Polynomial([1, -2, 0, 1]),
        ((Fraction(1, 5), 3), (Fraction(9, 4), Fraction(-1, 2))),
        (Fraction(-2, 3), Fraction(7, 2)), 3))
    return [(s, extend_compact(s)) for s in splines]


def test_extension_checker_refuses_bad_extensions():
    """Each bad extension is a certified spline that breaks one part of the
    contract: a changed interior piece, a nonzero outer piece, a knot off
    the allowed unit-spaced set (inside the window or in a tail), and a knot
    past a_0 - m or a_n + m."""
    check = harness._check_extension_trial
    for s, e in extension_cases():
        m = s.degree
        (a0, an), (lo, hi) = s.window, e.window
        assert check(s, e)

        two = Polynomial.constant(2)
        doubled = extend_compact(Spline(m, s.knots, tuple(p * two for p in s.pieces)))
        assert doubled.knots == e.knots and not check(s, doubled)

        right = Spline(m, e.knots, e.pieces[:-1] + (_power_by_products(1, hi, m),))
        left = Spline(m, e.knots, (_power_by_products(-1, lo, m),) + e.pieces[1:])
        assert not check(s, right) and not check(s, left)

        assert not check(s, insert_knot(e, (s.knots[0] + s.knots[1]) / 2))
        if lo < a0 - Fraction(1, 2):
            assert not check(s, insert_knot(e, a0 - Fraction(1, 2)))
        if hi > an + Fraction(1, 2):
            assert not check(s, insert_knot(e, an + Fraction(1, 2)))

        past_right = Spline(m, e.knots + (an + m + 1,), e.pieces + (Polynomial(),))
        past_left = Spline(m, (a0 - m - 1,) + e.knots, (Polynomial(),) + e.pieces)
        assert not check(s, past_right) and not check(s, past_left)
