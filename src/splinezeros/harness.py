"""Seeded random spline generation and batch verification suites.

Determinism contract: each trial draws from its own PRNG seeded by
sha256(master_seed, trial_index), so reports are reproducible for a fixed
seed regardless of evaluation order, and any trial can be replayed alone.
Every report field except elapsed_ms is byte-deterministic. Every draw goes
through _randint, which reproduces random.Random.randint from the PRNG's
getrandbits as CPython's randint takes it (the width's bit length per draw,
drawn again while the value is not below the width), so the values, and
the generated splines, are those randint gives, without randint's call
layers.

Generation runs on integers. Knot candidates num/den are told apart by their
reduced int pair and sorted by an exact int key, the base polynomial is
built from integer numerators over their common denominator, and a Fraction
is built only for each accepted knot. Each jump goes to the truncated-power
assembly kernel (spline._spline_from_int_jumps) as (knot, c_num, c_den), the
coefficient as the two ints drawn, and the window [0, interior_knots + 1]
as two ints; the Spline constructor is the one check of the knot order. The
rng draws, in their order, define every generated spline, so they are part
of the determinism contract. The extension checker compares knots as
(numerator, denominator) pairs.

Suite kinds: SUITES maps each kind to one checker. A checker takes one
generated spline and returns (ok, Z or None, bound, bound-tight witness or
None, census or None); run_verification_suite runs the Corollary 10 check
(vanishing_from_report) on every census it gets back and does all of the
report bookkeeping in one loop; a Z of None adds nothing to max_Z or bound.
  theorem9    Z <= n + m - 1 on every generated spline (for degree 1 an
              extra deterministic zigzag trial is appended: it meets the
              bound with equality and so always contributes a tightness
              witness).
  prop5       compact-support extensions obey the interior bound
              Z_open <= n' - m - 1 (which implies the closed-window
              Z <= n' - m + 1).
  corollary10 the forced-vanishing implication is consistent.
  extension   structural checks of extend_compact plus the chained bound.
  rolle       derivative gains at least one separated zero on the open
              support (degree >= 2).

Violations are report content; processes turn them into exit codes.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .bspline import extend_compact
from .errors import CapabilityError, DegreeError, FormatError, Validated
from .polynomial import Polynomial
from .spline import (
    Spline,
    _spline_from_int_jumps,
    check_degree,
    check_interior_bound,
    check_zero_bound,
    open_component_count,
    separated_zero_count,
    spline_derivative,
    spline_to_document,
    vanishing_from_report,
)

MAX_WITNESSES = 5
# one trial at degree 12 with this many interior knots and the default
# coefficient bounds runs in 0.06-0.19 s, by kind (Python 3.11, one Xeon core)
MAX_INTERIOR_KNOTS = 999
# the coefficient sizes of a spline grow with the lcm of its knot and jump
# denominators; at these caps and MAX_INTERIOR_KNOTS a degree-12 trial of
# any kind runs in 0.09-0.26 s on the same host
MAX_DENOMINATOR_BOUND = 16
MAX_NUMERATOR_BOUND = 10**6


class GeneratorConfig(Validated, namedtuple(
        "GeneratorConfig",
        "seed degree interior_knots numerator_bound denominator_bound",
        defaults=(8, 4))):
    """Knobs for random spline generation. The window is
    [0, interior_knots + 1]; interior knots all receive nonzero truncated-
    power jumps, so every requested knot is genuine. Every field must be an
    int (bool included in the refusal), and the degree passes check_degree,
    the rule extend_compact applies, so all suite kinds refuse the same
    degrees before any work. More than
    MAX_INTERIOR_KNOTS interior knots, and coefficient bounds above
    MAX_NUMERATOR_BOUND or MAX_DENOMINATOR_BOUND, are refused the same
    way."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for name, value in zip(self._fields, self):
            if type(value) is not int:
                raise FormatError(f"{name} must be an int, got {value!r}")
        check_degree(self.degree)
        if self.interior_knots < 0:
            raise FormatError("interior knot count must be >= 0")
        if self.interior_knots > MAX_INTERIOR_KNOTS:
            raise CapabilityError(
                f"at most {MAX_INTERIOR_KNOTS} interior knots "
                f"(MAX_INTERIOR_KNOTS), got {self.interior_knots}"
            )
        if self.numerator_bound < 1 or self.denominator_bound < 1:
            raise FormatError("coefficient bounds must be positive")
        if self.numerator_bound > MAX_NUMERATOR_BOUND:
            raise CapabilityError(
                f"numerator bound at most {MAX_NUMERATOR_BOUND} "
                f"(MAX_NUMERATOR_BOUND), got {self.numerator_bound}"
            )
        if self.denominator_bound > MAX_DENOMINATOR_BOUND:
            raise CapabilityError(
                f"denominator bound at most {MAX_DENOMINATOR_BOUND} "
                f"(MAX_DENOMINATOR_BOUND), got {self.denominator_bound}"
            )


def _trial_seed(master: int, index: int) -> int:
    digest = hashlib.sha256(f"{master}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _randint(getrandbits, lo: int, hi: int) -> int:
    """random.Random.randint(lo, hi) for ints lo <= hi, from the same draws,
    given the Random's bound getrandbits: as CPython's randint does, take
    k = width.bit_length() bits for width = hi - lo + 1 and draw again while
    the value is at least width."""
    width = hi - lo + 1
    k = width.bit_length()
    r = getrandbits(k)
    while r >= width:
        r = getrandbits(k)
    return lo + r


def _random_integers(getrandbits, count: int, num_bound: int,
                     den_bound: int) -> tuple[list[int], int]:
    """count random rationals num/den (num in [-num_bound, num_bound], den
    in [1, den_bound], drawn in that order through _randint) as integer
    numerators over their common denominator."""
    drawn = [(_randint(getrandbits, -num_bound, num_bound),
              _randint(getrandbits, 1, den_bound)) for _ in range(count)]
    common = math.lcm(*(den for _, den in drawn))
    return [num * (common // den) for num, den in drawn], common


def random_spline(cfg: GeneratorConfig, trial: int = 0) -> Spline:
    """Deterministic spline for (cfg.seed, trial): random base polynomial of
    degree <= m plus nonzero truncated-power jumps at distinct random
    interior knots. A knot candidate num/den has den in [1, den_bound] and
    num strictly between 0 and (interior_knots + 1) * den, so it lies inside
    the window. A trial that is not an int (bool included) is refused with
    FormatError before any draw."""
    if type(trial) is not int:
        raise FormatError(f"trial must be an int, got {trial!r}")
    bits = random.Random(_trial_seed(cfg.seed, trial)).getrandbits
    width = cfg.interior_knots + 1
    keys: set[tuple[int, int]] = set()
    attempts = 0
    while len(keys) < cfg.interior_knots:
        den = _randint(bits, 1, cfg.denominator_bound)
        num = _randint(bits, 1, width * den - 1)
        g = math.gcd(num, den)
        keys.add((num // g, den // g))
        attempts += 1
        if attempts > 200 * (cfg.interior_knots + 1):
            raise FormatError(
                "knot range too tight for the requested interior knot count"
            )
    draw = (cfg.degree + 1, cfg.numerator_bound, cfg.denominator_bound)
    num, den = _random_integers(bits, *draw)
    if cfg.interior_knots == 0:
        while not any(num):
            num, den = _random_integers(bits, *draw)
    base = Polynomial.from_integers(num, den)
    # p * (common // q) is p/q scaled by one common factor: an exact int key
    common = math.lcm(*(q for _, q in keys))
    jumps = []
    for p, q in sorted(keys, key=lambda key: key[0] * (common // key[1])):
        c = 0
        while c == 0:
            c = _randint(bits, -cfg.numerator_bound, cfg.numerator_bound)
            c_den = _randint(bits, 1, cfg.denominator_bound)
        jumps.append((Fraction(p, q), c, c_den))
    return _spline_from_int_jumps(base, jumps, 0, width, cfg.degree)


def zigzag_spline(n: int) -> Spline:
    """Degree-1 corner case on knots 0..n alternating between 1 and -1: one
    sign change per domain, so Z = n = (n + 1 - 1), meeting the bound. On
    [k, k+1] the piece is v (1 + 2k) - 2 v x with v = (-1)^k. An n that is
    not an int (bool included) is refused with FormatError."""
    if type(n) is not int:
        raise FormatError(f"n must be an int, got {n!r}")
    if n < 1:
        raise FormatError("zigzag needs n >= 1")
    signs = [(-1) ** k for k in range(n + 1)]
    pieces = [Polynomial.from_integers([1])]
    pieces.extend(Polynomial.from_integers([v * (1 + 2 * k), -2 * v])
                  for k, v in enumerate(signs[:-1]))
    pieces.append(Polynomial.from_integers([signs[-1]]))
    return Spline(1, tuple(Fraction(k) for k in range(n + 1)), tuple(pieces))


class TrialReport(NamedTuple):
    """Aggregated suite outcome. ``witnesses`` holds up to MAX_WITNESSES
    bound-tight splines (as documents), in trial order."""

    kind: str
    seed: int
    trials: int
    violations: int
    max_Z: int
    bound: int
    witnesses: tuple = ()
    elapsed_ms: int = 0

    def to_document(self) -> dict:
        """The fields in order, with kind named "command"."""
        document = {"command": self.kind, **self._asdict()}
        del document["kind"]
        document["witnesses"] = list(self.witnesses)
        return document


def _theorem9(s: Spline) -> tuple:
    verdict = check_zero_bound(s)
    tight = s if verdict.Z == verdict.bound else None
    return verdict.passed, verdict.Z, verdict.bound, tight, verdict.report


def _prop5(s: Spline) -> tuple:
    extension = extend_compact(s)
    verdict = check_interior_bound(extension)
    z, bound = verdict.interior_Z, verdict.interior_bound
    tight = extension if z is not None and z == bound else None
    return verdict.applicable and verdict.passed, z, bound, tight, verdict.report


def _corollary10(s: Spline) -> tuple:
    z, report = separated_zero_count(s, *s.window)
    return True, z, s.n + s.degree - 1, None, report


def _extension(s: Spline) -> tuple:
    extension = extend_compact(s)
    if not _check_extension_trial(s, extension):
        return False, None, 0, None, None
    _, report = separated_zero_count(extension, *extension.window)
    m = s.degree
    # the extension vanishes between these bounds and its window
    z = open_component_count(report, s.knots[0] - m, s.knots[-1] + m)
    bound = s.n + m - 1
    return z <= bound, z, bound, None, report


def _rolle(s: Spline) -> tuple:
    extension = extend_compact(s)
    _, report = separated_zero_count(extension, *extension.window)
    z = open_component_count(report)
    derivative = spline_derivative(extension)
    _, report_d = separated_zero_count(derivative, *derivative.window)
    zd = open_component_count(report_d)
    return zd >= z + 1, zd, z + 1, None, report


# The checkers call the layers through this module's globals, so a layer
# swapped on the module is the one they call.
SUITES = {"theorem9": _theorem9, "prop5": _prop5, "corollary10": _corollary10,
          "extension": _extension, "rolle": _rolle}
SUITE_KINDS = tuple(SUITES)


def run_verification_suite(kind: str, cfg: GeneratorConfig,
                           trials: int) -> TrialReport:
    if kind not in SUITES:
        raise FormatError(f"unknown suite kind {kind!r}; choose from {SUITE_KINDS}")
    if type(trials) is not int:
        raise FormatError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise FormatError("trials must be >= 1")
    if kind == "rolle" and cfg.degree < 2:
        raise DegreeError("the derivative-propagation suite needs degree >= 2")

    start = time.monotonic()
    check = SUITES[kind]
    count = violations = max_z = bound_seen = 0
    witnesses: list = []
    splines = (random_spline(cfg, t) for t in range(trials))
    if kind == "theorem9" and cfg.degree == 1:
        splines = chain(splines, (zigzag_spline(cfg.interior_knots + 1),))
    for s in splines:
        count += 1
        ok, z, bound, tight, census = check(s)
        if census is not None:
            ok = ok and vanishing_from_report(s.degree, census).consistent
        violations += not ok
        if z is not None:
            max_z = max(max_z, z)
            bound_seen = max(bound_seen, bound)
        if tight is not None and len(witnesses) < MAX_WITNESSES:
            witnesses.append(spline_to_document(tight))

    elapsed = int((time.monotonic() - start) * 1000)
    return TrialReport(kind=kind, seed=cfg.seed, trials=count,
                       violations=violations, max_Z=max_z, bound=bound_seen,
                       witnesses=tuple(witnesses), elapsed_ms=elapsed)


def _check_extension_trial(s: Spline, extension: Spline) -> bool:
    """Structural contract of extend_compact on one input: zero outside the
    widened window, knots within the allowed unit-spaced set (which bounds
    them by a_0 - m and a_n + m), and exact coincidence on the original
    window. Knots are compared as (numerator, denominator) pairs: a tail
    knot a_0 - i or a_n + i keeps the denominator of a_0 or a_n."""
    if not (extension.pieces[0].is_zero and extension.pieces[-1].is_zero):
        return False
    m = s.degree
    original = [(k.numerator, k.denominator) for k in s.knots]
    knots = [(k.numerator, k.denominator) for k in extension.knots]
    (p0, q0), (pn, qn) = original[0], original[-1]
    allowed = set(original)
    allowed.update((p0 - i * q0, q0) for i in range(1, m + 1))
    allowed.update((pn + i * qn, qn) for i in range(1, m + 1))
    if not allowed.issuperset(knots):
        return False
    # every extension knot inside the original window is an original knot,
    # so the piece right of the extension knots up to a domain's left end
    # covers that whole domain
    idx = 0
    for (p, q), piece in zip(original, s.pieces[1:-1]):
        while idx < len(knots) and knots[idx][0] * q <= p * knots[idx][1]:
            idx += 1
        if extension.pieces[idx] != piece:
            return False
    return True
