"""The four benchmark workloads: what one op is, where its inputs come from,
and the oracle each output is checked against.

Every workload runs in one process and one thread as a closed loop: the next
op starts when the previous one returns. Inputs are generated here from the
workload seed; the library receives only those inputs. No input repeats within
a run, because a user's process verdicts or evaluates each input once, so a
cross-call cache earns only what it would earn for a real caller.

Ops call the library through module attributes (``harness.run_verification_
suite``, ``boxspline.conjecture_verdict``, ``boxspline.box_spline_eval``)
at call time, which is where the tracer's wrappers sit in a traced run.

The library must be importable before this module is (``common.load_library``).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from splinezeros import boxspline, harness

# Fixed warm-up seed: timed ops use non-negative master seeds, so the warm-up
# input never coincides with a timed one.
WARMUP_SEED = -1


def _text_digest(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _master_seed(seed: int, index: int) -> int:
    """Distinct generator seed per (workload seed, op index)."""
    return (seed << 32) | index


@dataclass(frozen=True)
class SuiteTrial:
    kind: str
    degree: int
    interior_knots: int
    master_seed: int


def _suite_op(trial: SuiteTrial):
    cfg = harness.GeneratorConfig(seed=trial.master_seed, degree=trial.degree,
                                  interior_knots=trial.interior_knots)
    return harness.run_verification_suite(trial.kind, cfg, 1)


def _report_digest(report) -> str:
    document = report.to_document()
    del document["elapsed_ms"]  # the one field that is not deterministic
    return _text_digest(json.dumps(document, sort_keys=True))


class Theorem9Sweep:
    name = "theorem9-sweep"
    why = ("verify/criterion-4 traffic: spline construction, the smoothness "
           "check, normalize and Sturm counting; never reaches bspline, "
           "boxspline or linalg")
    # op_tail_ms is taken per block of this many ops (15 grid sweeps); a
    # 20 s run holds about 20 blocks, whose median is steadier than that of
    # the 6 blocks of 50 sweeps a run would hold
    tail_block = 420
    # ops in each traced replay: fixed, so per-layer counts compare directly
    # across commits; sized so that the untraced and the traced replay
    # together take about run_seconds on a 2-CPU x86 host at the commit that
    # defined the benchmark
    trace_ops = 4800

    cells = [(m, n) for m in range(1, 5) for n in range(2, 9)]

    def warmup_inputs(self) -> list[SuiteTrial]:
        return [SuiteTrial("theorem9", 4, 7, WARMUP_SEED)]

    def inputs(self, seed: int) -> Iterator[SuiteTrial]:
        for index in itertools.count():
            m, n = self.cells[index % len(self.cells)]
            yield SuiteTrial("theorem9", m, n - 1, _master_seed(seed, index))

    op = staticmethod(_suite_op)
    digest = staticmethod(_report_digest)

    def check(self, trial: SuiteTrial, report) -> bool:
        m, n = trial.degree, trial.interior_knots + 1
        if report.violations != 0 or report.bound != n + m - 1:
            return False
        # at m = 1 the suite appends the zigzag spline, which meets the bound
        return m != 1 or report.max_Z == report.bound


class ExtensionSuites:
    name = "extension-suites"
    why = ("criteria 5 and 9 traffic: extend_compact, its per-side mat_solve "
           "and re-verified derivatives, on longer splines with zero end pieces "
           "than theorem9-sweep")
    tail_block = 225  # 5 sweeps of the 45 cells; about 9 blocks a run
    trace_ops = 1750

    cells = [(kind, m, k) for kind in ("prop5", "extension", "rolle")
             for m in (2, 3, 4) for k in range(1, 6)]

    def warmup_inputs(self) -> list[SuiteTrial]:
        # one trial per degree fills cardinal_bspline's cache for B_2..B_4
        return [SuiteTrial("rolle", m, 3, WARMUP_SEED) for m in (2, 3, 4)]

    def inputs(self, seed: int) -> Iterator[SuiteTrial]:
        for index in itertools.count():
            kind, m, k = self.cells[index % len(self.cells)]
            yield SuiteTrial(kind, m, k, _master_seed(seed, index))

    op = staticmethod(_suite_op)
    digest = staticmethod(_report_digest)

    def check(self, trial: SuiteTrial, report) -> bool:
        return report.violations == 0


# Exact determinant and order of A_X for each conjecture base. 1/64 and the
# exact 0 of the first two are the paper's headline results.
CONJECTURE_BASES = {
    "1,0;1,1;0,1": (Fraction(1, 64), 7),
    "1,0;1,1;0,1;-1,1": (Fraction(0), 21),
    "1,0;0,1;1,1;1,-1": (Fraction(0), 21),
    "2,1;1,2;1,0;0,1": (Fraction(0), 33),
}
ALL_ONES_LENGTHS = range(2, 14)
# GL2(Z) with entries in {-1, 0, 1}: 40 matrices
UNIMODULAR = [u for u in itertools.product((-1, 0, 1), repeat=4)
              if abs(u[0] * u[3] - u[1] * u[2]) == 1]


@dataclass(frozen=True)
class ConjectureInput:
    config: boxspline.VectorConfig
    determinant: Fraction | None  # None: only nonzero is known (all-ones)
    omega_size: int


class ConjectureImages:
    name = "conjecture-images"
    why = ("conjecture traffic: box_spline_eval, Omega and Bareiss without "
           "Sturm counting; A_UX permutes A_X, so answers are known, and 1 "
           "argument in 4 is distinct")
    tail_block = 60  # the all-ones family and 12 rounds of images
    trace_ops = 40

    def warmup_inputs(self) -> list[ConjectureInput]:
        base = boxspline.parse_vector_config("1,0;1,1;0,1")
        return [ConjectureInput(base, Fraction(1, 64), 7)]

    def inputs(self, seed: int) -> Iterator[ConjectureInput]:
        """The all-ones family m = 2..13 once each, then images U X of the
        bases in turn: U in GL2(Z), random vector signs, shuffled order."""
        for m in ALL_ONES_LENGTHS:
            config = boxspline.VectorConfig(1, ((1,),) * m)
            yield ConjectureInput(config, None, 2 * m - 1)
        rng = random.Random(f"conjecture-images:{seed}")
        bases = [(boxspline.parse_vector_config(text).vectors, det, omega_size)
                 for text, (det, omega_size) in CONJECTURE_BASES.items()]
        # One set for all bases: VectorConfig keeps vectors as given, so an
        # image of one base can equal an image of another. The bases include
        # the warm-up configuration.
        seen = {vectors for vectors, _, _ in bases}
        orders = [rng.sample(UNIMODULAR, len(UNIMODULAR)) for _ in bases]
        for index in itertools.count():
            vectors, det, omega_size = bases[index % len(bases)]
            unimodular = orders[index % len(bases)]
            turn = index // len(bases)
            while True:
                a, b, c, d = unimodular[turn % len(unimodular)]
                image = [(a * x + b * y, c * x + d * y) for x, y in vectors]
                image = [v if rng.random() < 0.5 else (-v[0], -v[1])
                         for v in image]
                rng.shuffle(image)
                image = tuple(image)
                if image not in seen:
                    break
                turn += 1
            seen.add(image)
            yield ConjectureInput(boxspline.VectorConfig(2, image), det,
                                  omega_size)

    def op(self, inp: ConjectureInput):
        return boxspline.conjecture_verdict(inp.config)

    def digest(self, verdict) -> str:
        return _text_digest(f"{verdict.determinant}|{verdict.matrix.entries}")

    def check(self, inp: ConjectureInput, verdict) -> bool:
        if len(verdict.omega) != inp.omega_size:
            return False
        if inp.determinant is None:
            return verdict.determinant != 0
        return verdict.determinant == inp.determinant


# Points of the box-eval workload are X t with t in (0, 1)^m. t_1 = k / P for
# a prime P and every other t_i has a denominator of at most 16, so distinct
# k give distinct points (a difference of first terms has denominator P,
# which no difference of the remaining terms can cancel).
POINT_PRIME = 1000003
BOXEVAL_CONFIGS = (
    # 2-D, degree 0, 1 and 2
    "1,0;0,1", "1,1;-1,1",
    "1,0;0,1;1,1", "1,0;0,1;1,-1",
    "1,0;0,1;1,1;1,-1", "1,0;1,1;0,1;-1,1", "2,1;1,2;1,0;0,1",
    # 1-D fiber route
    "2", "1;2", "1;2;3", "1;1;1",
) + tuple(";".join(["1"] * m) for m in range(4, 14))  # cardinal route


@dataclass(frozen=True)
class BoxPoint:
    config: boxspline.VectorConfig
    point: tuple[Fraction, ...]


class BoxEvalScatter:
    name = "boxeval-scatter"
    why = ("boxspline --eval traffic at fresh points inside the support: no "
           "repeats and no zeros, so memoisation and early rejection should "
           "gain nothing here")
    # 34 points per configuration; at 100 the 11th-largest of a block fell
    # among rare host stalls and moved by a tenth from run to run
    tail_block = 714
    trace_ops = 65000
    # partition-of-unity checks per run, on the first ops that pass check();
    # the inputs cycle through every configuration, so these cover them all
    sample_size = 64

    def __init__(self) -> None:
        self.configs = [boxspline.parse_vector_config(text)
                        for text in BOXEVAL_CONFIGS]

    def warmup_inputs(self) -> list[BoxPoint]:
        """The centre X (1/2, ..., 1/2) of every configuration: fills
        _fiber_data and the cardinal B_m cache. t_1 = 1/2 is never k / P."""
        return [BoxPoint(c, _combine(c, [Fraction(1, 2)] * c.count))
                for c in self.configs]

    def inputs(self, seed: int) -> Iterator[BoxPoint]:
        rng = random.Random(f"boxeval-scatter:{seed}")
        period = POINT_PRIME - 1
        stride = rng.randrange(1, period)
        while math.gcd(stride, period) != 1:
            stride += 1
        offset = rng.randrange(period)
        for index in itertools.count():
            config = self.configs[index % len(self.configs)]
            visit = index // len(self.configs)
            if visit >= period:
                raise RuntimeError("point sequence exhausted")
            t = [Fraction(1 + (stride * visit + offset) % period, POINT_PRIME)]
            for _ in range(config.count - 1):
                q = rng.randint(2, 16)
                t.append(Fraction(rng.randint(1, q - 1), q))
            yield BoxPoint(config, _combine(config, t))

    def op(self, inp: BoxPoint):
        return boxspline.box_spline_eval(inp.config, inp.point)

    def digest(self, value) -> str:
        return str(value)

    def check(self, inp: BoxPoint, value) -> bool:
        # a box spline is positive strictly inside its support
        return value > 0

    def sample_check(self, inp: BoxPoint) -> bool:
        """Partition of unity: sum over j in Z^s of B_X(x - j) is exactly 1
        (de Boor, Hollig & Riemenschneider, Box Splines, 1993, ch. I)."""
        config = inp.config
        ranges = []
        for axis in range(config.dim):
            lo = sum(min(0, v[axis]) for v in config.vectors)
            hi = sum(max(0, v[axis]) for v in config.vectors)
            x = inp.point[axis]
            ranges.append(range(math.floor(x - hi), math.ceil(x - lo) + 1))
        total = Fraction(0)
        for shift in itertools.product(*ranges):
            arg = tuple(x - j for x, j in zip(inp.point, shift))
            total += boxspline.box_spline_eval(config, arg)
        return total == 1


def _combine(config, t) -> tuple[Fraction, ...]:
    return tuple(sum((v[axis] * ti for v, ti in zip(config.vectors, t)),
                     Fraction(0))
                 for axis in range(config.dim))


WORKLOADS = {w.name: w for w in (Theorem9Sweep, ExtensionSuites,
                                 ConjectureImages, BoxEvalScatter)}
