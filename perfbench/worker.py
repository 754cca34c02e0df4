"""Child process of the benchmark; run.py starts one per measurement so that
each starts from a fresh interpreter.

    worker.py setup  --workload W --seed N
        import splinezeros and run the warm-up ops; report the time taken
        and the host speed measured just after
    worker.py loop   --workload W --seed N --seconds S
        warm up, then run ops as a closed loop for S seconds, interleaved
        with host speed measurements
    worker.py replay --workload W --seed N --ops K [--trace]
        warm up, then run the first K ops, optionally traced, and report a
        digest of every output

Standard output is JSON lines: chunks {"latencies_hex": ...} of op latencies
in milliseconds (native doubles, hex-encoded) in op order, then one result
object.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import traceback
from array import array
from fractions import Fraction

import common

MAX_REPORTED_ERRORS = 3
# Latencies leave the loop process in chunks of this many ops, so that its
# peak RSS does not grow with the number of ops a faster library completes.
LATENCY_CHUNK = 1024

# The reference host's speed drifts by a quarter over minutes (README,
# "Noise"), more than any bound a regression check could use. Timed work is
# therefore interleaved with bursts of a fixed kernel that does not touch the
# library, and the run reports its times scaled to the speed at which that
# kernel ran on the reference host (2-vCPU x86 VM, Python 3.11.7) when the
# benchmark was defined.
REFERENCE_KERNEL_PER_S = 2750.0
# In the loop, a burst follows every BURST_EVERY_S or more of ops and lasts
# BURST_SHARE of the time since the previous burst.
BURST_EVERY_S = 0.05
BURST_SHARE = 0.25


def _kernel() -> Fraction:
    """Fraction arithmetic like the library's, on fixed small operands."""
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(1, k) * Fraction(k + 1, k + 2)
    return total


class HostSpeed:
    """Speed of this host relative to the reference, from timed kernel
    bursts."""

    def __init__(self) -> None:
        self.iterations = 0
        self.seconds = 0.0

    def burst(self, seconds: float) -> float:
        """Run the kernel for at least ``seconds``; returns the factor of
        this burst alone. The cyclic collector is off meanwhile, so that a
        heap grown by the library (whose collection cost is part of the ops)
        does not slow the kernel too."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            iterations = 0
            start = time.perf_counter()
            while True:
                _kernel()
                iterations += 1
                elapsed = time.perf_counter() - start
                if elapsed >= seconds:
                    break
        finally:
            if enabled:
                gc.enable()
        self.iterations += iterations
        self.seconds += elapsed
        return iterations / elapsed / REFERENCE_KERNEL_PER_S

    def factor(self) -> float:
        """Host speed / reference speed; multiply a time by it to scale the
        time to the reference host."""
        return self.iterations / self.seconds / REFERENCE_KERNEL_PER_S


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "loop", "replay"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


class Runner:
    """Runs ops of one workload and records latency and oracle outcomes."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latencies_ms = array("d")
        self.failed = 0
        self.errors = 0

    def run_op(self, index: int, inp):
        """One timed op; returns its output, or None if it raised. The
        oracle check is left to the caller, outside the timed region."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(index)
        start = time.perf_counter()
        try:
            output = self.workload.op(inp)
        except Exception:
            output = None
            self.errors += 1
            if self.errors <= MAX_REPORTED_ERRORS:
                traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        if index >= 0:
            self.latencies_ms.append(elapsed * 1e3)
            if len(self.latencies_ms) == LATENCY_CHUNK:
                self.flush_latencies()
        return output

    def flush_latencies(self) -> None:
        """Hand recorded latencies to the parent as one JSON line of raw
        doubles in hex, which builds no float objects on the way out."""
        print(json.dumps({"latencies_hex": self.latencies_ms.tobytes().hex()}),
              flush=True)
        del self.latencies_ms[:]

    def warm_up(self) -> None:
        for k, inp in enumerate(self.workload.warmup_inputs()):
            output = self.run_op(-1 - k, inp)
            if output is None or not self.workload.check(inp, output):
                raise common.BenchError(f"warm-up op {k} failed")

    def checked(self, inp, output) -> bool:
        ok = output is not None and self.workload.check(inp, output)
        if not ok:
            self.failed += 1
        return ok


def peak_rss_kb() -> int:
    """Peak RSS of this process since its exec, in KiB: VmHWM of the memory
    map made at exec. getrusage's ru_maxrss is not used because Linux carries
    the peak of the pre-exec map (here the parent's, as subprocess uses vfork)
    across execve."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise common.BenchError("no VmHWM in /proc/self/status")


def run_setup(args) -> dict:
    start = time.perf_counter()
    common.load_library()
    imported = time.perf_counter()
    import workloads

    runner = Runner(workloads.WORKLOADS[args.workload]())
    warm_start = time.perf_counter()
    runner.warm_up()
    done = time.perf_counter()
    setup_s = (imported - start) + (done - warm_start)
    speed = HostSpeed()
    speed.burst(setup_s)
    return {"setup_s": setup_s, "speed": speed.factor()}


def run_loop(args) -> dict:
    common.load_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    runner = Runner(workload)
    runner.warm_up()
    inputs = workload.inputs(args.seed)
    sample_size = getattr(workload, "sample_size", 0)
    sample: list = []
    speed = HostSpeed()
    segments = []  # (ops completed, factor of the burst that followed them)
    index = 0
    last_burst = time.perf_counter()
    deadline = last_burst + args.seconds
    while time.perf_counter() < deadline:
        inp = next(inputs)
        output = runner.run_op(index, inp)
        if runner.checked(inp, output) and len(sample) < sample_size:
            sample.append(inp)
        index += 1
        since = time.perf_counter() - last_burst
        if since >= BURST_EVERY_S:
            segments.append((index, speed.burst(BURST_SHARE * since)))
            last_burst = time.perf_counter()
    peak_rss_mb = peak_rss_kb() / 1024
    runner.flush_latencies()
    for inp in sample:
        if not workload.sample_check(inp):
            runner.failed += 1
    return {
        "failed": runner.failed,
        "sampled": len(sample),
        "peak_rss_mb": peak_rss_mb,
        "speed": speed.factor(),
        "segments": segments,
    }


def run_replay(args) -> dict:
    common.load_library()
    import workloads

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]()
    runner = Runner(workload, tracer)
    runner.warm_up()
    inputs = workload.inputs(args.seed)
    digests = []
    for index in range(args.ops):
        inp = next(inputs)
        output = runner.run_op(index, inp)
        runner.checked(inp, output)
        digests.append(None if output is None else workload.digest(output))
    runner.flush_latencies()
    result = {
        "failed": runner.failed,
        "digests": digests,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        meta = common.run_metadata(args.workload, args.seed)
        tracer.write(common.OUT / f"trace-{args.workload}.json", meta)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    modes = {"setup": run_setup, "loop": run_loop, "replay": run_replay}
    try:
        result = modes[args.mode](args)
    except common.BenchError as exc:
        print(f"worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
