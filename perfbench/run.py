#!/usr/bin/env python3
"""splinezeros benchmark: one command, four single-process workloads.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload theorem9-sweep --seed 20240811 --trace 0

A run measures for run_seconds from BENCHMARK.json. --seconds is accepted so
that callers can pass that value explicitly; any other value is refused, since
the run length is part of the benchmark's definition.

Untraced (--trace 0), a run measures the end-to-end metrics of one workload.
Times are scaled to the speed of the reference host: the child processes
interleave their timed work with bursts of a fixed Fraction kernel, and each
time is multiplied by the kernel's speed on this host relative to its speed on
the reference host (worker.HostSpeed). The wall-clock values are printed
beside the metrics.

    ops_per_s     ops completed per second of op time (closed loop, 1 thread)
    op_p50_ms     median op latency
    op_tail_ms    latency at the highest percentile with at least 10 samples
                  beyond it (the 11th-largest); the percentile and the sample
                  count are printed with it
    setup_s       median over fresh processes of the time to import
                  splinezeros and run the workload's untimed warm-up ops
    peak_rss_mb   peak RSS of the process that ran the loop (VmHWM)
    failed_share  ops that raised or failed their oracle / ops attempted;
                  printed by name and carried as failed / attempted in the
                  result line, and not a BENCHMARK.json metric because it is
                  0 whenever the library is correct

Traced (--trace 1), the run replays the first ops of the same seeded input
sequence twice, untraced and traced, checks that both produce identical
outputs, and reports per-layer calls and self time from the traced replay plus
the tracing overhead (traced ops_per_s / untraced ops_per_s). The replay has a
fixed op count per workload (trace_ops in workloads.py), so its counts repeat
exactly for a seed and compare directly across commits.

Oracles are checked outside the timed region. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. The default
seed is 20240811; a performance claim made with it is re-checked on seed 7.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from array import array
from pathlib import Path

import common

DEFAULT_SEED = 20240811
# A fresh set-up process takes 0.05 to 0.4 s on the reference host, where
# speed moves by a quarter within a second, so the median is taken over many.
SETUP_REPEATS = 15
HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="workload name, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        help="must equal run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def run_child(mode: str, workload: str, seed: int, seconds: int,
              *extra: str) -> dict:
    """Run one worker.py child; one that outlives twice the run length plus
    half a minute is treated as hung."""
    command = [sys.executable, str(HERE / "worker.py"), mode,
               "--workload", workload, "--seed", str(seed), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(command, cwd=common.ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=2 * seconds + 30)
    except subprocess.TimeoutExpired as exc:
        raise common.BenchError(f"{mode} child timed out") from exc
    if done.returncode != 0:
        raise common.BenchError(f"{mode} child exited with {done.returncode}")
    *chunks, result = [json.loads(line) for line in done.stdout.splitlines()]
    latencies = array("d")
    for chunk in chunks:
        latencies.frombytes(bytes.fromhex(chunk["latencies_hex"]))
    result["latencies_ms"] = latencies.tolist()
    return result


def tail(latencies: list[float], block: int) -> tuple[float, float, int]:
    """(value, percentile, blocks): in each complete block of ``block``
    consecutive ops, the latency at the highest percentile that has at least
    ten samples beyond it (the 11th-largest); the median over blocks.

    A fixed block keeps the percentile the same however many ops a run
    completes, so a faster library is not charged a more extreme percentile.
    A run shorter than one block is taken as one block."""
    blocks = [latencies[i:i + block]
              for i in range(0, len(latencies) - block + 1, block)]
    if not blocks:
        blocks = [latencies]
    values = []
    for ops in blocks:
        ordered = sorted(ops)
        values.append(ordered[max(0, len(ordered) - 11)])
    n = len(blocks[0])
    return statistics.median(values), 100.0 * max(0, n - 10) / n, len(blocks)


def scaled(latencies: list[float], segments: list, speed: float) -> list[float]:
    """Latencies scaled to the reference host: each by the factor of the
    kernel burst that followed its segment of ops, and ops after the last
    burst by the run's factor."""
    out = []
    for end, factor in segments + [(len(latencies), speed)]:
        out.extend(latency * factor for latency in latencies[len(out):end])
    return out


def measure(workload, seed: int, seconds: int,
            units: dict[str, str]) -> tuple[dict, list[str]]:
    """End-to-end metrics of one untraced run."""
    name, tail_block = workload.name, workload.tail_block
    setups = [run_child("setup", name, seed, seconds)
              for _ in range(SETUP_REPEATS)]
    loop = run_child("loop", name, seed, seconds, "--seconds", str(seconds))
    latencies = loop["latencies_ms"]
    attempted = len(latencies)
    if attempted == 0:
        raise common.BenchError("no op completed")
    wall = {
        "ops_per_s": attempted / (sum(latencies) / 1e3),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail(latencies, tail_block)[0],
        "setup_s": statistics.median(setup["setup_s"] for setup in setups),
    }
    speed = loop["speed"]
    latencies = scaled(latencies, loop["segments"], speed)
    tail_ms, tail_pct, blocks = tail(latencies, tail_block)
    metrics = {
        "ops_per_s": (attempted / (sum(latencies) / 1e3), "1/s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup["setup_s"] * setup["speed"]
                                      for setup in setups), "s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }
    notes = {metric: f"wall {value:.6g}" for metric, value in wall.items()}
    notes["op_tail_ms"] += (f"; p{tail_pct:.2f}, median over {blocks} blocks "
                            f"of {min(tail_block, attempted)} of "
                            f"{attempted} ops")
    notes["setup_s"] += f"; median of {SETUP_REPEATS} fresh processes"
    lines = [f"{name} {metric}={value:.6g} {unit}"
             + (f"  ({notes[metric]})" if metric in notes else "")
             for metric, (value, unit) in metrics.items()]
    lines.append(f"{name} host speed during the loop: {speed:.4g} of the "
                 f"reference")
    lines.append(f"{name} failed_share={loop['failed'] / attempted:.6g} "
                 f"({loop['failed']} of {attempted} ops; "
                 f"{loop['sampled']} also checked by the sampled oracle)")
    if {m: u for m, (_, u) in metrics.items()} != units:
        raise common.BenchError("end-to-end metrics differ from BENCHMARK.json")
    result = {
        "correct": loop["failed"] == 0,
        "attempted": attempted,
        "failed": loop["failed"],
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    return result, lines


def trace(workload, seed: int, seconds: int,
          units: dict[str, str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from a traced replay, checked against an untraced
    replay of the same ops."""
    name = workload.name
    ops = workload.trace_ops
    extra = ("--ops", str(ops))
    plain = run_child("replay", name, seed, seconds, *extra)
    traced = run_child("replay", name, seed, seconds, *extra, "--trace")
    identical = plain["digests"] == traced["digests"]
    overhead = sum(plain["latencies_ms"]) / sum(traced["latencies_ms"])
    layers = dict(traced["layers"])
    layers["trace.overhead"] = overhead
    layers["trace.ops"] = ops
    failed = plain["failed"] + traced["failed"]
    if set(layers) != set(units):
        raise common.BenchError("traced metrics differ from BENCHMARK.json")
    lines = [f"{name} {metric}={value:.6g} {units[metric]}"
             for metric, value in layers.items()]
    lines.append(f"{name} traced outputs identical to untraced: {identical} "
                 f"({ops} ops); failed {failed} of {2 * ops}")
    result = {
        "correct": identical and failed == 0,
        "attempted": 2 * ops,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in layers.items()},
    }
    return result, lines


def spec_units(spec: dict, section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.load_library()
        import workloads

        with open(common.ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
        seconds = spec["run_seconds"]
        if args.seconds not in (None, seconds):
            raise common.BenchError(f"--seconds must be run_seconds ({seconds}) "
                                    f"from BENCHMARK.json")
        if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
            raise common.BenchError("workloads differ from BENCHMARK.json")
        if args.workload == "all":
            names = list(workloads.WORKLOADS)
        elif args.workload in workloads.WORKLOADS:
            names = [args.workload]
        else:
            raise common.BenchError(f"unknown workload {args.workload!r}; "
                                    f"choose from {list(workloads.WORKLOADS)}")
        for name in names:
            workload = workloads.WORKLOADS[name]
            meta = common.run_metadata(name, args.seed)
            print("# " + json.dumps(meta), flush=True)
            print(f"# {name}: {workload.why}", flush=True)
            if args.trace:
                result, lines = trace(workload, args.seed, seconds,
                                      spec_units(spec, "per_layer"))
            else:
                result, lines = measure(workload, args.seed, seconds,
                                        spec_units(spec, "end_to_end"))
            for line in lines:
                print(line)
            print(json.dumps(result), flush=True)
    except common.BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
