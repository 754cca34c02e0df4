"""Each benchmark workload replays its first ops against the library in
src/: the calls the benchmark makes keep working, and their outputs pass the
workload's own checks. The replay is untraced, so it writes no file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["theorem9-sweep", "extension-suites", "conjecture-images",
             "boxeval-scatter"]
OPS = 8


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_replays_without_failures(workload):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "replay",
         "--workload", workload, "--seed", "20240811", "--ops", str(OPS)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["failed"] == 0
    assert len(report["digests"]) == OPS and None not in report["digests"]
