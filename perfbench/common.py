"""Locating the library under test and describing the machine a result came from."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


def load_library():
    """Import splinezeros from this checkout's ``src`` tree and nowhere else.

    An installed copy elsewhere on the path would measure other code, so a
    checkout without sources is an error rather than a fallback."""
    package = SRC / "splinezeros"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no splinezeros sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import splinezeros

    if Path(splinezeros.__file__).resolve().parent != package:
        raise BenchError(f"splinezeros imported from {splinezeros.__file__}, "
                         f"not from {package}")
    return splinezeros


def source_digest() -> str:
    """sha256 over the library's source files, in path order; identifies the
    code under test where no git metadata exists."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "splinezeros").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def run_metadata(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }
