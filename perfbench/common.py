"""Paths, child processes, statistics and recorded expectations shared by
run.py and its worker processes."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKER = BENCH / "worker.py"
EXPECTED = BENCH / "expected"
OUT = ROOT / ".perfbench"

# Every run of run.py must end within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed item)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


class Deadline:
    """Wall-clock budget for one run; child timeouts are cut to fit it."""

    def __init__(self, seconds: float = RUN_LIMIT_S):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 1.0:
            raise BenchError("run exceeded its time limit")
        return left


def spawn_worker(spec: dict, deadline: Deadline) -> dict:
    """Run one worker process to completion and return its result.

    ``setup_s`` is measured from just before the spawn to the moment the
    worker reports it started its first timed item (both on the system-wide
    monotonic clock)."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), json.dumps(spec)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=deadline.left(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {spec.get('workload')} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {spec.get('workload')} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {spec.get('workload')} printed nothing")
    out = json.loads(lines[-1])
    out["setup_s"] = out.pop("first_item_at") - t0
    return out


_CONES = re.compile(r"\(cones=(\d+)\)")


def cone_counts(idents) -> tuple[int, int]:
    """Cones swept and squares settled by certificate, from report idents."""
    cones = certified = 0
    for ident in idents:
        m = _CONES.search(ident)
        if m:
            cones += int(m.group(1))
        elif ident.endswith("(certified)"):
            certified += 1
    return cones, certified


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(name: str) -> dict:
    with open(EXPECTED / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def save_expected(name: str, data: dict) -> None:
    EXPECTED.mkdir(exist_ok=True)
    with open(EXPECTED / f"{name}.json", "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    """90th percentile, interpolating between the closest ranks."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git (the
    benchmark may run from a plain copy of the tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            path = ROOT / ".git" / name
            if path.exists():
                return path.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }
