"""One benchmark worker process: build a workload's inputs, run its items,
check them, print one JSON result line.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload and its role: ``setup`` builds the inputs and
stops, ``timed`` also runs and checks every item.  With ``"trace": true`` the
layer wrappers are installed before the inputs are built.  ``cli_call`` runs
one ``weil1.cli.main(argv)`` under the tracer.
"""

from __future__ import annotations

import collections
import contextlib
import importlib
import io
import json
import os
import sys
import time

from common import OUT, rss_mb
from tracing import Tracer

MODULES = {
    "roundtrip": "wl_roundtrip",
    "sample4": "wl_sample4",
    "verify": "wl_verify",
    "cli": "wl_cli",
}


class Outcome:
    """Per-item results of one worker: latencies and failures by item key."""

    def __init__(self):
        self.attempted = 0
        self.lat_ms: list[float] = []
        self.failures: dict[object, str] = {}
        self.extra: dict[str, object] = {}

    def fail(self, key, cause: str) -> None:
        self.failures.setdefault(key, cause)


def emit(result: dict) -> None:
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    sys.stdout.flush()


def span_path(spec: dict) -> str:
    """One file per workload and seed (per call for cli), replaced by the
    next traced run of the same seed."""
    OUT.mkdir(exist_ok=True)
    name = f"spans-{spec['workload']}-seed{spec['seed']}{spec.get('call', '')}.bin"
    return str(OUT / name)


def tracer_result(tracer: Tracer, spec: dict) -> dict:
    path = span_path(spec)
    tracer.write(path)
    return {"layers": tracer.layer_totals(), "counters": tracer.counters, "spans": path}


def cli_call(spec: dict) -> None:
    """Run one CLI invocation in-process under the tracer."""
    tracer = Tracer()
    tracer.install()
    import weil1.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = weil1.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 1
    tracer.uninstall()
    emit({"rc": rc, "stdout": buf.getvalue(), **tracer_result(tracer, spec)})


def main() -> None:
    spec = json.loads(sys.argv[1])
    if spec["workload"] == "cli_call":
        cli_call(spec)
        return
    wl = importlib.import_module(MODULES[spec["workload"]])
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        tracer.install()
    inputs = wl.build(spec)
    first = time.monotonic()
    if spec["role"] == "setup":
        emit({"first_item_at": first})
        return
    out = Outcome()
    t0 = time.perf_counter()
    wl.run(inputs, spec, out, tracer)
    timed = time.perf_counter() - t0
    peak = rss_mb()  # before the checks, whose own memory is not the workload's
    if tracer is not None:
        tracer.uninstall()
    wl.check(inputs, spec, out)
    causes = collections.Counter(out.failures.values())
    unexpected = 0 if spec.get("record") else sum(
        1 for key, cause in out.failures.items() if not wl.known_defect(key, cause))
    result = {
        "first_item_at": first,
        "timed_s": timed,
        "attempted": out.attempted,
        "failed": len(out.failures),
        "unexpected": unexpected,
        "causes": dict(causes),
        "lat_ms": out.lat_ms,
        "rss_mb": out.extra.pop("rss_mb", None) or peak,
        "rss_processes": out.extra.pop("rss_processes", 1),
        "extra": out.extra,
    }
    if tracer is not None:
        result.update(tracer_result(tracer, spec))
    emit(result)


if __name__ == "__main__":
    main()
    # The result is printed and flushed; skip tearing down the caches, which
    # can take seconds after a large run and measures nothing.
    os._exit(0)
