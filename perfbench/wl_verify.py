"""verify: one cold ``verify.run_verify`` verdict per worker.

The README's ``weil1 verify --max-vertices 2`` takes well over a minute, more
than one benchmark run may spend, so the timed verdict is the same suite at
``max_vertices=1``: the same call, in run_verify's own order, with both
``Tm_preserves_pullback`` re-checks and the Kleisli spot check.  The inputs
are fixed by the suite; the seed does not change them.
"""

from __future__ import annotations

import time

from weil1 import verify as vf

from common import cone_counts, load_expected, sha256

def build(spec: dict) -> dict:
    return {}


def run(inputs: dict, spec: dict, out, tracer) -> None:
    t = time.perf_counter()
    report = vf.run_verify(max_vertices=spec["max_vertices"])
    out.lat_ms.append((time.perf_counter() - t) * 1000.0)
    inputs["report"] = report
    out.attempted = len(report.results)
    for r in report.failures():
        out.fail(r.ident, "check_failed")


def summary(report) -> dict:
    cones, certified = cone_counts(r.ident for r in report.results)
    return {
        "digest": sha256(report.format_lines()),
        "checks": len(report.results),
        "cones": cones,
        "certified": certified,
    }


def check(inputs: dict, spec: dict, out) -> None:
    report = inputs["report"]
    got = summary(report)
    if spec.get("record"):
        out.extra["summary"] = got
        return
    want = load_expected("verify")[str(spec["max_vertices"])]
    if got != want:
        cause = "digest_mismatch" if got["digest"] != want["digest"] else "cone_count_mismatch"
        for r in report.results:
            out.fail(r.ident, cause)


def known_defect(key, cause: str) -> bool:
    return False
