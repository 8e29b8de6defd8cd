"""Record the canonical-output digests and the defect ledger that the
benchmark checks against.  Run once on the commit whose output is the
reference; later runs compare with what this wrote to perfbench/expected/.

    python3 perfbench/record.py [roundtrip|sample4|verify|cli ...]
"""

from __future__ import annotations

import sys

from common import Deadline, load_expected, save_expected, spawn_worker
from run import CLI_BLOCKS, S4_POOL_MAX, STRIDE, V_MAX_VERTICES

# Generous: recording runs whole pools and the full verify suite.
RECORD_LIMIT_S = 1800.0


def _require_clean(result: dict) -> None:
    if result["failed"]:
        raise SystemExit(f"refusing to record failing output: {result['causes']}")


def record_roundtrip() -> None:
    digests = {}
    for offset in range(STRIDE):
        r = spawn_worker({"workload": "roundtrip", "role": "timed", "seed": 0, "record": True,
                          "stride": STRIDE, "offsets": [offset]}, Deadline(RECORD_LIMIT_S))
        _require_clean(r)
        digests.update(r["extra"]["digests"])
    save_expected("roundtrip", {"stride": STRIDE, "digests": digests})


def record_sample4() -> None:
    r = spawn_worker({"workload": "sample4", "role": "timed", "seed": 0, "record": True,
                      "pool": S4_POOL_MAX}, Deadline(RECORD_LIMIT_S))
    save_expected("sample4", {"pool": S4_POOL_MAX, "digests": r["extra"]["digests"]})
    failures = r["extra"]["failures"]
    counts: dict[str, int] = {}
    for cause in failures.values():
        counts[cause] = counts.get(cause, 0) + 1
    try:
        ledger = load_expected("defects")
    except FileNotFoundError:
        ledger = {}
    ledger["sample4"] = {"pool": S4_POOL_MAX, "items": failures, "counts": counts}
    save_expected("defects", ledger)


def record_verify() -> None:
    out = {}
    for max_vertices in sorted({V_MAX_VERTICES, 2}):
        r = spawn_worker({"workload": "verify", "role": "timed", "seed": 0, "record": True,
                          "max_vertices": max_vertices}, Deadline(RECORD_LIMIT_S))
        _require_clean(r)
        out[str(max_vertices)] = r["extra"]["summary"]
    save_expected("verify", out)


def record_cli() -> None:
    r = spawn_worker({"workload": "cli", "role": "timed", "seed": 0, "record": True,
                      "blocks": list(range(CLI_BLOCKS))}, Deadline(RECORD_LIMIT_S))
    _require_clean(r)
    save_expected("cli", {"blocks": CLI_BLOCKS, "digests": r["extra"]["digests"]})


RECORDERS = {"roundtrip": record_roundtrip, "sample4": record_sample4,
             "verify": record_verify, "cli": record_cli}

if __name__ == "__main__":
    for name in sys.argv[1:] or RECORDERS:
        RECORDERS[name]()
        print(f"recorded {name}")
