"""Full-size runs to set beside ROADMAP item 1's figures: the whole
criterion-3 sweep (all 166,963 {0,1} morphisms between objects with at most
3 vertices, every item checked against its recorded digest) and the full
``run_verify(max_vertices=2)``.  Each runs once, cold, in its own worker.

    python3 perfbench/calibrate.py

The sweep alone needs about 2 GB of memory.
"""

from __future__ import annotations

import json

from common import Deadline, environment, spawn_worker
from run import STRIDE

CALIBRATE_LIMIT_S = 1200.0


def main() -> None:
    rows = []
    sweep = spawn_worker({"workload": "roundtrip", "role": "timed", "seed": 0,
                          "stride": STRIDE, "offsets": None}, Deadline(CALIBRATE_LIMIT_S))
    verdict = spawn_worker({"workload": "verify", "role": "timed", "seed": 0,
                            "max_vertices": 2}, Deadline(CALIBRATE_LIMIT_S))
    for name, r, roadmap in (("criterion 3 sweep", sweep, "84 s, 1.96 GB"),
                             ("verify --max-vertices 2", verdict, "94 s")):
        rows.append({
            "run": name, "items": r["attempted"], "failed": r["failed"],
            "failures": r["causes"], "setup_s": round(r["setup_s"], 2),
            "timed_s": round(r["timed_s"], 2), "peak_rss_mb": round(r["rss_mb"]),
            "roadmap_item_1": roadmap,
        })
    print(json.dumps({"environment": environment(), "runs": rows}, indent=1))


if __name__ == "__main__":
    main()
