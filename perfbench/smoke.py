"""The benchmark's own test: every workload at its smallest size, untraced
and traced.

    python3 perfbench/smoke.py

Checks that each run prints every end-to-end metric with its unit and
sample count, that the traced run reports every per-layer metric and a
non-zero call count for each layer the workload is known to call, that every
output matched its recorded digest, and that the benchmark refuses to run
from a tree that holds no weil1 sources.  Exits non-zero on the first
failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from common import BENCH, OUT, ROOT, load_expected
from tracing import load_spans

# Layers each workload's traced run must call (setup included).
CALLED = {
    "roundtrip": ["genexpr.decompose", "genexpr.evaluate", "morphism.pair_into",
                  "morphism.compose_restriction", "morphism.compose", "morphism.tensor_mor",
                  "morphism.make", "weilalg.poly_trusted", "weilalg.dict_mul",
                  "verify.enumerate_hom", "verify.kappa_candidates",
                  "cotree.cotree_decompose", "cograph.ind_plus"],
    "sample4": ["genexpr.decompose", "genexpr.evaluate", "genexpr.expand_ghat",
                "morphism.pair_into", "morphism.compose_restriction", "morphism.make",
                "weilalg.poly_trusted", "verify.kappa_candidates",
                "cotree.cotree_decompose", "cograph.ind_plus"],
    "verify": ["verify.check_tangent_axioms", "verify.check_equalizer",
               "verify.check_foundational_pullback", "verify.enumerate_hom",
               "verify.count_graph_maps", "verify.kappa_candidates", "morphism.compose",
               "morphism.make", "weilalg.dict_mul"],
    "cli": ["dsl.parse_object", "dsl.parse_morphism", "cograph.kappa", "cograph.ind_plus",
            "cotree.cotree_decompose", "verify.enumerate_hom", "genexpr.decompose",
            "genexpr.evaluate"],
}
SUBCOMMANDS = ("parse", "validate", "compose", "decompose", "evaluate", "kappa",
               "cotree", "hom", "dot")


def run(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int, bench: dict) -> None:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True and result["attempted"] >= 1, record
    assert record["unexpected_failures"] == 0, record["failures"]
    assert "digest_mismatch" not in record["failures"], record["failures"]
    if workload == "sample4":
        known = set(load_expected("defects")["sample4"]["counts"])
        assert set(record["failures"]) <= known, record["failures"]
    else:
        assert result["failed"] == 0, record["failures"]
    for key in ("python", "nproc", "git_commit", "workload", "seed", "items"):
        assert key in record, key
    wanted = bench["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted], list(result["metrics"])
    for m in wanted:
        got = record["metrics"][m["name"]]
        assert got["unit"] == m["unit"] == result["metrics"][m["name"]]["unit"], m
        assert got["samples"] >= 1, m
        if not trace:
            assert got["value"] > 0, (m, got)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for layer in CALLED[workload]:
            key = layer + ".calls" if layer + ".calls" in values else layer + ".s"
            assert values[key] > 0, (workload, key)
        assert values["cli.interpreter_ms"] > 0
        if workload == "cli":
            for sub in SUBCOMMANDS:
                assert values[f"cli.{sub}.p50_ms"] > 0, sub
        if workload == "roundtrip":
            assert values["genexpr.evaluate.repeat_share"] > 0
            assert values["genexpr.expr_nodes"] > 0
        if workload == "verify":
            assert values["verify.check_foundational_pullback.cones"] > 0
        check_spans(OUT / ("spans-cli_call-seed1-0.bin" if workload == "cli"
                           else f"spans-{workload}-seed1.bin"))
    print(f"ok {workload} trace={trace}: {record['items']} items, "
          f"failures {record['failures'] or 'none'}")


def check_spans(path) -> None:
    """The span file reads back, and every span sits inside its parent."""
    _names, spans = load_spans(path)
    assert spans, path
    for i, (_name, parent, _item, start, end) in enumerate(spans):
        assert start <= end, (path, i)
        if parent >= 0:
            assert parent < i and spans[parent][3] <= start and end <= spans[parent][4], (path, i)


def check_refuses_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("roundtrip", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare)
    print("ok refuses to run without sources")


def main() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    check_refuses_without_sources()
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            check_run(workload, trace, bench)


if __name__ == "__main__":
    main()
