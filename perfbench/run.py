"""The weil1 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in fresh worker processes, checks every output, and prints
a record line followed, as the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones listed in BENCHMARK.json; with
``--trace 1`` a separate traced pass gives the per-layer ones.  Metric names
and units come from BENCHMARK.json; see perfbench/README.md for what each
one means on each workload.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time

from common import (OUT, ROOT, SRC, BenchError, Deadline, child_env, environment,
                    p50, p90, spawn_worker)

SETUP_SAMPLES = 5  # workers that set up per run, at least; setup_s is their median
MIN_PASSES = 2  # worker passes per untraced run, at least
FLOOR_SAMPLES = 7  # bare interpreter starts and imports timed per traced run

# A run repeats a worker pass, each in a fresh process, until --seconds are
# spent, and pools what every pass measured.  The machine's speed drifts by
# tens of percent over seconds to minutes, so the metrics are medians and
# means over the whole run, never the fastest pass.  Pass sizes, from a
# 2-CPU machine, aim at two or three passes a run:
# roundtrip: STRIDE interleaved slices of the sweep, and seconds of --seconds
# per slice in a pass (a slice times ~3.9 s; a pass spends ~2 s more on
# set-up and checks); slices differ by up to 25 % in memory and time, so a
# pass takes several and each pass other ones
STRIDE = 40
RT_SLICE_EVERY_S = 10
# sample4: pool items per second of --seconds (~36 items/s), and the
# recorded pool size
S4_RATE = 10
S4_POOL_MAX = 720
# verify: one cold verdict per pass, and the suite size
V_MAX_VERTICES = 1
# cli: seconds of --seconds per pool block in a pass (a block is 12 calls of
# ~0.14 s each), and blocks in the recorded pool
CLI_BLOCK_EVERY_S = 6
CLI_BLOCKS = 40


def _count(seconds: float, per_second: float, low: int, high: int) -> int:
    return max(low, min(high, round(seconds * per_second)))


def _chunk(seed: int, size: int, n: int, pass_no: int) -> list[int]:
    """Pass ``pass_no``'s n of ``range(size)``: consecutive chunks of one
    seeded permutation, so the passes of a run take different parts."""
    perm = random.Random(seed).sample(range(size), size)
    return [perm[(pass_no * n + i) % size] for i in range(n)]


def plan(workload: str, seed: int, seconds: float, pass_no: int = 0) -> dict:
    """The worker spec of one pass of an untraced run; the inputs depend only
    on the seed, the run length and the pass number."""
    base = {"workload": workload, "role": "timed", "seed": seed, "pass": pass_no}
    if workload == "verify":
        # every verdict is the same work; the seed does not change it
        return {**base, "max_vertices": V_MAX_VERTICES}
    if workload == "roundtrip":
        n = _count(seconds, 1 / RT_SLICE_EVERY_S, 1, STRIDE)
        return {**base, "stride": STRIDE, "offsets": _chunk(seed, STRIDE, n, pass_no)}
    if workload == "sample4":
        # every pass takes the whole pool, in its own order
        return {**base, "pool": _count(seconds, S4_RATE, 18, S4_POOL_MAX)}
    if workload == "cli":
        n = _count(seconds, 1 / CLI_BLOCK_EVERY_S, 1, CLI_BLOCKS)
        return {**base, "blocks": _chunk(seed, CLI_BLOCKS, n, pass_no)}
    raise BenchError(f"unknown workload {workload!r}")


def trace_plan(workload: str, seed: int, seconds: float) -> dict:
    """The one worker spec a traced run measures twice, untraced and traced;
    a shorter input than the untraced run's first pass, as tracing
    multiplies its cost."""
    spec = plan(workload, seed, seconds)
    if workload == "roundtrip":
        spec["offsets"] = spec["offsets"][:1]
    if workload == "sample4":
        spec["pool"] = max(18, spec["pool"] // 2)
    if workload == "cli":
        spec["blocks"] = spec["blocks"][: max(1, len(spec["blocks"]) // 2)]
    return spec


def measure(workload: str, seed: int, seconds: float,
            deadline: Deadline) -> tuple[list[float], list[dict]]:
    """Run passes until the next one would end after ``seconds`` (at least
    MIN_PASSES), then set-up-only workers until there are SETUP_SAMPLES
    set-up times.  Returns the set-up times and every pass's result."""
    start = time.monotonic()
    passes: list[dict] = []
    last = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() - start + last <= seconds:
        t = time.monotonic()
        passes.append(spawn_worker(plan(workload, seed, seconds, len(passes)), deadline))
        last = time.monotonic() - t
    setups = [r["setup_s"] for r in passes]
    while len(setups) < SETUP_SAMPLES:
        spec = plan(workload, seed, seconds, len(setups))
        setups.append(spawn_worker({**spec, "role": "setup"}, deadline)["setup_s"])
    return setups, passes


def end_to_end(setups: list[float], passes: list[dict]) -> dict[str, tuple[float, int]]:
    """Each end-to-end metric as (value, sample count), pooled over the
    passes: latencies of every item of every pass, goodput and the mean
    verdict over their timed phases, peak memory the largest of any pass's.
    The speed drift often slows a stretch of the run by a fixed share; a
    mean moves with the stretch's length, where the median of a narrow
    distribution (verify's verdicts) jumps between the two speeds."""
    lat = [x for r in passes for x in r["lat_ms"]]
    good = sum(r["attempted"] - r["failed"] for r in passes)
    return {
        "setup_s": (p50(setups), len(setups)),
        "goodput_per_s": (good / sum(r["timed_s"] for r in passes), len(passes)),
        "verdict_s": (statistics.fmean(r["timed_s"] for r in passes), len(passes)),
        "latency_p50_ms": (p50(lat), len(lat)),
        "latency_p90_ms": (p90(lat), len(lat)),
        "peak_rss_mb": (max(r["rss_mb"] for r in passes),
                        sum(r["rss_processes"] for r in passes)),
    }


def floors(deadline: Deadline) -> dict[str, float]:
    """p50 of a bare interpreter start, and of importing weil1.cli on top."""
    def p50_ms(code: str) -> float:
        times = []
        for _ in range(FLOOR_SAMPLES):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                           check=True, timeout=deadline.left())
            times.append((time.perf_counter() - t) * 1000.0)
        return p50(times)

    interpreter = p50_ms("pass")
    return {"cli.interpreter_ms": interpreter,
            "cli.import_ms": p50_ms("import weil1.cli") - interpreter}


def per_layer(names: list[str], untraced: dict, traced: dict, extra: dict) -> dict[str, float]:
    layers = traced.get("layers") or traced["extra"].get("layers", {})
    counters = traced.get("counters") or traced["extra"].get("counters", {})
    by_command = untraced["extra"].get("by_command", {})
    values = dict(extra)
    values["trace.overhead_share"] = traced["timed_s"] / untraced["timed_s"] - 1.0
    values["genexpr.expr_nodes"] = traced["extra"].get("expr_nodes", 0)
    for layer in ("genexpr.evaluate", "morphism.compose_restriction"):
        keyed = counters.get(layer + ".keyed", 0)
        values[layer + ".repeat_share"] = counters.get(layer + ".repeats", 0) / keyed if keyed else 0.0
    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
        elif name in counters:
            out[name] = counters[name]
        elif name.startswith("cli.") and name.endswith(".p50_ms"):
            times = by_command.get(name[4:-7])
            out[name] = p50(times) if times else 0.0
        else:  # a layer the workload never called reads 0
            layer, _, quantity = name.rpartition(".")
            out[name] = layers.get(layer, {}).get(quantity, 0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "weil1" / "__init__.py").is_file():
        print(f"benchmark error: no weil1 package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    deadline = Deadline()
    try:
        if args.trace:
            spec = trace_plan(args.workload, args.seed, args.seconds)
            untraced = spawn_worker(spec, deadline)
            flag = "trace_calls" if args.workload == "cli" else "trace"
            traced = spawn_worker({**spec, flag: True}, deadline)
            results = [untraced, traced]
            names = [m["name"] for m in bench["per_layer"]]
            values = per_layer(names, untraced, traced, floors(deadline))
            metrics = {n: (values[n], 1) for n in names}
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        else:
            setups, results = measure(args.workload, args.seed, args.seconds, deadline)
            metrics = end_to_end(setups, results)
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            if set(metrics) != set(units):
                raise BenchError("end-to-end metrics differ from BENCHMARK.json")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    causes: dict[str, int] = {}
    for r in results:
        for cause, n in r["causes"].items():
            causes[cause] = causes.get(cause, 0) + n
    record = {
        **environment(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "items": attempted, "workers": len(results),
        "error_rate": failed / attempted if attempted else 0.0,
        "failures": causes,
        "unexpected_failures": sum(r["unexpected"] for r in results),
        "metrics": {n: {"value": v, "unit": units[n], "samples": k}
                    for n, (v, k) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": record["unexpected_failures"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, (v, _k) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
