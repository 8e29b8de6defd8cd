"""cli: fresh ``python -m weil1.cli`` processes, one at a time (a closed loop
with one client).

The pool is made of blocks; block ``b`` holds one invocation of each entry
of ``TEMPLATES``, with inputs drawn from a generator seeded by
``POOL_SEED`` and ``b``.  A run takes the blocks its ``--seed`` picks, so
every run has the same mix of subcommands.  Objects and morphisms have at
most 3 vertices; the ``cotree`` graphs have at most 6 vertices and include
non-cographs, which must exit 2; malformed text must exit 1 or 2.
"""

from __future__ import annotations

import itertools
import json
import random
import resource
import subprocess
import sys
import time

from weil1 import cograph as cg
from weil1 import cotree as ct
from weil1 import dsl
from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import verify as vf
from weil1.rig import Rig
from weil1.weilalg import algebra_of

from common import WORKER, load_expected, rss_mb, sha256
from wl_sample4 import draw_images

POOL_SEED = 1605
TEMPLATES = ("parse", "parse_morphism", "validate", "compose", "decompose",
             "evaluate_bool2", "evaluate_nat", "kappa", "cotree", "hom", "dot",
             "malformed")
CALL_TIMEOUT_S = 60


def _morphism(rnd, objs, a=None, b=None):
    a = a if a is not None else rnd.choice(objs)
    b = b if b is not None else rnd.choice(objs)
    return mor.make(algebra_of(a), algebra_of(b), draw_images(rnd, a, b), check=True)


def _to_nat(rnd, f):
    images = [{mask: rnd.randint(1, 3) for mask, _ in p.terms} for p in f.images]
    return mor.make(algebra_of(f.source.cotree, Rig.NAT),
                    algebra_of(f.target.cotree, Rig.NAT), images, check=True)


def _graph_text(rnd) -> str:
    n = rnd.randint(1, 6)
    edges = [f"{u}-{v}" for u, v in itertools.combinations(range(1, n + 1), 2)
             if rnd.random() < 0.5]
    return f"{n}; " + " ".join(edges)


def _insert(rnd, text: str, junk: str) -> str:
    i = rnd.randint(0, len(text))
    return text[:i] + junk + text[i:]


def invocation(block: int, template: str) -> dict:
    """One pool invocation: argv plus what its checks need."""
    rnd = random.Random(f"{POOL_SEED}:{block}:{template}")
    objs = vf.canonical_objects(3)
    fmt = ct.format_cotree
    if template == "parse":
        return {"argv": ["parse", fmt(rnd.choice(objs))]}
    if template == "parse_morphism":
        return {"argv": ["parse", dsl.format_morphism(_morphism(rnd, objs), name="g")]}
    if template == "validate":
        return {"argv": ["validate", dsl.format_morphism(_morphism(rnd, objs))]}
    if template == "compose":
        f = _morphism(rnd, objs)
        g = _morphism(rnd, objs, a=f.target.cotree)
        return {"argv": ["compose", dsl.format_morphism(f), dsl.format_morphism(g, name="g")]}
    if template == "decompose":
        return {"argv": ["decompose", "--check", dsl.format_morphism(_morphism(rnd, objs))]}
    if template in ("evaluate_bool2", "evaluate_nat"):
        f = _morphism(rnd, objs)
        rig = "bool2"
        if template == "evaluate_nat":
            f, rig = _to_nat(rnd, f), "nat"
        return {"argv": ["evaluate", "--rig", rig, ge.format_genexpr(ge.decompose(f))],
                "expect_stdout": dsl.format_morphism(f) + "\n"}
    if template == "kappa":
        t = rnd.choice(objs[1:])
        return {"argv": ["kappa", fmt(t)], "kappa_of": fmt(t)}
    if template == "cotree":
        return {"argv": ["cotree", _graph_text(rnd)]}
    if template == "hom":
        # sources of at most 2 vertices keep a hom-set to at most 40^2 members
        pairs = [(a, b) for a in objs if ct.leaves(a) <= 2 for b in objs]
        a, b = rnd.choice(pairs)
        return {"argv": ["hom", fmt(a), fmt(b)], "hom": [fmt(a), fmt(b)]}
    if template == "dot":
        kind = rnd.choice(("object", "kappa", "morphism"))
        if kind == "morphism":
            return {"argv": ["dot", "--morphism", dsl.format_morphism(_morphism(rnd, objs))]}
        obj = fmt(rnd.choice(objs[1:]))
        return {"argv": ["dot", "--kappa", obj] if kind == "kappa" else ["dot", obj]}
    if template == "malformed":
        # "@@" never parses inside an object, two arrows never parse in a
        # morphism, and a letter breaks every integer of the graph syntax
        kind = rnd.choice(("object", "morphism", "graph"))
        if kind == "object":
            return {"argv": ["parse", _insert(rnd, fmt(rnd.choice(objs)), "@@")], "malformed": True}
        if kind == "morphism":
            text = _insert(rnd, dsl.format_morphism(_morphism(rnd, objs)), " |-> |-> ")
            return {"argv": ["validate", text], "malformed": True}
        return {"argv": ["cotree", _insert(rnd, _graph_text(rnd), "x")], "malformed": True}
    raise ValueError(f"unknown template {template!r}")


def build(spec: dict) -> dict:
    calls = []
    for block in spec["blocks"]:
        for i, template in enumerate(TEMPLATES):
            calls.append({"key": f"{block}:{i}", **invocation(block, template)})
    return {"calls": calls}


def run(inputs: dict, spec: dict, out, tracer) -> None:
    traced = spec.get("trace_calls")
    clock = time.perf_counter
    by_command: dict[str, list[float]] = {}
    layers: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for i, call in enumerate(inputs["calls"]):
        argv = call["argv"]
        if traced:
            cmd = [sys.executable, str(WORKER), json.dumps(
                {"workload": "cli_call", "argv": argv, "seed": spec["seed"], "call": f"-{i}"})]
        else:
            cmd = [sys.executable, "-m", "weil1.cli", *argv]
        t = clock()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc = None
        dt = (clock() - t) * 1000.0
        out.lat_ms.append(dt)
        by_command.setdefault(argv[0], []).append(dt)
        if proc is None:
            out.fail(call["key"], "timeout")
            call["rc"], call["stdout"] = None, ""
        elif traced:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            call["rc"], call["stdout"] = result["rc"], result["stdout"]
            _merge(layers, counters, result)
        else:
            call["rc"], call["stdout"] = proc.returncode, proc.stdout
    out.attempted = len(inputs["calls"])
    out.extra.update(by_command=by_command, rss_mb=rss_mb(resource.RUSAGE_CHILDREN),
                     rss_processes=len(inputs["calls"]))
    if traced:
        out.extra.update(layers=layers, counters=counters)


def _merge(layers, counters, result) -> None:
    for name, row in result["layers"].items():
        acc = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for q, v in row.items():
            acc[q] += v
    for name, v in result["counters"].items():
        counters[name] = counters.get(name, 0) + v


def has_induced_p4(g: cg.Graph) -> bool:
    """Brute-force search over ordered 4-tuples, as acceptance criterion 9."""
    for a, b, c, d in itertools.permutations(range(1, g.n + 1), 4):
        if (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
                and not g.has_edge(a, c) and not g.has_edge(a, d)
                and not g.has_edge(b, d)):
            return True
    return False


def _cotree_ok(text: str, rc: int, stdout: str) -> bool:
    head, _, rest = text.partition(";")
    g = cg.graph(int(head), [tuple(map(int, e.split("-"))) for e in rest.split()])
    if has_induced_p4(g):
        return rc == 2
    lines = stdout.splitlines()
    if rc != 0 or len(lines) != 2:
        return False
    tree = dsl.parse_object(lines[0].removeprefix("object: "))
    perm = [int(x) for x in lines[1].removeprefix("relabel: ").split()]
    relabelled = cg.graph(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])
    return relabelled == ct.realize(tree)


def oracle_ok(call: dict) -> bool:
    """The independent check of one invocation's exit code and output."""
    argv, rc, stdout = call["argv"], call["rc"], call["stdout"]
    if call.get("malformed"):
        return rc in (1, 2)
    cmd = argv[0]
    if cmd == "cotree":
        return _cotree_ok(argv[1], rc, stdout)
    if rc != 0:
        return False
    lines = stdout.splitlines()
    if "expect_stdout" in call:
        return stdout == call["expect_stdout"]
    if cmd == "decompose":
        return lines[-1] == "roundtrip OK"
    if cmd == "hom":
        a, b = (dsl.parse_object(x) for x in call["hom"])
        n = vf.count_graph_maps(a, b)
        return lines[0] == str(n) and len(lines) == n + 1
    if cmd == "kappa":
        n = len(vf.kappa_candidates(dsl.parse_object(call["kappa_of"])))
        return lines[0] == f"kappa({call['kappa_of']}): {n} vertices"
    if cmd == "dot":
        return lines[0] == "graph {" and lines[-1] == "}"
    if cmd == "validate":
        return lines == ["valid: " + argv[1]]
    if cmd == "compose":
        return len(lines) == 1 and lines[0].startswith("g.f : ")
    return len(lines) == 1  # parse


def check(inputs: dict, spec: dict, out) -> None:
    digests = {}
    for call in inputs["calls"]:
        if call["rc"] is None:
            continue
        if not oracle_ok(call):
            out.fail(call["key"], f"oracle:{call['argv'][0]}")
        digests[call["key"]] = sha256(f"{call['rc']}\n{call['stdout']}")
    if spec.get("record"):
        out.extra["digests"] = digests
        return
    expected = load_expected("cli")["digests"]
    for key, digest in digests.items():
        if expected[key] != digest:
            out.fail(key, "digest_mismatch")


def known_defect(key, cause: str) -> bool:
    return False
