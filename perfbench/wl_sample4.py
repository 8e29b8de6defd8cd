"""sample4: seeded morphisms into the 4-vertex objects.

Item ``k`` of the pool is a morphism from source ``k mod 18`` (the objects
with at most 4 vertices) to target ``(k // 18) mod 10`` (the 4-vertex
objects), so every stretch of 180 items covers each source-target pair
once.  Its images are drawn by backtracking over ``verify.kappa_candidates``
with a generator seeded by ``POOL_SEED`` and ``k``; one item in four is
lifted to the naturals with coefficients 1-3.  The pool is the first
``pool`` items; the run's ``--seed`` and the pass number set the order
they are processed in, so the passes of one run warm the caches in
different orders.

Per-item cost is heavy-tailed (a few items into 4W take seconds), so a
sample drawn afresh from every seed would spread far more than any bound;
a fixed pool keeps the work equal between runs while the order varies.
"""

from __future__ import annotations

import functools
import random
import time

from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import verify as vf
from weil1.cotree import leaves
from weil1.rig import Rig
from weil1.weilalg import algebra_of, dict_mul

from common import load_expected, sha256
from wl_roundtrip import canonical_texts, distinct_nodes

POOL_SEED = 1605
NAT_SHARE = 0.25

# ROADMAP item 3: the slot tensor outgrows Graph's 63-vertex cap.
VERTEX_CAP = "graph_vertex_cap"
# ROADMAP item 4: expand_ghat rebuilds Pair without k1/k2.
EXPAND_GHAT = "expand_ghat_drops_k1_k2"


def draw_images(rnd: random.Random, a, b) -> list[dict[int, int]]:
    """Images of a random {0,1} morphism a -> b, one generator at a time,
    backtracking over ``verify.kappa_candidates`` in a shuffled order."""
    cands = vf.kappa_candidates(b)
    dicts = [dict(terms) for terms in cands]
    src = algebra_of(a, Rig.BOOL2)
    tgt = algebra_of(b, Rig.BOOL2)
    earlier = [[] for _ in range(src.n)]
    for u, v in src.graph.edges:
        earlier[v - 1].append(u - 1)
    choice: list[int] = []

    def extend(i: int) -> bool:
        if i == src.n:
            return True
        order = list(range(len(cands)))
        rnd.shuffle(order)
        for c in order:
            if all(not dict_mul(dicts[choice[j]], dicts[c], tgt) for j in earlier[i]):
                choice.append(c)
                if extend(i + 1):
                    return True
                choice.pop()
        return False

    extend(0)
    return [dicts[c] for c in choice]


def draw(k: int, objs, targets):
    """Pool item k: (morphism, lifted to nat?)."""
    rnd = random.Random(POOL_SEED * 1_000_003 + k)
    a = objs[k % len(objs)]
    b = targets[(k // len(objs)) % len(targets)]
    images = draw_images(rnd, a, b)
    nat = rnd.random() < NAT_SHARE
    rig = Rig.NAT if nat else Rig.BOOL2
    if nat:
        images = [{mask: rnd.randint(1, 3) for mask in d} for d in images]
    return mor.make(algebra_of(a, rig), algebra_of(b, rig), images, check=True), nat


def build(spec: dict) -> dict:
    objs = vf.canonical_objects(4)
    targets = [t for t in objs if leaves(t) == 4]
    pool = [draw(k, objs, targets) for k in range(spec["pool"])]
    order = list(range(len(pool)))
    random.Random(f"{spec['seed']}:{spec.get('pass', 0)}").shuffle(order)
    return {"pool": pool, "order": order, "exprs": {}}


def cause_of(exc: Exception, stage: str) -> str:
    if isinstance(exc, ValueError) and "out of range 0..63" in str(exc):
        return VERTEX_CAP
    if stage == "expand" and isinstance(exc, ge.IllTyped):
        return EXPAND_GHAT
    return f"exception:{type(exc).__name__}"


def run(inputs: dict, spec: dict, out, tracer) -> None:
    exprs = inputs["exprs"]
    clock = time.perf_counter
    for k in inputs["order"]:
        f, nat = inputs["pool"][k]
        if tracer is not None:
            tracer.item = k
        t = clock()
        stage = "decompose"
        try:
            e = exprs[k] = ge.decompose(f)
            stage = "evaluate"
            ok = ge.evaluate(e, f.rig) == f
            if ok and nat:
                stage = "expand"
                ok = ge.evaluate(ge.expand_ghat(e), f.rig) == f
        except Exception as exc:  # every failure is counted, never raised
            out.fail(k, cause_of(exc, stage))
        else:
            if not ok:
                out.fail(k, "wrong_answer")
        out.lat_ms.append((clock() - t) * 1000.0)
    out.attempted = len(inputs["order"])


def check(inputs: dict, spec: dict, out) -> None:
    keys = list(inputs["exprs"])
    texts = canonical_texts(inputs["exprs"][k] for k in keys)
    digests = {k: sha256(text) for k, text in zip(keys, texts)}
    if spec.get("record"):
        out.extra["digests"] = {str(k): d for k, d in digests.items()}
        out.extra["failures"] = {str(k): c for k, c in out.failures.items()}
    else:
        expected = load_expected("sample4")["digests"]
        for k, digest in digests.items():
            want = expected.get(str(k))
            if want is not None and want != digest:
                out.fail(k, "digest_mismatch")
    if spec.get("trace"):
        out.extra["expr_nodes"] = distinct_nodes(inputs["exprs"].values())


@functools.cache
def ledger() -> dict[str, str]:
    return load_expected("defects")["sample4"]["items"]


def known_defect(key, cause: str) -> bool:
    """Whether this item's failure is one the defect ledger recorded."""
    return ledger().get(str(key)) == cause
