"""roundtrip: the decomposition round trip of acceptance criterion 3.

The items are the {0,1} morphisms between the 8 objects with at most 3
vertices, in criterion 3's order (source-major, then target, then hom-set
order).  The sweep is cut into ``stride`` interleaved slices, slice ``o``
holding the positions ``p`` with ``p % stride == o``; a worker takes the
slices in ``offsets`` (every position when ``offsets`` is None).  One position in ``NAT_EVERY``
is lifted to the naturals with coefficients 1-3; which positions and which
coefficients depend only on the position, so every item's canonical text
can be recorded once.
"""

from __future__ import annotations

import functools
import time

from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import verify as vf
from weil1.rig import Rig
from weil1.weilalg import algebra_of

from common import load_expected, sha256

NAT_EVERY = 100
_MASK64 = (1 << 64) - 1


def mix(*xs: int) -> int:
    """A fixed 64-bit integer hash (splitmix-style), stable across runs."""
    h = 0x9E3779B97F4A7C15
    for x in xs:
        h = ((h ^ x) * 0xBF58476D1CE4E5B9) & _MASK64
        h ^= h >> 31
    return h


def lift(p: int, f):
    images = [
        {mask: 1 + mix(p, i, j) % 3 for j, (mask, _) in enumerate(poly.terms)}
        for i, poly in enumerate(f.images)
    ]
    return mor.make(algebra_of(f.source.cotree, Rig.NAT),
                    algebra_of(f.target.cotree, Rig.NAT), images, check=True)


def build(spec: dict) -> dict:
    stride, offsets = spec["stride"], spec.get("offsets")
    objs = vf.canonical_objects(3)
    items = []  # (position, hom-set index, morphism)
    pairs = []  # (source, target, hom-set size)
    p = 0
    for a in objs:
        for b in objs:
            hom = vf.enumerate_hom(a, b)
            h = len(pairs)
            pairs.append((a, b, len(hom)))
            for f in hom:
                if offsets is None or p % stride in offsets:
                    items.append((p, h, lift(p, f) if mix(p) % NAT_EVERY == 0 else f))
                p += 1
    return {"items": items, "pairs": pairs, "exprs": []}


def cause_of(exc: Exception) -> str:
    return f"exception:{type(exc).__name__}"


def run(inputs: dict, spec: dict, out, tracer) -> None:
    exprs = inputs["exprs"]
    clock = time.perf_counter
    for p, _h, f in inputs["items"]:
        if tracer is not None:
            tracer.item = p
        t = clock()
        e = None
        try:
            e = ge.decompose(f)
            ok = ge.evaluate(e, f.rig) == f
        except Exception as exc:  # every failure is counted, never raised
            out.fail(p, cause_of(exc))
        else:
            if not ok:
                out.fail(p, "wrong_answer")
        out.lat_ms.append((clock() - t) * 1000.0)
        exprs.append(e)
    out.attempted = len(inputs["items"])


def canonical_texts(exprs) -> list[str]:
    """``format_genexpr`` of each expression ("!" for a failed item).

    The printer recurses through its module-level name, so rebinding that
    name to a memo for the duration prints each shared subterm once."""
    plain = ge.format_genexpr
    ge.format_genexpr = functools.lru_cache(maxsize=None)(plain)
    try:
        return ["!" if e is None else ge.format_genexpr(e) for e in exprs]
    finally:
        ge.format_genexpr = plain


def unit_digests(inputs: dict, stride: int) -> dict[str, dict[str, str]]:
    """sha256 of the canonical texts per (offset, hom-set), in item order."""
    texts: dict[tuple[int, int], list[str]] = {}
    for (p, h, _f), line in zip(inputs["items"], canonical_texts(inputs["exprs"])):
        texts.setdefault((p % stride, h), []).append(line)
    out: dict[str, dict[str, str]] = {}
    for (o, h), lines in texts.items():
        out.setdefault(str(o), {})[str(h)] = sha256("\n".join(lines) + "\n")
    return out


def check(inputs: dict, spec: dict, out) -> None:
    stride = spec["stride"]
    by_unit: dict[tuple[int, int], list[int]] = {}
    by_hom: dict[int, list[int]] = {}
    for p, h, _f in inputs["items"]:
        by_unit.setdefault((p % stride, h), []).append(p)
        by_hom.setdefault(h, []).append(p)
    # independent oracle: each hom-set's size against the Kleisli count
    for h, positions in by_hom.items():
        a, b, size = inputs["pairs"][h]
        if vf.count_graph_maps(a, b) != size:
            for p in positions:
                out.fail(p, "hom_size_mismatch")
    digests = unit_digests(inputs, stride)
    if spec.get("record"):
        out.extra["digests"] = digests
    else:
        expected = load_expected("roundtrip")
        if expected["stride"] != stride:
            raise ValueError("recorded digests are for another stride")
        for o, per_hom in digests.items():
            for h, digest in per_hom.items():
                if expected["digests"][o][h] != digest:
                    for p in by_unit[int(o), int(h)]:
                        out.fail(p, "digest_mismatch")
    if spec.get("trace"):
        out.extra["expr_nodes"] = distinct_nodes(inputs["exprs"])


def distinct_nodes(exprs) -> int:
    """Structurally distinct expression nodes across the decompositions."""
    seen = set()
    stack = [e for e in exprs if e is not None]
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        for child in ("e1", "e2", "outer", "inner"):
            sub = getattr(e, child, None)
            if sub is not None:
                stack.append(sub)
    return len(seen)


def known_defect(key, cause: str) -> bool:
    return False
