"""Span recording around the library's layer boundaries, from outside the
library: each traced function is rebound, in every ``weil1`` module that
holds it, to a wrapper that records one span per call.

A span is (name, start, end, parent span, item id).  Spans live in flat
arrays while the run goes on and are written out once at the end.  Self time
is a span's duration minus the time its child spans cover; a layer's
inclusive time counts only its outermost spans, so recursion is not counted
twice.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from common import cone_counts

# Layers whose spans are recorded: module -> public functions.  These are the
# boundaries the per-layer metrics name; tiny helpers are left unwrapped so
# the wrappers do not dominate what they measure.
LAYERS = {
    "genexpr": ("decompose", "evaluate", "expand_ghat"),
    "morphism": ("pair_into", "compose_restriction", "compose", "tensor_mor", "make"),
    "weilalg": ("poly_trusted", "dict_mul"),
    "verify": ("enumerate_hom", "kappa_candidates", "check_foundational_pullback",
               "check_tangent_axioms", "check_equalizer", "count_graph_maps"),
    "cotree": ("cotree_decompose",),
    "cograph": ("ind_plus", "kappa"),
    "dsl": ("parse_object", "parse_morphism"),
    "cli": ("main",),
}


class Tracer:
    """Records spans for the functions in ``LAYERS`` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_item = array("l")
        self.span_outer = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.depth: list[int] = []
        self.item = -1
        self.counters: dict[str, float] = {}
        self._seen: dict[str, set] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function in every loaded ``weil1`` module."""
        import importlib

        for mod_name in LAYERS:
            importlib.import_module(f"weil1.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "weil1" or name.startswith("weil1."))]
        for mod_name, funcs in LAYERS.items():
            home = sys.modules[f"weil1.{mod_name}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(orig, f"{mod_name}.{fname}")
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.depth.append(0)
        return nid

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        pre = _PRE.get(name)
        post = _POST.get(name)
        span_name, span_parent, span_item = self.span_name, self.span_parent, self.span_item
        span_outer, span_start, span_end = self.span_outer, self.span_start, self.span_end
        stack, depth, clock = self.stack, self.depth, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(tracer, args, kwargs)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_item.append(tracer.item)
            d = depth[nid]
            depth[nid] = d + 1
            span_outer.append(d == 0)
            span_end.append(0.0)
            stack.append(idx)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()
                depth[nid] = d
            if post is not None:
                post(tracer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters -----------------------------------------------------------

    def count(self, name: str, by: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + by

    def note_key(self, name: str, key) -> None:
        """Count a call under ``name`` and whether its key was seen before."""
        seen = self._seen.setdefault(name, set())
        self.count(name + ".keyed")
        if key in seen:
            self.count(name + ".repeats")
        else:
            seen.add(key)

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds (outermost spans) and self seconds."""
        n = len(self.span_name)
        covered = array("d", bytes(8 * n))
        parent, start, end = self.span_parent, self.span_start, self.span_end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.span_name[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["self_s"] += dur - covered[i]
            if self.span_outer[i]:
                row["s"] += dur
        return out

    def write(self, path) -> None:
        """Write every span: one JSON header line, then the raw arrays."""
        arrays = (self.span_name, self.span_parent, self.span_item,
                  self.span_outer, self.span_start, self.span_end)
        header = {"names": self.names, "count": len(self.span_name),
                  "typecodes": [a.typecode for a in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                a.tofile(fh)


def load_spans(path) -> tuple[list[str], list[tuple]]:
    """Read a span file back as (names, [(name, parent, item, start, end), ...])."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = []
        for code in header["typecodes"]:
            a = array(code)
            a.fromfile(fh, n)
            cols.append(a)
    names = header["names"]
    name, parent, item, _outer, start, end = cols
    return names, [(names[name[i]], parent[i], item[i], start[i], end[i]) for i in range(n)]


def _evaluate_key(tracer, args, kwargs):
    from weil1.rig import Rig

    rig = args[1] if len(args) > 1 else kwargs.get("rig", Rig.BOOL2)
    tracer.note_key("genexpr.evaluate", (args[0], rig))


def _compose_restriction_key(tracer, args, kwargs):
    tracer.note_key("morphism.compose_restriction", args)


def _enumerate_hom_post(tracer, result):
    tracer.count("verify.enumerate_hom.morphisms", len(result))


def _pullback_post(tracer, report):
    cones, certified = cone_counts(r.ident for r in report.results)
    tracer.count("verify.check_foundational_pullback.cones", cones)
    tracer.count("verify.check_foundational_pullback.certified", certified)


_PRE = {
    "genexpr.evaluate": _evaluate_key,
    "morphism.compose_restriction": _compose_restriction_key,
}
_POST = {
    "verify.enumerate_hom": _enumerate_hom_post,
    "verify.check_foundational_pullback": _pullback_post,
}
