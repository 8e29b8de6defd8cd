"""The decomposition language: expression trees over the five generating maps,
their evaluator, and the canonical decomposition of an arbitrary morphism.

Decomposition works target-first.  While the target graph has an edge, the
object splits as a product inside a tensor context and the morphism is the
pairing of its two context projections.  Once the target is edgeless, the
morphism lifts through a slot tensor (one product power W^m per target
generator, one slot per circle through it, every slot used exactly once) and
is recombined by addition towers; splitting the slot tensor back through the
same product pullbacks leaves maps with pairwise disjoint circles.  Those
factor through source projections and source tensor splits (with a flip
network restoring generator order) down to single-circle maps, which are a
lift ladder followed by an eta/identity interleaving.  Natural-number
coefficients enter in exactly one place, as the maps x -> r x inserted
before a single-circle ladder.

The slot choice is the fixed rule "per target generator, circles ordered by
source generator then support", which pins one canonical expression per
morphism.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .rig import Rig
from .cograph import mask_key, vertices_of
from .cotree import Cotree, K, W, factors, format_cotree, join, leaves, n_join, n_tensor, tensor
from .weilalg import algebra_of, poly_trusted
from . import morphism as mor
from .morphism import Morphism, TypeMismatch


class IllTyped(ValueError):
    """A node's inferred source/target objects do not fit together: the
    expression names no morphism, so it is a ValueError."""

    def __init__(self, location: "GenExpr", reason: str):
        self.location = location
        super().__init__(f"{reason} at {format_genexpr(location)}")


class GenExpr:
    """Base class for decomposition expressions.

    Nodes are hash-consed: building a node whose class and fields match an
    existing one returns that node, so equal expressions are one object,
    equality and hashing are identity, and a shared subterm is stored once.
    Nodes must not be mutated after construction."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __new__(cls, *fields):
        """A node without child expressions: its fields are its key."""
        if len(fields) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields")
        return _intern(cls, (cls.__name__, *fields), fields)

    def __repr__(self) -> str:
        return f"GenExpr({format_genexpr(self)})"


# every node ever built, keyed by its class name and fields, with child
# expressions taken by id: a lookup costs one flat tuple hash however deep the
# node is, and since the table keeps every node alive no id is ever reused.
# A key holding no node is left alone by the cycle collector, which would
# otherwise rescan one key tuple per node on every full collection.
_NODES: dict[tuple, GenExpr] = {}


def _intern(cls, key: tuple, fields: tuple) -> GenExpr:
    node = _NODES.get(key)
    if node is None:
        node = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(node, name, value)
        _NODES[key] = node
    return node


class _Leaf(GenExpr):
    __slots__ = _fields = ("name",)


Eps = _Leaf("eps")
Eta = _Leaf("eta")
Plus = _Leaf("plus")
L = _Leaf("l")
C = _Leaf("c")


class Id(GenExpr):
    __slots__ = _fields = ("obj",)


class Ghat(GenExpr):
    """Coefficient map x -> r x; only meaningful over NAT."""

    __slots__ = _fields = ("r",)

    def __new__(cls, r: int):
        if r < 0:
            raise ValueError("ghat needs a natural number")
        return _intern(cls, ("Ghat", r), (r,))


class Proj(GenExpr):
    __slots__ = _fields = ("prod", "side")


class _Binary(GenExpr):
    """A node whose two fields are child expressions."""

    __slots__ = ()

    def __new__(cls, a: GenExpr, b: GenExpr):
        return _intern(cls, (cls.__name__, id(a), id(b)), (a, b))


class Tensor(_Binary):
    __slots__ = _fields = ("e1", "e2")


class Compose(_Binary):
    __slots__ = _fields = ("outer", "inner")


class Pair(GenExpr):
    """Pullback-induced map.  ``at`` = 0 pairs into the plain product of the
    two targets; ``at`` = t >= 1 merges the targets at the tensor-factor
    block starting at position t (spanning ``k1`` factors of the first
    target and ``k2`` of the second)."""

    __slots__ = _fields = ("e1", "e2", "at", "k1", "k2")

    def __new__(cls, e1: GenExpr, e2: GenExpr, at: int = 0, k1: int = 1, k2: int = 1):
        return _intern(cls, ("Pair", id(e1), id(e2), at, k1, k2), (e1, e2, at, k1, k2))


# ---------------------------------------------------------------------------
# printing

def format_genexpr(e: GenExpr) -> str:
    if isinstance(e, _Leaf):
        return e.name
    if isinstance(e, Id):
        return f"id({format_cotree(e.obj)})"
    if isinstance(e, Ghat):
        return f"ghat({e.r})"
    if isinstance(e, Proj):
        return f"proj({format_cotree(e.prod)}, {e.side})"
    if isinstance(e, Tensor):
        return f"tensor({format_genexpr(e.e1)}, {format_genexpr(e.e2)})"
    if isinstance(e, Compose):
        return f"comp({format_genexpr(e.outer)}, {format_genexpr(e.inner)})"
    if isinstance(e, Pair):
        if e.at == 0:
            return f"pair({format_genexpr(e.e1)}, {format_genexpr(e.e2)})"
        return (
            f"pairat({e.at}, {e.k1}, {e.k2}, "
            f"{format_genexpr(e.e1)}, {format_genexpr(e.e2)})"
        )
    raise TypeError(f"not a GenExpr: {e!r}")


# ---------------------------------------------------------------------------
# evaluation

# one table per rig, keyed by the node alone: no key tuple is built per lookup
# or kept per entry (each would be one more object for the cycle collector)
_EVAL_CACHE: dict[Rig, dict[GenExpr, Morphism]] = {rig: {} for rig in Rig}


def evaluate(e: GenExpr, rig: Rig = Rig.BOOL2) -> Morphism:
    """Evaluate an expression to the morphism it denotes."""
    cache = _EVAL_CACHE[rig]
    hit = cache.get(e)
    if hit is not None:
        return hit
    try:
        if isinstance(e, _Leaf):
            out = mor.generators(rig)[f"{e.name}_W"]
        elif isinstance(e, Id):
            out = mor.identity(algebra_of(e.obj, rig))
        elif isinstance(e, Ghat):
            if rig is not Rig.NAT:
                raise IllTyped(e, "ghat is only available over nat")
            out = mor.ghat(e.r, rig)
        elif isinstance(e, Proj):
            if e.prod.kind != "join":
                raise IllTyped(e, "proj needs a product object")
            out = mor.projection(algebra_of(e.prod, rig), e.side)
        elif isinstance(e, Tensor):
            out = mor.tensor_mor(evaluate(e.e1, rig), evaluate(e.e2, rig))
        elif isinstance(e, Compose):
            fo = evaluate(e.outer, rig)
            fi = evaluate(e.inner, rig)
            if fi.target != fo.source:
                raise IllTyped(e, "compose seam mismatch")
            out = mor.compose(fo, fi, check=False)
        elif isinstance(e, Pair):
            out = mor.pair_into(
                evaluate(e.e1, rig), evaluate(e.e2, rig), e.at, e.k1, e.k2, check=False
            )
        else:
            raise TypeError(f"not a GenExpr: {e!r}")
    except TypeMismatch as exc:
        raise IllTyped(e, str(exc)) from exc
    cache[e] = out
    return out


# ---------------------------------------------------------------------------
# small expression builders

def _tensor_fold(legs: list[GenExpr]) -> GenExpr:
    """Right-nested tensor of one or more legs: tensor(l1, tensor(l2, ...))."""
    out = legs[-1]
    for leg in reversed(legs[:-1]):
        out = Tensor(leg, out)
    return out


def eta_expr(t: Cotree) -> GenExpr:
    """The unique map out of the base rig, as an expression K -> t."""
    if t.kind == "K":
        return Id(K)
    if t.kind == "W":
        return Eta
    if t.kind == "tensor":
        return _tensor_fold([eta_expr(p) for p in t.parts])
    return Pair(eta_expr(t.parts[0]), eta_expr(join(*t.parts[1:])), at=0)


def eps_expr(t: Cotree) -> GenExpr:
    """The augmentation, as an expression t -> K."""
    if t.kind == "K":
        return Id(K)
    if t.kind == "W":
        return Eps
    if t.kind == "tensor":
        return _tensor_fold([eps_expr(p) for p in t.parts])
    return Compose(eps_expr(t.parts[0]), Proj(t, 1))


@lru_cache(maxsize=None)
def plus_expr(m: int) -> GenExpr:
    """The m-ary addition W^m -> W (eta for m = 0, identity for m = 1)."""
    if m == 0:
        return Eta
    if m == 1:
        return Id(W)
    if m == 2:
        return Plus
    wm = n_join(m)
    inner = Pair(Proj(wm, 1), Compose(plus_expr(m - 1), Proj(wm, 2)), at=0)
    return Compose(Plus, inner)


def _ladder(m: int) -> GenExpr:
    """Iterated lift W -> mW, x -> x1...xm."""
    if m == 1:
        return Id(W)
    if m == 2:
        return L
    return Compose(Tensor(Id(W), _ladder(m - 1)), L)


def one_circle_expr(target: Cotree, mask: int) -> GenExpr:
    """Single-circle map W -> target hitting exactly the vertices of ``mask``:
    a lift ladder followed by an eta/identity interleaving."""
    positions = vertices_of(mask)
    if not positions:
        raise ValueError("one-circle expression needs a non-empty circle")
    if target.kind == "W":
        interleave: GenExpr = Id(W)
    else:
        interleave = _tensor_fold(
            [Id(W) if (i + 1) in positions else Eta for i in range(len(target.parts))])
    return Compose(interleave, _ladder(len(positions)))


def _transposition_expr(r: int, q: int) -> GenExpr:
    """Swap of adjacent generators q, q+1 on the flat tensor rW."""
    mid: GenExpr = C if q + 1 == r else Tensor(C, Id(n_tensor(r - q - 1)))
    return mid if q == 1 else Tensor(Id(n_tensor(q - 1)), mid)


def perm_network(perm: tuple[int, ...]) -> GenExpr | None:
    """Relabelling of the flat tensor rW sending generator p to perm[p-1],
    compiled to a flip network by insertion sort; None for the identity."""
    r = len(perm)
    arr = list(perm)
    swaps: list[int] = []
    for i in range(1, r):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            swaps.append(j)  # swapped positions j, j+1 (1-based)
            j -= 1
    if not swaps:
        return None
    out: GenExpr | None = None
    for q in swaps:
        t = _transposition_expr(r, q)
        out = t if out is None else Compose(t, out)
    return out


# ---------------------------------------------------------------------------
# circles and the slot choice rule

def circles_of(f: Morphism) -> list[tuple[int, int, int]]:
    """All circles of ``f`` as (source generator, support mask, coefficient),
    in the canonical order (generator index, then support)."""
    out = []
    for i, terms in enumerate(f.raw, start=1):
        for mask, coeff in terms:
            out.append((i, mask, coeff))
    out.sort(key=lambda c: (c[0], mask_key(c[1])))
    return out


class SlotAssignment:
    """The pre-determined circle-to-slot choice for a map into an edgeless
    object: per target generator, the circles through it are ordered by
    (source generator, support) and take slots in that order."""

    def __init__(self, f: Morphism):
        tgt = f.target
        if any(tgt.graph.adjacency):
            raise TypeMismatch("slot assignment needs an edgeless target")
        self.morphism = f
        self.circles = circles_of(f)
        n = tgt.n
        counts = [0] * n
        slot_of: dict[tuple[int, int], dict[int, int]] = {(i, m): {} for i, m, _ in self.circles}
        for j in range(1, n + 1):
            bit = 1 << (j - 1)
            for i, m, _ in self.circles:
                if m & bit:
                    counts[j - 1] += 1
                    slot_of[(i, m)][j] = counts[j - 1]
        self.counts = tuple(counts)
        self._slot_of = slot_of
        offsets = []
        total = 0
        for c in counts:
            offsets.append(total)
            total += c
        self.offsets = tuple(offsets)

    def slot(self, i: int, mask: int, j: int) -> int:
        """Slot (1-based) taken by circle (i, mask) inside W^{m_j}."""
        return self._slot_of[(i, mask)][j]

    def slot_generator(self, j: int, s: int) -> int:
        """Global generator index of slot s of target generator j."""
        return self.offsets[j - 1] + s

    def circle_at(self, j: int, s: int) -> tuple[int, int]:
        """The circle (source generator, mask) holding slot s at target generator j."""
        for (i, m), slots in self._slot_of.items():
            if slots.get(j) == s:
                return (i, m)
        raise KeyError((j, s))

    def slot_cotree(self) -> Cotree:
        return tensor(*[n_join(c) for c in self.counts])

    def lift(self) -> Morphism:
        """The lifted map into the slot tensor using every slot exactly once."""
        f = self.morphism
        s_obj = algebra_of(self.slot_cotree(), f.rig)
        images: list[dict[int, int]] = [dict() for _ in range(f.source.n)]
        for i, m, coeff in self.circles:
            new_mask = 0
            mm = m
            while mm:
                bit = mm & -mm
                j = bit.bit_length()
                new_mask |= 1 << (self.slot_generator(j, self.slot(i, m, j)) - 1)
                mm ^= bit
            images[i - 1][new_mask] = coeff
        return Morphism(f.source, s_obj, tuple(poly_trusted(d) for d in images))


# ---------------------------------------------------------------------------
# the decomposition

class DecompositionTrace(namedtuple("DecompositionTrace", "steps")):
    """Ordered build log: ``steps`` holds ``(label, GenExpr)`` pairs, and the
    last entry's expression is the final result."""

    __slots__ = ()

    def replay(self) -> GenExpr:
        return self.steps[-1][1]


class _Trace:
    """What one decomposition carries along: the memo of decomposed sub-maps
    it reads and writes (None when traced) and its build log (None when
    untraced)."""

    __slots__ = ("memo", "steps")

    def __init__(self, memo: dict | None, steps: list | None = None):
        self.memo = memo
        self.steps = steps


# sub-maps repeat heavily across the maps of one hom-set, so untraced runs
# share one memo; a traced run reads no memo, so every step is logged, also
# a sub-map that comes up twice in one decomposition
_MEMO: dict[Morphism, GenExpr] = {}


def decompose(f: Morphism) -> GenExpr:
    """Canonical expression for ``f`` in the generating maps; round-trips
    through ``evaluate`` exactly."""
    return _decompose(f, _Trace(_MEMO))


def decompose_with_trace(f: Morphism) -> tuple[GenExpr, DecompositionTrace]:
    trace = _Trace(None, [])
    e = _decompose(f, trace)
    return e, DecompositionTrace(tuple(trace.steps))


def _record(trace: _Trace, tag: str, expr: GenExpr) -> GenExpr:
    if trace.steps is not None:
        trace.steps.append((tag, expr))
    return expr


def _memoised(step):
    """Look a sub-map up in the run's memo, if it has one, before decomposing it.

    ``_split_slots`` and ``_decompose_flat`` agree on every map both accept
    (a flat target), so they share the memo."""

    def run(f: Morphism, trace: _Trace) -> GenExpr:
        if trace.memo is None:
            return step(f, trace)
        e = trace.memo.get(f)
        if e is None:
            e = trace.memo[f] = step(f, trace)
        return e

    return run


def _decompose(f: Morphism, trace: _Trace) -> GenExpr:
    if f.target.cotree.kind == "K":
        return _record(trace, "Projection", eps_expr(f.source.cotree))
    if f.source.cotree.kind == "K":
        return _record(trace, "OneCircle", eta_expr(f.target.cotree))
    if any(f.target.graph.adjacency):
        return _split_at_join(f, trace, "PullbackTarget", _decompose)
    return _decompose_edgeless(f, trace)


def _decompose_edgeless(f: Morphism, trace: _Trace) -> GenExpr:
    if f.is_zero_map():
        expr = Compose(eta_expr(f.target.cotree), eps_expr(f.source.cotree))
        return _record(trace, "SplitCircles", expr)
    assignment = SlotAssignment(f)
    lifted = assignment.lift()
    recomb = _recombiner_expr(assignment.counts)
    inner = _split_slots(lifted, trace)
    return _record(trace, "SplitGeneral", Compose(recomb, inner))


def _recombiner_expr(counts: tuple[int, ...]) -> GenExpr:
    return _tensor_fold([plus_expr(c) for c in counts])


@_memoised
def _split_slots(f: Morphism, trace: _Trace) -> GenExpr:
    if all(p.kind != "join" for p in factors(f.target.cotree)):
        return _decompose_flat(f, trace)
    return _split_at_join(f, trace, "SplitCircles", _split_slots)


@lru_cache(maxsize=None)
def _split_data(target: "mor.WeilObject"):
    facts = factors(target.cotree)
    t = next(i for i, p in enumerate(facts, start=1) if p.kind == "join")
    prod = facts[t - 1]
    b1 = prod.parts[0]
    b2 = join(*prod.parts[1:])
    t1 = tensor(*facts[: t - 1], b1, *facts[t:])
    t2 = tensor(*facts[: t - 1], b2, *facts[t:])
    t1_obj = algebra_of(t1, target.rig)
    t2_obj = algebra_of(t2, target.rig)
    if len(facts) == 1:
        at, k1, k2 = 0, 1, 1
    else:
        at = t
        k1 = len(factors(b1))
        k2 = len(factors(b2))
    *_, gm1, gm2 = mor.pair_layout(t1_obj, t2_obj, at, k1, k2)
    return at, k1, k2, t1_obj, t2_obj, gm1, gm2


def _split_at_join(f: Morphism, trace: _Trace, tag: str, recurse) -> GenExpr:
    """Split the first product factor of the target through its pullback."""
    at, k1, k2, t1_obj, t2_obj, gm1, gm2 = _split_data(f.target)
    e1 = recurse(mor.compose_restriction(gm1, t1_obj, f), trace)
    e2 = recurse(mor.compose_restriction(gm2, t2_obj, f), trace)
    return _record(trace, tag, Pair(e1, e2, at, k1, k2))


@_memoised
def _decompose_flat(f: Morphism, trace: _Trace) -> GenExpr:
    """Decompose a map with pairwise disjoint circles into a flat tensor of W's."""
    a = f.source.cotree
    if f.is_zero_map():
        if a.kind == "K":
            return _record(trace, "OneCircle", eta_expr(f.target.cotree))
        expr = Compose(eta_expr(f.target.cotree), eps_expr(a))
        return _record(trace, "SplitCircles", expr)
    if a.kind == "W":
        terms = f.raw[0]
        if len(terms) != 1:
            raise TypeMismatch("intersecting circles survived slot splitting")
        mask, coeff = terms[0]
        body = one_circle_expr(f.target.cotree, mask)
        if coeff > 1:
            body = Compose(body, Ghat(coeff))
            return _record(trace, "Coefficient", body)
        return _record(trace, "OneCircle", body)
    if a.kind == "join":
        return _project_source(f, trace)
    return _tensor_split_source(f, trace)


def _project_source(f: Morphism, trace: _Trace) -> GenExpr:
    """A disjoint-circle map out of a product lives in one factor."""
    a = f.source.cotree
    n1 = leaves(a.parts[0])
    nonzero = [i for i, terms in enumerate(f.raw, start=1) if terms]
    side = 1 if all(i <= n1 for i in nonzero) else 2
    if side == 2 and any(i <= n1 for i in nonzero):
        raise TypeMismatch("disjoint-circle map uses both product factors")
    kept = a.parts[0] if side == 1 else join(*a.parts[1:])
    kept_obj = algebra_of(kept, f.rig)
    sub = Morphism(kept_obj, f.target, f.raw[:n1] if side == 1 else f.raw[n1:])
    e = _decompose_flat(sub, trace)
    return _record(trace, "Projection", Compose(e, Proj(a, side)))


def _tensor_split_source(f: Morphism, trace: _Trace) -> GenExpr:
    """Split a disjoint-circle map along the source tensor, then restore the
    target generator order with a flip network."""
    a = f.source.cotree
    a1 = a.parts[0]
    arest = tensor(*a.parts[1:])
    n1 = leaves(a1)
    hit1 = _hit_positions(f.raw[:n1])
    hitrest = _hit_positions(f.raw[n1:])
    if hit1 & hitrest:
        raise TypeMismatch("intersecting circles across the source tensor")
    r = f.target.n
    all_pos = set(range(1, r + 1))
    unhit = all_pos - hit1 - hitrest
    order = sorted(hit1) + sorted(hitrest) + sorted(unhit)
    f1 = _restrict(f, a1, range(1, n1 + 1), sorted(hit1))
    frest = _restrict(f, arest, range(n1 + 1, f.source.n + 1), sorted(hitrest))
    e1 = _decompose_flat(f1, trace)
    erest = _decompose_flat(frest, trace)
    if unhit:
        base = Tensor(e1, Tensor(erest, eta_expr(n_tensor(len(unhit)))))
    else:
        base = Tensor(e1, erest)
    perm = [0] * r
    for pos, target_gen in enumerate(order, start=1):
        perm[pos - 1] = target_gen
    net = perm_network(tuple(perm))
    expr = base if net is None else Compose(net, base)
    return _record(trace, "NoIntersect", expr)


def _hit_positions(raw) -> set[int]:
    hit = 0
    for terms in raw:
        for mask, _ in terms:
            hit |= mask
    return set(vertices_of(hit))


def _restrict(f: Morphism, src: Cotree, gen_range, kept_positions: list[int]) -> Morphism:
    """Restrict to a source generator range and compress the target to the
    positions those generators actually hit."""
    table = [0] * f.target.n
    for k, pos in enumerate(kept_positions):
        table[pos - 1] = 1 << k
    tgt = algebra_of(n_tensor(len(kept_positions)), f.rig)
    images = [{mor.remap_mask(mask, table): c for mask, c in f.raw[i - 1]} for i in gen_range]
    src_obj = algebra_of(src, f.rig)
    return Morphism(src_obj, tgt, tuple(poly_trusted(d) for d in images))


def decompose_one_circle(f: Morphism) -> GenExpr:
    """Expression for a one-term map W -> nW with coefficient 1."""
    if f.source.cotree.kind != "W" or any(f.target.graph.adjacency):
        raise TypeMismatch("decompose_one_circle needs W -> nW input")
    terms = f.raw[0]
    if len(terms) != 1 or terms[0][1] != 1:
        raise TypeMismatch("decompose_one_circle needs exactly one circle with coefficient 1")
    return one_circle_expr(f.target.cotree, terms[0][0])


# ---------------------------------------------------------------------------
# ghat expansion

def expand_ghat(e: GenExpr) -> GenExpr:
    """Replace every Ghat(r) node by its pairing/addition construction,
    visiting each distinct node of the expression DAG once."""
    done: dict[GenExpr, GenExpr] = {}

    def walk(x: GenExpr) -> GenExpr:
        out = done.get(x)
        if out is None:
            if isinstance(x, Ghat):
                out = _ghat_expr(x.r)
            elif isinstance(x, Tensor):
                out = Tensor(walk(x.e1), walk(x.e2))
            elif isinstance(x, Compose):
                out = Compose(walk(x.outer), walk(x.inner))
            elif isinstance(x, Pair):
                out = Pair(walk(x.e1), walk(x.e2), x.at, x.k1, x.k2)
            else:
                out = x
            done[x] = out
        return out

    return walk(e)


def _ghat_expr(r: int) -> GenExpr:
    if r == 0:
        return Compose(Eta, Eps)
    out: GenExpr = Id(W)
    for _ in range(r - 1):
        out = Compose(Plus, Pair(Id(W), out, at=0))
    return out
