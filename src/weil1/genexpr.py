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

from functools import lru_cache

from .rig import Rig
from .cograph import Frozen, intern, vertices_of
from .cotree import Cotree, K, W, format_cotree, join, leaves, n_join, n_tensor, tensor
from .weilalg import algebra_of, intern_image, poly_trusted, size_lex
from . import morphism as mor
from .morphism import Morphism, TypeMismatch


class IllTyped(ValueError):
    """A node's inferred source/target objects do not fit together: the
    expression names no morphism, so it is a ValueError."""

    def __init__(self, location: "GenExpr", reason: str):
        self.location = location
        super().__init__(f"{reason} at {format_genexpr(location)}")


class GenExpr(Frozen):
    """Base class for decomposition expressions.

    Nodes are hash-consed like the other ``cograph.Frozen`` values: equal
    expressions are one object, equality and hashing are identity, and a
    shared subterm is stored once.  A node without child expressions is
    keyed by its fields; the nodes with children key them by id."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"GenExpr({format_genexpr(self)})"


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
        return super().__new__(cls, r)


class Proj(GenExpr):
    __slots__ = _fields = ("prod", "side")


class _Binary(GenExpr):
    """A node whose two fields are child expressions."""

    __slots__ = ()

    def __new__(cls, a: GenExpr, b: GenExpr):
        return intern(cls, (cls.__name__, id(a), id(b)), (a, b))


class Tensor(_Binary):
    __slots__ = _fields = ("e1", "e2")


class Compose(_Binary):
    __slots__ = _fields = ("outer", "inner")


class Pair(GenExpr):
    """Pullback-induced map.  ``at`` = 0 pairs into the plain product of the
    two targets; ``at`` = t >= 1 merges the targets at the tensor-factor
    block starting at position t (spanning ``k1`` factors of the first
    target and ``k2`` of the second).  At 0 the block is the whole of each
    target, so ``k1`` and ``k2`` are stored as 1, which is what the printed
    ``pair(...)`` parses back to."""

    __slots__ = _fields = ("e1", "e2", "at", "k1", "k2")

    def __new__(cls, e1: GenExpr, e2: GenExpr, at: int = 0, k1: int = 1, k2: int = 1):
        if at == 0:
            k1 = k2 = 1
        return intern(cls, ("Pair", id(e1), id(e2), at, k1, k2), (e1, e2, at, k1, k2))


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
            out = mor.projection(algebra_of(e.prod, rig), e.side)
        elif isinstance(e, Tensor):
            out = mor.tensor_mor(evaluate(e.e1, rig), evaluate(e.e2, rig))
        elif isinstance(e, Compose):
            out = mor.compose(evaluate(e.outer, rig), evaluate(e.inner, rig))
        elif isinstance(e, Pair):
            out = mor.pair_into(evaluate(e.e1, rig), evaluate(e.e2, rig), e.at, e.k1, e.k2)
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
    return [(i, mask, coeff) for i, terms in enumerate(f.raw, start=1)
            for mask, coeff in size_lex(terms)]


class SlotAssignment:
    """The pre-determined circle-to-slot choice for a map into an edgeless
    object: per target generator, the circles through it are ordered by
    (source generator, support) and take slots in that order.

    ``slots`` lists the generators of the slot tensor in order, each as
    (source generator, support, target generator) of the circle it holds;
    ``slot_of[i, mask, j]`` is the 1-based generator of circle (i, mask)
    at target generator j, and ``counts[j - 1]`` the number of slots there."""

    def __init__(self, f: Morphism):
        tgt = f.target
        if any(tgt.graph.adjacency):
            raise TypeMismatch("slot assignment needs an edgeless target")
        self.morphism = f
        self.circles = circles_of(f)
        slots = []
        counts = []
        for j in range(1, tgt.n + 1):
            bit = 1 << (j - 1)
            before = len(slots)
            slots.extend((i, m, j) for i, m, _ in self.circles if m & bit)
            counts.append(len(slots) - before)
        self.slots = tuple(slots)
        self.slot_of = {slot: s for s, slot in enumerate(slots, start=1)}
        self.counts = tuple(counts)

    def lift(self) -> Morphism:
        """The lifted map into the slot tensor using every slot exactly once."""
        f = self.morphism
        s_obj = algebra_of(slot_cotree(self.counts), f.rig)
        images: list[dict[int, int]] = [dict() for _ in range(f.source.n)]
        for i, m, coeff in self.circles:
            new_mask = 0
            mm = m
            while mm:
                bit = mm & -mm
                new_mask |= 1 << (self.slot_of[i, m, bit.bit_length()] - 1)
                mm ^= bit
            images[i - 1][new_mask] = coeff
        return Morphism(f.source, s_obj, tuple(poly_trusted(d) for d in images))


@lru_cache(maxsize=None)
def slot_cotree(counts: tuple[int, ...]) -> Cotree:
    """The slot tensor of a ``SlotAssignment`` with these ``counts``."""
    return tensor(*[n_join(c) for c in counts])


# ---------------------------------------------------------------------------
# the decomposition

# sub-maps repeat heavily across the maps of one hom-set; the memo is keyed by
# (source, target) and then by ``raw``, so that no sub-map stays alive as a key.
_MEMO: dict[tuple, dict[tuple, GenExpr]] = {}


def decompose(f: Morphism) -> GenExpr:
    """Canonical expression for ``f`` in the generating maps; round-trips
    through ``evaluate`` exactly."""
    return _decompose(f)


def _memoised(step):
    """Look a sub-map up in ``_MEMO`` before decomposing it.

    ``_split_slots`` and ``_decompose_flat`` agree on every map both accept
    (a flat target), so they share the memo."""

    def run(f: Morphism) -> GenExpr:
        memo = _MEMO.get((f.source, f.target))
        if memo is None:
            memo = _MEMO[f.source, f.target] = {}
        e = memo.get(f.raw)
        if e is None:
            e = memo[f.raw] = step(f)
        return e

    return run


def _decompose(f: Morphism) -> GenExpr:
    if f.target.cotree.kind == "K":
        return eps_expr(f.source.cotree)
    if f.source.cotree.kind == "K":
        return eta_expr(f.target.cotree)
    if any(f.target.graph.adjacency):
        return _split_at_join(f, _decompose)
    return _decompose_edgeless(f)


def _zero_map(f: Morphism) -> GenExpr:
    """The zero map, eta after eps.  Its source is never k: ``_decompose``
    answers a k source first, target splits keep the source, and
    ``_decompose_flat`` sees that source or a part of a product or tensor."""
    return Compose(eta_expr(f.target.cotree), eps_expr(f.source.cotree))


def _decompose_edgeless(f: Morphism) -> GenExpr:
    if f.is_zero_map():
        return _zero_map(f)
    assignment = SlotAssignment(f)
    lifted = assignment.lift()
    recomb = recombiner_expr(assignment.counts)
    inner = _split_slots(lifted)
    return Compose(recomb, inner)


def recombiner_expr(counts: tuple[int, ...]) -> GenExpr:
    """The tensor of addition towers ``slot_cotree(counts) -> nW`` that sends
    every slot of block j to target generator j; ``id(k)`` for no blocks."""
    return _tensor_fold([plus_expr(c) for c in counts] or [Id(K)])


@_memoised
def _split_slots(f: Morphism) -> GenExpr:
    if mor.split_layout(f.target) is None:
        return _decompose_flat(f)
    return _split_at_join(f, _split_slots)


def _split_at_join(f: Morphism, recurse) -> GenExpr:
    """Split the first product factor of the target through its pullback."""
    at, k1, k2, t1_obj, t2_obj, gm1, gm2 = mor.split_layout(f.target)
    e1 = recurse(mor.compose_restriction(gm1, t1_obj, f))
    e2 = recurse(mor.compose_restriction(gm2, t2_obj, f))
    return Pair(e1, e2, at, k1, k2)


@_memoised
def _decompose_flat(f: Morphism) -> GenExpr:
    """Decompose a map with pairwise disjoint circles into a flat tensor of W's."""
    if f.is_zero_map():
        return _zero_map(f)
    a = f.source.cotree
    if a.kind == "W":
        terms = f.raw[0]
        if len(terms) != 1:
            raise TypeMismatch("intersecting circles survived slot splitting")
        mask, coeff = terms[0]
        body = one_circle_expr(f.target.cotree, mask)
        if coeff > 1:
            body = Compose(body, Ghat(coeff))
        return body
    if a.kind == "join":
        return _project_source(f)
    return _tensor_split_source(f)


def _project_source(f: Morphism) -> GenExpr:
    """A disjoint-circle map out of a product lives in one factor."""
    _, _, _, t1_obj, t2_obj, _, _ = mor.split_layout(f.source)
    n1 = t1_obj.n
    nonzero = [i for i, terms in enumerate(f.raw, start=1) if terms]
    side = 1 if all(i <= n1 for i in nonzero) else 2
    if side == 2 and any(i <= n1 for i in nonzero):
        raise TypeMismatch("disjoint-circle map uses both product factors")
    kept, raw = (t1_obj, f.raw[:n1]) if side == 1 else (t2_obj, f.raw[n1:])
    e = _decompose_flat(Morphism(kept, f.target, raw))
    return Compose(e, Proj(f.source.cotree, side))


def _tensor_split_source(f: Morphism) -> GenExpr:
    """Split a disjoint-circle map along the source tensor, then restore the
    target generator order with a flip network."""
    a = f.source.cotree
    a1 = a.parts[0]
    arest = tensor(*a.parts[1:])
    n1 = leaves(a1)
    hit1 = _hit_mask(f.raw[:n1])
    hitrest = _hit_mask(f.raw[n1:])
    if hit1 & hitrest:
        raise TypeMismatch("intersecting circles across the source tensor")
    kept1, keptrest = vertices_of(hit1), vertices_of(hitrest)
    unhit = vertices_of(((1 << f.target.n) - 1) & ~(hit1 | hitrest))
    f1 = _restrict(f, a1, f.raw[:n1], kept1)
    frest = _restrict(f, arest, f.raw[n1:], keptrest)
    e1 = _decompose_flat(f1)
    erest = _decompose_flat(frest)
    if unhit:
        base = Tensor(e1, Tensor(erest, eta_expr(n_tensor(len(unhit)))))
    else:
        base = Tensor(e1, erest)
    net = perm_network(kept1 + keptrest + unhit)
    return base if net is None else Compose(net, base)


def _hit_mask(raw) -> int:
    """The target positions that the images ``raw`` hit, as a mask."""
    hit = 0
    for terms in raw:
        for mask, _ in terms:
            hit |= mask
    return hit


def _restrict(f: Morphism, src: Cotree, raw, kept_positions: tuple) -> Morphism:
    """The map out of ``src`` with images ``raw``, a slice of f's, with the
    target compressed to ``kept_positions``: every position those images
    hit, so no term is dropped.  The compression is monotone, so it keeps
    the integer mask order and the images need no sort."""
    bits = tuple(enumerate(pos - 1 for pos in kept_positions))
    images = tuple(
        intern_image(tuple((sum(1 << k for k, p in bits if m >> p & 1), c) for m, c in terms))
        for terms in raw)
    tgt = algebra_of(n_tensor(len(kept_positions)), f.rig)
    return Morphism(algebra_of(src, f.rig), tgt, images)


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
