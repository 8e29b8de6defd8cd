"""Cotrees: the object language for algebras built from W = k[x]/x^2.

A cotree names how an object was assembled from the one-generator algebra W
using tensor (disjoint union of graphs) and product (graph join).  Trees are
kept in a strict normal form:

* ``K`` (the base rig, empty graph) never appears under a tensor or join
  node -- it is the unit for both operations and is absorbed on construction;
* tensor/join nodes are flattened, so no tensor node has a tensor child and
  no join node has a join child.

Normalisation makes object equality plain structural equality while keeping
generator order: the W leaves, read left to right, are the generators 1..n.
"""

from __future__ import annotations

from functools import lru_cache

from . import cograph
from .cograph import Frozen, Graph, NotACograph, TooLarge

# realize and cotree_decompose refuse a graph with more vertices than this
# before building anything.  A cotree on n vertices can nest n - 1 deep: the
# recursive printer exhausts Python's default recursion limit at 250 vertices
# and the decomposition of W -> W^n at n = 512 (0.5 s at 450), so depth bounds it
VERTEX_BUDGET = 128


class Cotree(Frozen):
    """Normalised expression tree over {K, W, tensor, join}; two trees are
    equal when their kinds and parts are."""

    __slots__ = ("kind", "parts", "_hash")
    _fields = ("kind", "parts")

    def __init__(self, kind: str, parts: tuple[Cotree, ...] = ()):
        object.__setattr__(self, "kind", kind)  # "K" | "W" | "tensor" | "join"
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "_hash", hash((kind, parts)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.parts == other.parts

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Cotree({format_cotree(self)!r})"


K = Cotree("K")
W = Cotree("W")


def tensor(*parts: Cotree) -> Cotree:
    """Tensor of cotrees; flattens nested tensors and absorbs the unit K."""
    flat: list[Cotree] = []
    for p in parts:
        if p.kind == "K":
            continue
        if p.kind == "tensor":
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return K
    if len(flat) == 1:
        return flat[0]
    return Cotree("tensor", tuple(flat))


def join(*parts: Cotree) -> Cotree:
    """Product of cotrees; flattens nested joins and absorbs the unit K."""
    flat: list[Cotree] = []
    for p in parts:
        if p.kind == "K":
            continue
        if p.kind == "join":
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        return K
    if len(flat) == 1:
        return flat[0]
    return Cotree("join", tuple(flat))


def n_tensor(n: int) -> Cotree:
    """nW: the n-fold tensor of W (edgeless graph)."""
    return tensor(*([W] * n))


def n_join(n: int) -> Cotree:
    """W^n: the n-fold product of W (complete graph)."""
    return join(*([W] * n))


@lru_cache(maxsize=None)
def leaves(t: Cotree) -> int:
    """Number of W leaves, i.e. generators of the named algebra."""
    if t.kind == "K":
        return 0
    if t.kind == "W":
        return 1
    return sum(leaves(p) for p in t.parts)


def factors(t: Cotree) -> tuple[Cotree, ...]:
    """Top-level tensor factor list (the tree itself if not tensor-rooted)."""
    if t.kind == "tensor":
        return t.parts
    return (t,)


@lru_cache(maxsize=None)
def realize(t: Cotree) -> Graph:
    """The cograph named by ``t``; leaf order gives the vertex labelling."""
    check_vertex_budget(leaves(t))
    if t.kind == "K":
        return cograph.empty_graph()
    if t.kind == "W":
        return cograph.single_vertex_graph()
    op = cograph.disjoint_union if t.kind == "tensor" else cograph.join
    return op(*map(realize, t.parts))


def check_vertex_budget(n: int) -> None:
    """Raise TooLarge when a graph of ``n`` vertices is over ``VERTEX_BUDGET``."""
    if n > VERTEX_BUDGET:
        raise TooLarge(f"a graph of {n} vertices exceeds the budget of {VERTEX_BUDGET}"
                       " (cotree.VERTEX_BUDGET)")


def cotree_decompose(g: Graph) -> tuple[Cotree, tuple[int, ...]]:
    """Recognise ``g`` as a cograph and return its canonical cotree.

    Also returns the relabelling permutation ``perm`` with ``perm[i-1]`` the
    canonical position of original vertex ``i``, so that relabelling ``g``
    along ``perm`` gives exactly ``realize(cotree)``.

    Recursion on vertex masks of ``g``: no vertex is K and one is W; a
    disconnected part is the tensor of its components; a connected part
    whose complement is disconnected is the join of the parts the
    complement's components span.  Anything else contains an induced P4
    and is rejected.  Children are ordered by (vertex count, minimum
    original label), which pins one canonical cotree per labelled cograph.
    """
    check_vertex_budget(g.n)
    tree, order = _decompose(g, g.full_mask)
    perm = [0] * g.n
    for pos, v in enumerate(order, start=1):
        perm[v - 1] = pos
    return tree, tuple(perm)


def _decompose(g: Graph, mask: int) -> tuple[Cotree, tuple[int, ...]]:
    if not mask & (mask - 1):
        return (W, (mask.bit_length(),)) if mask else (K, ())
    for make, h in ((tensor, g), (join, g.complement)):
        parts = _components(h, mask)
        if len(parts) > 1:
            parts.sort(key=lambda m: (m.bit_count(), m & -m))
            children = []
            order: list[int] = []
            for part in parts:
                child, child_order = _decompose(g, part)
                children.append(child)
                order.extend(child_order)
            return make(*children), tuple(order)
    sub, old = cograph.induced_subgraph(g, mask)
    witness = tuple(old[v - 1] for v in cograph.find_induced_p4(sub))
    raise NotACograph(f"graph has an induced P4 at {witness}", witness)


def _components(g: Graph, mask: int) -> list[int]:
    """Vertex masks of the connected components of g's subgraph on
    ``mask``, by smallest member."""
    comps = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            frontier = g.neighbourhood(frontier) & mask & ~comp
            comp |= frontier
        comps.append(comp)
        mask ^= comp
    return comps


def is_all_w(t: Cotree) -> bool:
    return all(p.kind == "W" for p in t.parts)


def format_cotree(t: Cotree) -> str:
    """Canonical text form: ``k``, ``W``, ``3W``, ``W^2``, ``W^2 @ W``, ``W * 2W``."""
    if t.kind == "K":
        return "k"
    if t.kind == "W":
        return "W"
    if t.kind == "tensor":
        if is_all_w(t):
            return f"{len(t.parts)}W"
        return " @ ".join(_format_tensor_factor(p) for p in t.parts)
    if is_all_w(t):
        return f"W^{len(t.parts)}"
    return " * ".join(_format_join_child(p) for p in t.parts)


def _format_tensor_factor(t: Cotree) -> str:
    # factors are W or join-rooted; '*' binds tighter than '@' so no parens needed
    return format_cotree(t)


def _format_join_child(t: Cotree) -> str:
    if t.kind == "tensor" and not is_all_w(t):
        return f"({format_cotree(t)})"
    return format_cotree(t)
