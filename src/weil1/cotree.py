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

from dataclasses import dataclass, field
from functools import lru_cache

from . import cograph
from .cograph import Graph, NotACograph


@dataclass(frozen=True)
class Cotree:
    """Normalised expression tree over {K, W, tensor, join}."""

    kind: str  # "K" | "W" | "tensor" | "join"
    parts: tuple["Cotree", ...] = ()
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.kind, self.parts)))

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
    if t.kind == "K":
        return cograph.empty_graph()
    if t.kind == "W":
        return cograph.single_vertex_graph()
    op = cograph.disjoint_union if t.kind == "tensor" else cograph.join
    g = realize(t.parts[0])
    for p in t.parts[1:]:
        g = op(g, realize(p))
    return g


def cotree_decompose(g: Graph) -> tuple[Cotree, tuple[int, ...]]:
    """Recognise ``g`` as a cograph and return its canonical cotree.

    Also returns the relabelling permutation ``perm`` with ``perm[i-1]`` the
    canonical position of original vertex ``i``, so that relabelling ``g``
    along ``perm`` gives exactly ``realize(cotree)``.

    Recursion: the empty graph is K and a single vertex is W; a disconnected
    graph is the tensor of its components; a connected graph whose complement
    is disconnected is the join of the subgraphs induced by the complement's
    components.  Anything else contains an induced P4 and is rejected.
    Children are ordered by (vertex count, minimum original label), which
    pins one canonical cotree per labelled cograph.
    """
    tree, order = _decompose(g, tuple(range(1, g.n + 1)))
    perm = [0] * g.n
    for pos, v in enumerate(order, start=1):
        perm[v - 1] = pos
    return tree, tuple(perm)


def _decompose(g: Graph, labels: tuple[int, ...]) -> tuple[Cotree, tuple[int, ...]]:
    if g.n == 0:
        return K, ()
    if g.n == 1:
        return W, (labels[0],)
    comps = cograph.connected_components(g)
    if len(comps) > 1:
        return _split(g, labels, comps, "tensor")
    co_comps = cograph.connected_components(cograph.complement(g))
    if len(co_comps) > 1:
        return _split(g, labels, co_comps, "join")
    p4 = cograph.find_induced_p4(g)
    witness = tuple(labels[v - 1] for v in p4) if p4 else None
    raise NotACograph(f"graph has an induced P4 at {witness}", witness)


def _split(g, labels, comp_masks, kind) -> tuple[Cotree, tuple[int, ...]]:
    pieces = []
    for mask in comp_masks:
        sub, old = cograph.induced_subgraph(g, mask)
        sub_labels = tuple(labels[v - 1] for v in old)
        pieces.append((sub, sub_labels))
    pieces.sort(key=lambda p: (p[0].n, min(p[1])))
    children = []
    order: list[int] = []
    for sub, sub_labels in pieces:
        child, child_order = _decompose(sub, sub_labels)
        children.append(child)
        order.extend(child_order)
    make = tensor if kind == "tensor" else join
    return make(*children), tuple(order)


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
