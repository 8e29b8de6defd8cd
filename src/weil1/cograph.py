"""Finite simple graphs held as neighbour bitmasks, and the derived graphs
ind+, cl and kappa that drive the morphism calculus.

Vertices are labelled 1..n; a vertex set is an int bitmask with bit i-1 for
vertex i, so a graph may have any number of vertices.  Every independence,
product and clique test goes through one kernel, ``Graph.neighbourhood``.
The work that can explode has named budgets that raise TooLarge before it
starts: ``IND_PLUS_GUARD`` for the independent sets behind kappa and
``CL_VERTICES`` for the cliques of a ``cl`` graph.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

IND_PLUS_GUARD = 20
# cl_graph refuses a graph with more cliques than this before its pair loop
CL_VERTICES = 63


class TooLarge(Exception):
    """An enumeration guard tripped; the requested sweep is out of budget."""


class NotACograph(ValueError):
    """The graph has an induced 4-vertex path, so no cotree exists for it."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


# every hash-consed object ever built, values and decomposition expressions
# alike, keyed by its class name and fields.  The table keeps every object
# alive, so no id is ever reused and a key may take a child by id: the lookup
# is then one flat tuple hash however deep the object is, and a key holding
# no object is left alone by the cycle collector, which would otherwise
# rescan one key tuple per expression node on every full collection.
_INTERNED: dict[tuple, object] = {}


def intern(cls, key: tuple, fields: tuple):
    """The one stored object for ``key``, made on first request as a ``cls``
    whose ``_fields`` hold ``fields``."""
    obj = _INTERNED.get(key)
    if obj is None:
        obj = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(obj, name, value)
        _INTERNED[key] = obj
    return obj


class Frozen:
    """Base of the immutable value classes, which are hash-consed.

    ``_fields`` names the constructor arguments.  The constructor looks the
    class name and field values up in one intern table and returns the
    stored object, so equal values are one object, and equality and hashing
    are the identity defaults: one pointer test however deep the value.
    Once built, assigning or deleting an attribute raises AttributeError.
    Copy and pickle rebuild a value through the constructor, so they return
    the interned object, in a new process too."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __new__(cls, *values):
        if len(values) != len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields")
        return intern(cls, (cls.__name__, *values), values)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


class Graph(Frozen):
    """Simple graph on vertices 1..n, held as its neighbour masks:
    ``adjacency[i]`` is the mask of the neighbours of vertex i+1.

    The masks are trusted (symmetric, no loops): the builders below keep
    them so, and ``graph`` is the checked constructor for outside input.
    Two graphs are one object when their masks are equal."""

    _fields = ("adjacency",)

    @cached_property
    def n(self) -> int:
        return len(self.adjacency)

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as sorted pairs (u, v), u < v, for printers and edge loops."""
        return frozenset((u, v) for u, nb in enumerate(self.adjacency, start=1)
                         for v in vertices_of(nb >> u << u))

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def complement(self) -> Graph:
        return complement(self)

    def neighbourhood(self, mask: int) -> int:
        """Union of the neighbour masks of the vertices in ``mask``.

        This is the one bitmask kernel: a set is independent when it misses
        its own neighbourhood, and a monomial product u v survives when v
        misses ``u | neighbourhood(u)``."""
        adj = self.adjacency
        nb = 0
        while mask:
            b = mask & -mask
            nb |= adj[b.bit_length() - 1]
            mask ^= b
        return nb

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adjacency[u - 1] >> (v - 1) & 1)

    def __repr__(self) -> str:
        es = ",".join(f"{u}-{v}" for u, v in sorted(self.edges))
        return f"Graph({self.n}; {es})"


def graph(n: int, edges=()) -> Graph:
    """The checked constructor: refuses a negative ``n``, loops and
    endpoints outside 1..n; an edge may be given either way round."""
    if n < 0:
        raise ValueError(f"vertex count {n} is negative")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return Graph(tuple(adj))


def empty_graph() -> Graph:
    return Graph(())


def single_vertex_graph() -> Graph:
    return Graph((0,))


# ---------------------------------------------------------------------------
# vertex-set helpers

def vertices_of(mask: int) -> tuple[int, ...]:
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def mask_key(mask: int):
    """Canonical sort key for vertex sets: size, then lexicographic members."""
    vs = vertices_of(mask)
    return (len(vs), vs)


def format_mask(mask: int) -> str:
    return "{" + ",".join(str(v) for v in vertices_of(mask)) + "}"


def is_independent(g: Graph, mask: int) -> bool:
    return not g.neighbourhood(mask) & mask


# ---------------------------------------------------------------------------
# graph operations

def complement(g: Graph) -> Graph:
    full = g.full_mask
    return Graph(tuple(full ^ nb ^ (1 << i) for i, nb in enumerate(g.adjacency)))


def disjoint_union(*gs: Graph) -> Graph:
    """The tensor of graphs: side by side, each one's labels shifted past
    the earlier ones', no cross edges."""
    return _side_by_side(gs, cross=False)


def join(*gs: Graph) -> Graph:
    """The product of graphs: side by side plus every cross edge."""
    return _side_by_side(gs, cross=True)


def _side_by_side(gs: tuple[Graph, ...], cross: bool) -> Graph:
    full = (1 << sum(g.n for g in gs)) - 1 if cross else 0
    adj: list[int] = []
    for g in gs:
        off = len(adj)
        rest = full & ~(g.full_mask << off)
        adj.extend(nb << off | rest for nb in g.adjacency)
    return Graph(tuple(adj))


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on the vertices of ``mask``; returns it with the old labels in order."""
    old = vertices_of(mask)
    return Graph(tuple(sum(1 << i for i, v in enumerate(old) if g.adjacency[u - 1] >> (v - 1) & 1)
                       for u in old)), old


def independent_sets(g: Graph) -> list[int]:
    """All non-empty independent sets as masks, sorted by (size, lexicographic members)."""
    return sorted(cliques(g.complement)[1:], key=mask_key)


def cliques(g: Graph, cap: int | None = None) -> list[int]:
    """All cliques as masks, the empty one first, in depth-first search order.

    Depth-first extension by higher-numbered common neighbours, so the cost
    follows the number of cliques, not the 2^n subsets.  Every clique after
    the first is an earlier one plus a bit above all of its own.  The order
    is not canonical: callers whose order is output sort by ``mask_key``.
    With a ``cap``, the search stops with TooLarge as soon as it has found
    more than ``cap`` cliques, so refusing a huge clique set costs about
    ``cap`` steps."""
    adj = g.adjacency
    out = [0]
    stack = [(0, g.full_mask)]
    while stack:
        clique, cand = stack.pop()
        m = cand
        while m:
            bit = m & -m
            out.append(clique | bit)
            stack.append((clique | bit, cand & adj[bit.bit_length() - 1] & ~((bit << 1) - 1)))
            m ^= bit
        if cap is not None and len(out) > cap:
            raise TooLarge(f"more than {cap} cliques")
    return out


class DerivedGraph(namedtuple("DerivedGraph", "graph labels")):
    """A graph whose vertices stand for sets; ``labels[i]`` annotates vertex i+1."""

    __slots__ = ()


def ind_plus(g: Graph, guard: int | None = None) -> DerivedGraph:
    """ind+: the non-empty independent sets of g; two distinct sets are
    adjacent when they overlap or contain a pair of vertices adjacent in g,
    that is when one meets the other's closed neighbourhood.

    With a ``guard``, raises TooLarge as soon as the enumeration finds more
    than ``guard`` sets, before any edge is built."""
    try:
        sets = sorted(cliques(g.complement, None if guard is None else guard + 1)[1:], key=mask_key)
    except TooLarge:
        raise TooLarge(f"ind+ of a {g.n}-vertex graph has more than {guard} vertices") from None
    return _on_labels(sets, lambda u, v: v & (g.neighbourhood(u) | u))


def cl_graph(g: Graph) -> DerivedGraph:
    """Graph on all cliques of g; distinct cliques are adjacent when their
    union is again a clique (no disjointness required), that is when one
    misses the other's neighbourhood in the complement.  More than
    ``CL_VERTICES`` cliques raise TooLarge before the pair loop."""
    outside = g.complement.neighbourhood
    return _on_labels(sorted(cliques(g, cap=CL_VERTICES), key=mask_key),
                      lambda c, d: not d & outside(c))


def _on_labels(labels: list[int], adjacent) -> DerivedGraph:
    """One vertex per label, two distinct ones adjacent when ``adjacent(a, b)``."""
    adj = tuple(sum(1 << j for j, b in enumerate(labels) if j != i and adjacent(a, b))
                for i, a in enumerate(labels))
    return DerivedGraph(Graph(adj), tuple(labels))


def kappa_labels(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The vertices of kappa(g) in canonical order: each clique of ind+(g),
    as the tuple of independent-set masks it collects.

    Morphisms from a one-generator algebra into k[g] correspond exactly to
    these vertices.  Raises TooLarge when ind+(g) has more than
    ``IND_PLUS_GUARD`` vertices, since the clique count can grow as 2^|ind+|.
    """
    ip = ind_plus(g, IND_PLUS_GUARD)
    return _clique_labels(ip, sorted(cliques(ip.graph), key=mask_key))


def kappa(g: Graph) -> DerivedGraph:
    """kappa = cl(ind+): vertices are cliques of independent sets of g,
    labelled as in ``kappa_labels``."""
    ip = ind_plus(g, IND_PLUS_GUARD)
    cl = cl_graph(ip.graph)
    return DerivedGraph(cl.graph, _clique_labels(ip, cl.labels))


def _clique_labels(ip: DerivedGraph, cs) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(ip.labels[v - 1] for v in vertices_of(c)) for c in cs)


# ---------------------------------------------------------------------------
# P4 detection (brute-force oracle used for error reporting and tests)

def find_induced_p4(g: Graph) -> tuple[int, ...] | None:
    """Return vertices (a, b, c, d) of an induced path a-b-c-d, or None;
    the first in the order of b, then c, then a, then d."""
    adj = g.adjacency
    for b in range(1, g.n + 1):
        for c in vertices_of(adj[b - 1]):
            for a in vertices_of(adj[b - 1] & ~adj[c - 1] & ~(1 << (c - 1))):
                d = adj[c - 1] & ~adj[b - 1] & ~adj[a - 1] & ~(1 << (b - 1))
                if d:
                    return (a, b, c, (d & -d).bit_length())
    return None


def to_dot(g: Graph, labels=None) -> str:
    """Graphviz DOT text, the one DOT writer; derived graphs get their set
    notation as labels.  The text ends with the closing line ``}``."""
    lines = ["graph {"]
    for v in range(1, g.n + 1):
        if labels is None:
            lines.append(f"  {v};")
        else:
            lines.append(f'  {v} [label="{format_label(labels[v - 1])}"];')
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def format_label(label) -> str:
    """Set notation of a derived-graph label: a vertex set, or a tuple of them."""
    if isinstance(label, int):
        return format_mask(label)
    return "{" + ",".join(format_mask(m) for m in label) + "}"
