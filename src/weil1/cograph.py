"""Finite simple graphs with bitmask vertex sets, and the derived graphs
ind+, cl and kappa that drive the morphism calculus.

Vertices are labelled 1..n; a vertex set is an int bitmask with bit i-1 for
vertex i.  Graphs are capped at 63 vertices.  Every independence, product
and clique test goes through one kernel, ``Graph.neighbourhood``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

MAX_VERTICES = 63
IND_PLUS_GUARD = 20


class TooLarge(Exception):
    """An enumeration guard tripped; the requested sweep is out of budget."""


class NotACograph(ValueError):
    """The graph has an induced 4-vertex path, so no cotree exists for it."""

    def __init__(self, message: str, witness: tuple[int, ...] | None = None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 1..n; edges are sorted pairs (u, v), u < v."""

    n: int
    edges: frozenset[tuple[int, int]]
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        if self.n < 0 or self.n > MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} out of range 0..{MAX_VERTICES}")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
        object.__setattr__(self, "_hash", hash((self.n, self.edges)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbour bitmask per vertex; index i holds neighbours of vertex i+1."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        return tuple(adj)

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
        return (min(u, v), max(u, v)) in self.edges

    def __repr__(self) -> str:
        es = ",".join(f"{u}-{v}" for u, v in sorted(self.edges))
        return f"Graph({self.n}; {es})"


def graph(n: int, edges=()) -> Graph:
    """Normalising constructor: sorts edge endpoints, rejects loops."""
    norm = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        norm.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(norm))


def empty_graph() -> Graph:
    return graph(0)


def single_vertex_graph() -> Graph:
    return graph(1)


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


def is_clique(g: Graph, mask: int) -> bool:
    """A clique of g is an independent set of its complement."""
    return is_independent(g.complement, mask)


# ---------------------------------------------------------------------------
# graph operations

def complement(g: Graph) -> Graph:
    edges = set()
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            if not g.has_edge(u, v):
                edges.add((u, v))
    return Graph(g.n, frozenset(edges))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g tensor h: h's labels shift by g.n, no cross edges."""
    shifted = {(u + g.n, v + g.n) for u, v in h.edges}
    return Graph(g.n + h.n, g.edges | frozenset(shifted))


def join(g: Graph, h: Graph) -> Graph:
    """g x h: disjoint union plus every cross edge."""
    base = disjoint_union(g, h)
    cross = {(u, v + g.n) for u in range(1, g.n + 1) for v in range(1, h.n + 1)}
    return Graph(base.n, base.edges | frozenset(cross))


def induced_subgraph(g: Graph, mask: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph on the vertices of ``mask``; returns it with the old labels in order."""
    old = vertices_of(mask)
    pos = {v: i + 1 for i, v in enumerate(old)}
    edges = {(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos}
    return Graph(len(old), frozenset(edges)), old


def independent_sets(g: Graph, include_empty: bool = False) -> list[int]:
    """All independent sets as masks, sorted by (size, lexicographic members)."""
    out = cliques(g.complement)
    return out if include_empty else out[1:]


def cliques(g: Graph, cap: int | None = None) -> list[int]:
    """All cliques (including the empty one) as masks, canonically sorted.

    Depth-first extension by higher-numbered common neighbours, so the cost
    follows the number of cliques, not the 2^n subsets.  With a ``cap``, the
    search stops with ValueError as soon as it has found more than ``cap``
    cliques, so refusing a huge clique set costs about ``cap`` steps."""
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
            raise ValueError(f"more than {cap} cliques (vertex count out of range 0..{cap})")
    out.sort(key=mask_key)
    return out


@dataclass(frozen=True)
class DerivedGraph:
    """A graph whose vertices stand for sets; ``labels[i]`` annotates vertex i+1."""

    graph: Graph
    labels: tuple


def ind_plus(g: Graph) -> DerivedGraph:
    """ind+: the non-empty independent sets of g; two distinct sets are
    adjacent when they overlap or contain a pair of vertices adjacent in g."""
    sets = independent_sets(g)
    edges = set()
    for i, u in enumerate(sets):
        nbhd = g.neighbourhood(u) | u
        for j in range(i + 1, len(sets)):
            if sets[j] & nbhd:
                edges.add((i + 1, j + 1))
    return DerivedGraph(Graph(len(sets), frozenset(edges)), tuple(sets))


def cl_graph(g: Graph) -> DerivedGraph:
    """Graph on all cliques of g; distinct cliques are adjacent when their
    union is again a clique (no disjointness required)."""
    cs = cliques(g, cap=MAX_VERTICES)  # refuse an over-large result before the pair loop
    edges = set()
    for i, u in enumerate(cs):
        for j in range(i + 1, len(cs)):
            if is_clique(g, u | cs[j]):
                edges.add((i + 1, j + 1))
    return DerivedGraph(Graph(len(cs), frozenset(edges)), tuple(cs))


def kappa_labels(g: Graph, guard: int = IND_PLUS_GUARD) -> tuple[tuple[int, ...], ...]:
    """The vertices of kappa(g) in canonical order: each clique of ind+(g),
    as the tuple of independent-set masks it collects.

    Morphisms from a one-generator algebra into k[g] correspond exactly to
    these vertices.  Raises TooLarge when ind+(g) has more than ``guard``
    vertices, since the clique count can grow as 2^|ind+|.
    """
    ip = ind_plus(g)
    return _clique_labels(ip, cliques(_guarded(g, ip, guard)))


def kappa(g: Graph) -> DerivedGraph:
    """kappa = cl(ind+): vertices are cliques of independent sets of g,
    labelled as in ``kappa_labels``."""
    ip = ind_plus(g)
    cl = cl_graph(_guarded(g, ip, IND_PLUS_GUARD))
    return DerivedGraph(cl.graph, _clique_labels(ip, cl.labels))


def _guarded(g: Graph, ip: DerivedGraph, guard: int) -> Graph:
    """ip.graph, or TooLarge when it has more than ``guard`` vertices."""
    if ip.graph.n > guard:
        raise TooLarge(f"ind+ of a {g.n}-vertex graph has {ip.graph.n} vertices (> {guard})")
    return ip.graph


def _clique_labels(ip: DerivedGraph, cs) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(ip.labels[v - 1] for v in vertices_of(c)) for c in cs)


# ---------------------------------------------------------------------------
# P4 detection (brute-force oracle used for error reporting and tests)

def find_induced_p4(g: Graph) -> tuple[int, ...] | None:
    """Return vertices (a, b, c, d) of an induced path a-b-c-d, or None."""
    vs = range(1, g.n + 1)
    for b in vs:
        for c in vs:
            if b == c or not g.has_edge(b, c):
                continue
            for a in vs:
                if a in (b, c) or not g.has_edge(a, b) or g.has_edge(a, c):
                    continue
                for d in vs:
                    if d in (a, b, c):
                        continue
                    if g.has_edge(c, d) and not g.has_edge(b, d) and not g.has_edge(a, d):
                        return (a, b, c, d)
    return None


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, by smallest member."""
    seen = 0
    comps = []
    for v in range(1, g.n + 1):
        bit = 1 << (v - 1)
        if seen & bit:
            continue
        comp = bit
        frontier = bit
        while frontier:
            new = g.neighbourhood(frontier) & ~comp
            comp |= new
            frontier = new
        comps.append(comp)
        seen |= comp
    return comps


def to_dot(g: Graph, labels=None, name: str | None = None) -> str:
    """Graphviz DOT text; derived graphs get their set notation as labels."""
    lines = ["graph {"]
    for v in range(1, g.n + 1):
        if labels is None:
            lines.append(f"  {v};")
        else:
            lines.append(f'  {v} [label="{_label_text(labels[v - 1])}"];')
    for u, v in sorted(g.edges):
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label_text(label) -> str:
    if isinstance(label, int):
        return format_mask(label)
    return "{" + ",".join(format_mask(m) for m in label) + "}"
