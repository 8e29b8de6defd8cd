import itertools

import pytest

from weil1 import cograph as cg
from weil1 import cotree as ct


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield cg.graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def brute_independent_sets(g):
    # oracle: filter every non-empty subset by the pairwise edge test
    out = []
    for mask in range(1, g.full_mask + 1):
        vs = cg.vertices_of(mask)
        if all(not g.has_edge(u, v) for u, v in itertools.combinations(vs, 2)):
            out.append(mask)
    return sorted(out, key=cg.mask_key)


def brute_has_induced_p4(g):
    # oracle: check every ordered 4-tuple for the path pattern
    for vs in itertools.permutations(range(1, g.n + 1), 4):
        a, b, c, d = vs
        if (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
                and not g.has_edge(a, c) and not g.has_edge(a, d)
                and not g.has_edge(b, d)):
            return True
    return False


# ---------------------------------------------------------------------------
# reference builders on edge sets: a graph is (n, frozenset of pairs (u, v), u < v)

def as_pair(g):
    return g.n, g.edges


def ref_complement(g):
    n, edges = g
    return n, frozenset((u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                        if (u, v) not in edges)


def ref_disjoint_union(g, h):
    (n, e), (_, f) = g, h
    return n + h[0], e | frozenset((u + n, v + n) for u, v in f)


def ref_join(g, h):
    n, m = g[0], h[0]
    total, edges = ref_disjoint_union(g, h)
    return total, edges | frozenset((u, v + n) for u in range(1, n + 1) for v in range(1, m + 1))


def ref_induced_subgraph(g, mask):
    _, edges = g
    old = cg.vertices_of(mask)
    pos = {v: i + 1 for i, v in enumerate(old)}
    return (len(old), frozenset((pos[u], pos[v]) for u, v in edges if u in pos and v in pos)), old


def ref_touches(edges, u, v):
    return any((min(a, b), max(a, b)) in edges for a in cg.vertices_of(u) for b in cg.vertices_of(v))


def ref_ind_plus(g):
    # distinct independent sets are adjacent when they overlap or touch an edge
    sets = brute_independent_sets(g)
    edges = frozenset((i + 1, j + 1) for i, j in itertools.combinations(range(len(sets)), 2)
                      if sets[i] & sets[j] or ref_touches(g.edges, sets[i], sets[j]))
    return (len(sets), edges), tuple(sets)


def ref_cl_graph(g):
    # distinct cliques are adjacent when their union is a clique
    cs = brute_cliques(g)
    edges = frozenset((i + 1, j + 1) for i, j in itertools.combinations(range(len(cs)), 2)
                      if cs[i] | cs[j] in cs)
    return (len(cs), edges), tuple(cs)


def ref_realize(t):
    if t.kind == "K":
        return 0, frozenset()
    if t.kind == "W":
        return 1, frozenset()
    op = ref_disjoint_union if t.kind == "tensor" else ref_join
    out = ref_realize(t.parts[0])
    for p in t.parts[1:]:
        out = op(out, ref_realize(p))
    return out


def ref_find_induced_p4(g):
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


SMALL_GRAPHS = [g for n in range(6) for g in all_graphs(n)]


def test_mask_builders_match_edge_set_references():
    for g in SMALL_GRAPHS:
        assert as_pair(cg.complement(g)) == ref_complement(as_pair(g))
        assert g.complement == cg.complement(g)
        for mask in range(g.full_mask + 1):
            sub, old = cg.induced_subgraph(g, mask)
            assert (as_pair(sub), old) == ref_induced_subgraph(as_pair(g), mask)
        assert cg.find_induced_p4(g) == ref_find_induced_p4(g)
    small = [g for g in SMALL_GRAPHS if g.n <= 3]
    for g, h in itertools.product(small, repeat=2):
        assert as_pair(cg.disjoint_union(g, h)) == ref_disjoint_union(as_pair(g), as_pair(h))
        assert as_pair(cg.join(g, h)) == ref_join(as_pair(g), as_pair(h))


def test_derived_graphs_match_edge_set_references():
    for g in SMALL_GRAPHS:
        ip = cg.ind_plus(g)
        assert (as_pair(ip.graph), ip.labels) == ref_ind_plus(g)
        cl = cg.cl_graph(g)
        assert (as_pair(cl.graph), cl.labels) == ref_cl_graph(g)


def test_realize_matches_edge_set_reference():
    from weil1.verify import canonical_objects

    for t in canonical_objects(5):
        g = ct.realize(t)
        assert as_pair(g) == ref_realize(t)
        assert g == cg.graph(*ref_realize(t))


def test_graph_constructor_refuses_bad_input():
    assert cg.graph(3, [(2, 1), (3, 2)]) == cg.graph(3, [(1, 2), (2, 3)])
    assert cg.graph(3, [(2, 1)]).adjacency == (0b010, 0b001, 0)
    for n, edges in ((3, [(2, 2)]), (3, [(0, 1)]), (3, [(1, 4)]), (-1, [])):
        with pytest.raises(ValueError):
            cg.graph(n, edges)


def test_graphs_have_no_vertex_cap():
    big = ct.realize(ct.n_join(100))
    assert big.n == 100 and len(big.edges) == 4950
    assert cg.complement(big) == cg.graph(100)
    assert ct.cotree_decompose(big) == (ct.n_join(100), tuple(range(1, 101)))
    with pytest.raises(cg.TooLarge, match="cotree.VERTEX_BUDGET"):
        ct.realize(ct.n_join(ct.VERTEX_BUDGET + 1))
    with pytest.raises(cg.TooLarge, match="cotree.VERTEX_BUDGET"):
        ct.cotree_decompose(cg.graph(ct.VERTEX_BUDGET + 1))


# ---------------------------------------------------------------------------
# basic operations

def test_disjoint_union_examples():
    dot = cg.single_vertex_graph()
    two = cg.disjoint_union(dot, dot)
    assert two.n == 2 and not two.edges
    g = cg.graph(3, [(1, 2)])
    assert cg.disjoint_union(cg.empty_graph(), g) == g
    k2 = cg.graph(2, [(1, 2)])
    three = cg.disjoint_union(k2, dot)
    assert three.n == 3 and three.edges == frozenset({(1, 2)})


def test_join_examples():
    dot = cg.single_vertex_graph()
    edge = cg.join(dot, dot)
    assert edge.edges == frozenset({(1, 2)})
    g = cg.graph(3, [(1, 2)])
    assert cg.join(cg.empty_graph(), g) == g
    star = cg.join(dot, cg.disjoint_union(dot, dot))
    assert star.edges == frozenset({(1, 2), (1, 3)})


def test_complement_examples():
    two = cg.graph(2)
    assert cg.complement(two).edges == frozenset({(1, 2)})
    example = cg.graph(6, [(1, 2), (1, 3), (1, 6), (2, 3), (4, 5)])
    assert cg.complement(cg.complement(example)) == example
    k3 = cg.graph(3, [(1, 2), (1, 3), (2, 3)])
    assert not cg.complement(k3).edges


def test_join_is_complement_of_union_of_complements():
    graphs = [g for n in range(5) for g in all_graphs(n)]
    for g, h in itertools.product(graphs, repeat=2):
        direct = cg.join(g, h)
        dual = cg.complement(cg.disjoint_union(cg.complement(g), cg.complement(h)))
        assert direct == dual


def test_independent_iff_clique_in_complement():
    # against the definitions, pair by pair: a set is independent in g when
    # no two of its vertices are adjacent there, and a clique of the
    # complement when every two are adjacent there
    for n in range(5):
        for g in all_graphs(n):
            comp = cg.complement(g)
            for mask in range(g.full_mask + 1):
                pairs = list(itertools.combinations(cg.vertices_of(mask), 2))
                independent = not any(g.has_edge(u, v) for u, v in pairs)
                assert cg.is_independent(g, mask) == independent
                assert all(comp.has_edge(u, v) for u, v in pairs) == independent


# ---------------------------------------------------------------------------
# independent sets and derived graphs

def test_independent_sets_examples():
    two = cg.graph(2)
    assert cg.independent_sets(two) == brute_independent_sets(two) == [0b01, 0b10, 0b11]
    wsq = cg.graph(2, [(1, 2)])
    assert cg.independent_sets(wsq) == brute_independent_sets(wsq) == [0b01, 0b10]


def test_independent_sets_against_oracle():
    for n in range(5):
        for g in all_graphs(n):
            assert cg.independent_sets(g) == brute_independent_sets(g)


def brute_cliques(g):
    # oracle: scan all 2^n vertex sets for pairwise adjacency
    out = []
    for mask in range(g.full_mask + 1):
        vs = cg.vertices_of(mask)
        if all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2)):
            out.append(mask)
    return sorted(out, key=cg.mask_key)


def test_cliques_against_oracle():
    for n in range(6):
        for g in all_graphs(n):
            want = brute_cliques(g)
            got = cg.cliques(g)
            # depth-first order: the empty clique first, then each clique
            # after an earlier one that lacks only its highest vertex
            assert sorted(got, key=cg.mask_key) == want
            assert got[0] == 0
            assert all(c ^ 1 << (c.bit_length() - 1) in got[:i] for i, c in enumerate(got) if c)
            assert cg.cliques(g, cap=len(want)) == got
            with pytest.raises(cg.TooLarge, match=f"more than {len(want) - 1} cliques"):
                cg.cliques(g, cap=len(want) - 1)


def test_neighbourhood_is_union_of_adjacency():
    g = cg.graph(4, [(1, 2), (2, 3), (1, 4)])
    assert g.neighbourhood(0) == 0
    assert g.neighbourhood(0b0001) == 0b1010
    assert g.neighbourhood(0b0101) == 0b1010
    assert g.neighbourhood(0b0011) == 0b1111


def test_kappa_guard():
    with pytest.raises(cg.TooLarge):
        cg.kappa(cg.graph(5))
    with pytest.raises(cg.TooLarge):
        cg.kappa_labels(cg.graph(5))
    assert len(cg.kappa_labels(cg.graph(4))) == 1376


def test_ind_plus_examples():
    one = cg.ind_plus(cg.single_vertex_graph())
    assert one.graph.n == 1 and not one.graph.edges
    two = cg.ind_plus(cg.graph(2))
    # vertices {1},{2},{1,2} in canonical order; edges only through the overlap
    assert two.labels == (0b01, 0b10, 0b11)
    assert two.graph.edges == frozenset({(1, 3), (2, 3)})
    wsq = cg.ind_plus(cg.graph(2, [(1, 2)]))
    assert wsq.labels == (0b01, 0b10)
    assert wsq.graph.edges == frozenset({(1, 2)})


def test_cl_graph_examples():
    one = cg.cl_graph(cg.single_vertex_graph())
    assert one.labels == (0, 0b1)
    assert one.graph.edges == frozenset({(1, 2)})
    empty = cg.cl_graph(cg.empty_graph())
    assert empty.labels == (0,) and not empty.graph.edges
    two = cg.cl_graph(cg.graph(2))
    assert two.labels == (0, 0b01, 0b10)
    assert two.graph.edges == frozenset({(1, 2), (1, 3)})


def test_kappa_examples():
    assert cg.kappa(cg.empty_graph()).graph.n == 1
    one = cg.kappa(cg.single_vertex_graph())
    assert one.graph.n == 2 and one.graph.edges == frozenset({(1, 2)})
    assert one.labels == ((), (0b1,))
    two = cg.kappa(cg.graph(2))
    assert two.graph.n == 6
    assert two.labels == ((), (0b01,), (0b10,), (0b11,), (0b01, 0b11), (0b10, 0b11))


# ---------------------------------------------------------------------------
# cotrees

def test_cotree_normalisation():
    assert ct.tensor(ct.K, ct.W) is ct.W or ct.tensor(ct.K, ct.W) == ct.W
    assert ct.join(ct.W, ct.K) == ct.W
    assert ct.tensor(ct.tensor(ct.W, ct.W), ct.W) == ct.tensor(ct.W, ct.tensor(ct.W, ct.W))
    assert ct.join(ct.n_join(2), ct.W) == ct.n_join(3)
    assert ct.tensor() == ct.K and ct.join() == ct.K
    assert ct.Cotree("W") is ct.Cotree("W", ()) is ct.W


def test_deep_cotree_is_one_object():
    # a threshold cotree of 1,000 leaves nests 999 levels deep; equal trees
    # built twice must be one object, so comparing and hashing never recurse
    def threshold(n):
        t = ct.W
        for i in range(1, n):
            t = (ct.join if i % 2 else ct.tensor)(ct.W, t)
        return t

    a, b = threshold(1000), threshold(1000)
    assert a is b and a == b and {a: 1}[b] == 1
    assert a is not threshold(999)
    assert ct.leaves(a) == 1000


def test_realize_table():
    # presentations of the basic objects as graphs
    assert ct.realize(ct.K).n == 0
    assert ct.realize(ct.W).n == 1
    assert ct.realize(ct.n_tensor(2)) == cg.graph(2)
    assert ct.realize(ct.n_join(2)) == cg.graph(2, [(1, 2)])
    assert ct.realize(ct.n_tensor(3)) == cg.graph(3)
    star = ct.join(ct.W, ct.n_tensor(2))
    assert ct.realize(star) == cg.graph(3, [(1, 2), (1, 3)])
    mixed = ct.tensor(ct.n_join(2), ct.W)
    assert ct.realize(mixed) == cg.graph(3, [(1, 2)])
    assert ct.realize(ct.n_join(3)) == cg.graph(3, [(1, 2), (1, 3), (2, 3)])


def test_cotree_decompose_examples():
    star = cg.graph(3, [(1, 2), (1, 3)])
    tree, perm = ct.cotree_decompose(star)
    assert tree == ct.join(ct.W, ct.n_tensor(2))
    assert perm == (1, 2, 3)
    single, perm1 = ct.cotree_decompose(cg.single_vertex_graph())
    assert single == ct.W and perm1 == (1,)
    p4 = cg.graph(4, [(1, 2), (2, 3), (3, 4)])
    with pytest.raises(cg.NotACograph) as err:
        ct.cotree_decompose(p4)
    assert err.value.witness is not None


def test_cotree_decompose_matches_p4_oracle():
    for n in range(5):
        for g in all_graphs(n):
            has_p4 = brute_has_induced_p4(g)
            try:
                ct.cotree_decompose(g)
                assert not has_p4
            except cg.NotACograph:
                assert has_p4


def test_decompose_round_trip_via_permutation():
    for n in range(5):
        for g in all_graphs(n):
            try:
                tree, perm = ct.cotree_decompose(g)
            except cg.NotACograph:
                continue
            relabelled = cg.graph(
                g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges]
            )
            assert relabelled == ct.realize(tree)


def test_format_cotree():
    assert ct.format_cotree(ct.K) == "k"
    assert ct.format_cotree(ct.n_tensor(3)) == "3W"
    assert ct.format_cotree(ct.n_join(2)) == "W^2"
    assert ct.format_cotree(ct.tensor(ct.n_join(2), ct.W)) == "W^2 @ W"
    assert ct.format_cotree(ct.join(ct.W, ct.n_tensor(2))) == "W * 2W"
    assert ct.format_cotree(ct.join(ct.W, ct.tensor(ct.n_join(2), ct.W))) == "W * (W^2 @ W)"


def test_to_dot():
    g = cg.graph(2, [(1, 2)])
    out = cg.to_dot(g)
    assert out == "graph {\n  1;\n  2;\n  1 -- 2;\n}\n"
    labelled = cg.to_dot(g, labels=(0b01, 0b10))
    assert '1 [label="{1}"]' in labelled


def test_kappa_dot_labels():
    derived = cg.kappa(cg.single_vertex_graph())
    out = cg.to_dot(derived.graph, derived.labels)
    assert '[label="{}"]' in out and '[label="{{1}}"]' in out
