import itertools

import pytest

from weil1 import cograph as cg
from weil1 import cotree as ct


def all_graphs(n):
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for bits in range(1 << len(pairs)):
        yield cg.graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def brute_independent_sets(g, include_empty=False):
    # oracle: filter every subset by the pairwise edge test
    out = []
    for mask in range(0 if include_empty else 1, g.full_mask + 1):
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
    for n in range(5):
        for g in all_graphs(n):
            comp = cg.complement(g)
            for mask in range(g.full_mask + 1):
                assert cg.is_independent(g, mask) == cg.is_clique(comp, mask)


# ---------------------------------------------------------------------------
# independent sets and derived graphs

def test_independent_sets_examples():
    two = cg.graph(2)
    assert cg.independent_sets(two) == brute_independent_sets(two) == [0b01, 0b10, 0b11]
    wsq = cg.graph(2, [(1, 2)])
    assert cg.independent_sets(wsq) == brute_independent_sets(wsq) == [0b01, 0b10]
    assert cg.independent_sets(cg.empty_graph(), include_empty=True) == [0]


def test_independent_sets_against_oracle():
    for n in range(5):
        for g in all_graphs(n):
            assert cg.independent_sets(g, True) == brute_independent_sets(g, True)


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
            assert cg.cliques(g) == want
            assert cg.cliques(g, cap=len(want)) == want
            with pytest.raises(ValueError, match=f"more than {len(want) - 1} cliques"):
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
        cg.kappa_labels(cg.graph(4), guard=14)
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
