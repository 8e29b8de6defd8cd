import functools
import hashlib
import itertools
import operator
import random
import re
import time

import pytest

from weil1.rig import Rig
from weil1 import cograph as cg
from weil1 import cotree as ct
from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import verify as vf
from weil1 import weilalg as wa

from conftest import layout_projections


B2, NAT = Rig.BOOL2, Rig.NAT
W = wa.algebra_of(ct.W, B2)
WW = wa.algebra_of(ct.n_tensor(2), B2)
W2 = wa.algebra_of(ct.n_join(2), B2)
GENS = mor.generators(B2)


# ---------------------------------------------------------------------------
# hom enumeration

def brute_force_hom(a, b):
    """Oracle: every assignment of subsets of ind+(G_b) to the generators,
    kept when the relation checks pass."""
    ip = cg.ind_plus(b.graph)
    subsets = []
    for bits in range(1 << ip.graph.n):
        masks = [ip.labels[v - 1] for v in cg.vertices_of(bits)]
        subsets.append({m: 1 for m in masks})
    out = []
    for choice in itertools.product(subsets, repeat=a.n):
        try:
            out.append(mor.make(a, b, [dict(c) for c in choice]))
        except mor.RelationViolation:
            continue
    return set(out)


def backtrack_hom(a, b):
    """Oracle: backtracking over ``hom_candidates`` in candidate order, with
    one ``dict_mul`` per (partial assignment, earlier neighbour, candidate)
    and no table of products."""
    cands = vf.hom_candidates(a, b)
    earlier = [[] for _ in range(a.n)]
    for u, v in a.graph.edges:
        earlier[v - 1].append(u - 1)
    dicts = [dict(terms) for terms in cands]
    out, choice = [], [0] * a.n

    def rec(i):
        if i == a.n:
            out.append(mor.Morphism(a, b, tuple(wa.poly_trusted(dicts[c]) for c in choice)))
            return
        for c in range(len(cands)):
            if not any(wa.dict_mul(dicts[choice[j]], dicts[c], b) for j in earlier[i]):
                choice[i] = c
                rec(i + 1)

    rec(0)
    return tuple(out)


# the 4-vertex pairs that the backtracking oracle checks: at most this many
# candidate assignments, 92 of the 168 pairs within HOM_ASSIGNMENTS (all 168
# hold 18.6 million morphisms)
ORACLE_ASSIGNMENTS = 20_000


def test_enumerate_hom_matches_backtracking_oracle():
    # the same tuple, in the same order, for every pair up to 3 vertices and
    # the 4-vertex pairs of at most ORACLE_ASSIGNMENTS candidate assignments
    checked = 0
    for a_t, b_t in itertools.product(vf.canonical_objects(4), repeat=2):
        a, b = wa.algebra_of(a_t, B2), wa.algebra_of(b_t, B2)
        if max(a.n, b.n) == 4:
            try:
                cands = vf.hom_candidates(a, b)
            except vf.TooLarge:
                continue
            if len(cands) ** a.n > ORACLE_ASSIGNMENTS:
                continue
        assert vf.enumerate_hom(a, b) == backtrack_hom(a, b), (a_t, b_t)
        checked += 1
    assert checked == 64 + 92


def test_enumerate_hom_w_to_2w_members():
    hom = vf.enumerate_hom(W, WW)
    rendered = {wa.format_poly(f.image(1)) for f in hom}
    assert rendered == {"0", "y1", "y2", "y1 y2", "y1 + y1 y2", "y2 + y1 y2"}
    assert len(hom) == 6


def test_enumerate_hom_trivial_cases():
    k = wa.algebra_of(ct.K, B2)
    assert len(vf.enumerate_hom(W, k)) == 1
    for b in (W, WW, W2):
        hom = vf.enumerate_hom(k, b)
        assert len(hom) == 1 and hom[0].images == ()


def test_enumerate_hom_matches_subset_oracle():
    for a_t, b_t in itertools.product(vf.canonical_objects(2), repeat=2):
        a, b = wa.algebra_of(a_t, B2), wa.algebra_of(b_t, B2)
        assert set(vf.enumerate_hom(a, b)) == brute_force_hom(a, b)


def test_enumerate_hom_deterministic_order():
    first = [repr(f) for f in vf.enumerate_hom(WW, WW)]
    second = [repr(f) for f in vf.enumerate_hom(WW, WW)]
    assert first == second


def test_enumerate_hom_guard():
    with pytest.raises(vf.TooLarge):
        vf.enumerate_hom(ct.W, ct.n_tensor(6))


def test_hom_counts():
    assert len(vf.enumerate_hom(ct.W, ct.W)) == 2
    assert len(vf.enumerate_hom(ct.W, ct.n_tensor(2))) == 6
    assert len(vf.enumerate_hom(ct.W, ct.n_tensor(3))) == 40


def test_hom_count_equals_graph_map_count_small():
    for a, b in itertools.product(vf.canonical_objects(2), repeat=2):
        assert len(vf.enumerate_hom(a, b)) == vf.count_graph_maps(a, b)


def test_hom_counts_turn_tensor_and_product_into_products():
    # tensor is the coproduct and join the product, so over {0,1}
    # |hom(A @ A', B)| = |hom(A, B)| |hom(A', B)| and
    # |hom(A, B * B')| = |hom(A, B)| |hom(A, B')|; both sides of the hom
    # bijection must agree with the identity wherever they are computed
    count = vf.count_graph_maps
    objs = vf.canonical_objects(2)[1:]  # every non-unit object of at most 2 vertices
    for x, y, z in itertools.product(objs, repeat=3):
        for a, b, want in ((ct.tensor(x, y), z, count(x, z) * count(y, z)),
                           (x, ct.join(y, z), count(x, y) * count(x, z))):
            assert count(a, b) == len(vf.enumerate_hom(a, b)) == want, (a, b)


def test_count_graph_maps_is_guarded():
    # both sides of the hom-count oracle refuse the same inputs, and fast:
    # ind+(22W) has 4,194,303 vertices; (4W, 3W) has 40^4 candidate
    # assignments and 2,560,000 maps, the other two 1376^3
    start = time.perf_counter()
    with pytest.raises(vf.TooLarge):
        vf.count_graph_maps(ct.W, ct.n_tensor(22))
    with pytest.raises(vf.TooLarge):
        vf.enumerate_hom(ct.W, ct.n_tensor(22))
    for a, b in ((ct.n_tensor(4), ct.n_tensor(3)), (ct.n_tensor(3), ct.n_tensor(4)),
                 (ct.n_join(3), ct.n_tensor(4))):
        for side in (vf.count_graph_maps, vf.enumerate_hom):
            with pytest.raises(vf.TooLarge, match=r"verify\.HOM_ASSIGNMENTS"):
                side(a, b)
    assert time.perf_counter() - start < 5


def forbidden_mask_graph_maps(g, ipg, verts):
    """Oracle: every graph map g -> cl(ipg) as indices into ``verts``, by
    backtracking in vertex order over every candidate in list order, keeping
    those that miss the neighbourhood, in the complement of ``ipg``, of the
    union of the cliques taken by lower-numbered neighbours."""
    outside = ipg.complement.neighbourhood
    earlier = [cg.vertices_of(nb & ((1 << i) - 1)) for i, nb in enumerate(g.adjacency)]
    out, choice = [], [0] * g.n

    def rec(i):
        if i == g.n:
            out.append(tuple(choice))
            return
        taken = 0
        for j in earlier[i]:
            taken |= verts[choice[j - 1]]
        forbidden = outside(taken)
        for idx, c in enumerate(verts):
            if not c & forbidden:
                choice[i] = idx
                rec(i + 1)

    rec(0)
    return out


def test_graph_maps_match_forbidden_mask_oracle():
    # the same list, in the same order, for every pair up to 3 vertices
    for a, b in itertools.product(vf.canonical_objects(3), repeat=2):
        ipg = cg.ind_plus(ct.realize(b)).graph
        args = (ct.realize(a), ipg, cg.cliques(ipg))
        assert vf.graph_maps(*args) == forbidden_mask_graph_maps(*args), (a, b)


def test_pullback_sweep_graph_maps_match_forbidden_mask_oracle(monkeypatch):
    # every search of the cone sweep over the default run's squares
    real = vf.graph_maps
    searches = []

    def checked(*args):
        maps = real(*args)
        searches.append(len(maps))
        assert maps == forbidden_mask_graph_maps(*args)
        return maps

    monkeypatch.setattr(vf, "graph_maps", checked)
    for triple in itertools.product(vf.canonical_objects(2), repeat=3):
        vf.check_foundational_pullback(*triple, apex_max=2)
    assert len(searches) > 100 and max(searches) > 1000


def test_canonical_objects_counts():
    counts = [1, 2, 4, 8, 18, 42]
    for n in range(6):
        objs = vf.canonical_objects(n)
        assert len(set(objs)) == len(objs) == counts[n]


@pytest.mark.slow
def test_canonical_objects_at_six_vertices():
    objs = vf.canonical_objects(6)
    assert len(set(objs)) == len(objs) == 110
    names = {ct.format_cotree(t) for t in objs}
    assert {"W^3 @ W * 2W", "W * 2W @ W^3"} <= names


def test_kappa_vertex_count_equals_hom_from_w():
    for tree in vf.canonical_objects(3):
        g = ct.realize(tree)
        assert cg.kappa(g).graph.n == len(vf.enumerate_hom(ct.W, tree))


# ---------------------------------------------------------------------------
# axiom suites

def test_tangent_axioms_all_pass():
    report = vf.check_tangent_axioms()
    assert report.all_passed, report.failures()


def test_axiom_report_formats():
    report = vf.check_tangent_axioms(max_vertices=1)
    lines = report.format_lines()
    assert lines.startswith("AXIOM ")
    assert " PASS" in lines and " FAIL" not in lines
    assert "checks passed" in report.format_text()


def full_naturality_sweep(max_vertices):
    """Oracle: every transformation's naturality square at every map of
    every hom-set between the objects of at most ``max_vertices`` vertices.
    Returns the number of maps and, per transformation, the first map whose
    square fails, or None."""
    objs = [wa.algebra_of(t, B2) for t in vf.canonical_objects(max_vertices)]
    maps = [f for a, b in itertools.product(objs, repeat=2) for f in vf.enumerate_hom(a, b)]
    return len(maps), {name: next((f for f in maps if not vf._square_commutes(tau, f)), None)
                       for name, tau in vf._transformations().items()}


def test_full_naturality_sweep_passes():
    n, bad = full_naturality_sweep(2)
    assert n == 123
    assert bad == dict.fromkeys(("p", "eta", "plus", "l", "c")), bad


def test_naturality_checks_the_maps_out_of_w_and_k():
    # one square per map W -> B, a vertex of kappa(B), and one for K -> B
    for n, total in zip(range(1, 5), (5, 17, 101, 2395)):
        report = vf.check_tangent_axioms(n)
        assert report.all_passed, report.failures()
        objs = vf.canonical_objects(n)
        assert sum(len(cg.kappa_labels(ct.realize(b))) + 1 for b in objs) == total
        assert [r.ident for r in report.results if r.ident.startswith("naturality.")] == [
            f"naturality.{name}(n={total})" for name in ("p", "eta", "plus", "l", "c")]


@pytest.mark.parametrize("shape", [ct.n_join(2), ct.n_tensor(2)], ids=["W^2", "2W"])
@pytest.mark.parametrize("block", ["S", "A"])
def test_a_wrong_component_fails_both_naturality_checks(monkeypatch, shape, block):
    # the component at one object loses the image of one generator: the
    # first generator of the transformation's source S, or the first of the
    # object's own.  plus, l and c send their first generator to a non-zero
    # image, so either loss changes their components, and the full sweep
    # and the reduced check must both see it
    caught = ("plus", "l", "c")
    component = vf._component

    def mutant(tau, obj):
        comp = component(tau, obj)
        if obj.cotree != shape:
            return comp
        raw = list(comp.raw)
        raw[0 if block == "S" else tau.source.n] = wa.poly_trusted({})
        return mor.Morphism(comp.source, comp.target, tuple(raw))

    monkeypatch.setattr(vf, "_component", mutant)
    _, bad = full_naturality_sweep(2)
    assert all(bad[name] is not None for name in caught), bad
    failed = {r.ident.split("(")[0] for r in vf._naturality_checks(2) if not r.passed}
    assert failed >= {f"naturality.{name}" for name in caught}, failed


def test_equalizer_map_is_the_stated_one():
    v = vf.vertical_lift_equalizer_map()
    assert v.image(1) == wa.poly(WW, {0b11: 1})
    assert v.image(2) == wa.poly(WW, {0b10: 1})


def test_equalizer_suite():
    report = vf.check_equalizer()
    assert report.all_passed, report.failures()


def test_equalizer_arrows_are_their_morphisms():
    # W (x) eps and eta . (eps (x) eps), restricted along each splice
    lhs, rhs = vf.EQUALIZER_ARROWS
    assert (lhs, rhs) == (mor.Splice(1, 1), mor.Splice(0, 2))
    idww = mor.identity(WW)
    assert mor.compose_restriction(lhs, W, idww) == mor.tensor_mor(mor.identity(W), GENS["eps_W"])
    assert mor.compose_restriction(rhs, W, idww) == mor.compose(
        GENS["eta_W"], mor.tensor_mor(GENS["eps_W"], GENS["eps_W"]))


def test_a_wrong_equalizer_map_fails_universality(monkeypatch):
    # x1 -> y1 y2, x2 -> 0 still equalizes both arrows, but no map into W^2
    # reaches the cone x -> y2 through it
    monkeypatch.setattr(vf, "vertical_lift_equalizer_map",
                        lambda rig: mor.make(W2, WW, [{0b11: 1}, {}]))
    report = vf.check_equalizer()
    failures = report.failures()
    assert report.results[0].passed and failures, report.format_lines()
    assert all("factorizations" in r.detail for r in failures), failures


def test_equalizer_counts_unique_factorization_by_hand():
    # independent recount for A = W: solve v . u = h over all of Hom(W, W^2)
    v = vf.vertical_lift_equalizer_map()
    lhs = mor.tensor_mor(mor.identity(W), GENS["eps_W"])
    rhs = mor.compose(GENS["eta_W"], mor.tensor_mor(GENS["eps_W"], GENS["eps_W"]))
    cones = [h for h in vf.enumerate_hom(W, WW)
             if mor.compose(lhs, h) == mor.compose(rhs, h)]
    assert len(cones) == 4
    for h in cones:
        n = sum(1 for u in vf.enumerate_hom(W, W2) if mor.compose(v, u) == h)
        assert n == 1


def test_foundational_pullbacks_small():
    for b, a1, a2 in [(ct.W, ct.W, ct.W), (ct.K, ct.W, ct.W),
                      (ct.n_join(2), ct.W, ct.n_join(2)),
                      (ct.W, ct.n_tensor(2), ct.W)]:
        report = vf.check_foundational_pullback(b, a1, a2)
        assert report.all_passed, (b, a1, a2, report.failures())


def test_foundational_pullback_certificate_counts():
    report = vf.check_foundational_pullback(ct.n_tensor(2), ct.W, ct.W)
    idents = {r.ident.split("(")[0] for r in report.results}
    assert "pullback.injective" in idents and "pullback.count" in idents


def reference_pullback(b, a1, a2, apex_max=2, cone_budget=200_000, sample=20_000, seed=7):
    """Oracle: the term-level pullback check that the kappa-vertex one
    replaced.  Candidates are term tuples, products are ``dict_mul``s, and
    the cone sweep composes whole morphisms.  Returns (ident, passed) pairs."""
    name = f"({ct.format_cotree(b)},{ct.format_cotree(a1)},{ct.format_cotree(a2)})"
    if a1.kind == "K" or a2.kind == "K":
        return [(f"pullback.degenerate{name}", True)]
    p_tree, t1_tree, t2_tree = ct.tensor(b, ct.join(a1, a2)), ct.tensor(b, a1), ct.tensor(b, a2)
    p_obj, t1_obj, t2_obj = (wa.algebra_of(t, B2) for t in (p_tree, t1_tree, t2_tree))
    if b.kind == "K":
        at, k1, k2 = 0, 1, 1
    else:
        at, k1, k2 = len(ct.factors(b)) + 1, len(ct.factors(a1)), len(ct.factors(a2))
    proj1, proj2 = layout_projections(t1_obj, t2_obj, at, k1, k2)
    # kappa_candidates' labels, past its ind+ guard: cliques of ind+ in canonical order
    ip_p = cg.ind_plus(p_obj.graph)
    cand_p = [tuple((ip_p.labels[v - 1], 1) for v in cg.vertices_of(c))
              for c in sorted(cg.cliques(ip_p.graph), key=cg.mask_key)]
    base_mask = (1 << wa.algebra_of(b, B2).n) - 1

    def projected(proj):
        return [tuple(m for m, _ in mor.compose(proj, mor.Morphism(W, p_obj, (terms,))).raw[0])
                for terms in cand_p]

    legs1, legs2 = projected(proj1), projected(proj2)
    inj_ok = len(set(zip(legs1, legs2))) == len(cand_p)
    out = [(f"pullback.injective{name}(candidates={len(cand_p)})", inj_ok)]

    def buckets(tree):
        keys = [tuple(sorted(m for m, _ in terms if m & base_mask == m))
                for terms in vf.kappa_candidates(tree)]
        return {k: keys.count(k) for k in set(keys)}

    b1, b2 = buckets(t1_tree), buckets(t2_tree)
    compat = sum(n * b2.get(k, 0) for k, n in b1.items())
    out.append((f"pullback.count{name}(pairs={compat})", compat == len(cand_p)))

    # every pair of candidates where there are few, else a seeded sample of
    # them; the check under test is exact either way, so the label is "all"
    rng = random.Random(seed)
    n = len(cand_p)
    if n * (n - 1) // 2 <= sample:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
    else:
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(sample)]
    prod_ok = True
    for i, j in pairs:
        up = wa.dict_mul(dict(cand_p[i]), dict(cand_p[j]), p_obj)
        d1 = wa.dict_mul(dict.fromkeys(legs1[i], 1), dict.fromkeys(legs1[j], 1), t1_obj)
        d2 = wa.dict_mul(dict.fromkeys(legs2[i], 1), dict.fromkeys(legs2[j], 1), t2_obj)
        prod_ok = prod_ok and bool(up) == bool(d1 or d2)
    out.append((f"pullback.products{name}(all)", prod_ok))

    base_obj = wa.algebra_of(b, B2)
    base1 = mor.tensor_mor(mor.identity(base_obj), mor.eps(wa.algebra_of(a1, B2)))
    base2 = mor.tensor_mor(mor.identity(base_obj), mor.eps(wa.algebra_of(a2, B2)))
    for apex in vf.canonical_objects(apex_max):
        x = wa.algebra_of(apex, B2)
        ident = f"pullback.cones{name}[{ct.format_cotree(apex)}]"
        if compat ** max(x.n, 1) > cone_budget:
            out.append((ident + "(certified)", inj_ok and compat == len(cand_p) and prod_ok))
            continue
        by_base = {}
        for f2 in vf.enumerate_hom(x, t2_obj):
            by_base.setdefault(mor.compose(base2, f2), []).append(f2)
        by_pair = {}
        for u in vf.enumerate_hom(x, p_obj):
            key = (mor.compose(proj1, u), mor.compose(proj2, u))
            by_pair[key] = by_pair.get(key, 0) + 1
        cones = [(f1, f2) for f1 in vf.enumerate_hom(x, t1_obj)
                 for f2 in by_base.get(mor.compose(base1, f1), [])]
        ok = all(by_pair.get(cone, 0) == 1 for cone in cones)
        out.append((ident + f"(cones={len(cones)})", ok))
    return out


def _verdicts(report):
    return [(r.ident, r.passed) for r in report.results]


SMALL_TRIPLES = list(itertools.product(vf.canonical_objects(1), repeat=3))
# two-vertex squares, among them ones whose legs differ (a1 != a2)
TWO_VERTEX_TRIPLES = [
    (ct.n_tensor(2), ct.W, ct.n_tensor(2)), (ct.n_tensor(2), ct.W, ct.n_join(2)),
    (ct.n_join(2), ct.W, ct.n_tensor(2)), (ct.W, ct.n_tensor(2), ct.n_join(2)),
    (ct.n_join(2), ct.n_join(2), ct.W), (ct.n_join(2), ct.n_tensor(2), ct.W),
]


@pytest.mark.parametrize("triple", SMALL_TRIPLES + TWO_VERTEX_TRIPLES,
                         ids=lambda t: ",".join(ct.format_cotree(x) for x in t))
def test_foundational_pullback_matches_reference(triple):
    assert _verdicts(vf.check_foundational_pullback(*triple)) == reference_pullback(*triple)


def _vertex_tables(triple, **options):
    """Every vertex table the pullback check builds, with its options, in
    call order, as (ind+ of the source, ind+ of the target, table)."""
    built = []
    real = vf._vertex_table

    def record(gen_map, src, dst):
        built.append((src, dst, real(gen_map, src, dst)))
        return built[-1][2]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vf, "_vertex_table", record)
        vf.check_foundational_pullback(*triple, **options)
    return built


def _check_with_table(monkeypatch, triple, k, table, **options):
    """The pullback check, with its options, with its k-th vertex table replaced."""
    calls = []
    real = vf._vertex_table

    def patched(gen_map, src, dst):
        calls.append(gen_map)
        return table if len(calls) - 1 == k else real(gen_map, src, dst)

    monkeypatch.setattr(vf, "_vertex_table", patched)
    return vf.check_foundational_pullback(*triple, **options)


def _verdicts_with_table(monkeypatch, triple, k, table):
    """PASS/FAIL per kind of check, with the k-th vertex table replaced."""
    report = _check_with_table(monkeypatch, triple, k, table)
    return {r.ident.split("(")[0]: r.passed for r in report.results}


CORRUPTED_TRIPLES = [(ct.W, ct.W, ct.W), (ct.n_tensor(2), ct.W, ct.n_join(2))]


@pytest.mark.parametrize("triple", CORRUPTED_TRIPLES, ids=["W,W,W", "2W,W,W^2"])
def test_corrupted_leg_table_fails_the_certificate(monkeypatch, triple):
    p_obj = wa.algebra_of(ct.tensor(triple[0], ct.join(triple[1], triple[2])), B2)
    ip_p = cg.ind_plus(p_obj.graph)
    legs = [(k, table) for k, (src, _, table) in enumerate(_vertex_tables(triple)) if src == ip_p]
    assert len(legs) == 2
    for k, table in legs:
        hit = [i for i, bit in enumerate(table) if bit]
        for n, i in enumerate(hit):
            # drop vertex i's image, or send it where the previous vertex goes
            for bit in {0, table[hit[n - 1]]} - {table[i]}:
                verdict = _verdicts_with_table(
                    monkeypatch, triple, k, table[:i] + (bit,) + table[i + 1:])
                assert not (verdict["pullback.injective"] and verdict["pullback.products"]), \
                    (k, i, bit)


def _products_over_candidate_pairs(triple, table1, table2):
    """Oracle for the products certificate: over every ordered pair of
    candidates of P, is the product non-zero upstairs exactly when it is
    non-zero in a leg?  Candidates are the cliques of ind+(P), their leg
    images go through the given projection tables member by member, and
    the product of two monomials is a ``dict_mul`` in the algebra.
    Returns the candidate count and the verdict."""
    b, a1, a2 = triple
    trees = [ct.tensor(b, ct.join(a1, a2)), ct.tensor(b, a1), ct.tensor(b, a2)]
    ips = [cg.ind_plus(wa.algebra_of(t, B2).graph) for t in trees]
    cands = cg.cliques(ips[0].graph)

    def union(masks):
        return functools.reduce(operator.or_, masks, 0)

    def partners(images, ip, tree):
        """Per image, the bitset of the images it has a non-zero product with."""
        obj = wa.algebra_of(tree, B2)
        live = [union(1 << v for v, n in enumerate(ip.labels) if wa.dict_mul({m: 1}, {n: 1}, obj))
                for m in ip.labels]
        holders = [0] * ip.graph.n  # holders[v]: the images that hold vertex v + 1
        for j, image in enumerate(images):
            for v in cg.vertices_of(image):
                holders[v - 1] |= 1 << j
        out = []
        for image in images:
            reach = union(live[v - 1] for v in cg.vertices_of(image))
            out.append(union(holders[w - 1] for w in cg.vertices_of(reach)))
        return out

    up = partners(cands, ips[0], trees[0])
    down = [partners([union(table[v - 1] for v in cg.vertices_of(c)) for c in cands], ip, tree)
            for table, ip, tree in ((table1, ips[1], trees[1]), (table2, ips[2], trees[2]))]
    return len(cands), all(u == d1 | d2 for u, d1, d2 in zip(up, *down))


@pytest.mark.parametrize("triple, candidates", [
    ((ct.n_tensor(2), ct.W, ct.W), 384),
    ((ct.W, ct.n_tensor(2), ct.n_join(2)), 544),
    ((ct.n_join(2), ct.n_join(2), ct.W), 704),
], ids=["2W,W,W", "W,2W,W^2", "W^2,W^2,W"])
def test_products_on_monomials_match_every_candidate_pair(monkeypatch, triple, candidates):
    # squares with 73,536 to 247,456 pairs of candidates: the verdict on
    # monomial pairs equals the exhaustive one on candidate pairs, for the
    # true projection tables and for each of their entries dropped to 0
    tables = [table for _, _, table in _vertex_tables(triple, apex_max=0)[:2]]
    variants = [(0, tables[0])] + [
        (k, table[:i] + (0,) + table[i + 1:])
        for k, table in enumerate(tables) for i in range(len(table)) if table[i]]
    verdicts = set()
    for k, table in variants:
        report = _check_with_table(monkeypatch, triple, k, table, apex_max=0)
        products = next(r for r in report.results if r.ident.startswith("pullback.products"))
        legs = list(tables)
        legs[k] = table
        assert (candidates, products.passed) == _products_over_candidate_pairs(triple, *legs), (k, table)
        assert products.passed or re.fullmatch(r"monomials \{[\d,]+\} and \{[\d,]+\} of P disagree",
                                               products.detail), products.detail
        verdicts.add(products.passed)
    assert verdicts == {True, False}


def test_failed_cone_names_its_morphisms(monkeypatch):
    # proj1 forgets that it keeps y1, so the cone (y1, y1) has no factorization
    triple = (ct.W, ct.W, ct.W)
    table = _vertex_tables(triple)[0][2]
    i = table.index(0b1)
    report = _check_with_table(monkeypatch, triple, 0, table[:i] + (0,) + table[i + 1:])
    details = {r.ident: r.detail for r in report.results}
    assert details["pullback.cones(W,W,W)[W](cones=5)"] == (
        "cone (Morphism(W -> 2W; x1 |-> y1), Morphism(W -> 2W; x1 |-> y1)) has 0 factorizations")


@pytest.mark.parametrize("triple", CORRUPTED_TRIPLES, ids=["W,W,W", "2W,W,W^2"])
def test_corrupted_base_key_fails_the_count(monkeypatch, triple):
    ip_b = cg.ind_plus(wa.algebra_of(triple[0], B2).graph)
    n_base = ip_b.graph.n
    keys = [(k, table) for k, (_, dst, table) in enumerate(_vertex_tables(triple)) if dst == ip_b]
    assert len(keys) == 2
    for k, table in keys:
        for i in range(len(table)):
            # a pure-base vertex loses its key; any other vertex gains one.
            # (Moving a key to another base vertex can be a symmetry of the
            # base, which leaves every count as it was.)
            for bit in [0] if table[i] else [1 << i % n_base]:
                verdict = _verdicts_with_table(
                    monkeypatch, triple, k, table[:i] + (bit,) + table[i + 1:])
                assert not verdict["pullback.count"], (k, i, bit)


def test_pullback_candidate_list_is_bounded():
    # the default verify's largest list, (2W,2W,2W), fits under the cap;
    # (2W,W,3W) is refused fast, already by the ind+ guard of its leg
    # T2 = 5W (31 sets), before the candidates are listed
    assert vf.PULLBACK_CANDIDATES >= 791_552
    start = time.perf_counter()
    with pytest.raises(vf.TooLarge, match=r"\(2W,W,3W\).*\(cograph.IND_PLUS_GUARD\)"):
        vf.check_foundational_pullback(ct.n_tensor(2), ct.W, ct.n_tensor(3))
    assert time.perf_counter() - start < 10


def test_pullback_refusal_names_the_square_and_the_budget():
    # (W^3,2W,2W): ind+(P) has 27 vertices and both legs are within the
    # guard, so the candidate cap itself is what refuses it
    start = time.perf_counter()
    with pytest.raises(vf.TooLarge) as err:
        vf.check_foundational_pullback(ct.n_join(3), ct.n_tensor(2), ct.n_tensor(2))
    assert str(err.value) == ("pullback square (W^3,2W,2W): more than 1000000 cliques"
                              " (verify.PULLBACK_CANDIDATES)")
    assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# omega and gamma

def test_omega_identity_case():
    g = mor.make(WW, WW, [{0b01: 1}, {0b10: 1}])
    om = vf.omega_witness(mor.identity(WW), g)
    assert om == mor.identity(WW)
    assert vf.omega_squares_commute(mor.identity(WW), g, om)


def test_omega_zero_composite_case():
    fold = mor.make(WW, W, [{1: 1}, {1: 1}])
    om = vf.omega_witness(GENS["l_W"], fold)
    assert om.source.cotree == ct.K  # all slot counts vanish
    assert vf.omega_squares_commute(GENS["l_W"], fold, om)


def test_omega_ambiguous_tracings():
    # f sends x to b1 + b2 in W^2; g folds both generators to z.  The circle
    # z of the composite can be traced through either term, the two tracings
    # give different slot generators, and no generator-to-generator map can
    # make the second square commute (the fold collapsed 1 + 1 to 1).
    f = mor.make(W, W2, [{0b01: 1, 0b10: 1}])
    g = mor.make(W2, W, [{1: 1}, {1: 1}])
    with pytest.raises(vf.ChoiceAmbiguous):
        vf.omega_witness(f, g)
    with pytest.raises(ValueError, match="resolve"):
        vf.omega_witness(f, g, resolve="stirct")
    resolutions = vf.omega_witness(f, g, resolve="all")
    assert len(resolutions) == 2
    h = mor.compose(g, f)
    ha, ga = ge.SlotAssignment(h), ge.SlotAssignment(g)
    for om in resolutions:
        # the addition square and the blockwise shape hold for every tracing
        assert (mor.compose(ge.evaluate(ge.recombiner_expr(ga.counts)), om)
                == ge.evaluate(ge.recombiner_expr(ha.counts)))
        assert vf._blockwise(om, ha.counts, ga.counts)
        # but the lift square is obstructed
        assert mor.compose(om, ha.lift()) != mor.compose(ga.lift(), f)
    # the n-fold tensor has n such circles, each with two tracings: 2^n
    # resolutions, refused past 128
    def fold(m, n):
        return functools.reduce(mor.tensor_mor, [m] * n)

    assert len(vf.omega_witness(fold(f, 4), fold(g, 4), resolve="all")) == 16
    with pytest.raises(vf.TooLarge, match="more than 128 omega resolutions"):
        vf.omega_witness(fold(f, 8), fold(g, 8), resolve="all")


def _sample_composable(rnd, max_vertices=3):
    objs = vf.canonical_objects(max_vertices)
    edgeless = [t for t in objs if not ct.realize(t).edges]
    a = rnd.choice(objs)
    b = rnd.choice(objs)
    n_w = rnd.choice(edgeless)
    f = rnd.choice(vf.enumerate_hom(a, b))
    g = rnd.choice(vf.enumerate_hom(b, n_w))
    return f, g


def test_omega_random_sweep():
    rnd = random.Random(23)
    done = ambiguous = 0
    while done < 60:
        f, g = _sample_composable(rnd)
        try:
            om = vf.omega_witness(f, g)
        except vf.ChoiceAmbiguous:
            ambiguous += 1
            continue
        assert vf.omega_squares_commute(f, g, om)
        done += 1
    assert done == 60


def test_gamma_identity_case():
    g = mor.identity(WW)
    f = mor.make(W, WW, [{0b01: 1, 0b11: 1}])
    gamma = vf.gamma_witness(f, g)
    assert vf.gamma_squares_commute(f, g, gamma)


def test_gamma_lift_case():
    gamma = vf.gamma_witness(mor.identity(W), GENS["l_W"])
    assert gamma.image(1) == wa.poly(gamma.target, {0b11: 1})
    assert vf.gamma_squares_commute(mor.identity(W), GENS["l_W"], gamma)


def test_gamma_duplicates_slots():
    # two circles through the single generator of W: the lift of g = l has
    # two slots per target generator and gamma copies each source slot to
    # the matching slot pair
    f = mor.make(WW, W, [{1: 1}, {1: 1}])
    gamma = vf.gamma_witness(f, GENS["l_W"])
    assert gamma.source.cotree == ct.n_join(2)
    assert gamma.target.cotree == ct.tensor(ct.n_join(2), ct.n_join(2))
    assert gamma.image(1) == wa.poly(gamma.target, {0b0101: 1})
    assert gamma.image(2) == wa.poly(gamma.target, {0b1010: 1})
    assert vf.gamma_squares_commute(f, GENS["l_W"], gamma)


def test_gamma_preconditions():
    with pytest.raises(mor.TypeMismatch):
        vf.gamma_witness(mor.identity(W), mor.zero_map(W, W))  # hits a zero generator
    partial = mor.make(WW, WW, [{0b01: 1}, {}])
    with pytest.raises(mor.TypeMismatch):
        vf.gamma_witness(mor.zero_map(W, WW), partial)


def _random_disjoint_g(rnd, m, n_total):
    """g : mW -> nW with one circle per generator, disjoint, covering all."""
    cut = sorted(rnd.sample(range(1, n_total), m - 1)) if m > 1 else []
    bounds = [0] + cut + [n_total]
    perm = list(range(1, n_total + 1))
    rnd.shuffle(perm)
    images = []
    for i in range(m):
        block = perm[bounds[i]:bounds[i + 1]]
        images.append({sum(1 << (v - 1) for v in block): 1})
    src = wa.algebra_of(ct.n_tensor(m), B2)
    tgt = wa.algebra_of(ct.n_tensor(n_total), B2)
    return mor.make(src, tgt, images, check=True)


def test_gamma_random_sweep():
    rnd = random.Random(17)
    objs = vf.canonical_objects(3)
    done = 0
    while done < 60:
        m = rnd.randint(1, 3)
        n_total = rnd.randint(m, 3)
        g = _random_disjoint_g(rnd, m, n_total)
        a = rnd.choice(objs)
        f = rnd.choice(vf.enumerate_hom(wa.algebra_of(a, B2), g.source))
        gamma = vf.gamma_witness(f, g)
        assert vf.gamma_squares_commute(f, g, gamma)
        done += 1


# ---------------------------------------------------------------------------
# fullness

def test_nat_fullness_examples():
    f = mor.make(WW, wa.algebra_of(ct.n_tensor(3), B2),
                     [{0b011: 1, 0b110: 1}, {0b001: 1, 0b101: 1}])
    assert vf.check_nat_fullness(f)
    assert vf.check_nat_fullness(mor.zero_map(W, WW))
    for h in vf.enumerate_hom(W, WW):
        assert vf.check_nat_fullness(h)


def test_run_verify_small():
    report = vf.run_verify(max_vertices=1)
    assert report.all_passed, report.failures()
    assert hashlib.sha256(report.format_lines().encode()).hexdigest() == (
        "48a3b2a4e6a9469d74410e8b514ed84f9facc93c3c6328648f80bfc7ddc71214")
    assert any(r.ident.startswith("tangent.Tm") for r in report.results)
    assert any(r.ident.startswith("kleisli.bijection") for r in report.results)


# ---------------------------------------------------------------------------
# the bench tracer's hooks

def test_traced_layers_exist():
    # perfbench/tracing.py rebinds the functions its LAYERS names; each must
    # still be a function of its weil1 module
    import ast
    import importlib
    import pathlib

    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text())
    (layers,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"]
    missing = [f"{mod}.{name}" for mod, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"weil1.{mod}"), name, None))]
    assert len(layers) >= 8 and not missing, missing
