import itertools
import os
import random
import subprocess
import sys

import pytest

from weil1.rig import Rig
from weil1 import cotree as ct
from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import weilalg as wa
from weil1.dsl import parse_genexpr
from weil1.verify import canonical_objects, enumerate_hom, kappa_candidates


B2, NAT = Rig.BOOL2, Rig.NAT
W = wa.algebra_of(ct.W, B2)
WW = wa.algebra_of(ct.n_tensor(2), B2)
GENS = mor.generators(B2)


def test_evaluate_ladder():
    e = ge.Compose(ge.Tensor(ge.Id(ct.W), ge.L), ge.L)
    f = ge.evaluate(e, B2)
    assert f.source.cotree == ct.W and f.target.cotree == ct.n_tensor(3)
    assert f.image(1).terms == ((0b111, 1),)


def test_evaluate_ghat_two():
    e = ge.Compose(ge.Plus, ge.Pair(ge.Id(ct.W), ge.Id(ct.W)))
    f = ge.evaluate(e, NAT)
    assert f.image(1) == wa.poly(wa.algebra_of(ct.W, NAT), {1: 2})


def test_evaluate_identity():
    assert ge.evaluate(ge.Id(ct.n_tensor(2)), B2) == mor.identity(WW)


def test_evaluate_ill_typed():
    with pytest.raises(ge.IllTyped):
        ge.evaluate(ge.Compose(ge.Plus, ge.L), B2)  # 2W vs W^2 seam
    with pytest.raises(ge.IllTyped):
        ge.evaluate(ge.Ghat(2), B2)  # coefficients need nat
    with pytest.raises(ge.IllTyped):
        ge.evaluate(ge.Proj(ct.n_tensor(2), 1), B2)


def test_decompose_one_circle_examples():
    # W -> 5W, x -> x1 x3 x4
    target = wa.algebra_of(ct.n_tensor(5), B2)
    f = mor.make(W, target, [{0b01101: 1}])
    e = ge.one_circle_expr(target.cotree, 0b01101)
    assert ge.evaluate(e, B2) == f
    # x -> x2 comes out as (eta (x) W) . id
    g = mor.make(W, WW, [{0b10: 1}])
    e2 = ge.one_circle_expr(WW.cotree, 0b10)
    assert e2 == ge.Compose(ge.Tensor(ge.Eta, ge.Id(ct.W)), ge.Id(ct.W))
    assert ge.evaluate(e2, B2) == g
    # the lift itself evaluates back to l
    e3 = ge.one_circle_expr(WW.cotree, 0b11)
    assert ge.evaluate(e3, B2) == GENS["l_W"]


def test_choice_rule_slot_example():
    # x1 -> y1y2 + y1y3, x2 -> y2y3 lifts into W^2 (x) W^2 (x) W^2 with every
    # slot used once: x1 -> y1 y3 + y2 y5, x2 -> y4 y6
    src = wa.algebra_of(ct.n_tensor(2), B2)
    tgt = wa.algebra_of(ct.n_tensor(3), B2)
    f = mor.make(src, tgt, [{0b011: 1, 0b101: 1}, {0b110: 1}])
    assignment = ge.SlotAssignment(f)
    assert assignment.counts == (2, 2, 2)
    lifted = assignment.lift()
    assert lifted.target.cotree == ct.tensor(ct.n_join(2), ct.n_join(2), ct.n_join(2))
    assert lifted.image(1) == wa.poly(lifted.target, {0b000101: 1, 0b010010: 1})
    assert lifted.image(2) == wa.poly(lifted.target, {0b101000: 1})
    recombined = mor.compose(ge.evaluate(ge.recombiner_expr(assignment.counts), B2), lifted)
    assert recombined == f


def _plus_tower(counts, rig):
    """Oracle: the tensor of m-ary additions built directly, sending every
    slot generator of block j to target generator j."""
    src = wa.algebra_of(ct.tensor(*[ct.n_join(m) for m in counts]), rig)
    tgt = wa.algebra_of(ct.n_tensor(len(counts)), rig)
    images = []
    for j, m in enumerate(counts, start=1):
        images.extend([{1 << (j - 1): 1}] * m)
    return mor.make(src, tgt, images)


@pytest.mark.parametrize("rig", [B2, NAT])
def test_recombiner_expr_is_the_plus_tower(rig):
    # every counts tuple of length 0-3 with entries 0-3, the empty one included
    cases = [c for n in range(4) for c in itertools.product(range(4), repeat=n)]
    assert len(cases) == 85
    for counts in cases:
        assert ge.evaluate(ge.recombiner_expr(counts), rig) == _plus_tower(counts, rig), counts


def test_choice_rule_one_circle_is_trivial():
    f = mor.make(W, WW, [{0b11: 1}])
    assignment = ge.SlotAssignment(f)
    assert assignment.counts == (1, 1)
    assert assignment.lift() == f


def test_choice_rule_zero_map():
    z = mor.zero_map(W, WW)
    assignment = ge.SlotAssignment(z)
    assert assignment.counts == (0, 0)
    assert assignment.lift().target.cotree == ct.K


def test_decompose_zero_map():
    z = mor.zero_map(W, wa.algebra_of(ct.n_tensor(3), B2))
    e = ge.decompose(z)
    assert ge.evaluate(e, B2) == z


def test_decompose_identity_on_product_uses_pair():
    w2 = wa.algebra_of(ct.n_join(2), B2)
    e = ge.decompose(mor.identity(w2))
    assert isinstance(e, ge.Pair)
    assert ge.evaluate(e, B2) == mor.identity(w2)


def test_decompose_generators_round_trip():
    for name, f in GENS.items():
        e = ge.decompose(f)
        assert ge.evaluate(e, B2) == f, name


def test_decompose_round_trip_two_vertex_objects():
    objs = [wa.algebra_of(t, B2) for t in canonical_objects(2)]
    n = 0
    for a, b in itertools.product(objs, repeat=2):
        for f in enumerate_hom(a, b):
            e = ge.decompose(f)
            assert ge.evaluate(e, B2) == f
            n += 1
    assert n == 123  # the full two-vertex hom census


def _random_nat_morphisms(count, seed, max_vertices=3, max_coeff=3):
    rnd = random.Random(seed)
    objs = canonical_objects(max_vertices)
    out = []
    while len(out) < count:
        a = rnd.choice(objs)
        b = rnd.choice(objs)
        hom = enumerate_hom(a, b)
        f = rnd.choice(hom)
        images = [
            {mask: rnd.randint(1, max_coeff) for mask, _ in p.terms} for p in f.images
        ]
        src = wa.algebra_of(a, NAT)
        tgt = wa.algebra_of(b, NAT)
        out.append(mor.make(src, tgt, images, check=True))
    return out


def test_decompose_round_trip_nat_random():
    for f in _random_nat_morphisms(60, seed=11):
        e = ge.decompose(f)
        assert ge.evaluate(e, NAT) == f


def test_decompose_nat_inserts_ghat():
    w_nat = wa.algebra_of(ct.W, NAT)
    f = mor.make(w_nat, w_nat, [{1: 3}])
    e = ge.decompose(f)
    assert "ghat(3)" in ge.format_genexpr(e)
    assert ge.evaluate(e, NAT) == f
    expanded = ge.expand_ghat(e)
    assert "ghat" not in ge.format_genexpr(expanded)
    assert ge.evaluate(expanded, NAT) == f


def test_decompose_deterministic():
    src = wa.algebra_of(ct.n_tensor(2), B2)
    tgt = wa.algebra_of(ct.n_tensor(3), B2)
    f1 = mor.make(src, tgt, [{0b011: 1, 0b110: 1}, {0b001: 1, 0b101: 1}])
    f2 = mor.make(src, tgt, [{0b110: 1, 0b011: 1}, {0b101: 1, 0b001: 1}])
    assert f1 == f2
    assert ge.decompose(f1) == ge.decompose(f2)
    assert ge.format_genexpr(ge.decompose(f1)) == ge.format_genexpr(ge.decompose(f2))


def test_decompose_only_allowed_nodes_and_eps_tower_for_base_target():
    f = mor.eps(wa.algebra_of(ct.join(ct.W, ct.n_tensor(2)), B2))
    e = ge.decompose(f)
    text = ge.format_genexpr(e)
    assert set(text.replace("(", " ").replace(")", " ").replace(",", " ").split()) <= {
        "comp", "tensor", "pair", "pairat", "id", "proj", "eps", "eta",
        "plus", "l", "c", "ghat", "k", "W", "2W", "3W", "W^2", "W^3",
        "1", "2", "3", "*", "@",
    }
    assert ge.evaluate(e, B2) == f


def _nodes(e):
    """The distinct nodes of the expression DAG rooted at ``e``."""
    seen = {e}
    todo = [e]
    while todo:
        x = todo.pop()
        for attr in ("e1", "e2", "outer", "inner"):
            child = getattr(x, attr, None)
            if child is not None and child not in seen:
                seen.add(child)
                todo.append(child)
    return seen


def test_trace_replay():
    src = wa.algebra_of(ct.n_tensor(2), B2)
    tgt = wa.algebra_of(ct.n_join(2), B2)
    for f in enumerate_hom(src, tgt):
        e = ge.decompose(f)
        assert ge.evaluate(e, B2) == f
        nodes = _nodes(e)
        assert {type(x) for x in nodes} <= {ge._Leaf, ge.Id, ge.Proj, ge.Tensor, ge.Compose, ge.Pair}
        assert {x.name for x in nodes if isinstance(x, ge._Leaf)} <= {"eps", "eta", "plus", "l", "c"}


def test_trace_records_coefficient_step():
    w_nat = wa.algebra_of(ct.W, NAT)
    f = mor.make(w_nat, w_nat, [{1: 2}])
    e = ge.decompose(f)
    assert ge.Ghat(2) in _nodes(e)
    assert ge.evaluate(e, NAT) == f


def test_trace_is_full_after_untraced_decompose():
    # the target splits at its product into W (x) W and W (x) W (x) W; each
    # half lifts through the slot tensor and is recombined by plus towers
    w_nat = wa.algebra_of(ct.W, NAT)
    f = mor.make(w_nat, wa.algebra_of(ct.tensor(ct.W, ct.join(ct.W, ct.n_tensor(2))), NAT),
                 [{0b0011: 2, 0b1101: 3}])
    e = ge.decompose(f)
    assert {x for x in _nodes(e) if isinstance(x, ge.Ghat)} == {ge.Ghat(2), ge.Ghat(3)}
    assert isinstance(e, ge.Pair) and (e.at, e.k1, e.k2) == (2, 1, 2)
    for half, counts in ((e.e1, (1, 1)), (e.e2, (1, 1, 1))):
        assert isinstance(half, ge.Compose) and half.outer is ge.recombiner_expr(counts)
    assert ge.decompose(f) is e
    assert ge.evaluate(e, NAT) == f


def test_trace_logs_repeated_sub_map_each_time():
    # both tensor factors of the identity on W (x) W restrict to the same
    # map W -> W, whose decomposition is one shared node
    f = mor.make(WW, WW, [{1: 1}, {2: 1}])
    e = ge.decompose(f)
    assert ge.format_genexpr(e) == (
        "comp(tensor(id(W), id(W)), tensor(comp(id(W), id(W)), comp(id(W), id(W))))")
    assert e.inner.e1 is e.inner.e2 is ge.Compose(ge.Id(ct.W), ge.Id(ct.W))


def test_decompose_reads_the_same_node_from_a_cold_memo():
    # decompose every map with a warm memo, then each again, in reverse
    # order, with the sub-map memo emptied first
    src = wa.algebra_of(ct.n_tensor(2), B2)
    maps = [f for tgt in (ct.n_join(2), ct.join(ct.W, ct.n_tensor(2)))
            for f in enumerate_hom(src, wa.algebra_of(tgt, B2))]
    assert len(maps) == 16 + 144
    warm = [ge.decompose(f) for f in maps]
    for f, e in reversed(list(zip(maps, warm))):
        ge._MEMO.clear()
        assert ge.decompose(f) is e


def test_expand_ghat_keeps_pairat_block_sizes():
    # pairat with k2 > 1 needs a target with four generators
    w_nat = wa.algebra_of(ct.W, NAT)
    tgt = wa.algebra_of(ct.tensor(ct.W, ct.join(ct.W, ct.n_tensor(2))), NAT)
    f = mor.make(w_nat, tgt, [{0b0011: 2, 0b1101: 3}])
    e = ge.decompose(f)
    assert "pairat(2, 1, 2, " in ge.format_genexpr(e)
    expanded = ge.expand_ghat(e)
    assert "ghat" not in ge.format_genexpr(expanded)
    assert ge.evaluate(expanded, NAT) == f


def test_expand_ghat_of_zero_is_the_zero_map():
    # ghat(0) expands to eta . eps, the zero map W -> W
    w_nat = wa.algebra_of(ct.W, NAT)
    expanded = ge.expand_ghat(ge.Ghat(0))
    assert expanded is ge.Compose(ge.Eta, ge.Eps)
    assert ge.evaluate(expanded, NAT) == ge.evaluate(ge.Ghat(0), NAT) == mor.zero_map(w_nat, w_nat)


def test_expand_ghat_visits_shared_nodes_once():
    # 60 nested comp(e, e) over ghat(1) is a 61-node DAG with 2^60 paths;
    # a fresh process, so that a tree walk fails the test instead of stalling it
    src = os.path.dirname(os.path.dirname(ge.__file__))
    code = (
        "from weil1 import genexpr as ge\n"
        "from weil1.rig import Rig\n"
        "e = ge.Ghat(1)\n"
        "for _ in range(60):\n"
        "    e = ge.Compose(e, e)\n"
        "assert ge.evaluate(ge.expand_ghat(e), Rig.NAT) == ge.evaluate(e, Rig.NAT)\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=5, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr


def test_nodes_are_interned():
    a, b = ge.Id(ct.W), ge.Compose(ge.Eta, ge.Eps)
    assert ge.Pair(a, b) is ge.Pair(a, b, 0, 1, 1)
    assert ge.Pair(a, b) is not ge.Pair(a, b, 1, 1, 1)
    assert ge.Id(ct.n_join(2)) is ge.Id(ct.join(ct.W, ct.W))
    f = mor.make(WW, wa.algebra_of(ct.n_tensor(3), B2), [{0b011: 1, 0b110: 1}, {0b001: 1}])
    e = ge.decompose(f)
    assert ge.decompose(f) is e


def test_plain_pair_prints_and_parses_to_one_node():
    # at 0 the block sizes are not printed, so the node stores them as 1
    for k1, k2 in ((1, 1), (5, 7), (0, 3)):
        e = parse_genexpr(f"pairat(0, {k1}, {k2}, id(W), eps)")
        assert ge.format_genexpr(e) == "pair(id(W), eps)"
        assert parse_genexpr(ge.format_genexpr(e)) is e
        assert e is ge.Pair(ge.Id(ct.W), ge.Eps, 0, k1, k2) is ge.Pair(ge.Id(ct.W), ge.Eps)


def test_round_trip_caches_share_one_tuple_per_image():
    # a fresh process, so that the caches hold exactly one hom-set's round trip
    src = os.path.dirname(os.path.dirname(ge.__file__))
    code = (
        "from weil1 import cotree as ct, genexpr as ge\n"
        "from weil1.rig import Rig\n"
        "from weil1.verify import enumerate_hom\n"
        "for f in enumerate_hom(ct.n_tensor(3), ct.join(ct.W, ct.n_tensor(2))):\n"
        "    assert ge.evaluate(ge.decompose(f), Rig.BOOL2) == f\n"
        "images = [t for c in ge._EVAL_CACHE.values() for f in c.values() for t in f.raw]\n"
        "images += [t for memo in ge._MEMO.values() for raw in memo for t in raw]\n"
        "print(len(images), len({id(t) for t in images}), len(set(images)))\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    reached, objects, values = map(int, proc.stdout.split())
    assert reached > 10 * values, proc.stdout
    assert objects == values, f"{objects} image tuples hold {values} distinct images"


def test_perm_network():
    rnd = random.Random(5)
    for r in range(2, 6):
        perms = list(itertools.permutations(range(1, r + 1)))
        sample = perms if len(perms) <= 24 else rnd.sample(perms, 24)
        for perm in sample:
            obj = wa.algebra_of(ct.n_tensor(r), B2)
            expected = mor.make(
                obj, obj, [{1 << (perm[i] - 1): 1} for i in range(r)], check=True
            )
            net = ge.perm_network(perm)
            if net is None:
                assert expected == mor.identity(obj)
            else:
                assert ge.evaluate(net, B2) == expected


def test_serialization_round_trip():
    exprs = [
        ge.L,
        ge.Compose(ge.Tensor(ge.Id(ct.W), ge.L), ge.L),
        ge.Pair(ge.Id(ct.W), ge.Compose(ge.Eta, ge.Eps)),
        ge.Pair(ge.Tensor(ge.L, ge.Eps), ge.Tensor(ge.L, ge.Eps), 2, 1, 1),
        ge.Ghat(4),
        ge.Proj(ct.join(ct.W, ct.n_tensor(2)), 2),
    ]
    src = wa.algebra_of(ct.n_tensor(2), B2)
    tgt = wa.algebra_of(ct.n_tensor(3), B2)
    exprs.append(ge.decompose(mor.make(src, tgt, [{0b011: 1, 0b110: 1}, {0b001: 1, 0b101: 1}])))
    for f in _random_nat_morphisms(10, seed=3):
        exprs.append(ge.decompose(f))
    for e in exprs:
        text = ge.format_genexpr(e)
        assert parse_genexpr(text) == e
        assert ge.format_genexpr(parse_genexpr(text)) == text


def test_eta_eps_expressions():
    for tree in canonical_objects(3):
        eta = ge.evaluate(ge.eta_expr(tree), B2)
        assert eta.source.cotree == ct.K and eta.target.cotree == tree
        eps = ge.evaluate(ge.eps_expr(tree), B2)
        assert eps.source.cotree == tree and eps.target.cotree == ct.K


def test_plus_expr_tower():
    for m in range(5):
        f = ge.evaluate(ge.plus_expr(m), NAT)
        assert f.target.cotree == ct.W
        assert f.source.cotree == ct.n_join(m)
        for i in range(1, m + 1):
            assert f.image(i) == wa.poly(wa.algebra_of(ct.W, NAT), {1: 1})


def _draw_images(rnd, a, b):
    """Images of a random {0,1} morphism a -> b: a kappa vertex of b per
    generator, backtracking over the candidates in a shuffled order until
    the images of every edge of a multiply to zero."""
    cands = [dict(terms) for terms in kappa_candidates(b.cotree)]
    earlier = [[] for _ in range(a.n)]
    for u, v in a.graph.edges:
        earlier[v - 1].append(u - 1)
    choice = []

    def extend(i):
        if i == a.n:
            return True
        order = list(range(len(cands)))
        rnd.shuffle(order)
        for c in order:
            if all(not wa.dict_mul(cands[choice[j]], cands[c], b) for j in earlier[i]):
                choice.append(c)
                if extend(i + 1):
                    return True
                choice.pop()
        return False

    assert extend(0)
    return [cands[c] for c in choice]


def test_four_vertex_morphisms_differential():
    """Seeded morphisms from every object with at most 4 vertices into every
    4-vertex object, one per pair, where the exhaustive sweeps stop at 3:
    decompose/evaluate over both rigs, expand_ghat on a nat lift with
    coefficients 1-3, the Kleisli round trip, and Kleisli composition with
    a map into an object of at most 3 vertices against compose."""
    objs = canonical_objects(4)
    targets = [t for t in objs if ct.leaves(t) == 4]
    small = [t for t in objs if ct.leaves(t) <= 3]
    rnd = random.Random(1605)
    for a_tree, b_tree in itertools.product(objs, targets):
        a, b = wa.algebra_of(a_tree, B2), wa.algebra_of(b_tree, B2)
        f = mor.make(a, b, _draw_images(rnd, a, b), check=True)
        assert ge.evaluate(ge.decompose(f), B2) == f, f
        g = mor.make(wa.algebra_of(a_tree, NAT), wa.algebra_of(b_tree, NAT),
                     [{mask: rnd.randint(1, 3) for mask in d} for d in f.image_dicts()],
                     check=True)
        e = ge.decompose(g)
        assert ge.evaluate(e, NAT) == g, g
        assert ge.evaluate(ge.expand_ghat(e), NAT) == g, g
        km = mor.to_kleisli(f)
        assert mor.from_kleisli(km, a, b) == f, f
        c = wa.algebra_of(rnd.choice(small), B2)
        h = mor.make(b, c, _draw_images(rnd, b, c), check=True)
        assert mor.kleisli_compose(mor.to_kleisli(h), km) == mor.to_kleisli(mor.compose(h, f)), (f, h)
