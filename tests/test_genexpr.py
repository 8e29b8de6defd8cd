import itertools
import random

import pytest

from weil1.rig import Rig
from weil1 import cotree as ct
from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import weilalg as wa
from weil1.dsl import parse_genexpr
from weil1.verify import canonical_objects, enumerate_hom


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
    f = mor.validate(W, target, [{0b01101: 1}])
    e = ge.decompose_one_circle(f)
    assert ge.evaluate(e, B2) == f
    # x -> x2 comes out as (eta (x) W) . id
    g = mor.validate(W, WW, [{0b10: 1}])
    e2 = ge.decompose_one_circle(g)
    assert e2 == ge.Compose(ge.Tensor(ge.Eta, ge.Id(ct.W)), ge.Id(ct.W))
    assert ge.evaluate(e2, B2) == g
    # the lift itself evaluates back to l
    e3 = ge.decompose_one_circle(GENS["l_W"])
    assert ge.evaluate(e3, B2) == GENS["l_W"]


def test_choice_rule_slot_example():
    # x1 -> y1y2 + y1y3, x2 -> y2y3 lifts into W^2 (x) W^2 (x) W^2 with every
    # slot used once: x1 -> y1 y3 + y2 y5, x2 -> y4 y6
    src = wa.algebra_of(ct.n_tensor(2), B2)
    tgt = wa.algebra_of(ct.n_tensor(3), B2)
    f = mor.validate(src, tgt, [{0b011: 1, 0b101: 1}, {0b110: 1}])
    assignment = ge.choice_rule(f)
    assert assignment.counts == (2, 2, 2)
    lifted = assignment.lift()
    assert lifted.target.cotree == ct.tensor(ct.n_join(2), ct.n_join(2), ct.n_join(2))
    assert lifted.image(1) == wa.poly(lifted.target, {0b000101: 1, 0b010010: 1})
    assert lifted.image(2) == wa.poly(lifted.target, {0b101000: 1})
    recombined = mor.compose(ge.evaluate(ge._recombiner_expr(assignment.counts), B2), lifted)
    assert recombined == f


def test_choice_rule_one_circle_is_trivial():
    f = mor.validate(W, WW, [{0b11: 1}])
    assignment = ge.choice_rule(f)
    assert assignment.counts == (1, 1)
    assert assignment.lift() == f


def test_choice_rule_zero_map():
    z = mor.zero_map(W, WW)
    assignment = ge.choice_rule(z)
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
        hom = enumerate_hom(a, b).morphisms
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
    f1 = mor.validate(src, tgt, [{0b011: 1, 0b110: 1}, {0b001: 1, 0b101: 1}])
    f2 = mor.validate(src, tgt, [{0b110: 1, 0b011: 1}, {0b101: 1, 0b001: 1}])
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


def test_trace_replay():
    src = wa.algebra_of(ct.n_tensor(2), B2)
    tgt = wa.algebra_of(ct.n_join(2), B2)
    for f in enumerate_hom(src, tgt):
        e, trace = ge.decompose_with_trace(f)
        assert trace.replay() == e
        assert e == ge.decompose(f)
        tags = {tag for tag, _ in trace.steps}
        assert tags <= {"OneCircle", "SplitCircles", "Projection", "NoIntersect",
                        "SplitGeneral", "PullbackTarget", "Coefficient"}
        for _, sub in trace.steps:
            assert _contains(e, sub)


def _contains(root, sub):
    if root == sub:
        return True
    for attr in ("e1", "e2", "outer", "inner"):
        child = getattr(root, attr, None)
        if child is not None and _contains(child, sub):
            return True
    return False


def test_trace_records_coefficient_step():
    w_nat = wa.algebra_of(ct.W, NAT)
    f = mor.make(w_nat, w_nat, [{1: 2}])
    _, trace = ge.decompose_with_trace(f)
    assert any(tag == "Coefficient" for tag, _ in trace.steps)


def test_trace_is_full_after_untraced_decompose():
    # decompose memoises sub-maps; a later traced run must still log them
    w_nat = wa.algebra_of(ct.W, NAT)
    f = mor.make(w_nat, wa.algebra_of(ct.tensor(ct.W, ct.join(ct.W, ct.n_tensor(2))), NAT),
                 [{0b0011: 2, 0b1101: 3}])
    e, first = ge.decompose_with_trace(f)
    assert ge.decompose(f) == e
    again, second = ge.decompose_with_trace(f)
    assert again == e and second == first
    tags = [tag for tag, _ in second.steps]
    assert tags.count("Coefficient") == 2 and "SplitGeneral" in tags


def test_trace_logs_repeated_sub_map_each_time():
    # both tensor factors of the identity on W (x) W restrict to the same
    # map W -> W; the trace logs its decomposition once per occurrence
    f = mor.make(WW, WW, [{1: 1}, {2: 1}])
    ge.decompose(f)
    _, trace = ge.decompose_with_trace(f)
    assert [tag for tag, _ in trace.steps] == ["OneCircle", "OneCircle", "NoIntersect", "SplitGeneral"]
    assert ge.format_genexpr(trace.steps[0][1]) == "comp(id(W), id(W))"


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
    exprs.append(ge.decompose(mor.validate(src, tgt, [{0b011: 1, 0b110: 1}, {0b001: 1, 0b101: 1}])))
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
