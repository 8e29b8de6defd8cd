import itertools

import pytest

from weil1.rig import Rig
from weil1 import cotree as ct
from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import weilalg as wa
from weil1.verify import canonical_objects, enumerate_hom


B2, NAT = Rig.BOOL2, Rig.NAT
W = wa.algebra_of(ct.W, B2)
WW = wa.algebra_of(ct.n_tensor(2), B2)
WWW = wa.algebra_of(ct.n_tensor(3), B2)
W2 = wa.algebra_of(ct.n_join(2), B2)
K = wa.algebra_of(ct.K, B2)
GENS = mor.generators(B2)


def test_validate_two_generator_example():
    f = mor.validate(WW, WWW, [{0b011: 1, 0b110: 1}, {0b001: 1, 0b101: 1}])
    assert f.image(1).terms == ((0b011, 1), (0b110, 1))


def test_validate_rejects_disjoint_circles_same_generator():
    with pytest.raises(mor.RelationViolation) as err:
        mor.validate(W, WW, [{0b01: 1, 0b10: 1}])
    assert (err.value.i, err.value.j) == (1, 1)
    assert err.value.witness == wa.poly(WW, {0b11: 1})
    # over NAT the witness keeps its coefficient 2
    w_nat = wa.algebra_of(ct.W, NAT)
    ww_nat = wa.algebra_of(ct.n_tensor(2), NAT)
    with pytest.raises(mor.RelationViolation) as err:
        mor.validate(w_nat, ww_nat, [{0b01: 1, 0b10: 1}])
    assert err.value.witness == wa.poly(ww_nat, {0b11: 2})


def test_validate_zero_map_to_base():
    f = mor.validate(W, K, [{}])
    assert f.is_zero_map()


def test_validate_edge_condition():
    # x1, x2 joined in the source must have annihilating images
    with pytest.raises(mor.RelationViolation) as err:
        mor.validate(W2, WW, [{0b01: 1}, {0b10: 1}])
    assert (err.value.i, err.value.j) == (1, 2)
    mor.validate(W2, WW, [{0b01: 1}, {0b01: 1}])  # shared vertex: fine


def test_compose_lift_ladder():
    l = GENS["l_W"]
    wl = mor.tensor_mor(mor.identity(W), l)
    comp = mor.compose(wl, l)
    assert comp.source == W and comp.target == WWW
    assert comp.image(1) == wa.poly(WWW, {0b111: 1})


def test_compose_identity_laws():
    f = mor.validate(WW, WWW, [{0b011: 1, 0b110: 1}, {0b001: 1, 0b101: 1}])
    assert mor.compose(mor.identity(WWW), f) == f
    assert mor.compose(f, mor.identity(WW)) == f


def test_compose_fold_after_lift_is_zero():
    # the map 2W -> W sending both generators to x, after the lift
    fold = mor.validate(WW, W, [{1: 1}, {1: 1}])
    z = mor.compose(fold, GENS["l_W"])
    assert z.is_zero_map()


def test_compose_type_mismatch():
    with pytest.raises(mor.TypeMismatch):
        mor.compose(GENS["plus_W"], GENS["l_W"])  # 2W vs W^2


def test_projection_examples():
    p1 = mor.projection(W2, 1)
    assert p1.image(1) == wa.poly(W, {1: 1}) and p1.image(2).is_zero()
    p2 = mor.projection(W2, 2)
    assert p2.image(1).is_zero() and p2.image(2) == wa.poly(W, {1: 1})
    with pytest.raises(mor.TypeMismatch):
        mor.projection(WW, 1)


def test_pair_diagonal():
    delta = mor.pair(mor.identity(W), mor.identity(W))
    assert delta.target == W2
    assert delta.image(1) == wa.poly(W2, {0b01: 1, 0b10: 1})


def test_tensor_kills_one_side():
    t = mor.tensor_mor(mor.eps(W), mor.identity(W))
    assert t.source == WW and t.target == W
    assert t.image(1).is_zero() and t.image(2) == wa.poly(W, {1: 1})


def test_generator_images():
    assert GENS["plus_W"].image(1) == wa.poly(W, {1: 1})
    assert GENS["plus_W"].image(2) == wa.poly(W, {1: 1})
    assert GENS["l_W"].image(1) == wa.poly(WW, {0b11: 1})
    assert GENS["c_W"].image(1) == wa.poly(WW, {0b10: 1})
    assert GENS["c_W"].image(2) == wa.poly(WW, {0b01: 1})
    assert GENS["eta_W"].source == K and GENS["eta_W"].images == ()
    assert GENS["eps_W"].target == K and GENS["eps_W"].image(1).is_zero()


def test_flip_involution():
    c = GENS["c_W"]
    assert mor.compose(c, c) == mor.identity(WW)


@pytest.mark.parametrize("r", range(6))
def test_ghat(r):
    g = mor.ghat(r, NAT)
    w_nat = wa.algebra_of(ct.W, NAT)
    assert g.source == w_nat and g.target == w_nat
    assert g.image(1) == wa.poly(w_nat, {1: r})


def test_ghat_bool2_collapses():
    for r in (1, 2, 5):
        assert mor.ghat(r, B2) == mor.identity(W)
    assert mor.ghat(0, B2).is_zero_map()


def test_pair_into_context():
    # lift of (l . pi1, l . pi2) into W (x) W^2 over the base W
    l = GENS["l_W"]
    pi1, pi2 = mor.projection(W2, 1), mor.projection(W2, 2)
    lam = mor.pair_into(mor.compose(l, pi1), mor.compose(l, pi2), at=2)
    assert lam.target.cotree == ct.tensor(ct.W, ct.n_join(2))
    assert lam.image(1) == wa.poly(lam.target, {0b011: 1})
    assert lam.image(2) == wa.poly(lam.target, {0b101: 1})


def test_pair_into_incompatible():
    # shared-context parts disagree: no pairing exists
    f1 = mor.validate(W, WW, [{0b01: 1}])   # x -> y1 (the context part)
    f2 = mor.validate(W, WW, [{}])
    with pytest.raises(mor.TypeMismatch):
        mor.pair_into(f1, f2, at=2)


def test_compose_restriction_matches_compose():
    # the table remap agrees with substitution for both context projections,
    # including monomials that a projection kills
    target = wa.algebra_of(ct.tensor(ct.W, ct.join(ct.W, ct.n_tensor(2))), B2)
    t1 = wa.algebra_of(ct.n_tensor(2), B2)
    t2 = wa.algebra_of(ct.n_tensor(3), B2)
    projs = mor.pair_projections(target, 2, t1, t2, 1, 2)
    assert mor.restriction_gen_map(projs[1]) == (0b001, 0, 0b010, 0b100)
    assert mor.remap_mask(0b1101, mor.restriction_gen_map(projs[1])) == 0b111
    assert mor.remap_mask(0b0011, mor.restriction_gen_map(projs[1])) == 0
    for src in (W, W2):
        for f in enumerate_hom(src, target):
            for p, t in zip(projs, (t1, t2)):
                assert mor.compose_restriction(mor.restriction_gen_map(p), t, f) == mor.compose(p, f)


def test_composition_associative_and_unital_small():
    objs = [wa.algebra_of(t, B2) for t in canonical_objects(2)]
    homs = {}
    for a, b in itertools.product(objs, repeat=2):
        homs[a, b] = enumerate_hom(a, b).morphisms
    total = 0
    for a, b, c, d in itertools.product(objs, repeat=4):
        for f in homs[a, b]:
            for g in homs[b, c]:
                gf = mor.compose(g, f)
                for h in homs[c, d]:
                    total += 1
                    assert mor.compose(h, gf) == mor.compose(mor.compose(h, g), f)
    assert total > 100_000
    for a, b in itertools.product(objs, repeat=2):
        for f in homs[a, b]:
            assert mor.compose(f, mor.identity(a)) == f
            assert mor.compose(mor.identity(b), f) == f


def test_composition_preserves_validity():
    objs = [wa.algebra_of(t, B2) for t in canonical_objects(2)]
    for a, b in itertools.product(objs, repeat=2):
        for f in enumerate_hom(a, b):
            for g in enumerate_hom(b, wa.algebra_of(ct.n_join(2), B2)):
                mor.compose(g, f, check=True)  # raises on violation


# ---------------------------------------------------------------------------
# Kleisli correspondence

def test_to_kleisli_two_circle_example():
    f = mor.validate(W, WWW, [{0b011: 1, 0b101: 1}])
    km = mor.to_kleisli(f)
    assert km.assignment == ((0b011, 0b101),)


def test_to_kleisli_zero_image_is_empty_clique():
    z = mor.zero_map(W, WW)
    assert mor.to_kleisli(z).assignment == ((),)


def test_kleisli_round_trip_hom_w_2w():
    hom = enumerate_hom(W, WW)
    assert len(hom) == 6
    for f in hom:
        km = mor.to_kleisli(f)
        assert mor.from_kleisli(km, W, WW) == f


def test_to_kleisli_nat_guard():
    w_nat = wa.algebra_of(ct.W, NAT)
    f = mor.make(w_nat, w_nat, [{1: 2}])
    with pytest.raises(mor.RigMismatch):
        mor.to_kleisli(f)
    g = mor.make(w_nat, w_nat, [{1: 1}])
    assert mor.to_kleisli(g).assignment == ((1,),)


def test_kleisli_composition_matches_algebra():
    objs = [wa.algebra_of(t, B2) for t in canonical_objects(2)]
    for a, b, c in itertools.product(objs, repeat=3):
        for f in enumerate_hom(a, b):
            for g in enumerate_hom(b, c):
                direct = mor.to_kleisli(mor.compose(g, f))
                graph_level = mor.kleisli_compose(mor.to_kleisli(g), mor.to_kleisli(f))
                assert direct == graph_level


def test_kleisli_category_laws():
    objs = [wa.algebra_of(t, B2) for t in canonical_objects(2)]
    for a, b in itertools.product(objs, repeat=2):
        for f in enumerate_hom(a, b):
            km = mor.to_kleisli(f)
            assert mor.kleisli_compose(km, mor.kleisli_identity(a.graph)) == km
            assert mor.kleisli_compose(mor.kleisli_identity(b.graph), km) == km


def test_nat_lift_project():
    f = mor.validate(WW, WWW, [{0b011: 1, 0b110: 1}, {0b001: 1, 0b101: 1}])
    lifted = mor.lift_to_nat(f)
    assert lifted.rig is NAT
    assert mor.project_to_bool2(lifted) == f


@pytest.mark.parametrize("rig", [B2, NAT])
def test_public_order_is_size_lex_on_every_route(rig):
    # x |-> y3 + y1 y2 into W @ W^2 (edge 2-3): integer order would put
    # y1 y2 (0b011) before y3 (0b100); the public order puts the smaller set first
    c3, c12 = (1, 1) if rig is B2 else (2, 3)
    src = wa.algebra_of(ct.W, rig)
    tgt = wa.algebra_of(ct.tensor(ct.W, ct.n_join(2)), rig)
    want = ((0b100, c3), (0b011, c12))
    made = mor.make(src, tgt, [{0b011: c12, 0b100: c3}])
    p1, p2 = mor.pair_projections(tgt, 2, wa.algebra_of(ct.n_tensor(2), rig),
                                  wa.algebra_of(ct.n_tensor(2), rig))
    routes = {
        "make from Polynomial": mor.make(src, tgt, [wa.poly(tgt, dict(want))]),
        "compose": mor.compose(mor.identity(tgt), made),
        "pair_into": mor.pair_into(mor.compose(p1, made), mor.compose(p2, made), at=2),
        "evaluate(decompose)": ge.evaluate(ge.decompose(made), rig),
    }
    assert made.image(1).terms == want
    assert wa.format_poly(made.image(1)) == ("y3 + y1 y2" if rig is B2 else "2 y3 + 3 y1 y2")
    for route, f in routes.items():
        assert f.image(1).terms == want, route
        assert f.images == made.images, route
        assert f == made and hash(f) == hash(made), route
