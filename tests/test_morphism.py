import itertools
import random

import pytest

from weil1 import rig as rig_mod
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


def test_make_refuses_a_constant_image_by_its_square():
    # the constant survives squaring, so the relation x1^2 = 0 fails
    for rig in (B2, NAT):
        w = wa.algebra_of(ct.W, rig)
        w2 = wa.algebra_of(ct.n_tensor(2), rig)
        img = wa.poly(w2, {0b01: 1}, constant=1)
        with pytest.raises(mor.RelationViolation) as err:
            mor.make(w, w2, [img])
        assert isinstance(err.value, ValueError)  # exit 2 from the CLI
        assert (err.value.i, err.value.j) == (1, 1)
        assert err.value.witness == wa.poly_mul(img, img)
        assert str(err.value).startswith("image of relation x1^2 = 0 is non-zero: 1 + ")


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
    with pytest.raises(mor.TypeMismatch, match="shared context"):
        mor.pair_into(f1, f2, at=2)


def test_compose_restriction_matches_compose():
    # each context projection's splice composes as substitution into the
    # projection does, including on monomials that it kills
    t1 = wa.algebra_of(ct.n_tensor(2), B2)
    t2 = wa.algebra_of(ct.n_tensor(3), B2)
    target, s1, s2 = mor.pair_layout(t1, t2, 2, 1, 2)
    assert target == wa.algebra_of(ct.tensor(ct.W, ct.join(ct.W, ct.n_tensor(2))), B2)
    assert (s1, s2) == (mor.Splice(2, 2), mor.Splice(1, 1))
    assert (s2.project(0b1101), s2.project(0b0011)) == (0b111, 0)
    projs = mor.pair_projections(target, 2, t1, t2, 1, 2)
    for src in (W, W2):
        for f in enumerate_hom(src, target):
            for s, p, t in zip((s1, s2), projs, (t1, t2)):
                assert mor.compose_restriction(s, t, f) == mor.compose(p, f)


@pytest.mark.parametrize("rig", [B2, NAT])
def test_plain_pair_layout_is_the_empty_context_block_pair(rig):
    # at 0 the blocks are the whole targets: the target is their product,
    # the first side's block comes first, and the context is empty
    objs = [wa.algebra_of(t, rig) for t in canonical_objects(2)]
    for o1, o2 in itertools.product(objs, repeat=2):
        t1, t2 = o1.cotree, o2.cotree
        layout = mor.pair_layout(o1, o2, 0)
        assert layout == mor.pair_layout(o1, o2, 1, len(ct.factors(t1)), len(ct.factors(t2)))
        n1, n2 = ct.leaves(t1), ct.leaves(t2)
        want = (wa.algebra_of(ct.join(t1, t2), rig), mor.Splice(n1, n2), mor.Splice(0, n1))
        assert layout == want, (o1, o2)


def _reference_restriction(source, target, gen_map):
    """Oracle: the map sending generator i to generator gen_map[i] (others to
    0), built through make with its relation check."""
    images = [{1 << (gen_map[i] - 1): 1} if i in gen_map else {}
              for i in range(1, source.n + 1)]
    return mor.make(source, target, images, check=True)


def _pair_shapes(o1, o2):
    """Every (at, k1, k2) that could fit the factors of ``o1`` and ``o2``."""
    n1, n2 = len(ct.factors(o1.cotree)), len(ct.factors(o2.cotree))
    return [(0, 1, 1)] + [(at, k1, k2) for at in range(1, min(n1, n2) + 1)
                          for k1 in range(1, n1 - at + 2) for k2 in range(1, n2 - at + 2)]


def _pair_layouts(max_vertices, rig):
    """Every (o1, o2, (at, k1, k2), layout) that pair_layout accepts for
    non-unit objects, with a target of at most max_vertices generators."""
    objs = [wa.algebra_of(t, rig) for t in canonical_objects(max_vertices) if t.kind != "K"]
    for o1, o2 in itertools.product(objs, repeat=2):
        for shape in _pair_shapes(o1, o2):
            try:
                layout = mor.pair_layout(o1, o2, *shape)
            except mor.TypeMismatch:
                continue
            if layout[0].n <= max_vertices:
                yield o1, o2, shape, layout


def _remap(mask, table):
    """Oracle: send a monomial through a generator table, ``table[i]`` the
    target bit of generator i+1 or 0 when it is killed.  The result is 0
    when the monomial contains a killed generator."""
    bits = [table[i] for i in range(mask.bit_length()) if mask >> i & 1]
    return 0 if not all(bits) else sum(bits)


def _table_of(f):
    """Oracle: the generator table of a restriction morphism ``f``."""
    assert all(len(t) <= 1 and all(c == 1 and m & (m - 1) == 0 for m, c in t) for t in f.raw)
    return tuple(t[0][0] if t else 0 for t in f.raw)


def _splice_tables(layout, o1, o2):
    """Oracle: the ``_remap`` tables of a layout's four maps, from each
    side's splice.  The embedding sends the side's generators, in order, to
    the target bits outside the splice's block; the projection inverts it."""
    target = layout[0]
    out = []
    for obj, splice in zip((o1, o2), layout[1:]):
        kept = [j for j in range(target.n) if not splice.at <= j < splice.at + splice.width]
        assert len(kept) == obj.n
        proj = [0] * target.n
        for i, j in enumerate(kept):
            proj[j] = 1 << i
        out.append((tuple(1 << j for j in kept), tuple(proj)))
    return out


@pytest.mark.parametrize("rig", [B2, NAT])
def test_pair_layout_projection_tables_match_checked_restrictions(rig):
    # each splice's projection table is its embedding's inverse, as the
    # checked restriction built from that embedding reads it back
    count = 0
    for o1, o2, (at, k1, k2), layout in _pair_layouts(5, rig):
        target = layout[0]
        tables = _splice_tables(layout, o1, o2)
        refs = []
        for obj, (emb, table) in zip((o1, o2), tables):
            ref = _reference_restriction(
                target, obj, {bit.bit_length(): i + 1 for i, bit in enumerate(emb)})
            assert _table_of(ref) == table, (o1, o2, at, k1, k2)
            refs.append(ref)
        projs = mor.pair_projections(target, at, o1, o2, k1, k2)
        assert projs == tuple(refs), (o1, o2, at, k1, k2)
        assert tuple(map(_table_of, projs)) == tuple(t for _, t in tables)
        count += 1
    assert count == 153


@pytest.mark.parametrize("rig", [B2, NAT])
def test_splices_remap_as_their_tables(rig):
    # on every mask of the source, a projection splice remaps and composes
    # as its table does, and pair_into embeds each side as its embedding
    # table does, in plain integer mask order
    w = wa.algebra_of(ct.W, rig)
    for o1, o2, (at, k1, k2), layout in _pair_layouts(5, rig):
        target = layout[0]
        tables = _splice_tables(layout, o1, o2)
        masks = range(1, 1 << target.n)
        every = mor.Morphism(w, target, (tuple((m, 1) for m in masks),))
        legs = []
        for obj, splice, (_, table) in zip((o1, o2), layout[1:], tables):
            remapped = [_remap(m, table) for m in masks]
            assert [splice.project(m) for m in masks] == remapped
            leg = mor.compose_restriction(splice, obj, every)
            want = tuple((r, 1) for r in sorted(remapped) if r)
            assert leg == mor.Morphism(w, obj, (want,)), (o1, o2, at, k1, k2)
            legs.append(leg)
        # every mask of each leg's target is the image of one of ``every``'s
        assert [len(leg.raw[0]) for leg in legs] == [(1 << o.n) - 1 for o in (o1, o2)]
        paired = mor.pair_into(*legs, at, k1, k2)
        want = {_remap(m, emb) for leg, (emb, _) in zip(legs, tables) for m, _ in leg.raw[0]}
        assert paired.raw == (tuple((m, 1) for m in sorted(want)),), (o1, o2, at, k1, k2)


@pytest.mark.parametrize("rig", [B2, NAT])
def test_projection_matches_checked_restriction(rig):
    products = [t for t in canonical_objects(4) if t.kind == "join"]
    assert len(products) == 8
    for t in products:
        prod = wa.algebra_of(t, rig)
        left, right = t.parts[0], ct.join(*t.parts[1:])
        for side, kept, offset in ((1, left, 0), (2, right, ct.leaves(left))):
            gen_map = {offset + j + 1: j + 1 for j in range(ct.leaves(kept))}
            ref = _reference_restriction(prod, wa.algebra_of(kept, rig), gen_map)
            assert mor.projection(prod, side) == ref, (t, side)


def test_composition_associative_and_unital_small():
    objs = [wa.algebra_of(t, B2) for t in canonical_objects(2)]
    homs = {}
    for a, b in itertools.product(objs, repeat=2):
        homs[a, b] = enumerate_hom(a, b)
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


def reference_compose(g, f):
    # substitution one generator at a time, with the partial product started
    # at the constant 1 and each term rescaled on its own
    rig = f.rig
    tgt = g.target
    g_dicts = g.image_dicts()

    def subst_step(acc, nxt):
        if 0 in acc and len(acc) == 1:
            return {k: rig_mod.mul(acc[0], v, rig) for k, v in nxt.items()}
        return wa.dict_mul(acc, nxt, tgt)

    images = []
    for terms in f.raw:
        acc = {}
        for mask, coeff in terms:
            term = {0: 1}
            m = mask
            while m and term:
                bit = m & -m
                term = subst_step(term, g_dicts[bit.bit_length() - 1])
                m ^= bit
            for k, c in term.items():
                acc[k] = rig_mod.add(acc.get(k, 0), rig_mod.mul(coeff, c, rig), rig)
        images.append(acc)
    return mor.make(f.source, tgt, images)


def _composable_pairs():
    """Every composable (g, f) between objects with at most 2 vertices,
    over bool2, their nat lifts, and seeded nat lifts with coefficients 1-3."""
    rnd = random.Random(3)
    objs = canonical_objects(2)
    homs = {(a, b): enumerate_hom(a, b) for a in objs for b in objs}

    def reweighted(h):
        return mor.make(h.source, h.target,
                        [{m: rnd.randint(1, 3) for m, _ in t} for t in h.raw])

    for a, b, c in itertools.product(objs, repeat=3):
        for rig in (B2, NAT):
            fs, gs = homs[a, b], homs[b, c]
            if rig is NAT:
                fs = [mor.lift_to_nat(f) for f in fs]
                gs = [mor.lift_to_nat(g) for g in gs]
                fs += [reweighted(f) for f in fs]
                gs += [reweighted(g) for g in gs]
            for f in fs:
                for g in gs:
                    yield g, f


def test_compose_matches_reference():
    pairs = 0
    for g, f in _composable_pairs():
        assert mor.compose(g, f) == reference_compose(g, f), (g, f)
        pairs += 1
    assert pairs > 10_000


def test_composition_preserves_validity():
    # compose runs no relation check of its own; this is its oracle
    for g, f in _composable_pairs():
        mor._check_relations(mor.compose(g, f))  # raises on violation


def test_pair_into_is_valid_and_projects_back():
    # pair_into runs no relation or re-projection check of its own; this is
    # its oracle, over every layout of two targets with at most 2 vertices
    # and every pair of legs out of a source with at most 2 vertices.  A
    # pair is refused only when the legs disagree over the shared context.
    # s2 kills the first side's block, so on a map into t1 it keeps the
    # context part; Splice(s2.at, s1.width) kills the second side's in t2
    objs = [wa.algebra_of(t, B2) for t in canonical_objects(2)]
    layouts = paired = refused = 0
    for t1, t2 in itertools.product(objs, repeat=2):
        for at, k1, k2 in _pair_shapes(t1, t2):
            try:
                _, s1, s2 = mor.pair_layout(t1, t2, at, k1, k2)
            except mor.TypeMismatch:
                continue
            layouts += 1
            ctx2 = mor.Splice(s2.at, s1.width)
            for a in objs:
                for f1, f2 in itertools.product(enumerate_hom(a, t1), enumerate_hom(a, t2)):
                    agree = (mor.compose_restriction(s2, t1, f1).raw
                             == mor.compose_restriction(ctx2, t1, f2).raw)
                    try:
                        u = mor.pair_into(f1, f2, at, k1, k2)
                    except mor.TypeMismatch as exc:
                        assert "shared context" in str(exc) and not agree, (f1, f2, at)
                        refused += 1
                        continue
                    assert agree, (f1, f2, at)
                    mor._check_relations(u)
                    assert mor.compose_restriction(s1, t1, u) == f1, (f1, f2, at)
                    assert mor.compose_restriction(s2, t2, u) == f2, (f1, f2, at)
                    paired += 1
    assert (layouts, paired, refused) == (34, 13_120, 2_784)


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


def assert_interned(f, route):
    # an equal copy interns to the stored tuple, so ``t`` must be that tuple
    for t in f.raw:
        assert wa.intern_image(tuple(list(t))) is t, route


@pytest.mark.parametrize("rig", [B2, NAT])
def test_images_are_interned_on_every_route(rig):
    c = 1 if rig is B2 else 2
    w, ww = wa.algebra_of(ct.W, rig), wa.algebra_of(ct.n_tensor(2), rig)
    www = wa.algebra_of(ct.n_tensor(3), rig)
    ctx = wa.algebra_of(ct.tensor(ct.W, ct.n_join(2)), rig)
    made = mor.make(w, www, [{0b101: c}])
    p1, _ = mor.pair_projections(ctx, 2, ww, ww)
    both = mor.make(w, ww, [{0b11: c}])
    lifted = ge.SlotAssignment(mor.make(ww, ww, [{0b01: c, 0b11: 1}, {0b10: 1}])).lift()
    routes = {
        "make from dict": made,
        "make from Polynomial": mor.make(w, www, [made.image(1)]),
        "compose": mor.compose(mor.identity(www), made),
        "tensor_mor": mor.tensor_mor(made, made),
        "compose_restriction, splice": p1,
        "genexpr._restrict": ge._restrict(made, ct.W, made.raw, (1, 3)),
        "pair_into": mor.pair_into(both, both, at=2),
        "identity": mor.identity(ctx),
        "SlotAssignment.lift": lifted,
    }
    if rig is B2:
        routes["enumerate_hom"] = enumerate_hom(ct.n_tensor(2), ct.n_join(2))[-1]
    for route, f in routes.items():
        assert any(f.raw), route
        assert_interned(f, route)
        twin = mor.Morphism(f.source, f.target, tuple(tuple(list(t)) for t in f.raw))
        assert any(a is not b for a, b in zip(twin.raw, f.raw) if a), route
        assert twin == f and hash(twin) == hash(f), route
        assert twin.images == f.images and repr(twin) == repr(f), route
