import copy
import itertools
import os
import pickle
import random
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weil1 import rig as rig_mod
from weil1.rig import Rig
from weil1 import cograph as cg
from weil1 import cotree as ct
from weil1 import verify as vf
from weil1 import weilalg as wa


B2, NAT = Rig.BOOL2, Rig.NAT


def obj(tree, rig=B2):
    return wa.algebra_of(tree, rig)


def test_algebra_of_examples():
    assert wa.presentation(obj(ct.n_tensor(2))) == "k[x1,x2]/x1^2,x2^2"
    assert wa.presentation(obj(ct.n_join(2))) == "k[x1,x2]/x1^2,x2^2,x1x2"
    assert wa.presentation(obj(ct.K)) == "k[]"
    assert wa.presentation(obj(ct.join(ct.W, ct.n_tensor(2)))) == \
        "k[x1,x2,x3]/x1^2,x2^2,x3^2,x1x2,x1x3"
    assert wa.presentation(obj(ct.tensor(ct.n_join(2), ct.W))) == \
        "k[x1,x2,x3]/x1^2,x2^2,x3^2,x1x2"
    assert wa.presentation(obj(ct.n_join(3))) == \
        "k[x1,x2,x3]/x1^2,x2^2,x3^2,x1x2,x1x3,x2x3"


def test_product_coproduct():
    w = obj(ct.W)
    k = obj(ct.K)
    assert wa.product(w, w).cotree == ct.n_join(2)
    assert wa.coproduct(w, w).cotree == ct.n_tensor(2)
    assert wa.product(k, w) == w
    assert wa.coproduct(k, w) == w
    w2 = obj(ct.n_join(2))
    assert wa.coproduct(w2, w).cotree == ct.tensor(ct.n_join(2), ct.W)


def test_product_coproduct_realize_graph_operations():
    from weil1 import cograph as cg

    trees = []
    for n in range(4):
        trees.extend(t for t in _all_cotrees(n))
    for s, t in itertools.product(trees, repeat=2):
        a, b = obj(s), obj(t)
        assert wa.coproduct(a, b).graph == cg.disjoint_union(a.graph, b.graph)
        assert wa.product(a, b).graph == cg.join(a.graph, b.graph)


def _all_cotrees(n_vertices):
    from weil1.verify import canonical_objects

    return [t for t in canonical_objects(n_vertices) if ct.leaves(t) == n_vertices]


def test_mono_mul_examples():
    two = obj(ct.n_tensor(2))
    wsq = obj(ct.n_join(2))
    assert wa.mono_mul(0b01, 0b10, two) == 0b11
    assert wa.mono_mul(0b01, 0b10, wsq) == 0
    assert wa.mono_mul(0b01, 0b01, two) == 0


def test_poly_add_idempotent_coefficient():
    two = obj(ct.n_tensor(2))
    p = wa.poly(two, {0b01: 1, 0b11: 1})
    q = wa.poly(two, {0b01: 1})
    assert wa.poly_add(p, q) == p  # 1 + 1 = 1 on the y1 coefficient


def test_poly_square_examples():
    # oracle: expand (y1 + y2)^2 into the four products by hand
    for rig, expected_coeff in ((B2, 1), (NAT, 2)):
        two = obj(ct.n_tensor(2), rig)
        y1, y2 = wa.gen_poly(two, 1), wa.gen_poly(two, 2)
        by_hand = {}
        for u, v in itertools.product([0b01, 0b10], repeat=2):
            prod = wa.mono_mul(u, v, two)
            if prod:
                by_hand[prod] = by_hand.get(prod, 0) + 1
        assert by_hand == {0b11: 2}
        p = wa.poly_add(y1, y2)
        sq = wa.poly_mul(p, p)
        assert sq == wa.poly(two, {0b11: expected_coeff})


def test_poly_with_constants():
    w = obj(ct.W, NAT)
    one_plus_x = wa.poly(w, {1: 1}, constant=1)
    x = wa.gen_poly(w, 1)
    assert wa.poly_mul(one_plus_x, x) == x  # x^2 dies
    assert wa.poly_mul(one_plus_x, one_plus_x) == wa.poly(w, {1: 2}, constant=1)


def test_poly_rejects_bad_input():
    wsq = obj(ct.n_join(2))
    with pytest.raises(ValueError):
        wa.poly(wsq, {0b11: 1})  # x1x2 is a relation, not a monomial
    with pytest.raises(ValueError):
        wa.poly(wsq, {0b01: 2})  # out of range for bool2


AMBIENTS = [ct.n_tensor(3), ct.n_join(3), ct.tensor(ct.n_join(2), ct.W),
            ct.join(ct.W, ct.n_tensor(2)), ct.n_tensor(4)]


@st.composite
def ambient_and_polys(draw, count=3):
    tree = draw(st.sampled_from(AMBIENTS))
    rig = draw(st.sampled_from([B2, NAT]))
    a = obj(tree, rig)
    from weil1.cograph import independent_sets

    monos = independent_sets(a.graph)
    polys = []
    for _ in range(count):
        terms = {}
        for m in draw(st.lists(st.sampled_from(monos), max_size=4)):
            terms[m] = draw(st.integers(1, 1 if rig is B2 else 3))
        const = draw(st.integers(0, 1 if rig is B2 else 2))
        polys.append(wa.poly(a, terms, constant=const))
    return a, polys


@given(ambient_and_polys())
def test_polynomials_form_a_commutative_rig(data):
    a, (p, q, r) = data
    zero = wa.zero_poly(a)
    one = wa.poly(a, constant=1)
    assert wa.poly_add(p, q) == wa.poly_add(q, p)
    assert wa.poly_mul(p, q) == wa.poly_mul(q, p)
    assert wa.poly_add(wa.poly_add(p, q), r) == wa.poly_add(p, wa.poly_add(q, r))
    assert wa.poly_mul(wa.poly_mul(p, q), r) == wa.poly_mul(p, wa.poly_mul(q, r))
    assert wa.poly_mul(p, wa.poly_add(q, r)) == \
        wa.poly_add(wa.poly_mul(p, q), wa.poly_mul(p, r))
    assert wa.poly_add(p, zero) == p
    assert wa.poly_mul(p, one) == p
    assert wa.poly_mul(p, zero) == zero


def test_augmentation_ideal_nilpotency_monomials():
    # any n+1 monomials multiply to zero in an n-generator ambient
    for tree in _all_cotrees(2) + _all_cotrees(3):
        a = obj(tree)
        from weil1.cograph import independent_sets

        monos = independent_sets(a.graph)
        n = a.n
        for combo in itertools.product(monos, repeat=n + 1):
            acc = combo[0]
            for m in combo[1:]:
                acc = wa.mono_mul(acc, m, a) if acc else 0
            assert acc == 0


def test_augmentation_ideal_nilpotency_random_polys():
    rnd = random.Random(42)
    from weil1.cograph import independent_sets

    for tree in _all_cotrees(3):
        a = obj(tree)
        monos = independent_sets(a.graph)
        for _ in range(25):
            polys = []
            for _ in range(a.n + 1):
                terms = {m: 1 for m in rnd.sample(monos, k=rnd.randint(1, len(monos)))}
                polys.append(wa.poly(a, terms))
            acc = polys[0]
            for p in polys[1:]:
                acc = wa.poly_mul(acc, p)
            assert acc.is_zero()


# ---------------------------------------------------------------------------
# differential tests of the term-dict kernel against the term-by-term loops
# it replaced

def reference_poly_add(p, q):
    rig = p.ambient.rig
    out = dict(p.terms)
    for mask, c in q.terms:
        prev = out.get(mask)
        out[mask] = c if prev is None else rig_mod.add(prev, c, rig)
    return wa.poly(p.ambient, out, rig_mod.add(p.constant, q.constant, rig))


def reference_poly_mul(p, q):
    # the pairwise monomial product loop, one rig operation per term pair
    amb = p.ambient
    rig = amb.rig
    out = {}

    def accumulate(mask, coeff):
        if coeff:
            out[mask] = rig_mod.add(out.get(mask, 0), coeff, rig)

    for mask, c in q.terms:
        accumulate(mask, rig_mod.mul(p.constant, c, rig))
    for mask, c in p.terms:
        accumulate(mask, rig_mod.mul(q.constant, c, rig))
    for mu, cu in p.terms:
        for mv, cv in q.terms:
            prod = wa.mono_mul(mu, mv, amb)
            if prod:
                accumulate(prod, rig_mod.mul(cu, cv, rig))
    return wa.poly(amb, out, rig_mod.mul(p.constant, q.constant, rig))


def small_polys(a):
    """Every polynomial of ``a`` with at most 3 terms besides the constant,
    term coefficients 1-2 and constants 0-2 (both capped by the rig)."""
    from weil1.cograph import independent_sets

    top = 1 if a.rig is B2 else 2
    out = []
    for k in range(4):
        for masks in itertools.combinations(independent_sets(a.graph), k):
            for coeffs in itertools.product(range(1, top + 1), repeat=k):
                for const in range(top + 1):
                    out.append(wa.poly(a, dict(zip(masks, coeffs)), constant=const))
    return out


@pytest.mark.parametrize("rig", [B2, NAT])
def test_poly_arithmetic_matches_reference(rig):
    # every pair over every object with at most 3 vertices, except that the
    # nat 3-vertex pairs (1.5 million) are sampled
    rnd = random.Random(11)
    pairs = 0
    from weil1.verify import canonical_objects

    for tree in canonical_objects(3):
        ps = small_polys(obj(tree, rig))
        if rig is NAT and ct.leaves(tree) == 3:
            todo = [(rnd.choice(ps), rnd.choice(ps)) for _ in range(2000)]
        else:
            todo = itertools.product(ps, repeat=2)
        for p, q in todo:
            assert wa.poly_add(p, q) == reference_poly_add(p, q), (p, q)
            assert wa.poly_mul(p, q) == reference_poly_mul(p, q), (p, q)
            pairs += 1
    assert pairs > 8000


def test_format_poly():
    two = obj(ct.n_tensor(2), NAT)
    p = wa.poly(two, {0b01: 1, 0b11: 2})
    assert wa.format_poly(p) == "y1 + 2 y1 y2"
    assert wa.format_poly(wa.zero_poly(two)) == "0"


# ---------------------------------------------------------------------------
# the value classes: immutable, printed as they always were, and hash-consed,
# so an equal value built separately, a copy and an unpickled value are the
# same object; the named-tuple records compare by value

def value_pairs():
    """(value, an equal value built separately, its repr, a field name)."""
    g = cg.graph(3, [(1, 2)])
    t = ct.join(ct.W, ct.n_tensor(2))
    o = wa.WeilObject(t, NAT)
    p = wa.poly(o, {0b001: 1, 0b110: 2}, constant=1)
    return [
        (g, cg.graph(3, [(2, 1)]), "Graph(3; 1-2)", "adjacency"),
        (t, ct.Cotree("join", (ct.Cotree("W"), ct.n_tensor(2))), "Cotree('W * 2W')", "kind"),
        (o, wa.WeilObject(t, NAT), "WeilObject(W * 2W, nat)", "rig"),
        (p, wa.poly(o, {0b110: 2, 0b001: 1}, constant=1), "Polynomial(1 + y1 + 2 y2 y3)",
         "terms"),
        (cg.ind_plus(g), cg.ind_plus(cg.graph(3, [(1, 2)])),
         "DerivedGraph(graph=Graph(5; 1-2,1-4,1-5,2-4,2-5,3-4,3-5,4-5), labels=(1, 2, 4, 5, 6))",
         "labels"),
        (vf.AxiomResult("bundle.comm", False, "lhs"), vf.AxiomResult("bundle.comm", False, "lhs"),
         "AxiomResult(ident='bundle.comm', passed=False, detail='lhs')", "passed"),
    ]


def test_value_classes_are_immutable_values():
    for value, twin, text, field in value_pairs():
        copies = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
        if isinstance(value, cg.Frozen):
            assert twin is value and all(c is value for c in copies), text
        else:
            assert value is not twin and value == twin and not value != twin, text
            assert hash(value) == hash(twin), text
            assert all(c == value and hash(c) == hash(value) for c in copies), text
        assert repr(value) == text
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(twin, field))
        with pytest.raises(AttributeError):
            delattr(value, field)
    g = cg.graph(2, [(1, 2)])
    assert g != cg.graph(2) and g != g.adjacency
    assert ct.W != ct.K and wa.WeilObject(ct.W, B2) != wa.WeilObject(ct.W, NAT)
    assert vf.AxiomResult("a", True).detail == ""


def test_pickled_values_load_as_the_interned_values_of_a_fresh_process():
    o = wa.algebra_of(ct.join(ct.W, ct.n_tensor(2)), NAT)
    p = wa.poly(o, {0b001: 1, 0b110: 2}, constant=1)
    code = (
        "import pickle, sys\n"
        "from weil1 import cotree as ct, weilalg as wa\n"
        "from weil1.rig import Rig\n"
        "o = wa.algebra_of(ct.join(ct.W, ct.n_tensor(2)), Rig.NAT)\n"
        "p = wa.poly(o, {0b110: 2, 0b001: 1}, constant=1)\n"
        "loaded = pickle.load(sys.stdin.buffer)\n"
        "assert loaded[0] is o and loaded[1] is p, loaded\n"
    )
    src = os.path.dirname(os.path.dirname(wa.__file__))
    path = os.pathsep.join(q for q in (src, os.environ.get("PYTHONPATH")) if q)
    proc = subprocess.run([sys.executable, "-c", code], input=pickle.dumps((o, p)),
                          capture_output=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr.decode()
