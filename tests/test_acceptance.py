"""Acceptance suite: one test per criterion, exact checks, timed against the
stated budgets.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines."""

import itertools
import random
import time

import pytest

from weil1.rig import Rig
from weil1 import cograph as cg
from weil1 import cotree as ct
from weil1 import genexpr as ge
from weil1 import morphism as mor
from weil1 import verify as vf
from weil1 import weilalg as wa


B2, NAT = Rig.BOOL2, Rig.NAT

# every criterion here runs against a wall-clock budget; `pytest -m "not slow"`
# leaves them out for a fast inner loop, the full suite still runs them
pytestmark = pytest.mark.slow


class _Budget:
    def __init__(self, number, name, seconds):
        self.number = number
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {status} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget"
            )
        return False


@pytest.fixture(scope="module")
def hom_sets_3():
    """Every hom-set between the canonical objects with at most 3 vertices."""
    objs = vf.canonical_objects(3)
    return {(a, b): vf.enumerate_hom(a, b) for a in objs for b in objs}


def test_criterion_1_generator_semantics():
    with _Budget(1, "generator semantics", 1.0):
        for rig in (B2, NAT):
            gens = mor.generators(rig)
            w = wa.algebra_of(ct.W, rig)
            ww = wa.algebra_of(ct.n_tensor(2), rig)
            assert gens["eps_W"].target.cotree == ct.K
            assert gens["eps_W"].image(1).is_zero()
            assert gens["eta_W"].source.cotree == ct.K
            assert gens["eta_W"].images == ()
            assert gens["plus_W"].image(1) == wa.poly(w, {1: 1})
            assert gens["plus_W"].image(2) == wa.poly(w, {1: 1})
            assert gens["l_W"].image(1) == wa.poly(ww, {0b11: 1})
            assert gens["c_W"].image(1) == wa.poly(ww, {0b10: 1})
            assert gens["c_W"].image(2) == wa.poly(ww, {0b01: 1})


def test_criterion_2_kleisli_bijection(hom_sets_3):
    with _Budget(2, "kappa/Kleisli bijection", 30.0):
        objs = vf.canonical_objects(3)
        assert len(objs) <= 19
        total = 0
        for a, b in itertools.product(objs, repeat=2):
            hom = hom_sets_3[a, b]
            assert len(hom) == vf.count_graph_maps(a, b), (a, b)
            a_obj = wa.algebra_of(a, B2)
            b_obj = wa.algebra_of(b, B2)
            for f in hom:
                km = mor.to_kleisli(f)
                assert mor.from_kleisli(km, a_obj, b_obj) == f
                total += 1
        assert total > 70_000


def test_criterion_3_decomposition_round_trip(hom_sets_3):
    with _Budget(3, "decomposition round trip", 120.0):
        checked = 0
        for (a, b), hom in hom_sets_3.items():
            for f in hom:
                expr = ge.decompose(f)
                assert ge.evaluate(expr, B2) == f, (a, b, f)
                checked += 1
        assert checked > 70_000
        rnd = random.Random(2024)
        objs = vf.canonical_objects(3)
        nat_checked = 0
        while nat_checked < 500:
            a = rnd.choice(objs)
            b = rnd.choice(objs)
            f = rnd.choice(hom_sets_3[a, b].morphisms)
            images = [
                {mask: rnd.randint(1, 3) for mask, _ in p.terms} for p in f.images
            ]
            g = mor.make(
                wa.algebra_of(a, NAT), wa.algebra_of(b, NAT), images, check=True
            )
            expr = ge.decompose(g)
            assert ge.evaluate(expr, NAT) == g
            nat_checked += 1


def test_criterion_4_tangent_axiom_suite():
    with _Budget(4, "tangent axiom suite", 60.0):
        report = vf.check_tangent_axioms(max_vertices=2)
        assert report.all_passed, report.failures()
        naturality = [r for r in report.results if r.ident.startswith("naturality.")]
        assert {r.ident.split("(")[0] for r in naturality} == {
            "naturality.p", "naturality.eta", "naturality.plus",
            "naturality.l", "naturality.c",
        }


def test_criterion_5_vertical_lift_universality():
    with _Budget(5, "universality of the vertical lift", 60.0):
        report = vf.check_equalizer(max_vertices=3)
        assert report.all_passed, report.failures()
        assert len(report.results) == 1 + len(vf.canonical_objects(3))


def test_criterion_6_foundational_pullbacks():
    with _Budget(6, "foundational pullbacks", 120.0):
        objs = vf.canonical_objects(2)
        for b, a1, a2 in itertools.product(objs, repeat=3):
            report = vf.check_foundational_pullback(
                b, a1, a2, apex_max=2, cone_budget=20_000
            )
            assert report.all_passed, (b, a1, a2, report.failures())


def test_criterion_7_ghat():
    with _Budget(7, "coefficient maps", 1.0):
        w_nat = wa.algebra_of(ct.W, NAT)
        for r in range(6):
            g = mor.ghat(r, NAT)
            assert g.source == w_nat and g.target == w_nat
            assert g.image(1) == wa.poly(w_nat, {1: r})


def test_criterion_8_omega_gamma_witnesses(hom_sets_3):
    with _Budget(8, "omega and gamma witnesses", 120.0):
        objs = vf.canonical_objects(3)
        edgeless = [t for t in objs if not ct.realize(t).edges]
        rnd = random.Random(777)
        omega_done = 0
        while omega_done < 200:
            a, b = rnd.choice(objs), rnd.choice(objs)
            n_w = rnd.choice(edgeless)
            f = rnd.choice(hom_sets_3[a, b].morphisms)
            g = rnd.choice(hom_sets_3[b, n_w].morphisms)
            try:
                om = vf.omega_witness(f, g)
            except vf.ChoiceAmbiguous:
                continue
            assert vf.omega_squares_commute(f, g, om)
            omega_done += 1
        gamma_done = 0
        while gamma_done < 200:
            m = rnd.randint(1, 3)
            n_total = rnd.randint(m, 3)
            g = _random_disjoint_g(rnd, m, n_total)
            a = rnd.choice(objs)
            f = rnd.choice(hom_sets_3[a, g.source.cotree].morphisms)
            gamma = vf.gamma_witness(f, g)
            assert vf.gamma_squares_commute(f, g, gamma)
            gamma_done += 1


def _random_disjoint_g(rnd, m, n_total):
    cut = sorted(rnd.sample(range(1, n_total), m - 1)) if m > 1 else []
    bounds = [0] + cut + [n_total]
    perm = list(range(1, n_total + 1))
    rnd.shuffle(perm)
    images = []
    for i in range(m):
        block = perm[bounds[i]:bounds[i + 1]]
        images.append({sum(1 << (v - 1) for v in block): 1})
    return mor.make(
        wa.algebra_of(ct.n_tensor(m), B2),
        wa.algebra_of(ct.n_tensor(n_total), B2),
        images,
        check=True,
    )


def test_criterion_9_cograph_recognition():
    with _Budget(9, "cograph recognition", 60.0):
        total = 0
        for n in range(6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for bits in range(1 << len(pairs)):
                g = cg.graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
                total += 1
                has_p4 = _brute_has_induced_p4(g)
                try:
                    tree, perm = ct.cotree_decompose(g)
                except cg.NotACograph:
                    assert has_p4, g
                    continue
                assert not has_p4, g
                relabelled = cg.graph(
                    g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges]
                )
                assert relabelled == ct.realize(tree)
        assert total == 1100  # all labelled graphs on at most 5 vertices


def _brute_has_induced_p4(g):
    for a, b, c, d in itertools.permutations(range(1, g.n + 1), 4):
        if (g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
                and not g.has_edge(a, c) and not g.has_edge(a, d)
                and not g.has_edge(b, d)):
            return True
    return False


def test_criterion_10_nat_fullness(hom_sets_3):
    with _Budget(10, "nat to bool2 fullness", 30.0):
        checked = 0
        for hom in hom_sets_3.values():
            for f in hom:
                assert vf.check_nat_fullness(f)
                checked += 1
        assert checked > 70_000
