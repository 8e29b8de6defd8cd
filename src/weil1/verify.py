"""Brute-force oracles and the axiom suite for the canonical tangent model.

Everything here is finite and exact: hom-sets over the {0,1} rig are
enumerated outright, the tangent-structure axioms are checked as morphism
equalities, and the universal properties (vertical-lift equaliser,
foundational pullbacks) are verified by counting factorizations.

The pullback checks work on kappa vertices, not on polynomials.  By the
Kleisli correspondence a {0,1} morphism out of W is a vertex of
kappa = cl(ind+) of its target, a clique of ind+ held as a bitmask, and a
product of two such images is zero exactly when the union of their cliques
is again a clique.  The projections are restrictions, so they act on these
masks through one table each.  For pullbacks whose cone sets are too large
to iterate, the count is settled by an executable certificate: the
projection pair is checked to be a bijection from the candidate images of
the pullback object onto the base-compatible candidate pairs, vertex by
vertex, and to reflect every zero product, which pins existence and
uniqueness for every cone at once.  The products are checked exactly, on
every pair of monomials; nothing is sampled.

``iter_verify`` yields the suite's results as their checks end, so a caller
can report each one at once; ``run_verify`` collects them into one report.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from itertools import accumulate, combinations, product
from math import prod

from .rig import Rig
from .cograph import (
    IND_PLUS_GUARD, DerivedGraph, Graph, NotACograph, TooLarge, cliques, format_mask, graph,
    ind_plus, kappa_labels, vertices_of,
)
from .cotree import (
    Cotree, K, W, cotree_decompose, factors, format_cotree, leaves, n_join, n_tensor, realize, tensor,
)
from .weilalg import WeilObject, algebra_of, dict_mul, poly_trusted
from . import morphism as mor
from .morphism import Morphism, RigMismatch, TypeMismatch
from .genexpr import SlotAssignment, circles_of, slot_cotree


# enumerate_hom refuses, with TooLarge, more candidate assignments than this
HOM_ASSIGNMENTS = 2_000_000
# the pullback check refuses, with TooLarge, a P whose ind+ has more vertices
# than this, or more kappa vertices than PULLBACK_CANDIDATES; the largest
# square of the default ``weil1 verify``, (2W,2W,2W), has 791,552
PULLBACK_IND_PLUS = 63
PULLBACK_CANDIDATES = 1_000_000
# the pullback check sweeps an apex's cones one by one where their estimated
# number is at most this; above it the certificate decides
CONE_SWEEP = 200_000
# canonical_objects refuses, with TooLarge, to scan more labelled graphs than
# this: every size up to 6 is 33,868 graphs, up to 7 is 2,131,020
OBJECT_SCAN = 100_000
# the equaliser's universal property is checked on every object of at most
# this many vertices
EQUALIZER_VERTICES = 3


class ChoiceAmbiguous(Exception):
    """A circle can be traced through a factorization in more than one way."""


# ---------------------------------------------------------------------------
# hom-sets

@lru_cache(maxsize=None)
def kappa_candidates(t: Cotree) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All valid single-generator images into the algebra of ``t`` over {0,1},
    i.e. the vertices of kappa of its graph, as sorted term tuples."""
    return tuple(tuple((mask, 1) for mask in label) for label in kappa_labels(realize(t)))


def enumerate_hom(a: Cotree | WeilObject, b: Cotree | WeilObject) -> tuple[Morphism, ...]:
    """All morphisms a -> b over {0,1}, in canonical order.

    Per-generator candidates are the subsets of ind+(G_b) whose image squares
    to zero (exactly the cliques); a generator then takes the candidates whose
    real polynomial product with each earlier neighbour's choice is zero, read
    from one bit row per candidate.  More than ``HOM_ASSIGNMENTS`` candidate
    assignments raise TooLarge.
    """
    src = a if isinstance(a, WeilObject) else algebra_of(a, Rig.BOOL2)
    tgt = b if isinstance(b, WeilObject) else algebra_of(b, Rig.BOOL2)
    if src.rig is not Rig.BOOL2 or tgt.rig is not Rig.BOOL2:
        raise RigMismatch("hom enumeration is defined over the {0,1} rig")
    cands = hom_candidates(src, tgt)
    n = src.n
    earlier = [[] for _ in range(n)]
    for u, v in src.graph.edges:
        earlier[v - 1].append(u - 1)
    out: list[Morphism] = []
    dicts = [dict(terms) for terms in cands]
    raws = [poly_trusted(d) for d in dicts]
    # zero[c]: the candidates whose product with candidate c is zero
    zero = [sum(1 << d for d, dd in enumerate(dicts) if not dict_mul(dc, dd, tgt))
            for dc in dicts] if any(earlier) else None
    choice = [0] * n

    def rec(i: int):
        if i == n:
            out.append(Morphism(src, tgt, tuple(raws[c] for c in choice)))
            return
        allowed = (1 << len(cands)) - 1
        for j in earlier[i]:
            allowed &= zero[choice[j]]
        while allowed:
            low = allowed & -allowed
            choice[i] = low.bit_length() - 1
            rec(i + 1)
            allowed ^= low

    rec(0)
    return tuple(out)


def hom_candidates(src: WeilObject, tgt: WeilObject) -> tuple[tuple[tuple[int, int], ...], ...]:
    """``enumerate_hom``'s guard: the candidate images of one generator, after
    refusing with TooLarge a hom-set of more than ``HOM_ASSIGNMENTS``
    candidate assignments, or a target that ``kappa_candidates`` refuses."""
    cands = kappa_candidates(tgt.cotree)
    if len(cands) ** max(src.n, 1) > HOM_ASSIGNMENTS:
        raise TooLarge(f"{len(cands)}^{src.n} assignments exceed the budget of {HOM_ASSIGNMENTS}"
                       " (verify.HOM_ASSIGNMENTS)")
    return cands


def count_graph_maps(a: Cotree, b: Cotree) -> int:
    """Number of graph maps G_a -> kappa(G_b): vertex assignments under which
    adjacent vertices land on equal or adjacent kappa vertices.

    This is the purely graph-level side of the hom bijection; two kappa
    vertices are adjacent when the union of their cliques of ind+ is again a
    clique.  Refuses, as ``kappa_candidates`` does, a ``b`` whose ind+ has
    more than ``IND_PLUS_GUARD`` vertices.
    """
    ipg = ind_plus(realize(b), IND_PLUS_GUARD).graph
    return len(graph_maps(realize(a), ipg, cliques(ipg)))


def graph_maps(g: Graph, ipg: Graph, verts: list[int]) -> list[tuple[int, ...]]:
    """Every graph map g -> kappa = cl(ipg), given kappa's vertices as the
    clique masks ``verts``: one index into ``verts`` per vertex of g, such
    that adjacent vertices of g get cliques whose union is a clique.

    Backtracking in vertex order; each vertex is checked against its
    lower-numbered neighbours."""
    # the union of cliques c and d is a clique exactly when c misses every
    # vertex that some member of d is not adjacent to: d's neighbourhood in
    # the complement.  A neighbourhood is a union over members, so a vertex
    # may take c when c misses the neighbourhood of its lower neighbours'
    # cliques taken together
    outside = ipg.complement.neighbourhood
    earlier = [vertices_of(nb & ((1 << i) - 1)) for i, nb in enumerate(g.adjacency)]
    out: list[tuple[int, ...]] = []
    choice = [0] * g.n

    def rec(i: int):
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


@lru_cache(maxsize=None)
def canonical_objects(max_vertices: int) -> tuple[Cotree, ...]:
    """Canonical cotrees of every labelled graph with at most the given size.

    The scan covers 2^(n choose 2) graphs of each size n; more than
    ``OBJECT_SCAN`` in all raise TooLarge before it starts."""
    scan = 0
    for n in range(max_vertices + 1):
        scan += 1 << n * (n - 1) // 2
        if scan > OBJECT_SCAN:
            raise TooLarge(f"the objects of at most {max_vertices} vertices scan more than"
                           f" {OBJECT_SCAN} graphs (verify.OBJECT_SCAN)")
    seen: list[Cotree] = []
    for n in range(max_vertices + 1):
        pairs = list(combinations(range(1, n + 1), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            try:
                tree, _ = cotree_decompose(graph(n, edges))
            except NotACograph:
                continue
            if tree not in seen:
                seen.append(tree)
    return tuple(sorted(seen, key=lambda t: (leaves(t), format_cotree(t))))


# ---------------------------------------------------------------------------
# axiom report plumbing

class AxiomResult(namedtuple("AxiomResult", "ident passed detail", defaults=("",))):
    __slots__ = ()

    def format_line(self) -> str:
        """``AXIOM <ident> PASS``, or ``FAIL`` followed by the detail."""
        line = f"AXIOM {self.ident} {'PASS' if self.passed else 'FAIL'}"
        if not self.passed and self.detail:
            line += f" {self.detail}"
        return line


class AxiomReport(namedtuple("AxiomReport", "results")):
    """The results of a suite, a tuple of ``AxiomResult`` in its order."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[AxiomResult]:
        return [r for r in self.results if not r.passed]

    def format_lines(self) -> str:
        return "\n".join(r.format_line() for r in self.results) + "\n"

    def summary(self) -> str:
        return f"{sum(r.passed for r in self.results)}/{len(self.results)} checks passed"

    def format_text(self) -> str:
        return self.format_lines() + self.summary() + "\n"


def _result(ident: str, ok: bool, detail: str = "") -> AxiomResult:
    return AxiomResult(ident, ok, "" if ok else detail)


# ---------------------------------------------------------------------------
# the tangent-structure axioms for T = W tensor -

def _component(tau: Morphism, obj: WeilObject) -> Morphism:
    """Component of a transformation at an object, by tensoring on the right;
    ``tensor`` absorbs K, so the component at K is ``tau`` itself."""
    return mor.tensor_mor(tau, mor.identity(obj))


def _swap_w2(rig: Rig) -> Morphism:
    w2 = algebra_of(n_join(2), rig)
    return mor.make(w2, w2, [{0b10: 1}, {0b01: 1}])


def _plus_times_id(rig: Rig) -> Morphism:
    """(+ x id): W^3 -> W^2."""
    w3 = algebra_of(n_join(3), rig)
    w2 = algebra_of(n_join(2), rig)
    return mor.make(w3, w2, [{0b01: 1}, {0b01: 1}, {0b10: 1}], check=True)


def _id_times_plus(rig: Rig) -> Morphism:
    w3 = algebra_of(n_join(3), rig)
    w2 = algebra_of(n_join(2), rig)
    return mor.make(w3, w2, [{0b01: 1}, {0b10: 1}, {0b10: 1}], check=True)


def check_tangent_axioms(max_vertices: int = 2) -> AxiomReport:
    """The additive-bundle, lift, flip and coherence equalities over both
    rigs, plus naturality of every transformation, checked on the maps out
    of W and K into each object of at most ``max_vertices`` vertices (see
    ``_naturality_checks``)."""
    results: list[AxiomResult] = []
    for rig in (Rig.BOOL2, Rig.NAT):
        results.extend(_core_axioms(rig))
    results.extend(_naturality_checks(max_vertices))
    return AxiomReport(tuple(results))


def _core_axioms(rig: Rig) -> list[AxiomResult]:
    w, gens = algebra_of(W, rig), mor.generators(rig)
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


def _transformations() -> dict[str, Morphism]:
    """The structure maps of T = W (x) - over {0,1}, by the names of their lines."""
    gens = mor.generators(Rig.BOOL2)
    return {"p": gens["eps_W"], "eta": gens["eta_W"], "plus": gens["plus_W"],
            "l": gens["l_W"], "c": gens["c_W"]}


def _square_commutes(tau: Morphism, f: Morphism) -> bool:
    """The naturality square of ``tau`` at ``f : A -> B``:
    (T' (x) f) . (tau (x) A) == (tau (x) B) . (S (x) f) for tau : S -> T'."""
    lhs = mor.compose(_functor_image(tau.target.cotree, f), _component(tau, f.source))
    rhs = mor.compose(_component(tau, f.target), _functor_image(tau.source.cotree, f))
    return lhs == rhs


def _naturality_checks(max_vertices: int) -> list[AxiomResult]:
    """Naturality of every transformation, on every map W -> B and the one
    map K -> B, for each object B of at most ``max_vertices`` vertices.

    This decides naturality on every hom-set between those objects.  Take
    tau : S -> T' and f : A -> B.  On the left of the square, tau (x) A
    sends an S-generator s to tau(s) and an A-generator a to a, shifted past
    T'; then T' (x) f fixes tau(s) and sends a to f(a), shifted past T'.  On
    the right, S (x) f fixes s and sends a to f(a), shifted past S; then
    tau (x) B sends s to tau(s) and f(a) to f(a), shifted past T'.
    ``compose`` builds each image of its result from one image of the inner
    map, so on both sides s goes to an image that depends on B alone, and a
    to one that depends on B and f(a) alone.  Hence the square fails at some
    f exactly when it fails at a map into B that agrees with f on one
    generator: the map K -> B, whose square has only the S-generators, or
    the map W -> B that sends its generator to f(a).  Over {0,1} that map
    exists: f(a) is a vertex of kappa(B), and a map out of W may send its
    generator to any of them.
    """
    objs = [algebra_of(t, Rig.BOOL2) for t in canonical_objects(max_vertices)]
    sources = [algebra_of(t, Rig.BOOL2) for t in (K, W)]
    maps = [f for b in objs for a in sources for f in enumerate_hom(a, b)]
    out = []
    for name, tau in _transformations().items():
        bad = next((f for f in maps if not _square_commutes(tau, f)), None)
        out.append(_result(f"naturality.{name}(n={len(maps)})", bad is None, f"fails at {bad!r}"))
    return out


def _functor_image(shape: Cotree, f: Morphism) -> Morphism:
    """Image of f under the functor (shape tensor -), e.g. W(x)f or W^2(x)f;
    ``tensor`` absorbs K, so the image under K (x) - is f itself."""
    return mor.tensor_mor(mor.identity(algebra_of(shape, f.rig)), f)


# ---------------------------------------------------------------------------
# universality of the vertical lift

def vertical_lift_equalizer_map(rig: Rig = Rig.BOOL2) -> Morphism:
    """v : W^2 -> 2W, x1 -> y1 y2, x2 -> y2."""
    w2 = algebra_of(n_join(2), rig)
    ww = algebra_of(n_tensor(2), rig)
    return mor.make(w2, ww, [{0b11: 1}, {0b10: 1}], check=True)


# W (x) eps and eta . (eps (x) eps), the two arrows 2W -> W that v equalizes,
# as restrictions: the first kills y2 and the second kills y1 and y2
EQUALIZER_ARROWS = (mor.Splice(1, 1), mor.Splice(0, 2))


def check_equalizer() -> AxiomReport:
    """v equalizes (W tensor eps, eta . (eps tensor eps)) and every equalizing
    cone from an object of at most ``EQUALIZER_VERTICES`` vertices factors
    through it exactly once."""
    rig = Rig.BOOL2
    w = algebra_of(W, rig)
    v = vertical_lift_equalizer_map(rig)
    lhs, rhs = EQUALIZER_ARROWS
    lhs_v = mor.compose_restriction(lhs, w, v)
    rhs_v = mor.compose_restriction(rhs, w, v)
    results = [_result("equalizer.v_equalizes", lhs_v == rhs_v, f"{lhs_v!r} vs {rhs_v!r}")]
    w2, ww = v.source, v.target
    for t in canonical_objects(EQUALIZER_VERTICES):
        a = algebra_of(t, rig)
        cones = 0
        good = True
        detail = ""
        factor_counts: dict[Morphism, int] = {}
        for u in enumerate_hom(a, w2):
            h = mor.compose(v, u)
            factor_counts[h] = factor_counts.get(h, 0) + 1
        for h in enumerate_hom(a, ww):
            if mor.compose_restriction(lhs, w, h) != mor.compose_restriction(rhs, w, h):
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

def check_foundational_pullback(
    b: Cotree,
    a1: Cotree,
    a2: Cotree,
    apex_max: int = 2,
) -> AxiomReport:
    """Existence and uniqueness of pullback factorizations for the square of
    P = B (x) (A1 x A2) over B, with legs T1 = B (x) A1 and T2 = B (x) A2.

    Candidates are kappa vertices (see the module docstring): a {0,1}
    morphism from an apex is one clique of ind+ per generator, two images
    multiply to zero exactly when their union is a clique, and the
    projections P -> Ti and the bases Ti -> B act through one vertex table
    each: the projections are ``morphism.pair_layout``'s splices, and
    ``id (x) eps`` is the splice that keeps B's generators, which come first
    in Ti, and kills Ai's.  Over ``PULLBACK_IND_PLUS`` vertices of ind+(P), over
    ``IND_PLUS_GUARD`` of a leg's ind+ or over ``PULLBACK_CANDIDATES``
    cliques raise TooLarge, naming the square and the budget.

    Where an apex's cone set fits ``CONE_SWEEP`` it is swept cone by cone, on
    tuples of candidate indices.  Where it does not, an exact certificate
    pins the same conclusion: the projection pair is injective on the
    candidates of P (checked one by one), their count equals the number of
    pairs of T1 and T2 candidates with the same pure-base monomials, and
    products are zero upstairs exactly when they are zero in both legs.

    That last part is checked on every pair of monomials of P, the vertices
    of ind+(P), and this is the same as checking it on every pair of
    candidates.  Over {0,1} there are no additive inverses, so a product of
    two sums of monomials is zero exactly when every cross product of one
    monomial from each is zero: two candidate cliques c, d multiply to zero
    exactly when every u in c and v in d are equal or adjacent in ind+(P).
    The projections are restrictions, so they act member by member: the
    image of c in Ti is the set of its members' images, the killed ones
    dropped, and the product of the images of c and d is zero exactly when
    the images of every such u and v multiply to zero in Ti.  Hence
    "non-zero upstairs" and "non-zero in a leg" are each the disjunction,
    over the cross pairs (u, v), of the same statement about u and v; if
    the two agree on every pair of monomials they agree on every pair of
    candidates.  Conversely single monomials are candidates, so the check
    on monomials fails whenever the one on candidates would.  Both
    statements are symmetric and false for u = v, so the pairs u < v
    suffice: at most C(|ind+(P)|, 2) of them, 1,953 under
    ``PULLBACK_IND_PLUS``.
    """
    rig = Rig.BOOL2
    name = f"({format_cotree(b)},{format_cotree(a1)},{format_cotree(a2)})"
    t1_obj = algebra_of(tensor(b, a1), rig)
    t2_obj = algebra_of(tensor(b, a2), rig)
    if a1.kind == "K" or a2.kind == "K":
        # one side is the unit; the square is degenerate and the pairing is
        # the identity on the other side, which leaves nothing to check
        return AxiomReport((_result(f"pullback.degenerate{name}", True),))
    if b.kind == "K":
        at, k1, k2 = 0, 1, 1
    else:
        at, k1, k2 = len(factors(b)) + 1, len(factors(a1)), len(factors(a2))
    p_obj, proj1, proj2 = mor.pair_layout(t1_obj, t2_obj, at, k1, k2)
    base_obj = algebra_of(b, rig)
    base1, base2 = (mor.Splice(base_obj.n, t.n - base_obj.n) for t in (t1_obj, t2_obj))

    def guarded(budget, build, *args):
        try:
            return build(*args)
        except TooLarge as exc:
            raise TooLarge(f"pullback square {name}: {exc} ({budget})") from None

    ip_p = guarded("verify.PULLBACK_IND_PLUS", ind_plus, p_obj.graph, PULLBACK_IND_PLUS)
    ip1 = guarded("cograph.IND_PLUS_GUARD", ind_plus, t1_obj.graph, IND_PLUS_GUARD)
    ip2 = guarded("cograph.IND_PLUS_GUARD", ind_plus, t2_obj.graph, IND_PLUS_GUARD)
    # each leg embeds in P, so its cliques are cliques of P's: one cap bounds all three
    cand_p = guarded("verify.PULLBACK_CANDIDATES", cliques, ip_p.graph, PULLBACK_CANDIDATES)
    ip_b = ind_plus(base_obj.graph)
    cand_1 = cliques(ip1.graph)
    cand_2 = cliques(ip2.graph)
    table1 = _vertex_table(proj1, ip_p, ip1)
    table2 = _vertex_table(proj2, ip_p, ip2)
    legs1 = _images(cand_p, table1)
    legs2 = _images(cand_p, table2)
    # pure-base parts, as cliques of ind+(B): a numbering both legs share
    keys1 = _images(cand_1, _vertex_table(base1, ip1, ip_b))
    keys2 = _images(cand_2, _vertex_table(base2, ip2, ip_b))

    # certificate part 1: the projection pair tells candidates apart
    seen: dict[tuple[int, int], int] = {}
    inj_ok = True
    detail = ""
    for idx, key in enumerate(zip(legs1, legs2)):
        first = seen.setdefault(key, idx)
        if first != idx:
            inj_ok = False
            detail = f"candidates {first} and {idx} project equally"
            break
    results = [_result(f"pullback.injective{name}(candidates={len(cand_p)})", inj_ok, detail)]

    # certificate part 2: candidate count equals compatible-pair count
    buckets2 = Counter(keys2)
    compat = sum(n * buckets2[k] for k, n in Counter(keys1).items())
    results.append(_result(
        f"pullback.count{name}(pairs={compat})", compat == len(cand_p),
        f"{len(cand_p)} candidates vs {compat} compatible pairs"))

    # certificate part 3: products vanish upstairs iff they vanish in both
    # legs, on every pair of monomials of P.  Two monomials multiply to
    # non-zero exactly when they are adjacent in the complement of ind+;
    # a table entry is the bit of one vertex, or 0
    prod_ok = True
    detail = ""
    apart = ip_p.graph.complement.adjacency
    out1 = ip1.graph.complement.neighbourhood
    out2 = ip2.graph.complement.neighbourhood
    for u, v in combinations(range(len(apart)), 2):
        up = bool(apart[u] >> v & 1)
        down = bool(table1[v] & out1(table1[u]) or table2[v] & out2(table2[u]))
        if up != down:
            prod_ok = False
            detail = (f"monomials {format_mask(ip_p.labels[u])} and"
                      f" {format_mask(ip_p.labels[v])} of P disagree")
            break
    results.append(_result(f"pullback.products{name}(all)", prod_ok, detail))

    # cone-by-cone sweep where it fits the budget
    for apex in canonical_objects(apex_max):
        x = algebra_of(apex, rig)
        # the sweep enumerates maps into P as well as cones, so a count
        # that disagrees with the candidates must not lift the budget
        est = max(compat, len(cand_p)) ** max(x.n, 1)
        ident = f"pullback.cones{name}[{format_cotree(apex)}]"
        if est > CONE_SWEEP:
            results.append(_result(ident + "(certified)", inj_ok and compat == len(cand_p) and prod_ok,
                                   "certificate failed"))
            continue
        by_base: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for f2 in graph_maps(x.graph, ip2.graph, cand_2):
            by_base.setdefault(tuple(keys2[c] for c in f2), []).append(f2)
        by_pair = Counter((tuple(legs1[c] for c in u), tuple(legs2[c] for c in u))
                          for u in graph_maps(x.graph, ip_p.graph, cand_p))
        cones = 0
        ok = True
        detail = ""
        for f1 in graph_maps(x.graph, ip1.graph, cand_1):
            img1 = tuple(cand_1[c] for c in f1)
            for f2 in by_base.get(tuple(keys1[c] for c in f1), ()):
                cones += 1
                nfac = by_pair.get((img1, tuple(cand_2[c] for c in f2)), 0)
                if nfac != 1:
                    ok = False
                    detail = (f"cone ({_kappa_morphism(x, t1_obj, ip1, cand_1, f1)!r}, "
                              f"{_kappa_morphism(x, t2_obj, ip2, cand_2, f2)!r}) "
                              f"has {nfac} factorizations")
                    break
            if not ok:
                break
        results.append(_result(ident + f"(cones={cones})", ok, detail))
    return AxiomReport(tuple(results))


def _vertex_table(splice: mor.Splice, src: DerivedGraph, dst: DerivedGraph) -> tuple[int, ...]:
    """A restriction ``splice`` on ind+ vertices: entry i is the bit of the
    vertex of ``dst`` (ind+ of its target) that it sends vertex i+1 of
    ``src`` (ind+ of its source) to, or 0 if killed."""
    bit_of = {m: 1 << i for i, m in enumerate(dst.labels)}
    return tuple(bit_of.get(splice.project(m), 0) for m in src.labels)


def _images(cands: list[int], table: tuple[int, ...]) -> list[int]:
    """Each kappa vertex's image under a ``_vertex_table``: the union of its
    members' entries.  ``cands`` is in ``cliques`` order, where a clique
    without its highest vertex comes before it, so one entry extends an
    image already known."""
    image = {0: 0}
    for c in cands:
        if c:
            top = c.bit_length() - 1
            image[c] = image[c ^ 1 << top] | table[top]
    return [image[c] for c in cands]


def _kappa_morphism(x: WeilObject, obj: WeilObject, ip: DerivedGraph, cands: list[int],
                    choice: tuple[int, ...]) -> Morphism:
    """The {0,1} morphism x -> obj sending generator i to the sum of the
    monomials of kappa vertex ``cands[choice[i - 1]]``."""
    return Morphism(x, obj, tuple(
        poly_trusted(dict.fromkeys((ip.labels[v - 1] for v in vertices_of(cands[c])), 1))
        for c in choice))


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
    if any(g.target.graph.adjacency):
        raise TypeMismatch("omega needs an edgeless final target")
    h = mor.compose(g, f)
    ha = SlotAssignment(h)
    ga = SlotAssignment(g)
    g_supports = [[mask for mask, _ in p.terms] for p in g.images]
    src = algebra_of(slot_cotree(ha.counts), Rig.BOOL2)
    tgt = algebra_of(slot_cotree(ga.counts), Rig.BOOL2)

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
                        per_j[j] = ga.slot_of[b_hat, q_hat, j]
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
        images = [{1 << (chosen[i, m][j] - 1): 1} for i, m, j in ha.slots]
        return mor.make(src, tgt, images, check=True)

    if resolve == "strict":
        return build({c: asgn[0] for c, asgn in circle_options})
    if prod(len(asgn) for _, asgn in circle_options) > 128:
        raise TooLarge("more than 128 omega resolutions")
    circles = [c for c, _ in circle_options]
    return [build(dict(zip(circles, choice)))
            for choice in product(*(asgn for _, asgn in circle_options))]


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
    a_off = list(accumulate(alpha, initial=0))
    b_off = list(accumulate(beta, initial=0))
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
    if any(g.source.graph.adjacency) or any(g.target.graph.adjacency):
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
    src = algebra_of(slot_cotree(fa.counts), Rig.BOOL2)
    tgt = algebra_of(slot_cotree(ha.counts), Rig.BOOL2)
    images = []
    for a, v_mask, j in fa.slots:
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
            out_mask |= 1 << (ha.slot_of[a, u_mask, bit.bit_length()] - 1)
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

def run_verify(max_vertices: int = 2) -> AxiomReport:
    """The full machine-checkable suite: tangent axioms, naturality on the
    maps out of W and K, the vertical-lift equaliser, the foundational
    pullbacks (including preservation under one and two applications of the
    tangent functor) and the Kleisli counts on every pair of objects."""
    return AxiomReport(tuple(iter_verify(max_vertices)))


def iter_verify(max_vertices: int = 2):
    """The results of ``run_verify``, in its order, each yielded as soon as
    the check that makes it ends: the tangent axioms and the equaliser as
    whole suites, then each pullback square, each preservation re-check and
    each Kleisli count.

    The Kleisli counts enumerate every hom-set between the objects, so each
    pair is held to ``enumerate_hom``'s budget before anything runs: the
    first pair over it is refused at once, not after the checks before it."""
    objs = canonical_objects(max_vertices)
    algebras = [algebra_of(t, Rig.BOOL2) for t in objs]
    for a, b in product(algebras, repeat=2):
        hom_candidates(a, b)
    yield from check_tangent_axioms(max_vertices).results
    yield from check_equalizer().results
    pullbacks: dict[tuple[Cotree, Cotree, Cotree], AxiomReport] = {}
    for b, a1, a2 in product(objs, repeat=3):
        rep = pullbacks[b, a1, a2] = check_foundational_pullback(b, a1, a2, apex_max=max_vertices)
        yield from rep.results
    for m in (1, 2):
        rep = pullbacks.get((n_tensor(m), W, W))
        if rep is None:
            rep = check_foundational_pullback(n_tensor(m), W, W, apex_max=max_vertices)
        yield _result(f"tangent.Tm_preserves_pullback[m={m}]", rep.all_passed,
                      "; ".join(r.ident for r in rep.failures()))
    # kappa bijection spot check
    for a, b in product(objs, repeat=2):
        lhs = len(enumerate_hom(a, b))
        rhs = count_graph_maps(a, b)
        yield _result(f"kleisli.bijection[{format_cotree(a)},{format_cotree(b)}]",
                      lhs == rhs, f"{lhs} morphisms vs {rhs} graph maps")
