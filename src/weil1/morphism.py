"""Morphisms between presented algebras: validity, composition, combinators,
the five generating maps, and the kappa/Kleisli correspondence.

A morphism is determined by one constant-free polynomial per source
generator.  Validity is the pair of conditions forced by the relations:
every image squares to zero, and images of generators joined by an edge
multiply to zero.  Pictorially the terms of an image are "circles" drawn on
the target graph, one colour per source generator; both conditions say that
any two circles of the same colour, or of colours joined by an edge, must
overlap or touch an edge of the target.

Over the {0,1} rig this data is exactly a graph map into kappa(target):
each generator goes to the clique of ind+(target) formed by its term
supports (the empty clique for a zero image).  The induced condition on a
graph map G_A -> kappa(G_B) is that adjacent vertices land on equal or
adjacent vertices; equal is allowed because a clique union with itself is
itself a clique.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .rig import Rig, psi
from .cograph import Graph, is_independent, mask_key
from .cotree import K, W, factors, format_cotree, join, leaves, n_join, n_tensor, tensor
from .weilalg import (
    Polynomial,
    WeilObject,
    algebra_of,
    checked_terms,
    dict_add_into,
    dict_mul,
    format_poly,
    intern_image,
    poly,
    poly_mul,
    poly_trusted,
    size_lex,
)


class MorphismError(ValueError):
    """Base class for morphism construction and composition failures: the
    input names no valid morphism, so it is a ValueError."""


class TypeMismatch(MorphismError):
    """Source/target objects do not line up (cotree or rig)."""


class RigMismatch(MorphismError):
    """An operation needed {0,1} coefficients but saw larger ones."""


class RelationViolation(MorphismError):
    """A defining relation of the source is not killed by the images."""

    def __init__(self, i: int, j: int, witness: Polynomial):
        self.i = i
        self.j = j
        self.witness = witness
        rel = f"x{i}^2" if i == j else f"x{i} x{j}"
        super().__init__(f"image of relation {rel} = 0 is non-zero: {format_poly(witness)}")


class Morphism:
    """An algebra map, stored as one constant-free image per generator.

    ``raw[i - 1]`` is the image of generator i in the internal form of
    ``weilalg.poly_trusted``: ``(mask, coeff)`` pairs sorted by plain integer
    mask.  Equality and hashing read these tuples, and the kernel's own
    constructions work on them directly.  The public ``images`` and
    ``image(i)`` are ``Polynomial``s in the size-then-lex order, built on
    first use and cached.  The constructor takes ``raw`` unchecked; build a
    morphism from outside input with ``make``.  Morphisms must not be
    mutated after construction.

    Unlike the value classes, a morphism is not hash-consed through
    ``cograph.Frozen``: the kernel builds hundreds of thousands of
    morphisms per sweep and hashes few, so it compares by value and its
    hash waits for first use.  Built through a constructor that hashed at
    once, a slice of the criterion-3 round trip took about a third more
    CPU time, and an intern table would also keep every morphism alive.
    """

    __slots__ = ("source", "target", "raw", "_hash", "_images")

    def __init__(self, source: WeilObject, target: WeilObject,
                 raw: tuple[tuple[tuple[int, int], ...], ...]):
        self.source = source
        self.target = target
        self.raw = raw
        self._hash = None
        self._images = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Morphism):
            return NotImplemented
        return (self.raw == other.raw and self.source == other.source
                and self.target == other.target)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.source, self.target, self.raw))
        return h

    @property
    def rig(self) -> Rig:
        return self.source.rig

    @property
    def images(self) -> tuple[Polynomial, ...]:
        """The image polynomials, one per generator, terms in size-then-lex order."""
        imgs = self._images
        if imgs is None:
            tgt = self.target
            imgs = self._images = tuple(Polynomial(tgt, 0, size_lex(t)) for t in self.raw)
        return imgs

    def image(self, i: int) -> Polynomial:
        """Image polynomial of generator i (1-based)."""
        return self.images[i - 1]

    def image_dicts(self) -> tuple[dict[int, int], ...]:
        return tuple(dict(t) for t in self.raw)

    def is_zero_map(self) -> bool:
        return not any(self.raw)

    def __repr__(self) -> str:
        clauses = "; ".join(
            f"x{i} |-> {format_poly(p)}" for i, p in enumerate(self.images, start=1)
        )
        head = f"{format_cotree(self.source.cotree)} -> {format_cotree(self.target.cotree)}"
        return f"Morphism({head}; {clauses})" if clauses else f"Morphism({head})"


def make(source: WeilObject, target: WeilObject, images, check: bool = True) -> Morphism:
    """Build a morphism from per-generator images: a Polynomial, a
    mask->coeff dict, or ``(mask, coeff)`` pairs (repeated masks add up)."""
    if source.rig is not target.rig:
        raise TypeMismatch("source and target rigs differ")
    raw = []
    for i, img in enumerate(images, start=1):
        if isinstance(img, Polynomial):
            if img.ambient != target:
                raise TypeMismatch("image polynomial lives in the wrong ambient")
            if img.constant != 0:  # a constant survives squaring
                raise RelationViolation(i, i, poly_mul(img, img))
            raw.append(poly_trusted(img.as_dict()))
        else:
            raw.append(poly_trusted(checked_terms(target, img)))
    if len(raw) != source.n:
        raise TypeMismatch(f"expected {source.n} images, got {len(raw)}")
    f = Morphism(source, target, tuple(raw))
    if check:
        _check_relations(f)
    return f


def _check_relations(f: Morphism) -> None:
    dicts = f.image_dicts()
    tgt = f.target
    squares = [(i, i) for i in range(1, len(dicts) + 1)]
    for i, j in squares + list(f.source.graph.edges):
        prod = dict_mul(dicts[i - 1], dicts[j - 1], tgt)
        if prod:
            raise RelationViolation(i, j, poly(tgt, prod))


# ---------------------------------------------------------------------------
# basic constructions

def identity(obj: WeilObject) -> Morphism:
    return Morphism(obj, obj, tuple(intern_image(((1 << i, 1),)) for i in range(obj.n)))


def zero_map(source: WeilObject, target: WeilObject) -> Morphism:
    return Morphism(source, target, ((),) * source.n)


def eps(obj: WeilObject) -> Morphism:
    """The augmentation: every generator to 0 in the base rig."""
    return zero_map(obj, algebra_of(K, obj.rig))


def unit_map(target: WeilObject) -> Morphism:
    """The unique map out of the base rig (no generators to send anywhere)."""
    return Morphism(algebra_of(K, target.rig), target, ())


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f, by substituting g's images into f's image polynomials.

    The composite needs no relation check.  Take two equal or adjacent
    generators of f's source: the product of their f-images is zero, and
    neither rig has cancellation, so every product of a monomial of one
    image with a monomial of the other dies in f's target.  The product of
    their g-images therefore holds ``g(y)^2``, or ``g(y) g(y')`` for an edge
    ``y y'``, which is zero because g is valid; so the composite's product
    of the two images, a sum of these, is zero."""
    if f.target != g.source:
        raise TypeMismatch("compose needs f.target == g.source (same cotree and rig)")
    rig = f.rig
    tgt = g.target
    g_dicts = g.image_dicts()
    out_images = []
    for terms in f.raw:
        acc: dict[int, int] = {}
        for mask, coeff in terms:
            # the monomial's product starts at the image of its lowest generator
            bit = mask & -mask
            term = g_dicts[bit.bit_length() - 1]
            m = mask ^ bit
            while m and term:
                bit = m & -m
                term = dict_mul(term, g_dicts[bit.bit_length() - 1], tgt)
                m ^= bit
            dict_add_into(acc, term, rig, coeff)
        out_images.append(poly_trusted(acc))
    return Morphism(f.source, tgt, tuple(out_images))


def tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    """Componentwise tensor; g's target generators shift past f's."""
    if f.rig is not g.rig:
        raise TypeMismatch("tensor requires matching rigs")
    source = algebra_of(tensor(f.source.cotree, g.source.cotree), f.rig)
    target = algebra_of(tensor(f.target.cotree, g.target.cotree), f.rig)
    shift = f.target.n
    images = list(f.raw)
    for terms in g.raw:
        images.append(poly_trusted({mask << shift: c for mask, c in terms}))
    return Morphism(source, target, tuple(images))


def projection(prod: WeilObject, side: int) -> Morphism:
    """Product projection: keep one side's generators, kill the other's."""
    t = prod.cotree
    if t.kind != "join":
        raise TypeMismatch(f"projection needs a product object, got {format_cotree(t)}")
    if side not in (1, 2):
        raise TypeMismatch("side must be 1 or 2")
    _, _, _, t1, t2, s1, s2 = split_layout(prod)
    splice, kept = (s1, t1) if side == 1 else (s2, t2)
    return compose_restriction(splice, kept, identity(prod))


class Splice(namedtuple("Splice", "at width")):
    """A block splice, the shape of every restriction the kernel composes
    after: ``pair_layout``'s projections, the pullback legs and the
    equaliser's arrows.  As a restriction it kills the ``width`` generators
    from bit ``at`` on and moves those above them down; its inverse, the
    matching embedding, opens that block.  Both keep plain integer mask order."""

    __slots__ = ()

    def project(self, mask: int) -> int:
        """The restriction's image of a monomial: 0 when it meets the block."""
        at, w = self
        low = (1 << at) - 1
        return 0 if mask >> at & ((1 << w) - 1) else mask & low | mask >> w & ~low


# Per-image tables of the two splice kernels: a sweep restricts and pairs a
# few thousand distinct images hundreds of thousands of times.  Keys are the
# image tuples' values, not their ids, so a key stays right for a Morphism
# built from fresh, un-interned tuples.  Like ``weilalg._IMAGES`` they grow
# with the distinct images and have no bound.  Only ``pair_into`` fills
# ``_PAIRED``, after its shared-context check passes, so the round trip's
# check of a split still glues afresh.
_RESTRICTED: dict[Splice, dict[tuple, tuple]] = {}
_PAIRED: dict[tuple[Splice, Splice], dict[tuple, tuple]] = {}


def compose_restriction(splice: Splice, target: WeilObject, f: Morphism) -> Morphism:
    """Compose the restriction ``splice`` after ``f``.

    A monomial survives only when it misses the killed block, and distinct
    survivors stay distinct, so this is a plain mask remap; a splice keeps
    the mask order too, so its images need no sort."""
    table = _RESTRICTED.get(splice)
    if table is None:
        table = _RESTRICTED[splice] = {}
    images = []
    for terms in f.raw:
        img = table.get(terms)
        if img is None:
            at, w = splice
            low, block = (1 << at) - 1, ((1 << w) - 1) << at
            kept = []
            for m, c in terms:
                if not m & block:
                    kept.append((m & low | m >> w & ~low, c))
            img = table[terms] = intern_image(tuple(kept))
        images.append(img)
    return Morphism(f.source, target, tuple(images))


def pair_into(f1: Morphism, f2: Morphism, at: int = 0, k1: int = 1, k2: int = 1) -> Morphism:
    """Induced map into a product formed inside a common tensor context.

    ``at == 0`` is the plain product: target ``T1 x T2``, image sums.  For
    ``at = t >= 1`` the targets must agree except on a block of tensor
    factors starting at position t (``k1`` factors of the first target,
    ``k2`` of the second), and the result lands in the object with that
    block replaced by the product of the two variants -- the pullback of
    the augmentations, tensored with the untouched context.  The
    shared-context parts of the two images must agree, or ``TypeMismatch``
    is raised; everything else is glued.

    The result needs no relation or re-projection check.  ``B1 x B2`` is a
    join, so every non-zero monomial of the target misses one of the two
    blocks and survives that side's projection, which is injective on the
    monomials it keeps.  A relation's image thus maps monomial by monomial
    into the same relation's image under ``f1`` or ``f2``, which is zero;
    and each projection returns ``f1`` or ``f2`` by construction.
    """
    if f1.source != f2.source:
        raise TypeMismatch("pair needs a common source")
    if f1.rig is not f2.rig:
        raise TypeMismatch("pair requires matching rigs")
    target, proj1, proj2 = pair_layout(f1.target, f2.target, at, k1, k2)
    table = _PAIRED.get((proj1, proj2))
    if table is None:
        table = _PAIRED[proj1, proj2] = {}
    images = []
    for key in zip(f1.raw, f2.raw):
        img = table.get(key)
        if img is None:
            # each side embeds by opening the block that its projection
            # kills; f1's own block is its bits from at2 up to at1, and f2's
            # the w1 bits from at2
            (at1, w1), (at2, w2) = proj1, proj2
            low1, low2 = (1 << at1) - 1, (1 << at2) - 1
            block1, block2 = low1 ^ low2, ((1 << w1) - 1) << at2
            terms1, terms2 = key
            out, ctx1, ctx2 = [], [], []
            for m, c in terms1:
                t = (m & low1 | (m & ~low1) << w1, c)
                out.append(t)
                if not m & block1:
                    ctx1.append(t)
            for m, c in terms2:
                t = (m & low2 | (m & ~low2) << w2, c)
                if m & block2:
                    out.append(t)
                else:
                    ctx2.append(t)
            if ctx1 != ctx2:
                raise TypeMismatch("pair components disagree over the shared context")
            out.sort()  # even at 0: the entry serves every layout with these splices
            img = table[key] = intern_image(tuple(out))
        images.append(img)
    return Morphism(f1.source, target, tuple(images))


@lru_cache(maxsize=None)
def pair_layout(o1: WeilObject, o2: WeilObject, at: int, k1: int = 1, k2: int = 1):
    """The pair target and the two ``Splice``s of its projections onto
    ``o1`` and ``o2``: each kills the other side's block, and its inverse
    embeds its own side."""
    f1l, f2l = factors(o1.cotree), factors(o2.cotree)
    if at == 0:
        # the plain product: the block pair of the whole targets, with an
        # empty context
        at, k1, k2 = 1, len(f1l), len(f2l)
    if not (1 <= at and at - 1 + k1 <= len(f1l) and at - 1 + k2 <= len(f2l)):
        raise TypeMismatch("pair factor block does not fit the targets")
    prefix = f1l[: at - 1]
    suffix = f1l[at - 1 + k1 :]
    if f2l[: at - 1] != prefix or f2l[at - 1 + k2 :] != suffix:
        raise TypeMismatch("pair targets do not share a tensor context")
    b1 = tensor(*f1l[at - 1 : at - 1 + k1])
    b2 = tensor(*f2l[at - 1 : at - 1 + k2])
    target = tensor(*prefix, join(b1, b2), *suffix)
    np = sum(leaves(p) for p in prefix)
    nb1, nb2 = leaves(b1), leaves(b2)
    return algebra_of(target, o1.rig), Splice(np + nb1, nb2), Splice(np, nb1)


@lru_cache(maxsize=None)
def split_layout(obj: WeilObject):
    """How ``obj`` splits at its first product factor, as the pair it is
    built from: ``(at, k1, k2, t1, t2, s1, s2)`` such that
    ``pair_layout(t1, t2, at, k1, k2)`` is ``(obj, s1, s2)``; None for a
    flat tensor, which has no product factor."""
    facts = factors(obj.cotree)
    t = next((i for i, p in enumerate(facts, start=1) if p.kind == "join"), None)
    if t is None:
        return None
    prod = facts[t - 1]
    b1 = prod.parts[0]
    b2 = join(*prod.parts[1:])
    t1 = algebra_of(tensor(*facts[: t - 1], b1, *facts[t:]), obj.rig)
    t2 = algebra_of(tensor(*facts[: t - 1], b2, *facts[t:]), obj.rig)
    if len(facts) == 1:
        at, k1, k2 = 0, 1, 1
    else:
        at, k1, k2 = t, len(factors(b1)), len(factors(b2))
    _, s1, s2 = pair_layout(t1, t2, at, k1, k2)
    return at, k1, k2, t1, t2, s1, s2


# ---------------------------------------------------------------------------
# the five generating maps

def generators(rig: Rig = Rig.BOOL2) -> dict[str, Morphism]:
    """The generating maps: augmentation, unit, addition, vertical lift, flip."""
    w = algebra_of(W, rig)
    w2 = algebra_of(n_join(2), rig)
    ww = algebra_of(n_tensor(2), rig)
    return {
        "eps_W": eps(w),
        "eta_W": unit_map(w),
        "plus_W": make(w2, w, [{1: 1}, {1: 1}]),
        "l_W": make(w, ww, [{0b11: 1}]),
        "c_W": make(ww, ww, [{0b10: 1}, {0b01: 1}]),
    }


def ghat(r: int, rig: Rig = Rig.NAT) -> Morphism:
    """The coefficient map W -> W with x -> r x (x -> psi(r) x over {0,1})."""
    if r < 0:
        raise ValueError("ghat needs a natural number")
    w = algebra_of(W, rig)
    return make(w, w, [{1: r if rig is Rig.NAT else psi(r)}])


# ---------------------------------------------------------------------------
# Kleisli correspondence

class KleisliMap(namedtuple("KleisliMap", "source target assignment")):
    """Graph map G_A -> kappa(G_B): each source vertex gets a clique of
    independent sets of G_B (a sorted tuple of masks; empty tuple for zero)."""

    __slots__ = ()


def to_kleisli(f: Morphism) -> KleisliMap:
    """Forget coefficients: generator i goes to the clique of its term supports."""
    if f.rig is not Rig.BOOL2:
        for terms in f.raw:
            if any(c > 1 for _, c in terms):
                raise RigMismatch("to_kleisli needs {0,1} coefficients")
    assignment = tuple(
        tuple(sorted((mask for mask, _ in terms), key=mask_key)) for terms in f.raw
    )
    return KleisliMap(f.source.graph, f.target.graph, assignment)


def from_kleisli(m: KleisliMap, a: WeilObject, b: WeilObject) -> Morphism:
    """Rebuild the {0,1}-coefficient morphism from a graph map into kappa."""
    if a.graph != m.source or b.graph != m.target:
        raise TypeMismatch("kleisli map does not match the given objects")
    images = [{mask: 1 for mask in cl} for cl in m.assignment]
    return make(a, b, images)


def kleisli_identity(g: Graph) -> KleisliMap:
    return KleisliMap(g, g, tuple((1 << i,) for i in range(g.n)))


def kleisli_compose(m2: KleisliMap, m1: KleisliMap) -> KleisliMap:
    """Direct graph-level composite through kappa.

    A source vertex's clique is pushed forward one independent set at a
    time: each vertex inside a set picks one of its own assigned sets, and a
    choice survives when the picks are pairwise disjoint and their union is
    independent in the final graph.
    """
    if m1.target != m2.source:
        raise TypeMismatch("kleisli composition needs matching middle graph")
    tgt = m2.target
    out = []
    for cl in m1.assignment:
        result: set[int] = set()
        for u_mask in cl:
            partial = {0}
            m = u_mask
            while m:
                bit = m & -m
                choices = m2.assignment[bit.bit_length() - 1]
                nxt = set()
                for prev in partial:
                    for q in choices:
                        if prev & q:
                            continue
                        union = prev | q
                        if is_independent(tgt, union):
                            nxt.add(union)
                partial = nxt
                if not partial:
                    break
                m ^= bit
            result.update(mk for mk in partial if mk)
        out.append(tuple(sorted(result, key=mask_key)))
    return KleisliMap(m1.source, tgt, tuple(out))


# ---------------------------------------------------------------------------
# rig change

def lift_to_nat(f: Morphism) -> Morphism:
    """The NAT morphism with the same action on generators (fullness witness)."""
    src = algebra_of(f.source.cotree, Rig.NAT)
    tgt = algebra_of(f.target.cotree, Rig.NAT)
    images = [dict(terms) for terms in f.raw]
    return make(src, tgt, images)


def project_to_bool2(f: Morphism) -> Morphism:
    """Push a NAT morphism along the rig morphism to {0,1} coefficients."""
    src = algebra_of(f.source.cotree, Rig.BOOL2)
    tgt = algebra_of(f.target.cotree, Rig.BOOL2)
    images = [{mask: psi(c) for mask, c in terms} for terms in f.raw]
    return make(src, tgt, images)
