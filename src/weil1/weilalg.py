"""Presented algebras k[G] and the square-free nilpotent polynomial arithmetic.

Every object carries a cotree and its realised graph; the relations are
exactly ``x_u x_v = 0`` for edges (u, v) and ``x_v^2 = 0`` for every vertex.
Monomials are therefore identified with non-empty independent sets, stored
as bitmasks, and reduction is a single rule: a product dies when its factors
overlap or touch an edge.

Terms come in two orders.  Internally, a morphism image is a tuple of
``(mask, coeff)`` pairs with no zero coefficient, sorted by plain integer
mask: ``poly_trusted`` makes it from a mask->coeff dict (the form
``dict_mul`` and composition compute in), and equality is tuple equality.
The public ``Polynomial`` sorts its terms by size, then lexicographic
members (``size_lex``), which is the order the printers show and ``terms``
iterates.

Internal images are hash-consed: ``intern_image`` returns the one stored
tuple for an image value, and every image the kernel builds passes through
it, so the morphisms and caches of a sweep share one tuple per distinct
image (a few thousand) instead of holding hundreds of thousands of copies.
Equality, hashing and order are unchanged; a fresh copy is freed by
reference counting as soon as it is replaced.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from . import rig as rig_mod
from .rig import Rig
from .cograph import Frozen, Graph, is_independent, mask_key, vertices_of
from .cotree import Cotree, realize, format_cotree


class WeilObject(Frozen):
    """An object of the category: a cotree together with its coefficient rig."""

    _fields = ("cotree", "rig")

    @cached_property
    def graph(self) -> Graph:
        return realize(self.cotree)

    @property
    def n(self) -> int:
        return self.graph.n

    def __repr__(self) -> str:
        return f"WeilObject({format_cotree(self.cotree)}, {self.rig})"


def algebra_of(t: Cotree, rig: Rig = Rig.BOOL2) -> WeilObject:
    """The algebra presented by cotree ``t``: K is the rig itself, W is
    k[x]/x^2.  The one interned ``WeilObject`` for the pair, so the graph
    it realises is built once."""
    return WeilObject(t, rig)


def presentation(obj: WeilObject) -> str:
    """Textual presentation, e.g. ``k[x1,x2]/x1^2,x2^2,x1x2``."""
    n = obj.n
    if n == 0:
        return "k[]"
    gens = ",".join(f"x{i}" for i in range(1, n + 1))
    rels = [f"x{i}^2" for i in range(1, n + 1)]
    rels += [f"x{u}x{v}" for u, v in sorted(obj.graph.edges)]
    return f"k[{gens}]/" + ",".join(rels)


# ---------------------------------------------------------------------------
# monomials

def mono_mul(u: int, v: int, obj: WeilObject) -> int:
    """Product of two monomial masks in ``obj``; 0 when a square or relation hits."""
    if (obj.graph.neighbourhood(u) | u) & v:
        return 0
    return u | v


# ---------------------------------------------------------------------------
# polynomials

class Polynomial(Frozen):
    """Normal-form rig combination of square-free monomials plus a constant.

    This is the public form: ``terms`` holds no zero coefficient and is
    sorted by size, then lexicographic members (``mask_key``), so term
    indices and printed text follow that order."""

    __slots__ = _fields = ("ambient", "constant", "terms")

    def is_zero(self) -> bool:
        return self.constant == 0 and not self.terms

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)})"


# the term order's sort key, memoised for size_lex alone: ``kappa_labels``
# sorts every clique it lists by ``mask_key``, which a shared cache would keep
_term_key = lru_cache(maxsize=None)(mask_key)


def size_lex(terms) -> tuple[tuple[int, int], ...]:
    """``(mask, coeff)`` pairs in the public order: size, then lexicographic members."""
    return tuple(sorted(terms, key=lambda mc: _term_key(mc[0])))


def checked_terms(ambient: WeilObject, terms) -> dict[int, int]:
    """Merge a mask->coeff mapping (or pair list) into a term dict, checking
    every coefficient against the rig and every monomial against the ambient."""
    items = terms.items() if isinstance(terms, dict) else terms
    merged: dict[int, int] = {}
    for mask, coeff in items:
        rig_mod.check_coeff(coeff, ambient.rig)
        if coeff == 0:
            continue
        if not (0 < mask <= ambient.graph.full_mask and is_independent(ambient.graph, mask)):
            raise ValueError(f"monomial {vertices_of(mask)} is not independent in ambient")
        merged[mask] = rig_mod.add(merged.get(mask, 0), coeff, ambient.rig)
    return merged


def poly(ambient: WeilObject, terms=(), constant: int = 0) -> Polynomial:
    """Build a polynomial in normal form from a mask->coeff mapping."""
    rig_mod.check_coeff(constant, ambient.rig)
    return Polynomial(ambient, constant, size_lex(checked_terms(ambient, terms).items()))


_IMAGES: dict[tuple, tuple] = {}


def intern_image(terms: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """The one stored tuple equal to the internal image ``terms``."""
    return _IMAGES.setdefault(terms, terms)


def poly_trusted(term_dict: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """The internal normal form of a term dict produced inside the kernel
    (masks already reduced, coefficients already in the rig, none zero):
    its ``(mask, coeff)`` pairs sorted by plain integer mask, interned."""
    return intern_image(tuple(sorted(term_dict.items())))


def zero_poly(ambient: WeilObject) -> Polynomial:
    return poly(ambient)


def gen_poly(ambient: WeilObject, i: int) -> Polynomial:
    """The generator x_i as a polynomial."""
    if not 1 <= i <= ambient.n:
        raise ValueError(f"generator index {i} out of range 1..{ambient.n}")
    return poly(ambient, [(1 << (i - 1), 1)])


def _term_dict(p: Polynomial) -> dict[int, int]:
    # the constant rides along as the empty monomial 0, which the kernel
    # multiplies and adds like any other mask
    d = p.as_dict()
    if p.constant:
        d[0] = p.constant
    return d


def _from_term_dict(ambient: WeilObject, d: dict[int, int]) -> Polynomial:
    # the kernel's output is already valid: independent masks, non-zero
    # coefficients in the rig, and the constant under mask 0
    constant = d.pop(0, 0)
    return Polynomial(ambient, constant, size_lex(d.items()))


def poly_add(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.ambient != q.ambient:
        raise ValueError("polynomial addition needs a common ambient")
    out = _term_dict(p)
    dict_add_into(out, _term_dict(q), p.ambient.rig)
    return _from_term_dict(p.ambient, out)


def poly_mul(p: Polynomial, q: Polynomial) -> Polynomial:
    if p.ambient != q.ambient:
        raise ValueError("polynomial multiplication needs a common ambient")
    return _from_term_dict(p.ambient, dict_mul(_term_dict(p), _term_dict(q), p.ambient))


def format_poly(p: Polynomial) -> str:
    """Render in the DSL term syntax, e.g. ``y1 y2 + y2 y3``; zero prints ``0``."""
    parts = []
    if p.constant:
        parts.append(str(p.constant))
    for mask, coeff in p.terms:
        body = " ".join(f"y{v}" for v in vertices_of(mask))
        parts.append(body if coeff == 1 else f"{coeff} {body}")
    return " + ".join(parts) if parts else "0"


# the term-dict kernel: every product, sum and scaling of terms goes through
# these two functions.  A term dict maps monomial masks to non-zero rig
# coefficients; mask 0, the empty monomial, stands for a constant.

def dict_mul(a: dict[int, int], b: dict[int, int], obj: WeilObject) -> dict[int, int]:
    """Product of term dicts in ``obj``: ``u v`` dies when ``v`` meets ``u``
    or a neighbour of ``u``, and coefficients multiply."""
    nb = obj.graph.neighbourhood
    out: dict[int, int] = {}
    if obj.rig is Rig.BOOL2:
        for mu in a:
            kill = nb(mu) | mu
            for mv in b:
                if not kill & mv:
                    out[mu | mv] = 1
    else:
        for mu, cu in a.items():
            kill = nb(mu) | mu
            for mv, cv in b.items():
                if not kill & mv:
                    key = mu | mv
                    out[key] = out.get(key, 0) + cu * cv
    return out


def dict_add_into(dest: dict[int, int], src: dict[int, int], rig: Rig, scale: int = 1) -> None:
    """``dest += scale * src`` under the rig's addition; ``scale`` is a
    non-zero rig coefficient (so always 1 over bool2)."""
    if rig is Rig.BOOL2:
        for mask in src:
            dest[mask] = 1
    else:
        for mask, c in src.items():
            dest[mask] = dest.get(mask, 0) + scale * c
