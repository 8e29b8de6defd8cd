"""Text forms: parsing for objects, morphisms and decomposition expressions,
plus the canonical morphism printer.

Objects: ``k``, ``W``, ``nW``, ``W^n``, ``*`` for product, ``@`` for tensor,
parentheses for grouping; ``*`` binds tighter than ``@``.

Morphisms: ``f : 2W -> 3W ; x1 |-> y1 y2 + y2 y3 ; x2 |-> y1 + y1 y3``.
Generators are positional; any letter names work (``x1``/``y1``/``z2``), the
index is what counts, and a bare letter means index 1.  Juxtaposition is
monomial product, ``+`` separates terms, an optional leading integer is a
coefficient (needs the nat rig when above 1), ``0`` is the zero polynomial,
and a missing clause sends a generator to 0.

Expressions: prefix form, e.g. ``comp(tensor(id(W), eta), l)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rig import Rig, check_coeff
from .cograph import TooLarge
from .cotree import Cotree, K, W, join, n_tensor, tensor, format_cotree
from .weilalg import algebra_of, format_poly
from . import genexpr as ge
from . import morphism as mor
from .morphism import Morphism


class DslSyntaxError(ValueError):
    """Parse failure with position information."""

    def __init__(self, message: str, line: int, col: int, expected: str | None = None):
        self.line = line
        self.col = col
        self.expected = expected
        suffix = f" (expected {expected})" if expected else ""
        super().__init__(f"{message} at line {line}, column {col}{suffix}")


@dataclass(frozen=True)
class _Token:
    kind: str  # INT | NAME | SYM | EOF
    text: str
    line: int
    col: int


# most leaves (W factors) one input may spell with ``nW`` and ``W^n``, checked
# before the leaves are built: W^1000000 still parses (in under a second),
# W^999999999 would exhaust memory
LEAF_BUDGET = 1_000_000
# most parentheses one input may hold open at once: the parser, the printers and
# cotree equality recurse per level, and past about 120 exhaust the stack
NESTING_BUDGET = 100

_SYMBOLS = ("|->", "->", "(", ")", "^", "*", "@", ":", ";", ",", "+", "-")


def _tokenize(text: str) -> list[_Token]:
    out = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        matched = None
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                matched = sym
                break
        if matched:
            out.append(_Token("SYM", matched, line, col))
            i += len(matched)
            col += len(matched)
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", line, col)
    out.append(_Token("EOF", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.leaves = 0  # W factors spelled by counts so far, against LEAF_BUDGET
        self.depth = 0  # parentheses open now, against NESTING_BUDGET

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise DslSyntaxError(f"unexpected {tok.text or 'end of input'!r}",
                                 tok.line, tok.col, expected=want)
        return self.next()

    def open_paren(self) -> None:
        """Consume ``(``, refused with TooLarge past NESTING_BUDGET open ones."""
        tok = self.expect("SYM", "(")
        self.depth += 1
        if self.depth > NESTING_BUDGET:
            raise TooLarge(f"more than {NESTING_BUDGET} nested parentheses at line {tok.line},"
                           f" column {tok.col} (dsl.NESTING_BUDGET)")

    def close_paren(self) -> None:
        self.expect("SYM", ")")
        self.depth -= 1

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "SYM" and tok.text == text

    def done(self) -> bool:
        return self.peek().kind == "EOF"

    # objects -------------------------------------------------------------

    def object_expr(self) -> Cotree:
        parts = [self.object_term()]
        while self.at_sym("@"):
            self.next()
            parts.append(self.object_term())
        return tensor(*parts)

    def object_term(self) -> Cotree:
        parts = [self.object_factor()]
        while self.at_sym("*"):
            self.next()
            parts.append(self.object_factor())
        return join(*parts)

    def object_factor(self) -> Cotree:
        tok = self.peek()
        if tok.kind == "SYM" and tok.text == "(":
            self.open_paren()
            inner = self.object_expr()
            self.close_paren()
            return inner
        if tok.kind == "INT":
            self.next()
            w = self.expect("NAME")
            if w.text != "W":
                raise DslSyntaxError(f"unexpected {w.text!r}", w.line, w.col, expected="W")
            return n_tensor(self.leaf_count(tok))
        if tok.kind == "NAME" and tok.text == "k":
            self.next()
            return K
        if tok.kind == "NAME" and tok.text == "W":
            self.next()
            if self.at_sym("^"):
                self.next()
                power = self.expect("INT")
                return join(*([W] * self.leaf_count(power)))
            return W
        raise DslSyntaxError(f"unexpected {tok.text or 'end of input'!r}",
                             tok.line, tok.col, expected="an object")

    def leaf_count(self, tok: _Token) -> int:
        """The count in ``nW`` or ``W^n``, refused with TooLarge when the
        input's counted leaves would pass LEAF_BUDGET."""
        n = int(tok.text)
        self.leaves += n
        if self.leaves > LEAF_BUDGET:
            raise TooLarge(f"{self.leaves} leaves at line {tok.line}, column {tok.col}"
                           f" exceed the budget of {LEAF_BUDGET}")
        return n

    # morphisms -----------------------------------------------------------

    def morphism(self, rig: Rig) -> Morphism:
        self.expect("NAME")
        self.expect("SYM", ":")
        src_tree = self.object_expr()
        self.expect("SYM", "->")
        tgt_tree = self.object_expr()
        src = algebra_of(src_tree, rig)
        tgt = algebra_of(tgt_tree, rig)
        images: dict[int, list[tuple[int, int]]] = {}
        while self.at_sym(";"):
            self.next()
            gen_tok = self.expect("NAME")
            i = self._gen_index(gen_tok, src.n)
            if i in images:
                raise DslSyntaxError(f"duplicate clause for generator {gen_tok.text}",
                                     gen_tok.line, gen_tok.col)
            self.expect("SYM", "|->")
            images[i] = self._poly(tgt.n, rig)
        end = self.peek()
        if end.kind != "EOF":
            raise DslSyntaxError(f"unexpected {end.text!r}", end.line, end.col, expected="';'")
        return mor.validate(src, tgt, [images.get(i, []) for i in range(1, src.n + 1)])

    def _gen_index(self, tok: _Token, bound: int) -> int:
        name = tok.text
        alpha = name.rstrip("0123456789")
        digits = name[len(alpha):]
        if not alpha.isalpha():
            raise DslSyntaxError(f"bad generator name {name!r}", tok.line, tok.col)
        idx = int(digits) if digits else 1
        if not 1 <= idx <= bound:
            raise DslSyntaxError(f"generator {name!r} out of range 1..{bound}",
                                 tok.line, tok.col)
        return idx

    def _poly(self, bound: int, rig: Rig) -> list[tuple[int, int]]:
        """The ``(mask, coeff)`` pairs of one image; ``make`` merges them.
        Each coefficient is checked here, so a bad one is reported before
        any later syntax error."""
        tok = self.peek()
        if tok.kind == "INT" and tok.text == "0" and not self._term_continues(1):
            self.next()
            return []
        terms = []
        while True:
            mask, coeff = self._term(bound)
            check_coeff(coeff, rig)
            terms.append((mask, coeff))
            if self.at_sym("+"):
                self.next()
                continue
            return terms

    def _term_continues(self, offset: int) -> bool:
        tok = self.tokens[self.pos + offset]
        return tok.kind in ("NAME", "INT")

    def _term(self, bound: int) -> tuple[int, int]:
        coeff = 1
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            coeff = int(tok.text)
        mask = 0
        saw = False
        while self.peek().kind == "NAME":
            gen_tok = self.next()
            idx = self._gen_index(gen_tok, bound)
            bit = 1 << (idx - 1)
            if mask & bit:
                raise DslSyntaxError(f"generator {gen_tok.text!r} repeated in a monomial",
                                     gen_tok.line, gen_tok.col)
            mask |= bit
            saw = True
        if not saw:
            tok = self.peek()
            raise DslSyntaxError(f"unexpected {tok.text or 'end of input'!r}",
                                 tok.line, tok.col, expected="a monomial")
        return mask, coeff

    # expressions ----------------------------------------------------------

    def genexpr(self) -> ge.GenExpr:
        tok = self.expect("NAME")
        name = tok.text
        leaves = {"eps": ge.Eps, "eta": ge.Eta, "plus": ge.Plus, "l": ge.L, "c": ge.C}
        if name in leaves:
            return leaves[name]
        if name == "id":
            self.open_paren()
            obj = self.object_expr()
            self.close_paren()
            return ge.Id(obj)
        if name == "ghat":
            self.open_paren()
            r = self.expect("INT")
            self.close_paren()
            return ge.Ghat(int(r.text))
        if name == "proj":
            self.open_paren()
            obj = self.object_expr()
            self.expect("SYM", ",")
            side = self.expect("INT")
            self.close_paren()
            return ge.Proj(obj, int(side.text))
        if name in ("tensor", "comp", "pair"):
            self.open_paren()
            e1 = self.genexpr()
            self.expect("SYM", ",")
            e2 = self.genexpr()
            self.close_paren()
            if name == "tensor":
                return ge.Tensor(e1, e2)
            if name == "comp":
                return ge.Compose(e1, e2)
            return ge.Pair(e1, e2)
        if name == "pairat":
            self.open_paren()
            at = int(self.expect("INT").text)
            self.expect("SYM", ",")
            k1 = int(self.expect("INT").text)
            self.expect("SYM", ",")
            k2 = int(self.expect("INT").text)
            self.expect("SYM", ",")
            e1 = self.genexpr()
            self.expect("SYM", ",")
            e2 = self.genexpr()
            self.close_paren()
            return ge.Pair(e1, e2, at, k1, k2)
        raise DslSyntaxError(f"unknown expression head {name!r}", tok.line, tok.col)


def parse_object(text: str) -> Cotree:
    p = _Parser(text)
    obj = p.object_expr()
    tok = p.peek()
    if tok.kind != "EOF":
        raise DslSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col, expected="end of input")
    return obj


def parse_morphism(text: str, rig: Rig = Rig.BOOL2) -> Morphism:
    return _Parser(text).morphism(rig)


def parse_genexpr(text: str) -> ge.GenExpr:
    p = _Parser(text)
    e = p.genexpr()
    tok = p.peek()
    if tok.kind != "EOF":
        raise DslSyntaxError(f"unexpected {tok.text!r}", tok.line, tok.col, expected="end of input")
    return e


def format_morphism(f: Morphism, name: str = "f") -> str:
    head = (f"{name} : {format_cotree(f.source.cotree)}"
            f" -> {format_cotree(f.target.cotree)}")
    clauses = [f"x{i} |-> {format_poly(p)}" for i, p in enumerate(f.images, start=1)]
    return " ; ".join([head] + clauses)
