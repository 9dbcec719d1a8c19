"""Role-free concept language: parsing, printing, evaluation.

Grammar (ASCII, whitespace-insensitive)::

    query      :=  inclusion | concept
    inclusion  :=  "T" "(" concept ")" "<=" concept      defeasible
                |  concept "<=" concept                  strict
    concept    :=  atom ("&" atom)*                      conjunction, one node
    atom       :=  "Top" | "Bot" | NAME | "(" concept ")"
    NAME       :=  [A-Za-z_][A-Za-z0-9_]*

``T`` marks typicality and may wrap exactly the whole left-hand side of a
defeasible inclusion, nowhere else.  ``Top``, ``Bot`` and ``T`` are reserved
words, so category labels must be ordinary identifiers distinct from them.
Parentheses may nest at most ``MAX_NESTING`` levels deep; a conjunction may
have any number of conjuncts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InputError, ParseError, UnknownCategoryError
from .model import RESERVED_WORDS as RESERVED
from .model import SemanticModel

__all__ = [
    "ConceptExpr",
    "Top",
    "Bot",
    "Name",
    "And",
    "Inclusion",
    "parse_query",
    "pretty",
    "inclusion_text",
    "extension_mask",
]

# The deepest parenthesis nesting the parser accepts.  Each level costs a
# few interpreter frames in the parser, printer and evaluator and in the
# generated __hash__, __eq__ and __repr__, so the bound keeps well below
# the interpreter's default recursion limit of 1000.
MAX_NESTING = 200


# ==============================================================
# Syntax trees
# ==============================================================


class ConceptExpr:
    """Base class of concept syntax trees."""

    __slots__ = ()


@dataclass(frozen=True)
class Top(ConceptExpr):
    pass


@dataclass(frozen=True)
class Bot(ConceptExpr):
    pass


@dataclass(frozen=True)
class Name(ConceptExpr):
    name: str


@dataclass(frozen=True)
class And(ConceptExpr):
    """Two or more parts; a conjunction passed last is spliced in, so
    ``And(a, And(b, c)) == And(a, b, c)``, while ``And(And(a, b), c)``
    keeps ``a & b`` as a part."""

    parts: tuple[ConceptExpr, ...]

    def __init__(self, *parts: ConceptExpr):
        if len(parts) < 2:
            raise InputError(f"a conjunction needs two or more parts, got {len(parts)}")
        if isinstance(parts[-1], And):
            parts = parts[:-1] + parts[-1].parts
        object.__setattr__(self, "parts", parts)


@dataclass(frozen=True)
class Inclusion:
    """A strict inclusion ``lhs <= rhs`` or a defeasible one
    ``T(lhs) <= rhs``; for the defeasible kind ``lhs`` is the concept inside
    the typicality operator."""

    kind: str  # "strict" | "defeasible"
    lhs: ConceptExpr
    rhs: ConceptExpr

    def __post_init__(self):
        if self.kind not in ("strict", "defeasible"):
            raise InputError(f"unknown inclusion kind {self.kind!r}")


# ==============================================================
# Lexer / parser
# ==============================================================

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<NAME>[A-Za-z_][A-Za-z0-9_]*)|(?P<ARROW><=)|(?P<AMP>&)|(?P<LP>\()|(?P<RP>\)))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            bad_pos = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r}", pos=bad_pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("EOF", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0  # parentheses open around the current position

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            got = tok[1] or "end of input"
            raise ParseError(f"expected {what}, got {got!r}", pos=tok[2])
        return tok

    def atom(self) -> ConceptExpr:
        kind, text, pos = self.next()
        if kind == "NAME":
            if text == "Top":
                return Top()
            if text == "Bot":
                return Bot()
            if text == "T" and self.peek()[0] == "LP":
                raise ParseError(
                    "typicality T(...) may only wrap the whole left-hand side "
                    "of a defeasible inclusion",
                    pos=pos,
                )
            if text in RESERVED:
                raise ParseError(f"{text!r} is a reserved word", pos=pos)
            return Name(text)
        if kind == "LP":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} levels", pos=pos)
            self.depth += 1
            inner = self.concept()
            self.expect("RP", "')'")
            self.depth -= 1
            return inner
        got = text or "end of input"
        raise ParseError(f"expected a concept, got {got!r}", pos=pos)

    def concept(self) -> ConceptExpr:
        parts = [self.atom()]
        while self.peek()[0] == "AMP":
            self.next()
            parts.append(self.atom())
        return And(*parts) if len(parts) > 1 else parts[0]

    def query(self) -> Union[ConceptExpr, Inclusion]:
        kind, text, _pos = self.peek()
        if kind == "NAME" and text == "T" and self.tokens[self.i + 1][0] == "LP":
            self.next()  # T
            self.next()  # (
            lhs = self.concept()
            self.expect("RP", "')'")
            self.expect("ARROW", "'<='")
            rhs = self.concept()
            self.expect("EOF", "end of input")
            return Inclusion(kind="defeasible", lhs=lhs, rhs=rhs)
        lhs = self.concept()
        nxt = self.next()
        if nxt[0] == "EOF":
            return lhs
        if nxt[0] == "ARROW":
            rhs = self.concept()
            self.expect("EOF", "end of input")
            return Inclusion(kind="strict", lhs=lhs, rhs=rhs)
        raise ParseError(f"expected '<=' or end of input, got {nxt[1]!r}", pos=nxt[2])


def parse_query(text: str) -> Union[ConceptExpr, Inclusion]:
    """Parse either a bare concept or an inclusion."""
    return _Parser(text).query()


# ==============================================================
# Printing
# ==============================================================


def pretty(expr: ConceptExpr) -> str:
    """Concrete syntax for an AST; re-parsing the result gives an identical
    tree.  A part of a conjunction that is itself one is parenthesised."""
    if isinstance(expr, And):
        return " & ".join(f"({pretty(p)})" if isinstance(p, And) else pretty(p)
                          for p in expr.parts)
    if isinstance(expr, Top):
        return "Top"
    if isinstance(expr, Bot):
        return "Bot"
    if isinstance(expr, Name):
        return expr.name
    raise InputError(f"not a concept expression: {expr!r}")


def inclusion_text(inc: Inclusion) -> str:
    if inc.kind == "defeasible":
        return f"T({pretty(inc.lhs)}) <= {pretty(inc.rhs)}"
    return f"{pretty(inc.lhs)} <= {pretty(inc.rhs)}"


# ==============================================================
# Evaluation
# ==============================================================


def extension_mask(model: SemanticModel, expr: ConceptExpr) -> np.ndarray:
    """The set of domain elements the concept denotes in the model, as a
    boolean mask over ``model.element_ids``: a name reads its row of
    ``model.ext`` (read-only), a conjunction ANDs the masks of its parts,
    left to right."""
    if isinstance(expr, And):
        mask = extension_mask(model, expr.parts[0])
        for part in expr.parts[1:]:
            mask = mask & extension_mask(model, part)
        return mask
    if isinstance(expr, Top):
        return np.ones(len(model.element_ids), dtype=bool)
    if isinstance(expr, Bot):
        return np.zeros(len(model.element_ids), dtype=bool)
    if isinstance(expr, Name):
        try:
            return model.ext[model.row_of[expr.name]]
        except KeyError:
            raise UnknownCategoryError(
                f"concept name {expr.name!r} is not a learned category"
            ) from None
    raise InputError(f"not a concept expression: {expr!r}")
