"""Term language of the built-in toy prover.

Grammar (lowest to highest precedence):

    term    ::= conj '->' term | conj          (right associative)
    conj    ::= conj '/\\' eq | eq             (left associative)
    eq      ::= atom '=' atom | atom           (non associative)
    atom    ::= IDENT | '(' term ')'

Printing emits a canonical form with minimal parentheses that parses back
to an equal tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class TermParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Atom(Term):
    name: str


@dataclass(frozen=True)
class Implies(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class And(Term):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Eq(Term):
    lhs: Term
    rhs: Term


_PREC_IMPLIES = 1
_PREC_AND = 2
_PREC_EQ = 3
_PREC_ATOM = 4


def _prec(term: Term) -> int:
    if isinstance(term, Implies):
        return _PREC_IMPLIES
    if isinstance(term, And):
        return _PREC_AND
    if isinstance(term, Eq):
        return _PREC_EQ
    return _PREC_ATOM


def print_term(term: Term, memo: dict | None = None) -> str:
    """Canonical text form; parse_term(print_term(t)) == t.

    `memo`, when given, maps `id(t)` to `(t, text)` for compound terms
    already printed; it is read and filled at every node, so a subterm
    object is printed once however many terms share it. The caller owns it
    (the toy kernel keeps one per episode), and the text is the same with
    or without it."""
    if isinstance(term, Atom):
        return term.name
    if memo is not None:
        hit = memo.get(id(term))
        if hit is not None:
            return hit[1]
    if isinstance(term, Implies):
        # right associative: a left child that is itself an implication needs parens
        text = f"{_wrap(term.lhs, _PREC_AND, memo)} -> {_wrap(term.rhs, _PREC_IMPLIES, memo)}"
    elif isinstance(term, And):
        text = (f"{_wrap(term.lhs, _PREC_AND, memo)} /\\ "
                f"{_wrap(term.rhs, _PREC_AND + 1, memo)}")
    elif isinstance(term, Eq):
        text = (f"{_wrap(term.lhs, _PREC_EQ + 1, memo)} = "
                f"{_wrap(term.rhs, _PREC_EQ + 1, memo)}")
    else:
        raise TypeError(f"not a term: {term!r}")
    if memo is not None:
        memo[id(term)] = (term, text)
    return text


def _wrap(term: Term, min_prec: int, memo: dict | None) -> str:
    text = print_term(term, memo)
    if _prec(term) < min_prec:
        return f"({text})"
    return text


_TOKEN_RE = re.compile(r"\s*(->|/\\|=|\(|\)|[A-Za-z_][A-Za-z0-9_']*)")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:]
            if rest.strip():
                bad = pos + len(rest) - len(rest.lstrip())  # past the whitespace at `pos`
                raise TermParseError(f"unexpected character {text[bad]!r}", bad)
            break
        tokens.append((match.group(1), match.start(1)))
        pos = match.end()
    return tokens


def parse_term(text: str) -> Term:
    tokens = _tokenize(text)
    term, index = _parse_implies(text, tokens, 0)
    if index != len(tokens):
        raise TermParseError(f"unexpected token {tokens[index][0]!r}", tokens[index][1])
    return term


def _parse_implies(text, tokens, index):
    lhs, index = _parse_conj(text, tokens, index)
    if index < len(tokens) and tokens[index][0] == "->":
        rhs, index = _parse_implies(text, tokens, index + 1)
        return Implies(lhs, rhs), index
    return lhs, index


def _parse_conj(text, tokens, index):
    lhs, index = _parse_eq(text, tokens, index)
    while index < len(tokens) and tokens[index][0] == "/\\":
        rhs, index = _parse_eq(text, tokens, index + 1)
        lhs = And(lhs, rhs)
    return lhs, index


def _parse_eq(text, tokens, index):
    lhs, index = _parse_atom(text, tokens, index)
    if index < len(tokens) and tokens[index][0] == "=":
        rhs, index = _parse_atom(text, tokens, index + 1)
        return Eq(lhs, rhs), index
    return lhs, index


def _parse_atom(text, tokens, index):
    if index >= len(tokens):
        raise TermParseError("unexpected end of input; expected a term", len(text))
    token, position = tokens[index]
    if token == "(":
        term, index = _parse_implies(text, tokens, index + 1)
        if index >= len(tokens) or tokens[index][0] != ")":
            raise TermParseError("expected ')'", tokens[index][1] if index < len(tokens) else len(text))
        return term, index + 1
    if token in ("->", "/\\", "=", ")"):
        raise TermParseError(f"unexpected token {token!r}; expected a term", position)
    return Atom(token), index + 1
