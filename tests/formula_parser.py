"""The parser of the formula grammar that README documents, a test fixture.

The library builds formulas as trees and only prints them
(``stablelift.formulas.format_formula``); tests write formulas as text and
read printed ones back with ``parse_formula``.

    formula := disj
    disj    := conj ("|" conj)*
    conj    := lit ("&" lit)*
    lit     := "~" lit | "exists" var "." formula | atom | "(" formula ")"
    atom    := term "=" term | name "(" term ("," term)* ")"
    term    := var | name "(" term ")" | name
    var     := "x" digits

Whether a bare name is a relation, unary function, or constant is resolved
against the ambient signature, so parsing always takes a Signature.
"""

from __future__ import annotations

import re

from stablelift.formulas import (
    And,
    Apply,
    Const,
    Equal,
    Exists,
    Formula,
    FormulaError,
    Not,
    Or,
    Rel,
    Term,
    Var,
)
from stablelift.structures import Signature


class ParseError(FormulaError):
    """Syntax error with a 1-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


_TOKEN_RE = re.compile(r"\s*(?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[()=,.&|~]))")
_VAR_TOKEN = re.compile(r"x[0-9]+\Z")


class _Parser:
    def __init__(self, text: str, sig: Signature):
        self.text = text
        self.sig = sig
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.pos + 1)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_token(self) -> tuple[str, str]:
        """Return (kind, value) where kind is 'name' or 'punct'."""
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            self.skip_ws()
            raise self.error("unexpected character" if self.pos < len(self.text) else "unexpected end of input")
        self.pos = m.end()
        if m.group("name") is not None:
            return "name", m.group("name")
        return "punct", m.group("punct")

    def var_index(self, token: str, start: int) -> int:
        try:
            return int(token[1:])
        except ValueError:  # past the interpreter's integer digit limit
            self.pos = start
            raise self.error("variable index too large") from None

    def expect(self, punct: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != punct:
            raise self.error(f"expected {punct!r}")
        self.pos += 1

    def parse_formula(self) -> Formula:
        parts = [self.parse_conj()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self.parse_conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_conj(self) -> Formula:
        parts = [self.parse_lit()]
        while self.peek() == "&":
            self.pos += 1
            parts.append(self.parse_lit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_lit(self) -> Formula:
        c = self.peek()
        if c is None:
            raise self.error("unexpected end of input")
        if c == "~":
            self.pos += 1
            return Not(self.parse_lit())
        if c == "(":
            self.pos += 1
            phi = self.parse_formula()
            self.expect(")")
            return phi
        start = self.pos
        kind, value = self.take_token()
        if kind == "name" and value == "exists":
            self.skip_ws()
            vstart = self.pos
            vkind, vval = self.take_token()
            if vkind != "name" or not _VAR_TOKEN.match(vval):
                raise self.error("expected a variable after 'exists'")
            index = self.var_index(vval, vstart)
            self.expect(".")
            return Exists(index, self.parse_formula())
        self.pos = start
        return self.parse_atom()

    def parse_atom(self) -> Formula:
        self.skip_ws()
        start = self.pos
        kind, value = self.take_token()
        if kind != "name":
            self.pos = start
            raise self.error("expected an atom")
        if self.sig.has_relation(value) and self.peek() == "(":
            self.pos += 1
            args = [self.parse_term()]
            while self.peek() == ",":
                self.pos += 1
                args.append(self.parse_term())
            self.expect(")")
            arity = self.sig.relation_arity(value)
            if len(args) != arity:
                self.pos = start
                raise self.error(f"arity mismatch: {value!r} takes {arity} arguments, got {len(args)}")
            return Rel(value, tuple(args))
        self.pos = start
        left = self.parse_term()
        self.expect("=")
        right = self.parse_term()
        return Equal(left, right)

    def parse_term(self) -> Term:
        self.skip_ws()
        start = self.pos
        kind, value = self.take_token()
        if kind != "name":
            self.pos = start
            raise self.error("expected a term")
        if _VAR_TOKEN.match(value):
            return Var(self.var_index(value, start))
        if self.sig.has_function(value):
            self.expect("(")
            arg = self.parse_term()
            self.expect(")")
            return Apply(value, arg)
        if self.sig.has_constant(value):
            return Const(value)
        self.pos = start
        raise self.error(f"unknown symbol {value!r}")


def parse_formula(text: str, sig: Signature) -> Formula:
    """Parse a formula in the documented grammar over the given signature."""
    p = _Parser(text, sig)
    try:
        phi = p.parse_formula()
    except RecursionError:
        raise p.error("formula nested too deeply") from None
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return phi
