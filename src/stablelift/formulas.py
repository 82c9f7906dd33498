"""Formula language over a finite signature: AST, parser, evaluator,
definable sets, and atomic one-variable types.

Grammar (whitespace insignificant, constants appear as bare names):

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

import functools
import itertools
import re
from dataclasses import dataclass

from .structures import Signature, Structure

__all__ = [
    "Var",
    "Apply",
    "Const",
    "Term",
    "Equal",
    "Rel",
    "Not",
    "And",
    "Or",
    "Exists",
    "Formula",
    "FormulaError",
    "ParseError",
    "parse_formula",
    "format_formula",
    "free_variables",
    "inert_variables",
    "free_width",
    "eval_formula",
    "definable_set",
    "conjunction",
    "tautology",
    "contradiction",
    "AtomicType",
    "atomic_type",
    "atomic_formula_basis",
    "group_by_columns",
    "sort_partition",
]


class FormulaError(ValueError):
    """Raised for ill-formed formulas or evaluation errors."""


class ParseError(FormulaError):
    """Syntax error with a 1-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


# -- terms and formulas ------------------------------------------------------


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class Apply:
    func: str
    arg: "Term"


@dataclass(frozen=True)
class Const:
    name: str


Term = Var | Apply | Const


@dataclass(frozen=True)
class Equal:
    left: Term
    right: Term


@dataclass(frozen=True)
class Rel:
    name: str
    args: tuple[Term, ...]


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    parts: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise FormulaError("empty conjunction")


@dataclass(frozen=True)
class Or:
    parts: tuple["Formula", ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise FormulaError("empty disjunction")


@dataclass(frozen=True)
class Exists:
    var: int
    body: "Formula"


Formula = Equal | Rel | Not | And | Or | Exists


def _term_vars(t: Term) -> frozenset[int]:
    if isinstance(t, Var):
        return frozenset((t.index,))
    if isinstance(t, Apply):
        return _term_vars(t.arg)
    return frozenset()


def free_variables(phi: Formula) -> frozenset[int]:
    if isinstance(phi, Equal):
        return _term_vars(phi.left) | _term_vars(phi.right)
    if isinstance(phi, Rel):
        return frozenset().union(*map(_term_vars, phi.args)) if phi.args else frozenset()
    if isinstance(phi, Not):
        return free_variables(phi.body)
    if isinstance(phi, (And, Or)):
        return frozenset().union(*map(free_variables, phi.parts))
    if isinstance(phi, Exists):
        return free_variables(phi.body) - {phi.var}
    raise FormulaError(f"not a formula: {phi!r}")


def inert_variables(phi: Formula) -> frozenset[int]:
    """Free variables whose value cannot change phi's truth: every occurrence
    is in an atom xq = xq and no Exists binds the index."""

    def live(psi: Formula) -> frozenset[int]:
        # indices outside reflexive atoms, and every index an Exists binds
        if isinstance(psi, Equal):
            if isinstance(psi.left, Var) and psi.left == psi.right:
                return frozenset()
            return _term_vars(psi.left) | _term_vars(psi.right)
        if isinstance(psi, Not):
            return live(psi.body)
        if isinstance(psi, (And, Or)):
            return frozenset().union(*map(live, psi.parts))
        if isinstance(psi, Exists):
            return live(psi.body) | {psi.var}
        return free_variables(psi)

    return free_variables(phi) - live(phi)


def free_width(phi: Formula) -> int:
    """The n such that phi's free variables are exactly x0..x(n-1); a gap is
    an error."""
    fv = free_variables(phi)
    n = max(fv) + 1 if fv else 0
    if fv != frozenset(range(n)):
        missing = sorted(set(range(n)) - fv)
        raise FormulaError(f"free-variable gap: missing x{missing[0]}")
    return n


def conjunction(parts: list[Formula]) -> Formula:
    """Conjunction builder that never produces a one-part And (a lone part is
    returned as-is so printed formulas re-parse to the same AST)."""
    if not parts:
        raise FormulaError("empty conjunction")
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def tautology(nvars: int) -> Formula:
    """True everywhere, mentioning exactly the variables x0..x(nvars-1)."""
    return conjunction([Equal(Var(i), Var(i)) for i in range(nvars)])


def contradiction(nvars: int) -> Formula:
    """False everywhere, mentioning exactly the variables x0..x(nvars-1)."""
    return conjunction(
        [Equal(Var(i), Var(i)) for i in range(nvars)] + [Not(Equal(Var(0), Var(0)))]
    )


# -- parser ------------------------------------------------------------------

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


def _format_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Apply):
        return f"{t.func}({_format_term(t.arg)})"
    return t.name


def format_formula(phi: Formula) -> str:
    """Render a formula so that parse_formula(format_formula(phi)) == phi."""
    return _format(phi, top=True)


def _format(phi: Formula, top: bool = False) -> str:
    if isinstance(phi, Equal):
        return f"{_format_term(phi.left)} = {_format_term(phi.right)}"
    if isinstance(phi, Rel):
        return f"{phi.name}({', '.join(map(_format_term, phi.args))})"
    if isinstance(phi, Not):
        body = _format(phi.body)
        if isinstance(phi.body, (And, Or, Exists)):
            body = f"({body})"
        return f"~{body}"
    if isinstance(phi, And):
        rendered = [
            f"({_format(p)})" if isinstance(p, (And, Or, Exists)) else _format(p)
            for p in phi.parts
        ]
        return " & ".join(rendered)
    if isinstance(phi, Or):
        rendered = [
            f"({_format(p)})" if isinstance(p, (Or, Exists)) else _format(p)
            for p in phi.parts
        ]
        return " | ".join(rendered)
    if isinstance(phi, Exists):
        inner = f"exists x{phi.var}. {_format(phi.body, top=True)}"
        return inner if top else f"({inner})"
    raise FormulaError(f"not a formula: {phi!r}")


# -- evaluation --------------------------------------------------------------


def _eval_term(M: Structure, t: Term, v: dict[int, int]) -> int:
    if isinstance(t, Var):
        if t.index not in v:
            raise FormulaError(f"uncovered free variable x{t.index}")
        return v[t.index]
    if isinstance(t, Apply):
        if not M.sig.has_function(t.func):
            raise FormulaError(f"unknown function symbol {t.func!r}")
        return M.functions[t.func][_eval_term(M, t.arg, v)]
    if not M.sig.has_constant(t.name):
        raise FormulaError(f"unknown constant symbol {t.name!r}")
    return M.constants[t.name]


def eval_formula(M: Structure, phi: Formula, v: dict[int, int] | None = None) -> bool:
    """Classical satisfaction; Exists ranges over the full domain."""
    v = v or {}
    if isinstance(phi, Equal):
        return _eval_term(M, phi.left, v) == _eval_term(M, phi.right, v)
    if isinstance(phi, Rel):
        if not M.sig.has_relation(phi.name):
            raise FormulaError(f"unknown relation symbol {phi.name!r}")
        if len(phi.args) != M.sig.relation_arity(phi.name):
            raise FormulaError(f"arity mismatch for {phi.name!r}")
        return tuple(_eval_term(M, t, v) for t in phi.args) in M.relation_sets[phi.name]
    if isinstance(phi, Not):
        return not eval_formula(M, phi.body, v)
    if isinstance(phi, And):
        return all(eval_formula(M, p, v) for p in phi.parts)
    if isinstance(phi, Or):
        return any(eval_formula(M, p, v) for p in phi.parts)
    if isinstance(phi, Exists):
        return any(eval_formula(M, phi.body, {**v, phi.var: a}) for a in M.domain)
    raise FormulaError(f"not a formula: {phi!r}")


def definable_set(M: Structure, phi: Formula) -> tuple[tuple[int, ...], ...]:
    """All tuples satisfying phi, in lexicographic order.

    The free variables must be exactly x0..x(n-1); a gap is an error.
    """
    n = free_width(phi)
    # set(M.relations[...]) lookups inside eval dominate; fine at desk scale.
    return tuple(
        tup
        for tup in itertools.product(M.domain, repeat=n)
        if eval_formula(M, phi, dict(enumerate(tup)))
    )


# -- atomic one-variable types -----------------------------------------------


@dataclass(frozen=True)
class AtomicType:
    """The canonically ordered set of atomic one-free-variable formulas (term
    depth at most one) satisfied by an element.  Hashable and totally ordered
    so types can key partitions and serialized sort tables."""

    formulas: tuple[Formula, ...]

    # formatted once per instance: keys order sorts and label every
    # translation of a serialized scheme
    @functools.cached_property
    def key(self) -> tuple[str, ...]:
        return tuple(format_formula(f) for f in self.formulas)

    def __contains__(self, phi: Formula) -> bool:
        return phi in set(self.formulas)

    def __lt__(self, other: "AtomicType") -> bool:
        return self.key < other.key

    # types key sort partitions and translation tables; rehashing the
    # formula trees on every lookup dominated scheme validation
    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.formulas,))

    def __hash__(self) -> int:
        return self._hash


@functools.lru_cache(maxsize=None)
def atomic_formula_basis(sig: Signature) -> tuple[Formula, ...]:
    """All atomic formulas in the single free variable x0, with terms of
    function-nesting depth at most 1: the variable itself, one function
    application to it, and bare constants.  Canonically ordered.

    Term depth one is enough to separate every sort a lift construction
    needs while keeping the basis size signature-bounded.
    """
    terms: list[Term] = [Var(0)]
    terms += [Apply(f, Var(0)) for f in sig.functions]
    terms += [Const(c) for c in sig.constants]

    def mentions_var(t: Term) -> bool:
        return bool(_term_vars(t))

    basis: list[Formula] = []
    for i, t in enumerate(terms):
        for t2 in terms[i:]:
            if mentions_var(t) or mentions_var(t2):
                basis.append(Equal(t, t2))
    for name, arity in sig.relations:
        for args in itertools.product(terms, repeat=arity):
            if any(mentions_var(a) for a in args):
                basis.append(Rel(name, args))
    basis.sort(key=format_formula)
    return tuple(basis)


def atomic_type(M: Structure, a: int) -> AtomicType:
    """The atomic one-variable type of an element: which basis formulas hold
    of it."""
    if not (0 <= a < M.size):
        raise FormulaError(f"element {a} outside domain of size {M.size}")
    sat = [
        phi for phi in atomic_formula_basis(M.sig) if eval_formula(M, phi, {0: a})
    ]
    return AtomicType(tuple(sat))


def group_by_columns(size: int, columns) -> dict[tuple, list[int]]:
    """Group the elements 0..size-1 by their row across the given columns
    (one value per element each).  Blocks come in order of least element,
    each in increasing order; with no columns every element shares the
    empty row."""
    rows = zip(*columns) if columns else itertools.repeat((), size)
    blocks: dict[tuple, list[int]] = {}
    for a, row in zip(range(size), rows):
        blocks.setdefault(row, []).append(a)
    return blocks


def sort_partition(M: Structure) -> dict[AtomicType, tuple[int, ...]]:
    """Partition the domain by atomic type ("sorts").  Blocks are returned
    ordered by least element; each block is sorted.

    Each term and each basis formula is evaluated once as a column over the
    whole domain; ``atomic_type`` is the per-element reference."""
    basis = atomic_formula_basis(M.sig)
    columns: dict[Term, list[int]] = {Var(0): list(M.domain)}

    def column(t: Term) -> list[int]:
        if t not in columns:
            if isinstance(t, Apply):
                images = M.functions[t.func]
                columns[t] = [images[x] for x in column(t.arg)]
            else:
                columns[t] = [M.constants[t.name]] * M.size
        return columns[t]

    truth = []
    for phi in basis:
        if isinstance(phi, Equal):
            truth.append([a == b for a, b in zip(column(phi.left), column(phi.right))])
        else:
            held = M.relation_sets[phi.name]
            truth.append([t in held for t in zip(*map(column, phi.args))])
    return {
        AtomicType(tuple(itertools.compress(basis, row))): tuple(block)
        for row, block in group_by_columns(M.size, truth).items()
    }
