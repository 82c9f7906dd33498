"""Formula language over a finite signature: AST, printer, evaluator,
definable sets, and atomic one-variable types.

Formulas are built as trees; ``format_formula`` prints one in the grammar
that README documents.  The library reads no formula text: the parser of
that grammar is a test fixture.
Generated scheme formulas hold their padding as one ``Padded`` node,
printed as the conjunction it stands for; the parser fixture reads that
text back as the expanded ``And``.
"""

from __future__ import annotations

import itertools
import operator
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
    "Padded",
    "Formula",
    "FormulaError",
    "format_formula",
    "free_variables",
    "inert_variables",
    "free_width",
    "eval_formula",
    "definable_set",
    "AtomicType",
    "atomic_formula_basis",
    "group_by_columns",
    "sort_partition",
    "sort_blocks",
]


class FormulaError(ValueError):
    """Raised for ill-formed formulas or evaluation errors."""


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


@dataclass(frozen=True)
class Padded:
    """The conjunction x0 = x0 & ... & x(width-1) = x(width-1) & core...,
    held as one node: the first ``width`` variables are free, and only the
    core's variables are read."""

    width: int
    core: tuple["Formula", ...] = ()

    def __post_init__(self) -> None:
        if self.width < 1:
            raise FormulaError("padding width must be positive")


Formula = Equal | Rel | Not | And | Or | Exists | Padded


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
    if isinstance(phi, Padded):
        return frozenset(range(phi.width)).union(*map(free_variables, phi.core))
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
        if isinstance(psi, Padded):
            return frozenset().union(*map(live, psi.core))
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


# -- printing ----------------------------------------------------------------


def _format_term(t: Term) -> str:
    if isinstance(t, Var):
        return f"x{t.index}"
    if isinstance(t, Apply):
        return f"{t.func}({_format_term(t.arg)})"
    return t.name


def format_formula(phi: Formula) -> str:
    """Render a formula in README's grammar, so that parsing the text gives
    phi back."""
    return _format(phi, top=True)


def _grouped(phi: Formula) -> bool:
    """Whether phi takes parentheses as a conjunct or under ~: it prints as
    a conjunction of two or more parts (Padded(1) prints as x0 = x0), a
    disjunction or an exists."""
    if isinstance(phi, Padded):
        return phi.width + len(phi.core) > 1
    return isinstance(phi, (And, Or, Exists))


def _conjuncts(parts: tuple[Formula, ...]) -> list[str]:
    return [f"({_format(p)})" if _grouped(p) else _format(p) for p in parts]


def _format(phi: Formula, top: bool = False) -> str:
    if isinstance(phi, Equal):
        return f"{_format_term(phi.left)} = {_format_term(phi.right)}"
    if isinstance(phi, Rel):
        return f"{phi.name}({', '.join(map(_format_term, phi.args))})"
    if isinstance(phi, Not):
        body = _format(phi.body)
        return f"~({body})" if _grouped(phi.body) else f"~{body}"
    if isinstance(phi, And):
        return " & ".join(_conjuncts(phi.parts))
    if isinstance(phi, Padded):
        q = list(map(str, range(phi.width)))  # x0 = x0 & ..., joined at C level
        return " & ".join(["x" + " & x".join(map(" = x".join, zip(q, q))), *_conjuncts(phi.core)])
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
    if isinstance(phi, Padded):
        if not all(map(v.__contains__, range(phi.width))):
            raise FormulaError(f"uncovered free variable x{min(set(range(phi.width)) - v.keys())}")
        return all(eval_formula(M, p, v) for p in phi.core)
    raise FormulaError(f"not a formula: {phi!r}")


def definable_set(M: Structure, phi: Formula) -> tuple[tuple[int, ...], ...]:
    """All tuples satisfying phi, in lexicographic order.

    The free variables must be exactly x0..x(n-1); a gap is an error.
    """
    n = free_width(phi)
    # one tree walk per tuple, over frozensets built once per structure
    # (M.relation_sets); fine at desk scale.
    return tuple(
        tup
        for tup in itertools.product(M.domain, repeat=n)
        if eval_formula(M, phi, dict(enumerate(tup)))
    )


# -- atomic one-variable types -----------------------------------------------


# The atomic one-variable type of an element, and the key of its sort: the
# printed basis atoms it satisfies, in basis order.  Basis atoms print
# distinctly, so two types are equal exactly when their keys are; tuples of
# str hash in C and order sorts and serialized tables canonically.
AtomicType = tuple[str, ...]


def _basis_atoms(sig: Signature) -> list[tuple[str | None, tuple[int, ...]]]:
    """The atoms of atomic_formula_basis, in the order it builds them, over
    term indices: term 0 is x0, then f(x0) per function symbol, then the
    constants.  (None, (i, j)) is t_i = t_j and (R, args) is R of the terms
    ``args``; each mentions x0, that is, a term below ``1 + |functions|``."""
    free = 1 + len(sig.functions)
    n = free + len(sig.constants)
    atoms: list[tuple[str | None, tuple[int, ...]]] = [
        (None, (i, j)) for i in range(free) for j in range(i, n)
    ]
    atoms += [
        (name, args)
        for name, arity in sig.relations
        for args in itertools.product(range(n), repeat=arity)
        if min(args) < free
    ]
    return atoms


def _printed_basis(sig: Signature) -> list[tuple[str, Formula, tuple]]:
    """(printed form, formula, atom) per atom of _basis_atoms, sorted by
    printed form."""
    terms: list[Term] = [Var(0), *(Apply(f, Var(0)) for f in sig.functions), *map(Const, sig.constants)]
    basis = []
    for atom in _basis_atoms(sig):
        name, args = atom
        args = tuple(map(terms.__getitem__, args))
        phi = Equal(*args) if name is None else Rel(name, args)
        basis.append((format_formula(phi), phi, atom))
    return sorted(basis, key=lambda entry: entry[0])


def atomic_formula_basis(sig: Signature) -> tuple[tuple[str, Formula], ...]:
    """All atomic formulas in the single free variable x0, with terms of
    function-nesting depth at most 1: the variable itself, one function
    application to it, and bare constants.  Each comes with its printed
    form, which orders the basis canonically.

    Term depth one is enough to separate every sort a lift construction
    needs while keeping the basis size signature-bounded.
    """
    return tuple((text, phi) for text, phi, _ in _printed_basis(sig))


def _truth_columns(M: Structure, atoms) -> list:
    """Each atom's truth over the domain, a column of one value per element:
    every term is a column over the whole domain, x0 the domain itself."""
    sig = M.sig
    terms = [M.domain, *map(M.functions.__getitem__, sig.functions)]
    terms += [[M.constants[c]] * M.size for c in sig.constants]
    return [
        map(operator.eq, *map(terms.__getitem__, args)) if name is None
        else map(M.relation_sets[name].__contains__, zip(*map(terms.__getitem__, args)))
        for name, args in atoms
    ]


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

    Each basis formula is evaluated once as a column over the whole domain;
    tests/references.py keeps the per-element tree walk as the reference."""
    basis = _printed_basis(M.sig)
    truth = _truth_columns(M, [atom for _, _, atom in basis])
    texts = [text for text, _, _ in basis]
    return {
        tuple(itertools.compress(texts, row)): tuple(block)
        for row, block in group_by_columns(M.size, truth).items()
    }


def sort_blocks(M: Structure) -> list[list[int]]:
    """The blocks of sort_partition(M) in its order, without their keys:
    no basis formula is built or printed."""
    return [*group_by_columns(M.size, _truth_columns(M, _basis_atoms(M.sig))).values()]
