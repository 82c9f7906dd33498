"""Finite signatures and finite structures.

Domains are dense integer ranges 0..n-1.  All relation tuple sets are kept in
sorted order so that equal structures serialize to identical bytes.  Values
are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import functools
import json
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType

__all__ = [
    "Signature",
    "Structure",
    "StructureError",
    "validate_structure",
    "relational_companion",
    "signature_to_dict",
    "signature_from_dict",
    "structure_to_dict",
    "structure_from_dict",
    "structure_to_json",
    "structure_from_json",
]

# Symbol names must be usable in the formula grammar: identifiers that are
# neither the quantifier keyword nor shaped like a variable token (x0, x1, ...).
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_VAR_RE = re.compile(r"x[0-9]+\Z")


class StructureError(ValueError):
    """Raised when a signature or structure violates its invariants."""


@contextmanager
def _malformed(what: str):
    """Report a wrongly typed or missing field of a parsed document as a
    StructureError instead of the Python error it triggers."""
    try:
        yield
    except StructureError:
        raise
    except KeyError as e:
        raise StructureError(f"malformed {what}: missing key {e}") from e
    except (ValueError, TypeError, AttributeError) as e:
        raise StructureError(f"malformed {what}: {e}") from e


def _integer(value, what: str) -> int:
    """A JSON integer; true and false are rejected, not read as 1 and 0."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructureError(f"{what} must be an integer, got {value!r}")
    return value


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise StructureError(f"invalid symbol name {name!r}")
    if _VAR_RE.match(name) or name == "exists":
        raise StructureError(f"symbol name {name!r} collides with formula syntax")
    return name


@dataclass(frozen=True)
class Signature:
    """A finite vocabulary: relation symbols with arities, unary function
    symbols, and constant symbols.  Names are unique across all three kinds."""

    relations: tuple[tuple[str, int], ...] = ()
    functions: tuple[str, ...] = ()
    constants: tuple[str, ...] = ()
    # arities: relation name -> arity, derived in __post_init__ so lookups
    # during parsing and evaluation are one dict access
    arities: dict[str, int] = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = [n for n, _ in self.relations] + list(self.functions) + list(self.constants)
        for n in names:
            _check_name(n)
        if len(set(names)) != len(names):
            raise StructureError("symbol names must be unique across kinds")
        for name, arity in self.relations:
            if arity < 1:
                raise StructureError(f"relation {name!r} must have arity >= 1")
        self.arities.update(self.relations)

    def relation_arity(self, name: str) -> int:
        try:
            return self.arities[name]
        except KeyError:
            raise StructureError(f"unknown relation symbol {name!r}") from None

    def has_relation(self, name: str) -> bool:
        return name in self.arities

    def has_function(self, name: str) -> bool:
        return name in self.functions

    def has_constant(self, name: str) -> bool:
        return name in self.constants

    def arity_index(self, name: str) -> tuple[int, int]:
        """Position of a relation as (arity, index among same-arity symbols)."""
        arity = self.relation_arity(name)
        same = [n for n, k in self.relations if k == arity]
        return arity, same.index(name)


@dataclass(frozen=True)
class Structure:
    """A finite interpretation of a signature on the domain 0..size-1.

    ``repetition_free`` records whether relation tuples are required to have
    pairwise distinct entries.  Tuple sets are stored sorted; equality of two
    structures is equality of interpretations, not isomorphism.  The relation
    columns and the sort partition are derived on first use and stored on
    the instance, so every reader of one structure shares one of each.
    """

    sig: Signature
    size: int
    relations: dict[str, tuple[tuple[int, ...], ...]] = field(default_factory=dict)
    functions: dict[str, tuple[int, ...]] = field(default_factory=dict)
    constants: dict[str, int] = field(default_factory=dict)
    repetition_free: bool = True
    # relation_sets: per-relation frozensets, derived in __post_init__ for
    # fast membership tests during formula evaluation
    relation_sets: dict[str, frozenset] = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise StructureError("domain size must be non-negative")
        rels: dict[str, tuple[tuple[int, ...], ...]] = {}
        for name, arity in self.sig.relations:
            tuples = self.relations.get(name, ())
            seen = set()
            for t in tuples:
                t = tuple(t)
                if len(t) != arity:
                    raise StructureError(
                        f"arity mismatch: relation {name!r} expects {arity} entries, got {t}"
                    )
                for x in t:
                    if not (0 <= x < self.size):
                        raise StructureError(
                            f"out-of-range element {x} in relation {name!r} tuple {t}"
                        )
                if self.repetition_free and len(set(t)) != len(t):
                    raise StructureError(
                        f"repeated entry in relation {name!r} tuple {t} "
                        "(structure is repetition-free)"
                    )
                seen.add(t)
            rels[name] = tuple(sorted(seen))
        unknown = set(self.relations) - {n for n, _ in self.sig.relations}
        if unknown:
            raise StructureError(f"unknown relation symbols {sorted(unknown)}")
        object.__setattr__(self, "relations", rels)

        funcs: dict[str, tuple[int, ...]] = {}
        for name in self.sig.functions:
            if name not in self.functions:
                raise StructureError(f"non-total function: {name!r} has no interpretation")
            images = tuple(self.functions[name])
            if len(images) != self.size:
                raise StructureError(
                    f"non-total function: {name!r} defined on {len(images)} of {self.size} elements"
                )
            for x in images:
                if not (0 <= x < self.size):
                    raise StructureError(f"out-of-range element {x} in function {name!r}")
            funcs[name] = images
        unknown = set(self.functions) - set(self.sig.functions)
        if unknown:
            raise StructureError(f"unknown function symbols {sorted(unknown)}")
        object.__setattr__(self, "functions", funcs)

        consts: dict[str, int] = {}
        for name in self.sig.constants:
            if name not in self.constants:
                raise StructureError(f"constant {name!r} has no interpretation")
            v = self.constants[name]
            if not (0 <= v < self.size):
                raise StructureError(f"out-of-range element {v} for constant {name!r}")
            consts[name] = v
        unknown = set(self.constants) - set(self.sig.constants)
        if unknown:
            raise StructureError(f"unknown constant symbols {sorted(unknown)}")
        object.__setattr__(self, "constants", consts)
        object.__setattr__(
            self, "relation_sets", {n: frozenset(ts) for n, ts in rels.items()}
        )

    @classmethod
    def _generated(cls, sig, size, relations, functions, constants) -> Structure:
        """A structure the library generated itself, with sorted tuple sets in
        range: laid out in signature order and not checked again; never
        repetition-free.  Every input path goes through the checked form."""
        M = object.__new__(cls)
        rels = {n: relations[n] for n, _ in sig.relations}
        M.__dict__.update(sig=sig, size=size, relations=rels,
                          functions={f: functions[f] for f in sig.functions},
                          constants=constants, repetition_free=False,
                          relation_sets={n: frozenset(ts) for n, ts in rels.items()})
        return M

    @functools.cached_property
    def relation_columns(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        """Each relation's tuples as columns, entry p of every tuple in
        tuple order; none for an empty relation.  Built on first use."""
        return {n: tuple(zip(*ts)) for n, ts in self.relations.items()}

    @functools.cached_property
    def sort_partition(self) -> MappingProxyType:
        """formulas.sort_partition(self), read-only: atomic type -> sorted
        block, blocks by least element.  Built on first use."""
        # looked up at call time: formulas imports this module
        from .formulas import sort_partition

        return MappingProxyType(sort_partition(self))

    @property
    def domain(self) -> range:
        return range(self.size)

    def is_relational(self) -> bool:
        return not self.sig.functions and not self.sig.constants


def validate_structure(sig: Signature, raw: dict) -> Structure:
    """Build a Structure from already-parsed JSON data, rejecting anything
    that violates the invariants with a diagnostic."""
    if not isinstance(raw, dict):
        raise StructureError("structure data must be a JSON object")
    allowed = {"domain", "relations", "functions", "constants", "repetition_free"}
    unknown = set(raw) - allowed - {"signature"}
    if unknown:
        raise StructureError(f"unknown keys {sorted(unknown)} in structure data")
    if "domain" not in raw:
        raise StructureError("missing or non-integer 'domain'")
    size = _integer(raw["domain"], "'domain'")
    repetition_free = raw.get("repetition_free", True)
    if not isinstance(repetition_free, bool):
        raise StructureError(
            f"'repetition_free' must be true or false, got {repetition_free!r}"
        )
    with _malformed("structure data"):
        relations = {
            k: tuple(tuple(_integer(x, f"entry of relation {k!r}") for x in t) for t in v)
            for k, v in raw.get("relations", {}).items()
        }
        functions = {
            k: tuple(_integer(x, f"image under function {k!r}") for x in v)
            for k, v in raw.get("functions", {}).items()
        }
        constants = {
            k: _integer(x, f"constant {k!r}")
            for k, x in dict(raw.get("constants", {})).items()
        }
        return Structure(
            sig=sig,
            size=size,
            relations=relations,
            functions=functions,
            constants=constants,
            repetition_free=repetition_free,
        )


def relational_companion(M: Structure) -> Structure:
    """Replace every unary function by its graph relation and every constant
    by a singleton unary relation, yielding a purely relational structure on
    the same domain.

    The companion determines M: functions are recoverable as graphs of total
    functional relations and constants from their singletons.  Graphs contain
    pairs like (x, x), so the companion is never marked repetition-free.
    """
    rel_syms = list(M.sig.relations)
    rel_syms += [(f, 2) for f in M.sig.functions]
    rel_syms += [(c, 1) for c in M.sig.constants]
    sig = Signature(relations=tuple(rel_syms))
    rels: dict[str, tuple[tuple[int, ...], ...]] = dict(M.relations)
    for f in M.sig.functions:
        rels[f] = tuple((x, M.functions[f][x]) for x in M.domain)
    for c in M.sig.constants:
        rels[c] = ((M.constants[c],),)
    return Structure._generated(sig, M.size, rels, {}, {})


# -- serialization ----------------------------------------------------------
#
# File format: a UTF-8 JSON document
#   {"signature": {"relations": [{"name": "R", "arity": 2}],
#                  "functions": [{"name": "f"}], "constants": [{"name": "c"}]},
#    "domain": 2, "relations": {"R": [[0, 1]]}, "functions": {}, "constants": {},
#    "repetition_free": true}
# Unknown keys are rejected.


def signature_to_dict(sig: Signature) -> dict:
    return {
        "relations": [{"name": n, "arity": k} for n, k in sig.relations],
        "functions": [{"name": n} for n in sig.functions],
        "constants": [{"name": n} for n in sig.constants],
    }


def signature_from_dict(data: dict) -> Signature:
    if not isinstance(data, dict):
        raise StructureError("'signature' must be a JSON object")
    unknown = set(data) - {"relations", "functions", "constants"}
    if unknown:
        raise StructureError(f"unknown keys {sorted(unknown)} in signature")

    def names(entries: list, extra: set[str]) -> list[dict]:
        out = []
        for e in entries:
            if not isinstance(e, dict) or set(e) - extra - {"name"}:
                raise StructureError(f"bad signature entry {e!r}")
            out.append(e)
        return out

    with _malformed("signature"):
        rels = names(data.get("relations", []), {"arity"})
        fns = names(data.get("functions", []), set())
        cons = names(data.get("constants", []), set())
        return Signature(
            relations=tuple(
                (e["name"], _integer(e["arity"], f"arity of {e['name']!r}")) for e in rels
            ),
            functions=tuple(e["name"] for e in fns),
            constants=tuple(e["name"] for e in cons),
        )


def structure_to_dict(M: Structure) -> dict:
    return {
        "signature": signature_to_dict(M.sig),
        "domain": M.size,
        "relations": {n: [list(t) for t in ts] for n, ts in M.relations.items()},
        "functions": {n: list(v) for n, v in M.functions.items()},
        "constants": dict(M.constants),
        "repetition_free": M.repetition_free,
    }


def structure_from_dict(data: dict) -> Structure:
    if not isinstance(data, dict) or "signature" not in data:
        raise StructureError("structure document needs a 'signature' key")
    sig = signature_from_dict(data["signature"])
    return validate_structure(sig, data)


def structure_to_json(M: Structure) -> str:
    return json.dumps(structure_to_dict(M), sort_keys=True, indent=2)


def structure_from_json(text: str) -> Structure:
    try:
        data = json.loads(text)
    # besides syntax errors: ValueError for an integer past the digit limit,
    # RecursionError for arrays or objects nested too deeply
    except (ValueError, RecursionError) as e:
        raise StructureError(f"not valid JSON: {e}") from e
    return structure_from_dict(data)
