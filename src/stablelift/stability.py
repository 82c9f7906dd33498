"""Orbit censuses under pointwise stabilizers, quantifier-free type counts,
and the orbit-decomposition identity for lifts.

At finite scale the number of stabilizer orbits plays the role of a type
count: two elements are equivalent when some automorphism fixing the
parameter set carries one to the other.  For a lift with parameters inside
the base copy, those orbits decompose by sort: one for the anchor, the
source-structure orbits on the base copy, and per copy index the orbits of
the stabilizer acting on fiber tuples.  ``stability_report`` checks that
identity with stabilizers induced from Aut(M), searching no lift.  Extension
arguments that need saturated models have no finite counterpart; the
identity is the finite substitute, and every report header says so.  Each
census truth column is one map over term columns, and parameters are ints.
A census labels each element by its block and counts distinct labels per
sort, and a report decomposes each distinct stabilizer once per lift.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .formulas import group_by_columns
from .groups import (
    PermGroup,
    _image,
    automorphism_group,
    orbits,
    orbits_on_tuples,
    stabilizer_search,
)
from .lifting import (
    ANCHOR_NAME,
    BASE_NAME,
    LIMIT,
    LiftConfig,
    LiftedStructure,
    build_lift,
    certify_induced_group,
    direct_induced,
    fiber_sort,
)
from .structures import Structure

__all__ = [
    "StabilityError",
    "stabilizer_orbits",
    "TypeCensus",
    "qf_type_census",
    "CensusReport",
    "stability_report",
    "SUBSTITUTION_NOTE",
]

SUBSTITUTION_NOTE = (
    "finite-scale census: stabilizer orbits stand in for types over a "
    "submodel; extension arguments that need saturated models are replaced "
    "by the orbit-decomposition identity"
)

QF_DEPTH_LIMIT = 2


class StabilityError(ValueError):
    pass


def stabilizer_orbits(N: Structure, A) -> list[tuple[int, ...]]:
    """Orbits of the pointwise stabilizer of A on the whole domain: the
    classes of "related by an automorphism fixing A"."""
    return orbits(automorphism_group(N, fixed=A))


@dataclass(frozen=True)
class TypeCensus:
    """Distinct quantifier-free one-variable types over a parameter set,
    with one representative element per type."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:
        return len(self.blocks)

    @property
    def representatives(self) -> tuple[int, ...]:
        return tuple(b[0] for b in self.blocks)


@dataclass(frozen=True)
class _CensusTable:
    """The parameter-free part of a census: the term columns that vary, each
    with its set of values, the values of the constant terms, each nonempty
    relation's values per position, and each element's block label under
    the parameter-free atoms, the rank of its row: blocks are numbered by
    least element."""

    varying: dict[tuple[int, ...], frozenset[int]]
    fixed: frozenset[int]
    at: dict[str, tuple[frozenset[int], ...]]
    labels: tuple[int, ...]


def _splitting(size: int, truth) -> list[tuple[bool, ...]]:
    """One copy of each non-constant column: a constant or repeated column
    splits no block, and blocks come by least element whatever the columns."""
    return list(set(truth) - {(True,) * size, (False,) * size})


def _relation_truth(N: Structure, at, kinds, needed: set[int]) -> list[tuple[bool, ...]]:
    """Truth columns of the relation atoms whose term at each position is a
    column of one of ``kinds`` (dicts column -> its values) with a value the
    relation takes there, for every pattern of kinds that holds each kind in
    ``needed``."""
    truth = []
    for name, places in at.items():
        held = N.relation_sets[name]
        choices = [
            [[c for c, s in kind.items() if not s.isdisjoint(there)] for kind in kinds]
            for there in places
        ]
        truth += [
            tuple(map(held.__contains__, zip(*picked)))
            for pattern in itertools.product(range(len(kinds)), repeat=len(places))
            if needed.issubset(pattern)
            for picked in itertools.product(*map(operator.getitem, choices, pattern))
        ]
    return truth


def _census_table(N: Structure, depth: int) -> _CensusTable:
    if depth > QF_DEPTH_LIMIT:
        raise StabilityError(f"depth {depth} exceeds the guard ({QF_DEPTH_LIMIT})")
    if depth < 0:
        raise StabilityError(f"depth {depth} is negative")

    # every term as a column of values over the domain; the terms that do
    # not mention the free element give constant columns
    size = N.size
    functions = [N.functions[f] for f in N.sig.functions]
    terms = frontier = [tuple(N.domain)] + [(N.constants[c],) * size for c in N.sig.constants]
    for _ in range(depth):
        frontier = [_image(f, col) for f in functions for col in frontier]
        terms = terms + frontier
    cols = {col: frozenset(col) for col in terms}
    varying = {col: s for col, s in cols.items() if len(s) > 1}
    constants = {col: s for col, s in cols.items() if len(s) == 1}
    fixed = frozenset(col[0] for col in constants)

    # An equality whose two terms share no value, and a relation atom with
    # a term that takes no value the relation takes at its position, are
    # false everywhere and split no block: their columns are never built.
    # Two varying terms that share only constant values v are equal exactly
    # where both equal such a v, which the atoms t = v already tell; two
    # constant columns share no value; an empty relation has no atom.
    at = {name: tuple(map(frozenset, columns)) for name, columns in N.relation_columns.items()
          if columns}
    free = [(col, s - fixed) for col, s in varying.items()]
    truth = [
        tuple(map(operator.eq, c1, c2))
        for (c1, s1), (c2, s2) in itertools.combinations(free, 2)
        if not s1.isdisjoint(s2)
    ]
    truth += [tuple(map(v.__eq__, col)) for col, s in varying.items() for v in s & fixed]
    truth += _relation_truth(N, at, [varying, constants], {0})
    # each distinct row's rank in order of first, so least, element
    columns = _splitting(size, truth)
    rows = list(zip(*columns)) if columns else [()] * size
    rank = dict(zip(dict.fromkeys(rows), itertools.count()))
    return _CensusTable(varying, fixed, at, tuple(map(rank.__getitem__, rows)))


def _int_parameters(A) -> tuple[int, ...]:
    """A as a tuple of ints; 1.0 and True would pass for the element 1."""
    A = tuple(A)
    if bad := [a for a in A if type(a) is not int]:
        raise StabilityError(f"parameter {bad[0]!r} is not an int")
    return A


def _census_over(table: _CensusTable, N: Structure, A, depth: int):
    """Each element's label, shared exactly by the elements of its type over
    A: the table's label, zipped with the new non-constant truth columns."""
    params = sorted(set(A))
    for a in params:
        if not (0 <= a < N.size):
            raise StabilityError(f"parameter {a} outside the domain")

    # Every parameter term is a constant column.  One equal to a constant
    # column of the table only repeats the table's atoms; the others are
    # new, and only their atoms with a varying column can split a block.
    values = set(params)
    frontier = values
    for _ in range(depth):
        frontier = {N.functions[f][v] for f in N.sig.functions for v in frontier}
        values |= frontier
    values -= table.fixed
    if not values:
        return table.labels
    truth = [tuple(map(v.__eq__, col)) for col, s in table.varying.items() for v in s & values]
    # a relation atom with a new term needs a position that takes its value
    at = {name: places for name, places in table.at.items()
          if any(not there.isdisjoint(values) for there in places)}
    fixed = {(v,) * N.size: frozenset((v,)) for v in table.fixed}
    new = {(v,) * N.size: frozenset((v,)) for v in values}
    truth += _relation_truth(N, at, [table.varying, fixed, new], {0, 2})
    columns = _splitting(N.size, truth)
    return list(zip(table.labels, *columns)) if columns else table.labels


def qf_type_census(N: Structure, A, depth: int = 1) -> TypeCensus:
    """Partition the domain by satisfied atomic formulas in one free
    variable with parameters from A and terms of bounded nesting depth.

    The parameter-free census is built first; the parameters then refine
    its blocks by only the atoms that mention a parameter term."""
    A = _int_parameters(A)
    labels = _census_over(_census_table(N, depth), N, A, depth)
    return TypeCensus(tuple(map(tuple, group_by_columns(N.size, [labels]).values())))


# -- orbit decomposition --------------------------------------------------------


@dataclass
class DecompositionReport:
    per_sort: list[dict]
    left_total: int
    right_total: int

    @property
    def passed(self) -> bool:
        return self.left_total == self.right_total and all(
            row["left"] == row["right"] for row in self.per_sort
        )


def _per_sort(sorts: dict[str, tuple[int, ...]], labels) -> dict[str, int]:
    """Per sort, how many distinct labels its elements have, ``labels``
    giving one label per element of the domain (a block of a partition)."""
    return {name: len(set(_image(labels, block))) for name, block in sorts.items()}


def _source_counts(M: Structure, fibers: dict, GM: PermGroup) -> tuple[int, dict]:
    """The source side of the growth law under GM: the orbit count on M's
    domain and, per relation, on its fiber tuples and on the held ones."""
    return len(orbits(GM)), {
        rel: tuple(
            len(orbits_on_tuples(GM, ts))
            for ts in (tuples, [t for t in tuples if t in M.relation_sets[rel]])
        )
        for rel, tuples in fibers.items()
    }


def _decomposition(N: LiftedStructure, GN: PermGroup, source) -> DecompositionReport:
    """Per sort of ``N.sorts``, the orbits of the lift stabilizer GN meeting
    it (left) against the count that ``source``, from _source_counts,
    predicts (right); the fiber rows follow the relation order of N.fibers."""
    left_blocks = orbits(GN)
    # each orbit labelled by its least element; a trivial group's are points
    least = range(GN.degree)
    if GN.generators:
        least = {e: block[0] for block in left_blocks for e in block}
    left_by_sort = _per_sort(N.sorts, least)
    # each orbit meets at least one sort, so the counts sum past the orbit
    # count exactly when some orbit meets two
    if sum(left_by_sort.values()) != len(left_blocks):
        raise StabilityError("an orbit crosses sorts (internal error)")
    o_M, per_rel = source
    rows = [(ANCHOR_NAME, 1), (BASE_NAME, o_M)]
    for rel, (o_fib, o_rel) in per_rel.items():
        rows += [(fiber_sort(rel, i), o_fib) for i in range(N.config.k)]
        rows.append((fiber_sort(rel, LIMIT), o_rel))
    per_sort = [
        {"sort": label, "left": left_by_sort.get(label, 0), "right": right}
        for label, right in rows
    ]
    return DecompositionReport(per_sort, len(left_blocks), sum(right for _, right in rows))


# -- census reports -------------------------------------------------------------


@dataclass
class CensusReport:
    structure_id: str
    note: str = SUBSTITUTION_NOTE
    entries: list[dict] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(e["growth_law"] == "pass" for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "structure": self.structure_id,
            "note": self.note,
            "entries": self.entries,
        }


def stability_report(
    M: Structure,
    ks,
    As,
    structure_id: str = "",
) -> CensusReport:
    """Tabulate orbit and type counts for lifts of M across copy bounds and
    parameter sets, checking the exact growth law

        total(k) = 1 + o_M + sum over relations of (k * o_fib + o_rel)

    where the o's are stabilizer orbit counts on the source domain, on
    eligible fiber tuples, and on relation tuples.  Parameter sets are given
    in source coordinates and land inside the base copy of each lift, built
    with ``LiftConfig(k=k)``.  Type counts are ``qf_type_census`` at depth
    1: the parameter-free census is built once per lift, and each parameter
    set adds only the atoms that mention a parameter.  Aut(M) and its
    stabilizer of each nonempty parameter set are searched from one root,
    each once, and the source counts are taken once: every lift has the
    default config, so its fibers range over the same tuples.  A lift's
    stabilizer is the group of the direct_induced images of its generators,
    which certify_induced_group proves to be Aut(N)'s; no group is built on
    the lift, and each distinct generator is induced once per lift.  An empty
    list of copy bounds or of parameter sets raises StabilityError: such a
    census would pass with nothing checked."""
    ks = list(ks)
    As = [tuple(sorted(set(_int_parameters(A_src)))) for A_src in As]
    if not ks or not As:
        raise StabilityError("the census needs at least one copy bound and one parameter set")
    bad = next((a for A_src in As for a in A_src if a not in M.domain), None)
    if bad is not None:
        raise StabilityError(
            f"parameter {bad} is not an element of the source domain (size {M.size})"
        )
    report = CensusReport(structure_id=structure_id)
    search = stabilizer_search(M)
    group_M = search(())
    stabilizers = [search(A_src) if A_src else group_M for A_src in As]
    # equal generators give the same group, so the same orbits and counts
    counts: dict[tuple, tuple] = {}
    for k in ks:
        N = build_lift(M, LiftConfig(k=k))
        table = _census_table(N.structure, 1)
        induced = {g: direct_induced(N, g) for g in group_M.generators}
        certify_induced_group(N, group_M.generators, list(induced.values()))
        decompositions: dict[tuple, DecompositionReport] = {}
        for A_src, stabilizer in zip(As, stabilizers):
            generators = stabilizer.generators
            if generators not in decompositions:
                if generators not in counts:
                    counts[generators] = _source_counts(M, N.fibers, stabilizer)
                for g in generators:
                    if g not in induced:
                        induced[g] = direct_induced(N, g)
                lift_group = PermGroup([induced[g] for g in generators], N.structure.size)
                decompositions[generators] = _decomposition(N, lift_group, counts[generators])
            decomposition = decompositions[generators]
            orbit_counts = {row["sort"]: row["left"] for row in decomposition.per_sort}
            A = tuple(N.base_id(a) for a in A_src)
            types = _per_sort(N.sorts, _census_over(table, N.structure, A, 1))
            per_sort = [{"sort": s, "orbits": orbit_counts[s], "types": types[s]} for s in N.sorts]
            report.entries.append({
                "k": k,
                "A": list(A_src),
                "total": decomposition.left_total,
                "per_sort": per_sort,
                "growth_law": "pass" if decomposition.passed else "fail",
            })
    return report
