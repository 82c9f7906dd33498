"""Orbit censuses under pointwise stabilizers, quantifier-free type counts,
and the orbit-decomposition identity for lifts.

At finite scale the number of stabilizer orbits plays the role of a type
count: two elements are equivalent when some automorphism fixing the
parameter set carries one to the other.  For a lift with parameters inside
the base copy, those orbits decompose by sort: one for the anchor, the
source-structure orbits on the base copy, and per copy index the orbits of
the stabilizer acting on fiber tuples.  Saturation-style extension arguments
have no finite counterpart; the decomposition identity is the finite
substitute, and every report header says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .formulas import group_by_columns
from .groups import (
    PermGroup,
    automorphism_group,
    orbits,
    orbits_on_tuples,
    pointwise_stabilizer,
)
from .lifting import (
    ANCHOR_NAME,
    BASE_NAME,
    LIMIT,
    BaseElem,
    LiftConfig,
    LiftedStructure,
    build_lift,
    fiber_sort,
)
from .structures import Structure

__all__ = [
    "StabilityError",
    "stabilizer_orbits",
    "TypeCensus",
    "qf_type_census",
    "DecompositionReport",
    "orbit_decomposition_check",
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
    return orbits(pointwise_stabilizer(automorphism_group(N), A), N.domain)


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
    """The parameter-free part of a census: the term columns that vary, the
    values of the constant ones, and the partition by the parameter-free
    atoms as blocks (by least element) and as a block index per element."""

    varying: tuple[tuple[int, ...], ...]
    fixed: frozenset[int]
    blocks: tuple[tuple[int, ...], ...]
    block_of: tuple[int, ...]


def _census_table(N: Structure, depth: int) -> _CensusTable:
    if depth > QF_DEPTH_LIMIT:
        raise StabilityError(f"depth {depth} exceeds the guard ({QF_DEPTH_LIMIT})")
    if depth < 0:
        raise StabilityError(f"depth {depth} is negative")

    # every term as a column of values over the domain; the terms that do
    # not mention the free element give constant columns
    size = N.size
    terms = [list(N.domain)]
    terms += [[N.constants[c]] * size for c in N.sig.constants]
    frontier = terms
    for _ in range(depth):
        frontier = [[N.functions[f][x] for x in col] for f in N.sig.functions for col in frontier]
        terms = terms + frontier

    # An atom over constant columns only has a constant truth column, and a
    # repeated term column repeats truth columns, so neither splits a block:
    # keeping each column once and only the atoms with a varying column
    # gives the partition by the atoms that mention the free element.
    cols = list(dict.fromkeys(map(tuple, terms)))
    varies = [len(set(col)) > 1 for col in cols]
    truth = [
        [a == b for a, b in zip(cols[i], cols[j])]
        for i, j in itertools.combinations(range(len(cols)), 2)
        if varies[i] or varies[j]
    ]
    for name, arity in N.sig.relations:
        held = N.relation_sets[name]
        truth += [
            [t in held for t in zip(*(cols[i] for i in idx))]
            for idx in itertools.product(range(len(cols)), repeat=arity)
            if any(varies[i] for i in idx)
        ]
    blocks = tuple(map(tuple, group_by_columns(size, truth).values()))
    block_of = [0] * size
    for idx, blk in enumerate(blocks):
        for e in blk:
            block_of[e] = idx
    return _CensusTable(
        varying=tuple(col for col, v in zip(cols, varies) if v),
        fixed=frozenset(col[0] for col, v in zip(cols, varies) if not v and col),
        blocks=blocks,
        block_of=tuple(block_of),
    )


def _census_over(table: _CensusTable, N: Structure, A, depth: int) -> TypeCensus:
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
    new = values - table.fixed
    size = N.size
    truth = [[x == v for x in col] for v in new for col in table.varying]
    kinds = (
        table.varying,
        [[v] * size for v in table.fixed],
        [[v] * size for v in new],
    )
    for name, arity in N.sig.relations:
        held = N.relation_sets[name]
        # each position draws from one kind of column; the tuples that use
        # a varying column and a new constant are exactly the new atoms
        for pattern in itertools.product(range(3), repeat=arity):
            if 0 in pattern and 2 in pattern:
                truth += [
                    [t in held for t in zip(*picked)]
                    for picked in itertools.product(*(kinds[k] for k in pattern))
                ]
    blocks = group_by_columns(size, [table.block_of, *truth]).values()
    return TypeCensus(tuple(tuple(blk) for blk in blocks))


def qf_type_census(N: Structure, A, depth: int = 1) -> TypeCensus:
    """Partition the domain by satisfied atomic formulas in one free
    variable with parameters from A and terms of bounded nesting depth.

    The parameter-free census is built first; the parameters then refine
    its blocks by only the atoms that mention a parameter term."""
    return _census_over(_census_table(N, depth), N, A, depth)


# -- orbit decomposition --------------------------------------------------------


def _translate_parameters(N: LiftedStructure, A) -> tuple[int, ...]:
    A = tuple(sorted(set(A)))
    for b in A:
        if not (0 <= b < N.structure.size):
            raise StabilityError(f"parameter {b} outside the lift domain")
        if not isinstance(N.provenance[b], BaseElem):
            raise StabilityError(
                f"parameter {b} is not a base element; the decomposition "
                "identity only models parameters inside the base copy"
            )
    return tuple(N.provenance[b].source for b in A)


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


def orbit_decomposition_check(
    N: LiftedStructure,
    A,
    *,
    group_M: PermGroup | None = None,
    group_N: PermGroup | None = None,
) -> DecompositionReport:
    """Compare, sort by sort, the stabilizer orbit counts on the lift (left)
    with the counts predicted from its source M = N.source alone (right): one
    anchor orbit, the stabilizer orbits on the source domain, and for each
    copy index the stabilizer orbits on eligible fiber tuples (relation
    members for the limit copy).  Both sides are computed independently: the
    left side counts the orbits meeting each sort of the lift's sort table
    ``N.sorts``, and the rows follow the relation order of ``N.fibers``."""
    A = tuple(sorted(set(A)))
    A_src = _translate_parameters(N, A)
    GN = pointwise_stabilizer(
        group_N if group_N is not None else automorphism_group(N.structure), A
    )
    GM = pointwise_stabilizer(
        group_M if group_M is not None else automorphism_group(N.source), A_src
    )
    return _decomposition(N, GN, _source_counts(N.source, N.fibers, GM))


def _per_sort(sorts: dict[str, tuple[int, ...]], blocks) -> dict[str, int]:
    """Per sort, how many of ``blocks`` (a partition of the domain) meet it."""
    block_of = {e: idx for idx, block in enumerate(blocks) for e in block}
    return {label: len({block_of[e] for e in block}) for label, block in sorts.items()}


def _source_counts(M: Structure, fibers: dict, GM: PermGroup) -> tuple[int, dict]:
    """The source side of the growth law under GM: the orbit count on M's
    domain and, per relation, on its fiber tuples and on the held ones."""
    return len(orbits(GM, M.domain)), {
        rel: tuple(
            len(orbits_on_tuples(GM, ts))
            for ts in (tuples, [t for t in tuples if t in M.relation_sets[rel]])
        )
        for rel, tuples in fibers.items()
    }


def _decomposition(N: LiftedStructure, GN: PermGroup, source) -> DecompositionReport:
    """orbit_decomposition_check's rows from the lift's stabilizer GN and
    the source side from _source_counts."""
    left_blocks = orbits(GN, N.structure.domain)
    left_by_sort = _per_sort(N.sorts, left_blocks)
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
    set adds only the atoms that mention a parameter.  Each lift's
    automorphism search starts from that census's blocks (parameter-free,
    and finer than the sorts).  An empty list of copy bounds or of
    parameter sets raises StabilityError: such a census would pass with
    nothing checked."""
    ks = list(ks)
    As = [tuple(sorted(set(A_src))) for A_src in As]
    if not ks or not As:
        raise StabilityError("the census needs at least one copy bound and one parameter set")
    bad = next((a for A_src in As for a in A_src if a not in M.domain), None)
    if bad is not None:
        raise StabilityError(
            f"parameter {bad} is not an element of the source domain (size {M.size})"
        )
    report = CensusReport(structure_id=structure_id)
    group_M = automorphism_group(M)
    # per parameter set, the source side of the growth law: every lift is
    # built with the default config, so its fibers range over the same tuples
    sources: dict[tuple[int, ...], tuple[int, dict]] = {}
    for k in ks:
        N = build_lift(M, LiftConfig(k=k))
        table = _census_table(N.structure, 1)
        group_N = automorphism_group(N.structure, sorts=table.blocks)
        for A_src in As:
            A = tuple(N.base_id(a) for a in A_src)
            if A_src not in sources:
                sources[A_src] = _source_counts(M, N.fibers, pointwise_stabilizer(group_M, A_src))
            decomposition = _decomposition(N, pointwise_stabilizer(group_N, A), sources[A_src])
            orbit_counts = {row["sort"]: row["left"] for row in decomposition.per_sort}
            types = _per_sort(N.sorts, _census_over(table, N.structure, A, 1).blocks)
            per_sort = [{"sort": s, "orbits": orbit_counts[s], "types": types[s]} for s in N.sorts]
            report.entries.append({
                "k": k,
                "A": list(A_src),
                "total": decomposition.left_total,
                "per_sort": per_sort,
                "growth_law": "pass" if decomposition.passed else "fail",
            })
    return report
