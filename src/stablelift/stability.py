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

from .groups import (
    PermGroup,
    automorphism_group,
    orbits,
    orbits_on_tuples,
    pointwise_stabilizer,
)
from .lifting import (
    LIMIT,
    BaseElem,
    FiberElem,
    LiftConfig,
    LiftedStructure,
    build_lift,
    lift_sort,
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


def stabilizer_orbits(
    N: Structure, A, group: PermGroup | None = None
) -> list[tuple[int, ...]]:
    """Orbits of the pointwise stabilizer of A on the whole domain: the
    classes of "related by an automorphism fixing A"."""
    G = group if group is not None else automorphism_group(N)
    return orbits(pointwise_stabilizer(G, A), N.domain)


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


def qf_type_census(N: Structure, A, depth: int = 1) -> TypeCensus:
    """Partition the domain by satisfied atomic formulas in one free
    variable with parameters from A and terms of bounded nesting depth."""
    if depth > QF_DEPTH_LIMIT:
        raise StabilityError(f"depth {depth} exceeds the guard ({QF_DEPTH_LIMIT})")
    if depth < 0:
        raise StabilityError(f"depth {depth} is negative")
    params = sorted(set(A))
    for a in params:
        if not (0 <= a < N.size):
            raise StabilityError(f"parameter {a} outside the domain")

    # terms as evaluator closures over the free element; descriptors keep
    # types hashable and reports readable
    terms: list[tuple[tuple, bool]] = [(("var",), True)]
    terms += [(("param", a), False) for a in params]
    terms += [(("const", c), False) for c in N.sig.constants]
    frontier = terms
    for _ in range(depth):
        frontier = [
            (("app", f, desc), uses_var)
            for f in N.sig.functions
            for desc, uses_var in frontier
        ]
        terms = terms + frontier

    def value(desc: tuple, b: int) -> int:
        if desc[0] == "var":
            return b
        if desc[0] == "param":
            return desc[1]
        if desc[0] == "const":
            return N.constants[desc[1]]
        return N.functions[desc[1]][value(desc[2], b)]

    # the atoms that mention the free element, as term indices with labels
    eq_atoms = [
        (i, j, ("eq", d1, d2))
        for i, (d1, v1) in enumerate(terms)
        for j, (d2, v2) in enumerate(terms[i:], start=i)
        if v1 or v2
    ]
    rel_atoms = [
        (N.relation_sets[name], idx, ("rel", name) + tuple(terms[i][0] for i in idx))
        for name, arity in N.sig.relations
        for idx in itertools.product(range(len(terms)), repeat=arity)
        if any(terms[i][1] for i in idx)
    ]

    def tp(b: int) -> frozenset:
        vals = [value(d, b) for d, _ in terms]
        sat = {label for i, j, label in eq_atoms if vals[i] == vals[j]}
        sat.update(
            label
            for held, idx, label in rel_atoms
            if tuple(vals[i] for i in idx) in held
        )
        return frozenset(sat)

    blocks: dict[frozenset, list[int]] = {}
    for b in N.domain:
        blocks.setdefault(tp(b), []).append(b)
    ordered = sorted(blocks.values(), key=lambda blk: blk[0])
    return TypeCensus(tuple(tuple(blk) for blk in ordered))


# -- orbit decomposition --------------------------------------------------------


def _lift_sort_blocks(N: LiftedStructure) -> dict[str, tuple[int, ...]]:
    """Elements of each realized sort, sorts in order of first element."""
    blocks: dict[str, list[int]] = {}
    for e, p in enumerate(N.provenance):
        blocks.setdefault(lift_sort(p), []).append(e)
    return {label: tuple(b) for label, b in blocks.items()}


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

    def to_json_dict(self) -> dict:
        return {
            "note": SUBSTITUTION_NOTE,
            "per_sort": self.per_sort,
            "left_total": self.left_total,
            "right_total": self.right_total,
            "passed": self.passed,
        }


def orbit_decomposition_check(
    M: Structure,
    N: LiftedStructure,
    A,
    *,
    group_M: PermGroup | None = None,
    group_N: PermGroup | None = None,
) -> DecompositionReport:
    """Compare, sort by sort, the stabilizer orbit counts on the lift (left)
    with the counts predicted from the source structure alone (right): one
    anchor orbit, the stabilizer orbits on the source domain, and for each
    copy index the stabilizer orbits on eligible fiber tuples (relation
    members for the limit copy).  Both sides are computed independently."""
    A = tuple(sorted(set(A)))
    A_src = _translate_parameters(N, A)
    GN = pointwise_stabilizer(
        group_N if group_N is not None else automorphism_group(N.structure), A
    )
    GM = pointwise_stabilizer(
        group_M if group_M is not None else automorphism_group(M), A_src
    )

    left_blocks = orbits(GN, N.structure.domain)
    sort_of = [lift_sort(p) for p in N.provenance]
    left_by_sort: dict[str, int] = dict.fromkeys(sort_of, 0)
    for block in left_blocks:
        labels = {sort_of[e] for e in block}
        if len(labels) != 1:
            raise StabilityError("an orbit crosses sorts (internal error)")
        left_by_sort[labels.pop()] += 1

    per_sort: list[dict] = []
    per_sort.append(
        {"sort": "anchor", "left": left_by_sort.get("anchor", 0), "right": 1}
    )
    right_base = len(orbits(GM, M.domain)) if M.size else 0
    per_sort.append(
        {"sort": "base", "left": left_by_sort.get("base", 0), "right": right_base}
    )
    rels = sorted((n for n, _ in M.sig.relations), key=M.sig.arity_index)
    for rel in rels:
        eligible = N.eligible_tuples(rel)
        held = [t for t in eligible if t in M.relation_sets[rel]]
        o_fib = len(orbits_on_tuples(GM, eligible)) if eligible else 0
        o_rel = len(orbits_on_tuples(GM, held)) if held else 0
        for i in [*range(N.config.k), LIMIT]:
            label = lift_sort(FiberElem(rel, i, ()))
            right = o_rel if i == LIMIT else o_fib
            per_sort.append(
                {"sort": label, "left": left_by_sort.get(label, 0), "right": right}
            )
    left_total = len(left_blocks)
    right_total = sum(row["right"] for row in per_sort)
    return DecompositionReport(per_sort=per_sort, left_total=left_total, right_total=right_total)


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
    config_base: LiftConfig = LiftConfig(),
) -> CensusReport:
    """Tabulate orbit and type counts for lifts of M across copy bounds and
    parameter sets, checking the exact growth law

        total(k) = 1 + o_M + sum over relations of (k * o_fib + o_rel)

    where the o's are stabilizer orbit counts on the source domain, on
    eligible fiber tuples, and on relation tuples.  Parameter sets are given
    in source coordinates and land inside the base copy of each lift."""
    As = [tuple(sorted(set(A_src))) for A_src in As]
    for A_src in As:
        for a in A_src:
            if a not in M.domain:
                raise StabilityError(
                    f"parameter {a} is not an element of the source domain "
                    f"(size {M.size})"
                )
    report = CensusReport(structure_id=structure_id)
    group_M = automorphism_group(M)
    for k in ks:
        config = LiftConfig(
            k=k,
            include_repetition_tuples=config_base.include_repetition_tuples,
            padding=None,
        )
        N = build_lift(M, config)
        group_N = automorphism_group(N.structure)
        sort_blocks = _lift_sort_blocks(N)
        for A_src in As:
            A = tuple(N.base_id(a) for a in A_src)
            decomposition = orbit_decomposition_check(
                M, N, A, group_M=group_M, group_N=group_N
            )
            orbit_counts = {row["sort"]: row["left"] for row in decomposition.per_sort}
            census = qf_type_census(N.structure, A, depth=1)
            type_of: dict[int, int] = {}
            for idx, block in enumerate(census.blocks):
                for e in block:
                    type_of[e] = idx

            per_sort = [
                {
                    "sort": label,
                    "orbits": orbit_counts[label],
                    "types": len({type_of[e] for e in block}),
                }
                for label, block in sort_blocks.items()
            ]
            entry = {
                "k": k,
                "A": list(A_src),
                "total": decomposition.left_total,
                "per_sort": per_sort,
                "growth_law": "pass" if decomposition.passed else "fail",
            }
            report.entries.append(entry)
    return report
