"""The stabilized lift of a finite relational structure.

Given a relational structure M, the lift N adds a distinguished anchor
element, keeps a marked copy of M's domain ("base" elements), and grows, for
every relation symbol and every eligible argument tuple, a fiber of copy
elements indexed 0..k-1 plus one extra "limit" copy exactly when the tuple is
in the relation.  Projection functions recover the tuple coordinates from a
fiber element and copy-selector functions move within a fiber; everything
else is sent to the anchor.

The limit copies are what make the construction rigid: a fiber element fixed
by no copy selector exists precisely over relation tuples, so any
automorphism of N restricts to an automorphism of M on the base copy, and
conversely every automorphism of M extends uniquely.  At copy bound k >= 1
the two groups are isomorphic, witnessed by explicit mutually inverse maps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .formulas import (
    AtomicType,
    Equal,
    Formula,
    Not,
    Rel,
    Var,
    conjunction,
    contradiction,
    sort_partition,
    tautology,
)
from .groups import Permutation, is_automorphism
from .interpretation import (
    InterpretationScheme,
    SchemeRel,
    SchemeSort,
    SortBijections,
)
from .structures import Signature, Structure, StructureError

__all__ = [
    "LIMIT",
    "LiftError",
    "LiftMapError",
    "LiftConfig",
    "PaddingAssignment",
    "Anchor",
    "BaseElem",
    "FiberElem",
    "LiftedStructure",
    "lift_sort",
    "ANCHOR_NAME",
    "BASE_NAME",
    "fiber_predicate",
    "samefiber_relation",
    "projection_function",
    "copy_function",
    "padding_triples",
    "canonical_padding",
    "build_lift",
    "limit_elements",
    "direct_induced",
    "project_automorphism",
    "generate_scheme",
    "continuity_witness",
]

# Copy index of the distinguished limit copy; sorts after every finite index.
LIMIT = float("inf")

ANCHOR_NAME = "anchor"
BASE_NAME = "base"


def fiber_predicate(rel: str) -> str:
    return f"fiber_{rel}"


def samefiber_relation(rel: str) -> str:
    return f"samefiber_{rel}"


def projection_function(rel: str, coord: int) -> str:
    return f"proj_{rel}_{coord}"


def copy_function(rel: str, j: int) -> str:
    return f"copy_{rel}_{j}"


class LiftError(ValueError):
    pass


class LiftMapError(LiftError):
    """A permutation of the base structure cannot be carried to the lift:
    some limit element would need a target fiber with no limit copy."""

    def __init__(self, rel: str, coords: tuple[int, ...], image: tuple[int, ...]):
        super().__init__(
            f"no induced automorphism: relation {rel!r} holds on {coords} but not on "
            f"the image {image}, so the limit element over {coords} has no target"
        )
        self.rel = rel
        self.coords = coords
        self.image = image


def _copy_label(i) -> int | str:
    return "limit" if i == LIMIT else int(i)


@dataclass(frozen=True)
class PaddingAssignment:
    """Widths for the per-copy quotient presentations: each (relation, copy
    index) gets a padded width m = arity + pad.  All widths are pairwise
    distinct and greater than 1."""

    pads: dict[tuple[str, int | float], int] = field(default_factory=dict)

    def pad(self, rel: str, i) -> int:
        return self.pads[(rel, i)]

    def width(self, sig: Signature, rel: str, i) -> int:
        return sig.relation_arity(rel) + self.pads[(rel, i)]

    def validate(self, sig: Signature, k: int) -> None:
        triples = padding_triples(sig, k)
        if set(self.pads) != set(triples):
            raise LiftError("padding must cover exactly the (relation, copy) pairs")
        widths = []
        for rel, i in triples:
            p = self.pads[(rel, i)]
            if p < 0:
                raise LiftError(f"negative padding for ({rel!r}, {_copy_label(i)})")
            m = sig.relation_arity(rel) + p
            if m <= 1:
                raise LiftError(f"width {m} for ({rel!r}, {_copy_label(i)}) must exceed 1")
            widths.append(m)
        if len(set(widths)) != len(widths):
            raise LiftError("padded widths must be pairwise distinct")


def padding_triples(sig: Signature, k: int) -> list[tuple[str, int | float]]:
    """(relation, copy index) pairs in canonical order: relations by (arity,
    position among same-arity symbols), copies ascending with the limit last."""
    rels = sorted(
        (n for n, _ in sig.relations), key=lambda n: sig.arity_index(n)
    )
    return [(rel, i) for rel in rels for i in [*range(k), LIMIT]]


def canonical_padding(sig: Signature, k: int) -> PaddingAssignment:
    """Greedy padding: walk the canonical triple order and give each entry
    the least width exceeding every earlier width (and large enough to fit
    the relation's arity and the >1 floor)."""
    pads: dict[tuple[str, int | float], int] = {}
    prev = 1
    for rel, i in padding_triples(sig, k):
        n = sig.relation_arity(rel)
        m = max(prev, n - 1, 1) + 1
        pads[(rel, i)] = m - n
        prev = m
    padding = PaddingAssignment(pads)
    padding.validate(sig, k)
    return padding


@dataclass(frozen=True)
class LiftConfig:
    """k bounds the finite copy indices (the limit copy is extra); fibers
    range over repetition-free tuples unless include_repetition_tuples is set
    or the source structure itself allows repeated entries."""

    k: int = 1
    include_repetition_tuples: bool = False
    padding: PaddingAssignment | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise LiftError("copy bound k must be at least 1")


@dataclass(frozen=True)
class Anchor:
    pass


@dataclass(frozen=True)
class BaseElem:
    source: int


@dataclass(frozen=True)
class FiberElem:
    rel: str
    copy: int | float
    coords: tuple[int, ...]


Provenance = Anchor | BaseElem | FiberElem


def lift_sort(p: Provenance) -> str:
    """The sort of a lift element, read off its provenance: "anchor",
    "base", or fiber_R[i] for copy i of R's fibers (i is "limit" for the
    limit copy).  Each sort of the lift's relational companion is exactly
    one of these."""
    if isinstance(p, Anchor):
        return ANCHOR_NAME
    if isinstance(p, BaseElem):
        return BASE_NAME
    return f"{fiber_predicate(p.rel)}[{_copy_label(p.copy)}]"


@dataclass(frozen=True)
class LiftedStructure:
    """The lift as a plain Structure plus per-element provenance.

    Element layout is canonical: the anchor is 0, base elements follow in
    source order, then fibers ordered by relation, tuple, copy index (limit
    last).  ``fibers`` indexes the fiber elements in that same order:
    relation -> eligible tuple -> {copy index: element id}.
    """

    structure: Structure
    source: Structure
    config: LiftConfig
    padding: PaddingAssignment
    provenance: tuple[Provenance, ...]
    fibers: dict[str, dict[tuple[int, ...], dict[int | float, int]]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def anchor_id(self) -> int:
        return 0

    def base_id(self, a: int) -> int:
        return 1 + a

    @property
    def repetition_free_fibers(self) -> bool:
        return self.source.repetition_free and not self.config.include_repetition_tuples

    def eligible_tuples(self, rel: str) -> tuple[tuple[int, ...], ...]:
        return tuple(self.fibers[rel])

    def fiber_copies(self, rel: str, coords: tuple[int, ...]) -> dict[int | float, int]:
        """Copy index -> element id for one fiber (empty dict if none)."""
        return dict(self.fibers.get(rel, {}).get(coords, {}))

    def element_of(self, prov: Provenance) -> int:
        if isinstance(prov, Anchor):
            return self.anchor_id
        if isinstance(prov, BaseElem) and prov.source in self.source.domain:
            return self.base_id(prov.source)
        if isinstance(prov, FiberElem):
            e = self.fibers.get(prov.rel, {}).get(prov.coords, {}).get(prov.copy)
            if e is not None:
                return e
        raise LiftError(f"no element with provenance {prov}")

    def to_report_dict(self) -> dict:
        """Element table with provenance tags, fiber-size histogram, and the
        lift signature."""
        from .structures import signature_to_dict

        elements = []
        for e, p in enumerate(self.provenance):
            if isinstance(p, Anchor):
                elements.append({"id": e, "kind": "anchor"})
            elif isinstance(p, BaseElem):
                elements.append({"id": e, "kind": "base", "source": p.source})
            else:
                elements.append(
                    {
                        "id": e,
                        "kind": "fiber",
                        "relation": p.rel,
                        "copy": _copy_label(p.copy),
                        "coords": list(p.coords),
                    }
                )
        histogram: dict[str, dict[str, int]] = {}
        for rel, _ in self.source.sig.relations:
            sizes: dict[str, int] = {}
            for copies in self.fibers[rel].values():
                size = len(copies)
                sizes[str(size)] = sizes.get(str(size), 0) + 1
            histogram[rel] = dict(sorted(sizes.items()))
        return {
            "domain": self.structure.size,
            "elements": elements,
            "fiber_sizes": histogram,
            "signature": signature_to_dict(self.structure.sig),
        }


def _lift_signature(M: Structure, k: int) -> Signature:
    relations = [(BASE_NAME, 1)]
    functions: list[str] = []
    for rel, arity in M.sig.relations:
        relations.append((fiber_predicate(rel), 1))
        relations.append((samefiber_relation(rel), 2))
        functions.extend(projection_function(rel, t) for t in range(arity))
        functions.extend(copy_function(rel, j) for j in range(k))
    try:
        return Signature(
            relations=tuple(relations),
            functions=tuple(functions),
            constants=(ANCHOR_NAME,),
        )
    except StructureError as e:
        raise LiftError(f"source relation names clash with lift symbols: {e}") from e


def build_lift(M: Structure, config: LiftConfig = LiftConfig()) -> LiftedStructure:
    """Construct the lift of a purely relational structure."""
    if not M.is_relational():
        raise LiftError("the lift is defined for purely relational structures")
    padding = config.padding or canonical_padding(M.sig, config.k)
    padding.validate(M.sig, config.k)
    sig = _lift_signature(M, config.k)

    repetition_free_fibers = M.repetition_free and not config.include_repetition_tuples
    provenance: list[Provenance] = [Anchor()]
    provenance.extend(BaseElem(a) for a in M.domain)

    rels_in_order = sorted((n for n, _ in M.sig.relations), key=M.sig.arity_index)
    fibers: dict[str, dict[tuple[int, ...], dict[int | float, int]]] = {}
    for rel in rels_in_order:
        arity = M.sig.relation_arity(rel)
        fibers[rel] = {}
        tuples = itertools.product(M.domain, repeat=arity)
        if repetition_free_fibers:
            tuples = (t for t in tuples if len(set(t)) == len(t))
        held = M.relation_sets[rel]
        for coords in sorted(tuples):
            copies: dict[int | float, int] = {}
            indices: list[int | float] = list(range(config.k))
            if coords in held:
                indices.append(LIMIT)
            for i in indices:
                copies[i] = len(provenance)
                provenance.append(FiberElem(rel, i, coords))
            fibers[rel][coords] = copies

    size = len(provenance)
    relations: dict[str, tuple[tuple[int, ...], ...]] = {
        BASE_NAME: tuple((1 + a,) for a in M.domain)
    }
    functions: dict[str, tuple[int, ...]] = {}
    for rel in rels_in_order:
        arity = M.sig.relation_arity(rel)
        members = [e for fib in fibers[rel].values() for e in fib.values()]
        relations[fiber_predicate(rel)] = tuple((e,) for e in sorted(members))
        pairs = [
            (e1, e2)
            for fib in fibers[rel].values()
            for e1 in fib.values()
            for e2 in fib.values()
        ]
        relations[samefiber_relation(rel)] = tuple(sorted(pairs))
        for t in range(arity):
            images = [0] * size
            for coords, fib in fibers[rel].items():
                for e in fib.values():
                    images[e] = 1 + coords[t]
            functions[projection_function(rel, t)] = tuple(images)
        for j in range(config.k):
            images = [0] * size
            for coords, fib in fibers[rel].items():
                for e in fib.values():
                    images[e] = fib[j]
            functions[copy_function(rel, j)] = tuple(images)

    structure = Structure(
        sig=sig,
        size=size,
        relations=relations,
        functions=functions,
        constants={ANCHOR_NAME: 0},
        repetition_free=False,
    )
    return LiftedStructure(
        structure=structure,
        source=M,
        config=config,
        padding=padding,
        provenance=tuple(provenance),
        fibers=fibers,
    )


def limit_elements(N: LiftedStructure, rel: str) -> tuple[int, ...]:
    """Fiber elements of the relation fixed by no copy selector, computed
    from the structure itself (and cross-checked against provenance)."""
    S = N.structure
    members = {e for (e,) in S.relations[fiber_predicate(rel)]}
    out = []
    for e in sorted(members):
        if all(S.functions[copy_function(rel, j)][e] != e for j in range(N.config.k)):
            out.append(e)
    tagged = [copies[LIMIT] for copies in N.fibers[rel].values() if LIMIT in copies]
    if out != tagged:
        raise LiftError("limit elements disagree with provenance (internal error)")
    return tuple(out)


def direct_induced(N: LiftedStructure, pi: Permutation) -> Permutation:
    """Carry a permutation of the source domain to the lift: anchor fixed,
    base elements moved alongside, each fiber element sent to the same copy
    index over the image tuple.

    For a non-automorphism there is always some relation tuple whose image
    drops out of the relation, so the limit element over it has no target;
    that is reported as a LiftMapError naming the fiber.
    """
    M = N.source
    if pi.degree != M.size:
        raise LiftError(f"permutation degree {pi.degree} does not match |M| = {M.size}")
    source_images = pi.images
    images = list(range(N.structure.size))
    for a in M.domain:
        images[N.base_id(a)] = N.base_id(source_images[a])
    for rel, table in N.fibers.items():
        for coords, copies in table.items():
            moved = tuple([source_images[x] for x in coords])
            target = table.get(moved, {})
            for i, e in copies.items():
                if i not in target:
                    raise LiftMapError(rel, coords, moved)
                images[e] = target[i]
    return Permutation(tuple(images))


def project_automorphism(N: LiftedStructure, pihat: Permutation) -> Permutation:
    """Restrict a lift automorphism to the base copy, re-indexed to the
    source domain.  Together with direct_induced this is a bijection between
    the two automorphism groups."""
    if not is_automorphism(N.structure, pihat):
        raise LiftError("not an automorphism of the lift")
    M = N.source
    images = []
    for a in M.domain:
        target = pihat(1 + a)
        if not (1 <= target <= M.size):
            raise LiftError("automorphism does not preserve the base copy (internal error)")
        images.append(target - 1)
    pi = Permutation(tuple(images))
    if not is_automorphism(M, pi):
        raise LiftError("projection is not an automorphism of the source (internal error)")
    return pi


def continuity_witness(N: LiftedStructure, B) -> frozenset[int]:
    """A finite support in the source domain: fixing it pointwise forces the
    induced automorphism to fix B pointwise.  Base elements contribute their
    source point, fiber elements all their coordinates, the anchor nothing."""
    A: set[int] = set()
    for b in set(B):
        if not (0 <= b < N.structure.size):
            raise LiftError(f"element {b} outside the lift domain")
        p = N.provenance[b]
        if isinstance(p, BaseElem):
            A.add(p.source)
        elif isinstance(p, FiberElem):
            A.update(p.coords)
    return frozenset(A)


# -- scheme generation ---------------------------------------------------------


def _distinctness(n: int) -> list[Formula]:
    return [
        Not(Equal(Var(s), Var(t))) for s in range(n) for t in range(s + 1, n)
    ]


def _padded(total: int, core: list[Formula]) -> Formula:
    return conjunction([Equal(Var(q), Var(q)) for q in range(total)] + core)


def _fiber_sort_formulas(
    N: LiftedStructure, rel: str, i
) -> tuple[int, Formula, Formula]:
    """Width, definable-set formula, and equivalence formula for one copy
    sort: padded tuples whose first coordinates carry the fiber tuple, two
    tuples equivalent when those coordinates agree."""
    sig = N.source.sig
    n = sig.relation_arity(rel)
    m = N.padding.width(sig, rel, i)
    core: list[Formula] = _distinctness(n) if N.repetition_free_fibers else []
    if i == LIMIT:
        core.append(Rel(rel, tuple(Var(t) for t in range(n))))
    E = _padded(2 * m, [Equal(Var(t), Var(m + t)) for t in range(n)])
    return m, _padded(m, core), E


# A companion symbol's role: "base", "anchor", "fiber", "samefiber", "proj"
# or "copy", the source relation it belongs to ("" for base and anchor), and
# its coordinate (proj) or copy index (copy), 0 otherwise.
Role = tuple[str, str, int]


def _companion_roles(M: Structure, k: int) -> dict[str, Role]:
    roles: dict[str, Role] = {BASE_NAME: ("base", "", 0), ANCHOR_NAME: ("anchor", "", 0)}
    for rel, arity in M.sig.relations:
        roles[fiber_predicate(rel)] = ("fiber", rel, 0)
        roles[samefiber_relation(rel)] = ("samefiber", rel, 0)
        roles.update({projection_function(rel, t): ("proj", rel, t) for t in range(arity)})
        roles.update({copy_function(rel, j): ("copy", rel, j) for j in range(k)})
    return roles


# What decides a translation formula: its width and either its truth or the
# index pairs (s, t) of its atoms xs = xt besides the padding.
Recipe = tuple[int, bool | tuple[tuple[int, int], ...]]


def _translation_recipe(
    role: Role, kinds: tuple[Provenance, ...], widths: tuple[int, ...]
) -> Recipe:
    """What decides one companion relation at one tuple of sorts, each sort
    given by the provenance of one of its elements, over the source
    structure.  Most combinations are decided by the sorts alone (a truth);
    the fiber-indexed symbols compare tuple coordinates across blocks (the
    index pairs)."""
    what, rel, index = role
    total = sum(widths)
    first = kinds[0]
    on_fiber = isinstance(first, FiberElem) and first.rel == rel
    if what == "base":
        holds = isinstance(first, BaseElem)
    elif what == "anchor":
        holds = isinstance(first, Anchor)
    elif what == "fiber":
        holds = on_fiber
    elif not on_fiber:
        # off its relation's fibers a function sends everything to the anchor
        holds = what != "samefiber" and isinstance(kinds[1], Anchor)
    elif what == "proj":
        if isinstance(kinds[1], BaseElem):
            return total, ((index, widths[0]),)
        holds = False
    else:
        second = kinds[1]
        same = isinstance(second, FiberElem) and second.rel == rel
        if same and (what == "samefiber" or second.copy == index):
            return total, tuple((t, widths[0] + t) for t in range(len(first.coords)))
        holds = False
    return total, holds


def _recipe_formula(recipe: Recipe) -> Formula:
    """The formula of a recipe: xq = xq for every position, followed by
    ~x0 = x0 for a False truth or by the equalities of its index pairs."""
    total, core = recipe
    if isinstance(core, bool):
        return tautology(total) if core else contradiction(total)
    return _padded(total, [Equal(Var(s), Var(t)) for s, t in core])


def generate_scheme(
    M: Structure, N: LiftedStructure
) -> tuple[InterpretationScheme, SortBijections]:
    """Produce the interpretation scheme presenting the lift's relational
    companion inside M, together with the sort bijections.

    Sorts: the anchor gets a width-2 presentation with the total equivalence
    (one class); the base sort is M itself under equality; each copy sort of
    width m(rel, i) consists of padded tuples keyed by their leading
    coordinates, with the limit sorts further cut down to relation members.
    Translation formulas for every companion relation are emitted
    mechanically from the fiber semantics, one formula object per distinct
    formula.  An empty source raises LiftError: the anchor sort needs a host
    tuple to present it.
    """
    if N.source is not M and M != N.source:
        raise LiftError("the lift was not generated from this structure")
    if not M.size:
        raise LiftError(
            "the source structure is empty: no scheme presents its lift, "
            "whose anchor needs a host tuple"
        )
    from .structures import relational_companion

    companion = relational_companion(N.structure)
    realized = sort_partition(companion)

    sorts: list[SchemeSort] = []
    kinds: dict[AtomicType, Provenance] = {}
    widths: dict[AtomicType, int] = {}
    bij: dict[AtomicType, dict[int, tuple[int, ...]]] = {}
    for key, block in realized.items():
        if len({lift_sort(N.provenance[e]) for e in block}) != 1:
            raise LiftError("companion sorts mix provenance kinds (internal error)")
        kind = kinds[key] = N.provenance[block[0]]
        if isinstance(kind, Anchor):
            width, r, E = 2, tautology(2), tautology(4)
            bij[key] = {block[0]: (0,) * 2}
        elif isinstance(kind, BaseElem):
            width, r, E = 1, tautology(1), Equal(Var(0), Var(1))
            bij[key] = {e: (N.provenance[e].source,) for e in block}
        else:
            width, r, E = _fiber_sort_formulas(N, kind.rel, kind.copy)
            bij[key] = {
                e: N.provenance[e].coords + (0,) * (width - len(N.provenance[e].coords))
                for e in block
            }
        sorts.append(SchemeSort(key=key, width=width, domain_formula=r, equiv_formula=E))
        widths[key] = width

    rels: list[SchemeRel] = []
    keys_in_order = [s.key for s in sorts]
    roles = _companion_roles(M, N.config.k)
    formulas: dict[Recipe, Formula] = {}
    for name, arity in companion.sig.relations:
        for combo in itertools.product(keys_in_order, repeat=arity):
            recipe = _translation_recipe(
                roles[name],
                tuple(kinds[k] for k in combo),
                tuple(widths[k] for k in combo),
            )
            if recipe not in formulas:
                formulas[recipe] = _recipe_formula(recipe)
            rels.append(SchemeRel(rel=name, sort_keys=combo, formula=formulas[recipe]))

    scheme = InterpretationScheme(sorts=tuple(sorts), rels=tuple(rels))
    return scheme, SortBijections(maps=bij)
