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

import functools
import itertools
import operator
from dataclasses import dataclass, field

# sort_partition is not called here (the companion's stored
# Structure.sort_partition is read) but stays a name because
# perfbench/spans.py wraps it at this import site
from .formulas import (
    AtomicType,
    Equal,
    Formula,
    Not,
    Padded,
    Rel,
    Var,
    sort_partition,
)
from .groups import Permutation, _image, is_automorphism
from .interpretation import InterpretationScheme, SchemeSort
from .structures import Signature, Structure

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
    "ANCHOR_NAME",
    "BASE_NAME",
    "fiber_predicate",
    "fiber_sort",
    "samefiber_relation",
    "projection_function",
    "copy_function",
    "padding_triples",
    "canonical_padding",
    "build_lift",
    "limit_elements",
    "direct_induced",
    "project_automorphism",
    "certify_induced_group",
    "generate_scheme",
    "continuity_witness",
]

# Copy index of the distinguished limit copy; sorts after every finite index.
LIMIT = float("inf")

ANCHOR_NAME = "anchor"
BASE_NAME = "base"


def fiber_predicate(rel: str) -> str:
    return f"fiber_{rel}"


def fiber_sort(rel: str, i) -> str:
    """fiber_R[i], the sort label of copy i of R's fibers ("limit" for the limit copy)."""
    return f"{fiber_predicate(rel)}[{_copy_label(i)}]"


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


@dataclass(frozen=True)
class LiftedStructure:
    """The lift as a plain Structure plus its fiber index.

    Element layout is canonical: the anchor is 0, base elements follow in
    source order, then fibers ordered by relation, tuple, copy index (limit
    last).  ``fibers`` indexes the fiber elements in that same order:
    relation -> eligible tuple -> {copy index: element id}.  ``provenance``,
    ``sorts`` and ``supports`` are read off it on first use.  ``structure`` is generated
    without the per-tuple checks of Structure(...), which it passes.
    """

    structure: Structure
    source: Structure
    config: LiftConfig
    padding: PaddingAssignment
    fibers: dict[str, dict[tuple[int, ...], dict[int | float, int]]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def base_id(self, a: int) -> int:
        return 1 + a

    @property
    def repetition_free_fibers(self) -> bool:
        return self.source.repetition_free and not self.config.include_repetition_tuples

    @functools.cached_property
    def provenance(self) -> tuple[Provenance, ...]:
        """Each element's provenance by id: the anchor, the base copy, then
        the fiber elements in ``fibers`` order, whose ids run consecutively."""
        fiber = (FiberElem(rel, i, coords) for rel, table in self.fibers.items()
                 for coords, copies in table.items() for i in copies)
        return (Anchor(), *map(BaseElem, self.source.domain), *fiber)

    @functools.cached_property
    def sorts(self) -> dict[str, tuple[int, ...]]:
        """The sort table: label -> elements of each realized sort (the
        anchor, the base copy, then fiber_sort(rel, i) per relation in
        ``fibers`` order, limit last), each block sorted and the sorts in
        order of least element, as sort_partition lists the companion's."""
        table = {ANCHOR_NAME: (0,), BASE_NAME: tuple(range(1, 1 + self.source.size))}
        for rel, fibers in self.fibers.items():
            copies = fibers.values()
            for i in [*range(self.config.k), LIMIT]:
                held = itertools.compress(copies, map(operator.contains, copies, itertools.repeat(i)))
                table[fiber_sort(rel, i)] = tuple(map(operator.itemgetter(i), held))
        return {label: block for label, block in table.items() if block}

    @functools.cached_property
    def supports(self) -> tuple[frozenset[int], ...]:
        """Each element's support by id, as continuity_witness gives it: none
        for the anchor, a for the base element 1 + a, and a fiber tuple's
        points for each of its copies, which share one frozenset."""
        table = [frozenset(), *map(frozenset, zip(self.source.domain))]
        for fibers in self.fibers.values():
            table += itertools.chain.from_iterable(
                map(itertools.repeat, map(frozenset, fibers), map(len, fibers.values())))
        return tuple(table)

    @functools.cached_property
    def companion(self) -> Structure:
        """The lift's relational companion, built once per instance."""
        # looked up at call time, so perfbench/spans.py's wrap of
        # structures.relational_companion sees the call
        from .structures import relational_companion

        return relational_companion(self.structure)

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
    # the names cannot clash: each starts with its kind's prefix, and an
    # index has no underscore, so two agree only when relation and index do
    return Signature(
        relations=tuple(relations),
        functions=tuple(functions),
        constants=(ANCHOR_NAME,),
    )


def build_lift(M: Structure, config: LiftConfig = LiftConfig()) -> LiftedStructure:
    """Construct the lift of a purely relational structure."""
    if not M.is_relational():
        raise LiftError("the lift is defined for purely relational structures")
    # canonical_padding validates what it returns
    padding = config.padding
    if padding is None:
        padding = canonical_padding(M.sig, config.k)
    else:
        padding.validate(M.sig, config.k)
    sig = _lift_signature(M, config.k)

    repetition_free_fibers = M.repetition_free and not config.include_repetition_tuples
    size = 1 + M.size
    finite, with_limit = range(config.k), [*range(config.k), LIMIT]

    rels_in_order = sorted((n for n, _ in M.sig.relations), key=M.sig.arity_index)
    fibers: dict[str, dict[tuple[int, ...], dict[int | float, int]]] = {}
    # each relation's fiber elements are the ids from first[rel] on, consecutively
    first: dict[str, int] = {}
    for rel in rels_in_order:
        arity = M.sig.relation_arity(rel)
        fibers[rel] = {}
        # both yield their tuples in lexicographic order
        if repetition_free_fibers:
            tuples = itertools.permutations(M.domain, arity)
        else:
            tuples = itertools.product(M.domain, repeat=arity)
        held = M.relation_sets[rel]
        first[rel] = size
        for coords in tuples:
            indices = with_limit if coords in held else finite
            fibers[rel][coords] = dict(zip(indices, range(size, size + len(indices))))
            size += len(indices)

    relations: dict[str, tuple[tuple[int, ...], ...]] = {
        BASE_NAME: tuple((1 + a,) for a in M.domain)
    }
    functions: dict[str, tuple[int, ...]] = {}
    for rel in rels_in_order:
        arity = M.sig.relation_arity(rel)
        members = range(first[rel], first[rel] + sum(map(len, fibers[rel].values())))
        relations[fiber_predicate(rel)] = tuple(zip(members))
        # fibers hold consecutive ids in order, so the pairs come sorted
        relations[samefiber_relation(rel)] = tuple([
            (e1, e2)
            for fib in fibers[rel].values()
            for e1 in fib.values()
            for e2 in fib.values()
        ])
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

    structure = Structure._generated(sig, size, relations, functions, {ANCHOR_NAME: 0})
    return LiftedStructure(
        structure=structure, source=M, config=config, padding=padding, fibers=fibers
    )


def limit_elements(N: LiftedStructure, rel: str) -> tuple[int, ...]:
    """Fiber elements of the relation fixed by no copy selector, computed
    from the structure itself (and cross-checked against the sort table)."""
    S = N.structure
    # a unary relation's one column lists its members in order
    (members,) = S.relation_columns[fiber_predicate(rel)] or ((),)
    moved = [map(operator.ne, _image(S.functions[copy_function(rel, j)], members), members)
             for j in range(N.config.k)]
    out = tuple(itertools.compress(members, map(all, zip(*moved))))
    if out != N.sorts.get(fiber_sort(rel, LIMIT), ()):
        raise LiftError("limit elements disagree with the sort table (internal error)")
    return out


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
    p = pi.images
    # the anchor, then 1 + a -> 1 + pi(a); fiber ids follow in ``fibers`` order
    images = [0, *map((1).__add__, p)]
    for rel, table in N.fibers.items():
        # a permutation maps the fiber tuples, all of M^arity or all the
        # repetition-free ones, onto themselves, column by column
        moved = list(zip(*[_image(p, column) for column in zip(*table)]))
        targets = list(map(table.__getitem__, moved))
        # copies are 0..k-1 plus the limit over relation tuples, so equal
        # lengths mean equal copy keys, in the same order
        if list(map(len, targets)) != list(map(len, table.values())):
            for (coords, copies), image, target in zip(table.items(), moved, targets):
                if len(copies) > len(target):
                    raise LiftMapError(rel, coords, image)
        images += itertools.chain.from_iterable(map(dict.values, targets))
    return Permutation(tuple(images))


def project_automorphism(N: LiftedStructure, pihat: Permutation) -> Permutation:
    """Restrict a lift automorphism to the base copy, re-indexed to the
    source domain: pihat's image of a is pihat(1 + a) - 1.  Together with
    direct_induced this is a bijection between the two automorphism groups.
    pihat is checked to be an automorphism of the lift first;
    _restrict_automorphism skips only that check."""
    if not is_automorphism(N.structure, pihat):
        raise LiftError("not an automorphism of the lift")
    return _restrict_automorphism(N, pihat)


def _restrict_automorphism(N: LiftedStructure, pihat: Permutation) -> Permutation:
    """project_automorphism for a pihat already known to be in Aut(N)."""
    M = N.source
    images = pihat.images[1:1 + M.size]
    if images and (min(images) < 1 or max(images) > M.size):
        raise LiftError("automorphism does not preserve the base copy (internal error)")
    pi = Permutation(tuple(map((-1).__add__, images)))
    if not is_automorphism(M, pi):
        raise LiftError("projection is not an automorphism of the source (internal error)")
    return pi


def _rigid_over_base(N: LiftedStructure) -> tuple[tuple[int, ...], ...] | None:
    """Each lift element's naming points if only the identity of Aut(N)
    fixes the base copy pointwise, else None, read off N.structure.  Such a
    map fixes the anchor and carries every other element e to one with e's
    fiber predicates, fixed by the same copy selectors and, as it commutes
    with the projections, with e's projection values where they lie in the
    anchor or base copy; so it is the identity if all of them lie there and
    no two elements share all three.  The naming points, source points a for
    base elements 1 + a, are none for the anchor, a for 1 + a, and for e its
    projection values in the base copy, in projection order."""
    S, rels = N.structure, N.source.sig.relations
    base = {e for (e,) in S.relation_sets[BASE_NAME]}
    fixed = {S.constants[ANCHOR_NAME], *base}
    domain = S.domain
    flags = [map(S.relation_sets[fiber_predicate(rel)].__contains__, zip(domain)) for rel, _ in rels]
    flags += [map(operator.eq, S.functions[copy_function(rel, j)], domain)
              for rel, _ in rels for j in range(N.config.k)]
    projections = [S.functions[projection_function(rel, t)] for rel, n in rels for t in range(n)]
    # with no relation there are no columns, and no fiber element either
    rows = zip(zip(*flags), zip(*projections)) if rels else itertools.repeat(((), ()))
    points, names = [], set()
    for e, (flag, values) in zip(domain, rows):
        values = (e,) if e in fixed else values
        if not fixed.issuperset(values):
            return None
        if e not in fixed:
            names.add((flag, values))
        points.append(tuple([v - 1 for v in values if v in base]))
    return tuple(points) if len(names) == S.size - len(fixed) else None


def certify_induced_group(N: LiftedStructure, generators, images) -> tuple[tuple[int, ...], ...]:
    """Certify that ``images``, the direct_induced images of ``generators``,
    which generate Aut(M), generate Aut(N), and return the naming points of
    _rigid_over_base; an image that is no automorphism raises LiftError.
    N encodes M on its base copy and only the identity fixes that copy, so
    restriction embeds Aut(N) in Aut(M); each image restricts to its
    generator, so direct_induced is an isomorphism onto Aut(N).  A member of
    Aut(N) fixes an element iff it fixes its naming points: it commutes with
    the projections, and the names are injective, so the naming points
    decide continuity.  A lift failing any of this is an internal error."""
    S, M = N.structure, N.source
    if not all(is_automorphism(S, g) for g in images):
        raise LiftError("not an automorphism of the lift")
    down = range(-1, S.size - 1)  # a base element 1 + a read as a

    def encodes(rel: str, arity: int) -> bool:
        limits = limit_elements(N, rel)
        projections = [_image(S.functions[projection_function(rel, t)], limits) for t in range(arity)]
        return set(zip(*[_image(down, column) for column in projections])) == M.relation_sets[rel]

    encoded = S.relation_sets[BASE_NAME] == set(zip(range(1, 1 + M.size))) and all(
        encodes(rel, arity) for rel, arity in M.sig.relations
    )
    if not (encoded and (points := _rigid_over_base(N)) and all(
        _restrict_automorphism(N, h) == g for g, h in zip(generators, images, strict=True)
    )):
        raise LiftError("the induced images are not certified to be Aut(N) (internal error)")
    return points


def continuity_witness(N: LiftedStructure, B) -> frozenset[int]:
    """A finite support in the source domain: fixing it pointwise forces the
    induced automorphism to fix B pointwise.  Base elements contribute their
    source point, fiber elements all their coordinates, the anchor nothing,
    each read off N.supports.  An element that is not an int, or lies
    outside the lift, raises LiftError."""
    supports = N.supports
    B = tuple(B)
    for b in B:
        # as for permutation images: 1.0 and True compare as 1, yet are no element
        if type(b) is not int:
            raise LiftError(f"element {b!r} is not an int")
        if not (0 <= b < len(supports)):
            raise LiftError(f"element {b} outside the lift domain")
    if len(B) == 1:
        return supports[B[0]]
    return frozenset().union(*map(supports.__getitem__, B))


# -- scheme generation ---------------------------------------------------------


def _fiber_sort_formulas(
    N: LiftedStructure, rel: str, i
) -> tuple[int, Formula, Formula]:
    """Width, definable-set formula, and equivalence formula for one copy
    sort: padded tuples whose first coordinates carry the fiber tuple, two
    tuples equivalent when those coordinates agree."""
    sig = N.source.sig
    n = sig.relation_arity(rel)
    m = N.padding.width(sig, rel, i)
    pairs = itertools.combinations(range(n), 2) if N.repetition_free_fibers else ()
    core = [Not(Equal(Var(s), Var(t))) for s, t in pairs]
    core += [Rel(rel, tuple(map(Var, range(n))))] if i == LIMIT else []
    E = Padded(2 * m, tuple(Equal(Var(t), Var(m + t)) for t in range(n)))
    return m, Padded(m, tuple(core)), E


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


def _recipe_formula(recipe: Recipe) -> Formula:
    """The formula of a recipe: padding over every position, with the core
    ~x0 = x0 for a False truth or the equalities of its index pairs."""
    total, core = recipe
    if isinstance(core, bool):
        return Padded(total, () if core else (Not(Equal(Var(0), Var(0))),))
    return Padded(total, tuple(Equal(Var(s), Var(t)) for s, t in core))


def generate_scheme(N: LiftedStructure) -> InterpretationScheme:
    """Produce the interpretation scheme presenting the lift's relational
    companion inside its source M = N.source, its sort bijections included.

    Sorts: the anchor gets a width-2 presentation with the total equivalence
    (one class); the base sort is M itself under equality; each copy sort of
    width m(rel, i) consists of padded tuples keyed by their leading
    coordinates, with the limit sorts further cut down to relation members.
    The sorts are the companion's stored Structure.sort_partition.

    Translation formulas for every companion relation are emitted
    mechanically from the fiber semantics, in product order of the sorts,
    one formula object per distinct recipe (width and truth or index
    pairs).  Each sort's kind and width are read once, and each relation
    fills, per first sort, the row of recipes over the second sorts.  The
    bijections send the anchor to (0, 0), a base element to its source
    point, and a fiber element to its coordinates padded with 0 to the
    sort's width.  An empty source raises LiftError: the anchor sort needs a
    host tuple to present it.
    """
    M = N.source
    if not M.size:
        raise LiftError(
            "the source structure is empty: no scheme presents its lift, "
            "whose anchor needs a host tuple"
        )
    companion = N.companion
    realized = companion.sort_partition
    if list(realized.values()) != list(N.sorts.values()):
        raise LiftError("companion sorts differ from the lift's sorts (internal error)")

    sorts: list[SchemeSort] = []
    kinds: list[Provenance] = []
    bij: dict[AtomicType, dict[int, tuple[int, ...]]] = {}
    for key, block in realized.items():
        kind = N.provenance[block[0]]
        if isinstance(kind, Anchor):
            width, r, E = 2, Padded(2), Padded(4)
            bij[key] = {block[0]: (0,) * 2}
        elif isinstance(kind, BaseElem):
            width, r, E = 1, Padded(1), Equal(Var(0), Var(1))
            bij[key] = {e: (N.provenance[e].source,) for e in block}
        else:
            width, r, E = _fiber_sort_formulas(N, kind.rel, kind.copy)
            bij[key] = {
                e: N.provenance[e].coords + (0,) * (width - len(N.provenance[e].coords))
                for e in block
            }
        sorts.append(SchemeSort(key=key, width=width, domain_formula=r, equiv_formula=E))
        kinds.append(kind)

    keys = [s.key for s in sorts]
    widths = [s.width for s in sorts]
    unary = {
        "base": [isinstance(kind, BaseElem) for kind in kinds],
        "anchor": [isinstance(kind, Anchor) for kind in kinds],
    }
    fiber = [kind.rel if isinstance(kind, FiberElem) else None for kind in kinds]
    copy = [kind.copy if isinstance(kind, FiberElem) else None for kind in kinds]
    singles, combos = [*zip(keys)], [[(a, b) for b in keys] for a in keys]
    never = [False] * len(keys)
    # one formula per distinct recipe, for this scheme only
    formula = functools.cache(_recipe_formula)
    translations: dict[tuple[str, tuple[AtomicType, ...]], Formula] = {}

    def emit(name: str, sort_keys: list, recipes) -> None:
        translations.update(zip(zip(itertools.repeat(name), sort_keys), map(formula, recipes)))

    roles = _companion_roles(M, N.config.k)
    for name, _ in companion.sig.relations:
        what, rel, index = roles[name]
        if what == "fiber":
            emit(name, singles, zip(widths, [r == rel for r in fiber]))
        elif what in unary:
            emit(name, singles, zip(widths, unary[what]))
        else:
            # the second sorts a fiber-indexed symbol links: base ones for a
            # projection, R-fiber ones for samefiber, copy j's for copy j
            linked = unary["base"] if what == "proj" else [
                r == rel and (what == "samefiber" or i == index) for r, i in zip(fiber, copy)
            ]
            # off its relation's fibers a function sends everything to the
            # anchor, and samefiber holds nowhere
            off = never if what == "samefiber" else unary["anchor"]
            for a, first in enumerate(kinds):
                totals = [widths[a] + w for w in widths]
                if fiber[a] != rel:
                    emit(name, combos[a], zip(totals, off))
                    continue
                if what == "proj":
                    pairs = ((index, widths[a]),)
                else:
                    pairs = tuple((t, widths[a] + t) for t in range(len(first.coords)))
                row = [(w, pairs if link else False) for w, link in zip(totals, linked)]
                emit(name, combos[a], row)

    return InterpretationScheme(sorts=tuple(sorts), translations=translations, bijections=bij)
