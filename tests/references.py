"""Reference forms that the library itself never calls.

Each one computes, the slow and plain way, what ``stablelift`` computes
faster or checks another way, and tests compare the two:

- ``automorphism_group_brute`` tries every permutation of the domain, the
  reference for the automorphism search on small degrees;
- ``greedy_lex_generators`` reads the greedy generators off one pruned lex
  walk of a Schreier-Sims chain of a group while it grows a second chain of
  the group they generate, the reference for the generators the search
  finds and ``aut`` prints;
- ``expanded`` writes each ``Padded`` node of a formula out as the
  conjunction it stands for (``conjunction`` of the reflexive atoms and the
  core), the reference for every formula reader's handling of the node;
- ``atomic_type`` walks the formula trees for one element, the reference
  for the column-wise ``formulas.sort_partition``;
- ``definable_quotient`` writes out every member of every class of the
  library's kernel quotient, which validation never asks for;
- ``brute_quotient`` evaluates a domain formula over all of ``M^width`` and
  any equivalence formula over all pairs of its tuples, with a witness for
  the first way it fails to be an equivalence (``transitivity_witness``
  names a failure of transitivity), the reference for the kernel quotient;
- ``first_failure`` scans a block of target tuples row by row, evaluating a
  translation at every choice of class members, the reference for the
  block decisions of scheme validation;
- ``check_classical_interpretation`` checks a single-sorted interpretation
  by brute-force invariance under the host's automorphism group;
- ``standard_corpus`` is every digraph on at most a few vertices, the
  corpus of the acceptance criteria, and
  ``random_digraph_at`` draws a digraph at a given edge probability, as
  ``corpus.random_digraph`` does at its fixed one;
- ``rigid_over`` certifies that only the identity fixes given points by
  refining from them, the reference for the lift's coordinate certificate
  ``lifting._rigid_over_base``;
- ``naming_points`` reads each lift element's names one element at a
  time, the reference for the column-wise ``lifting._rigid_over_base``;
- ``induced_by_fiber`` carries a source permutation to the lift one fiber
  element at a time, the reference for the column-wise
  ``lifting.direct_induced`` and the LiftMapError it raises;
- ``limit_elements_by_provenance``, ``witness_by_provenance`` and
  ``restricted_by_element`` read the limit copies, a continuity witness and
  the restriction to the base copy off the provenance or element by
  element, the references for ``lifting.limit_elements``,
  ``lifting.continuity_witness`` and ``lifting._restrict_automorphism``;
- ``continuity_escapes`` induces the generators of every witness's
  Schreier-Sims stabilizer and applies them to the lift element, the reference for
  ``verify-iso``'s continuity check through naming points;
- ``searched_decomposition`` takes the Schreier-Sims stabilizers of base
  parameters in the searched ``Aut(N)`` and ``Aut(M)``, the reference for the stabilizers
  ``report`` induces from ``Aut(M)``'s;
- ``scheme_to_json_dict`` is a scheme's JSON data, formula by formula and
  key by key, the reference for the text ``cli._scheme_text`` writes;
- ``translation_recipe`` decides one companion relation at one tuple of
  sorts from the provenance of each sort's elements, and
  ``generated_translations`` emits a lift's translations tuple of sorts by
  tuple of sorts with it, the reference for the row-wise
  ``lifting.generate_scheme``.
"""

from __future__ import annotations

import itertools
from collections import deque

import stabilizer_oracle
from refinement_oracle import root_partition, view_tables
from stabilizer_oracle import compose, pointwise_stabilizer
from stablelift.corpus import digraph, edge_pairs, exhaustive_digraphs
from stablelift.formulas import (
    And,
    AtomicType,
    Equal,
    Exists,
    Formula,
    FormulaError,
    Not,
    Or,
    Padded,
    Var,
    atomic_formula_basis,
    definable_set,
    eval_formula,
    format_formula,
    free_variables,
    free_width,
    sort_partition,
)
from stablelift.groups import (
    GroupError,
    PermGroup,
    Permutation,
    automorphism_group,
    is_automorphism,
)
from stablelift.interpretation import (
    CheckResult,
    InterpretationScheme,
    SchemeError,
    ValidationReport,
    _bijection_problem,
    _kernel_key,
    _Quotient,
)
from stablelift.lifting import (
    ANCHOR_NAME,
    BASE_NAME,
    LIMIT,
    Anchor,
    BaseElem,
    FiberElem,
    LiftMapError,
    _companion_roles,
    _recipe_formula,
    copy_function,
    direct_induced,
    fiber_predicate,
    projection_function,
)
from stablelift.stability import StabilityError, _decomposition, _source_counts
from stablelift.structures import Structure

BRUTE_DEGREE_LIMIT = 8


def automorphism_group_brute(M: Structure) -> list[Permutation]:
    """Every permutation of the domain passing is_automorphism, in
    lexicographic order.  Guarded to small degrees."""
    if M.size > BRUTE_DEGREE_LIMIT:
        raise GroupError(
            f"domain of size {M.size} too large for the brute oracle (limit {BRUTE_DEGREE_LIMIT})"
        )
    found = []
    for images in itertools.permutations(range(M.size)):
        pi = Permutation(images)
        if is_automorphism(M, pi):
            found.append(pi)
    return found


def greedy_lex_generators(
    G: PermGroup,
) -> tuple[list[Permutation], stabilizer_oracle.Chain]:
    """The greedy lexicographic generators of G's group, and a second chain
    H of the group they generate.  A lex walk of G's Schreier-Sims chain
    over the order 0..n-1 yields them: it skips a coset x * K inside H (x in
    H and K <= H, true from depth D on; the skip reads D and H as they
    grow), and once H is the whole group it skips everything."""
    chain = stabilizer_oracle.chain(G)
    levels = chain.nontrivial_levels()
    D = len(levels)
    H = stabilizer_oracle.Chain(G.degree)
    gens: list[Permutation] = []

    def walk(d: int, x: tuple[int, ...]):
        if d >= D and x in H:
            return
        if d == len(levels):
            yield x
            return
        trans = chain.trans[levels[d]]
        for z in sorted(trans, key=x.__getitem__):
            yield from walk(d + 1, compose(x, trans[z][0]))

    for g in walk(0, chain.identity):
        gens.append(Permutation(g))
        H.add(g)
        while D > 0 and all(s in H for s in chain.gens[levels[D - 1]]):
            D -= 1
    return gens, H


def conjunction(parts: list[Formula]) -> Formula:
    """Conjunction builder that never produces a one-part And (a lone part is
    returned as-is so printed formulas re-parse to the same AST)."""
    if not parts:
        raise FormulaError("empty conjunction")
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def tautology(nvars: int) -> Formula:
    """True everywhere, mentioning exactly the variables x0..x(nvars-1), as
    an expanded conjunction of atoms xq = xq."""
    return conjunction([Equal(Var(i), Var(i)) for i in range(nvars)])


def expanded(phi: Formula) -> Formula:
    """phi with every Padded node written out as its conjunction: the atoms
    xq = xq for q < width, then the core's parts; what printing phi and
    parsing the text give back."""
    if isinstance(phi, Padded):
        reflexive = [Equal(Var(q), Var(q)) for q in range(phi.width)]
        return conjunction(reflexive + list(map(expanded, phi.core)))
    if isinstance(phi, Not):
        return Not(expanded(phi.body))
    if isinstance(phi, And):
        return And(tuple(map(expanded, phi.parts)))
    if isinstance(phi, Or):
        return Or(tuple(map(expanded, phi.parts)))
    if isinstance(phi, Exists):
        return Exists(phi.var, expanded(phi.body))
    return phi


def atomic_type(M: Structure, a: int) -> AtomicType:
    """The atomic one-variable type of an element: which basis formulas hold
    of it."""
    if not (0 <= a < M.size):
        raise FormulaError(f"element {a} outside domain of size {M.size}")
    return tuple(
        text for text, phi in atomic_formula_basis(M.sig) if eval_formula(M, phi, {0: a})
    )


def kernel_quotient(M: Structure, r: Formula, E: Formula) -> _Quotient:
    """The library's quotient of r(M) by E.  Raises SchemeError unless E is
    a kernel whose key covers the positions r reads."""
    width = free_width(r)
    if free_variables(E) != frozenset(range(2 * width)):
        raise SchemeError(f"equivalence formula must use exactly x0..x{2 * width - 1}")
    return _Quotient(M, width, r, _kernel_key(width, r, E))


def quotient_members(q: _Quotient, idx: int) -> tuple[tuple[int, ...], ...]:
    """Class idx of a kernel quotient written out in lexicographic order:
    its core tuple with every value in each padding position."""
    pads = itertools.product(q.M.domain, repeat=len(q.pad))
    return tuple(sorted(q.full(q.cores[idx], p) for p in pads))


def definable_quotient(
    M: Structure, r: Formula, E: Formula
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The classes of r(M) under the kernel E, each sorted, ordered by least
    member.  Raises SchemeError unless E is a kernel whose key covers the
    positions r reads."""
    q = kernel_quotient(M, r, E)
    return tuple(quotient_members(q, idx) for idx in range(len(q.cores)))


def brute_quotient(M: Structure, r: Formula, E: Formula):
    """The unfactored quotient of r(M) by any formula E: r over all of
    M^width and E over all pairs of r(M), with the lex-least symmetry
    witness.  Returns r(M), the classes, each tuple's class and each
    class's least member."""
    width = len(free_variables(r))
    dom = definable_set(M, r)
    if free_variables(E) != frozenset(range(2 * width)):
        raise SchemeError(f"equivalence formula must use exactly x0..x{2 * width - 1}")
    rows = {
        s: {
            t
            for t in dom
            if eval_formula(M, E, {**dict(enumerate(s)), **dict(enumerate(t, width))})
        }
        for s in dom
    }
    for s in dom:
        if s not in rows[s]:
            raise SchemeError(f"not an equivalence relation: not reflexive at {s}")
        for t in sorted(rows[s]):
            if s not in rows[t]:
                raise SchemeError(f"not an equivalence relation: not symmetric at ({s}, {t})")
    class_of, classes = {}, []
    for s in dom:
        if s not in class_of:
            members, queue = set(), [s]
            while queue:
                u = queue.pop()
                if u not in members:
                    members.add(u)
                    queue.extend(rows[u] - members)
            for u in members:
                class_of[u] = len(classes)
            classes.append(tuple(sorted(members)))
    for s in dom:
        for t in dom:
            if (class_of[s] == class_of[t]) != (t in rows[s]):
                s, u, v = transitivity_witness(rows, s, t)
                raise SchemeError(f"not an equivalence relation: not transitive at ({s}, {u}, {v})")
    return dom, classes, class_of, tuple(c[0] for c in classes)


def transitivity_witness(rows: dict[tuple, set[tuple]], s: tuple, t: tuple) -> tuple:
    """A triple (s, u, v) with s~u, u~v and not s~v, given t in the class
    of s but not related to it: the first steps of a shortest path s ... t,
    found by breadth-first search with parent pointers inside the class."""
    parent = {s: s}
    queue = deque([s])
    while t not in parent:
        x = queue.popleft()
        for y in sorted(rows[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = [t]
    while path[-1] != s:
        path.append(parent[path[-1]])
    path.reverse()
    # on a shortest path, s and the vertex two steps on are unrelated
    return path[0], path[1], path[2]


def first_failure(
    M1: Structure,
    phi: Formula,
    held: frozenset,
    blocks: list[tuple[int, ...]],
    options: dict[int, tuple[tuple[int, ...], ...]],
) -> tuple[tuple[int, ...], str | FormulaError] | None:
    """The first tuple of the block's product that has an element without
    options or whose translation ``phi`` over M1, under some choice of
    options, disagrees with ``held``; with its witness, or the FormulaError
    its evaluation raised."""
    for elems in itertools.product(*blocks):
        if any(e not in options for e in elems):
            return elems, f"untranslatable tuple {elems}"
        holds = elems in held
        try:
            for reps in itertools.product(*[options[e] for e in elems]):
                if eval_formula(M1, phi, dict(enumerate(sum(reps, ())))) != holds:
                    return elems, f"tuple {elems} (target says {holds})"
        except FormulaError as e:
            return elems, e
    return None


def check_classical_interpretation(
    M: Structure,
    N: Structure,
    D: Formula,
    E: Formula,
    alpha: dict[int, tuple[int, ...]],
) -> ValidationReport:
    """Check the single-sorted interpretation data (definable set D with
    equivalence E, bijection alpha from N's domain onto D/E).

    Because every automorphism-invariant relation on a single finite
    structure is definable without parameters, definability of the pulled
    back relations is checked as closure under the automorphism group acting
    coordinatewise, for every relation of N in name order.
    """
    report = ValidationReport()
    report.checks.append(
        CheckResult("domain-definable", True, None)  # D is given by a formula
    )
    try:
        q = kernel_quotient(M, D, E)
    except SchemeError as e:
        report.checks.append(CheckResult("equivalence", False, str(e)))
        return report
    report.checks.append(CheckResult("equivalence", True, None))

    problem = _bijection_problem(q, alpha, N.domain)
    report.checks.append(CheckResult("bijection", problem is None, problem))
    if problem is not None:
        return report

    cls_to_elem = {q.index(alpha[b]): b for b in alpha}
    domain = sorted(t for idx in range(len(q.cores)) for t in quotient_members(q, idx))
    G = automorphism_group(M)

    for name, tuples in sorted(N.relation_sets.items()):
        arity = len(next(iter(tuples))) if tuples else 0
        witness = None
        if tuples:
            # pull back to the host: concatenations of class members
            def pulled_membership(blocks: tuple[tuple[int, ...], ...]) -> bool:
                elems = tuple(cls_to_elem[q.index(b)] for b in blocks)
                return elems in tuples

            for blocks in itertools.product(domain, repeat=arity):
                if not pulled_membership(blocks):
                    continue
                for g in G.generators:
                    moved = tuple(g.apply_tuple(b) for b in blocks)
                    if any(q.index(b) is None for b in moved) or not pulled_membership(moved):
                        flat = tuple(x for b in blocks for x in b)
                        witness = (
                            f"tuple {flat} maps outside the relation under "
                            f"automorphism {list(g.images)}"
                        )
                        break
                if witness:
                    break
        report.checks.append(
            CheckResult(f"invariance[{name}]", witness is None, witness)
        )
    return report


def standard_corpus(max_size: int = 3) -> list[tuple[str, Structure]]:
    """Every repetition-free digraph on 1..max_size vertices, as (name,
    structure) pairs in order of size, then of edge bitmask."""
    out: list[tuple[str, Structure]] = []
    for size in range(1, max_size + 1):
        out.extend(exhaustive_digraphs(size))
    return out


def random_digraph_at(rng, size: int, edge_probability: float) -> Structure:
    """A digraph that holds each edge of edge_pairs(size) with the given
    probability, one draw of rng per pair."""
    return digraph(size, [p for p in edge_pairs(size) if rng.random() < edge_probability])


def rigid_over(M: Structure, sorts, points) -> bool:
    """Whether refining the blocks of ``sorts``, each of ``points`` split off
    first as a singleton, is discrete: refinement commutes with
    automorphisms, so then only the identity keeps every block and fixes
    every point (McKay 1981; McKay & Piperno 2014).  Built on the plain
    refinement of refinement_oracle, it shares no code with the library."""
    fixed = set(points)
    rest = [[x for x in block if x not in fixed] for block in sorts]
    blocks = [[x] for x in sorted(fixed)] + [block for block in rest if block]
    return len(root_partition(M, view_tables(M), blocks)[2]) == M.size


def naming_points(N):
    """_rigid_over_base element by element: the naming points of every lift
    element, or None when some projection value lies outside the anchor
    and the base copy or two elements share fiber predicates, fixing copy
    selectors and projection values."""
    S, rels = N.structure, N.source.sig.relations
    base = {e for (e,) in S.relation_sets[BASE_NAME]}
    fixed = {S.constants[ANCHOR_NAME], *base}
    predicates = [S.relation_sets[fiber_predicate(rel)] for rel, _ in rels]
    selectors = [S.functions[copy_function(rel, j)] for rel, _ in rels for j in range(N.config.k)]
    projections = [S.functions[projection_function(rel, t)] for rel, n in rels for t in range(n)]
    points, names = [], set()
    for e in S.domain:
        values = (e,) if e in fixed else tuple(p[e] for p in projections)
        if not fixed.issuperset(values):
            return None
        if e not in fixed:
            names.add((tuple((e,) in P for P in predicates), tuple(f[e] == e for f in selectors),
                       values))
        points.append(tuple([v - 1 for v in values if v in base]))
    return tuple(points) if len(names) == S.size - len(fixed) else None


def induced_by_fiber(N, pi: Permutation) -> Permutation:
    """direct_induced one fiber element at a time: the anchor fixed, 1 + a
    sent to 1 + pi(a), and each copy of a fiber to the same copy of the
    fiber over the image tuple.  A copy that the image's fiber lacks, the
    limit copy over a relation tuple whose image is no relation tuple,
    raises the LiftMapError naming the first such fiber in fiber order."""
    images = list(range(N.structure.size))
    for a in N.source.domain:
        images[N.base_id(a)] = N.base_id(pi(a))
    for rel, table in N.fibers.items():
        for coords, copies in table.items():
            moved = tuple(pi(x) for x in coords)
            target = table.get(moved, {})
            for i, e in copies.items():
                if i not in target:
                    raise LiftMapError(rel, coords, moved)
                images[e] = target[i]
    return Permutation(tuple(images))


def limit_elements_by_provenance(N, rel: str) -> tuple[int, ...]:
    """The limit copies of the relation's fibers, read off the provenance."""
    return tuple(
        e for e, p in enumerate(N.provenance)
        if isinstance(p, FiberElem) and p.rel == rel and p.copy == LIMIT
    )


def witness_by_provenance(N, B) -> frozenset[int]:
    """continuity_witness read off each element's provenance: the source
    point of a base element, the coordinates of a fiber element and nothing
    for the anchor."""
    A: set[int] = set()
    for b in B:
        p = N.provenance[b]
        if isinstance(p, BaseElem):
            A.add(p.source)
        elif isinstance(p, FiberElem):
            A.update(p.coords)
    return frozenset(A)


def restricted_by_element(N, pihat: Permutation) -> Permutation:
    """A lift automorphism's restriction to the base copy, one base element
    at a time: a is sent to pihat(1 + a) - 1."""
    return Permutation(tuple(pihat(N.base_id(a)) - 1 for a in N.source.domain))


def continuity_escapes(N, GM, witness) -> list[bool]:
    """Per lift element b, whether a member of GM = Aut(N.source) that fixes
    A = witness(N, (b,)) pointwise induces a map moving b: one
    pointwise_stabilizer per support, its generators induced and applied to
    b.  The maps fixing b form a subgroup and direct_induced is a
    homomorphism, so the generators decide it."""
    escapes = []
    for b in range(N.structure.size):
        stabilizer = pointwise_stabilizer(GM, witness(N, (b,)))
        escapes.append(any(direct_induced(N, g)(b) != b for g in stabilizer.generators))
    return escapes


def searched_decomposition(N, A, group_M=None, group_N=None):
    """The orbit decomposition of lift N over base parameters A, from the
    pointwise stabilizers of A in group_N and of A's source points in
    group_M, each searched when not given."""
    A = sorted(set(A))
    if not all(isinstance(N.provenance[b], BaseElem) for b in A):
        raise StabilityError(f"parameters {A} are not all base elements")
    GN = pointwise_stabilizer(group_N or automorphism_group(N.structure), A)
    GM = pointwise_stabilizer(
        group_M or automorphism_group(N.source), [N.provenance[b].source for b in A]
    )
    return _decomposition(N, GN, _source_counts(N.source, N.fibers, GM))


def scheme_to_json_dict(scheme: InterpretationScheme) -> dict:
    """The scheme as JSON data: its sorts, its translations in order and its
    bijections by sort key, each formula formatted where it stands and
    each sort key a fresh list of its atoms."""
    return {
        "sorts": [
            {
                "key": list(s.key),
                "width": s.width,
                "domain": format_formula(s.domain_formula),
                "equivalence": format_formula(s.equiv_formula),
            }
            for s in scheme.sorts
        ],
        "relations": [
            {"relation": rel, "sorts": [list(key) for key in keys], "formula": format_formula(phi)}
            for (rel, keys), phi in scheme.translations.items()
        ],
        "bijections": [
            {"key": list(key), "map": [[b, list(rep)] for b, rep in sorted(fmap.items())]}
            for key, fmap in sorted(scheme.bijections.items())
        ],
    }


def translation_recipe(role, kinds, widths):
    """What decides one companion relation at one tuple of sorts, each sort
    given by the provenance of one of its elements and by its width, over
    the source structure: the width of the translation and either its
    truth or the index pairs (s, t) of its atoms xs = xt.  Most
    combinations are decided by the sorts alone (a truth); the
    fiber-indexed symbols compare tuple coordinates across blocks (the
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


def generated_translations(N, scheme: InterpretationScheme) -> tuple[dict, dict]:
    """The translations generate_scheme emits for the lift N, with the sort
    widths of ``scheme``: one translation_recipe per tuple of the
    companion's sorts, freshly partitioned, in product order of the
    companion's relations, each with a fresh formula; and the recipe of
    each translation, by (relation, sort keys)."""
    kinds = {key: N.provenance[block[0]] for key, block in sort_partition(N.companion).items()}
    widths = {s.key: s.width for s in scheme.sorts}
    roles = _companion_roles(N.source, N.config.k)
    translations, recipes = {}, {}
    for name, arity in N.companion.sig.relations:
        for combo in itertools.product(kinds, repeat=arity):
            recipe = translation_recipe(
                roles[name], tuple(kinds[k] for k in combo), tuple(widths[k] for k in combo)
            )
            recipes[name, combo] = recipe
            translations[name, combo] = _recipe_formula(recipe)
    return translations, recipes
