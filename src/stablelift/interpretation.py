"""Interpretation schemes between finite relational structures.

A scheme presents one structure sort-by-sort inside another: each sort (an
atomic one-variable type of the target) gets a definable set with an
equivalence relation over the host, a bijection onto the quotient, and each
target relation gets a translation formula.  A validated scheme transports
every host automorphism to a target automorphism.

Variable blocks: a sort of width m uses host variables x0..x(m-1); its
equivalence formula uses x0..x(2m-1) with the second block as the partner
tuple; a translation formula for a relation over sorts of widths m0..m(k-1)
uses consecutive blocks of those widths.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field

# definable_set and eval_formula are no longer called here but stay
# importable at this site, where perfbench/spans.py wraps them
from .formulas import (
    AtomicType,
    Equal,
    Formula,
    FormulaError,
    Not,
    Var,
    _compile_formula,
    conjunction,
    definable_set,
    eval_formula,
    format_formula,
    free_variables,
    free_width,
    inert_variables,
    sort_partition,
)
from .groups import Permutation, automorphism_group, is_automorphism
from .structures import Structure

__all__ = [
    "SchemeError",
    "SchemeSort",
    "SchemeRel",
    "InterpretationScheme",
    "SortBijections",
    "ValidationReport",
    "CheckResult",
    "definable_quotient",
    "validate_scheme",
    "induced_automorphism",
    "check_classical_interpretation",
    "negate_translation",
    "weaken_equivalence",
    "redirect_bijection",
    "scheme_to_json_dict",
]


class SchemeError(ValueError):
    """Structural problems: unknown sort keys, width mismatches, bad blocks."""


@dataclass(frozen=True)
class SchemeSort:
    """One sort of the target: definable set plus equivalence over the host."""

    key: AtomicType
    width: int
    domain_formula: Formula
    equiv_formula: Formula

    def __post_init__(self) -> None:
        if self.width < 1:
            raise SchemeError("sort width must be positive")
        if free_variables(self.domain_formula) != frozenset(range(self.width)):
            raise SchemeError(
                f"sort domain formula must use exactly x0..x{self.width - 1}"
            )
        if free_variables(self.equiv_formula) != frozenset(range(2 * self.width)):
            raise SchemeError(
                f"sort equivalence formula must use exactly x0..x{2 * self.width - 1}"
            )


@dataclass(frozen=True)
class SchemeRel:
    """Translation formula for one target relation at one tuple of sorts."""

    rel: str
    sort_keys: tuple[AtomicType, ...]
    formula: Formula

    # found once per instance: a scheme and its mutants share SchemeRels,
    # so a mutant walks only the formula tree it replaces
    @functools.cached_property
    def _free_vars(self) -> frozenset[int]:
        return free_variables(self.formula)


@dataclass(frozen=True)
class InterpretationScheme:
    sorts: tuple[SchemeSort, ...]
    rels: tuple[SchemeRel, ...]
    # translations: (rel, sort_keys) -> first matching SchemeRel, derived in
    # __post_init__ so translation() is one dict lookup
    translations: dict[tuple[str, tuple[AtomicType, ...]], SchemeRel] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        keys = [s.key for s in self.sorts]
        if len(set(keys)) != len(keys):
            raise SchemeError("sort keys must be distinct")
        widths = {s.key: s.width for s in self.sorts}
        # id(formula) -> its free variables and n when they are exactly
        # x0..x(n-1), else -1: found once per distinct formula object
        exact: dict[int, tuple[frozenset[int], int]] = {}
        for sr in self.rels:
            try:
                total = sum(map(widths.__getitem__, sr.sort_keys))
            except KeyError:
                raise SchemeError(f"unknown sort key in translation for {sr.rel!r}") from None
            found = exact.get(id(sr.formula))
            if found is None:
                fv = sr._free_vars
                n = len(fv) if fv == frozenset(range(len(fv))) else -1
                found = exact[id(sr.formula)] = fv, n
            else:
                # fill the cached property, so that a mutant which keeps this
                # SchemeRel but replaces the one that found fv needs no walk
                vars(sr).setdefault("_free_vars", found[0])
            if found[1] != total:
                raise SchemeError(
                    f"translation formula for {sr.rel!r} must use exactly x0..x{total - 1}"
                )
            self.translations.setdefault((sr.rel, sr.sort_keys), sr)

    def translation(self, rel: str, sort_keys: tuple[AtomicType, ...]) -> SchemeRel | None:
        return self.translations.get((rel, sort_keys))


@dataclass(frozen=True)
class SortBijections:
    """Per sort, the map from target elements of that sort to representative
    host tuples (each representative names its equivalence class; the
    canonical choice is the lexicographically least class member)."""

    maps: dict[AtomicType, dict[int, tuple[int, ...]]] = field(default_factory=dict)

    def __getitem__(self, key: AtomicType) -> dict[int, tuple[int, ...]]:
        return self.maps[key]


@dataclass(frozen=True)
class CheckResult:
    condition: str
    passed: bool
    witness: str | None = None


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"condition": c.condition, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
        }


# -- quotients ----------------------------------------------------------------


class _Quotient:
    """r(M)/E with class lookup; verifies E is an equivalence on r(M).

    Position q is padding when x_q is inert in r and x_q, x_(width+q) are
    inert in E: the truth of r and E never depends on it.  r and E are then
    evaluated on the other (core) positions only, with padding set to
    M.domain[0], and each core class is expanded by M^pad into full tuples.
    A witness is its core witness with M.domain[0] in the padding positions.
    r and E are compiled once; a constant one decides every tuple at once.
    """

    def __init__(self, M: Structure, r: Formula, E: Formula):
        self.width = n = free_width(r)
        inert_r, inert_E = inert_variables(r), inert_variables(E)
        # over an empty domain nothing is padding: M^width is empty anyway
        pad = [q for q in range(n) if M.size and q in inert_r and {q, n + q} <= inert_E]
        core = [q for q in range(n) if q not in pad]
        low = tuple(M.domain[0] for _ in pad)
        where = [(core + pad).index(q) for q in range(n)]

        def full(c: tuple, p: tuple = low) -> tuple:
            cp = c + p
            return tuple(cp[i] for i in where)

        cores = itertools.product(M.domain, repeat=len(core))
        in_r = _compile_formula(M, r)
        if isinstance(in_r, bool):
            dom = list(cores) if in_r else []
        else:
            dom = [c for c in cores if in_r(full(c))]
        if free_variables(E) != frozenset(range(2 * n)):
            raise SchemeError(
                f"equivalence formula must use exactly x0..x{2 * n - 1}"
            )

        related = _compile_formula(M, E)
        rows: dict[tuple, set[tuple]]
        if isinstance(related, bool):
            # never mutated: every row may be the same set
            shared = set(dom) if related else set()
            rows = {s: shared for s in dom}
        else:
            fulls = [full(t) for t in dom]
            rows = {
                s: {t for t, ft in zip(dom, fulls) if related(fs + ft)}
                for s, fs in zip(dom, fulls)
            }
        for s in dom:
            if s not in rows[s]:
                raise SchemeError(
                    f"not an equivalence relation: not reflexive at {full(s)}"
                )
            for t in sorted(rows[s]):
                if s not in rows[t]:
                    raise SchemeError(
                        "not an equivalence relation: not symmetric at "
                        f"({full(s)}, {full(t)})"
                    )
        # group into tentative classes, then confirm rows match the grouping;
        # a mismatch yields an explicit transitivity witness
        class_of: dict[tuple, int] = {}
        core_classes: list[set[tuple]] = []
        for s in dom:
            if s in class_of:
                continue
            members = set()
            queue = [s]
            while queue:
                u = queue.pop()
                if u in members:
                    continue
                members.add(u)
                queue.extend(rows[u] - members)
            for u in members:
                class_of[u] = len(core_classes)
            core_classes.append(members)
        for s in dom:
            for t in dom:
                if (class_of[s] == class_of[t]) != (t in rows[s]):
                    triple = _transitivity_witness(rows, s, t)
                    raise SchemeError(
                        "not an equivalence relation: not transitive at "
                        f"({', '.join(str(full(c)) for c in triple)})"
                    )
        pads = list(itertools.product(M.domain, repeat=len(pad)))
        self.classes: list[tuple[tuple, ...]] = [
            tuple(sorted(full(c, p) for c in members for p in pads))
            for members in core_classes
        ]
        self.class_of: dict[tuple, int] = {
            t: idx for idx, cls in enumerate(self.classes) for t in cls
        }
        self.domain = tuple(sorted(self.class_of))
        self.representatives = tuple(c[0] for c in self.classes)


def _transitivity_witness(rows: dict[tuple, set[tuple]], s: tuple, t: tuple) -> tuple:
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


def definable_quotient(
    M: Structure, r: Formula, E: Formula
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The classes of r(M) under E, each sorted, ordered by least member.

    Raises SchemeError with a witness if E is not an equivalence on r(M).
    """
    q = _Quotient(M, r, E)
    return tuple(sorted(q.classes, key=lambda c: c[0]))


# -- scheme validation ---------------------------------------------------------


def _bijection_problem(
    q: _Quotient, fmap: dict[int, tuple[int, ...]], elements
) -> str | None:
    """The first way fmap fails to be a bijection from ``elements`` onto the
    classes of q (total, inside the definable set, injective on classes,
    onto), or None if it is one."""
    if set(fmap) != set(elements):
        return "map not total on the sort's elements"
    hit: set[int] = set()
    for _, rep in sorted(fmap.items()):
        cls = q.class_of.get(rep)
        if cls is None:
            return f"representative {rep} outside the definable set"
        if cls in hit:
            return f"not injective: class of {rep} hit twice"
        hit.add(cls)
    if len(hit) != len(q.classes):
        return "not onto: some class has no preimage"
    return None


def _require_relational(M: Structure, label: str) -> None:
    if not M.is_relational():
        raise SchemeError(
            f"{label} must be purely relational (use relational_companion first)"
        )


def _sort_cover(
    realized: dict[AtomicType, tuple[int, ...]], scheme: InterpretationScheme
) -> CheckResult:
    """The scheme lists exactly the sorts the target realizes."""
    scheme_keys = {s.key for s in scheme.sorts}
    missing = set(realized) - scheme_keys
    extra = scheme_keys - set(realized)
    passed = not missing and not extra
    witness = None if passed else f"missing={len(missing)} extra={len(extra)} sort keys"
    return CheckResult("sort-cover", passed, witness)


def _sort_pass(
    M1: Structure,
    scheme: InterpretationScheme,
    bijections: SortBijections,
    realized: dict[AtomicType, tuple[int, ...]],
) -> tuple[dict[AtomicType, _Quotient | None], list[CheckResult], list[CheckResult]]:
    """Each scheme sort's quotient over M1 (None where its equivalence
    fails), with the sort-quotient and sort-bijection checks, in scheme
    order; a sort whose quotient failed gets no bijection check."""
    quotients: dict[AtomicType, _Quotient | None] = {}
    sort_checks, bijection_checks = [], []
    for idx, s in enumerate(scheme.sorts):
        try:
            q = _Quotient(M1, s.domain_formula, s.equiv_formula)
        except SchemeError as e:
            quotients[s.key] = None
            sort_checks.append(CheckResult(f"sort-quotient[{idx}]", False, str(e)))
            continue
        quotients[s.key] = q
        nonempty = bool(q.domain) or s.key not in realized
        witness = None if nonempty else "definable set empty for a realized sort"
        sort_checks.append(CheckResult(f"sort-quotient[{idx}]", nonempty, witness))
        problem = _bijection_problem(
            q, bijections.maps.get(s.key, {}), realized.get(s.key, ())
        )
        bijection_checks.append(CheckResult(f"sort-bijection[{idx}]", problem is None, problem))
    return quotients, sort_checks, bijection_checks


def validate_scheme(
    M1: Structure,
    M2: Structure,
    scheme: InterpretationScheme,
    bijections: SortBijections,
    *,
    include: tuple[str, ...] = ("sorts", "bijections", "cover", "agreement"),
    relations: set[str] | None = None,
    representative_independence: bool = False,
) -> ValidationReport:
    """Check every scheme condition, reporting pass/fail with witnesses.

    ``include`` selects condition families (used to focus mutation tests);
    ``relations`` restricts the agreement scan to the named target relations.
    ``representative_independence`` additionally re-checks relation agreement
    over every class member rather than just the stored representative
    (quadratic in class sizes; meant for small hosts).
    """
    _require_relational(M1, "host structure")
    _require_relational(M2, "target structure")
    report = ValidationReport()
    realized = sort_partition(M2)
    if "cover" in include:
        report.checks.append(_sort_cover(realized, scheme))

    # one quotient per sort, and none when no requested check reads them
    quotients: dict[AtomicType, _Quotient | None] = {}
    if "sorts" in include or "bijections" in include or representative_independence:
        quotients, sort_checks, bijection_checks = _sort_pass(M1, scheme, bijections, realized)
        if "sorts" in include:
            report.checks += sort_checks
        if "bijections" in include:
            report.checks += bijection_checks

    element_sort: dict[int, AtomicType] = {}
    for key, block in realized.items():
        for b in block:
            element_sort[b] = key

    if "cover" in include:
        missing_pairs = []
        for name, arity in M2.sig.relations:
            for keys in itertools.product(sorted(realized), repeat=arity):
                if scheme.translation(name, keys) is None:
                    missing_pairs.append(name)
        witness = f"no translation formula for {missing_pairs[0]!r}" if missing_pairs else None
        report.checks.append(CheckResult("translation-cover", not missing_pairs, witness))

    if "agreement" in include:
        rep_of: dict[int, tuple[int, ...]] = {}
        for fmap in bijections.maps.values():
            rep_of.update(fmap)
        # the host tuples each element stands for: its representative, or
        # its whole class; an element without a valid class has none
        options: dict[int, tuple[tuple[int, ...], ...]] = {}
        widths = {s.key: s.width for s in scheme.sorts}
        for b, rep in rep_of.items():
            key = element_sort.get(b)
            q = quotients.get(key)
            if not representative_independence:
                # one of the wrong width would shift every variable block after it
                if len(rep) == widths.get(key):
                    options[b] = (rep,)
            elif q is not None and rep in q.class_of:
                options[b] = q.classes[q.class_of[rep]]
        label = "representative-independence" if representative_independence else "relation-agreement"
        # id(formula) -> its compiled form, shared by every relation's scan
        compiled: dict[int, bool | Callable[[tuple[int, ...]], bool]] = {}
        for name, arity in M2.sig.relations:
            if relations is not None and name not in relations:
                continue
            witness = _agreement_witness(
                M1, M2, scheme, name, arity, realized, element_sort, options, compiled
            )
            report.checks.append(CheckResult(f"{label}[{name}]", witness is None, witness))

    return report


def _agreement_witness(
    M1: Structure,
    M2: Structure,
    scheme: InterpretationScheme,
    name: str,
    arity: int,
    realized: dict[AtomicType, tuple[int, ...]],
    element_sort: dict[int, AtomicType],
    options: dict[int, tuple[tuple[int, ...], ...]],
    compiled: dict[int, bool | Callable[[tuple[int, ...]], bool]],
) -> str | None:
    """The witness of the first tuple of M2^arity, in product order, whose
    translation is missing, cannot be evaluated, or disagrees with M2.

    The tuples split into blocks, one per tuple of sorts, and each block
    gives its least failing tuple; the first failure is the least of those.
    Each distinct formula object is compiled once into ``compiled``, keyed
    by its id, which the caller shares between relations.  A block whose
    elements all have options and whose translation is constant False fails
    first at its least held tuple; any other block is scanned tuple by
    tuple.  A FormulaError at the first failure is raised, as evaluating the
    tuples in order would.
    """
    held = M2.relation_sets[name]
    held_in: dict[tuple[AtomicType, ...], list[tuple[int, ...]]] = {}
    for t in held:
        held_in.setdefault(tuple(element_sort[e] for e in t), []).append(t)
    covered = {key: all(e in options for e in block) for key, block in realized.items()}
    failures = []  # per block: (least failing tuple, witness or FormulaError)
    for keys in itertools.product(realized, repeat=arity):
        blocks = [realized[key] for key in keys]
        sr = scheme.translation(name, keys)
        if sr is None:
            least = tuple(block[0] for block in blocks)
            failures.append((least, f"untranslatable tuple {least}"))
            continue
        form = compiled.get(id(sr.formula))
        if form is None:
            form = compiled[id(sr.formula)] = _compile_formula(M1, sr.formula)
        if form is False and all(covered[key] for key in keys):
            elems = min(held_in.get(keys, ()), default=None)
            if elems is not None:
                failures.append((elems, f"tuple {elems} (target says True)"))
        elif found := _first_failure(form, held, blocks, options):
            failures.append(found)
    if not failures:
        return None
    _, outcome = min(failures, key=lambda failure: failure[0])
    if isinstance(outcome, FormulaError):
        raise outcome
    return outcome


def _first_failure(
    form: bool | Callable[[tuple[int, ...]], bool],
    held: frozenset,
    blocks: list[tuple[int, ...]],
    options: dict[int, tuple[tuple[int, ...], ...]],
) -> tuple[tuple[int, ...], str | FormulaError] | None:
    """The first tuple of the block's product that has an element without
    options or whose translation, under some choice of options, disagrees
    with ``held``; with its witness, or the FormulaError its evaluation
    raised."""
    for elems in itertools.product(*blocks):
        if any(e not in options for e in elems):
            return elems, f"untranslatable tuple {elems}"
        holds = elems in held
        if isinstance(form, bool):
            # every choice of options gives the same answer
            if form != holds:
                return elems, f"tuple {elems} (target says {holds})"
            continue
        try:
            for reps in itertools.product(*[options[e] for e in elems]):
                if form(sum(reps, ())) != holds:
                    return elems, f"tuple {elems} (target says {holds})"
        except FormulaError as e:
            return elems, e
    return None


# -- induced automorphisms -----------------------------------------------------


def induced_automorphism(
    M1: Structure,
    M2: Structure,
    scheme: InterpretationScheme,
    bijections: SortBijections,
    pi: Permutation,
) -> Permutation:
    """Transport a host automorphism through a validated scheme.

    A target element maps to the element whose class is the coordinatewise
    image of its representative's class.  Identity goes to identity and
    composition is preserved.  The map fails with the witness of the first
    failing sort check of validation (cover, quotients, bijections), or with
    a diagnostic if the definable sets are not closed under the automorphism.
    """
    if not is_automorphism(M1, pi):
        raise SchemeError("the supplied permutation is not an automorphism of the host")
    realized = sort_partition(M2)
    quotients, sort_checks, bijection_checks = _sort_pass(M1, scheme, bijections, realized)
    for check in [_sort_cover(realized, scheme), *sort_checks, *bijection_checks]:
        if not check.passed:
            raise SchemeError(check.witness)
    images = [-1] * M2.size
    for s in scheme.sorts:
        q, fmap = quotients[s.key], bijections.maps[s.key]
        by_class = {q.class_of[rep]: b for b, rep in fmap.items()}
        for b in realized[s.key]:
            moved = pi.apply_tuple(fmap[b])
            cls = q.class_of.get(moved)
            if cls is None or cls not in by_class:
                raise SchemeError(
                    f"scheme not automorphism-invariant: image of {fmap[b]} "
                    "leaves the range of the sort bijection"
                )
            images[b] = by_class[cls]
    pihat = Permutation(tuple(images))
    if not is_automorphism(M2, pihat):
        raise SchemeError("induced map is not an automorphism of the target")
    return pihat


# -- classical interpretability (finite-scale proxy) ---------------------------


def check_classical_interpretation(
    M: Structure,
    N: Structure,
    D: Formula,
    E: Formula,
    alpha: dict[int, tuple[int, ...]],
    extra_relations: dict[str, set[tuple[int, ...]]] | None = None,
) -> ValidationReport:
    """Check the single-sorted interpretation data (definable set D with
    equivalence E, bijection alpha from N's domain onto D/E).

    Because every automorphism-invariant relation on a single finite
    structure is definable without parameters, definability of the pulled
    back relations is checked as closure under the automorphism group acting
    coordinatewise.  ``extra_relations`` lets callers plant additional
    relation interpretations over N to test.
    """
    report = ValidationReport()
    report.checks.append(
        CheckResult("domain-definable", True, None)  # D is given by a formula
    )
    try:
        q = _Quotient(M, D, E)
    except SchemeError as e:
        report.checks.append(CheckResult("equivalence", False, str(e)))
        return report
    report.checks.append(CheckResult("equivalence", True, None))

    problem = _bijection_problem(q, alpha, N.domain)
    report.checks.append(CheckResult("bijection", problem is None, problem))
    if problem is not None:
        return report

    cls_to_elem = {q.class_of[alpha[b]]: b for b in alpha}
    G = automorphism_group(M)
    n = q.width

    todo: dict[str, frozenset] = {name: N.relation_sets[name] for name, _ in N.sig.relations}
    for name, tuples in (extra_relations or {}).items():
        todo[name] = frozenset(tuples)

    for name, tuples in sorted(todo.items()):
        arity = len(next(iter(tuples))) if tuples else 0
        witness = None
        if tuples:
            # pull back to the host: concatenations of class members
            def pulled_membership(blocks: tuple[tuple[int, ...], ...]) -> bool:
                elems = tuple(cls_to_elem[q.class_of[b]] for b in blocks)
                return elems in tuples

            for blocks in itertools.product(q.domain, repeat=arity):
                if not pulled_membership(blocks):
                    continue
                for g in G.generators:
                    moved = tuple(g.apply_tuple(b) for b in blocks)
                    if any(b not in q.class_of for b in moved) or not pulled_membership(moved):
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


# -- mutations (for negative testing) -------------------------------------------


def negate_translation(scheme: InterpretationScheme, index: int) -> InterpretationScheme:
    """Flip one translation formula; a validated scheme must stop validating."""
    rels = list(scheme.rels)
    sr = rels[index]
    rels[index] = SchemeRel(rel=sr.rel, sort_keys=sr.sort_keys, formula=Not(sr.formula))
    return InterpretationScheme(sorts=scheme.sorts, rels=tuple(rels))


def weaken_equivalence(scheme: InterpretationScheme, sort_index: int) -> InterpretationScheme:
    """Replace a sort's equivalence by tuple identity, splitting every class
    into singletons; the sort bijection stops being onto whenever some class
    had more than one member."""
    sorts = list(scheme.sorts)
    s = sorts[sort_index]
    m = s.width
    identity = conjunction(
        [Equal(Var(q), Var(q)) for q in range(2 * m)]
        + [Equal(Var(q), Var(m + q)) for q in range(m)]
    )
    sorts[sort_index] = SchemeSort(
        key=s.key, width=s.width, domain_formula=s.domain_formula, equiv_formula=identity
    )
    return InterpretationScheme(sorts=tuple(sorts), rels=scheme.rels)


def redirect_bijection(bijections: SortBijections, key: AtomicType) -> SortBijections:
    """Send the sort's least element to the class of its second element,
    making the map neither injective nor onto (needs two elements)."""
    fmap = dict(bijections.maps[key])
    elems = sorted(fmap)
    if len(elems) < 2:
        raise SchemeError("sort has fewer than two elements; cannot redirect")
    fmap[elems[0]] = fmap[elems[1]]
    maps = dict(bijections.maps)
    maps[key] = fmap
    return SortBijections(maps=maps)


# -- serialization --------------------------------------------------------------


def scheme_to_json_dict(
    scheme: InterpretationScheme, bijections: SortBijections
) -> dict:
    texts: dict[int, str] = {}  # id(formula) -> text, once per distinct formula object

    def text(phi: Formula) -> str:
        if id(phi) not in texts:
            texts[id(phi)] = format_formula(phi)
        return texts[id(phi)]

    return {
        "sorts": [
            {
                "key": list(s.key.key),
                "width": s.width,
                "domain": text(s.domain_formula),
                "equivalence": text(s.equiv_formula),
            }
            for s in scheme.sorts
        ],
        "relations": [
            {
                "relation": sr.rel,
                "sorts": [list(k.key) for k in sr.sort_keys],
                "formula": text(sr.formula),
            }
            for sr in scheme.rels
        ],
        "bijections": [
            {
                "key": list(key.key),
                "map": [[b, list(rep)] for b, rep in sorted(fmap.items())],
            }
            for key, fmap in sorted(bijections.maps.items(), key=lambda kv: kv[0].key)
        ],
    }
