"""Interpretation schemes between finite relational structures.

A scheme presents one structure sort-by-sort inside another: each sort (an
atomic one-variable type of the target) gets a definable set with an
equivalence relation over the host and a bijection onto the quotient, and
each target relation gets a translation formula; the scheme holds all of
them, bijections included.  A validated scheme transports every host
automorphism to a target automorphism.

Variable blocks: a sort of width m uses host variables x0..x(m-1); its
equivalence formula uses x0..x(2m-1) with the second block as the partner
tuple; a translation formula for a relation over sorts of widths m0..m(k-1)
uses consecutive blocks of those widths.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque
from collections.abc import Container
from dataclasses import dataclass, field, replace

# perfbench/spans.py wraps eval_formula at this import site, where the
# quotients and the row-by-row agreement scan call it; definable_set is not
# called here but stays importable at the same site
from .formulas import (
    And,
    AtomicType,
    Equal,
    Formula,
    FormulaError,
    Not,
    Var,
    conjunction,
    definable_set,
    eval_formula,
    format_formula,
    free_variables,
    free_width,
    inert_variables,
    sort_partition,
)
from .groups import Permutation, is_automorphism
from .structures import Structure

__all__ = [
    "SchemeError",
    "SchemeSort",
    "SchemeRel",
    "InterpretationScheme",
    "ValidationReport",
    "CheckResult",
    "validate_scheme",
    "induced_automorphism",
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
    # per sort, the map from target elements of that sort to representative
    # host tuples (each names its class; the generated choice is the
    # lexicographically least member)
    bijections: dict[AtomicType, dict[int, tuple[int, ...]]] = field(default_factory=dict)
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


# -- equality patterns ---------------------------------------------------------


Pattern = tuple[bool, tuple[tuple[int, int], ...]]


def _equality_pattern(phi: Formula) -> Pattern | None:
    """phi as (negated, pairs) when it is a conjunction of atoms xs = xt, or
    the negation of one: the conjunction of xs = xt over the sorted pairs
    (s, t), s < t, negated or not.  An atom xq = xq is true and adds no
    pair; a conjunction that reaches a false part is false, the negation of
    the empty one, as evaluation stops there.  None for any other formula.
    Such a formula reads only the positions in its pairs and never raises.
    """
    negated = False
    while isinstance(phi, Not):
        negated, phi = not negated, phi.body
    pairs: set[tuple[int, int]] = set()
    for part in phi.parts if isinstance(phi, And) else (phi,):
        if isinstance(part, Equal) and isinstance(part.left, Var) and isinstance(part.right, Var):
            s, t = part.left.index, part.right.index
            if s != t:
                pairs.add((s, t) if s < t else (t, s))
            continue
        inner = _equality_pattern(part) if isinstance(part, (Not, And)) else None
        if inner is None or inner[0] and inner[1]:
            return None
        if inner[0]:
            return not negated, ()
        pairs.update(inner[1])
    return negated, tuple(sorted(pairs))


# -- quotients ----------------------------------------------------------------


class _Quotient:
    """r(M)/E by class index; verifies E is an equivalence on r(M).

    Position q is padding when x_q is inert in r and x_q, x_(width+q) are
    inert in E: the truth of r and E never depends on it.  r and E are then
    evaluated on the other (core) positions only, with padding set to
    M.domain[0], and each class is kept as its sorted core tuples; its full
    members are any values in the padding positions.  A witness is its core
    witness with M.domain[0] in the padding positions.

    An E that is a conjunction of atoms x_q = x_(width+q) and padding atoms
    xq = xq is the kernel of the projection onto those q, which are core
    since E reads them: the classes are r(M) grouped by those positions,
    and E is never evaluated, since a kernel cannot fail to be an
    equivalence.  Any other E is evaluated on every pair of core tuples,
    with a witness for the first failure.
    """

    def __init__(self, M: Structure, r: Formula, E: Formula):
        n = free_width(r)
        fv_E, pattern = free_variables(E), _equality_pattern(E)
        kernel = pattern is not None and not pattern[0] and all(t == n + s for s, t in pattern[1])
        # a kernel reads exactly the positions in its pairs
        inert_r = inert_variables(r)
        inert_E = fv_E.difference(*pattern[1]) if kernel else inert_variables(E)
        # over an empty domain nothing is padding: M^width is empty anyway
        pad = [q for q in range(n) if M.size and q in inert_r and {q, n + q} <= inert_E]
        padded = set(pad)
        core = [q for q in range(n) if q not in padded]
        low = tuple(M.domain[0] for _ in pad)
        # the inverse permutation: x_q sits at where[q] in core + pad
        where = sorted(range(n), key=(core + pad).__getitem__)

        def full(c: tuple, p: tuple = low) -> tuple:
            cp = c + p
            return tuple(cp[i] for i in where)

        self.M, self.width, self.core, self.pad, self.full = M, n, core, pad, full
        cores = itertools.product(M.domain, repeat=len(core))
        dom = [c for c in cores if eval_formula(M, r, dict(enumerate(full(c))))]
        if fv_E != frozenset(range(2 * n)):
            raise SchemeError(
                f"equivalence formula must use exactly x0..x{2 * n - 1}"
            )

        self.cores: list[tuple[tuple, ...]]
        if kernel:
            key = [core.index(s) for s, _ in pattern[1]]
            classes: dict[tuple, list[tuple]] = {}
            for c in dom:
                classes.setdefault(tuple(c[i] for i in key), []).append(c)
            # dom is in lexicographic order, so each class is sorted and the
            # classes come ordered by least member
            self.cores = [tuple(members) for members in classes.values()]
            self._class_of = {c: idx for idx, members in enumerate(self.cores) for c in members}
            return
        fulls = [full(t) for t in dom]
        rows = {
            s: {t for t, ft in zip(dom, fulls) if eval_formula(M, E, dict(enumerate(fs + ft)))}
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
        self.cores = []
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
                class_of[u] = len(self.cores)
            self.cores.append(tuple(sorted(members)))
        for s in dom:
            for t in dom:
                if (class_of[s] == class_of[t]) != (t in rows[s]):
                    triple = _transitivity_witness(rows, s, t)
                    raise SchemeError(
                        "not an equivalence relation: not transitive at "
                        f"({', '.join(str(full(c)) for c in triple)})"
                    )
        self._class_of = class_of

    def index(self, t: tuple) -> int | None:
        """The class of host tuple t, or None if t has the wrong width, a
        padding entry outside the domain, or lies outside r(M)."""
        if len(t) != self.width or any(t[q] not in self.M.domain for q in self.pad):
            return None
        return self._class_of.get(tuple(t[q] for q in self.core))

    def members(self, idx: int, read: Container[int]) -> tuple[tuple, ...]:
        """Class idx's full tuples in lexicographic order, each padding
        position outside ``read`` kept at M.domain[0]."""
        pads = itertools.product(
            *(self.M.domain if q in read else self.M.domain[:1] for q in self.pad)
        )
        return tuple(sorted(self.full(c, p) for p in pads for c in self.cores[idx]))


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
        cls = q.index(rep)
        if cls is None:
            return f"representative {rep} outside the definable set"
        if cls in hit:
            return f"not injective: class of {rep} hit twice"
        hit.add(cls)
    if len(hit) != len(q.cores):
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
    realized: dict[AtomicType, tuple[int, ...]],
) -> tuple[dict[AtomicType, _Quotient | None], list[CheckResult]]:
    """Each scheme sort's quotient over M1 (None where its equivalence
    fails), with the sort-quotient checks and then the sort-bijection
    checks, each in scheme order; a sort whose quotient failed gets no
    bijection check."""
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
        nonempty = bool(q.cores) or s.key not in realized
        witness = None if nonempty else "definable set empty for a realized sort"
        sort_checks.append(CheckResult(f"sort-quotient[{idx}]", nonempty, witness))
        problem = _bijection_problem(
            q, scheme.bijections.get(s.key, {}), realized.get(s.key, ())
        )
        bijection_checks.append(CheckResult(f"sort-bijection[{idx}]", problem is None, problem))
    return quotients, sort_checks + bijection_checks


def validate_scheme(
    M1: Structure, M2: Structure, scheme: InterpretationScheme
) -> ValidationReport:
    """Check every condition of the scheme, its sort bijections included,
    reporting pass/fail with witnesses: the sort cover, each sort's
    quotient, each sort's bijection, the translation cover, then agreement
    of each target relation with its translations.

    Agreement evaluates the translations at every member of each element's
    class, which also checks that they respect the equivalences.  A padding
    position that no translation reads stays at M1.domain[0]; an element
    whose representative has no class is untranslatable.  A sort whose
    equivalence is a kernel is grouped by key, not checked pair by pair;
    a block of target tuples whose translation is a constant or an
    equality pattern is decided whole from its held tuples (see
    _agreement_witness).  Every generated scheme and CLI mutant is decided
    that way throughout, except that a constant False block that holds no
    target tuple, whose elements all have class members, is skipped: it
    can neither fail nor raise.  The translation cover is read off
    ``scheme.translations``, listing missing tuples of sorts only when a
    relation has fewer translations than tuples of realized sorts.
    """
    _require_relational(M1, "host structure")
    _require_relational(M2, "target structure")
    realized = sort_partition(M2)
    quotients, sort_checks = _sort_pass(M1, scheme, realized)
    report = ValidationReport([_sort_cover(realized, scheme), *sort_checks])

    element_sort = {b: key for key, block in realized.items() for b in block}

    # per relation, its translation at each tuple of realized sorts, read
    # off the scheme's index in its order, then None at each tuple of sorts
    # it has no translation for, which only a short count can leave
    arity_of = dict(M2.sig.relations)
    table: dict[str, list] = {name: [] for name in arity_of}
    for (name, keys), sr in scheme.translations.items():
        if len(keys) == arity_of.get(name) and all(map(realized.__contains__, keys)):
            table[name].append((keys, sr))
    for name, row in table.items():
        if len(row) < len(realized) ** arity_of[name]:
            found = {keys for keys, _ in row}
            combos = itertools.product(realized, repeat=arity_of[name])
            row += [(keys, None) for keys in combos if keys not in found]
    missing = next((name for name, row in table.items() if any(sr is None for _, sr in row)), None)
    witness = None if missing is None else f"no translation formula for {missing!r}"
    report.checks.append(CheckResult("translation-cover", missing is None, witness))

    rep_of: dict[int, tuple[int, ...]] = {}
    for fmap in scheme.bijections.values():
        rep_of.update(fmap)
    # id(formula) -> its equality pattern or None, shared by the padding
    # walk below and every relation's scan
    patterns: dict[int, Pattern | None] = {}
    # per sort, the padding positions some translation reads: its free
    # variables that are not inert, found once per distinct formula; a
    # pattern reads the positions in its pairs
    pad = {key: q.pad for key, q in quotients.items() if q is not None and q.pad}
    read: dict[AtomicType, set[int]] = {key: set() for key in pad}
    widths = {s.key: s.width for s in scheme.sorts}
    reads: dict[int, Container[int]] = {}
    for sr in scheme.rels:
        if not any(key in pad for key in sr.sort_keys):
            continue
        live = reads.get(id(sr.formula))
        if live is None:
            pattern = _pattern_of(sr.formula, patterns)
            if pattern is not None:
                live = {q for pair in pattern[1] for q in pair}
            else:
                live = sr._free_vars - inert_variables(sr.formula)
            reads[id(sr.formula)] = live
        start = 0
        for key in sr.sort_keys:
            if key in pad:
                read[key].update(q for q in pad[key] if start + q in live)
            start += widths[key]
    # the host tuples each element stands for: the members of its class;
    # an element without a valid class has none
    options: dict[int, tuple[tuple[int, ...], ...]] = {}
    for b, rep in rep_of.items():
        key = element_sort.get(b)
        q = quotients.get(key)
        idx = None if q is None else q.index(rep)
        if idx is not None:
            options[b] = q.members(idx, read.get(key, ()))
    # per sort, how many options its elements have
    counts = {key: {len(options.get(e, ())) for e in block} for key, block in realized.items()}
    for name, row in table.items():
        witness = _agreement_witness(
            M1, M2.relation_sets[name], row, realized, element_sort, options, counts, widths,
            patterns,
        )
        report.checks.append(CheckResult(f"relation-agreement[{name}]", witness is None, witness))
    return report


def _pattern_of(phi: Formula, patterns: dict[int, Pattern | None]) -> Pattern | None:
    if id(phi) not in patterns:
        patterns[id(phi)] = _equality_pattern(phi)
    return patterns[id(phi)]


def _agreement_witness(
    M1: Structure,
    held: frozenset,
    row: list[tuple[tuple[AtomicType, ...], SchemeRel | None]],
    realized: dict[AtomicType, tuple[int, ...]],
    element_sort: dict[int, AtomicType],
    options: dict[int, tuple[tuple[int, ...], ...]],
    counts: dict[AtomicType, set[int]],
    widths: dict[AtomicType, int],
    patterns: dict[int, Pattern | None],
) -> str | None:
    """The witness of the first tuple of M2^arity, in product order, whose
    translation is missing, cannot be evaluated, or disagrees with ``held``,
    the relation's tuples in M2.

    The tuples split into blocks, one per tuple of sorts, each with its
    translation in ``row`` in any order, and each block gives its least
    failing tuple; the first failure is the least of those.  Each distinct
    formula object's equality pattern is found once into ``patterns``,
    keyed by id and shared between relations by the caller, as is
    ``counts``, each sort's set of option counts.  A constant False block
    that holds no tuple, whose elements all have options, cannot fail and
    is skipped.  Any other block is decided whole by _block_failure when
    its translation is a constant and all its elements have options, or an
    equality pattern whose pairs all link the first sort with the second
    and all its elements have one option each; any other block is scanned
    tuple by tuple by _first_failure.  A FormulaError at the first failure
    is raised, as evaluating the tuples in order would.
    """
    held_in: dict[tuple[AtomicType, ...], list[tuple[int, ...]]] = {}
    sort_of = element_sort.__getitem__
    for t in held:
        held_in.setdefault(tuple(map(sort_of, t)), []).append(t)
    failures = []  # per block: (least failing tuple, witness or FormulaError)
    for keys, sr in row:
        if sr is None:
            least = tuple(realized[key][0] for key in keys)
            failures.append((least, f"untranslatable tuple {least}"))
            continue
        pattern = _pattern_of(sr.formula, patterns)
        if pattern is None:
            whole = False
        elif not pattern[1]:
            whole = all(0 not in counts[key] for key in keys)
            # constant False with no held tuple cannot fail, nor raise
            if whole and pattern[0] and keys not in held_in:
                continue
        else:
            # a pair inside the first sort stops the chain before keys[1]
            split = widths[keys[0]]
            whole = all(
                s < split <= t < split + widths[keys[1]] for s, t in pattern[1]
            ) and all(counts[key] == {1} for key in keys)
        blocks = [realized[key] for key in keys]
        if whole:
            found = _block_failure(
                pattern, widths[keys[0]], blocks, held, held_in.get(keys, ()), options
            )
        else:
            found = _first_failure(M1, sr.formula, held, blocks, options)
        if found:
            failures.append(found)
    if not failures:
        return None
    _, outcome = min(failures, key=lambda failure: failure[0])
    if isinstance(outcome, FormulaError):
        raise outcome
    return outcome


def _block_failure(
    pattern: Pattern,
    split: int,
    blocks: list[tuple[int, ...]],
    held: frozenset,
    held_here: list[tuple[int, ...]],
    options: dict[int, tuple[tuple[int, ...], ...]],
) -> tuple[tuple[int, ...], str] | None:
    """What _first_failure returns for a block whose translation is a
    constant, or an equality pattern whose pairs link block 0 (of width
    ``split``) with block 1 at elements with one option each, decided from
    the block's held tuples ``held_here`` with no per-tuple evaluation.

    A constant True fails at the least product tuple not held, a constant
    False at the least held tuple.  Otherwise block 1's elements are
    indexed by their linked coordinates and block 0 is joined against that
    index, which gives the set of tuples that satisfy the pattern.  The
    pattern fails at the least tuple of the symmetric difference of that
    set and the held tuples; its negation at the least tuple in both, or
    the least product tuple in neither, found by a walk that passes only
    tuples in one of them.
    """
    negated, pairs = pattern
    if not pairs:
        # constant False is wrong at every held tuple, True at every other
        if negated:
            found = [min(held_here, default=None)]
        else:
            found = [next((t for t in itertools.product(*blocks) if t not in held), None)]
    else:
        left = operator.itemgetter(*[s for s, _ in pairs])
        right = operator.itemgetter(*[t - split for _, t in pairs])
        index: dict = {}
        for b in blocks[1]:
            index.setdefault(right(options[b][0]), []).append(b)
        satisfying = {
            (a, b, *rest)
            for a in blocks[0]
            for b in index.get(left(options[a][0]), ())
            for rest in itertools.product(*blocks[2:])
        }
        if negated:
            neither = (
                t for t in itertools.product(*blocks) if t not in satisfying and t not in held
            )
            found = [min(satisfying.intersection(held_here), default=None), next(neither, None)]
        else:
            found = [min(satisfying.symmetric_difference(held_here), default=None)]
    least = min((t for t in found if t is not None), default=None)
    return None if least is None else (least, f"tuple {least} (target says {least in held})")


def _first_failure(
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


# -- induced automorphisms -----------------------------------------------------


def induced_automorphism(
    M1: Structure,
    M2: Structure,
    scheme: InterpretationScheme,
    pi: Permutation,
) -> Permutation:
    """Transport a host automorphism through a validated scheme.

    A target element maps to the element whose class is the coordinatewise
    image of the class of its representative under the scheme's bijections.
    Identity goes to identity and composition is preserved.  The map fails
    with the witness of the first failing sort check of validation (cover,
    quotients, bijections), or with a diagnostic if the definable sets are
    not closed under the automorphism.
    """
    if not is_automorphism(M1, pi):
        raise SchemeError("the supplied permutation is not an automorphism of the host")
    realized = sort_partition(M2)
    quotients, sort_checks = _sort_pass(M1, scheme, realized)
    for check in [_sort_cover(realized, scheme), *sort_checks]:
        if not check.passed:
            raise SchemeError(check.witness)
    images = [-1] * M2.size
    for s in scheme.sorts:
        q, fmap = quotients[s.key], scheme.bijections[s.key]
        by_class = {q.index(rep): b for b, rep in fmap.items()}
        for b in realized[s.key]:
            moved = pi.apply_tuple(fmap[b])
            cls = q.index(moved)
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


# -- mutations (for negative testing) -------------------------------------------


def negate_translation(scheme: InterpretationScheme, index: int) -> InterpretationScheme:
    """Flip one translation formula; a validated scheme must stop validating."""
    rels = list(scheme.rels)
    sr = rels[index]
    rels[index] = SchemeRel(rel=sr.rel, sort_keys=sr.sort_keys, formula=Not(sr.formula))
    return replace(scheme, rels=tuple(rels))


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
    return replace(scheme, sorts=tuple(sorts))


def redirect_bijection(scheme: InterpretationScheme, key: AtomicType) -> InterpretationScheme:
    """Send the sort's least element to the class of its second element,
    making the sort's bijection neither injective nor onto (needs two
    elements); the other sorts keep their maps."""
    fmap = dict(scheme.bijections[key])
    elems = sorted(fmap)
    if len(elems) < 2:
        raise SchemeError("sort has fewer than two elements; cannot redirect")
    fmap[elems[0]] = fmap[elems[1]]
    return replace(scheme, bijections={**scheme.bijections, key: fmap})


# -- serialization --------------------------------------------------------------


def scheme_to_json_dict(scheme: InterpretationScheme) -> dict:
    """The scheme as JSON data.  Each distinct formula object is formatted
    once.  Equal sort keys share one list object, and so do equal tuples
    of sort keys, so a writer can write each once; callers must not
    mutate these lists."""
    texts: dict[int, str] = {}  # id(formula) -> text, once per distinct formula object

    def text(phi: Formula) -> str:
        if id(phi) not in texts:
            texts[id(phi)] = format_formula(phi)
        return texts[id(phi)]

    key_list = {key: list(key) for key in [*(s.key for s in scheme.sorts), *scheme.bijections]}
    used = {keys for _, keys in scheme.translations}
    sort_list = {keys: [key_list[k] for k in keys] for keys in used}

    return {
        "sorts": [
            {
                "key": key_list[s.key],
                "width": s.width,
                "domain": text(s.domain_formula),
                "equivalence": text(s.equiv_formula),
            }
            for s in scheme.sorts
        ],
        "relations": [
            {
                "relation": sr.rel,
                "sorts": sort_list[sr.sort_keys],
                "formula": text(sr.formula),
            }
            for sr in scheme.rels
        ],
        "bijections": [
            {
                "key": key_list[key],
                "map": [[b, list(rep)] for b, rep in sorted(fmap.items())],
            }
            for key, fmap in sorted(scheme.bijections.items())
        ],
    }
