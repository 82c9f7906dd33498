"""Interpretation schemes between finite relational structures.

A scheme presents one structure sort-by-sort inside another: each sort (an
atomic one-variable type of the target) gets a definable set with an
equivalence relation over the host and a bijection onto the quotient, and
each target relation gets a translation formula at each tuple of sorts; the
scheme holds all of them, bijections included.  A validated scheme
transports every host automorphism to a target automorphism.

Variable blocks: a sort of width m uses host variables x0..x(m-1); its
equivalence formula uses x0..x(2m-1) with the second block as the partner
tuple; a translation formula for a relation over sorts of widths m0..m(k-1)
uses consecutive blocks of those widths.

Validation and transport decide one language, the forms that generated
schemes and their mutants take: each equivalence is a kernel whose key
covers the positions its domain formula reads, and each translation is a
constant or an equality pattern linking key positions of its first two
sorts.  Any other scheme, or one of the wrong shape, raises SchemeError
before anything is evaluated: schemes and sorts are plain records, and
_language is the one place that checks them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace

# perfbench/spans.py wraps eval_formula at this import site, where only the
# quotients call it, once per sort: a domain formula at one batch of all the
# sort's core tuples, so the tracer counts batches; definable_set and
# sort_partition are not called here (the target's stored
# Structure.sort_partition is read) but stay importable at the same site
from .formulas import (
    And,
    AtomicType,
    Equal,
    Formula,
    Not,
    Padded,
    Var,
    definable_set,
    eval_formula,
    free_variables,
    inert_variables,
    sort_partition,
)
from .groups import Permutation, is_automorphism
from .structures import Structure

__all__ = [
    "SchemeError",
    "SchemeSort",
    "InterpretationScheme",
    "ValidationReport",
    "CheckResult",
    "validate_scheme",
    "induced_automorphism",
    "negate_translation",
    "weaken_equivalence",
    "redirect_bijection",
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


@dataclass(frozen=True)
class InterpretationScheme:
    sorts: tuple[SchemeSort, ...]
    # (relation, sort keys) -> translation formula, in report order
    translations: dict[tuple[str, tuple[AtomicType, ...]], Formula]
    # per sort, the map from target elements of that sort to representative
    # host tuples (each names its class; the generated choice is the
    # lexicographically least member)
    bijections: dict[AtomicType, dict[int, tuple[int, ...]]] = field(default_factory=dict)

    def translation(self, rel: str, sort_keys: tuple[AtomicType, ...]) -> Formula | None:
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
    (s, t), s < t, negated or not.  An atom xq = xq, a Padded node's padding
    included, is true and adds no pair; a conjunction with a false part is
    false, the negation of the empty one, but a later part of another form
    still gives None.  None for any other formula.  Such a formula reads
    only the positions in its pairs and never raises.
    """
    negated = False
    while isinstance(phi, Not):
        negated, phi = not negated, phi.body
    pairs: set[tuple[int, int]] = set()
    has_false = False
    parts = phi.parts if isinstance(phi, And) else phi.core if isinstance(phi, Padded) else (phi,)
    for part in parts:
        if isinstance(part, Equal) and isinstance(part.left, Var) and isinstance(part.right, Var):
            s, t = part.left.index, part.right.index
            if s != t:
                pairs.add((s, t) if s < t else (t, s))
            continue
        inner = _equality_pattern(part) if isinstance(part, (Not, And, Padded)) else None
        if inner is None or inner[0] and inner[1]:
            return None
        has_false = has_false or inner[0]
        pairs.update(inner[1])
    return (not negated, ()) if has_false else (negated, tuple(sorted(pairs)))


# -- quotients ----------------------------------------------------------------


def _kernel_key(width: int, r: Formula, E: Formula) -> tuple[int, ...]:
    """The key of E, the ascending positions q of its atoms x_q = x_(width+q),
    when E is a conjunction of such atoms and atoms xq = xq, the kernel of
    the projection onto its key, and r reads no position outside the key;
    SchemeError otherwise."""
    pattern = _equality_pattern(E)
    if pattern is None or pattern[0] or any(t != width + s for s, t in pattern[1]):
        raise SchemeError("equivalence is not a kernel")
    key = tuple(s for s, _ in pattern[1])
    outside = set(range(width)).difference(key)
    if outside:  # r's reading matters only where the key leaves a position out
        outside -= inert_variables(r)
    if outside:
        raise SchemeError(f"domain formula reads x{min(outside)} outside the equivalence's key")
    return key


class _Quotient:
    """r(M)/E by class index, for an E that is the kernel of the projection
    onto ``key`` (see _kernel_key).

    The positions outside the key are padding: neither r nor E reads them.
    r is evaluated in one batch at every core tuple, the values at the key
    positions, with padding set to M.domain[0], and each class is its one
    core tuple; its members are that tuple with any values in the padding
    positions.  A kernel cannot fail to be an equivalence, so E is never
    evaluated.
    """

    def __init__(self, M: Structure, width: int, r: Formula, key: tuple[int, ...]):
        keyed = set(key)
        self.M, self.width, self.key = M, width, key
        self.pad = [q for q in range(width) if q not in keyed]
        self.cores = []
        if M.size:  # over an empty domain there is no core tuple, nor a padding value
            # the core tuples and, as the key ascends, their full tuples in
            # the same lexicographic order, so the classes come ordered by
            # least member; r is decided at all of them in one batch
            cores = list(itertools.product(M.domain, repeat=len(key)))
            choices = [M.domain if q in keyed else M.domain[:1] for q in range(width)]
            held = eval_formula(M, r, list(itertools.product(*choices)))
            self.cores = list(itertools.compress(cores, held))
        self._class_of = {c: idx for idx, c in enumerate(self.cores)}

    def index(self, t: tuple) -> int | None:
        """The class of host tuple t, or None if t has the wrong width, a
        padding entry outside the domain, or lies outside r(M)."""
        padding = map(t.__getitem__, self.pad)
        if len(t) != self.width or not all(map(self.M.domain.__contains__, padding)):
            return None
        return self._class_of.get(tuple(map(t.__getitem__, self.key)))


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


def _language(
    scheme: InterpretationScheme,
) -> tuple[dict[AtomicType, tuple[int, ...]], dict[int, Pattern | None]]:
    """Each sort's key and, by formula id, each translation's equality
    pattern, for a scheme in the one language that validation and transport
    decide; the one check of a scheme's shape, made before anything is
    evaluated.  In order: each sort has a positive width and formulas with
    exactly its variables, the sort keys are distinct, each equivalence is a
    kernel whose key covers every position its domain formula reads (see
    _kernel_key), and each translation, in scheme order, names known sorts,
    has exactly the variables of their total width and is a constant or an
    equality pattern whose pairs link key positions of its first sort to key
    positions of its second.  Anything else raises SchemeError, a kernel's
    or a pattern's naming its sort (index and key) or translation (relation
    and sort keys).  Each distinct formula object and each distinct tuple of
    sort keys is read once.
    """
    widths: dict[AtomicType, int] = {}
    for s in scheme.sorts:
        if s.width < 1:
            raise SchemeError("sort width must be positive")
        if free_variables(s.domain_formula) != frozenset(range(s.width)):
            raise SchemeError(f"sort domain formula must use exactly x0..x{s.width - 1}")
        if free_variables(s.equiv_formula) != frozenset(range(2 * s.width)):
            raise SchemeError(f"sort equivalence formula must use exactly x0..x{2 * s.width - 1}")
        widths[s.key] = s.width
    if len(widths) != len(scheme.sorts):
        raise SchemeError("sort keys must be distinct")
    keys: dict[AtomicType, tuple[int, ...]] = {}
    for idx, s in enumerate(scheme.sorts):
        try:
            keys[s.key] = _kernel_key(s.width, s.domain_formula, s.equiv_formula)
        except SchemeError as e:
            raise SchemeError(f"sort {idx} {s.key}: {e}") from None
    # by id, each tuple of sort keys' total width, and each formula's free
    # width (-1 when its free variables are not x0..x(n-1)) and pattern
    totals: dict[int, int] = {}
    exact: dict[int, int] = {}
    patterns: dict[int, Pattern | None] = {}
    for (rel, sort_keys), phi in scheme.translations.items():
        total = totals.get(id(sort_keys))
        if total is None:
            try:
                total = totals[id(sort_keys)] = sum(map(widths.__getitem__, sort_keys))
            except KeyError:
                raise SchemeError(f"unknown sort key in translation for {rel!r}") from None
        n = exact.get(id(phi))
        if n is None:
            fv = free_variables(phi)
            n = exact[id(phi)] = len(fv) if fv == frozenset(range(len(fv))) else -1
            patterns[id(phi)] = _equality_pattern(phi)
        if n != total:
            raise SchemeError(f"translation formula for {rel!r} must use exactly x0..x{total - 1}")
        pattern = patterns[id(phi)]
        if pattern is None:
            problem = "not a constant or an equality pattern"
        elif not pattern[1]:
            continue
        else:
            first = sort_keys[0]
            second = keys[sort_keys[1]] if len(sort_keys) > 1 else ()
            split = widths[first]
            unlinked = [(s, t) for s, t in pattern[1] if s not in keys[first] or t - split not in second]
            if not unlinked:
                continue
            s, t = unlinked[0]
            problem = f"x{s} = x{t} does not link key positions of its first and second sorts"
        raise SchemeError(f"translation of {rel!r} at sorts {sort_keys}: {problem}")
    return keys, patterns


def _sort_pass(
    M1: Structure,
    scheme: InterpretationScheme,
    realized: dict[AtomicType, tuple[int, ...]],
) -> tuple[dict[AtomicType, _Quotient], list[CheckResult], dict[int, Pattern | None]]:
    """Each scheme sort's quotient over M1, with the sort-cover check (the
    scheme lists exactly the sorts the target realizes), the sort-quotient
    checks and then the sort-bijection checks, each in scheme order, and the
    patterns of _language, which first refuses a scheme outside the
    language."""
    keys, patterns = _language(scheme)
    missing, extra = len(realized.keys() - keys.keys()), len(keys.keys() - realized.keys())
    witness = f"missing={missing} extra={extra} sort keys" if missing or extra else None
    cover = CheckResult("sort-cover", witness is None, witness)
    quotients: dict[AtomicType, _Quotient] = {}
    sort_checks, bijection_checks = [], []
    for idx, s in enumerate(scheme.sorts):
        q = quotients[s.key] = _Quotient(M1, s.width, s.domain_formula, keys[s.key])
        nonempty = bool(q.cores) or s.key not in realized
        witness = None if nonempty else "definable set empty for a realized sort"
        sort_checks.append(CheckResult(f"sort-quotient[{idx}]", nonempty, witness))
        problem = _bijection_problem(
            q, scheme.bijections.get(s.key, {}), realized.get(s.key, ())
        )
        bijection_checks.append(CheckResult(f"sort-bijection[{idx}]", problem is None, problem))
    return quotients, [cover, *sort_checks, *bijection_checks], patterns


def validate_scheme(
    M1: Structure, M2: Structure, scheme: InterpretationScheme
) -> ValidationReport:
    """Check every condition of the scheme, its sort bijections included,
    reporting pass/fail with witnesses: the sort cover, each sort's
    quotient, each sort's bijection, the translation cover, then agreement
    of each target relation with its translations.

    A scheme outside the language of _language raises SchemeError before
    anything is evaluated.  Inside it, each class has one core tuple and no
    translation reads padding, so an element stands for one host tuple, its
    representative, and agreement there is exact: a translation that reads
    only key positions respects the equivalences.  An element whose
    representative has no class is untranslatable.  Each relation is
    decided whole: the tuples where its translations hold, block by block,
    against its held tuples (see _agreement_witness).  The translation
    cover is read off ``scheme.translations``, listing missing tuples of
    sorts only when a relation has fewer translations than tuples of
    realized sorts.  The target's sorts are its stored
    ``Structure.sort_partition``, shared with generate_scheme.
    """
    _require_relational(M1, "host structure")
    _require_relational(M2, "target structure")
    realized = M2.sort_partition
    quotients, sort_checks, patterns = _sort_pass(M1, scheme, realized)
    report = ValidationReport(sort_checks)

    # each realized element's quotient, where the scheme has its sort
    quotient_of = {
        b: quotients[key] for key, block in realized.items() if key in quotients for b in block
    }

    # per relation, its translation at each tuple of realized sorts, in the
    # scheme's order, then None at each tuple of sorts it has no translation
    # for, which only a short count can leave
    arity_of = dict(M2.sig.relations)
    table: dict[str, list] = {name: [] for name in arity_of}
    # the scheme's sorts that the target does not realize, which a
    # translation must not name; none when the sort cover holds
    unrealized = quotients.keys() - realized.keys()
    for (name, keys), phi in scheme.translations.items():
        if len(keys) == arity_of.get(name) and not (unrealized and unrealized.intersection(keys)):
            table[name].append((keys, phi))
    # a row holds distinct tuples of realized sorts, so it misses one exactly
    # when it is short
    short = [name for name, row in table.items() if len(row) < len(realized) ** arity_of[name]]
    for name in short:
        found = {keys for keys, _ in table[name]}
        combos = itertools.product(realized, repeat=arity_of[name])
        table[name] += [(keys, None) for keys in combos if keys not in found]
    witness = f"no translation formula for {short[0]!r}" if short else None
    report.checks.append(CheckResult("translation-cover", not short, witness))

    rep_of: dict[int, tuple[int, ...]] = {}
    for fmap in scheme.bijections.values():
        rep_of.update(fmap)
    # the host tuple each element stands for: its representative, if that
    # has a class of the element's sort
    options: dict[int, tuple[int, ...]] = {}
    for b, rep in rep_of.items():
        q = quotient_of.get(b)
        if q is not None and q.index(rep) is not None:
            options[b] = rep
    # per sort, its elements with an option, and its least element without
    # one where it has such
    ready = {key: tuple(filter(options.__contains__, block)) for key, block in realized.items()}
    stray = {
        key: min(set(block).difference(ready[key]))
        for key, block in realized.items()
        if len(ready[key]) < len(block)
    }
    widths = {s.key: s.width for s in scheme.sorts}
    for name, row in table.items():
        witness = _agreement_witness(
            M2.relation_sets[name], row, realized, options, ready, stray, widths, patterns
        )
        report.checks.append(CheckResult(f"relation-agreement[{name}]", witness is None, witness))
    return report


def _agreement_witness(
    held: frozenset,
    row: list[tuple[tuple[AtomicType, ...], Formula | None]],
    realized: dict[AtomicType, tuple[int, ...]],
    options: dict[int, tuple[int, ...]],
    ready: dict[AtomicType, tuple[int, ...]],
    stray: dict[AtomicType, int],
    widths: dict[AtomicType, int],
    patterns: dict[int, Pattern | None],
) -> str | None:
    """The witness of the first tuple of M2^arity, in product order, whose
    translation is missing, that has an element without an option, or
    whose translation disagrees with ``held``, the relation's tuples in M2.

    The tuples split into blocks, one per tuple of sorts, each with its
    translation in ``row`` in any order.  A block without a translation is
    untranslatable from its least tuple on.  A block with a sort in
    ``stray`` has, as its least untranslatable tuple, that sort's stray
    element at one position and each other sort's least element at the
    rest.  The tuples of ``ready`` elements are decided for the whole
    relation at once: _holding adds, block by block, those where the
    translation holds (a constant False block adds nothing and is
    skipped), and as the blocks partition M2^arity the first disagreement
    is the least tuple of that set's symmetric difference with ``held``.
    The difference also holds each held tuple with an element outside
    ``ready``; such a tuple is never less than its block's least
    untranslatable one, which wins a tie.
    """
    untranslatable = []
    holding: set[tuple[int, ...]] = set()
    for keys, phi in row:
        if phi is None:
            untranslatable.append(tuple(realized[key][0] for key in keys))
            continue
        if stray and any(map(stray.__contains__, keys)):
            untranslatable.append(min(
                tuple(stray[k] if j == i else realized[k][0] for j, k in enumerate(keys))
                for i, key in enumerate(keys)
                if key in stray
            ))
        pattern = patterns[id(phi)]
        if pattern != (True, ()):  # a constant False holds nowhere
            _holding(holding, pattern, widths[keys[0]], [ready[key] for key in keys], options)
    least = min(untranslatable, default=None)
    wrong = min(holding.symmetric_difference(held), default=None)
    if wrong is not None and (least is None or wrong < least):
        return f"tuple {wrong} (target says {wrong in held})"
    return None if least is None else f"untranslatable tuple {least}"


def _holding(
    out: set,
    pattern: Pattern,
    split: int,
    blocks: list[tuple[int, ...]],
    options: dict[int, tuple[int, ...]],
) -> None:
    """Add to ``out`` the tuples of the product of ``blocks`` at which a
    translation holds, read at each element's option: a constant or an
    equality pattern whose pairs link block 0 (of width ``split``) with
    block 1, with no per-tuple evaluation.  A constant True adds the
    product and a constant False nothing.  Otherwise block 1's elements
    are indexed by their linked coordinates and block 0 is joined against
    that index; the pattern adds the join, its negation the product less
    the join."""
    negated, pairs = pattern
    if not pairs:
        if not negated:
            out.update(itertools.product(*blocks))
        return
    left = operator.itemgetter(*[s for s, _ in pairs])
    right = operator.itemgetter(*[t - split for _, t in pairs])
    index: dict = {}
    for b in blocks[1]:
        index.setdefault(right(options[b]), []).append(b)
    join = {
        (a, b, *rest)
        for a in blocks[0]
        for b in index.get(left(options[a]), ())
        for rest in itertools.product(*blocks[2:])
    }
    if negated:
        out.update(t for t in itertools.product(*blocks) if t not in join)
    else:
        out |= join


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
    Identity goes to identity and composition is preserved.  A scheme
    outside the language of _language is refused as validation refuses it;
    otherwise the map fails with the witness of the first failing sort check
    of validation (cover, quotients, bijections), or with a diagnostic if
    the definable sets are not closed under the automorphism.
    """
    if not is_automorphism(M1, pi):
        raise SchemeError("the supplied permutation is not an automorphism of the host")
    realized = M2.sort_partition
    quotients, sort_checks, _ = _sort_pass(M1, scheme, realized)
    for check in sort_checks:
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
    """Flip the index-th translation formula; a validated scheme must stop validating."""
    at = list(scheme.translations)[index]
    return replace(scheme, translations={**scheme.translations, at: Not(scheme.translations[at])})


def weaken_equivalence(scheme: InterpretationScheme, sort_index: int) -> InterpretationScheme:
    """Replace a sort's equivalence by tuple identity, splitting every class
    into singletons; the sort bijection stops being onto whenever some class
    had more than one member."""
    sorts = list(scheme.sorts)
    m = sorts[sort_index].width
    identity = Padded(2 * m, tuple(Equal(Var(q), Var(m + q)) for q in range(m)))
    sorts[sort_index] = replace(sorts[sort_index], equiv_formula=identity)
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

