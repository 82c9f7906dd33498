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
sorts.  Any other scheme raises SchemeError before anything is evaluated.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field, replace

# perfbench/spans.py wraps eval_formula at this import site, where only the
# quotients call it, on domain formulas at core tuples; definable_set is not
# called here but stays importable at the same site
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
class InterpretationScheme:
    sorts: tuple[SchemeSort, ...]
    # (relation, sort keys) -> translation formula, in report order
    translations: dict[tuple[str, tuple[AtomicType, ...]], Formula]
    # per sort, the map from target elements of that sort to representative
    # host tuples (each names its class; the generated choice is the
    # lexicographically least member)
    bijections: dict[AtomicType, dict[int, tuple[int, ...]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        keys = [s.key for s in self.sorts]
        if len(set(keys)) != len(keys):
            raise SchemeError("sort keys must be distinct")
        widths = {s.key: s.width for s in self.sorts}
        # id(formula) -> n when its free variables are exactly x0..x(n-1),
        # else -1: found once per distinct formula object
        exact: dict[int, int] = {}
        for (rel, sort_keys), phi in self.translations.items():
            try:
                total = sum(map(widths.__getitem__, sort_keys))
            except KeyError:
                raise SchemeError(f"unknown sort key in translation for {rel!r}") from None
            n = exact.get(id(phi))
            if n is None:
                fv = free_variables(phi)
                n = exact[id(phi)] = len(fv) if fv == frozenset(range(len(fv))) else -1
            if n != total:
                raise SchemeError(
                    f"translation formula for {rel!r} must use exactly x0..x{total - 1}"
                )

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
    outside = set(range(width)).difference(key, inert_variables(r))
    if outside:
        raise SchemeError(f"domain formula reads x{min(outside)} outside the equivalence's key")
    return key


class _Quotient:
    """r(M)/E by class index, for an E that is the kernel of the projection
    onto ``key`` (see _kernel_key).

    The positions outside the key are padding: neither r nor E reads them.
    r is evaluated at each core tuple, the values at the key positions, with
    padding set to M.domain[0], and each class is its one core tuple; its
    members are that tuple with any values in the padding positions.  A
    kernel cannot fail to be an equivalence, so E is never evaluated.
    """

    def __init__(self, M: Structure, width: int, r: Formula, key: tuple[int, ...]):
        keyed = set(key)
        pad = [q for q in range(width) if q not in keyed]
        low = tuple(M.domain[:1]) * len(pad)
        # the inverse permutation: x_q sits at where[q] in key + pad
        where = sorted(range(width), key=[*key, *pad].__getitem__)

        def full(c: tuple, p: tuple = low) -> tuple:
            cp = c + p
            return tuple(cp[i] for i in where)

        self.M, self.width, self.key, self.pad, self.full = M, width, key, pad, full
        # over an empty domain there is no core tuple, nor a padding value
        cores = itertools.product(M.domain, repeat=len(key)) if M.size else ()
        # in lexicographic order, so the classes come ordered by least member
        self.cores = [c for c in cores if eval_formula(M, r, dict(enumerate(full(c))))]
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


def _pattern_of(phi: Formula, patterns: dict[int, Pattern | None]) -> Pattern | None:
    if id(phi) not in patterns:
        patterns[id(phi)] = _equality_pattern(phi)
    return patterns[id(phi)]


def _language(
    scheme: InterpretationScheme,
) -> tuple[dict[AtomicType, tuple[int, ...]], dict[int, Pattern | None]]:
    """Each sort's key and, by formula id, each translation's equality
    pattern, for a scheme in the one language that validation and transport
    decide: each equivalence is a kernel whose key covers every position its
    domain formula reads (see _kernel_key), and each translation is a
    constant or an equality pattern whose pairs link key positions of its
    first sort to key positions of its second.  Any other scheme raises
    SchemeError naming the first sort outside it, by index and key, or else
    the first translation, by relation and sort keys; nothing is evaluated.
    """
    keys: dict[AtomicType, tuple[int, ...]] = {}
    for idx, s in enumerate(scheme.sorts):
        try:
            keys[s.key] = _kernel_key(s.width, s.domain_formula, s.equiv_formula)
        except SchemeError as e:
            raise SchemeError(f"sort {idx} {s.key}: {e}") from None
    widths = {s.key: s.width for s in scheme.sorts}
    patterns: dict[int, Pattern | None] = {}
    for (rel, sort_keys), phi in scheme.translations.items():
        pattern = _pattern_of(phi, patterns)
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
    """Each scheme sort's quotient over M1, with the sort-quotient checks and
    then the sort-bijection checks, each in scheme order, and the patterns
    of _language, which first refuses a scheme outside the language."""
    keys, patterns = _language(scheme)
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
    return quotients, sort_checks + bijection_checks, patterns


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
    representative has no class is untranslatable.  Each block of target
    tuples, one per tuple of sorts, is decided whole from its held tuples
    (see _agreement_witness).  The translation cover is read off
    ``scheme.translations``, listing missing tuples of sorts only when a
    relation has fewer translations than tuples of realized sorts.
    """
    _require_relational(M1, "host structure")
    _require_relational(M2, "target structure")
    realized = sort_partition(M2)
    quotients, sort_checks, patterns = _sort_pass(M1, scheme, realized)
    report = ValidationReport([_sort_cover(realized, scheme), *sort_checks])

    element_sort = {b: key for key, block in realized.items() for b in block}

    # per relation, its translation at each tuple of realized sorts, in the
    # scheme's order, then None at each tuple of sorts it has no translation
    # for, which only a short count can leave
    arity_of = dict(M2.sig.relations)
    table: dict[str, list] = {name: [] for name in arity_of}
    for (name, keys), phi in scheme.translations.items():
        if len(keys) == arity_of.get(name) and all(map(realized.__contains__, keys)):
            table[name].append((keys, phi))
    for name, row in table.items():
        if len(row) < len(realized) ** arity_of[name]:
            found = {keys for keys, _ in row}
            combos = itertools.product(realized, repeat=arity_of[name])
            row += [(keys, None) for keys in combos if keys not in found]
    missing = next(
        (name for name, row in table.items() if any(phi is None for _, phi in row)), None
    )
    witness = None if missing is None else f"no translation formula for {missing!r}"
    report.checks.append(CheckResult("translation-cover", missing is None, witness))

    rep_of: dict[int, tuple[int, ...]] = {}
    for fmap in scheme.bijections.values():
        rep_of.update(fmap)
    # the host tuple each element stands for: its representative, if that
    # has a class of the element's sort
    options: dict[int, tuple[int, ...]] = {}
    for b, rep in rep_of.items():
        q = quotients.get(element_sort.get(b))
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
            M2.relation_sets[name], row, realized, element_sort, options, ready, stray, widths,
            patterns,
        )
        report.checks.append(CheckResult(f"relation-agreement[{name}]", witness is None, witness))
    return report


def _agreement_witness(
    held: frozenset,
    row: list[tuple[tuple[AtomicType, ...], Formula | None]],
    realized: dict[AtomicType, tuple[int, ...]],
    element_sort: dict[int, AtomicType],
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
    translation in ``row`` in any order, and each block gives its least
    failing tuple; the first failure is the least of those.  Within a
    block, the least tuple with an element outside ``ready`` puts the
    ``stray`` element of its sort at one position and each other sort's
    least element at the rest; the tuples of ready elements are decided
    whole by _block_failure, which may also report a held tuple with a
    stray element, never less than that least one.  A constant False block
    that holds no tuple and has no stray element cannot fail and is
    skipped.
    """
    held_in: dict[tuple[AtomicType, ...], list[tuple[int, ...]]] = {}
    sort_of = element_sort.__getitem__
    for t in held:
        held_in.setdefault(tuple(map(sort_of, t)), []).append(t)
    failures = []  # per block: (least failing tuple, witness)
    for keys, phi in row:
        if phi is None:
            least = tuple(realized[key][0] for key in keys)
            failures.append((least, f"untranslatable tuple {least}"))
            continue
        pattern = patterns[id(phi)]
        here = held_in.get(keys, ())
        if stray and any(map(stray.__contains__, keys)):
            # no tuple with a stray element is less than this one, which
            # goes first among equal failures
            least = min(
                tuple(stray[k] if j == i else realized[k][0] for j, k in enumerate(keys))
                for i, key in enumerate(keys)
                if key in stray
            )
            failures.append((least, f"untranslatable tuple {least}"))
        elif pattern == (True, ()) and not here:
            # constant False with no held tuple cannot fail
            continue
        blocks = [ready[key] for key in keys]
        found = _block_failure(pattern, widths[keys[0]], blocks, held, here, options)
        if found:
            failures.append(found)
    if not failures:
        return None
    return min(failures, key=lambda failure: failure[0])[1]


def _block_failure(
    pattern: Pattern,
    split: int,
    blocks: list[tuple[int, ...]],
    held: frozenset,
    held_here: list[tuple[int, ...]],
    options: dict[int, tuple[int, ...]],
) -> tuple[tuple[int, ...], str] | None:
    """The least tuple of the product of ``blocks`` at which the translation
    disagrees with ``held``, with its witness, or None: a translation that
    is a constant, or an equality pattern whose pairs link block 0 (of
    width ``split``) with block 1, read at each element's option and
    decided from the block's held tuples ``held_here`` with no per-tuple
    evaluation.

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
            index.setdefault(right(options[b]), []).append(b)
        satisfying = {
            (a, b, *rest)
            for a in blocks[0]
            for b in index.get(left(options[a]), ())
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
    realized = sort_partition(M2)
    quotients, sort_checks, _ = _sort_pass(M1, scheme, realized)
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
    """Flip the index-th translation formula; a validated scheme must stop validating."""
    at = list(scheme.translations)[index]
    return replace(scheme, translations={**scheme.translations, at: Not(scheme.translations[at])})


def weaken_equivalence(scheme: InterpretationScheme, sort_index: int) -> InterpretationScheme:
    """Replace a sort's equivalence by tuple identity, splitting every class
    into singletons; the sort bijection stops being onto whenever some class
    had more than one member."""
    sorts = list(scheme.sorts)
    s = sorts[sort_index]
    m = s.width
    identity = Padded(2 * m, tuple(Equal(Var(q), Var(m + q)) for q in range(m)))
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

