import itertools
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from formula_parser import parse_formula
from references import (
    automorphism_group_brute,
    brute_quotient,
    check_classical_interpretation,
    conjunction,
    definable_quotient,
    eval_row,
    first_failure,
    full_tuple,
    kernel_quotient,
    quotient_members,
    random_digraph_at,
    scheme_to_json_dict,
    tautology,
)
from stabilizer_oracle import identity, multiply
from stablelift import formulas, interpretation
from stablelift.corpus import digraph
from stablelift.formulas import (
    And,
    Equal,
    Exists,
    FormulaError,
    Not,
    Or,
    Padded,
    Rel,
    Var,
    free_variables,
)
from stablelift.groups import Permutation, automorphism_group
from stablelift.interpretation import (
    CheckResult,
    InterpretationScheme,
    SchemeError,
    SchemeSort,
    ValidationReport,
    induced_automorphism,
    negate_translation,
    redirect_bijection,
    validate_scheme,
    weaken_equivalence,
)
from stablelift.lifting import (
    LiftConfig,
    PaddingAssignment,
    build_lift,
    direct_induced,
    generate_scheme,
    padding_triples,
)
from stablelift.structures import Signature, Structure, relational_companion


def _scheme_setup(M, k=1, **config):
    N = build_lift(M, LiftConfig(k=k, **config))
    scheme = generate_scheme(N)
    companion = relational_companion(N.structure)
    return N, companion, scheme


# -- quotients ------------------------------------------------------------------

# The library's quotients are kernels; any other equivalence is refused
# unevaluated (test_schemes_outside_the_language_are_refused_unevaluated).
# brute_quotient, the reference, still checks any equivalence pair by pair,
# and the tests of its witnesses below keep their names.


def test_quotient_identity_classes(m_edge):
    r = parse_formula("x0 = x0", m_edge.sig)
    E = parse_formula("x0 = x1", m_edge.sig)
    assert definable_quotient(m_edge, r, E) == ((((0,),)), (((1,),)))


def test_quotient_total_equivalence_single_class(m_edge):
    r = parse_formula("x0 = x0 & x1 = x1", m_edge.sig)
    E = parse_formula("x0 = x0 & x1 = x1 & x2 = x2 & x3 = x3", m_edge.sig)
    classes = definable_quotient(m_edge, r, E)
    assert len(classes) == 1
    assert len(classes[0]) == 4


def test_quotient_rejects_non_reflexive(m_edge):
    r = parse_formula("x0 = x0", m_edge.sig)
    E = parse_formula("edge(x0,x1)", m_edge.sig)
    with pytest.raises(SchemeError, match=r"not reflexive at \(0,\)"):
        brute_quotient(m_edge, r, E)


def test_quotient_rejects_non_symmetric(m_edge):
    r = parse_formula("x0 = x0", m_edge.sig)
    E = parse_formula("x0 = x1 | edge(x0,x1)", m_edge.sig)
    with pytest.raises(SchemeError, match="not symmetric"):
        brute_quotient(m_edge, r, E)


def test_quotient_rejects_non_transitive():
    M = digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    r = parse_formula("x0 = x0", M.sig)
    E = parse_formula("x0 = x1 | edge(x0,x1)", M.sig)
    with pytest.raises(SchemeError, match="not transitive"):
        brute_quotient(M, r, E)


def test_quotient_transitivity_witness_on_a_path_of_length_three():
    # 0 ~ 2 ~ 3 ~ 1: the closure joins 0 and 1 only through a path of
    # length 3, so no single middle point relates them
    M = digraph(4, [(0, 2), (2, 3), (3, 1)])
    r = parse_formula("x0 = x0", M.sig)
    E = parse_formula("x0 = x1 | edge(x0, x1) | edge(x1, x0)", M.sig)
    with pytest.raises(SchemeError, match=r"not transitive at \(\(0,\), \(2,\), \(3,\)\)"):
        brute_quotient(M, r, E)


def _outcome(build, M, r, E):
    try:
        q = build(M, r, E)
    except (SchemeError, FormulaError) as e:
        return type(e).__name__, str(e)
    if isinstance(q, tuple):
        return q
    return _expanded(q)


def _expanded(q):
    """A kernel quotient written out as brute_quotient gives it: every member
    of every class, and the class index() finds for each tuple of M^width."""
    classes = [quotient_members(q, idx) for idx in range(len(q.cores))]
    hosts = itertools.product(q.M.domain, repeat=q.width)
    class_of = {t: idx for t in hosts if (idx := q.index(t)) is not None}
    return tuple(sorted(class_of)), classes, class_of, tuple(c[0] for c in classes)


def _random_core(rng, variables, depth=2):
    """A random formula over ``variables`` built from edge, =, ~, & and |."""
    if depth == 0 or rng.random() < 0.3:
        a, b = rng.choice(variables), rng.choice(variables)
        return Rel("edge", (Var(a), Var(b))) if rng.random() < 0.6 else Equal(Var(a), Var(b))
    if rng.random() < 0.2:
        return Not(_random_core(rng, variables, depth - 1))
    parts = (_random_core(rng, variables, depth - 1), _random_core(rng, variables, depth - 1))
    return And(parts) if rng.random() < 0.5 else Or(parts)


def _random_quotient_case(rng):
    """A random digraph with a width-1..3 sort: padding positions occur only
    in reflexive atoms, core positions also in random core formulas."""
    M = random_digraph_at(rng, rng.choice([0, 1, 2, 2, 3, 3, 3]), rng.random())
    width = rng.randint(1, 3)
    core = [q for q in range(width) if rng.random() < 0.6]
    both = core + [width + q for q in core]
    r_parts = [Equal(Var(q), Var(q)) for q in range(width)]
    if width > 1 and rng.random() < 0.05:
        del r_parts[rng.randrange(width)]  # a gap, or a width E disagrees with
    if core and rng.random() < 0.6:
        r_parts.append(_random_core(rng, core))
    E_parts = [Equal(Var(q), Var(q)) for q in range(2 * width)]
    if core:
        identity = conjunction([Equal(Var(q), Var(width + q)) for q in core])
        q = rng.choice(core)
        template = rng.randrange(4)
        if template == 0:
            E_parts.append(_random_core(rng, both))
        elif template == 1:
            E_parts.append(Or((identity, _random_core(rng, both))))
        elif template == 2:
            s, t = Var(q), Var(width + q)
            E_parts.append(Or((identity, Rel("edge", (s, t)), Rel("edge", (t, s)))))
        else:
            E_parts.append(identity)
    return M, conjunction(r_parts), conjunction(E_parts)


def _padded_path_repro(width, leading):
    """The ROADMAP transitivity repro 0 ~ 2 ~ 3 ~ 1 with its one core position
    first or last among ``width`` positions."""
    M = digraph(4, [(0, 2), (2, 3), (3, 1)])
    q = width - 1 if leading else 0
    s, t = Var(q), Var(width + q)
    core = Or((Equal(s, t), Rel("edge", (s, t)), Rel("edge", (t, s))))
    r = conjunction([Equal(Var(i), Var(i)) for i in range(width)])
    E = conjunction([Equal(Var(i), Var(i)) for i in range(2 * width)] + [core])
    return M, r, E


def _eval_spy(monkeypatch):
    """The formulas interpretation evaluates, one entry per call, as
    recorded.  Every call is one batch: a list of distinct full tuples,
    padding included."""
    evaluated = []
    original = interpretation.eval_formula

    def recording(M, phi, v=None):
        width = len(free_variables(phi))
        assert type(v) is list and len(set(v)) == len(v), v
        assert all(len(t) == width for t in v), (phi, v)
        evaluated.append(phi)
        return original(M, phi, v)

    monkeypatch.setattr(interpretation, "eval_formula", recording)
    return evaluated


def _refused(outcome):
    """Whether a quotient outcome is the library's refusal of an equivalence
    that is no kernel, or of a domain formula reading outside the key."""
    return outcome[0] == "SchemeError" and (
        outcome[1] == "equivalence is not a kernel" or outcome[1].startswith("domain formula reads")
    )


@pytest.mark.hashseed
def test_factored_quotient_matches_brute_force(monkeypatch):
    # wherever the library builds a quotient it equals the brute one; every
    # other equivalence is refused before anything is evaluated
    evaluated = _eval_spy(monkeypatch)
    rng = random.Random(20260418)
    kinds = Counter()
    for _ in range(1500):
        M, r, E = _random_quotient_case(rng)
        evaluated.clear()
        found = _outcome(kernel_quotient, M, r, E)
        if _refused(found):
            assert not evaluated, (M, r, E)
            kinds["refused"] += 1
            continue
        assert found == _outcome(brute_quotient, M, r, E), (M, r, E)
        kinds["built"] += 1
    for width in (2, 3):
        for leading in (False, True):
            evaluated.clear()
            assert _refused(_outcome(kernel_quotient, *_padded_path_repro(width, leading)))
            assert not evaluated
    assert kinds["refused"] and kinds["built"], kinds


def _random_kernel_case(rng):
    """A random digraph with a width-1..3 sort whose E is the kernel of the
    projection onto some positions (all, some or none), its atoms in either
    orientation, shuffled and partly nested; positions outside the key
    that r does not read are padding."""
    M = random_digraph_at(rng, rng.choice([0, 1, 2, 3, 3]), rng.random())
    width = rng.randint(1, 3)
    key = [q for q in range(width) if rng.random() < 0.7]
    read = [q for q in range(width) if rng.random() < 0.4]
    r_parts = [Equal(Var(q), Var(q)) for q in range(width)]
    if read:
        r_parts.append(_random_core(rng, read))
    parts = [Equal(Var(q), Var(q)) for q in range(2 * width)]
    parts += [
        Equal(Var(width + q), Var(q)) if rng.random() < 0.5 else Equal(Var(q), Var(width + q))
        for q in key
    ]
    rng.shuffle(parts)
    if len(parts) > 2 and rng.random() < 0.3:
        parts = [And(tuple(parts[:2])), *parts[2:]]
    return M, conjunction(r_parts), conjunction(parts)


@pytest.mark.hashseed
def test_kernel_quotients_match_brute_force(corpus, monkeypatch):
    # kernels are grouped by key and never evaluated; the classes, their
    # order and index() equal the brute quotient's.  A kernel whose key
    # misses a position r reads is refused unevaluated
    evaluated = _eval_spy(monkeypatch)
    rng = random.Random(2011)
    refused = 0
    for _ in range(300):
        M, r, E = _random_kernel_case(rng)
        evaluated.clear()
        found = _outcome(kernel_quotient, M, r, E)
        if _refused(found):
            assert found[1].startswith("domain formula reads") and not evaluated
            refused += 1
            continue
        assert found == _outcome(brute_quotient, M, r, E)
        # one batch of core tuples; over an empty domain there is no core
        # tuple to evaluate r at
        assert evaluated == ([r] if M.size else [])
    assert refused
    weakened = 0
    for _, M in corpus[:20:3]:
        _, _, scheme = _scheme_setup(M, 2)
        for i, s in enumerate(scheme.sorts):
            E = weaken_equivalence(scheme, i).sorts[i].equiv_formula
            evaluated.clear()
            q = kernel_quotient(M, s.domain_formula, E)
            assert evaluated == [s.domain_formula]
            assert _expanded(q) == brute_quotient(M, s.domain_formula, E)
            weakened += len(q.cores) > len(definable_quotient(M, s.domain_formula, s.equiv_formula))
    assert weakened


@pytest.mark.hashseed
def test_equalities_that_are_not_kernels_are_checked_pair_by_pair(monkeypatch):
    # a pair inside one block, or across blocks at different positions, is
    # an equality pattern but no kernel, and a kernel widened by an edge is
    # no pattern: the library refuses each unevaluated, and the brute
    # reference checks each pair by pair, with a witness for its failure
    evaluated = _eval_spy(monkeypatch)
    M = digraph(3, [(0, 1)])
    r = parse_formula("x0 = x0 & x1 = x1", M.sig)
    cases = [
        (M, r, parse_formula(text, M.sig))
        for text in (
            "x0 = x1 & x2 = x3",
            "x0 = x3 & x1 = x2",
            "x0 = x2 & x1 = x1 & x3 = x3 & x0 = x3",
            "x0 = x2 & x1 = x3 | edge(x0, x2)",
        )
    ]
    cases += [_padded_path_repro(width, leading=False) for width in (2, 3)]
    witnesses = Counter()
    for case in cases:
        with pytest.raises(SchemeError, match="^equivalence is not a kernel$"):
            kernel_quotient(*case)
        assert not evaluated
        witnesses[_outcome(brute_quotient, *case)[1].split(" at ")[0]] += 1
    assert set(witnesses) == {
        "not an equivalence relation: not reflexive",
        "not an equivalence relation: not symmetric",
        "not an equivalence relation: not transitive",
    }, witnesses


def test_padded_transitivity_witness():
    with pytest.raises(
        SchemeError, match=r"not transitive at \(\(0, 0\), \(2, 0\), \(3, 0\)\)"
    ):
        brute_quotient(*_padded_path_repro(2, leading=False))
    with pytest.raises(
        SchemeError, match=r"not transitive at \(\(0, 0, 0\), \(0, 0, 2\), \(0, 0, 3\)\)"
    ):
        brute_quotient(*_padded_path_repro(3, leading=True))


def test_quotient_factors_padding_unless_an_exists_rebinds_it(monkeypatch):
    # E is the kernel on x0; r asks for an out-neighbour of x0, found once
    # with a fresh bound index, so that x1 is padding and r is evaluated at
    # the 3 core tuples in one batch, and once rebinding x1, which r then
    # reads outside the key: refused before any evaluation
    M = digraph(3, [(0, 2), (1, 2)])
    E = parse_formula("x0 = x0 & x1 = x1 & x2 = x2 & x3 = x3 & x0 = x2", M.sig)
    calls = {}
    original = interpretation.eval_formula

    def counting(M, phi, v=None):
        # full tuples, padding included
        assert all(len(t) == len(free_variables(phi)) for t in v)
        calls.setdefault(phi, []).append(v)
        return original(M, phi, v)

    monkeypatch.setattr(interpretation, "eval_formula", counting)
    fresh, rebound = (
        parse_formula(f"x0 = x0 & x1 = x1 & exists {bound}. edge(x0, {bound})", M.sig)
        for bound in ("x4", "x1")
    )
    q = kernel_quotient(M, fresh, E)
    assert calls == {fresh: [[(0, 0), (1, 0), (2, 0)]]}
    assert _expanded(q) == brute_quotient(M, fresh, E)
    assert q.cores == [(0,), (1,)]
    assert quotient_members(q, 0) == tuple((0, b) for b in range(3))
    calls.clear()
    with pytest.raises(SchemeError, match=r"^domain formula reads x1 outside the equivalence's key$"):
        kernel_quotient(M, rebound, E)
    assert not calls


def test_quotient_on_empty_domain_is_empty():
    M = digraph(0, [])
    r = parse_formula("x0 = x0 & x1 = x1", M.sig)
    E = parse_formula("x0 = x0 & x1 = x1 & x2 = x2 & x3 = x3", M.sig)
    assert definable_quotient(M, r, E) == ()


def test_quotient_keeps_the_free_variable_gap_error(m_edge):
    r = parse_formula("x0 = x0 & x2 = x2", m_edge.sig)
    E = parse_formula("x0 = x3", m_edge.sig)
    with pytest.raises(FormulaError, match="free-variable gap: missing x1"):
        definable_quotient(m_edge, r, E)


def test_a_wide_quotient_is_built_quickly(m_edge):
    # one core position among 10,000: finding the key, splitting core from
    # padding and putting full tuples back together take time linear in
    # the width
    n, mid = 10_000, 5_000
    r = tautology(n)
    E = conjunction(
        [Equal(Var(q), Var(q)) for q in range(2 * n)] + [Equal(Var(mid), Var(n + mid))]
    )
    started = time.monotonic()
    q = kernel_quotient(m_edge, r, E)
    assert time.monotonic() - started < 1
    assert q.key == (mid,) and len(q.pad) == n - 1
    assert q.cores == [(0,), (1,)]
    t = full_tuple(q, (1,))
    assert t[mid] == 1 and t.count(0) == n - 1
    assert q.index(t) == 1


# -- scheme shape --------------------------------------------------------------------

# Schemes and their sorts are plain records: building one checks nothing,
# and validation and transport refuse a scheme of the wrong shape, each with
# the same message, before any formula is evaluated.


def _assert_refused(M, target, scheme, message, evaluated):
    """validate_scheme and induced_automorphism each raise SchemeError with
    exactly ``message``, and nothing is evaluated."""
    for call in (validate_scheme, lambda *args: induced_automorphism(*args, identity(M.size))):
        with pytest.raises(SchemeError) as err:
            call(M, target, scheme)
        assert str(err.value) == message
    assert not evaluated


def _with_sort(scheme, i, sort):
    """scheme with its sort i replaced."""
    return replace(scheme, sorts=(*scheme.sorts[:i], sort, *scheme.sorts[i + 1:]))


def test_scheme_sort_construction_errors(m_edge, monkeypatch):
    _, companion, scheme = _scheme_setup(m_edge)
    i, s = next((i, s) for i, s in enumerate(scheme.sorts) if s.width == 1)
    one = parse_formula("x0 = x0", m_edge.sig)
    two = parse_formula("x0 = x1", m_edge.sig)
    evaluated = _eval_spy(monkeypatch)
    for sort, message in (
        (SchemeSort(s.key, 0, one, two), "sort width must be positive"),
        (SchemeSort(s.key, 1, two, two), "sort domain formula must use exactly x0..x0"),
        (SchemeSort(s.key, 1, one, one), "sort equivalence formula must use exactly x0..x1"),
    ):
        _assert_refused(m_edge, companion, _with_sort(scheme, i, sort), message, evaluated)


def test_interpretation_scheme_construction_errors(m_edge, m_pair, monkeypatch):
    _, companion, scheme = _scheme_setup(m_edge)
    evaluated = _eval_spy(monkeypatch)

    def refused(message, sorts=scheme.sorts, translations=None):
        bad = InterpretationScheme(sorts, translations or {}, scheme.bijections)
        _assert_refused(m_edge, companion, bad, message, evaluated)

    refused("sort keys must be distinct", sorts=scheme.sorts + scheme.sorts[:1])
    # a sort key the scheme does not list: one from another structure's lift
    _, _, other = _scheme_setup(m_pair, k=2)
    known = {s.key for s in scheme.sorts}
    stranger = next(s.key for s in other.sorts if s.key not in known)
    (rel, keys), phi0 = next(iter(scheme.translations.items()))
    refused(
        f"unknown sort key in translation for {rel!r}",
        translations={(rel, (stranger,) + keys[1:]): phi0},
    )
    widths = {s.key: s.width for s in scheme.sorts}
    total = sum(widths[k] for k in keys)
    message = f"translation formula for {rel!r} must use exactly x0..x{total - 1}"
    # one variable too many, one too few, and x1..x(total): a gap at x0
    for used in (range(total + 1), range(total - 1), range(1, total + 1)):
        phi = parse_formula(" & ".join(f"x{q} = x{q}" for q in used), m_edge.sig)
        refused(message, translations={(rel, keys): phi})
    # a formula object shared with a translation of another width is
    # checked against each one's own width
    other, shared = next(
        (at, phi) for at, phi in scheme.translations.items() if sum(widths[k] for k in at[1]) != total
    )
    refused(message, translations={other: shared, (rel, keys): shared})


def test_a_scheme_is_refused_at_its_first_fault_in_check_order(m_edge, monkeypatch):
    # every sort is checked before any translation, and each translation
    # whole before the next: an equivalence that is no kernel is named
    # before a translation of the wrong width, and a translation that is no
    # pattern before a later one of the wrong width
    _, companion, scheme = _scheme_setup(m_edge)
    entries = list(scheme.translations.items())
    (rel0, keys0), phi0 = entries[0]
    (rel, keys), phi = entries[-1]
    s = scheme.sorts[0]
    wide = Padded(len(free_variables(phi)) + 1)
    evaluated = _eval_spy(monkeypatch)
    late_wide = _with_translation(scheme, len(entries) - 1, wide)
    unkernel = _with_equivalence(late_wide, 0, Or((s.equiv_formula,) * 2))
    _assert_refused(m_edge, companion, unkernel, f"sort 0 {s.key}: equivalence is not a kernel", evaluated)
    no_pattern = _with_translation(late_wide, 0, Or((phi0, phi0)))
    message = f"translation of {rel0!r} at sorts {keys0}: not a constant or an equality pattern"
    _assert_refused(m_edge, companion, no_pattern, message, evaluated)
    # alone, the wide translation is named
    message = f"translation formula for {rel!r} must use exactly x0..x{len(free_variables(phi)) - 1}"
    _assert_refused(m_edge, companion, late_wide, message, evaluated)


def _walk_spy(monkeypatch):
    """The formula objects that formulas._add_free walks from the top, one
    entry per walk: its calls on the parts of a formula it is walking are
    not recorded."""
    walked = []
    original = formulas._add_free
    depth = 0

    def recording(phi, out):
        nonlocal depth
        if not depth:
            walked.append(phi)
        depth += 1
        try:
            return original(phi, out)
        finally:
            depth -= 1

    monkeypatch.setattr(formulas, "_add_free", recording)
    return walked


def test_mutants_walk_no_formula_and_validation_walks_each_once(corpus, monkeypatch):
    # building a CLI mutant checks nothing; validating a scheme or a mutant
    # reads the free variables of each distinct formula object once, and a
    # domain formula once more where its sort has padding, to find that it
    # reads none of it (inert_variables)
    walked = _walk_spy(monkeypatch)
    checked = 0
    for _, M in corpus[::7]:
        for k in (1, 2, 3):
            _, companion, scheme = _scheme_setup(M, k)
            walked.clear()
            mutants = list(_cli_mutants(M, scheme))
            assert not walked
            for mutant in (scheme, *mutants):
                padded = {
                    id(s.domain_formula)
                    for s in mutant.sorts
                    if len(interpretation._kernel_key(s.width, s.domain_formula, s.equiv_formula)) < s.width
                }
                formula_ids = {id(phi) for phi in mutant.translations.values()}
                formula_ids.update(id(f) for s in mutant.sorts for f in (s.domain_formula, s.equiv_formula))
                walked.clear()
                validate_scheme(M, companion, mutant)
                counts = Counter(map(id, walked))
                assert {i: counts[i] for i in formula_ids} == {i: 1 + (i in padded) for i in formula_ids}
                checked += 1
    assert checked > 30, checked


def test_transport_refuses_a_map_that_is_no_target_automorphism(m_pair):
    # the target is the companion less one off-diagonal samefiber_edge pair:
    # its sorts are the companion's, so the sort checks pass, but the map
    # the swap induces sends a pair the target holds onto the dropped one
    _, companion, scheme = _scheme_setup(m_pair, k=2)
    name = "samefiber_edge"
    dropped = min((a, b) for a, b in companion.relations[name] if a != b)
    relations = {**companion.relations, name: [t for t in companion.relations[name] if t != dropped]}
    target = Structure(companion.sig, companion.size, relations, repetition_free=companion.repetition_free)
    assert interpretation.sort_partition(target) == interpretation.sort_partition(companion)
    assert not validate_scheme(m_pair, target, scheme).passed
    with pytest.raises(SchemeError) as err:
        induced_automorphism(m_pair, target, scheme, Permutation((1, 0)))
    assert str(err.value) == "induced map is not an automorphism of the target"


def test_transport_raises_its_invariance_error_when_the_host_check_is_wrong(m_edge, monkeypatch):
    # a host automorphism keeps every definable set, so only a wrong host
    # check can hand over a map that moves a representative out of its sort:
    # the swap moves the edge (0, 1) of the limit sort's one representative
    _, companion, scheme = _scheme_setup(m_edge)
    original = interpretation.is_automorphism
    monkeypatch.setattr(interpretation, "is_automorphism", lambda S, g: S is m_edge or original(S, g))
    with pytest.raises(SchemeError) as err:
        induced_automorphism(m_edge, companion, scheme, Permutation((1, 0)))
    assert str(err.value) == (
        "scheme not automorphism-invariant: image of (0, 1, 0) leaves the range of the sort bijection"
    )


def _bijection_entries(data):
    return {tuple(entry["key"]): entry["map"] for entry in data["bijections"]}


def test_a_mutant_shares_what_it_keeps_with_its_parent(corpus):
    # each mutant is its parent with one part replaced: the other parts are
    # the parent's own objects, and a redirected bijection changes the
    # scheme, and its serialization, at that sort's map alone
    redirected = 0
    for _, M in corpus:
        for k in (1, 2):
            _, _, scheme = _scheme_setup(M, k)
            data = scheme_to_json_dict(scheme)
            for i in (0, len(scheme.translations) - 1):
                mutant = negate_translation(scheme, i)
                assert mutant.sorts is scheme.sorts and mutant.bijections is scheme.bijections
                assert list(mutant.translations) == list(scheme.translations)
                old, new = list(scheme.translations.values()), list(mutant.translations.values())
                assert all(a is b for j, (a, b) in enumerate(zip(new, old)) if j != i)
                assert new[i] is not old[i]
            for i in range(len(scheme.sorts)):
                mutant = weaken_equivalence(scheme, i)
                assert mutant.translations is scheme.translations
                assert mutant.bijections is scheme.bijections
                assert all(
                    a is b for j, (a, b) in enumerate(zip(mutant.sorts, scheme.sorts)) if j != i
                )
            for key, fmap in scheme.bijections.items():
                copy = replace(scheme, bijections={**scheme.bijections, key: dict(fmap)})
                assert copy == scheme
                if len(fmap) < 2:
                    continue
                mutant = redirect_bijection(scheme, key)
                assert mutant.sorts is scheme.sorts and mutant.translations is scheme.translations
                assert mutant.bijections.keys() == scheme.bijections.keys()
                assert all(
                    mutant.bijections[other] is scheme.bijections[other]
                    for other in scheme.bijections
                    if other != key
                )
                assert mutant != scheme
                assert mutant.bijections[key] != fmap
                changed = scheme_to_json_dict(mutant)
                assert {name: changed[name] for name in ("sorts", "relations")} == {
                    name: data[name] for name in ("sorts", "relations")
                }
                before, after = _bijection_entries(data), _bijection_entries(changed)
                assert list(before) == list(after)
                assert {sort for sort in before if before[sort] != after[sort]} == {key}
                redirected += 1
    assert redirected


def test_redirect_bijection_refuses_a_one_element_sort(m_edge):
    # the anchor sort has one element, so no second class can take it
    _, _, scheme = _scheme_setup(m_edge)
    key = next(key for key, fmap in scheme.bijections.items() if len(fmap) == 1)
    with pytest.raises(SchemeError) as e:
        redirect_bijection(scheme, key)
    assert str(e.value) == "sort has fewer than two elements; cannot redirect"


def _with_translation(scheme, i, formula):
    """scheme with the formula of its translation i replaced."""
    at = list(scheme.translations)[i]
    return replace(scheme, translations={**scheme.translations, at: formula})


def _without_translation(scheme, i):
    """scheme with its translation i left out."""
    at = list(scheme.translations)[i]
    return replace(scheme, translations={a: phi for a, phi in scheme.translations.items() if a != at})


def _with_equivalence(scheme, i, E):
    """scheme with the equivalence formula of its sort i replaced."""
    return _with_sort(scheme, i, replace(scheme.sorts[i], equiv_formula=E))


@pytest.mark.hashseed
def test_validation_evaluates_only_formulas_outside_patterns_and_kernels(corpus, monkeypatch):
    # each sort's domain formula is evaluated, in one batch of its core
    # tuples; patterns are decided by joins and kernels grouped by key,
    # unevaluated.
    # Generated translations are all patterns, generated and weakened
    # equivalences all kernels
    evaluated = _eval_spy(monkeypatch)
    for _, M in corpus[::7]:
        for k in (1, 2, 3):
            _, companion, scheme = _scheme_setup(M, k)
            assert all(map(interpretation._equality_pattern, scheme.translations.values()))
            for mutant in (scheme, negate_translation(scheme, 0), weaken_equivalence(scheme, 0)):
                evaluated.clear()
                validate_scheme(M, companion, mutant)
                assert sorted(map(id, evaluated)) == sorted(id(s.domain_formula) for s in mutant.sorts)


def test_schemes_outside_the_language_are_refused_unevaluated(m_edge, monkeypatch):
    # each kind of sort or translation that no generated scheme or CLI
    # mutant has raises SchemeError in validation and in transport, naming
    # the sort (index and key) or the translation (relation and sort keys),
    # before any formula is evaluated.  m_edge's lift has the width-3 limit
    # sort of edge, whose position 2 is padding
    _, companion, scheme = _scheme_setup(m_edge)
    widths = {s.key: s.width for s in scheme.sorts}
    base = next(i for i, s in enumerate(scheme.sorts) if s.width == 1)
    limit = next(i for i, s in enumerate(scheme.sorts) if s.width == 3)
    limit_key = scheme.sorts[limit].key

    entries = [(rel, keys, phi) for (rel, keys), phi in scheme.translations.items()]

    def rel_at(wanted):
        return next(i for i, entry in enumerate(entries) if wanted(*entry))

    # a translation that is no negated pattern, over a first sort of width 2
    positive = rel_at(
        lambda rel, keys, phi: widths[keys[0]] > 1
        and not interpretation._equality_pattern(phi)[0]
    )
    # a pattern linking the limit sort with a second sort
    linked = rel_at(
        lambda rel, keys, phi: keys[0] == limit_key and interpretation._equality_pattern(phi)[1]
    )
    fiber = rel_at(lambda rel, keys, phi: rel == "fiber_edge" and keys == (limit_key,))

    def at_sort(i, problem):
        return f"sort {i} {scheme.sorts[i].key}: {problem}"

    def at_rel(i, problem):
        rel, keys, _ = entries[i]
        return f"translation of {rel!r} at sorts {keys}: {problem}"

    def joined(i, *parts):
        return _with_translation(scheme, i, And((*parts, entries[i][2])))

    E0 = scheme.sorts[0].equiv_formula
    phi0 = entries[0][2]
    # a relation the host lacks after a false part: no constant False
    width0 = len(free_variables(phi0))
    after_false = (Not(Equal(Var(0), Var(0))), Rel("nosuch", (Var(0),)))
    expanded_after_false = And((*[Equal(Var(q), Var(q)) for q in range(width0)], *after_false))
    entered = Exists(3, Rel("edge", (Var(3), Var(2))))
    no_pattern, no_kernel = "not a constant or an equality pattern", "equivalence is not a kernel"
    unlinked = "does not link key positions of its first and second sorts"
    cases = [
        ("or translation", _with_translation(scheme, 0, Or((phi0, phi0))), at_rel(0, no_pattern)),
        ("or equivalence", _with_equivalence(scheme, 0, Or((E0, E0))), at_sort(0, no_kernel)),
        ("relation atom", joined(0, Rel("edge", (Var(0), Var(0)))), at_rel(0, no_pattern)),
        (
            "negated equality",
            _with_equivalence(scheme, base, Not(Equal(Var(0), Var(1)))),
            at_sort(base, no_kernel),
        ),
        ("pair inside a sort", joined(positive, Equal(Var(0), Var(1))), at_rel(positive, f"x0 = x1 {unlinked}")),
        ("pair at padding", joined(linked, Equal(Var(2), Var(3))), at_rel(linked, f"x2 = x3 {unlinked}")),
        ("exists", joined(fiber, Not(entered)), at_rel(fiber, no_pattern)),
        (
            "coarsen",
            _with_equivalence(scheme, limit, tautology(6)),
            at_sort(limit, "domain formula reads x0 outside the equivalence's key"),
        ),
        ("unknown relation", joined(0, Rel("nosuch", (Var(0),))), at_rel(0, no_pattern)),
        (
            "unknown after false",
            _with_translation(scheme, 0, expanded_after_false),
            at_rel(0, no_pattern),
        ),
        (
            "unknown after false in a padded core",
            _with_translation(scheme, 0, Padded(width0, after_false)),
            at_rel(0, no_pattern),
        ),
    ]
    evaluated = _eval_spy(monkeypatch)
    ident = identity(m_edge.size)
    for label, mutant, witness in cases:
        with pytest.raises(SchemeError) as err:
            validate_scheme(m_edge, companion, mutant)
        assert str(err.value) == witness, label
        with pytest.raises(SchemeError) as err:
            induced_automorphism(m_edge, companion, mutant, ident)
        assert str(err.value) == witness, label
        assert not evaluated, label


def _ternary_unary_case(rng):
    """A seeded structure with a ternary and a unary relation whose tuples
    may repeat entries, on two or three elements, and a random explicit
    padding at copy bound 1: distinct widths from 3 to 8."""
    n = rng.randint(2, 3)
    sig = Signature(relations=(("T", 3), ("U", 1)))
    relations = {
        "T": sorted({tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(1, 4))}),
        "U": sorted({(rng.randrange(n),) for _ in range(rng.randint(0, 2))}),
    }
    M = Structure(sig, n, relations, repetition_free=False)
    triples = padding_triples(sig, 1)
    widths = rng.sample(range(3, 9), len(triples))
    pads = {(rel, i): m - sig.relation_arity(rel) for (rel, i), m in zip(triples, widths)}
    return M, PaddingAssignment(pads)


def _cli_mutants(M, scheme):
    """The mutants that scheme-check --mutate makes, where it can: the first
    translation negated, the first sort wider than 1 weakened, and the
    bijection of the least sort key with two elements redirected."""
    yield negate_translation(scheme, 0)
    if M.size >= 2:
        yield weaken_equivalence(scheme, next((i for i, s in enumerate(scheme.sorts) if s.width > 1), 0))
    key = next((key for key, fmap in sorted(scheme.bijections.items()) if len(fmap) >= 2), None)
    if key is not None:
        yield redirect_bijection(scheme, key)


def test_generated_schemes_never_reach_eval_formula(corpus, monkeypatch):
    # generated translations are decided from their equality patterns and
    # generated equivalences grouped as kernels, so validating the schemes
    # and their CLI mutants, and transport, raise no SchemeError
    # and never evaluate a translation or an equivalence: every eval_formula
    # call is one batch for a sort's domain formula, one per sort and
    # validation or transport.  Over the corpus at k = 1..3, with
    # fibers over repeated entries at k = 1, 2, and seeded ternary-plus-unary
    # structures with explicit padding
    evaluated = _eval_spy(monkeypatch)
    rng = random.Random(3601)
    cases = [(M, k, {}) for _, M in corpus[::3] for k in (1, 2, 3)]
    cases += [(M, k, {"include_repetition_tuples": True}) for _, M in corpus[::3] for k in (1, 2)]
    cases += [(M, 1, {"padding": padding}) for M, padding in map(_ternary_unary_case, [rng] * 6)]
    validations = 0
    for M, k, config in cases:
        _, companion, scheme = _scheme_setup(M, k, **config)
        evaluated.clear()
        assert validate_scheme(M, companion, scheme).passed, (M, k, config)
        runs = 1
        for mutant in _cli_mutants(M, scheme):
            assert not validate_scheme(M, companion, mutant).passed
            validations += 1
            runs += 1
        for g in automorphism_group(M).generators:
            induced_automorphism(M, companion, scheme, g)
            runs += 1
        assert Counter(map(id, evaluated)) == {id(s.domain_formula): runs for s in scheme.sorts}
    assert validations == 353


# -- scheme validation -------------------------------------------------------------


def test_generated_scheme_validates(m_edge):
    M = m_edge
    _, companion, scheme = _scheme_setup(M)
    report = validate_scheme(M, companion, scheme)
    assert report.passed, report.failures()


def test_validate_requires_relational(m_edge):
    N, companion, scheme = _scheme_setup(m_edge)
    with pytest.raises(SchemeError, match="relational"):
        validate_scheme(m_edge, N.structure, scheme)


def test_negated_translation_is_caught(m_edge):
    M = m_edge
    _, companion, scheme = _scheme_setup(M)
    mutant = negate_translation(scheme, 0)
    report = validate_scheme(M, companion, mutant)
    assert not report.passed
    failing = report.failures()
    assert any(c.condition.startswith("relation-agreement") for c in failing)
    assert any(c.witness for c in failing)


def test_weakened_equivalence_is_caught(m_edge):
    M = m_edge
    _, companion, scheme = _scheme_setup(M)
    # the anchor sort has one class of size 4; identity splits it
    idx = next(
        i for i, s in enumerate(scheme.sorts) if s.width == 2 and len(scheme.bijections[s.key]) == 1
    )
    mutant = weaken_equivalence(scheme, idx)
    report = validate_scheme(M, companion, mutant)
    assert not report.passed
    assert any(c.condition.startswith("sort-bijection") for c in report.failures())


def test_redirected_bijection_is_caught(m_edge):
    M = m_edge
    _, companion, scheme = _scheme_setup(M)
    key = next(k for k, fmap in scheme.bijections.items() if len(fmap) >= 2)
    mutant = redirect_bijection(scheme, key)
    report = validate_scheme(M, companion, mutant)
    assert not report.passed
    assert any("injective" in (c.witness or "") or "onto" in (c.witness or "")
               for c in report.failures())


def test_generated_scheme_of_the_pair_validates(m_pair):
    M = m_pair
    _, companion, scheme = _scheme_setup(M)
    report = validate_scheme(M, companion, scheme)
    assert report.passed, report.failures()


def test_validation_reports_a_representative_outside_its_sort(m_edge):
    _, companion, scheme = _scheme_setup(m_edge)
    idx, s = next((i, s) for i, s in enumerate(scheme.sorts) if s.width == 1)
    fmap = dict(scheme.bijections[s.key])
    b = min(fmap)
    fmap[b] = (0, 0)
    bad = replace(scheme, bijections={**scheme.bijections, s.key: fmap})
    expected = CheckResult(
        f"sort-bijection[{idx}]", False, "representative (0, 0) outside the definable set"
    )
    # a representative of the wrong width has no class, so its element
    # has no variable block to stand in
    failing = validate_scheme(m_edge, companion, bad).failures()
    assert failing[0] == expected
    rest = failing[1:]
    assert [c.condition for c in rest] == [
        f"relation-agreement[{name}]" for name, _ in companion.sig.relations
    ]
    assert all(c.witness.startswith("untranslatable tuple") for c in rest)
    assert any(f"({b},)" in c.witness for c in rest)


def test_class_images_independent_of_member_choice(m_pair, m_edge):
    # transporting any member of an element's class lands in the same class
    # as transporting the stored representative
    for M in (m_pair, m_edge):
        _, companion, scheme = _scheme_setup(M)
        for pi in automorphism_group_brute(M):
            for s in scheme.sorts:
                classes = definable_quotient(M, s.domain_formula, s.equiv_formula)
                class_of = {t: i for i, c in enumerate(classes) for t in c}
                for b, rep in scheme.bijections[s.key].items():
                    target = class_of[pi.apply_tuple(rep)]
                    for member in classes[class_of[rep]]:
                        assert class_of[pi.apply_tuple(member)] == target


# -- induced automorphisms -----------------------------------------------------------


def test_identity_induces_identity(m_pair):
    N, companion, scheme = _scheme_setup(m_pair)
    ident = identity(2)
    assert induced_automorphism(m_pair, companion, scheme, ident).is_identity()


def test_induced_matches_direct_on_swap(m_pair):
    N, companion, scheme = _scheme_setup(m_pair)
    swap = Permutation((1, 0))
    assert induced_automorphism(m_pair, companion, scheme, swap) == direct_induced(
        N, swap
    )


def test_induced_rejects_non_automorphism(m_edge):
    N, companion, scheme = _scheme_setup(m_edge)
    with pytest.raises(SchemeError, match="not an automorphism"):
        induced_automorphism(m_edge, companion, scheme, Permutation((1, 0)))


def test_induced_rejects_a_redirected_bijection(m_pair):
    _, companion, scheme = _scheme_setup(m_pair)
    key = next(k for k, fmap in sorted(scheme.bijections.items()) if len(fmap) >= 2)
    redirected = redirect_bijection(scheme, key)
    with pytest.raises(SchemeError, match="not injective"):
        induced_automorphism(m_pair, companion, redirected, identity(2))


def test_induced_is_homomorphism(corpus):
    for _, M in corpus[1:6]:
        N, companion, scheme = _scheme_setup(M)
        members = automorphism_group_brute(M)
        table = {
            pi.images: induced_automorphism(M, companion, scheme, pi)
            for pi in members
        }
        for a in members:
            for b in members:
                assert table[multiply(a, b).images] == multiply(table[a.images], table[b.images])


def test_induced_injective_when_every_element_appears(m_pair):
    # both source points occur as representative coordinates, so distinct
    # automorphisms induce distinct maps
    N, companion, scheme = _scheme_setup(m_pair)
    members = automorphism_group_brute(m_pair)
    images = {induced_automorphism(m_pair, companion, scheme, pi).images
              for pi in members}
    assert len(images) == len(members)


def test_induced_rejects_a_scheme_missing_a_realized_sort(m_pair):
    # transport walks the scheme's sorts, so the elements of an unlisted
    # realized sort would be left without images
    _, companion, scheme = _scheme_setup(m_pair)
    dropped = scheme.sorts[0].key
    partial = replace(
        scheme,
        sorts=scheme.sorts[1:],
        translations={at: phi for at, phi in scheme.translations.items() if dropped not in at[1]},
    )
    with pytest.raises(SchemeError, match=r"^missing=1 extra=0 sort keys$"):
        induced_automorphism(m_pair, companion, partial, identity(2))


def _sort_mutants(scheme):
    """Every weakened sort equivalence and every redirected sort bijection."""
    for i in range(len(scheme.sorts)):
        yield weaken_equivalence(scheme, i)
    for key, fmap in scheme.bijections.items():
        if len(fmap) >= 2:
            yield redirect_bijection(scheme, key)


def _first_sort_failure(report):
    return next(
        (c for c in report.failures()
         if c.condition.startswith(("sort-cover", "sort-quotient", "sort-bijection"))),
        None,
    )


def test_induced_raises_the_first_failing_sort_check(corpus):
    raised = 0
    for _, M in corpus[1:12]:
        _, companion, scheme = _scheme_setup(M)
        ident = identity(M.size)
        for mutant in _sort_mutants(scheme):
            failure = _first_sort_failure(validate_scheme(M, companion, mutant))
            if failure is None:
                # weakening a sort whose classes are singletons changes nothing
                assert induced_automorphism(M, companion, mutant, ident).is_identity()
                continue
            with pytest.raises(SchemeError) as err:
                induced_automorphism(M, companion, mutant, ident)
            assert str(err.value) == failure.witness
            raised += 1
    assert raised


# -- the per-block agreement scan against the product scan ------------------------------


def _one_of_each_mutant(M, scheme):
    """The clean scheme and one negated, one weakened and one redirected mutant."""
    yield scheme
    yield negate_translation(scheme, 0)
    weakened = next(
        (i for i, s in enumerate(scheme.sorts)
         if any(len(c) > 1 for c in definable_quotient(M, s.domain_formula, s.equiv_formula))),
        None,
    )
    if weakened is not None:
        yield weaken_equivalence(scheme, weakened)
    key = next((key for key, fmap in scheme.bijections.items() if len(fmap) >= 2), None)
    if key is not None:
        yield redirect_bijection(scheme, key)


def _product_scan_report(M1, M2, scheme):
    """validate_scheme as it was before the per-block agreement decisions:
    every tuple of M2^arity in product order, each translation looked up
    and walked with the per-row eval_row per tuple, at every choice of members of
    the elements' classes, which come from brute_quotient.  The reference
    for the block decisions and for reading each element at its
    representative alone; its other checks come from the sort helpers and
    its own cover loop, so it runs no agreement scan of validate_scheme."""
    realized = interpretation.sort_partition(M2)
    _, sort_checks, _ = interpretation._sort_pass(M1, scheme, realized)
    missing = [
        name
        for name, arity in M2.sig.relations
        for keys in itertools.product(sorted(realized), repeat=arity)
        if scheme.translation(name, keys) is None
    ]
    witness = f"no translation formula for {missing[0]!r}" if missing else None
    cover = CheckResult("translation-cover", not missing, witness)
    report = ValidationReport([*sort_checks, cover])
    element_sort = {b: key for key, block in realized.items() for b in block}
    rep_of = {}
    for fmap in scheme.bijections.values():
        rep_of.update(fmap)
    brute = {}
    for s in scheme.sorts:
        _, classes, class_of, _ = brute_quotient(M1, s.domain_formula, s.equiv_formula)
        brute[s.key] = classes, class_of
    options = {}
    for b, rep in rep_of.items():
        classes, class_of = brute.get(element_sort.get(b), ((), {}))
        if rep in class_of:
            options[b] = classes[class_of[rep]]
    for name, arity in M2.sig.relations:
        witness = None
        for elems in itertools.product(M2.domain, repeat=arity):
            keys = tuple(element_sort[e] for e in elems)
            phi = scheme.translation(name, keys)
            if phi is None or any(e not in options for e in elems):
                witness = f"untranslatable tuple {elems}"
                break
            holds = elems in M2.relation_sets[name]
            for blocks in itertools.product(*[options[e] for e in elems]):
                v = dict(enumerate(sum(blocks, ())))
                if eval_row(M1, phi, v) != holds:
                    witness = f"tuple {elems} (target says {holds})"
                    break
            if witness:
                break
        report.checks.append(CheckResult(f"relation-agreement[{name}]", witness is None, witness))
    return report


def _scan_mutants(M, scheme, rng):
    """The clean scheme and its mutants, each with the SchemeError text that
    refuses it, or None for one inside the language: negated translations
    at several indices, a weakened equivalence, a redirected bijection, a
    dropped translation, a representative of the wrong width; and, refused,
    a coarsened equivalence (one class) of a sort whose domain formula
    reads its positions, and a later translation that names an unknown
    relation (alone and after a negated one)."""
    n = len(scheme.translations)
    bij = scheme.bijections
    yield "clean", scheme, None
    for i in sorted({0, n // 2, n - 1, *rng.sample(range(n), min(n, 3))}):
        yield f"negate {i}", negate_translation(scheme, i), None
    for mutant in _one_of_each_mutant(M, scheme):
        if mutant.bijections is not bij:
            yield "redirect", mutant, None
        elif mutant.sorts != scheme.sorts:
            yield "weaken", mutant, None
    reading = [
        i for i, s in enumerate(scheme.sorts)
        if interpretation._equality_pattern(s.domain_formula) is None
    ]
    if reading:
        i = max(reading, key=lambda i: (len(bij[scheme.sorts[i].key]), rng.random()))
        s = scheme.sorts[i]
        yield (
            f"coarsen {i}",
            _with_equivalence(scheme, i, tautology(2 * s.width)),
            f"sort {i} {s.key}: domain formula reads x0 outside the equivalence's key",
        )
    i = rng.randrange(n)
    yield f"drop {i}", _without_translation(scheme, i), None
    key = rng.choice(sorted(bij))
    b = rng.choice(sorted(bij[key]))
    wide = {**bij, key: {**bij[key], b: bij[key][b] + (0,)}}
    yield f"wide {b}", replace(scheme, bijections=wide), None
    j = rng.randrange(n // 2, n)
    (rel, keys), phi = list(scheme.translations.items())[j]
    unknown = _with_translation(scheme, j, And((Rel("nosuch", (Var(0),)), phi)))
    refusal = f"translation of {rel!r} at sorts {keys}: not a constant or an equality pattern"
    yield f"unknown {j}", unknown, refusal
    yield f"negate {j // 2}, unknown {j}", negate_translation(unknown, j // 2), refusal


def _relabelled(M2, scheme, rng):
    """M2 under a random relabelling of its elements, so that the sorts
    interleave, and the scheme with its bijections relabelled to match."""
    image = list(M2.domain)
    rng.shuffle(image)
    relations = {
        name: [tuple(image[e] for e in t) for t in tuples]
        for name, tuples in M2.relations.items()
    }
    maps = {
        key: {image[b]: rep for b, rep in fmap.items()}
        for key, fmap in scheme.bijections.items()
    }
    target = Structure(M2.sig, M2.size, relations, repetition_free=M2.repetition_free)
    return target, replace(scheme, bijections=maps)


@pytest.mark.hashseed
def test_block_scan_matches_the_product_scan(corpus):
    # whole reports, witnesses included, on the companion or, every other
    # time, a relabelled copy of it, and the SchemeError of each mutant
    # outside the language; the product scan takes seconds per scheme on
    # three vertices at k = 3, so k = 2, 3 cover the digraphs on at most
    # two vertices and a few more
    rng = random.Random(99)
    outcomes = Counter()
    for k, sample in ((1, corpus[::5]), (2, corpus[:5] + corpus[5::32]), (3, corpus[:3])):
        for index, (name, M) in enumerate(sample):
            _, companion, scheme = _scheme_setup(M, k)
            target, scheme = (companion, scheme) if index % 2 else _relabelled(companion, scheme, rng)
            for label, mutant, refusal in _scan_mutants(M, scheme, rng):
                args = (M, target, mutant)
                if refusal is not None:
                    with pytest.raises(SchemeError) as err:
                        validate_scheme(*args)
                    assert str(err.value) == refusal, (name, k, label)
                    outcomes["refused"] += 1
                    continue
                expected = _product_scan_report(*args).checks
                assert validate_scheme(*args).checks == expected, (name, k, label)
                outcomes.update(
                    c.witness.split()[0]
                    for c in expected
                    if c.condition.startswith("relation-agreement") and not c.passed
                )
    assert outcomes["refused"] and outcomes["tuple"] and outcomes["untranslatable"], outcomes


@pytest.mark.hashseed
def test_block_scan_takes_the_least_failure_over_interleaved_sorts():
    # the even elements form one sort and the odd ones another; R's
    # translation ~x0 = x1 fails at (0, 4) in the block of two even sorts,
    # which is decided first, and the constant True at (0, 3) in the next
    # block, whose first row starts at the same element
    sig = Signature(relations=(("P", 1),))
    M1 = Structure(sig, 6, {"P": [(0,), (2,), (4,)]})
    held = [(0, 2), (2, 0), (2, 4), (4, 0), (4, 2), (0, 1), (0, 5)]
    held += [(a, b) for a in (2, 4) for b in (1, 3, 5)]
    M2 = Structure(
        Signature(relations=(("P", 1), ("R", 2))), 6, {"P": [(0,), (2,), (4,)], "R": held}
    )
    even, odd = interpretation.sort_partition(M2)
    sorts = tuple(
        SchemeSort(key, 1, parse_formula(r, sig), parse_formula("x0 = x1", sig))
        for key, r in ((even, "P(x0)"), (odd, "~P(x0)"))
    )
    translations = {
        ("P", (even,)): "x0 = x0",
        ("P", (odd,)): "x0 = x0 & ~x0 = x0",
        ("R", (even, even)): "~x0 = x1",
        ("R", (even, odd)): "x0 = x0 & x1 = x1",
        ("R", (odd, even)): "x0 = x0 & x1 = x1 & ~x0 = x0",
        ("R", (odd, odd)): "x0 = x0 & x1 = x1 & ~x0 = x0",
    }
    formulas = {at: parse_formula(text, sig) for at, text in translations.items()}
    bij = {key: {b: (b,) for b in block} for key, block in ((even, (0, 2, 4)), (odd, (1, 3, 5)))}
    scheme = InterpretationScheme(sorts, formulas, bij)
    report = validate_scheme(M1, M2, scheme)
    assert report.failures() == [
        CheckResult("relation-agreement[R]", False, "tuple (0, 3) (target says False)")
    ]
    assert report == _product_scan_report(M1, M2, scheme)


def _random_translation(rng, widths):
    """The formula of a constant or of an equality pattern linking the first
    two sorts, over sorts of these widths, negated or not, with the pattern
    it should have."""
    total, split = sum(widths), widths[0]
    pairs = []
    if len(widths) > 1 and rng.random() < 0.8:
        links = [(s, t) for s in range(split) for t in range(split, split + widths[1])]
        pairs = sorted(rng.sample(links, rng.randint(1, min(2, len(links)))))
    parts = [Equal(Var(q), Var(q)) for q in range(total)]
    parts += [Equal(Var(t), Var(s)) if rng.random() < 0.5 else Equal(Var(s), Var(t)) for s, t in pairs]
    false = not pairs and rng.random() < 0.5
    if false:
        parts.append(Not(Equal(Var(0), Var(0))))
    rng.shuffle(parts)
    negated = rng.random() < 0.5
    formula = conjunction(parts)
    formula = Not(formula) if negated else formula
    return formula, (negated != false, tuple(pairs))


def _random_held(rng, formula, product, options):
    """Random held tuples of ``product``, at a random density or exactly
    where the formula holds at the options, with one tuple flipped at
    times."""
    density = rng.choice([0, 0.1, 0.5, 1, "exact"])
    if density != "exact":
        return {t for t in product if rng.random() < density}
    H = digraph(3, [])
    held = {
        t for t in product
        if eval_row(H, formula, dict(enumerate(sum((options[e][0] for e in t), ()))))
    }
    if product and rng.random() < 0.5:
        held ^= {rng.choice(product)}
    return held


def _random_sorts(rng, n, most):
    """Elements 0..n-1 split at random into one to ``most`` nonempty sorts,
    keyed ("s0",), ("s1",), ..., each of width 1-3, with each element's
    one random host tuple over a 3-element host as its option."""
    sort_of = [rng.randrange(most) for _ in range(n)]
    blocks = [tuple(e for e in range(n) if sort_of[e] == i) for i in range(most)]
    realized = {(f"s{i}",): block for i, block in enumerate(filter(None, blocks))}
    widths = {key: rng.randint(1, 3) for key in realized}
    options = {
        e: (tuple(rng.randrange(3) for _ in range(widths[key])),)
        for key, block in realized.items()
        for e in block
    }
    return realized, widths, options


def _agreement(held, row, realized, options, widths):
    """_agreement_witness of one relation, its ready and stray elements read
    off ``options`` as validate_scheme reads them."""
    ready = {key: tuple(filter(options.__contains__, block)) for key, block in realized.items()}
    stray = {
        key: min(set(block).difference(ready[key]))
        for key, block in realized.items()
        if len(ready[key]) < len(block)
    }
    patterns = {id(phi): interpretation._equality_pattern(phi) for _, phi in row if phi is not None}
    reps = {e: members[0] for e, members in options.items()}
    return interpretation._agreement_witness(
        frozenset(held), row, realized, reps, ready, stray, widths, patterns
    )


def _row_by_row(M, held, row, realized, options):
    """The row-by-row reference: each block's first_failure (a block with no
    translation fails at its least tuple), the least of them."""
    failures = []
    for keys, phi in row:
        blocks = [realized[key] for key in keys]
        if phi is None:
            least = tuple(block[0] for block in blocks)
            failures.append((least, f"untranslatable tuple {least}"))
        else:
            failures.append(first_failure(M, phi, frozenset(held), blocks, options))
    return min(filter(None, failures), default=(None, None))


@pytest.mark.hashseed
def test_block_decision_matches_the_tuple_scan():
    # constants and equality patterns, negated or not, decided at relation
    # level give the row-by-row reference's least tuple and witness text:
    # one random block, every other block of the relation a constant that
    # agrees with the target there, its held tuples beside the block's
    rng = random.Random(2010)
    M = digraph(3, [])
    outcomes = Counter()
    for _ in range(3000):
        realized, widths, options = _random_sorts(rng, rng.randint(1, 6), 2)
        arity = rng.randint(1, 3)
        keys = tuple(rng.choice(list(realized)) for _ in range(arity))
        formula, pattern = _random_translation(rng, [widths[key] for key in keys])
        assert interpretation._equality_pattern(formula) == pattern, formula
        blocks = [realized[key] for key in keys]
        held = _random_held(rng, formula, list(itertools.product(*blocks)), options)
        row = [(keys, formula)]
        for other in itertools.product(realized, repeat=arity):
            if other != keys:
                true = rng.random() < 0.5
                width = sum(widths[key] for key in other)
                false = Padded(width, (Not(Equal(Var(0), Var(0))),))
                row.append((other, tautology(width) if true else false))
                if true:
                    held.update(itertools.product(*[realized[key] for key in other]))
        rng.shuffle(row)
        expected = first_failure(M, formula, frozenset(held), blocks, options)
        assert _row_by_row(M, held, row, realized, options) == (expected or (None, None))
        found = _agreement(held, row, realized, options, widths)
        assert found == (expected and expected[1]), (formula, blocks, held, options)
        kind = "pattern" if pattern[1] else "constant"
        outcomes[kind, pattern[0], expected and expected[1].split()[-1]] += 1
    # a constant True fails only where the target says False, and False
    # only where it says True
    impossible = {("constant", False, "True)"), ("constant", True, "False)")}
    for case in itertools.product(("pattern", "constant"), (False, True), (None, "True)", "False)")):
        assert (outcomes[case] > 0) == (case not in impossible), outcomes


@pytest.mark.hashseed
def test_relation_agreement_matches_the_row_by_row_reference():
    # random relations of several blocks, each with a constant, a pattern, a
    # negated pattern or no translation, over elements with or without an
    # option: the relation-wide decision gives the least failing tuple of
    # the row-by-row reference, untranslatable ones winning ties
    rng = random.Random(5104)
    M = digraph(3, [])
    outcomes = Counter()
    for _ in range(1500):
        realized, widths, options = _random_sorts(rng, rng.randint(1, 6), 3)
        for e in [e for e in options if rng.random() < 0.1]:
            del options[e]
        arity = rng.randint(1, 3)
        row, held = [], set()
        for keys in itertools.product(realized, repeat=arity):
            if rng.random() < 0.05:
                row.append((keys, None))
                phi = tautology(sum(widths[key] for key in keys))
            else:
                phi, _ = _random_translation(rng, [widths[key] for key in keys])
                row.append((keys, phi))
            product = list(itertools.product(*[realized[key] for key in keys]))
            ready = [t for t in product if all(map(options.__contains__, t))]
            held |= _random_held(rng, phi, ready, options)
            held |= {t for t in product if t not in ready and rng.random() < 0.3}
        rng.shuffle(row)
        least, expected = _row_by_row(M, held, row, realized, options)
        found = _agreement(held, row, realized, options, widths)
        assert found == expected, (row, held, options)
        if expected is None:
            outcomes["pass"] += 1
        elif expected.startswith("untranslatable"):
            keys = tuple(next(k for k, b in realized.items() if e in b) for e in least)
            missing = dict(row)[keys] is None
            outcomes["missing" if missing else "stray", least in held] += 1
        else:
            outcomes[expected.split()[-1]] += 1
    assert {"pass", "True)", "False)", ("missing", False), ("missing", True), ("stray", False),
            ("stray", True)} <= set(outcomes), outcomes


def test_equality_patterns_are_read_off_the_formula(m_edge):
    sig = m_edge.sig
    for text, pattern in (
        ("x0 = x0 & x1 = x1", (False, ())),
        ("x0 = x0 & ~x0 = x0 & x1 = x1", (True, ())),
        ("~(x0 = x0 & ~x0 = x0)", (False, ())),
        ("x2 = x0 & (x1 = x1 & x0 = x2) & x1 = x3", (False, ((0, 2), (1, 3)))),
        ("~(x0 = x1)", (True, ((0, 1),))),
        ("~~(x0 = x1)", (False, ((0, 1),))),
    ):
        assert interpretation._equality_pattern(parse_formula(text, sig)) == pattern, text
    # a part of another form refuses the formula, also after a false part
    for text in (
        "x0 = x1 | x1 = x1", "x0 = x0 & ~x0 = x1", "edge(x0, x1)", "x0 = x0 & edge(x0, x1)",
        "x0 = x0 & ~x0 = x0 & edge(x0, x1)",
    ):
        assert interpretation._equality_pattern(parse_formula(text, sig)) is None, text


def _cover_mutants(scheme, rng):
    """Schemes whose translations of some relation over realized sorts fall
    short, each beside a translation that must not count: one dropped, one
    dropped beside an extra one of the wrong arity, one dropped beside one
    for a relation outside the target's signature, and one realized sort
    renamed to a key the target does not realize, in its translations too."""
    widths = {s.key: s.width for s in scheme.sorts}
    i = rng.randrange(len(scheme.translations))
    (rel, sort_keys), phi = list(scheme.translations.items())[i]
    dropped = _without_translation(scheme, i)
    yield "drop", dropped
    keys = sort_keys[1:] if len(sort_keys) > 1 else sort_keys * 2
    wrong = tautology(sum(map(widths.__getitem__, keys)))
    yield "wrong arity", replace(dropped, translations={**dropped.translations, (rel, keys): wrong})
    yield "outside", replace(dropped, translations={**dropped.translations, ("nosuch", sort_keys): phi})
    old = rng.choice(scheme.sorts).key
    new = ("renamed",) + old

    def rename(key):
        return new if key == old else key

    yield "sort left out", InterpretationScheme(
        tuple(replace(s, key=rename(s.key)) for s in scheme.sorts),
        {(r, tuple(map(rename, ks))): f for (r, ks), f in scheme.translations.items()},
        {rename(key): fmap for key, fmap in scheme.bijections.items()},
    )


@pytest.mark.hashseed
def test_translation_cover_completion_matches_the_product_scan(corpus):
    # the cover is read off the scheme's index; the tuples of sorts a short
    # count leaves out become untranslatable blocks, and translations of
    # the wrong arity, outside the signature or over an unrealized sort
    # count for nothing
    rng = random.Random(2802)
    seen = Counter()
    for k, sample in ((1, corpus[1::7]), (2, corpus[1:4])):
        for index, (name, M) in enumerate(sample):
            _, companion, scheme = _scheme_setup(M, k)
            target, scheme = (companion, scheme) if index % 2 else _relabelled(companion, scheme, rng)
            for label, mutant in _cover_mutants(scheme, rng):
                expected = _product_scan_report(M, target, mutant).checks
                assert validate_scheme(M, target, mutant).checks == expected, (name, k, label)
                failed = {c.condition for c in expected if not c.passed}
                assert "translation-cover" in failed, (name, k, label)
                seen[label, "sort-cover" in failed] += 1
    assert set(seen) == {
        ("drop", False), ("wrong arity", False), ("outside", False), ("sort left out", True)
    }, seen


def test_agreement_skips_constant_false_blocks_and_reads_the_index(monkeypatch):
    # the heaviest scheme-rigid class: a rigid digraph on four vertices at
    # k = 3; its many constant False blocks, those that hold no tuple
    # among them, never reach _holding, and a covered scheme needs no
    # translation lookup
    M = digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (3, 1)])
    assert automorphism_group(M).order() == 1
    _, companion, scheme = _scheme_setup(M, 3)
    realized = interpretation.sort_partition(companion)
    sort_of = {b: key for key, block in realized.items() for b in block}
    held = {
        (name, tuple(map(sort_of.__getitem__, t)))
        for name, tuples in companion.relation_sets.items()
        for t in tuples
    }
    dead = sum(
        interpretation._equality_pattern(phi) == (True, ()) and index not in held
        for index, phi in scheme.translations.items()
    )
    decided = []
    original = interpretation._holding

    def recording(out, pattern, split, blocks, options):
        decided.append(pattern)
        return original(out, pattern, split, blocks, options)

    def lookup(self, rel, sort_keys):
        raise AssertionError(f"translation({rel!r}, ...) looked up")

    monkeypatch.setattr(interpretation, "_holding", recording)
    monkeypatch.setattr(InterpretationScheme, "translation", lookup)
    report = validate_scheme(M, companion, scheme)
    assert report.passed, report.failures()
    assert dead and decided, (dead, len(decided))
    assert (True, ()) not in decided
    # every other block reaches the kernel once
    constant_false = sum(
        interpretation._equality_pattern(phi) == (True, ()) for phi in scheme.translations.values()
    )
    assert len(decided) == len(scheme.translations) - constant_false


def _padding_readers(M, scheme, pads, rng):
    """scheme with one to three translations over padded sorts each joined
    with a random formula over a padding position of their blocks and two
    other positions: by &, by |, or as (xp = xp | phi) & formula, which reads
    padding but keeps the truth; or joined with xp = xp, which reads none."""
    widths = {s.key: s.width for s in scheme.sorts}
    translations = dict(scheme.translations)
    touched = [at for at in translations if any(pads[key] for key in at[1])]
    for at in rng.sample(touched, min(len(touched), rng.randint(1, 3))):
        phi, start, padded = translations[at], 0, []
        for key in at[1]:
            padded += [start + q for q in pads[key]]
            start += widths[key]
        p = rng.choice(padded)
        extra = _random_core(rng, [p, *rng.sample(range(start), min(start, 2))])
        template = rng.randrange(4)
        if template == 0:
            formula = And((phi, extra))
        elif template == 1:
            formula = Or((phi, extra))
        elif template == 2:
            formula = And((phi, Or((Equal(Var(p), Var(p)), extra))))
        else:
            formula = And((phi, Equal(Var(p), Var(p))))
        translations[at] = formula
    return replace(scheme, translations=translations)


@pytest.mark.hashseed
def test_validation_matches_member_enumeration_where_translations_read_padding(corpus, monkeypatch):
    # a translation that reads a padding position is refused before any
    # evaluation, naming the first one in scheme order; a join that reads
    # no padding after all is decided at each element's representative, as
    # the product scan decides it at every member of every class
    evaluated = _eval_spy(monkeypatch)
    rng = random.Random(1604)
    outcomes = Counter()
    for k, sample in ((1, corpus[1::10]), (2, corpus[1:4])):
        for name, M in sample:
            _, companion, scheme = _scheme_setup(M, k)
            pads = {
                s.key: kernel_quotient(M, s.domain_formula, s.equiv_formula).pad
                for s in scheme.sorts
            }
            for _ in range(16):
                mutant = _padding_readers(M, scheme, pads, rng)
                changed = [
                    f"translation of {rel!r} at sorts {keys}: "
                    for (rel, keys), phi in mutant.translations.items()
                    if phi is not scheme.translations[rel, keys]
                ]
                evaluated.clear()
                try:
                    checks = validate_scheme(M, companion, mutant).checks
                except SchemeError as e:
                    assert str(e).startswith(tuple(changed)) and not evaluated, (name, k, str(e))
                    outcomes["refused"] += 1
                    continue
                assert checks == _product_scan_report(M, companion, mutant).checks, (name, k)
                outcomes["decided", all(c.passed for c in checks)] += 1
    assert outcomes["refused"] > 30 and outcomes["decided", True], outcomes


# -- classical interpretation proxy ----------------------------------------------------


def _self_interpretation(M):
    D = parse_formula("x0 = x0", M.sig)
    E = parse_formula("x0 = x1", M.sig)
    alpha = {a: (a,) for a in M.domain}
    return D, E, alpha


def test_self_interpretation_accepted(corpus):
    for _, M in corpus[:10]:
        D, E, alpha = _self_interpretation(M)
        report = check_classical_interpretation(M, M, D, E, alpha)
        assert report.passed, report.failures()


def test_alpha_collapse_rejected(m_pair):
    D, E, alpha = _self_interpretation(m_pair)
    alpha[1] = (0,)
    report = check_classical_interpretation(m_pair, m_pair, D, E, alpha)
    assert not report.passed
    assert any(c.condition == "bijection" for c in report.failures())


def test_planted_non_invariant_relation_rejected(m_pair):
    D, E, alpha = _self_interpretation(m_pair)
    # m_pair with one more unary relation, which the swap moves
    sig = Signature(relations=m_pair.sig.relations + (("planted", 1),))
    planted = Structure(sig, m_pair.size, {**m_pair.relations, "planted": [(0,)]})
    report = check_classical_interpretation(m_pair, planted, D, E, alpha)
    assert not report.passed
    failing = [c for c in report.failures() if c.condition == "invariance[planted]"]
    assert failing and "automorphism" in failing[0].witness


# -- serialization ----------------------------------------------------------------------


def test_scheme_serialization_shape(m_edge):
    _, companion, scheme = _scheme_setup(m_edge)
    data = scheme_to_json_dict(scheme)
    assert {"sorts", "relations", "bijections"} <= set(data)
    assert all("formula" in r for r in data["relations"])
    # sort keys are sorted formula lists
    for s in data["sorts"]:
        assert s["key"] == sorted(s["key"])
