import itertools
import random
import time
from collections import Counter
from dataclasses import replace

import pytest

from stablelift import interpretation
from stablelift.corpus import digraph, random_digraph
from stablelift.formulas import (
    And,
    Equal,
    Exists,
    FormulaError,
    Not,
    Or,
    Rel,
    Var,
    conjunction,
    definable_set,
    eval_formula,
    free_variables,
    parse_formula,
    tautology,
)
from stablelift.groups import (
    Permutation,
    automorphism_group,
    automorphism_group_brute,
)
from stablelift.interpretation import (
    CheckResult,
    InterpretationScheme,
    SchemeError,
    SchemeRel,
    SchemeSort,
    ValidationReport,
    check_classical_interpretation,
    definable_quotient,
    induced_automorphism,
    negate_translation,
    redirect_bijection,
    scheme_to_json_dict,
    validate_scheme,
    weaken_equivalence,
)
from stablelift.lifting import LiftConfig, build_lift, direct_induced, generate_scheme
from stablelift.structures import Signature, Structure, relational_companion


def _scheme_setup(M, k=1):
    N = build_lift(M, LiftConfig(k=k))
    scheme = generate_scheme(N)
    companion = relational_companion(N.structure)
    return N, companion, scheme


# -- quotients ------------------------------------------------------------------


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
        definable_quotient(m_edge, r, E)


def test_quotient_rejects_non_symmetric(m_edge):
    r = parse_formula("x0 = x0", m_edge.sig)
    E = parse_formula("x0 = x1 | edge(x0,x1)", m_edge.sig)
    with pytest.raises(SchemeError, match="not symmetric"):
        definable_quotient(m_edge, r, E)


def test_quotient_rejects_non_transitive():
    from stablelift.corpus import digraph

    M = digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    r = parse_formula("x0 = x0", M.sig)
    E = parse_formula("x0 = x1 | edge(x0,x1)", M.sig)
    with pytest.raises(SchemeError, match="not transitive"):
        definable_quotient(M, r, E)


def test_quotient_transitivity_witness_on_a_path_of_length_three():
    from stablelift.corpus import digraph

    # 0 ~ 2 ~ 3 ~ 1: the closure joins 0 and 1 only through a path of
    # length 3, so no single middle point relates them
    M = digraph(4, [(0, 2), (2, 3), (3, 1)])
    r = parse_formula("x0 = x0", M.sig)
    E = parse_formula("x0 = x1 | edge(x0, x1) | edge(x1, x0)", M.sig)
    with pytest.raises(SchemeError, match=r"not transitive at \(\(0,\), \(2,\), \(3,\)\)"):
        definable_quotient(M, r, E)


def _brute_quotient(M, r, E):
    """The unfactored quotient: r over all of M^width and E over all pairs of
    r(M), with the lex-least symmetry witness.  The reference for the
    factored _Quotient."""
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
                s, u, v = interpretation._transitivity_witness(rows, s, t)
                raise SchemeError(f"not an equivalence relation: not transitive at ({s}, {u}, {v})")
    return dom, classes, class_of, tuple(c[0] for c in classes)


def _outcome(build, M, r, E):
    try:
        q = build(M, r, E)
    except (SchemeError, FormulaError) as e:
        return type(e).__name__, str(e)
    if isinstance(q, tuple):
        return q
    return _expanded(q)


def _expanded(q):
    """A _Quotient written out as _brute_quotient gives it: every member of
    every class, and the class index() finds for each tuple of M^width."""
    classes = [q.members(idx) for idx in range(len(q.cores))]
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
    M = random_digraph(rng, rng.choice([0, 1, 2, 2, 3, 3, 3]), rng.random())
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


@pytest.mark.hashseed
def test_factored_quotient_matches_brute_force():
    rng = random.Random(20260418)
    kinds = Counter()
    for _ in range(1500):
        M, r, E = _random_quotient_case(rng)
        expected = _outcome(_brute_quotient, M, r, E)
        assert _outcome(interpretation._Quotient, M, r, E) == expected, (M, r, E)
        if isinstance(expected[0], str):
            kinds[expected[1].split(" at ")[0].split(": ")[-1]] += 1
    for width in (2, 3):
        for leading in (False, True):
            case = _padded_path_repro(width, leading)
            expected = _outcome(_brute_quotient, *case)
            assert _outcome(interpretation._Quotient, *case) == expected
            kinds[expected[1].split(" at ")[0].split(": ")[-1]] += 1
    assert {"not reflexive", "not symmetric", "not transitive"} <= set(kinds), kinds


def _eval_spy(monkeypatch):
    """The formulas interpretation evaluates, one entry per top-level call,
    as recorded."""
    evaluated = []
    original = interpretation.eval_formula

    def recording(M, phi, v=None):
        evaluated.append(phi)
        return original(M, phi, v)

    monkeypatch.setattr(interpretation, "eval_formula", recording)
    return evaluated


def _random_kernel_case(rng):
    """A random digraph with a width-1..3 sort whose E is the kernel of the
    projection onto some positions (all, some or none), its atoms in either
    orientation, shuffled and partly nested; positions outside the key
    that r does not read are padding."""
    M = random_digraph(rng, rng.choice([0, 1, 2, 3, 3]), rng.random())
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
    # order and index() equal the brute quotient's
    evaluated = _eval_spy(monkeypatch)
    rng = random.Random(2011)
    for _ in range(300):
        M, r, E = _random_kernel_case(rng)
        evaluated.clear()
        assert _outcome(interpretation._Quotient, M, r, E) == _outcome(_brute_quotient, M, r, E)
        # over an empty domain there is no core tuple to evaluate r at
        assert set(evaluated) == ({r} if M.size else set())
    weakened = 0
    for _, M in corpus[:20:3]:
        _, _, scheme = _scheme_setup(M, 2)
        for i, s in enumerate(scheme.sorts):
            E = weaken_equivalence(scheme, i).sorts[i].equiv_formula
            evaluated.clear()
            q = interpretation._Quotient(M, s.domain_formula, E)
            assert set(evaluated) == {s.domain_formula}
            assert _expanded(q) == _brute_quotient(M, s.domain_formula, E)
            weakened += len(q.cores) > len(definable_quotient(M, s.domain_formula, s.equiv_formula))
    assert weakened


@pytest.mark.hashseed
def test_equalities_that_are_not_kernels_are_checked_pair_by_pair(monkeypatch):
    # a pair inside one block, or across blocks at different positions,
    # is an equality pattern but no kernel, and a kernel widened by an edge
    # is no pattern: E is evaluated and any failure has the brute quotient's
    # witness
    evaluated = _eval_spy(monkeypatch)
    M = digraph(3, [(0, 1)])
    r = parse_formula("x0 = x0 & x1 = x1", M.sig)
    witnesses = Counter()
    for text in (
        "x0 = x1 & x2 = x3",
        "x0 = x3 & x1 = x2",
        "x0 = x2 & x1 = x1 & x3 = x3 & x0 = x3",
        "x0 = x2 & x1 = x3 | edge(x0, x2)",
    ):
        E = parse_formula(text, M.sig)
        evaluated.clear()
        expected = _outcome(_brute_quotient, M, r, E)
        assert _outcome(interpretation._Quotient, M, r, E) == expected, text
        assert set(evaluated) == {r, E}
        witnesses[expected[1].split(" at ")[0]] += 1
    for width in (2, 3):
        M, r, E = _padded_path_repro(width, leading=False)
        evaluated.clear()
        expected = _outcome(_brute_quotient, M, r, E)
        assert _outcome(interpretation._Quotient, M, r, E) == expected
        assert set(evaluated) == {r, E}
        witnesses[expected[1].split(" at ")[0]] += 1
    assert set(witnesses) == {
        "not an equivalence relation: not reflexive",
        "not an equivalence relation: not symmetric",
        "not an equivalence relation: not transitive",
    }, witnesses


def test_padded_transitivity_witness():
    with pytest.raises(
        SchemeError, match=r"not transitive at \(\(0, 0\), \(2, 0\), \(3, 0\)\)"
    ):
        definable_quotient(*_padded_path_repro(2, leading=False))
    with pytest.raises(
        SchemeError, match=r"not transitive at \(\(0, 0, 0\), \(0, 0, 2\), \(0, 0, 3\)\)"
    ):
        definable_quotient(*_padded_path_repro(3, leading=True))


def test_quotient_factors_padding_unless_an_exists_rebinds_it(monkeypatch):
    # position 1 is padding in r; E relates x0 and x2 through a common
    # out-neighbour, found once with a fresh bound index and once rebinding x1.
    # _Quotient evaluates r and E: count the calls on each
    M = digraph(3, [(0, 2), (1, 2)])
    r = parse_formula("x0 = x0 & x1 = x1", M.sig)
    pads = "x0 = x0 & x1 = x1 & x2 = x2 & x3 = x3"
    calls = Counter()
    original = interpretation.eval_formula

    def counting(M, phi, v=None):
        # a full tuple, padding included
        assert v.keys() == free_variables(phi)
        calls[phi] += 1
        return original(M, phi, v)

    monkeypatch.setattr(interpretation, "eval_formula", counting)
    for bound, factored in (("x4", True), ("x1", False)):
        E = parse_formula(
            f"{pads} & (x0 = x2 | exists {bound}. edge(x0, {bound}) & edge(x2, {bound}))",
            M.sig,
        )
        calls.clear()
        q = interpretation._Quotient(M, r, E)
        core = 1 if factored else 2
        # r at each core tuple, E at each pair of them
        assert calls == {r: 3 ** core, E: 3 ** (2 * core)}
        assert _expanded(q) == _brute_quotient(M, r, E)
        assert q.members(0) == tuple((a, b) for a in (0, 1) for b in range(3))


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
    # one core position among 10,000: splitting core from padding and
    # putting full tuples back together take time linear in the width
    n, mid = 10_000, 5_000
    r = tautology(n)
    E = conjunction(
        [Equal(Var(q), Var(q)) for q in range(2 * n)] + [Equal(Var(mid), Var(n + mid))]
    )
    started = time.monotonic()
    q = interpretation._Quotient(m_edge, r, E)
    assert time.monotonic() - started < 1
    assert q.core == [mid] and len(q.pad) == n - 1
    assert q.cores == [((0,),), ((1,),)]
    t = q.full((1,))
    assert t[mid] == 1 and t.count(0) == n - 1
    assert q.index(t) == 1


# -- scheme construction ----------------------------------------------------------


def test_scheme_sort_construction_errors(m_edge):
    _, _, scheme = _scheme_setup(m_edge)
    s = next(s for s in scheme.sorts if s.width == 1)
    one = parse_formula("x0 = x0", m_edge.sig)
    two = parse_formula("x0 = x1", m_edge.sig)
    with pytest.raises(SchemeError, match=r"^sort width must be positive$"):
        SchemeSort(s.key, 0, one, two)
    with pytest.raises(SchemeError, match=r"^sort domain formula must use exactly x0\.\.x0$"):
        SchemeSort(s.key, 1, two, two)
    with pytest.raises(
        SchemeError, match=r"^sort equivalence formula must use exactly x0\.\.x1$"
    ):
        SchemeSort(s.key, 1, one, one)


def test_interpretation_scheme_construction_errors(m_edge, m_pair):
    _, _, scheme = _scheme_setup(m_edge)
    with pytest.raises(SchemeError, match=r"^sort keys must be distinct$"):
        InterpretationScheme(sorts=scheme.sorts + scheme.sorts[:1], rels=())
    # a sort key the scheme does not list: one from another structure's lift
    _, _, other = _scheme_setup(m_pair, k=2)
    known = {s.key for s in scheme.sorts}
    stranger = next(s.key for s in other.sorts if s.key not in known)
    sr = scheme.rels[0]
    with pytest.raises(SchemeError, match=rf"^unknown sort key in translation for {sr.rel!r}$"):
        InterpretationScheme(
            sorts=scheme.sorts,
            rels=(SchemeRel(sr.rel, (stranger,) + sr.sort_keys[1:], sr.formula),),
        )
    widths = {s.key: s.width for s in scheme.sorts}
    total = sum(widths[k] for k in sr.sort_keys)
    wide = parse_formula(" & ".join(f"x{q} = x{q}" for q in range(total + 1)), m_edge.sig)
    with pytest.raises(
        SchemeError,
        match=rf"^translation formula for {sr.rel!r} must use exactly x0\.\.x{total - 1}$",
    ):
        InterpretationScheme(
            sorts=scheme.sorts, rels=(SchemeRel(sr.rel, sr.sort_keys, wide),)
        )


def test_a_mutant_checks_only_the_translation_it_replaces(m_edge, monkeypatch):
    _, _, scheme = _scheme_setup(m_edge)
    assert len(scheme.rels) > 1
    calls = []
    original = interpretation.free_variables

    def counting(phi):
        calls.append(phi)
        return original(phi)

    monkeypatch.setattr(interpretation, "free_variables", counting)
    mutant = negate_translation(scheme, 0)
    assert calls == [mutant.rels[0].formula]
    assert mutant.rels[1:] == scheme.rels[1:]


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
            for i in (0, len(scheme.rels) - 1):
                mutant = negate_translation(scheme, i)
                assert mutant.sorts is scheme.sorts and mutant.bijections is scheme.bijections
                assert all(
                    a is b for j, (a, b) in enumerate(zip(mutant.rels, scheme.rels)) if j != i
                )
                assert mutant.rels[i] is not scheme.rels[i]
            for i in range(len(scheme.sorts)):
                mutant = weaken_equivalence(scheme, i)
                assert mutant.rels is scheme.rels and mutant.bijections is scheme.bijections
                assert all(
                    a is b for j, (a, b) in enumerate(zip(mutant.sorts, scheme.sorts)) if j != i
                )
            for key, fmap in scheme.bijections.items():
                copy = replace(scheme, bijections={**scheme.bijections, key: dict(fmap)})
                assert copy == scheme
                if len(fmap) < 2:
                    continue
                mutant = redirect_bijection(scheme, key)
                assert mutant.sorts is scheme.sorts and mutant.rels is scheme.rels
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
                assert {sort for sort in before if before[sort] != after[sort]} == {key.key}
                redirected += 1
    assert redirected


def _rewrapped(scheme):
    """scheme with its first translation and its first sort's equivalence
    each replaced by phi | phi, the same truth but neither an equality
    pattern nor a kernel."""
    sr, s = scheme.rels[0], scheme.sorts[0]
    rels = (SchemeRel(sr.rel, sr.sort_keys, Or((sr.formula, sr.formula))), *scheme.rels[1:])
    E = Or((s.equiv_formula, s.equiv_formula))
    sorts = (SchemeSort(s.key, s.width, s.domain_formula, E), *scheme.sorts[1:])
    return replace(scheme, rels=rels, sorts=sorts)


@pytest.mark.hashseed
def test_validation_evaluates_only_formulas_outside_patterns_and_kernels(corpus, monkeypatch):
    # sort domain formulas and every formula that is neither an equality
    # pattern nor a kernel are evaluated; patterns are decided by joins and
    # kernels grouped by key, unevaluated.  Generated translations are all
    # patterns, generated and weakened equivalences all kernels
    evaluated = _eval_spy(monkeypatch)
    for _, M in corpus[::7]:
        for k in (1, 2, 3):
            _, companion, scheme = _scheme_setup(M, k)
            assert all(interpretation._equality_pattern(sr.formula) for sr in scheme.rels)
            mutants = (
                scheme, negate_translation(scheme, 0), weaken_equivalence(scheme, 0), _rewrapped(scheme)
            )
            for mutant in mutants:
                evaluated.clear()
                validate_scheme(M, companion, mutant)
                # each sort's r in its quotient, and what was rewrapped
                reached = {id(s.domain_formula) for s in mutant.sorts}
                reached |= {id(s.equiv_formula) for s in mutant.sorts if isinstance(s.equiv_formula, Or)}
                reached |= {id(sr.formula) for sr in mutant.rels if isinstance(sr.formula, Or)}
                assert set(map(id, evaluated)) == reached


def test_generated_schemes_never_reach_eval_formula(corpus, monkeypatch):
    # generated translations are decided from their equality patterns and
    # generated equivalences grouped as kernels, so validating the schemes
    # and their CLI mutants, and transport, never evaluate a translation or
    # an equivalence: every eval_formula call is on a sort's domain formula
    evaluated = _eval_spy(monkeypatch)
    validations = 0
    for _, M in corpus[::3]:
        for k in (1, 2):
            _, companion, scheme = _scheme_setup(M, k)
            evaluated.clear()
            for mutant in _one_of_each_mutant(M, scheme):
                validate_scheme(M, companion, mutant)
                validations += 1
            for g in automorphism_group(M).generators:
                induced_automorphism(M, companion, scheme, g)
            assert evaluated
            assert set(map(id, evaluated)) <= {id(s.domain_formula) for s in scheme.sorts}
    assert validations == 180


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


def test_validation_reports_a_sort_whose_quotient_failed(m_edge):
    _, companion, scheme = _scheme_setup(m_edge)
    idx, s = next((i, s) for i, s in enumerate(scheme.sorts) if s.width == 1)
    sorts = list(scheme.sorts)
    # not reflexive, so the sort has no quotient
    sorts[idx] = SchemeSort(s.key, 1, s.domain_formula, Not(Equal(Var(0), Var(1))))
    broken = replace(scheme, sorts=tuple(sorts))
    failing = validate_scheme(m_edge, companion, broken).failures()
    assert failing[0].condition == f"sort-quotient[{idx}]"
    assert "not reflexive" in failing[0].witness
    rest = [c for c in failing if c.condition.startswith("relation-agreement[")]
    assert rest and all(c.witness.startswith("untranslatable tuple") for c in rest)


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
    ident = Permutation.identity(2)
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
        induced_automorphism(m_pair, companion, redirected, Permutation.identity(2))


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
                assert table[(a * b).images] == table[a.images] * table[b.images]


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
        rels=tuple(sr for sr in scheme.rels if dropped not in sr.sort_keys),
    )
    with pytest.raises(SchemeError, match=r"^missing=1 extra=0 sort keys$"):
        induced_automorphism(m_pair, companion, partial, Permutation.identity(2))


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
        ident = Permutation.identity(M.size)
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
    """validate_scheme as it was before the per-block agreement scan: every
    tuple of M2^arity in product order, each translation looked up and
    walked with eval_formula per tuple, at every choice of members of the
    elements' classes, which come from _brute_quotient.  The reference for
    the block scan and for reading only the padding that translations read;
    its other checks come from the sort helpers and its own cover loop, so
    it runs no agreement scan of validate_scheme."""
    realized = interpretation.sort_partition(M2)
    quotients, sort_checks = interpretation._sort_pass(M1, scheme, realized)
    missing = [
        name
        for name, arity in M2.sig.relations
        for keys in itertools.product(sorted(realized), repeat=arity)
        if scheme.translation(name, keys) is None
    ]
    witness = f"no translation formula for {missing[0]!r}" if missing else None
    cover = CheckResult("translation-cover", not missing, witness)
    report = ValidationReport([interpretation._sort_cover(realized, scheme), *sort_checks, cover])
    element_sort = {b: key for key, block in realized.items() for b in block}
    rep_of = {}
    for fmap in scheme.bijections.values():
        rep_of.update(fmap)
    brute = {}
    for s in scheme.sorts:
        if quotients[s.key] is not None:
            _, classes, class_of, _ = _brute_quotient(M1, s.domain_formula, s.equiv_formula)
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
            sr = scheme.translation(name, keys)
            if sr is None or any(e not in options for e in elems):
                witness = f"untranslatable tuple {elems}"
                break
            holds = elems in M2.relation_sets[name]
            for blocks in itertools.product(*[options[e] for e in elems]):
                v = dict(enumerate(sum(blocks, ())))
                if eval_formula(M1, sr.formula, v) != holds:
                    witness = f"tuple {elems} (target says {holds})"
                    break
            if witness:
                break
        report.checks.append(CheckResult(f"relation-agreement[{name}]", witness is None, witness))
    return report


def _scan_mutants(M, scheme, rng):
    """The clean scheme and its mutants: negated translations at several
    indices, a weakened and a coarsened equivalence (one class, which the
    translations need not respect), a redirected bijection, a dropped
    translation, a representative of the wrong width, a later translation
    that names an unknown relation (alone and after a negated one)."""
    n = len(scheme.rels)
    bij = scheme.bijections
    yield "clean", scheme
    for i in sorted({0, n // 2, n - 1, *rng.sample(range(n), min(n, 3))}):
        yield f"negate {i}", negate_translation(scheme, i)
    for mutant in _one_of_each_mutant(M, scheme):
        if mutant.bijections is not bij:
            yield "redirect", mutant
        elif mutant.sorts != scheme.sorts:
            yield "weaken", mutant
    sorts = list(scheme.sorts)
    i = max(range(len(sorts)), key=lambda i: (len(bij[sorts[i].key]), rng.random()))
    s = sorts[i]
    sorts[i] = SchemeSort(s.key, s.width, s.domain_formula, tautology(2 * s.width))
    yield f"coarsen {i}", replace(scheme, sorts=tuple(sorts))
    i = rng.randrange(n)
    yield f"drop {i}", replace(scheme, rels=scheme.rels[:i] + scheme.rels[i + 1:])
    key = rng.choice(sorted(bij))
    b = rng.choice(sorted(bij[key]))
    yield f"wide {b}", replace(scheme, bijections={**bij, key: {**bij[key], b: bij[key][b] + (0,)}})
    j = rng.randrange(n // 2, n)
    rels = list(scheme.rels)
    sr = rels[j]
    rels[j] = SchemeRel(sr.rel, sr.sort_keys, And((sr.formula, Rel("nosuch", (Var(0),)))))
    unknown = replace(scheme, rels=tuple(rels))
    yield f"unknown {j}", unknown
    yield f"negate {j // 2}, unknown {j}", negate_translation(unknown, j // 2)


def _scan_outcome(validate, *args):
    try:
        return validate(*args).checks
    except FormulaError as e:
        return str(e)


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
    # whole reports, witnesses and raised FormulaErrors included, on the
    # companion or, every other time, a relabelled copy of it; the product
    # scan takes seconds per scheme on three vertices at k = 3, so k = 2, 3
    # cover the digraphs on at most two vertices and a few more
    rng = random.Random(99)
    outcomes = Counter()
    for k, sample in ((1, corpus[::5]), (2, corpus[:5] + corpus[5::32]), (3, corpus[:3])):
        for index, (name, M) in enumerate(sample):
            _, companion, scheme = _scheme_setup(M, k)
            target, scheme = (companion, scheme) if index % 2 else _relabelled(companion, scheme, rng)
            for label, mutant in _scan_mutants(M, scheme, rng):
                args = (M, target, mutant)
                expected = _scan_outcome(_product_scan_report, *args)
                assert _scan_outcome(validate_scheme, *args) == expected, (name, k, label)
                if isinstance(expected, str):
                    outcomes["raised"] += 1
                    continue
                outcomes.update(
                    c.witness.split()[0]
                    for c in expected
                    if c.condition.startswith("relation-agreement") and not c.passed
                )
    assert outcomes["raised"] and outcomes["tuple"] and outcomes["untranslatable"], outcomes


@pytest.mark.hashseed
def test_block_scan_takes_the_least_failure_over_interleaved_sorts():
    # the even elements form one sort and the odd ones another; R's
    # translation fails at (0, 4) in the block of two even sorts, which is
    # scanned first, and at (0, 3) in the next block, whose first row starts
    # at the same element
    sig = Signature(relations=(("P", 1), ("Q", 2)))
    M1 = Structure(sig, 6, {"P": [(0,), (2,), (4,)], "Q": [(0, 4), (0, 3)]})
    M2 = Structure(
        Signature(relations=(("P", 1), ("R", 2))), 6, {"P": [(0,), (2,), (4,)]}
    )
    even, odd = interpretation.sort_partition(M2)
    sorts = tuple(
        SchemeSort(key, 1, parse_formula(r, sig), parse_formula("x0 = x1", sig))
        for key, r in ((even, "P(x0)"), (odd, "~P(x0)"))
    )
    rels = tuple(SchemeRel("P", (key,), parse_formula("P(x0)", sig)) for key in (even, odd))
    rels += tuple(
        SchemeRel("R", keys, parse_formula("Q(x0, x1)", sig))
        for keys in itertools.product((even, odd), repeat=2)
    )
    bij = {key: {b: (b,) for b in block} for key, block in ((even, (0, 2, 4)), (odd, (1, 3, 5)))}
    scheme = InterpretationScheme(sorts, rels, bij)
    report = validate_scheme(M1, M2, scheme)
    assert report.failures() == [
        CheckResult("relation-agreement[R]", False, "tuple (0, 3) (target says False)")
    ]
    assert report == _product_scan_report(M1, M2, scheme)


def _random_block_case(rng):
    """A random block of one to three sorts of width 1-3 over a 3-element
    host, each element with one random host tuple as its option, random
    held tuples (one more outside the block), and the formula of a
    constant or of an equality pattern linking the first two sorts, negated
    or not, with the pattern it should have."""
    n, nsorts = rng.randint(1, 6), rng.randint(1, 2)
    sort_of = [rng.randrange(nsorts) for _ in range(n)]
    sorts = [tuple(e for e in range(n) if sort_of[e] == i) for i in range(nsorts)]
    sorts = [block for block in sorts if block]
    widths = [rng.randint(1, 3) for _ in sorts]
    keys = [rng.randrange(len(sorts)) for _ in range(rng.randint(1, 3))]
    blocks, block_widths = [sorts[i] for i in keys], [widths[i] for i in keys]
    options = {
        e: (tuple(rng.randrange(3) for _ in range(widths[i])),)
        for i, block in enumerate(sorts)
        for e in block
    }
    total, split = sum(block_widths), block_widths[0]
    pairs = []
    if len(keys) > 1 and rng.random() < 0.8:
        links = [(s, t) for s in range(split) for t in range(split, split + block_widths[1])]
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
    product = list(itertools.product(*blocks))
    density = rng.choice([0, 0.1, 0.5, 1, "exact"])
    if density == "exact":
        # exactly where the formula holds, with one tuple flipped at times
        H = digraph(3, [])
        held = {
            t for t in product
            if eval_formula(H, formula, dict(enumerate(sum((options[e][0] for e in t), ()))))
        }
        if rng.random() < 0.5:
            held ^= {rng.choice(product)}
    else:
        held = {t for t in product if rng.random() < density}
    held_here = list(held)
    held.add((n,) * len(keys))
    pattern = (negated != false, tuple(pairs))
    return formula, pattern, split, blocks, frozenset(held), held_here, options


@pytest.mark.hashseed
def test_block_decision_matches_the_tuple_scan():
    # constants and equality patterns, negated or not, decided from the held
    # tuples give _first_failure's least tuple and witness text
    rng = random.Random(2010)
    M = digraph(3, [])
    outcomes = Counter()
    for _ in range(3000):
        formula, pattern, split, blocks, held, held_here, options = _random_block_case(rng)
        assert interpretation._equality_pattern(formula) == pattern, formula
        expected = interpretation._first_failure(M, formula, held, blocks, options)
        found = interpretation._block_failure(pattern, split, blocks, held, held_here, options)
        assert found == expected, (formula, blocks, held, options)
        kind = "pattern" if pattern[1] else "constant"
        outcomes[kind, pattern[0], expected and expected[1].split()[-1]] += 1
    # a constant True fails only where the target says False, and False
    # only where it says True
    impossible = {("constant", False, "True)"), ("constant", True, "False)")}
    for case in itertools.product(("pattern", "constant"), (False, True), (None, "True)", "False)")):
        assert (outcomes[case] > 0) == (case not in impossible), outcomes


def test_equality_patterns_are_read_off_the_formula(m_edge):
    sig = m_edge.sig
    for text, pattern in (
        ("x0 = x0 & x1 = x1", (False, ())),
        ("x0 = x0 & ~x0 = x0 & x1 = x1", (True, ())),
        ("~(x0 = x0 & ~x0 = x0)", (False, ())),
        ("x0 = x0 & ~x0 = x0 & edge(x0, x1)", (True, ())),
        ("x2 = x0 & (x1 = x1 & x0 = x2) & x1 = x3", (False, ((0, 2), (1, 3)))),
        ("~(x0 = x1)", (True, ((0, 1),))),
        ("~~(x0 = x1)", (False, ((0, 1),))),
    ):
        assert interpretation._equality_pattern(parse_formula(text, sig)) == pattern, text
    for text in ("x0 = x1 | x1 = x1", "x0 = x0 & ~x0 = x1", "edge(x0, x1)", "x0 = x0 & edge(x0, x1)"):
        assert interpretation._equality_pattern(parse_formula(text, sig)) is None, text


def _scan_spy(monkeypatch):
    """The blocks that validation hands to _first_failure, as recorded."""
    scanned = []
    original = interpretation._first_failure

    def recording(M1, phi, held, blocks, options):
        scanned.append(tuple(blocks))
        return original(M1, phi, held, blocks, options)

    monkeypatch.setattr(interpretation, "_first_failure", recording)
    return scanned


def _blocks_with(scheme, companion, wanted):
    """The blocks of target tuples, in scan order, whose sort keys and
    translation satisfy ``wanted``."""
    realized = interpretation.sort_partition(companion)
    return [
        tuple(realized[key] for key in keys)
        for name, arity in companion.sig.relations
        for keys in itertools.product(realized, repeat=arity)
        if wanted(keys, scheme.translation(name, keys).formula)
    ]


@pytest.mark.hashseed
def test_blocks_outside_the_join_fall_back_to_the_tuple_scan(corpus, monkeypatch):
    # an element without options, an element with two, a formula that is
    # not a pattern, and a pattern with a pair inside one sort are scanned
    # tuple by tuple; reports equal the product scan's
    scanned = _scan_spy(monkeypatch)
    falls_back = Counter()
    for name, M in corpus[1:12:2]:
        _, companion, scheme = _scheme_setup(M)
        widths = {s.key: s.width for s in scheme.sorts}
        bij = scheme.bijections
        wide = max(scheme.sorts, key=lambda s: (s.width, len(bij[s.key]))).key
        b = min(bij[wide])
        coarse = max(range(len(scheme.sorts)), key=lambda i: len(bij[scheme.sorts[i].key]))
        s = scheme.sorts[coarse]
        sorts = list(scheme.sorts)
        sorts[coarse] = SchemeSort(s.key, s.width, s.domain_formula, tautology(2 * s.width))
        inside = [
            i for i, sr in enumerate(scheme.rels)
            if widths[sr.sort_keys[0]] > 1 and interpretation._equality_pattern(sr.formula)[1]
        ]
        rels = list(scheme.rels)
        for i in inside[:1] + inside[-1:]:
            sr = rels[i]
            rels[i] = SchemeRel(sr.rel, sr.sort_keys, And((sr.formula, Equal(Var(0), Var(1)))))
        changed = {id(sr.formula) for sr in rels} - {id(sr.formula) for sr in scheme.rels}
        cases = [
            ("clean", scheme, lambda keys, phi: False),
            (
                "untranslatable",
                replace(scheme, bijections={**bij, wide: {**bij[wide], b: bij[wide][b] + (0,)}}),
                lambda keys, phi: wide in keys,
            ),
            (
                "two options",
                replace(scheme, sorts=tuple(sorts)),
                lambda keys, phi: s.key in keys and interpretation._equality_pattern(phi)[1],
            ),
            ("not a pattern", _rewrapped(scheme), lambda keys, phi: isinstance(phi, Or)),
            ("pair inside a sort", replace(scheme, rels=tuple(rels)), lambda keys, phi: id(phi) in changed),
        ]
        for label, mutant, wanted in cases:
            scanned.clear()
            report = validate_scheme(M, companion, mutant)
            assert scanned == _blocks_with(mutant, companion, wanted), (name, label)
            assert report == _product_scan_report(M, companion, mutant), (name, label)
            falls_back.update([label] if scanned else [])
    assert set(falls_back) == {"untranslatable", "two options", "not a pattern", "pair inside a sort"}


def _padding_readers(M, scheme, pads, rng):
    """scheme with one to three translations over padded sorts each joined
    with a random formula over a padding position of their blocks and two
    other positions: by &, by |, or as (xp = xp | phi) & formula, which reads
    padding but keeps the truth."""
    widths = {s.key: s.width for s in scheme.sorts}
    rels = list(scheme.rels)
    touched = [i for i, sr in enumerate(rels) if any(pads[key] for key in sr.sort_keys)]
    for i in rng.sample(touched, min(len(touched), rng.randint(1, 3))):
        sr, start, padded = rels[i], 0, []
        for key in sr.sort_keys:
            padded += [start + q for q in pads[key]]
            start += widths[key]
        p = rng.choice(padded)
        extra = _random_core(rng, [p, *rng.sample(range(start), min(start, 2))])
        template = rng.randrange(3)
        if template == 0:
            formula = And((sr.formula, extra))
        elif template == 1:
            formula = Or((sr.formula, extra))
        else:
            formula = And((sr.formula, Or((Equal(Var(p), Var(p)), extra))))
        rels[i] = SchemeRel(sr.rel, sr.sort_keys, formula)
    return replace(scheme, rels=tuple(rels))


@pytest.mark.hashseed
def test_validation_matches_member_enumeration_where_translations_read_padding(corpus):
    # validation evaluates each element's class members with only the
    # padding that some translation reads; the product scan evaluates every
    # member of every class from _brute_quotient
    rng = random.Random(1604)
    outcomes = Counter()
    for k, sample in ((1, corpus[1::10]), (2, corpus[1:4])):
        for name, M in sample:
            _, companion, scheme = _scheme_setup(M, k)
            pads = {
                s.key: interpretation._Quotient(M, s.domain_formula, s.equiv_formula).pad
                for s in scheme.sorts
            }
            for _ in range(16):
                mutant = _padding_readers(M, scheme, pads, rng)
                expected = _scan_outcome(_product_scan_report, M, companion, mutant)
                assert _scan_outcome(validate_scheme, M, companion, mutant) == expected, (
                    name, k, mutant.rels
                )
                outcomes[all(c.passed for c in expected)] += 1
    assert outcomes[True] > 30 and outcomes[False] > 30, outcomes


def test_validation_catches_a_translation_that_tells_class_members_apart(m_edge):
    # the copy sort of edge has padding position 2; "no edge enters x2"
    # holds at every representative, whose padding is 0, but not at the
    # members whose padding is 1, so the translation does not respect the
    # sort's equivalence
    _, companion, scheme = _scheme_setup(m_edge)
    key = next(s.key for s in scheme.sorts if s.width == 3)
    at = next(
        i for i, sr in enumerate(scheme.rels) if sr.rel == "fiber_edge" and sr.sort_keys == (key,)
    )
    sr = scheme.rels[at]
    entered = Exists(3, Rel("edge", (Var(3), Var(2))))
    rels = list(scheme.rels)
    rels[at] = SchemeRel(sr.rel, sr.sort_keys, And((sr.formula, Not(entered))))
    planted = replace(scheme, rels=tuple(rels))
    (element,) = scheme.bijections[key]
    report = validate_scheme(m_edge, companion, planted)
    assert report.failures() == [
        CheckResult("relation-agreement[fiber_edge]", False, f"tuple ({element},) (target says True)")
    ]
    assert report == _product_scan_report(m_edge, companion, planted)


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
