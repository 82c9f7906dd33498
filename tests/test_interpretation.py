import itertools
import random
from collections import Counter

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
    automorphism_group_brute,
)
from stablelift.interpretation import (
    CheckResult,
    InterpretationScheme,
    SchemeError,
    SchemeRel,
    SchemeSort,
    SortBijections,
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
    scheme, bij = generate_scheme(M, N)
    companion = relational_companion(N.structure)
    return N, companion, scheme, bij


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
    return q.domain, q.classes, q.class_of, q.representatives


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
    # _Quotient compiles r and E: count the calls of each compiled closure
    M = digraph(3, [(0, 2), (1, 2)])
    r = parse_formula("x0 = x0 & x1 = x1", M.sig)
    pads = "x0 = x0 & x1 = x1 & x2 = x2 & x3 = x3"
    forms, calls = {}, Counter()
    original = interpretation._compile_formula

    def compiling(M, phi):
        form = forms[phi] = original(M, phi)
        if isinstance(form, bool):
            return form

        def counting(v):
            # a full tuple, padding included
            assert len(v) == len(free_variables(phi))
            calls[phi] += 1
            return form(v)

        return counting

    monkeypatch.setattr(interpretation, "_compile_formula", compiling)
    for bound, factored in (("x4", True), ("x1", False)):
        E = parse_formula(
            f"{pads} & (x0 = x2 | exists {bound}. edge(x0, {bound}) & edge(x2, {bound}))",
            M.sig,
        )
        forms.clear()
        calls.clear()
        q = interpretation._Quotient(M, r, E)
        core = 1 if factored else 2
        # r reads no position once x0 = x0 and x1 = x1 fold: decided once
        assert forms.keys() == {r, E} and forms[r] is True
        assert calls == {E: 3 ** (2 * core)}
        assert (q.domain, q.classes, q.class_of, q.representatives) == _brute_quotient(M, r, E)
        assert q.classes[0] == tuple((a, b) for a in (0, 1) for b in range(3))


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


# -- scheme construction ----------------------------------------------------------


def test_scheme_sort_construction_errors(m_edge):
    _, _, scheme, _ = _scheme_setup(m_edge)
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
    _, _, scheme, _ = _scheme_setup(m_edge)
    with pytest.raises(SchemeError, match=r"^sort keys must be distinct$"):
        InterpretationScheme(sorts=scheme.sorts + scheme.sorts[:1], rels=())
    # a sort key the scheme does not list: one from another structure's lift
    _, _, other, _ = _scheme_setup(m_pair, k=2)
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
    _, _, scheme, _ = _scheme_setup(m_edge)
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


def test_validation_compiles_each_distinct_formula_once(corpus, monkeypatch):
    compiled = Counter()
    original = interpretation._compile_formula

    def counting(M, phi):
        compiled[id(phi)] += 1
        return original(M, phi)

    monkeypatch.setattr(interpretation, "_compile_formula", counting)
    for _, M in corpus[::7]:
        for k in (1, 2, 3):
            _, companion, scheme, bij = _scheme_setup(M, k)
            for mutant in (scheme, negate_translation(scheme, 0)):
                compiled.clear()
                validate_scheme(M, companion, mutant, bij)
                # each sort's r and E in its quotient, each translation in the scan
                reached = {id(s.domain_formula) for s in mutant.sorts}
                reached |= {id(s.equiv_formula) for s in mutant.sorts}
                reached |= {id(sr.formula) for sr in mutant.rels}
                assert compiled.keys() == reached
                assert set(compiled.values()) == {1}


# -- scheme validation -------------------------------------------------------------


def test_generated_scheme_validates(m_edge):
    M = m_edge
    _, companion, scheme, bij = _scheme_setup(M)
    report = validate_scheme(M, companion, scheme, bij)
    assert report.passed, report.failures()


def test_validate_requires_relational(m_edge):
    N, companion, scheme, bij = _scheme_setup(m_edge)
    with pytest.raises(SchemeError, match="relational"):
        validate_scheme(m_edge, N.structure, scheme, bij)


def test_negated_translation_is_caught(m_edge):
    M = m_edge
    _, companion, scheme, bij = _scheme_setup(M)
    mutant = negate_translation(scheme, 0)
    report = validate_scheme(M, companion, mutant, bij)
    assert not report.passed
    failing = report.failures()
    assert any(c.condition.startswith("relation-agreement") for c in failing)
    assert any(c.witness for c in failing)


def test_weakened_equivalence_is_caught(m_edge):
    M = m_edge
    _, companion, scheme, bij = _scheme_setup(M)
    # the anchor sort has one class of size 4; identity splits it
    idx = next(i for i, s in enumerate(scheme.sorts) if s.width == 2 and len(bij[s.key]) == 1)
    mutant = weaken_equivalence(scheme, idx)
    report = validate_scheme(M, companion, mutant, bij)
    assert not report.passed
    assert any(c.condition.startswith("sort-bijection") for c in report.failures())


def test_redirected_bijection_is_caught(m_edge):
    M = m_edge
    _, companion, scheme, bij = _scheme_setup(M)
    key = next(k for k, fmap in bij.maps.items() if len(fmap) >= 2)
    mutant = redirect_bijection(bij, key)
    report = validate_scheme(M, companion, scheme, mutant)
    assert not report.passed
    assert any("injective" in (c.witness or "") or "onto" in (c.witness or "")
               for c in report.failures())


def test_representative_independence_fixture(m_pair):
    M = m_pair
    _, companion, scheme, bij = _scheme_setup(M)
    report = validate_scheme(
        M, companion, scheme, bij, representative_independence=True
    )
    assert report.passed, report.failures()


def test_representative_independence_reports_a_representative_outside_its_sort(m_edge):
    _, companion, scheme, bij = _scheme_setup(m_edge)
    idx, s = next((i, s) for i, s in enumerate(scheme.sorts) if s.width == 1)
    fmap = dict(bij[s.key])
    b = min(fmap)
    fmap[b] = (0, 0)
    bad = SortBijections(maps={**bij.maps, s.key: fmap})
    expected = CheckResult(
        f"sort-bijection[{idx}]", False, "representative (0, 0) outside the definable set"
    )
    # the default mode too: a representative of the wrong width has no
    # variable block to stand in
    modes = ((False, "relation-agreement"), (True, "representative-independence"))
    for independence, label in modes:
        report = validate_scheme(
            m_edge, companion, scheme, bad, representative_independence=independence
        )
        failing = report.failures()
        assert failing[0] == expected
        rest = failing[1:]
        assert [c.condition for c in rest] == [
            f"{label}[{name}]" for name, _ in companion.sig.relations
        ]
        assert all(c.witness.startswith("untranslatable tuple") for c in rest)
        assert any(f"({b},)" in c.witness for c in rest)


def test_representative_independence_reports_a_sort_whose_quotient_failed(m_edge):
    _, companion, scheme, bij = _scheme_setup(m_edge)
    idx, s = next((i, s) for i, s in enumerate(scheme.sorts) if s.width == 1)
    sorts = list(scheme.sorts)
    # not reflexive, so the sort has no quotient
    sorts[idx] = SchemeSort(s.key, 1, s.domain_formula, Not(Equal(Var(0), Var(1))))
    broken = InterpretationScheme(sorts=tuple(sorts), rels=scheme.rels)
    report = validate_scheme(
        m_edge, companion, broken, bij, representative_independence=True
    )
    failing = report.failures()
    assert failing[0].condition == f"sort-quotient[{idx}]"
    assert "not reflexive" in failing[0].witness
    rest = [c for c in failing if c.condition.startswith("representative-independence[")]
    assert rest and all(c.witness.startswith("untranslatable tuple") for c in rest)


def test_class_images_independent_of_member_choice(m_pair, m_edge):
    # transporting any member of an element's class lands in the same class
    # as transporting the stored representative
    for M in (m_pair, m_edge):
        _, companion, scheme, bij = _scheme_setup(M)
        for pi in automorphism_group_brute(M):
            for s in scheme.sorts:
                classes = definable_quotient(M, s.domain_formula, s.equiv_formula)
                class_of = {t: i for i, c in enumerate(classes) for t in c}
                for b, rep in bij[s.key].items():
                    target = class_of[pi.apply_tuple(rep)]
                    for member in classes[class_of[rep]]:
                        assert class_of[pi.apply_tuple(member)] == target


# -- induced automorphisms -----------------------------------------------------------


def test_identity_induces_identity(m_pair):
    N, companion, scheme, bij = _scheme_setup(m_pair)
    ident = Permutation.identity(2)
    assert induced_automorphism(m_pair, companion, scheme, bij, ident).is_identity()


def test_induced_matches_direct_on_swap(m_pair):
    N, companion, scheme, bij = _scheme_setup(m_pair)
    swap = Permutation((1, 0))
    assert induced_automorphism(m_pair, companion, scheme, bij, swap) == direct_induced(
        N, swap
    )


def test_induced_rejects_non_automorphism(m_edge):
    N, companion, scheme, bij = _scheme_setup(m_edge)
    with pytest.raises(SchemeError, match="not an automorphism"):
        induced_automorphism(m_edge, companion, scheme, bij, Permutation((1, 0)))


def test_induced_rejects_a_redirected_bijection(m_pair):
    _, companion, scheme, bij = _scheme_setup(m_pair)
    key = next(k for k, fmap in sorted(bij.maps.items()) if len(fmap) >= 2)
    redirected = redirect_bijection(bij, key)
    with pytest.raises(SchemeError, match="not injective"):
        induced_automorphism(m_pair, companion, scheme, redirected, Permutation.identity(2))


def test_induced_is_homomorphism(corpus):
    for _, M in corpus[1:6]:
        N, companion, scheme, bij = _scheme_setup(M)
        members = automorphism_group_brute(M)
        table = {
            pi.images: induced_automorphism(M, companion, scheme, bij, pi)
            for pi in members
        }
        for a in members:
            for b in members:
                assert table[(a * b).images] == table[a.images] * table[b.images]


def test_induced_injective_when_every_element_appears(m_pair):
    # both source points occur as representative coordinates, so distinct
    # automorphisms induce distinct maps
    N, companion, scheme, bij = _scheme_setup(m_pair)
    members = automorphism_group_brute(m_pair)
    images = {induced_automorphism(m_pair, companion, scheme, bij, pi).images
              for pi in members}
    assert len(images) == len(members)


def test_induced_rejects_a_scheme_missing_a_realized_sort(m_pair):
    # transport walks the scheme's sorts, so the elements of an unlisted
    # realized sort would be left without images
    _, companion, scheme, bij = _scheme_setup(m_pair)
    dropped = scheme.sorts[0].key
    partial = InterpretationScheme(
        sorts=scheme.sorts[1:],
        rels=tuple(sr for sr in scheme.rels if dropped not in sr.sort_keys),
    )
    with pytest.raises(SchemeError, match=r"^missing=1 extra=0 sort keys$"):
        induced_automorphism(m_pair, companion, partial, bij, Permutation.identity(2))


def _sort_mutants(scheme, bij):
    """Every weakened sort equivalence and every redirected sort bijection."""
    for i in range(len(scheme.sorts)):
        yield weaken_equivalence(scheme, i), bij
    for key, fmap in bij.maps.items():
        if len(fmap) >= 2:
            yield scheme, redirect_bijection(bij, key)


def _first_sort_failure(report):
    return next(
        (c for c in report.failures()
         if c.condition.startswith(("sort-cover", "sort-quotient", "sort-bijection"))),
        None,
    )


def test_induced_raises_the_first_failing_sort_check(corpus):
    raised = 0
    for _, M in corpus[1:12]:
        _, companion, scheme, bij = _scheme_setup(M)
        ident = Permutation.identity(M.size)
        for mutant, mutant_bij in _sort_mutants(scheme, bij):
            failure = _first_sort_failure(validate_scheme(M, companion, mutant, mutant_bij))
            if failure is None:
                # weakening a sort whose classes are singletons changes nothing
                assert induced_automorphism(M, companion, mutant, mutant_bij, ident).is_identity()
                continue
            with pytest.raises(SchemeError) as err:
                induced_automorphism(M, companion, mutant, mutant_bij, ident)
            assert str(err.value) == failure.witness
            raised += 1
    assert raised


# -- focused validation ----------------------------------------------------------------


FAMILY = {
    "sort-cover": "cover",
    "translation-cover": "cover",
    "sort-quotient": "sorts",
    "sort-bijection": "bijections",
    "relation-agreement": "agreement",
    "representative-independence": "agreement",
}


def _one_of_each_mutant(M, scheme, bij):
    """The clean scheme and one negated, one weakened and one redirected mutant."""
    yield scheme, bij
    yield negate_translation(scheme, 0), bij
    weakened = next(
        (i for i, s in enumerate(scheme.sorts)
         if any(len(c) > 1 for c in definable_quotient(M, s.domain_formula, s.equiv_formula))),
        None,
    )
    if weakened is not None:
        yield weaken_equivalence(scheme, weakened), bij
    key = next((key for key, fmap in bij.maps.items() if len(fmap) >= 2), None)
    if key is not None:
        yield scheme, redirect_bijection(bij, key)


def test_focused_validation_matches_the_full_report(corpus):
    # mutation tests validate one family and one relation at a time; that
    # must be exactly the full report's checks of the family and relation
    # (``relations`` restricts the agreement scan only)
    # every digraph on at most two vertices and five on three
    for _, M in corpus[:6] + corpus[6::16]:
        for k in (1, 2):
            _, companion, scheme, bij = _scheme_setup(M, k)
            names = [name for name, _ in companion.sig.relations]
            for mutant, mutant_bij in _one_of_each_mutant(M, scheme, bij):
                for independence in (False, True):
                    full = validate_scheme(
                        M, companion, mutant, mutant_bij,
                        representative_independence=independence,
                    ).checks
                    focus = [(f, names[0]) for f in ("sorts", "bijections", "cover")]
                    for family, name in focus + [("agreement", n) for n in names]:
                        focused = validate_scheme(
                            M, companion, mutant, mutant_bij,
                            include=(family,), relations={name},
                            representative_independence=independence,
                        ).checks
                        assert focused == [
                            c for c in full
                            if FAMILY[c.condition.split("[")[0]] == family
                            and (family != "agreement" or c.condition.endswith(f"[{name}]"))
                        ]


# -- the per-block agreement scan against the product scan ------------------------------


def _product_scan_report(M1, M2, scheme, bijections, representative_independence=False):
    """validate_scheme as it was before the per-block agreement scan: every
    tuple of M2^arity in product order, each translation looked up and
    walked with eval_formula per tuple.  The reference for the block scan."""
    report = validate_scheme(
        M1, M2, scheme, bijections,
        include=("sorts", "bijections", "cover"),
        representative_independence=representative_independence,
    )
    realized = interpretation.sort_partition(M2)
    quotients = {}
    if representative_independence:
        quotients, _, _ = interpretation._sort_pass(M1, scheme, bijections, realized)
    element_sort = {b: key for key, block in realized.items() for b in block}
    rep_of = {}
    for fmap in bijections.maps.values():
        rep_of.update(fmap)
    options = {}
    widths = {s.key: s.width for s in scheme.sorts}
    for b, rep in rep_of.items():
        key = element_sort.get(b)
        q = quotients.get(key)
        if not representative_independence:
            if len(rep) == widths.get(key):
                options[b] = (rep,)
        elif q is not None and rep in q.class_of:
            options[b] = q.classes[q.class_of[rep]]
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
        label = "representative-independence" if representative_independence else "relation-agreement"
        report.checks.append(CheckResult(f"{label}[{name}]", witness is None, witness))
    return report


def _scan_mutants(M, scheme, bij, rng):
    """The clean scheme and its mutants: negated translations at several
    indices, a weakened and a coarsened equivalence (one class, which the
    translations need not respect), a redirected bijection, a dropped
    translation, a representative of the wrong width, a later translation
    that names an unknown relation (alone and after a negated one)."""
    n = len(scheme.rels)
    yield "clean", scheme, bij
    for i in sorted({0, n // 2, n - 1, *rng.sample(range(n), min(n, 3))}):
        yield f"negate {i}", negate_translation(scheme, i), bij
    for mutant, mutant_bij in _one_of_each_mutant(M, scheme, bij):
        if mutant_bij is not bij:
            yield "redirect", scheme, mutant_bij
        elif mutant.sorts != scheme.sorts:
            yield "weaken", mutant, bij
    sorts = list(scheme.sorts)
    i = max(range(len(sorts)), key=lambda i: (len(bij[sorts[i].key]), rng.random()))
    s = sorts[i]
    sorts[i] = SchemeSort(s.key, s.width, s.domain_formula, tautology(2 * s.width))
    yield f"coarsen {i}", InterpretationScheme(tuple(sorts), scheme.rels), bij
    i = rng.randrange(n)
    yield f"drop {i}", InterpretationScheme(scheme.sorts, scheme.rels[:i] + scheme.rels[i + 1:]), bij
    key = rng.choice(sorted(bij.maps))
    b = rng.choice(sorted(bij[key]))
    wide = SortBijections(maps={**bij.maps, key: {**bij[key], b: bij[key][b] + (0,)}})
    yield f"wide {b}", scheme, wide
    j = rng.randrange(n // 2, n)
    rels = list(scheme.rels)
    sr = rels[j]
    rels[j] = SchemeRel(sr.rel, sr.sort_keys, And((sr.formula, Rel("nosuch", (Var(0),)))))
    unknown = InterpretationScheme(scheme.sorts, tuple(rels))
    yield f"unknown {j}", unknown, bij
    yield f"negate {j // 2}, unknown {j}", negate_translation(unknown, j // 2), bij


def _scan_outcome(validate, *args, **kwargs):
    try:
        return validate(*args, **kwargs).checks
    except FormulaError as e:
        return str(e)


def _relabelled(M2, bijections, rng):
    """M2 and the bijections under a random relabelling of M2's elements, so
    that the sorts interleave."""
    image = list(M2.domain)
    rng.shuffle(image)
    relations = {
        name: [tuple(image[e] for e in t) for t in tuples]
        for name, tuples in M2.relations.items()
    }
    maps = {
        key: {image[b]: rep for b, rep in fmap.items()}
        for key, fmap in bijections.maps.items()
    }
    target = Structure(M2.sig, M2.size, relations, repetition_free=M2.repetition_free)
    return target, SortBijections(maps=maps)


def test_block_scan_matches_the_product_scan(corpus):
    # whole reports, witnesses and raised FormulaErrors included, on the
    # companion or, every other time, a relabelled copy of it; the product
    # scan takes seconds per scheme on three vertices at k = 3, so k = 2, 3
    # cover the digraphs on at most two vertices and a few more
    rng = random.Random(99)
    outcomes = Counter()
    for k, sample in ((1, corpus[::5]), (2, corpus[:5] + corpus[5::32]), (3, corpus[:3])):
        for index, (name, M) in enumerate(sample):
            _, companion, scheme, bij = _scheme_setup(M, k)
            target, target_bij = (companion, bij) if index % 2 else _relabelled(companion, bij, rng)
            for label, mutant, mutant_bij in _scan_mutants(M, scheme, target_bij, rng):
                for independence in (False, True):
                    args = (M, target, mutant, mutant_bij)
                    expected = _scan_outcome(
                        _product_scan_report, *args, representative_independence=independence
                    )
                    got = _scan_outcome(
                        validate_scheme, *args, representative_independence=independence
                    )
                    assert got == expected, (name, k, label, independence)
                    if isinstance(expected, str):
                        outcomes["raised"] += 1
                        continue
                    outcomes.update(
                        c.witness.split()[0]
                        for c in expected
                        if c.condition.startswith(("relation-agreement", "representative-"))
                        and not c.passed
                    )
    assert outcomes["raised"] and outcomes["tuple"] and outcomes["untranslatable"], outcomes


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
    scheme = InterpretationScheme(sorts, rels)
    bij = SortBijections(maps={key: {b: (b,) for b in block} for key, block in ((even, (0, 2, 4)), (odd, (1, 3, 5)))})
    report = validate_scheme(M1, M2, scheme, bij)
    assert report.failures() == [
        CheckResult("relation-agreement[R]", False, "tuple (0, 3) (target says False)")
    ]
    assert report == _product_scan_report(M1, M2, scheme, bij)


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
    report = check_classical_interpretation(
        m_pair, m_pair, D, E, alpha, extra_relations={"planted": {(0,)}}
    )
    assert not report.passed
    failing = [c for c in report.failures() if c.condition == "invariance[planted]"]
    assert failing and "automorphism" in failing[0].witness


# -- serialization ----------------------------------------------------------------------


def test_scheme_serialization_shape(m_edge):
    _, companion, scheme, bij = _scheme_setup(m_edge)
    data = scheme_to_json_dict(scheme, bij)
    assert {"sorts", "relations", "bijections"} <= set(data)
    assert all("formula" in r for r in data["relations"])
    # sort keys are sorted formula lists
    for s in data["sorts"]:
        assert s["key"] == sorted(s["key"])
