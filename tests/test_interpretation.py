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
)
from stablelift.groups import (
    Permutation,
    automorphism_group_brute,
)
from stablelift.interpretation import (
    SchemeError,
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
from stablelift.structures import relational_companion


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
    # out-neighbour, found once with a fresh bound index and once rebinding x1
    M = digraph(3, [(0, 2), (1, 2)])
    r = parse_formula("x0 = x0 & x1 = x1", M.sig)
    pads = "x0 = x0 & x1 = x1 & x2 = x2 & x3 = x3"
    calls = Counter()

    def counting(M, phi, v=None):
        calls[phi] += 1
        return eval_formula(M, phi, v)

    monkeypatch.setattr(interpretation, "eval_formula", counting)
    for bound, factored in (("x4", True), ("x1", False)):
        E = parse_formula(
            f"{pads} & (x0 = x2 | exists {bound}. edge(x0, {bound}) & edge(x2, {bound}))",
            M.sig,
        )
        calls.clear()
        q = interpretation._Quotient(M, r, E)
        core = 1 if factored else 2
        assert calls == {r: 3**core, E: 3 ** (2 * core)}
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
