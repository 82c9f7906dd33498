import pytest

from stablelift.formulas import parse_formula
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
