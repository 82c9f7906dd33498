import dataclasses
import functools
import hashlib
import itertools
import json
import random
from collections import Counter

import pytest
from automorphism_oracle import automorphisms
from formula_parser import parse_formula
from references import (
    automorphism_group_brute,
    definable_quotient,
    expanded,
    generated_translations,
    induced_by_fiber,
    limit_elements_by_provenance,
    restricted_by_element,
    scheme_to_json_dict,
    searched_decomposition,
    standard_corpus,
    witness_by_provenance,
)
from stabilizer_oracle import identity
from sweep import digraph_classes

from stablelift import formulas, interpretation
from stablelift.corpus import digraph, edge_pairs
from stablelift.formulas import (
    And,
    FormulaError,
    Not,
    Or,
    Padded,
    eval_formula,
    format_formula,
    free_variables,
    inert_variables,
    sort_partition,
)
from stablelift.groups import (
    Permutation,
    automorphism_group,
    is_automorphism,
)
from stablelift.interpretation import validate_scheme, weaken_equivalence
from stablelift.lifting import (
    LIMIT,
    Anchor,
    BaseElem,
    FiberElem,
    LiftConfig,
    LiftError,
    PaddingAssignment,
    build_lift,
    canonical_padding,
    continuity_witness,
    direct_induced,
    fiber_sort,
    generate_scheme,
    limit_elements,
    padding_triples,
    project_automorphism,
)
from stablelift.lifting import LiftMapError, _restrict_automorphism
from stablelift.structures import Signature, Structure, relational_companion


# -- padding ---------------------------------------------------------------------


def test_canonical_padding_one_binary_relation_k2():
    sig = Signature(relations=(("R", 2),))
    p = canonical_padding(sig, 2)
    assert p.width(sig, "R", 0) == 2
    assert p.width(sig, "R", 1) == 3
    assert p.width(sig, "R", LIMIT) == 4
    assert [p.pads[("R", i)] for i in (0, 1, LIMIT)] == [0, 1, 2]


def test_canonical_padding_unary_skips_width_one():
    sig = Signature(relations=(("U", 1),))
    p = canonical_padding(sig, 1)
    assert p.width(sig, "U", 0) == 2
    assert p.width(sig, "U", LIMIT) == 3


def test_canonical_padding_mixed_arities_distinct():
    sig = Signature(relations=(("R", 2), ("S", 3)))
    p = canonical_padding(sig, 1)
    widths = [
        p.width(sig, rel, i) for rel in ("R", "S") for i in (0, LIMIT)
    ]
    assert len(set(widths)) == 4
    assert all(w > 1 for w in widths)


def test_padding_validation_errors():
    sig = Signature(relations=(("R", 2),))
    with pytest.raises(LiftError, match="cover exactly"):
        PaddingAssignment({("R", 0): 0}).validate(sig, 1)
    with pytest.raises(LiftError, match="pairwise distinct"):
        PaddingAssignment({("R", 0): 0, ("R", LIMIT): 0}).validate(sig, 1)
    with pytest.raises(LiftError, match="negative"):
        PaddingAssignment({("R", 0): -1, ("R", LIMIT): 0}).validate(sig, 1)
    unary = Signature(relations=(("U", 1),))
    with pytest.raises(LiftError, match="must exceed 1"):
        PaddingAssignment({("U", 0): 0, ("U", LIMIT): 2}).validate(unary, 1)


def test_a_build_validates_its_padding_once(m_edge, monkeypatch):
    # canonical_padding validates what it returns, so build_lift validates
    # only a padding the caller gives; a bad one raises its own message
    calls = []
    validate = PaddingAssignment.validate
    monkeypatch.setattr(PaddingAssignment, "validate",
                        lambda self, sig, k: calls.append(k) or validate(self, sig, k))
    build_lift(m_edge, LiftConfig(k=2))
    assert calls == [2]
    padding = PaddingAssignment({("edge", 0): 0, ("edge", 1): 1, ("edge", LIMIT): 2})
    calls.clear()
    assert build_lift(m_edge, LiftConfig(k=2, padding=padding)).padding == padding
    assert calls == [2]
    for pads, message in (
        ({("edge", 0): 0, ("edge", 1): 1}, "padding must cover exactly the (relation, copy) pairs"),
        ({("edge", 0): 0, ("edge", 1): 0, ("edge", LIMIT): 2}, "padded widths must be pairwise distinct"),
    ):
        with pytest.raises(LiftError) as e:
            build_lift(m_edge, LiftConfig(k=2, padding=PaddingAssignment(pads)))
        assert str(e.value) == message


def test_config_requires_positive_k():
    with pytest.raises(LiftError, match="at least 1"):
        LiftConfig(k=0)


# -- construction -------------------------------------------------------------------


def test_lift_shape_single_edge(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    assert N.structure.size == 6
    assert N.provenance == (
        Anchor(),
        BaseElem(0),
        BaseElem(1),
        FiberElem("edge", 0, (0, 1)),
        FiberElem("edge", LIMIT, (0, 1)),
        FiberElem("edge", 0, (1, 0)),
    )
    assert N.structure.constants["anchor"] == 0
    assert N.structure.relations["base"] == ((1,), (2,))


def test_lift_shape_with_repetition_tuples(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1, include_repetition_tuples=True))
    # fibers also over (0,0) and (1,1)
    assert N.structure.size == 8
    coords = {p.coords for p in N.provenance if isinstance(p, FiberElem)}
    assert coords == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_lift_shape_no_edges(m_pair):
    N = build_lift(m_pair, LiftConfig(k=1))
    assert N.structure.size == 5
    assert not [p for p in N.provenance if isinstance(p, FiberElem) and p.copy == LIMIT]


def test_lift_rejects_functional_source():
    sig = Signature(functions=("f",))
    M = Structure(sig=sig, size=1, functions={"f": (0,)})
    with pytest.raises(LiftError, match="relational"):
        build_lift(M)


def test_fiber_sizes(corpus):
    # a fiber holds k+1 copies over relation tuples and k otherwise
    for _, M in corpus[:20]:
        for k in (1, 2):
            N = build_lift(M, LiftConfig(k=k))
            for coords in N.fibers["edge"]:
                expected = k + 1 if coords in M.relation_sets["edge"] else k
                assert len(N.fibers["edge"][coords]) == expected


def test_function_semantics(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    S = N.structure
    copy0 = N.fibers["edge"][(0, 1)][0]
    limit = N.fibers["edge"][(0, 1)][LIMIT]
    anchor = S.constants["anchor"]
    # projections recover coordinates (as base ids); anchor elsewhere
    assert S.functions["proj_edge_0"][copy0] == N.base_id(0)
    assert S.functions["proj_edge_1"][copy0] == N.base_id(1)
    assert S.functions["proj_edge_0"][anchor] == anchor
    assert S.functions["proj_edge_0"][N.base_id(0)] == anchor
    # copy selectors move within the fiber; the limit element is no fixpoint
    assert S.functions["copy_edge_0"][limit] == copy0
    assert S.functions["copy_edge_0"][copy0] == copy0


# -- limit elements -------------------------------------------------------------------


def test_limit_elements_examples(m_edge, m_pair):
    N = build_lift(m_edge, LiftConfig(k=1))
    (lim,) = limit_elements(N, "edge")
    assert N.provenance[lim] == FiberElem("edge", LIMIT, (0, 1))
    assert limit_elements(build_lift(m_pair, LiftConfig(k=1)), "edge") == ()


def test_limit_elements_full_tournament():
    M = digraph(3, edge_pairs(3))  # all 6 ordered pairs
    N = build_lift(M, LiftConfig(k=2))
    assert len(limit_elements(N, "edge")) == 6


def test_limit_elements_encode_relation_membership(corpus):
    for _, M in corpus[30:50]:
        N = build_lift(M, LiftConfig(k=1))
        limit_coords = {N.provenance[e].coords for e in limit_elements(N, "edge")}
        assert limit_coords == set(M.relation_sets["edge"])


def test_limit_elements_reject_a_fiber_index_missing_a_limit_copy(m_edge):
    N = build_lift(m_edge, LiftConfig(k=2))
    copies = {i: e for i, e in N.fibers["edge"][(0, 1)].items() if i != LIMIT}
    fibers = {"edge": {**N.fibers["edge"], (0, 1): copies}}
    with pytest.raises(LiftError, match="limit elements disagree"):
        limit_elements(dataclasses.replace(N, fibers=fibers), "edge")


# -- automorphism transfer ---------------------------------------------------------------


def test_direct_induced_identity(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    assert direct_induced(N, identity(2)).is_identity()


def test_direct_induced_swap(m_pair):
    N = build_lift(m_pair, LiftConfig(k=1))
    pihat = direct_induced(N, Permutation((1, 0)))
    assert pihat.images == (0, 2, 1, 4, 3)
    assert is_automorphism(N.structure, pihat)


def test_direct_induced_rejects_with_fiber_witness(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    with pytest.raises(LiftMapError) as e:
        direct_induced(N, Permutation((1, 0)))
    assert e.value.rel == "edge"
    assert e.value.coords == (0, 1)
    assert e.value.image == (1, 0)


def _kernel_lifts(corpus):
    """Lifts for the column kernels and their references: the corpus at
    k = 1-3, every twelfth structure with repetition tuples, the mixed
    signatures, the seeded random relational structures (ternary relations,
    one-tuple and empty ones, with and without repetition tuples) and the
    empty digraph."""
    lifts = [build_lift(M, LiftConfig(k=k)) for _, M in corpus for k in (1, 2, 3)]
    lifts += [
        build_lift(M, LiftConfig(k=k, include_repetition_tuples=True))
        for _, M in corpus[::12]
        for k in (1, 2)
    ]
    mixed = [_mixed_structure(), _ternary_structure(), _two_binary_structure()]
    lifts += [build_lift(M, LiftConfig(k=2)) for M in mixed]
    lifts += [
        build_lift(_random_relational_structure(seed), LiftConfig(k=k, include_repetition_tuples=r))
        for seed in range(12) for k in (1, 2) for r in (False, True)
    ]
    lifts += [build_lift(digraph(0, []), LiftConfig(k=k)) for k in (1, 2)]
    return lifts


@pytest.mark.hashseed
def test_direct_induced_equals_the_per_fiber_reference(corpus):
    # every permutation of each source, automorphism or not, and random
    # ones of the 4- to 6-vertex digraphs: the same image, or a
    # LiftMapError with the same fiber, image and text
    rng = random.Random(50)
    cases = [(N, list(map(Permutation, itertools.permutations(N.source.domain))))
             for N in _kernel_lifts(corpus)]
    for n in (4, 5, 6):
        for edges in ([], [(0, 1), (1, 2), (2, 0)], [(a, b) for a in range(n) for b in range(n) if a != b]):
            M = digraph(n, edges)
            perms = [Permutation(tuple(rng.sample(range(n), n))) for _ in range(12)]
            perms += automorphism_group(M).generators
            cases += [(build_lift(M, LiftConfig(k=k)), perms) for k in (1, 2)]
    outcomes = {"induced": 0, "refused": 0}
    for N, perms in cases:
        for pi in perms:
            try:
                expected = induced_by_fiber(N, pi)
            except LiftMapError as e:
                with pytest.raises(LiftMapError) as got:
                    direct_induced(N, pi)
                assert (str(got.value), got.value.rel, got.value.coords, got.value.image) == (
                    str(e), e.rel, e.coords, e.image)
                outcomes["refused"] += 1
            else:
                assert direct_induced(N, pi) == expected
                outcomes["induced"] += 1
    assert min(outcomes.values()) > 100, outcomes


@pytest.mark.hashseed
def test_certificate_read_offs_equal_their_provenance_forms(corpus):
    # the limit copies, the sort table, the restriction to the base copy and
    # the continuity witness of single elements, pairs, none and all
    for N in _kernel_lifts(corpus):
        S, M = N.structure, N.source
        for rel, _ in M.sig.relations:
            assert limit_elements(N, rel) == limit_elements_by_provenance(N, rel)
        assert list(N.sorts.items()) == list(_sorts_from_provenance(N).items())
        for g in (Permutation(tuple(M.domain)), *automorphism_group(M).generators):
            pihat = direct_induced(N, g)
            assert _restrict_automorphism(N, pihat) == restricted_by_element(N, pihat) == g
        supports = [(), tuple(S.domain), *zip(S.domain), *zip(S.domain[::3], S.domain[1::3])]
        for B in supports:
            assert continuity_witness(N, B) == witness_by_provenance(N, B), B
        assert N.supports == tuple(witness_by_provenance(N, (b,)) for b in S.domain)


def test_projection_inverts_induction(corpus):
    for _, M in corpus[:20]:
        N = build_lift(M, LiftConfig(k=1))
        for pi in automorphism_group_brute(M):
            assert project_automorphism(N, direct_induced(N, pi)) == pi


def test_unchecked_projection_equals_the_checked_one(corpus):
    for _, M in corpus:
        for k in (1, 2):
            N = build_lift(M, LiftConfig(k=k))
            for g in automorphism_group(N.structure).elements():
                assert _restrict_automorphism(N, g) == project_automorphism(N, g)


def test_all_lift_automorphisms_are_induced(m_pair, m_edge):
    for M in (m_pair, m_edge):
        N = build_lift(M, LiftConfig(k=1))
        lift_members = automorphism_group_brute(N.structure)
        induced = {direct_induced(N, pi) for pi in automorphism_group_brute(M)}
        assert set(lift_members) == induced


def test_project_rejects_non_automorphism(m_pair):
    N = build_lift(m_pair, LiftConfig(k=1))
    bad = Permutation((0, 1, 2, 4, 3))  # swaps the two fibers' copies only
    assert not is_automorphism(N.structure, bad)
    with pytest.raises(LiftError, match="not an automorphism"):
        project_automorphism(N, bad)


def test_projection_raises_its_internal_errors_when_the_lift_check_is_wrong(m_edge, monkeypatch):
    # no lift automorphism moves the base copy or restricts to a map that
    # is not in Aut(M); only a wrong lift check can hand one over
    import stablelift.lifting as lifting

    N = build_lift(m_edge, LiftConfig(k=1))
    original = lifting.is_automorphism
    monkeypatch.setattr(lifting, "is_automorphism", lambda S, g: S is N.structure or original(S, g))
    rest = tuple(range(3, N.structure.size))
    cases = [
        ((1, 0, 2, *rest), "automorphism does not preserve the base copy (internal error)"),
        ((0, 2, 1, *rest), "projection is not an automorphism of the source (internal error)"),
    ]
    for images, message in cases:
        with pytest.raises(LiftError) as e:
            project_automorphism(N, Permutation(images))
        assert str(e.value) == message


def test_generate_scheme_raises_its_internal_error_when_the_sorts_differ(m_edge, monkeypatch):
    # generate_scheme reads the companion's stored partition, which build_lift
    # sorted already, so only a sort_partition that lists other blocks, met
    # when the partition is first built, reaches the check
    N = build_lift(m_edge, LiftConfig(k=1))
    original = formulas.sort_partition
    monkeypatch.setattr(formulas, "sort_partition", lambda S: dict(reversed(original(S).items())))
    with pytest.raises(LiftError) as e:
        generate_scheme(N)
    assert str(e.value) == "companion sorts differ from the lift's sorts (internal error)"


def test_lift_symbols_stay_distinct_under_adversarial_relation_names():
    # relation names shaped like the lift's own symbols, and indices that
    # share digits, never make two lift symbols agree: every lift builds
    rng = random.Random(5102)
    names = ["a", "a_1", "a_10", "fiber_a", "samefiber_a", "proj_a_0", "copy_a_1",
             "base", "anchor"]
    for _ in range(40):
        chosen = rng.sample(names, rng.randint(1, len(names)))
        sig = Signature(relations=tuple((name, rng.randint(1, 12)) for name in chosen))
        # on two points only relations of arity 1 and 2 have fibers
        held = {name: [(0, 1)[:n]] for name, n in sig.relations if n <= 2}
        M = Structure(sig=sig, size=2, relations=held)
        for k in (1, 2, 11):
            S = build_lift(M, LiftConfig(k=k)).structure
            symbols = [n for n, _ in S.sig.relations] + [*S.sig.functions, *S.sig.constants]
            count = 2 + sum(2 + n + k for _, n in sig.relations)  # base, anchor and per relation
            assert len(set(symbols)) == len(symbols) == count


def test_order_transfer_under_both_fiber_flags(corpus):
    for _, M in corpus[:10]:
        for include in (False, True):
            N = build_lift(M, LiftConfig(k=1, include_repetition_tuples=include))
            assert automorphism_group(N.structure).order() == automorphism_group(M).order()


# -- scheme generation ---------------------------------------------------------------------


def test_generated_sort_widths(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    scheme = generate_scheme(N)
    widths = sorted(s.width for s in scheme.sorts)
    # anchor 2, base 1, copy-0 sort 2, limit sort 3 under canonical padding
    assert widths == [1, 2, 2, 3]


def test_base_sort_quotient_matches_domain(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    scheme = generate_scheme(N)
    base_sort = next(s for s in scheme.sorts if s.width == 1)
    classes = definable_quotient(m_edge, base_sort.domain_formula, base_sort.equiv_formula)
    assert len(classes) == m_edge.size


def test_limit_sort_quotient_matches_relation(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    scheme = generate_scheme(N)
    limit_sort = next(s for s in scheme.sorts if s.width == 3)
    classes = definable_quotient(m_edge, limit_sort.domain_formula, limit_sort.equiv_formula)
    assert len(classes) == 1  # one relation tuple


def test_scheme_validates_on_corpus_sample(corpus):
    for _, M in corpus[60:69]:
        N = build_lift(M, LiftConfig(k=1))
        scheme = generate_scheme(N)
        companion = relational_companion(N.structure)
        report = validate_scheme(M, companion, scheme)
        assert report.passed, (M, report.failures())


def test_scheme_validates_with_repetition_tuples(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1, include_repetition_tuples=True))
    scheme = generate_scheme(N)
    companion = relational_companion(N.structure)
    report = validate_scheme(m_edge, companion, scheme)
    assert report.passed, report.failures()


def test_scheme_validates_with_repetition_tuples_size_three():
    M = digraph(3, [(0, 1), (1, 0), (1, 2)])
    N = build_lift(M, LiftConfig(k=1, include_repetition_tuples=True))
    scheme = generate_scheme(N)
    report = validate_scheme(M, relational_companion(N.structure), scheme)
    assert report.passed, report.failures()


def _mixed_structure():
    sig = Signature(relations=(("mark", 1), ("edge", 2)))
    return Structure(
        sig=sig,
        size=3,
        relations={"mark": ((0,), (1,)), "edge": ((0, 1),)},
        repetition_free=True,
    )


def _ternary_structure():
    sig = Signature(relations=(("tri", 3),))
    return Structure(sig=sig, size=3, relations={"tri": ((0, 1, 2),)})


def _two_binary_structure():
    sig = Signature(relations=(("red", 2), ("blue", 2)))
    return Structure(
        sig=sig,
        size=3,
        relations={"red": ((0, 1), (1, 0)), "blue": ((1, 2),)},
    )


def _random_relational_structure(seed):
    """A seeded random structure on three elements with one to three
    relations, one of arity seed % 3 + 1 and the others of arity 1-3,
    repetition-free for even seeds.  Each relation holds a random share of
    the tuples it may hold, closed under one random permutation, so that
    Aut(M) is often nontrivial."""
    rng = random.Random(seed)
    repetition_free = seed % 2 == 0
    sym = rng.choice([(0, 1, 2), (1, 0, 2), (1, 2, 0)])
    arities = [seed % 3 + 1] + [rng.randint(1, 3) for _ in range(rng.randint(0, 2))]
    relations = {}
    for i, arity in enumerate(arities):
        density = rng.uniform(0.2, 0.6)
        held = {
            t
            for t in itertools.product(range(3), repeat=arity)
            if (len(set(t)) == arity or not repetition_free) and rng.random() < density
        }
        for _ in range(2):
            held |= {tuple(sym[x] for x in t) for t in held}
        relations[f"r{i}"] = sorted(held)
    sig = Signature(relations=tuple((f"r{i}", arity) for i, arity in enumerate(arities)))
    return Structure(sig=sig, size=3, relations=relations, repetition_free=repetition_free)


@pytest.mark.parametrize(
    "make",
    [_mixed_structure, _ternary_structure, _two_binary_structure]
    + [
        pytest.param(functools.partial(_random_relational_structure, seed), id=f"random{seed}")
        for seed in range(8)
    ],
)
def test_mixed_signatures_full_pipeline(make):
    M = make()
    GM = automorphism_group(M)
    assert GM.elements() == automorphism_group_brute(M)
    for k in (1, 2):
        N = build_lift(M, LiftConfig(k=k))
        GN = automorphism_group(N.structure)
        # element by element against the oracle, which shares no code with
        # the search
        assert [g.images for g in GN.elements()] == automorphisms(N.structure)
        assert GN.order() == GM.order()
        for g in GM.generators:
            assert project_automorphism(N, direct_induced(N, g)) == g
        for rel, _ in M.sig.relations:
            coords = {N.provenance[e].coords for e in limit_elements(N, rel)}
            assert coords == set(M.relation_sets[rel])
        scheme = generate_scheme(N)
        report = validate_scheme(M, relational_companion(N.structure), scheme)
        assert report.passed, (k, report.failures())
        assert searched_decomposition(N, (), group_M=GM, group_N=GN).passed


def test_unary_relation_lift_shape():
    sig = Signature(relations=(("mark", 1),))
    M = Structure(sig=sig, size=2, relations={"mark": ((0,),)})
    N = build_lift(M, LiftConfig(k=1))
    # anchor + 2 base + fibers over (0) [marked: 2 copies] and (1) [1 copy]
    assert N.structure.size == 6
    assert limit_elements(N, "mark") == (N.fibers["mark"][(0,)][LIMIT],)
    scheme = generate_scheme(N)
    report = validate_scheme(M, relational_companion(N.structure), scheme)
    assert report.passed, report.failures()


# -- sort table ------------------------------------------------------------------


def _sorts_from_provenance(N):
    """The sort table read element by element off the provenance: anchor,
    base, or fiber_R[i] for copy i of R's fibers ("limit" for the limit
    copy), sorts in order of first element."""
    blocks = {}
    for e, p in enumerate(N.provenance):
        if isinstance(p, Anchor):
            label = "anchor"
        elif isinstance(p, BaseElem):
            label = "base"
        else:
            label = f"fiber_{p.rel}[{'limit' if p.copy == LIMIT else p.copy}]"
        blocks.setdefault(label, []).append(e)
    return {label: tuple(b) for label, b in blocks.items()}


@pytest.mark.hashseed
def test_sort_table_matches_provenance_and_companion(corpus):
    lifts = [build_lift(M, LiftConfig(k=k)) for _, M in corpus for k in (1, 2, 3)]
    lifts += [
        build_lift(M, LiftConfig(k=k, include_repetition_tuples=True))
        for _, M in corpus[::12]
        for k in (1, 2)
    ]
    mixed = [_mixed_structure(), _ternary_structure(), _two_binary_structure()]
    lifts += [build_lift(M, LiftConfig(k=2)) for M in mixed]
    lifts += [build_lift(digraph(0, []), LiftConfig(k=k)) for k in (1, 2)]
    for N in lifts:
        expected = _sorts_from_provenance(N)
        # same labels, same blocks, same order
        assert list(N.sorts.items()) == list(expected.items())
        companion_blocks = sort_partition(relational_companion(N.structure)).values()
        assert sorted(N.sorts.values()) == sorted(companion_blocks)
    assert fiber_sort("edge", 0) == "fiber_edge[0]"
    assert fiber_sort("edge", LIMIT) == "fiber_edge[limit]"
    assert build_lift(digraph(0, []), LiftConfig(k=1)).sorts == {"anchor": (0,)}


def _assert_provenance_is_the_fiber_index(N):
    """N.provenance lists the anchor, the base copy, then FiberElem(rel, i,
    coords) at e exactly when N.fibers[rel][coords][i] == e."""
    head = (Anchor(), *map(BaseElem, N.source.domain))
    assert N.provenance[:len(head)] == head
    assert len(N.provenance) == N.structure.size
    fibers = {
        e: FiberElem(rel, i, coords)
        for rel, table in N.fibers.items()
        for coords, copies in table.items()
        for i, e in copies.items()
    }
    assert fibers == {e: p for e, p in enumerate(N.provenance) if e >= len(head)}


def test_fiber_index_matches_provenance_and_limit_sorts(corpus):
    # N.fibers is the lift's one fiber index: flattened, it is exactly the
    # fiber provenance, and its limit copies are the limit block of N.sorts
    lifts = [build_lift(M, LiftConfig(k=k)) for _, M in corpus for k in (1, 2, 3)]
    lifts += [
        build_lift(M, LiftConfig(k=k, include_repetition_tuples=True))
        for _, M in corpus[::12]
        for k in (1, 2)
    ]
    mixed = [_mixed_structure(), _ternary_structure(), _two_binary_structure()]
    lifts += [build_lift(M, LiftConfig(k=2)) for M in mixed]
    lifts += [build_lift(digraph(0, []), LiftConfig(k=k)) for k in (1, 2)]
    for N in lifts:
        _assert_provenance_is_the_fiber_index(N)
        for rel, _ in N.source.sig.relations:
            expected = N.sorts.get(fiber_sort(rel, LIMIT), ())
            assert limit_elements(N, rel) == expected


# -- the generated structures against the checked constructor --------------------


def _assert_as_if_checked(S):
    """S, which the library generated without checks, equals itself rebuilt
    through Structure(...), which checks every tuple: the same fields, the
    same key order (the signature's) and the same tuple sets."""
    R = Structure(sig=S.sig, size=S.size, relations=S.relations, functions=S.functions,
                  constants=S.constants, repetition_free=S.repetition_free)
    assert S == R and S.repetition_free is R.repetition_free is False
    for name in ("relations", "functions", "constants", "relation_sets"):
        assert list(getattr(S, name)) == list(getattr(R, name)), name
    # equality leaves relation_sets out
    assert S.relation_sets == R.relation_sets


def test_generated_lifts_and_companions_equal_the_checked_construction(
    corpus, random_structures
):
    # the ternary symbol comes before the binary one in the signature, but
    # build_lift fills its tables by arity
    ternary_first = Structure(
        sig=Signature(relations=(("T", 3), ("E", 2))),
        size=4,
        relations={"T": ((0, 1, 2), (3, 2, 1)), "E": ((0, 1), (2, 0))},
    )
    sources = [M for _, M in corpus] + [digraph(4, edges) for edges in digraph_classes(4)]
    sources += [ternary_first, digraph(0, [])]
    configs = [LiftConfig(k=k, include_repetition_tuples=r) for k in (1, 2, 3) for r in (False, True)]
    lifts = [build_lift(M, config) for M in sources for config in configs]
    # companions of structures with a function, a constant and a ternary
    # relation; they are not repetition-free, so the flag changes nothing
    companions = [relational_companion(M) for M in random_structures]
    lifts += [build_lift(C, LiftConfig(k=k)) for C in companions if C.size <= 4 for k in (1, 2, 3)]
    assert len(lifts) > 1800
    for C in companions:
        _assert_as_if_checked(C)
    for N in lifts:
        _assert_as_if_checked(N.structure)
        _assert_as_if_checked(N.companion)
        _assert_provenance_is_the_fiber_index(N)


def test_explicit_padding_scheme_still_validates(m_edge):
    padding = PaddingAssignment({("edge", 0): 3, ("edge", LIMIT): 4})
    N = build_lift(m_edge, LiftConfig(k=1, padding=padding))
    assert N.padding.width(m_edge.sig, "edge", 0) == 5
    scheme = generate_scheme(N)
    report = validate_scheme(m_edge, relational_companion(N.structure), scheme)
    assert report.passed, report.failures()


def test_scheme_and_transfer_on_size_four():
    # a spot check beyond the exhaustive corpus
    for M in (
        digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        digraph(4, [(0, 1), (1, 0), (2, 3)]),
    ):
        N = build_lift(M, LiftConfig(k=1))
        assert automorphism_group(N.structure).order() == automorphism_group(M).order()
        scheme = generate_scheme(N)
        report = validate_scheme(M, relational_companion(N.structure), scheme)
        assert report.passed, report.failures()


@pytest.mark.hashseed
def test_equal_translations_are_one_object(corpus):
    for _, M in corpus:
        for k in (1, 2, 3):
            scheme = generate_scheme(build_lift(M, LiftConfig(k=k)))
            first = {}
            for phi in scheme.translations.values():
                assert first.setdefault(phi, phi) is phi
            assert len(first) < len(scheme.translations)


@pytest.mark.hashseed
def test_generation_equals_the_per_tuple_reference(corpus):
    # the row-wise generation emits the per-tuple reference's translations
    # in the same order, with one formula object per distinct recipe: the
    # corpus at k = 1..3, fibers over repeated entries, explicit paddings
    # and mixed signatures
    rng = random.Random(5103)
    configs = [(M, LiftConfig(k=k)) for _, M in corpus for k in (1, 2, 3)]
    others = [*_PINNED_STRUCTURES.values(), _mixed_structure(), _ternary_structure(),
              _two_binary_structure(), *map(_random_relational_structure, range(8))]
    for M in others:
        for k in (1, 2, 3):
            configs += [
                (M, LiftConfig(k=k)),
                (M, LiftConfig(k=k, include_repetition_tuples=True)),
                (M, LiftConfig(k=k, padding=_random_padding(rng, M.sig, k, 40))),
            ]
    seen = Counter()
    for M, config in configs:
        N = build_lift(M, config)
        scheme = generate_scheme(N)
        expected, recipes = generated_translations(N, scheme)
        assert list(scheme.translations) == list(expected), (M, config)
        assert scheme.translations == expected, (M, config)
        shared = {}
        for at, phi in scheme.translations.items():
            assert shared.setdefault(recipes[at], phi) is phi, (M, config, at)
        assert len({*map(id, scheme.translations.values())}) == len(shared), (M, config)
        seen.update(type(core).__name__ for _, core in recipes.values())
    assert seen["bool"] and seen["tuple"], seen


_TUE = Signature(relations=(("T", 3), ("E", 2), ("U", 1)))
_PINNED_STRUCTURES = {
    "repeating-2": Structure(
        sig=_TUE,
        size=2,
        relations={"T": [(0, 1, 0)], "E": [(0, 1)], "U": [(1,)]},
        repetition_free=False,
    ),
    "free-3": Structure(
        sig=_TUE,
        size=3,
        relations={"T": [(0, 1, 2)], "E": [(0, 1), (1, 2)], "U": [(0,)]},
        repetition_free=True,
    ),
}

# sha256 of the sorted-key JSON of each generated scheme; these reach
# proj_T_2, and copy_T_j for j >= 1, which no CLI digest covers
_PINNED_SCHEMES = {
    ("repeating-2", 1, False): "3c4727117ed37c22c05e1ed2cbfa2f216ca65a027134eae7d79099f21a1e2a23",
    ("repeating-2", 1, True): "3c4727117ed37c22c05e1ed2cbfa2f216ca65a027134eae7d79099f21a1e2a23",
    ("repeating-2", 2, False): "70664ee241ded150fd14a0b5d74e12ff8897304e78159bf1003ba135ef0a8ed2",
    ("repeating-2", 2, True): "70664ee241ded150fd14a0b5d74e12ff8897304e78159bf1003ba135ef0a8ed2",
    ("repeating-2", 3, False): "4b09b8a93a908c8a7b0c700d9e63d9a5514f2f8b9015c9f31802b6536f947ef4",
    ("repeating-2", 3, True): "4b09b8a93a908c8a7b0c700d9e63d9a5514f2f8b9015c9f31802b6536f947ef4",
    ("free-3", 1, False): "b86dee60f6e208b9420b56d3840983ca1de61ac54f03571e78fbd4e5f3bb3bf6",
    ("free-3", 1, True): "fc4ebd12fbf952c43cb6e7d6e82afd1a3bc2512d694caca4d0a5d4fcd35e7fdd",
    ("free-3", 2, False): "a41f4c8ac7fd47981619905aeb0f6e6967eb15c151da38b4ae9ce2a37b13af76",
    ("free-3", 2, True): "589c89a531aead4963f2a15efbba435a7d5274012619ab69618652ab7ccde3d6",
    ("free-3", 3, False): "e59b221cfa39b0373c5d53cf0abb1a92b521a49d1e07d1a3cc353de6f70ac86f",
    ("free-3", 3, True): "895f52f1f42fdeee30d2b74a44f35b8ceb494cf8a0542c60e569083532ba8c79",
}


@pytest.mark.hashseed
@pytest.mark.parametrize("name,k,repetitions", sorted(_PINNED_SCHEMES))
def test_generated_scheme_is_pinned(name, k, repetitions):
    M = _PINNED_STRUCTURES[name]
    N = build_lift(M, LiftConfig(k=k, include_repetition_tuples=repetitions))
    blob = json.dumps(scheme_to_json_dict(generate_scheme(N)), sort_keys=True)
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert digest == _PINNED_SCHEMES[(name, k, repetitions)]


def _random_padding(rng, sig, k, most):
    """Pairwise distinct random explicit widths, from the greatest arity (at
    least 2) up to ``most``."""
    triples = padding_triples(sig, k)
    least = max(2, *(arity for _, arity in sig.relations))
    widths = rng.sample(range(least, most + 1), len(triples))
    return PaddingAssignment(
        {(rel, i): m - sig.relation_arity(rel) for (rel, i), m in zip(triples, widths)}
    )


def _nodes(x) -> int:
    """The tree nodes of a formula: each formula and term object once."""
    if isinstance(x, tuple):
        return sum(map(_nodes, x))
    if dataclasses.is_dataclass(x):
        return 1 + sum(_nodes(getattr(x, f.name)) for f in dataclasses.fields(x))
    return 0


def _scheme_formulas(scheme):
    """(label, formula) for every formula of a scheme: each sort's domain
    and equivalence formula, then each translation."""
    for s in scheme.sorts:
        yield ("domain", s.key), s.domain_formula
        yield ("equivalence", s.key), s.equiv_formula
    for (rel, keys), phi in scheme.translations.items():
        yield ("translation", rel, keys), phi


@pytest.mark.hashseed
def test_generated_formulas_do_not_grow_with_the_padding(corpus):
    # padding is one node, so a formula of a generated scheme has as many
    # tree nodes at explicit widths up to 2,000 as at the canonical widths
    rng = random.Random(3701)
    cases = [(M, False) for _, M in corpus[::6]]
    cases += [(M, repetitions) for M in _PINNED_STRUCTURES.values() for repetitions in (False, True)]
    for M, repetitions in cases:
        for k in (1, 2, 3):
            config = LiftConfig(k=k, include_repetition_tuples=repetitions)
            narrow = dict(_scheme_formulas(generate_scheme(build_lift(M, config))))
            wide_config = dataclasses.replace(config, padding=_random_padding(rng, M.sig, k, 2000))
            wide = dict(_scheme_formulas(generate_scheme(build_lift(M, wide_config))))
            assert narrow.keys() == wide.keys()
            for label, phi in narrow.items():
                assert _nodes(wide[label]) == _nodes(phi), (M, k, label)


def _differential_formulas():
    """Every distinct formula of the generated schemes, each with a host
    structure of its signature: the corpus at k = 1..3, the pinned
    structures with and without fibers over repeated entries, and both
    with random explicit widths; with each translation's negation, as
    negate_translation makes it, and each sort's weakened equivalence."""
    rng = random.Random(3702)
    cases = [(M, k, {}) for _, M in standard_corpus(3) for k in (1, 2, 3)]
    for M in _PINNED_STRUCTURES.values():
        cases += [(M, k, {"include_repetition_tuples": rep}) for k in (1, 2, 3) for rep in (False, True)]
    cases += [
        (M, k, {"padding": _random_padding(rng, M.sig, k, 12)})
        for M in [*_PINNED_STRUCTURES.values(), *(M for _, M in standard_corpus(3)[::5])]
        for k in (1, 2)
    ]
    found = {}
    for M, k, config in cases:
        scheme = generate_scheme(build_lift(M, LiftConfig(k=k, **config)))
        for _, phi in _scheme_formulas(scheme):
            found.setdefault(phi, M)
        for phi in scheme.translations.values():
            found.setdefault(Not(phi), M)
        for i in range(len(scheme.sorts)):
            found.setdefault(weaken_equivalence(scheme, i).sorts[i].equiv_formula, M)
    return found


def test_padded_formulas_read_as_their_expanded_conjunctions():
    # every reader of a Padded node agrees with the conjunction it stands
    # for, also under ~, inside & and inside |, and its text parses back
    # to that conjunction
    rng = random.Random(3703)
    found = _differential_formulas()
    assert sum(isinstance(phi, Padded) for phi in found) > 100
    pattern = interpretation._equality_pattern

    def value(M, phi, v):
        try:
            return eval_formula(M, phi, v)
        except FormulaError as e:
            return str(e)

    for node, M in found.items():
        for phi in (node, Not(node), And((node, node)), Or((node, node))):
            reference = expanded(phi)
            assert "Padded" not in repr(reference)
            assert free_variables(phi) == free_variables(reference)
            assert inert_variables(phi) == inert_variables(reference)
            assert pattern(phi) == pattern(reference)
            text = format_formula(phi)
            assert text == format_formula(reference)
            assert parse_formula(text, M.sig) == reference
        width = len(free_variables(node))
        for _ in range(4):
            v = {q: rng.randrange(M.size) for q in range(width)}
            assert value(M, node, v) == value(M, expanded(node), v)
            for q in rng.sample(range(width), rng.randint(1, min(width, 3))):
                del v[q]
            assert value(M, node, v) == value(M, expanded(node), v)
            assert value(M, node, v) == f"uncovered free variable x{min(set(range(width)) - v.keys())}"


# -- continuity witnesses ---------------------------------------------------------------------


def test_continuity_witness_examples(m_pair):
    N = build_lift(m_pair, LiftConfig(k=1))
    assert continuity_witness(N, [N.structure.constants["anchor"]]) == frozenset()
    assert continuity_witness(N, [N.base_id(1)]) == frozenset({1})
    copy0 = N.fibers["edge"][(0, 1)][0]
    assert continuity_witness(N, [copy0]) == frozenset({0, 1})


@pytest.mark.parametrize("B,shown", [([1.5], "1.5"), ([True], "True"), ([0, 2.0], "2.0"),
                                     ([False, 1], "False"), (["1"], "'1'")])
def test_continuity_witness_refuses_elements_that_are_not_int(m_pair, B, shown):
    # True and 2.0 compare equal to elements, and 1.5 indexes nothing
    N = build_lift(m_pair, LiftConfig(k=1))
    with pytest.raises(LiftError) as e:
        continuity_witness(N, B)
    assert str(e.value) == f"element {shown} is not an int"


@pytest.mark.parametrize("b", [-1, 5, 99])
def test_continuity_witness_refuses_elements_outside_the_lift(m_pair, b):
    N = build_lift(m_pair, LiftConfig(k=1))
    assert N.structure.size == 5
    with pytest.raises(LiftError) as e:
        continuity_witness(N, [0, b])
    assert str(e.value) == f"element {b} outside the lift domain"


def test_continuity_containment_brute(m_pair, m_triple):
    # fixing the witness set forces the induced automorphism to fix B
    for M in (m_pair, m_triple):
        N = build_lift(M, LiftConfig(k=1))
        members = automorphism_group_brute(M)
        for size in (0, 1, 2):
            for B in itertools.combinations(range(N.structure.size), size):
                A = continuity_witness(N, B)
                for pi in members:
                    if all(pi(a) == a for a in A):
                        pihat = direct_induced(N, pi)
                        assert all(pihat(b) == b for b in B)


def test_projection_continuity_direction(m_triple):
    # fixing base elements pointwise projects into the matching stabilizer
    N = build_lift(m_triple, LiftConfig(k=1))
    members_N = automorphism_group(N.structure).elements()
    assert len(members_N) == 6
    for a in m_triple.domain:
        for pihat in members_N:
            if pihat(N.base_id(a)) == N.base_id(a):
                assert project_automorphism(N, pihat)(a) == a


# -- monotone truncation ------------------------------------------------------------------------


def test_truncation_embedding_preserves_atomic_facts(corpus):
    for _, M in corpus[:8]:
        k = 1
        N1 = build_lift(M, LiftConfig(k=k))
        N2 = build_lift(M, LiftConfig(k=k + 1))
        element = {p: e for e, p in enumerate(N2.provenance)}
        embed = {e: element[p] for e, p in enumerate(N1.provenance)}
        S1, S2 = N1.structure, N2.structure
        for name, _ in S1.sig.relations:
            for t in S1.relations[name]:
                assert tuple(embed[x] for x in t) in S2.relation_sets[name]
            # and conversely for embedded tuples
            image = set(embed.values())
            inv = {v: e for e, v in embed.items()}
            for t in S2.relations[name]:
                if all(x in image for x in t):
                    assert tuple(inv[x] for x in t) in S1.relation_sets[name]
        for f in S1.sig.functions:
            for x in range(S1.size):
                assert embed[S1.functions[f][x]] == S2.functions[f][embed[x]]
        assert embed[S1.constants["anchor"]] == S2.constants["anchor"]
