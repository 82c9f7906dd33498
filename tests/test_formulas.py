import itertools

import pytest
from hypothesis import given, settings, strategies as st

from formula_parser import ParseError, parse_formula
from references import atomic_type, automorphism_group_brute, eval_row, standard_corpus
from stablelift.corpus import digraph
from stablelift.formulas import (
    And,
    Apply,
    AtomicType,
    Const,
    Equal,
    Exists,
    FormulaError,
    Not,
    Or,
    Padded,
    Rel,
    Var,
    atomic_formula_basis,
    definable_set,
    eval_formula,
    format_formula,
    free_variables,
    group_by_columns,
    sort_blocks,
    sort_partition,
)
from stablelift.lifting import LiftConfig, build_lift
from stablelift.structures import Signature, Structure

SIG = Signature(relations=(("R", 2), ("U", 1)), functions=("f",), constants=("c",))


# -- parsing -----------------------------------------------------------------


def test_parse_relation_atom():
    assert parse_formula("R(x0,x1)", SIG) == Rel("R", (Var(0), Var(1)))


def test_parse_reflexive_equation():
    assert parse_formula("x0 = x0", SIG) == Equal(Var(0), Var(0))


def test_parse_error_position():
    with pytest.raises(ParseError) as e:
        parse_formula("R(x0,", SIG)
    assert e.value.position == 6


def test_parse_function_and_constant_terms():
    assert parse_formula("f(x0) = c", SIG) == Equal(Apply("f", Var(0)), Const("c"))
    assert parse_formula("U(f(c))", SIG) == Rel("U", (Apply("f", Const("c")),))


def test_parse_precedence_and_connectives():
    phi = parse_formula("U(x0) & U(x1) | ~U(x2) & x0 = x1", SIG)
    assert isinstance(phi, Or)
    assert all(isinstance(p, And) for p in phi.parts)
    assert phi.parts[1].parts[0] == Not(Rel("U", (Var(2),)))


def test_parse_exists_swallows_rest():
    phi = parse_formula("U(x0) | exists x1. R(x0,x1) | U(x1)", SIG)
    assert isinstance(phi, Or)
    assert len(phi.parts) == 2
    assert isinstance(phi.parts[1], Exists)
    assert isinstance(phi.parts[1].body, Or)


def test_parse_rejects_unknown_symbol_and_bad_arity():
    with pytest.raises(ParseError, match="unknown symbol"):
        parse_formula("Q(x0)", SIG)
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_formula("R(x0)", SIG)
    with pytest.raises(ParseError, match="trailing"):
        parse_formula("x0 = x0 )", SIG)


def _terms(depth):
    base = st.one_of(
        st.integers(min_value=0, max_value=3).map(Var),
        st.just(Const("c")),
    )
    if depth == 0:
        return base
    return st.one_of(base, _terms(depth - 1).map(lambda t: Apply("f", t)))


def _formulas():
    atoms = st.one_of(
        st.tuples(_terms(1), _terms(1)).map(lambda p: Equal(*p)),
        st.tuples(_terms(1), _terms(1)).map(lambda p: Rel("R", p)),
        _terms(1).map(lambda t: Rel("U", (t,))),
    )
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=2, max_size=3).map(lambda ps: And(tuple(ps))),
            st.lists(children, min_size=2, max_size=3).map(lambda ps: Or(tuple(ps))),
            st.tuples(st.integers(min_value=0, max_value=3), children).map(
                lambda p: Exists(*p)
            ),
        ),
        max_leaves=12,
    )


@given(_formulas())
@settings(max_examples=300)
def test_parse_print_round_trip(phi):
    assert parse_formula(format_formula(phi), SIG) == phi


_TOKENS = ["x0", "x1", "x12", "R", "U", "f", "c", "exists", "(", ")", "=", ",", ".", "&", "|", "~", " "]


@given(st.text(max_size=30) | st.lists(st.sampled_from(_TOKENS), max_size=20).map("".join))
@settings(max_examples=500)
def test_parse_arbitrary_text_returns_a_formula_or_a_formula_error(text):
    try:
        phi = parse_formula(text, SIG)
    except FormulaError:  # ParseError included
        return
    assert isinstance(phi, (Equal, Rel, Not, And, Or, Exists))
    assert parse_formula(format_formula(phi), SIG) == phi


@pytest.mark.parametrize(
    "text, message",
    [
        ("(" * 3000 + "x0 = x0" + ")" * 3000, "nested too deeply"),
        ("~" * 3000 + "U(x0)", "nested too deeply"),
        ("U(" + "f(" * 3000 + "x0" + ")" * 3001, "nested too deeply"),
        ("x" + "9" * 5000 + " = x0", "variable index too large"),
        ("exists x" + "9" * 5000 + ". U(x0)", "variable index too large"),
    ],
    ids=["parentheses", "negations", "terms", "variable", "bound-variable"],
)
def test_parse_rejects_input_past_the_interpreter_limits(text, message):
    with pytest.raises(ParseError, match=message):
        parse_formula(text, SIG)


def test_empty_connectives_rejected():
    with pytest.raises(FormulaError):
        And(())
    with pytest.raises(FormulaError):
        Or(())


def test_padding_and_the_readers_refuse_what_is_no_formula():
    # a Padded node needs a positive width, and the readers of a tree
    # refuse a node of no formula type, by exact message
    for width in (0, -1):
        with pytest.raises(FormulaError, match="^padding width must be positive$"):
            Padded(width)
    for read in (free_variables, format_formula):
        with pytest.raises(FormulaError, match="^not a formula: 'x'$"):
            read("x")


# -- evaluation --------------------------------------------------------------


def test_eval_relation(m_edge):
    phi = parse_formula("edge(x0,x1)", m_edge.sig)
    assert eval_formula(m_edge, phi, [(0, 1), (1, 0)]) == [True, False]


def test_eval_exists(m_edge):
    phi = parse_formula("exists x1. edge(x0,x1)", m_edge.sig)
    assert eval_formula(m_edge, phi, [(0,), (1,)]) == [True, False]
    # a closed formula is decided at the one empty row
    closed = parse_formula("exists x0. exists x1. edge(x0,x1)", m_edge.sig)
    assert eval_formula(m_edge, closed, [()]) == [True]
    assert eval_formula(m_edge, Not(closed), [()]) == [False]


def test_eval_uncovered_variable(m_edge):
    phi = parse_formula("edge(x0,x1)", m_edge.sig)
    with pytest.raises(FormulaError, match="uncovered free variable"):
        eval_formula(m_edge, phi, [(0,)])
    # & and | stop at their first deciding part: a part past it is never
    # reached, so it cannot raise
    for text, expected in (("~x0 = x0 & edge(x0,x1)", False), ("x0 = x0 | edge(x0,x1)", True)):
        assert eval_formula(m_edge, parse_formula(text, m_edge.sig), [(0,)]) == [expected]
    for text in ("x0 = x0 & edge(x0,x1)", "~x0 = x0 | edge(x0,x1)"):
        with pytest.raises(FormulaError, match="uncovered free variable x1"):
            eval_formula(m_edge, parse_formula(text, m_edge.sig), [(0,)])


def _outcome(evaluate):
    try:
        return evaluate()
    except FormulaError as e:
        return "FormulaError", str(e)


def _row_outcome(M, phi, rows):
    """The per-row walk over a batch: each row's truth, or the error of the
    first row that raises."""
    results = []
    for row in rows:
        try:
            results.append(eval_row(M, phi, dict(enumerate(row))))
        except FormulaError as e:
            return "FormulaError", str(e)
    return results


@st.composite
def _eval_structures(draw):
    """A structure of SIG with one to three elements: random tables for f,
    c, R and U."""
    n = draw(st.sampled_from([3, 2, 3, 1]))
    element = st.integers(min_value=0, max_value=n - 1)
    return Structure(
        SIG,
        n,
        {
            "R": sorted(draw(st.sets(st.tuples(element, element), max_size=n * n))),
            "U": sorted(draw(st.sets(st.tuples(element), max_size=n))),
        },
        {"f": tuple(draw(st.lists(element, min_size=n, max_size=n)))},
        {"c": draw(element)},
        repetition_free=False,
    )


def _eval_terms():
    """Mostly the variables x0..x2, the constant c and f applied to terms;
    now and then x4, which no row covers, the unknown constant d or the
    unknown function g."""
    base = st.sampled_from([Var(0), Var(1), Var(2), Const("c")] * 8 + [Var(4), Const("d")])
    return st.recursive(
        base, lambda inner: st.tuples(st.sampled_from("f" * 9 + "g"), inner).map(lambda p: Apply(*p)), max_leaves=3
    )


def _eval_formulas():
    """Every node kind over _eval_terms; now and then an unknown relation
    symbol S, a wrong arity, or a term where a formula belongs."""
    t = _eval_terms()
    equal = st.tuples(t, t).map(lambda p: Equal(*p))
    atoms = st.one_of(
        equal,
        equal,
        st.tuples(t, t).map(lambda p: Rel("R", p)),
        t.map(lambda x: Rel("U", (x,))),
        st.sampled_from([Rel("S", (Var(0),)), Rel("R", (Var(1),)), Var(0), Padded(4), Padded(2), Padded(1)]),
    )
    trees = st.recursive(
        atoms,
        lambda children: st.one_of(
            children.map(Not),
            st.lists(children, min_size=2, max_size=3).map(lambda ps: And(tuple(ps))),
            st.lists(children, min_size=2, max_size=3).map(lambda ps: Or(tuple(ps))),
            st.tuples(st.integers(min_value=0, max_value=5), children).map(lambda p: Exists(*p)),
            st.tuples(st.integers(min_value=1, max_value=4), st.lists(children, max_size=2)).map(
                lambda p: Padded(p[0], tuple(p[1]))
            ),
        ),
        max_leaves=10,
    )
    # (guard & phi) | psi: rows split on the guard, so that rows of one batch
    # reach different atoms, and often different bad ones
    guards = st.sampled_from([Equal(Var(0), Var(1)), Rel("R", (Var(0), Var(1))), Rel("U", (Var(1),))])
    split = st.tuples(guards, trees, trees).map(lambda p: Or((And(p[:2]), p[2])))
    return st.one_of(split, trees)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_batch_evaluator_equals_the_row_walk(data):
    # a batch's truths, or its error, are those of walking row by row, where
    # the batch's error is that of the least row that reaches a bad atom
    M, phi = data.draw(_eval_structures()), data.draw(_eval_formulas())
    width = data.draw(st.sampled_from([3, 2, 4, 3, 0]))
    rows = data.draw(st.permutations(list(itertools.product(M.domain, repeat=width))))
    assert _outcome(lambda: eval_formula(M, phi, rows)) == _row_outcome(M, phi, rows)


def test_a_batch_raises_the_error_of_its_least_bad_row(m_edge):
    # rows with x0 = x1 reach the unknown S, the others the unknown T, and
    # neither reaches the other's atom; rows that reach none decide
    phi = Or((And((Equal(Var(0), Var(1)), Rel("S", (Var(0),)))), Rel("T", (Var(1),))))
    for rows, error in (([(0, 0), (0, 1)], "'S'"), ([(0, 1), (0, 0)], "'T'")):
        with pytest.raises(FormulaError, match=f"^unknown relation symbol {error}$"):
            eval_formula(m_edge, phi, rows)
        assert _row_outcome(m_edge, phi, rows) == ("FormulaError", f"unknown relation symbol {error}")
    guarded = Or((Equal(Var(0), Var(0)), phi))
    assert eval_formula(m_edge, guarded, [(0, 0), (0, 1)]) == [True, True]
    assert eval_formula(m_edge, phi, []) == []
    with pytest.raises(FormulaError, match="^batch rows differ in length$"):
        eval_formula(m_edge, phi, [(0,), (0, 1)])


def test_free_variables_reach_through_function_terms():
    phi = And((Equal(Apply("f", Var(2)), Const("c")), Exists(1, Rel("R", (Apply("f", Apply("f", Var(0))), Var(1))))))
    assert free_variables(phi) == {0, 2}
    assert free_variables(Padded(2, (phi,))) == {0, 1, 2}


def test_definable_set_examples(m_edge):
    sig = m_edge.sig
    assert definable_set(m_edge, parse_formula("edge(x0,x1)", sig)) == ((0, 1),)
    assert definable_set(m_edge, parse_formula("x0 = x0", sig)) == ((0,), (1,))
    assert definable_set(m_edge, parse_formula("x0 = x1 & edge(x0,x1)", sig)) == ()


def test_definable_set_gap_rejected(m_edge):
    phi = parse_formula("edge(x0,x2)", m_edge.sig)
    with pytest.raises(FormulaError, match="free-variable gap"):
        definable_set(m_edge, phi)


# -- atomic types and sorts ---------------------------------------------------


def test_anchor_type_contains_constant_equation(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    t = atomic_type(N.structure, N.structure.constants["anchor"])
    assert format_formula(Equal(Var(0), Const("anchor"))) in t
    base_t = atomic_type(N.structure, N.base_id(0))
    assert format_formula(Equal(Var(0), Const("anchor"))) not in base_t


def test_limit_type_has_no_copy_fixpoint(m_edge):
    from stablelift.lifting import LIMIT

    N = build_lift(m_edge, LiftConfig(k=1))
    fixpoint = Equal(Var(0), Apply("copy_edge_0", Var(0)))
    limit = N.fibers["edge"][(0, 1)][LIMIT]
    t = atomic_type(N.structure, limit)
    assert format_formula(Rel("fiber_edge", (Var(0),))) in t
    assert format_formula(Rel("samefiber_edge", (Var(0), Var(0)))) in t
    assert format_formula(fixpoint) not in t
    copy0 = N.fibers["edge"][(0, 1)][0]
    assert format_formula(fixpoint) in atomic_type(N.structure, copy0)


def test_sort_counts(m_edge, m_pair):
    # the bare source structures have a single sort
    assert len(sort_partition(m_edge)) == 1
    assert len(sort_partition(m_pair)) == 1
    # lift of the one-edge digraph: anchor, base, copy-0, limit
    assert len(sort_partition(build_lift(m_edge, LiftConfig(k=1)).structure)) == 4
    # lift of the bare pair at k=2: anchor, base, copy-0, copy-1 (no limits)
    assert len(sort_partition(build_lift(m_pair, LiftConfig(k=2)).structure)) == 4
    assert len(sort_partition(build_lift(m_pair, LiftConfig(k=1)).structure)) == 3


def test_sort_partition_blocks_disjoint_and_cover(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1)).structure
    blocks = list(sort_partition(N).values())
    flat = [e for b in blocks for e in b]
    assert sorted(flat) == list(N.domain)
    assert len(flat) == len(set(flat))


def test_sort_partition_matches_per_element_atomic_types(type_structures):
    # reference: one tree-walking atomic_type per element
    for M in type_structures:
        blocks: dict[AtomicType, list[int]] = {}
        for a in M.domain:
            blocks.setdefault(atomic_type(M, a), []).append(a)
        expected = [(t, tuple(b)) for t, b in blocks.items()]
        got = list(sort_partition(M).items())
        assert got == expected


@pytest.mark.hashseed
def test_sort_blocks_are_the_per_element_types_blocks(type_structures, monkeypatch):
    # the search root's blocks, in the order of least element, with no basis
    # formula built or printed
    from stablelift import formulas

    expected = []
    for M in type_structures:
        blocks: dict[AtomicType, list[int]] = {}
        for a in M.domain:
            blocks.setdefault(atomic_type(M, a), []).append(a)
        expected.append(list(blocks.values()))
    monkeypatch.setattr(formulas, "format_formula", None)
    monkeypatch.setattr(formulas, "Equal", None)
    monkeypatch.setattr(formulas, "Rel", None)
    assert [sort_blocks(M) for M in type_structures] == expected


@pytest.mark.hashseed
def test_sort_keys_are_ascending_distinct_printed_atoms(type_structures, corpus):
    # a key names a type by the printed atoms it satisfies, so two types
    # differ exactly when their keys do only if no two basis atoms print alike
    lifts = [build_lift(M, LiftConfig(k=3)).structure for _, M in corpus]
    structures = type_structures + lifts
    for sig in {M.sig for M in structures}:
        basis = atomic_formula_basis(sig)
        texts = [text for text, _ in basis]
        assert texts == [format_formula(phi) for _, phi in basis]
        assert len(set(texts)) == len(texts)
    for M in structures:
        for t in sort_partition(M):
            assert isinstance(t, tuple) and all(isinstance(atom, str) for atom in t)
            assert list(t) == sorted(t)


def test_group_by_columns_without_columns_keeps_every_element():
    assert group_by_columns(3, []) == {(): [0, 1, 2]}
    assert group_by_columns(0, []) == {}
    assert group_by_columns(4, [[1, 0, 1, 0], [True, True, True, False]]) == {
        (1, True): [0, 2],
        (0, True): [1],
        (0, False): [3],
    }


def test_atomic_type_ordering_is_canonical(m_edge):
    t = atomic_type(m_edge, 0)
    assert isinstance(t, tuple) and all(isinstance(atom, str) for atom in t)
    assert list(t) == sorted(t)


# -- automorphism invariance properties ----------------------------------------


def _formula_corpus(sig):
    texts = [
        "edge(x0,x1)",
        "x0 = x1",
        "exists x1. edge(x0,x1)",
        "exists x1. edge(x1,x0)",
        "~edge(x0,x1) & ~(x0 = x1)",
        "edge(x0,x1) | edge(x1,x0)",
        "exists x0. exists x1. edge(x0,x1)",
    ]
    return [parse_formula(t, sig) for t in texts]


@pytest.mark.parametrize("size", [2, 3, 4])
def test_eval_invariant_under_automorphisms(size):
    # every formula's truth is preserved when a valuation is pushed through
    # an automorphism
    corpus = [M for _, M in standard_corpus(3) if M.size == size] if size <= 3 else [
        digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        digraph(4, [(0, 1), (1, 0), (2, 3)]),
    ]
    for M in corpus[:12]:
        auts = automorphism_group_brute(M)
        for phi in _formula_corpus(M.sig):
            fv = sorted(free_variables(phi))
            assert fv == list(range(len(fv)))
            rows = list(itertools.product(M.domain, repeat=len(fv)))
            base = eval_formula(M, phi, rows)
            for pi in auts:
                assert eval_formula(M, phi, [pi.apply_tuple(t) for t in rows]) == base


def test_definable_set_is_union_of_orbits(corpus):
    for _, M in corpus[5:20]:
        auts = automorphism_group_brute(M)
        for phi in _formula_corpus(M.sig)[:4]:
            fv = free_variables(phi)
            if fv != frozenset(range(len(fv))):
                continue
            sat = set(definable_set(M, phi))
            for t in sat:
                for pi in auts:
                    assert pi.apply_tuple(t) in sat


def test_sort_partition_coarser_than_orbits(corpus):
    for _, M in corpus[:20]:
        sorts = sort_partition(M)
        sort_of = {e: k for k, block in sorts.items() for e in block}
        for pi in automorphism_group_brute(M):
            for e in M.domain:
                assert sort_of[pi(e)] == sort_of[e]
