import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from stablelift.corpus import digraph, standard_corpus
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
    ParseError,
    Rel,
    Var,
    _compile_formula,
    atomic_type,
    definable_set,
    eval_formula,
    format_formula,
    free_variables,
    group_by_columns,
    parse_formula,
    sort_partition,
)
from stablelift.groups import automorphism_group_brute
from stablelift.lifting import LiftConfig, build_lift
from stablelift.structures import Signature

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


# -- evaluation --------------------------------------------------------------


def test_eval_relation(m_edge):
    phi = parse_formula("edge(x0,x1)", m_edge.sig)
    assert eval_formula(m_edge, phi, {0: 0, 1: 1})
    assert not eval_formula(m_edge, phi, {0: 1, 1: 0})


def test_eval_exists(m_edge):
    phi = parse_formula("exists x1. edge(x0,x1)", m_edge.sig)
    assert eval_formula(m_edge, phi, {0: 0})
    assert not eval_formula(m_edge, phi, {0: 1})


def test_eval_uncovered_variable(m_edge):
    phi = parse_formula("edge(x0,x1)", m_edge.sig)
    with pytest.raises(FormulaError, match="uncovered free variable"):
        eval_formula(m_edge, phi, {0: 0})


def test_definable_set_examples(m_edge):
    sig = m_edge.sig
    assert definable_set(m_edge, parse_formula("edge(x0,x1)", sig)) == ((0, 1),)
    assert definable_set(m_edge, parse_formula("x0 = x0", sig)) == ((0,), (1,))
    assert definable_set(m_edge, parse_formula("x0 = x1 & edge(x0,x1)", sig)) == ()


def test_definable_set_gap_rejected(m_edge):
    phi = parse_formula("edge(x0,x2)", m_edge.sig)
    with pytest.raises(FormulaError, match="free-variable gap"):
        definable_set(m_edge, phi)


# -- compiled formulas --------------------------------------------------------

WIDTH = 3  # random formulas use free variables among x0..x2


def _random_term(rng, sig, depth):
    if sig.constants and rng.random() < 0.15:
        return Const(rng.choice(sig.constants))
    if sig.functions and depth and rng.random() < 0.25:
        return Apply(rng.choice(sig.functions), _random_term(rng, sig, depth - 1))
    return Var(rng.randrange(WIDTH + 1))  # x3 is bound or left free


def _random_atom(rng, sig):
    roll = rng.random()
    if roll < 0.03:
        return Rel("nosuch", (Var(0),))
    if roll < 0.05 and sig.relations:
        name, arity = rng.choice(sig.relations)
        return Rel(name, (Var(0),) * (arity + 1))
    if roll < 0.07:
        return Equal(Var(0), Apply("nosuch", Var(1)))
    if roll < 0.35:
        q = rng.randrange(WIDTH + 1)
        return Equal(Var(q), Var(q))
    if roll < 0.55 or not sig.relations:
        return Equal(_random_term(rng, sig, 1), _random_term(rng, sig, 1))
    name, arity = rng.choice(sig.relations)
    return Rel(name, tuple(_random_term(rng, sig, 1) for _ in range(arity)))


def _random_formula(rng, sig, depth=3):
    if depth == 0 or rng.random() < 0.25:
        return _random_atom(rng, sig)
    roll = rng.random()
    if roll < 0.2:
        return Not(_random_formula(rng, sig, depth - 1))
    if roll < 0.4:
        # binds a fresh index or rebinds a free one
        return Exists(rng.randrange(WIDTH + 1), _random_formula(rng, sig, depth - 1))
    parts = tuple(_random_formula(rng, sig, depth - 1) for _ in range(rng.randint(1, 3)))
    return And(parts) if roll < 0.7 else Or(parts)


def _kinds(phi):
    """Node kinds in phi, with "rebinding" for an Exists that binds one of
    phi's free variables."""
    found, free = Counter(), free_variables(phi)

    def walk(psi):
        found[type(psi).__name__] += 1
        if isinstance(psi, Exists):
            found["rebinding"] += psi.var in free
            walk(psi.body)
        elif isinstance(psi, Not):
            walk(psi.body)
        elif isinstance(psi, (And, Or)):
            for part in psi.parts:
                walk(part)

    walk(phi)
    return found


def _eval_outcome(evaluate):
    try:
        return evaluate()
    except FormulaError as e:
        return str(e)


def test_compiled_formulas_match_eval_formula(type_structures):
    # the compiled form is a bool only when no assignment changes the value,
    # and otherwise answers, or raises, exactly as eval_formula does
    rng = random.Random(20261018)
    seen = Counter()
    structures = type_structures + [digraph(0, [])]
    for M in structures:
        for _ in range(4):
            phi = _random_formula(rng, M.sig)
            compiled = _compile_formula(M, phi)
            seen.update(_kinds(phi))
            seen["bool" if isinstance(compiled, bool) else "closure"] += 1
            assignments = [
                tuple(rng.randrange(M.size) for _ in range(WIDTH + 1)) for _ in range(6)
            ] if M.size else [(0,) * (WIDTH + 1)]
            for v in assignments:
                expected = _eval_outcome(lambda: eval_formula(M, phi, dict(enumerate(v))))
                if isinstance(compiled, bool):
                    assert compiled == expected, (phi, v)
                    continue
                assert _eval_outcome(lambda: compiled(v)) == expected, (phi, v)
                if isinstance(expected, str):
                    seen["error"] += 1
    kinds = {"Equal", "Rel", "Not", "And", "Or", "Exists", "rebinding"}
    assert kinds | {"bool", "closure", "error"} <= set(seen), seen


def test_compiled_formula_raises_at_the_atom_eval_formula_reaches(m_edge):
    sig = m_edge.sig
    late = And((Rel("edge", (Var(0), Var(1))), Rel("nosuch", (Var(0),))))
    # compiling never raises; evaluating raises only once the atom is reached
    compiled = _compile_formula(m_edge, late)
    assert compiled((1, 0)) is False
    with pytest.raises(FormulaError, match=r"^unknown relation symbol 'nosuch'$"):
        compiled((0, 1))
    # a formula that reads nothing still raises when evaluated, not compiled
    closed = _compile_formula(m_edge, Or((Not(Equal(Var(0), Var(0))), Rel("edge", (Var(0),)))))
    with pytest.raises(FormulaError, match=r"^arity mismatch for 'edge'$"):
        closed((0,))
    # constant parts fold away, keeping a part eval_formula reaches first
    assert _compile_formula(m_edge, parse_formula("x0 = x0 & ~(x1 = x1)", sig)) is False
    assert _compile_formula(m_edge, parse_formula("exists x0. edge(x0, x0)", sig)) is False
    assert _compile_formula(m_edge, parse_formula("exists x1. edge(x0, x1)", sig))((0,)) is True


# -- atomic types and sorts ---------------------------------------------------


def test_anchor_type_contains_constant_equation(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    t = atomic_type(N.structure, N.anchor_id)
    assert Equal(Var(0), Const("anchor")) in t
    base_t = atomic_type(N.structure, N.base_id(0))
    assert Equal(Var(0), Const("anchor")) not in base_t


def test_limit_type_has_no_copy_fixpoint(m_edge):
    from stablelift.lifting import LIMIT, FiberElem

    N = build_lift(m_edge, LiftConfig(k=1))
    fixpoint = Equal(Var(0), Apply("copy_edge_0", Var(0)))
    limit = N.element_of(FiberElem("edge", LIMIT, (0, 1)))
    t = atomic_type(N.structure, limit)
    assert Rel("fiber_edge", (Var(0),)) in t
    assert Rel("samefiber_edge", (Var(0), Var(0))) in t
    assert fixpoint not in t
    copy0 = N.element_of(FiberElem("edge", 0, (0, 1)))
    assert fixpoint in atomic_type(N.structure, copy0)


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
        assert [t.formulas for t, _ in got] == [t.formulas for t, _ in expected]


def test_atomic_type_key_is_formatted_once(type_structures):
    for M in type_structures:
        for t in sort_partition(M):
            assert t.key == tuple(format_formula(f) for f in t.formulas)
            assert t.key is t.key


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
    assert list(t.key) == sorted(t.key)
    assert isinstance(t, AtomicType)


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
            for values in itertools.product(M.domain, repeat=len(fv)):
                v = dict(zip(fv, values))
                base = eval_formula(M, phi, v)
                for pi in auts:
                    moved = {i: pi(x) for i, x in v.items()}
                    assert eval_formula(M, phi, moved) == base


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
