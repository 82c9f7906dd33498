import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from stablelift.corpus import digraph, edge_pairs
from stablelift.groups import Permutation, is_automorphism
from stablelift.structures import (
    Signature,
    Structure,
    StructureError,
    relational_companion,
    structure_from_dict,
    structure_from_json,
    structure_to_json,
    validate_structure,
)

SIG = Signature(relations=(("R", 2),))


def test_validate_minimal_structure():
    M = validate_structure(SIG, {"domain": 2, "relations": {"R": [[0, 1]]}})
    assert M.size == 2
    assert M.relations["R"] == ((0, 1),)


def test_out_of_range_element_rejected():
    with pytest.raises(StructureError, match="out-of-range element"):
        validate_structure(SIG, {"domain": 2, "relations": {"R": [[0, 2]]}})


def test_repeated_entry_rejected_when_repetition_free():
    with pytest.raises(StructureError, match="repeated entry"):
        validate_structure(SIG, {"domain": 2, "relations": {"R": [[0, 0]]}})
    # allowed once the flag is dropped
    M = validate_structure(
        SIG, {"domain": 2, "relations": {"R": [[0, 0]]}, "repetition_free": False}
    )
    assert M.relations["R"] == ((0, 0),)


def test_arity_mismatch_rejected():
    with pytest.raises(StructureError, match="arity mismatch"):
        validate_structure(SIG, {"domain": 2, "relations": {"R": [[0]]}})


def test_non_total_function_rejected():
    sig = Signature(functions=("f",))
    with pytest.raises(StructureError, match="non-total function"):
        Structure(sig=sig, size=2, functions={"f": (0,)})


def test_unknown_keys_rejected():
    with pytest.raises(StructureError, match="unknown keys"):
        validate_structure(SIG, {"domain": 2, "relations": {}, "extra": 1})


def test_symbol_names_must_be_unique_and_grammar_safe():
    with pytest.raises(StructureError, match="unique"):
        Signature(relations=(("R", 1),), functions=("R",))
    with pytest.raises(StructureError, match="collides"):
        Signature(relations=(("x0", 1),))
    with pytest.raises(StructureError, match="collides"):
        Signature(constants=("exists",))
    with pytest.raises(StructureError, match="arity"):
        Signature(relations=(("R", 0),))


def test_structures_equal_ignores_tuple_order():
    a = digraph(2, [(0, 1), (1, 0)])
    b = digraph(2, [(1, 0), (0, 1)])
    assert a == b
    assert a != digraph(2, [])


def test_companion_of_identity_function():
    sig = Signature(functions=("f",))
    M = Structure(sig=sig, size=2, functions={"f": (0, 1)})
    C = relational_companion(M)
    assert C.relations["f"] == ((0, 0), (1, 1))
    assert C.is_relational()
    assert not C.repetition_free


def test_companion_of_constant():
    sig = Signature(constants=("c",))
    M = Structure(sig=sig, size=2, constants={"c": 0})
    C = relational_companion(M)
    assert C.relations["c"] == ((0,),)


def test_companion_of_lift_has_graph_relations(m_edge):
    from stablelift.lifting import LiftConfig, build_lift

    N = build_lift(m_edge, LiftConfig(k=1))
    C = relational_companion(N.structure)
    assert C.size == 6
    # one binary graph relation per function symbol (2 projections + 1 copy)
    graphs = [n for n, k in C.sig.relations if n.startswith(("proj_", "copy_"))]
    assert len(graphs) == 3
    assert all(C.sig.relation_arity(g) == 2 for g in graphs)
    for g in graphs:
        assert len(C.relations[g]) == C.size  # graphs of total functions


def test_companion_injective_on_corpus(corpus):
    companions = [structure_to_json(relational_companion(M)) for _, M in corpus[:37]]
    assert len(set(companions)) == len(companions)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_companion_preserves_automorphisms_brute(size):
    # same automorphisms before and after replacing functions by graphs
    rng = random.Random(7 + size)
    sig = Signature(relations=(("R", 2),), functions=("f",), constants=("c",))
    for _ in range(5):
        M = Structure(
            sig=sig,
            size=size,
            relations={"R": tuple({p for p in edge_pairs(size) if rng.random() < 0.5})},
            functions={"f": tuple(rng.randrange(size) for _ in range(size))},
            constants={"c": rng.randrange(size)},
        )
        C = relational_companion(M)
        for images in itertools.permutations(range(size)):
            pi = Permutation(images)
            assert is_automorphism(M, pi) == is_automorphism(C, pi)


def test_serialization_round_trip_fixture(m_edge):
    assert structure_from_json(structure_to_json(m_edge)) == m_edge


def test_serialization_round_trip_functional():
    sig = Signature(relations=(("R", 1),), functions=("f",), constants=("c",))
    M = Structure(
        sig=sig,
        size=3,
        relations={"R": ((1,),)},
        functions={"f": (2, 2, 0)},
        constants={"c": 1},
    )
    M2 = structure_from_json(structure_to_json(M))
    assert M == M2
    assert M2.sig == sig


@given(
    size=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_serialization_round_trip_random_digraphs(size, data):
    pairs = edge_pairs(size)
    chosen = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    M = digraph(size, chosen)
    assert structure_from_json(structure_to_json(M)) == M


def _doc(**overrides):
    doc = {
        "signature": {
            "relations": [{"name": "R", "arity": 2}],
            "functions": [{"name": "f"}],
            "constants": [{"name": "c"}],
        },
        "domain": 2,
        "relations": {"R": [[0, 1]]},
        "functions": {"f": [1, 0]},
        "constants": {"c": 0},
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_loader_accepts_the_reference_document():
    M = structure_from_json(_doc(repetition_free=False))
    assert M.size == 2 and M.repetition_free is False


@pytest.mark.parametrize(
    "overrides",
    [
        {"domain": True},
        {"domain": False},
        {"relations": {"R": [[True, 0]]}},
        {"relations": {"R": [[0, 1.0]]}},
        {"functions": {"f": [True, 0]}},
        {"constants": {"c": False}},
        {"signature": {"relations": [{"name": "R", "arity": True}]}, "relations": {},
         "functions": {}, "constants": {}},
    ],
)
def test_loader_rejects_bool_where_an_int_is_expected(overrides):
    with pytest.raises(StructureError, match="must be an integer"):
        structure_from_json(_doc(**overrides))


@pytest.mark.parametrize("field", ["relations", "functions", "constants"])
def test_loader_rejects_a_list_where_an_object_is_expected(field):
    # a list of [name, value] pairs is no object: read as one, a repeated
    # name would silently keep its last value
    pairs = list(json.loads(_doc())[field].items())
    with pytest.raises(StructureError) as e:
        structure_from_json(_doc(**{field: pairs + pairs[:1]}))
    assert str(e.value) == "malformed structure data: 'list' object has no attribute 'items'"


@pytest.mark.parametrize("value", ["no", 0, 1, None, []])
def test_loader_requires_boolean_repetition_free(value):
    with pytest.raises(StructureError, match="repetition_free"):
        structure_from_json(_doc(repetition_free=value))


# -- the loader on arbitrary JSON ----------------------------------------------

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
_small = st.integers(min_value=-1, max_value=3) | _json_values
_keys = st.sampled_from(["R", "f", "c", "x0", "exists", ""]) | st.text(max_size=6)
_names = _keys | _json_values


def _entries(extra):
    return st.lists(
        st.fixed_dictionaries({"name": _names}, optional=extra) | _json_values, max_size=3
    )


# documents shaped like structure files, so the draws reach past the first check
_documents = st.fixed_dictionaries(
    {},
    optional={
        "signature": st.fixed_dictionaries(
            {},
            optional={
                "relations": _entries({"arity": _small}) | _json_values,
                "functions": _entries({}) | _json_values,
                "constants": _entries({}) | _json_values,
            },
        )
        | _json_values,
        "domain": _small,
        "relations": st.dictionaries(
            _keys, st.lists(st.lists(_small, max_size=3), max_size=3) | _json_values, max_size=2
        )
        | _json_values,
        "functions": st.dictionaries(_keys, st.lists(_small, max_size=4) | _json_values, max_size=2)
        | _json_values,
        "constants": st.dictionaries(_keys, _small, max_size=2) | _json_values,
        "repetition_free": st.booleans() | _json_values,
    },
)


@given(_documents | _json_values)
@settings(max_examples=400)
def test_loader_on_arbitrary_json_returns_a_structure_or_a_structure_error(value):
    for load in (structure_from_dict, lambda v: structure_from_json(json.dumps(v))):
        try:
            M = load(value)
        except StructureError:
            continue
        assert isinstance(M, Structure)


@pytest.mark.parametrize(
    "text",
    [
        '{"domain": ' + "1" * 5000 + "}",  # past the integer digit limit
        "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
    ],
    ids=["digit-limit", "nesting-depth"],
)
def test_loader_rejects_unreadable_json_with_a_structure_error(text):
    with pytest.raises(StructureError, match="not valid JSON"):
        structure_from_json(text)
