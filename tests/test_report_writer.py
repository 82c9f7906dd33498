"""The CLI's report writer against the json module.

Every JSON report is ``json.dumps(report, sort_keys=True, indent=2)`` plus a
newline.  ``cli._dump`` writes that text through its own writer,
``cli._indented`` alone, which raises TypeError on what no report holds.
A scheme in a report stands for its JSON data, the reference
``scheme_to_json_dict``, and ``cli._scheme_text`` writes that data's text
straight from the scheme.  The byte-identity sweep checks the written
reports themselves (sweep.py).
"""

import enum
import json
import math
from collections import OrderedDict
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from references import scheme_to_json_dict
from stablelift import cli
from stablelift.corpus import digraph
from stablelift.interpretation import negate_translation, redirect_bijection, weaken_equivalence
from stablelift.lifting import (
    LiftConfig,
    PaddingAssignment,
    build_lift,
    generate_scheme,
    padding_triples,
)


def reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


def assert_written_like_json(value) -> None:
    """``_dump`` gives json's text, and the writer needs no fallback."""
    expected = reference(value)
    assert cli._dump(value) == expected
    assert cli._indented(value, "\n") == expected


# any code point, lone surrogates and control characters included
TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.dictionaries(TEXT, children, max_size=5)
    ),
    max_leaves=40,
)


@settings(max_examples=250, deadline=None)
@given(VALUES)
def test_writer_matches_json_dumps(value):
    assert_written_like_json(value)


def _nested(depth: int):
    value = {"leaf": [1, "two", None]}
    for i in range(depth):
        value = [value, {"depth": i, "empty": {}, "none": []}] if i % 2 else {"down": value}
    return value


@pytest.mark.parametrize(
    "value",
    [
        "plain",
        "café ☃ 𝄞 中文",
        "".join(map(chr, range(32))) + "\x7f\"\\/",
        "\ud800 lone \udfff surrogates \udbff",
        {},
        [],
        (),
        {"": {}, "a": [], "b": (), "c": [[], {}], "d": [{}]},
        [True, 1, False, 0, None, 1.0, 0.0],
        {"true": True, "one": 1, "false": False, "zero": 0},
        10**100,
        -(10**30),
        2**63,
        [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, 0.1, 1e16, -2.5],
        {"é": 1, "e": 2, "E": 3, "\x00": 4, "\ud800": 5, "𝄞": 6},
        ("tuple", ("nested", [1, (2, 3)])),
        _nested(200),
    ],
    ids=lambda value: type(value).__name__,
)
def test_writer_edge_cases(value):
    assert_written_like_json(value)


class Level(enum.IntEnum):
    LOW = 1


class Label(str):
    pass


@pytest.mark.parametrize(
    "value",
    [
        {1: "a", 2: [3]},
        {"a": {2.5: 1, 0.5: 2}},
        {True: 1},
        [Level.LOW, {"level": Level.LOW}],
        [Label("x"), OrderedDict(b=1, a=2)],
    ],
)
def test_what_the_writer_leaves_to_json_is_written_by_json(value):
    """json.dumps converts these (int, float and bool keys, int and str
    subclasses); the writer has no json fallback and raises TypeError."""
    reference(value)
    with pytest.raises(TypeError):
        cli._dump(value)


@pytest.mark.parametrize(
    "value",
    [
        {1: "a", "b": 2},  # keys json cannot sort
        {"a": {1, 2}},  # no JSON form
        [object()],
        {(1, 2): 3},  # a key json does not convert
        _nested(20_000),  # past the recursion limit
    ],
    ids=["mixed-keys", "set", "object", "tuple-key", "too-deep"],
)
def test_writer_fails_where_json_fails(value):
    with pytest.raises(Exception) as expected:
        reference(value)
    with pytest.raises(type(expected.value)):
        cli._dump(value)



def _shared():
    """One list object placed where json writes it more than once."""
    key = ["a", "café", "\x00"]
    pair = [key, key]
    return [
        [key, key],
        {"top": key, "deeper": {"down": [key, {"again": key}]}, "pair": pair, "pairs": [pair, pair]},
        ("tuple", (key, [key, ("inner", key)])),
    ]


@pytest.mark.parametrize("value", _shared(), ids=["same-indent", "two-indents", "in-a-tuple"])
def test_a_shared_list_is_written_like_json(value):
    assert_written_like_json(value)


def with_data(report: dict) -> dict:
    """The report with its scheme replaced by the scheme's reference data."""
    return {**report, "scheme": scheme_to_json_dict(report["scheme"])}


def test_a_k3_scheme_report_is_written_like_json():
    scheme = generate_scheme(build_lift(digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (3, 1)]),
                                        LiftConfig(k=3)))
    report = {"scheme": scheme, "mutation": None}
    assert cli._dump(report) == reference(with_data(report))
    assert cli._indented(scheme, "\n") == reference(scheme_to_json_dict(scheme))


def _mutants(M, scheme):
    """The scheme under each mutation scheme-check plants on M, chosen as it
    chooses them: the first translation, the first sort wider than 1, and
    the first sort key, in order, whose map has two elements; where
    scheme-check refuses a mutation, it is left out."""
    mutants = {"negate-relformula": negate_translation(scheme, 0)}
    if M.size >= 2:
        wide = next((i for i, s in enumerate(scheme.sorts) if s.width > 1), 0)
        mutants["break-ep"] = weaken_equivalence(scheme, wide)
    key = next((k for k, fmap in sorted(scheme.bijections.items()) if len(fmap) >= 2), None)
    if key is not None:
        mutants["break-fp"] = redirect_bijection(scheme, key)
    return mutants


@pytest.mark.hashseed
def test_schemes_are_written_like_their_reference_data(corpus):
    """Every corpus scheme at k = 1, 2 and 3, with and without repetition
    tuples and with an explicit padding, and each k = 1 scheme's mutants and
    a copy with its bijections and maps in reverse order one level deeper,
    so that no indent is fixed."""
    validation = {"checks": [{"condition": "sort cover", "passed": True}], "passed": True}
    for _, M in corpus:
        pads = {pair: 2 + 7 * j for j, pair in enumerate(padding_triples(M.sig, 2))}
        configs = [
            LiftConfig(k=k, include_repetition_tuples=repetitions)
            for k in (1, 2, 3)
            for repetitions in (False, True)
        ] + [LiftConfig(k=2, padding=PaddingAssignment(pads))]
        schemes = [generate_scheme(build_lift(M, config)) for config in configs]
        for scheme in schemes:
            report = {"validation": validation, "scheme": scheme, "mutation": None}
            assert cli._dump(report) == reference(with_data(report))
        scheme = schemes[0]  # k = 1
        # the writer orders the bijections and their maps itself
        backwards = replace(scheme, bijections={
            key: dict(reversed(fmap.items())) for key, fmap in reversed(scheme.bijections.items())
        })
        for name, mutant in [*_mutants(M, scheme).items(), ("reversed maps", backwards)]:
            report = {"validation": validation, "scheme": mutant, "mutation": name}
            assert cli._dump({"runs": [report]}) == reference({"runs": [with_data(report)]})
