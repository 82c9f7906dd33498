"""The CLI's report writer against the json module.

Every JSON report is ``json.dumps(report, sort_keys=True, indent=2)`` plus a
newline.  ``cli._dump`` writes that text through its own writer,
``cli._indented`` alone, which raises TypeError on what no report holds.
The byte-identity sweep checks the written reports themselves (sweep.py).
"""

import enum
import json
import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from stablelift import cli


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


def test_a_k3_scheme_report_is_written_like_json():
    from stablelift.corpus import digraph
    from stablelift.interpretation import scheme_to_json_dict
    from stablelift.lifting import LiftConfig, build_lift, generate_scheme

    M = digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (3, 1)])
    report = scheme_to_json_dict(generate_scheme(build_lift(M, LiftConfig(k=3))))
    # equal sort keys, and equal tuples of them, share one list object
    first = report["relations"][0]["sorts"]
    assert any(r["sorts"] is first for r in report["relations"][1:])
    assert any(first[0] is s["key"] for s in report["sorts"])
    assert_written_like_json(report)
