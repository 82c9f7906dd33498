"""The byte-identity sweep of ``sweep.py`` as a Tier-1 test, one item per
run: every stored digest of the run over its cases matches.  Regenerate
the digests, after a deliberate output change only, with
``python tests/sweep.py --write``.  The digests are bytes that the library
recorded itself; ``ANSWERS`` holds values known without it."""

import json
import re
from operator import itemgetter
from pathlib import Path

import pytest

import sweep

# the digests hold under every hash seed
pytestmark = pytest.mark.hashseed


def test_the_four_vertex_classes_are_the_218_isomorphism_classes():
    assert len(sweep.digraph_classes(4)) == 218


def test_the_stored_digests_are_of_the_sweep_runs():
    assert sorted(json.loads(sweep.DIGESTS.read_text(encoding="utf-8"))) == sorted(sweep.RUNS)


def test_a_run_listed_twice_is_refused():
    with pytest.raises(ValueError, match=r"sweep runs listed twice: \['aut'\]"):
        sweep._keyed([("aut", sweep.EVERY), ("aut ", "empty6")])


def test_a_run_over_the_time_bound_fails(monkeypatch):
    monkeypatch.setattr(sweep, "RUN_SECONDS", 0)
    with pytest.raises(AssertionError, match=r"took .* s, over 0 s"):
        sweep.sweep_digests(["aut"])


# a short name, so that each item's full name, its argv included, stays
# under 100 characters and no two items share a cut-off prefix
@pytest.mark.parametrize("run", sweep.RUNS)
def test_run(run):
    """Every stored digest of the run over its cases matches."""
    bad = sweep.mismatches([run])
    assert not bad, f"{len(bad)} sweep mismatches; first: {bad[0]}"


ORDER, CLASSES, AUT = itemgetter("order_N"), itemgetter("class_count"), itemgetter("generators", "order")

# (run, case, exit code, a view of the report or None, the view's value),
# each run a sweep run on one of its cases
ANSWERS = [
    *[(f"verify-iso --k {k}", case, 0, ORDER, order) for k, case, order in (
        (2, "empty6", 720), (2, "complete6", 720), (2, "rotations", 3), (2, "unary", 2),
        (3, "cycles33", 18), (3, "cycle5", 5))],
    ("aut", "empty6", 0, AUT, ([[0, 1, 2, 3, 5, 4], [0, 1, 2, 4, 3, 5], [0, 1, 3, 2, 4, 5],
                                [0, 2, 1, 3, 4, 5], [1, 0, 2, 3, 4, 5]], "720")),
    ("aut", "cycles33", 0, AUT, ([[0, 1, 2, 4, 5, 3], [1, 2, 0, 3, 4, 5], [3, 4, 5, 0, 1, 2]], "18")),
    ("aut", "order8", 0, AUT, ([[0, 2, 1, 3, 4, 5], [1, 0, 3, 2, 5, 4]], "8")),
    *[(f"census --A {A}", case, 0, CLASSES, count) for A, case, count in (
        ("0", "digraph_n3_m63", 2), ("1", "digraph_n3_m63", 2), ("0,1", "rigid6", 6))],
    # |Aut| = 1 and 13 + 30k lift elements, as many orbits: every
    # stabilizer is trivial and every growth law passes
    ("report --ks 1,2,3 --A '' --A 0 --A 0,1", "rigid6", 0,
     lambda r: [(e["growth_law"], e["total"] - 30 * e["k"]) for e in r["entries"]], [("pass", 13)] * 9),
    # each clean scheme passes and each planted defect fails
    *[(f"scheme-check --k {k}{mutation}", case, int(bool(mutation)), None, None)
      for case, k in (("rotations", "2"), ("unary", "2"), ("digraph_n3_m63", "2"),
                      ("digraph_n3_m63", "2 --include-repetitions"), ("rigid4", "3"))
      for mutation in sweep.MUTATIONS],
    # and these pass: growth laws over stabilizers of groups that are not
    # symmetric, and wide and padded schemes
    *[(run, case, 0, None, None) for run, case in (
        *[("report --ks 1,2,3 --A '' --A 0 --A 1 --A 0,3", case) for case in ("cycles33", "cycle5")],
        ("scheme-check --k 4", "wide4"), ("scheme-check --k 1", "wide5"),
        ("scheme-check --padding explicit:2,2000", "digraph_n3_m63"),
        ("scheme-check --k 4 --padding explicit:1999,1998,1997,1996,1995", "digraph_n2_m1"))],
]


# each id drops the words that the scheme rows share, so that each full
# name stays under 100 characters
@pytest.mark.parametrize("run, case, code, view, value", ANSWERS, ids=[
    f"{case}: {run.removeprefix('scheme-check ')}".replace("--mutate ", "") for run, case, *_ in ANSWERS
])
def test_answer(run, case, code, view, value, tmp_path, monkeypatch):
    assert re.fullmatch(sweep.RUNS[run], case), "not a case of this sweep run"
    monkeypatch.chdir(tmp_path)
    Path(f"{case}.json").write_text(sweep._cases()[case], encoding="utf-8")
    _, got, stdout, _ = sweep._run(run, case)
    assert got == code
    if view is not None:
        assert view(json.loads(stdout)) == value
