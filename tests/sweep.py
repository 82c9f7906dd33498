"""Byte-identity sweep beyond the golden corpus.

Seven subcommands, scheme-check also under each of its three mutations,
run in process over every loop-free digraph on four vertices up to
isomorphism (218 classes) and over named structures with larger or less
regular automorphism groups.  The sha256 of each run's
(exit code, stdout, stderr) must match ``data/sweep_digests.json``, so a
change to any report byte, diagnostic or exit code names its
(subcommand, structure) pair.

The classes come from a brute canonical form: the least sorted edge list
over all 24 relabellings.  They are checked by the orbit-counting identity
sum over classes of 4!/|Aut| = 2^12, with |Aut| counted by brute force.

Standard library only, so that it runs under every supported interpreter
with or without pytest:

    python tests/sweep.py            check; exit 1 on any mismatch
    python tests/sweep.py --write    regenerate, after a deliberate output
                                     change only
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from stablelift.cli import main  # noqa: E402
from stablelift.corpus import digraph, edge_pairs  # noqa: E402
from stablelift.structures import structure_to_json  # noqa: E402

DIGESTS = HERE / "data" / "sweep_digests.json"

RUNS = {
    "aut": ["aut"],
    "census": ["census", "--A", "0,1"],
    "verify-iso": ["verify-iso", "--k", "2"],
    "report": ["report", "--ks", "1,2", "--A", "", "--A", "0", "--A", "0,2"],
    "lift": ["lift", "--k", "2"],
    "limit": ["limit", "--k", "2"],
    "scheme-check": ["scheme-check", "--k", "1"],
    **{
        f"scheme-check {mutation}": ["scheme-check", "--k", "1", "--mutate", mutation]
        for mutation in ("negate-relformula", "break-ep", "break-fp")
    },
}


def _digraph_json(n: int, edges) -> dict:
    return {
        "signature": {"relations": [{"name": "edge", "arity": 2}]},
        "domain": n,
        "relations": {"edge": [list(e) for e in edges]},
    }


# the group cases of the CI console-script step
NAMED = {
    "empty6": _digraph_json(6, []),
    "complete6": _digraph_json(6, edge_pairs(6)),
    # two disjoint 3-cycles, |Aut| = 18, and the 5-cycle, |Aut| = 5
    "cycles33": _digraph_json(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    "cycle5": _digraph_json(5, [(i, (i + 1) % 5) for i in range(5)]),
    # |Aut| = 8, where a search that took the first open cell by position
    # found three generators, one more than the greedy two that aut prints
    "order8": _digraph_json(6, [
        (0, 1), (0, 2), (0, 3), (0, 5), (1, 0), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1),
        (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 5), (4, 1), (4, 2), (5, 0), (5, 3),
    ]),
    # the rotations of (0, 1, 2) in a ternary relation whose tuples may
    # repeat entries, |Aut| = 3
    "rotations": {
        "signature": {"relations": [{"name": "T", "arity": 3}]},
        "domain": 3,
        "relations": {"T": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "repetition_free": False,
    },
    # U = {0} beside the edges 1 <-> 2, |Aut| = 2
    "unary": {
        "signature": {"relations": [{"name": "U", "arity": 1}, {"name": "edge", "arity": 2}]},
        "domain": 3,
        "relations": {"U": [[0]], "edge": [[1, 2], [2, 1]]},
    },
    # the path 0 -> ... -> 5 plus the edge 0 -> 2, |Aut| = 1
    "rigid6": _digraph_json(6, [(i, i + 1) for i in range(5)] + [(0, 2)]),
}


def digraph_classes(n: int = 4) -> list[tuple[tuple[int, int], ...]]:
    """The loop-free digraphs on n vertices up to isomorphism, each as its
    least sorted edge list over all relabellings, in ascending order."""
    pairs = edge_pairs(n)
    perms = list(itertools.permutations(range(n)))

    def relabelled(edges, p):
        return tuple(sorted((p[a], p[b]) for a, b in edges))

    classes = set()
    for mask in range(2 ** len(pairs)):
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        classes.add(min(relabelled(edges, p) for p in perms))
    # each class holds n!/|Aut| labelled digraphs
    labelled = sum(
        len(perms) // sum(relabelled(edges, p) == edges for p in perms) for edges in classes
    )
    if labelled != 2 ** len(pairs):
        raise AssertionError(f"{len(classes)} classes cover {labelled} labelled digraphs")
    return sorted(classes)


def _cases() -> dict[str, str]:
    """Structure file contents by case name."""
    pairs = edge_pairs(4)
    cases = {}
    for edges in digraph_classes(4):
        mask = sum(1 << pairs.index(e) for e in edges)
        cases[f"digraph_n4_m{mask}"] = structure_to_json(digraph(4, edges))
    for name, data in NAMED.items():
        cases[name] = json.dumps(data)
    return cases


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_digests() -> dict[str, dict[str, str]]:
    """Per subcommand, the digest of its run on each case.  Structure files
    are written to a temporary directory and named relative to it, because
    reports and diagnostics quote the path they were given."""
    cases = _cases()
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in cases.items():
                Path(f"{name}.json").write_text(text, encoding="utf-8")
            return {
                label: {
                    name: _digest([argv[0], "--in", f"{name}.json", *argv[1:]]) for name in cases
                }
                for label, argv in RUNS.items()
            }
        finally:
            os.chdir(previous)


def mismatches() -> list[str]:
    """'subcommand case' for every run whose digest differs from the
    stored one, or that is missing on either side."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    actual = sweep_digests()
    keys = {(label, name) for table in (expected, actual) for label, runs in table.items()
            for name in runs}
    return [
        f"{label} {name}"
        for label, name in sorted(keys)
        if expected.get(label, {}).get(name) != actual.get(label, {}).get(name)
    ]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        table = sweep_digests()
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {sum(map(len, table.values()))} digests to {DIGESTS}")
    elif sys.argv[1:]:
        sys.exit(f"usage: python {sys.argv[0]} [--write]")
    else:
        bad = mismatches()
        for line in bad[:20]:
            print(f"mismatch: {line}")
        print(f"sweep: {len(bad)} mismatches")
        sys.exit(1 if bad else 0)
