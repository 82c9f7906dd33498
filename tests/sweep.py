"""Byte-identity sweep of the CLI.

Every run of ``RUNS`` is made in process on each of its cases: the 69
digraphs on 1-3 vertices, every loop-free digraph on four vertices up to
isomorphism (218 classes) and named structures with larger or less regular
automorphism groups.  The sha256 of each run's (exit code, stdout, stderr)
must match ``data/sweep_digests.json``, keyed by the run's shell form and
the case name, so a change to any report byte, diagnostic or exit code
names its (run, case) pair.  Each run's stdout is also json's own text of
the report it holds, and a run that exits 2 writes none.

The four-vertex classes come from a brute canonical form: the least sorted
edge list over all 24 relabellings.  They are checked by the orbit-counting
identity sum over classes of 4!/|Aut| = 2^12, with |Aut| counted by brute
force.

Standard library only, so that it runs under every supported interpreter
with or without pytest:

    python tests/sweep.py            check; exit 1 on any mismatch
    python tests/sweep.py --write    regenerate, after a deliberate output
                                     change only
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from stablelift.cli import main  # noqa: E402
from stablelift.corpus import digraph, edge_pairs, exhaustive_digraphs  # noqa: E402
from stablelift.structures import structure_to_json  # noqa: E402

DIGESTS = HERE / "data" / "sweep_digests.json"

# the cases a run is made on are the names its pattern matches in full
EVERY, SMALL = r".*", r"digraph_n[123]_m\d+"
MUTATIONS = ("", " --mutate negate-relformula", " --mutate break-ep", " --mutate break-fp")
# each run's arguments in shell form, the input file going after the
# subcommand, keyed by shlex.join of their argv, with the pattern of its cases
RUNS = {shlex.join(shlex.split(run)): cases for run, cases in [
    ("aut", EVERY),
    ("census --A 0", EVERY),
    ("census --A 0,1", EVERY),
    ("verify-iso --k 2", EVERY),
    ("report --ks 1,2 --A '' --A 0", EVERY),
    ("report --ks 1,2 --A '' --A 0 --A 0,2", EVERY),
    ("report --ks 1,2,3 --A '' --A 0 --A 0,1", EVERY),
    ("lift --k 2", EVERY),
    ("lift --k 2 --include-repetitions", EVERY),
    ("limit --k 2", EVERY),
    *[(f"scheme-check --k 1{mutation}", EVERY) for mutation in MUTATIONS],
    # deeper and padded schemes, which take seconds over the larger cases
    *[(f"scheme-check --k 2{mutation}", SMALL) for mutation in MUTATIONS],
    ("scheme-check --k 3", SMALL),
    ("scheme-check --k 3 --mutate negate-relformula", SMALL),
    ("scheme-check --k 2 --padding explicit:40,2,9", SMALL),
    ("scheme-check --k 2 --padding explicit:40,2,9 --mutate negate-relformula", SMALL),
    # the wide and padded schemes of the CI console-script step; edge2 there
    # is digraph_n2_m1 here, a 16 MB report
    ("scheme-check --k 4 --padding explicit:1999,1998,1997,1996,1995", "digraph_n2_m1"),
    ("scheme-check --padding explicit:2,2000", "digraph_n3_m63"),
    ("scheme-check --k 4", "wide4"),
    *[(f"scheme-check --k 2 --include-repetitions{mutation}", "digraph_n3_m63")
      for mutation in MUTATIONS],
]}


def _digraph_json(n: int, edges) -> dict:
    return {
        "signature": {"relations": [{"name": "edge", "arity": 2}]},
        "domain": n,
        "relations": {"edge": [list(e) for e in edges]},
    }


def _wide_json(arity: int) -> dict:
    return {
        "signature": {"relations": [{"name": "W", "arity": arity}]},
        "domain": 6,
        "relations": {"W": []},
        "repetition_free": False,
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
    # six points and one empty 4- or 5-ary relation whose tuples may repeat
    # entries: thousands of lift elements, |Aut| = 720
    "wide4": _wide_json(4),
    "wide5": _wide_json(5),
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


@functools.lru_cache(maxsize=None)
def _cases() -> dict[str, str]:
    """Structure file contents by case name."""
    cases = {
        name: structure_to_json(M) for n in (1, 2, 3) for name, M in exhaustive_digraphs(n)
    }
    pairs = edge_pairs(4)
    for edges in digraph_classes(4):
        mask = sum(1 << pairs.index(e) for e in edges)
        cases[f"digraph_n4_m{mask}"] = structure_to_json(digraph(4, edges))
    for name, data in NAMED.items():
        cases[name] = json.dumps(data)
    return cases


def _digest(run: str, name: str) -> str:
    command, *options = shlex.split(run)
    argv = [command, "--in", f"{name}.json", *options]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # the report writer gives json.dumps's text; an input error writes none
    stdout = out.getvalue()
    report = "" if code == 2 else json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n"
    if stdout != report:
        raise AssertionError(f"{shlex.join(argv)} exits {code} with stdout that is not its report")
    blob = json.dumps([code, stdout, err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def sweep_digests(runs=RUNS) -> dict[str, dict[str, str]]:
    """Per run, the digest of it on each of its cases.  Structure files are
    written to a temporary directory and named relative to it, because
    reports and diagnostics quote the path they were given."""
    cases = _cases()
    names = {run: [name for name in cases if re.fullmatch(RUNS[run], name)] for run in runs}
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in set().union(*names.values()):
                Path(f"{name}.json").write_text(cases[name], encoding="utf-8")
            return {run: {name: _digest(run, name) for name in names[run]} for run in runs}
        finally:
            os.chdir(previous)


def mismatches(runs=None) -> list[str]:
    """'run on case' for every digest that differs from the stored one, or
    that is missing on either side: over the given runs, or over every run
    of RUNS and of the stored file."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    runs = sorted(set(RUNS) | set(expected)) if runs is None else runs
    actual = sweep_digests([run for run in runs if run in RUNS])
    return [
        f"{run} on {name}"
        for run in runs
        for name in sorted(set(expected.get(run, {})) | set(actual.get(run, {})))
        if expected.get(run, {}).get(name) != actual.get(run, {}).get(name)
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
