"""Byte-identity sweep of the CLI.

Every run of ``RUNS`` is made in process on each of its cases: the 69
digraphs on 1-3 vertices, every loop-free digraph on four vertices up to
isomorphism (218 classes) and named structures with larger or less regular
automorphism groups.  The sha256 of each run's (exit code, stdout, stderr)
must match ``data/sweep_digests.json``, keyed by the run's shell form and
the case name, so a change to any report byte, diagnostic or exit code
names its (run, case) pair.  A run whose digest is written or does not
match must also print json's own text of its report, or nothing if it exits
2, and no run may take more than ``RUN_SECONDS`` of wall time on one case.

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
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from stablelift.cli import main  # noqa: E402
from stablelift.corpus import digraph, edge_pairs, exhaustive_digraphs  # noqa: E402
from stablelift.structures import structure_to_json  # noqa: E402

DIGESTS = HERE / "data" / "sweep_digests.json"

# a run that takes longer on one case, in wall seconds, fails
RUN_SECONDS = 60
# the cases a run is made on are the names its pattern matches in full
EVERY, SMALL = r".*", r"digraph_n[123]_m\d+"
MUTATIONS = ("", " --mutate negate-relformula", " --mutate break-ep", " --mutate break-fp")


def _keyed(runs) -> dict[str, str]:
    """Each run's pattern keyed by shlex.join of its argv, refusing a key
    listed twice, of which a dict would keep only the last pattern."""
    keys = [shlex.join(shlex.split(run)) for run, _ in runs]
    twice = sorted({key for key in keys if keys.count(key) > 1})
    if twice:
        raise ValueError(f"sweep runs listed twice: {twice}")
    return dict(zip(keys, (cases for _, cases in runs)))


# each run's arguments in shell form, the input file going after the
# subcommand, with the pattern of its cases
RUNS = _keyed([
    ("aut", EVERY),
    *[(f"census --A {A}", EVERY) for A in ("0", "1", "0,1", "0,1 --depth 2")],
    *[(f"verify-iso{k}", EVERY) for k in ("", " --k 2", " --k 3")],
    *[(f"report --ks {options}", EVERY) for options in (
        "1,2", "1,2 --A '' --A 0", "1,2 --A '' --A 0 --A 0,2", "1,2,3 --A '' --A 0 --A 0,1")],
    ("report --ks 1,2,3 --A '' --A 0 --A 1 --A 0,3", "cycles33|cycle5"),
    *[(f"lift --k 2{options}", EVERY) for options in ("", " --include-repetitions")],
    ("limit --k 2", EVERY),
    *[(f"scheme-check --k 1{mutation}", EVERY) for mutation in MUTATIONS],
    # deeper and padded schemes, which take seconds over the larger cases
    *[(f"scheme-check --k 2{mutation}", rf"{SMALL}|rotations|unary") for mutation in MUTATIONS],
    *[(f"scheme-check --k 3{mutation}", rf"{SMALL}|rigid4") for mutation in MUTATIONS[:2]],
    *[(f"scheme-check --k 3{mutation}", "rigid4") for mutation in MUTATIONS[2:]],
    *[(f"scheme-check --k 2 --padding explicit:40,2,9{mutation}", SMALL)
      for mutation in MUTATIONS[:2]],
    # wide and padded schemes: on the one-edge digraph a 16 MB report
    ("scheme-check --k 4 --padding explicit:1999,1998,1997,1996,1995", "digraph_n2_m1"),
    ("scheme-check --padding explicit:2,2000", "digraph_n3_m63"),
    ("scheme-check --k 4", "wide4"),
    *[(f"scheme-check --k 2 --include-repetitions{mutation}", "digraph_n3_m63")
      for mutation in MUTATIONS],
])


def _doc(n: int, relations: dict, **extra) -> dict:
    """The structure document on n points with each relation's arity and
    tuples by its name."""
    return {
        "signature": {"relations": [{"name": r, "arity": a} for r, (a, _) in relations.items()]},
        "domain": n,
        "relations": {r: [list(t) for t in tuples] for r, (_, tuples) in relations.items()},
        **extra,
    }


def _digraph_json(n: int, edges) -> dict:
    return _doc(n, {"edge": (2, edges)})


# structures with larger or less regular automorphism groups, and wide ones
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
    "rotations": _doc(3, {"T": (3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])}, repetition_free=False),
    # U = {0} beside the edges 1 <-> 2, |Aut| = 2
    "unary": _doc(3, {"U": (1, [(0,)]), "edge": (2, [(1, 2), (2, 1)])}),
    # the path 0 -> ... -> 5 plus the edge 0 -> 2, |Aut| = 1
    "rigid6": _digraph_json(6, [(i, i + 1) for i in range(5)] + [(0, 2)]),
    # a rigid 4-vertex digraph, whose k = 3 scheme is the heaviest of
    # scheme-rigid: most agreement blocks are constant False
    "rigid4": _digraph_json(4, [(0, 1), (1, 2), (2, 3), (0, 2), (3, 1)]),
    # six points and one empty 4- or 5-ary relation whose tuples may repeat
    # entries: thousands of lift elements, |Aut| = 720
    **{f"wide{a}": _doc(6, {"W": (a, [])}, repetition_free=False) for a in (4, 5)},
}


def digraph_classes(n: int = 4) -> list[tuple[tuple[int, int], ...]]:
    """The loop-free digraphs on n vertices up to isomorphism, each as its
    least sorted edge list over all relabellings, in ascending order.  They
    are checked by the orbit-counting identity: the classes' sum of
    n!/|Aut|, with |Aut| counted by brute force, is 2^(n(n-1))."""
    pairs = edge_pairs(n)
    perms = list(itertools.permutations(range(n)))

    def relabelled(edges, p):
        return tuple(sorted((p[a], p[b]) for a, b in edges))

    classes = set()
    for mask in range(2 ** len(pairs)):
        edges = [pair for bit, pair in enumerate(pairs) if mask >> bit & 1]
        classes.add(min(relabelled(edges, p) for p in perms))
    labelled = sum(
        len(perms) // sum(relabelled(edges, p) == edges for p in perms) for edges in classes
    )
    if labelled != 2 ** len(pairs):
        raise AssertionError(f"{len(classes)} classes cover {labelled} labelled digraphs")
    return sorted(classes)


@functools.lru_cache(maxsize=None)
def _cases() -> dict[str, str]:
    """Structure file contents by case name."""
    cases = {name: structure_to_json(M) for n in (1, 2, 3) for name, M in exhaustive_digraphs(n)}
    pairs = edge_pairs(4)
    for edges in digraph_classes(4):
        mask = sum(1 << pairs.index(e) for e in edges)
        cases[f"digraph_n4_m{mask}"] = structure_to_json(digraph(4, edges))
    cases.update((name, json.dumps(data)) for name, data in NAMED.items())
    return cases


def _run(run: str, name: str) -> tuple[str, int, str, str]:
    """The run on the case's file: its argv in shell form, exit code, stdout and stderr."""
    command, *options = shlex.split(run)
    argv = [command, "--in", f"{name}.json", *options]
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    seconds = time.perf_counter() - started
    if seconds > RUN_SECONDS:
        raise AssertionError(f"{shlex.join(argv)} took {seconds:.1f} s, over {RUN_SECONDS} s")
    return shlex.join(argv), code, out.getvalue(), err.getvalue()


def _digest(run: str, name: str, expected: str | None) -> str:
    argv, code, stdout, stderr = _run(run, name)
    digest = hashlib.sha256(json.dumps([code, stdout, stderr]).encode("utf-8")).hexdigest()
    # the report writer gives json.dumps's text and an input error writes
    # none; a matching digest pins bytes that were checked when written
    if digest != expected:
        report = "" if code == 2 else json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n"
        if stdout != report:
            raise AssertionError(f"{argv} exits {code} with stdout that is not its report")
    return digest


def sweep_digests(runs=RUNS, expected=None) -> dict[str, dict[str, str]]:
    """Per run, the digest of it on each of its cases, given the expected
    ones if any.  Structure files are written to a temporary directory and
    named relative to it, because reports and diagnostics quote the path
    they were given."""
    expected = expected or {}
    cases = _cases()
    names = {run: [name for name in cases if re.fullmatch(RUNS[run], name)] for run in runs}
    previous = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name in set().union(*names.values()):
                Path(f"{name}.json").write_text(cases[name], encoding="utf-8")
            return {
                run: {name: _digest(run, name, expected.get(run, {}).get(name)) for name in found}
                for run, found in names.items()
            }
        finally:
            os.chdir(previous)


def mismatches(runs=None) -> list[str]:
    """'run on case' for every digest that differs from the stored one, or
    that is missing on either side: over the given runs, or over every run
    of RUNS and of the stored file."""
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    runs = sorted(set(RUNS) | set(expected)) if runs is None else runs
    actual = sweep_digests([run for run in runs if run in RUNS], expected)
    return [
        f"{run} on {name}"
        for run in runs
        for name in sorted(set(expected.get(run, {})) | set(actual.get(run, {})))
        if expected.get(run, {}).get(name) != actual.get(run, {}).get(name)
    ]


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        table = sweep_digests()
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
