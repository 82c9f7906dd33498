"""Seeded operations and their expected verdicts, with no stablelift code.

Each workload is a list of operations: one CLI subcommand on one digraph
file.  The digraphs, the relabelings and the expected answers come from this
module alone (closed forms and a brute-force permutation enumeration), so a
change to the library cannot change what is asked or what counts as right.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

WORKLOADS = ("iso-symmetric", "scheme-rigid", "census-ladder")

# Census parameter sets in source coordinates, as passed with --A.
CENSUS_KS = (1, 2, 3)
CENSUS_AS = ((), (0,), (0, 1))
MUTATIONS = ("negate-relformula", "break-ep", "break-fp")
EDGE_DENSITY = 0.4
RIGID_SAMPLE_LIMIT = 10_000


@dataclass(frozen=True)
class Op:
    """One subcommand run.  ``argv`` holds ``{infile}`` where the input
    path goes; ``expect`` is what check_verdict compares the report with."""

    label: str
    argv: tuple[str, ...]
    structure: str
    expect: dict

    def args(self, infile: str) -> list[str]:
        return [infile if a == "{infile}" else a for a in self.argv]


# -- digraphs -----------------------------------------------------------------


def structure_json(n: int, edges) -> str:
    """The stablelift structure document of a loop-free digraph."""
    return json.dumps(
        {
            "signature": {
                "relations": [{"name": "edge", "arity": 2}],
                "functions": [],
                "constants": [],
            },
            "domain": n,
            "relations": {"edge": [list(e) for e in sorted(edges)]},
            "functions": {},
            "constants": {},
            "repetition_free": True,
        },
        sort_keys=True,
    )


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def cycle_edges(n: int, offset: int = 0) -> list[tuple[int, int]]:
    return [(offset + i, offset + (i + 1) % n) for i in range(n)]


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def random_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A uniform random digraph with round(EDGE_DENSITY * n(n-1)) edges.
    The edge count is fixed because the cost of an operation grows with it,
    and a count that varied with the seed would spread the figures."""
    pairs = complete_edges(n)
    return sorted(rng.sample(pairs, round(EDGE_DENSITY * len(pairs))))


def relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sorted((sigma[i], sigma[j]) for i, j in edges)


# -- brute-force oracle -----------------------------------------------------------


def automorphisms(n: int, edges) -> list[tuple[int, ...]]:
    """Every permutation of 0..n-1 that maps the edge set onto itself."""
    held = set(edges)
    return [
        p
        for p in itertools.permutations(range(n))
        if all((p[i], p[j]) in held for i, j in held)
    ]


def orbit_count(perms, items) -> int:
    """Orbits of a permutation group, given as all its members, acting
    coordinatewise on a set of points or tuples."""
    todo = set(items)
    count = 0
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            todo -= {tuple(p[i] for i in x) for p in perms}
        else:
            todo -= {p[x] for p in perms}
        count += 1
    return count


def census_counts(auts, n: int, edges, A) -> tuple[int, int, int]:
    """(o_M, o_fib, o_rel): stabilizer-of-A orbits on points, on
    repetition-free pairs and on edges."""
    stab = [p for p in auts if all(p[a] == a for a in A)]
    return (
        orbit_count(stab, range(n)),
        orbit_count(stab, complete_edges(n)),
        orbit_count(stab, edges),
    )


def growth_total(k: int, counts: tuple[int, int, int]) -> int:
    o_m, o_fib, o_rel = counts
    return 1 + o_m + k * o_fib + o_rel


# -- workloads ----------------------------------------------------------------------


# Each (family, k) of these runs LIGHT_REPEATS times per round, the n = 6
# empty and complete digraphs once: those four take about 60% of a round,
# and without the repeats the light operations would be too sparse for a
# steady median.
LIGHT_REPEATS = 3


def _iso_families():
    """(name, n, edges, |Aut| in closed form, repeats per round)."""
    for n in (4, 5, 6):
        yield f"empty-{n}", n, [], math.factorial(n), 1 if n == 6 else LIGHT_REPEATS
    for n in (4, 5, 6):
        yield f"complete-{n}", n, complete_edges(n), math.factorial(n), 1 if n == 6 else LIGHT_REPEATS
    for n in (5, 6):
        yield f"cycle-{n}", n, cycle_edges(n), n, LIGHT_REPEATS
    two_cycles = cycle_edges(3) + cycle_edges(3, offset=3)
    yield "two-3-cycles", 6, two_cycles, 18, LIGHT_REPEATS


def iso_symmetric(rng: random.Random, rounds: int) -> list[Op]:
    ops = []
    for _ in range(rounds):
        round_ops = [
            Op(
                label=f"{name} k={k}",
                argv=("verify-iso", "--in", "{infile}", "--k", str(k)),
                structure=structure_json(n, relabel(rng, n, edges)),
                expect={"report": {
                    "order_M": order,
                    "order_N": order,
                    "bijective": True,
                    "continuity_witnesses": "pass",
                }},
            )
            for name, n, edges, order, repeats in _iso_families()
            for k in (1, 2)
            for _ in range(repeats)
        ]
        rng.shuffle(round_ops)
        ops += round_ops
    return ops


def rigid_digraph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    for _ in range(RIGID_SAMPLE_LIMIT):
        edges = random_edges(rng, n)
        if len(automorphisms(n, edges)) == 1:
            return edges
    raise RuntimeError(f"no rigid digraph on {n} vertices after {RIGID_SAMPLE_LIMIT} draws")


# (n, k) -> rigid digraphs per round.  The counts put the median of a run's
# latencies inside the (3, 3) class rather than on the gap between two
# classes, where it would jump from run to run.
SCHEME_CLASSES = {(3, 1): 1, (3, 2): 2, (3, 3): 3, (4, 1): 2, (4, 2): 2, (4, 3): 2}


def scheme_rigid(rng: random.Random, rounds: int) -> list[Op]:
    """Per round, twelve rigid digraphs with n in {3, 4} and k in {1, 2, 3}.
    Three of them carry one planted mutation each, on a fixed rotation:
    over six rounds every (n, k) gets each mutation once, so the mix does
    not depend on the seed."""
    classes = list(SCHEME_CLASSES)
    ops = []
    for r in range(rounds):
        mutated = {(r + 2 * j) % len(classes): m for j, m in enumerate(MUTATIONS)}
        for c, (n, k) in enumerate(classes):
            mutations = [None] * SCHEME_CLASSES[n, k]
            if c in mutated:
                mutations[-1] = mutated[c]
            for mutation in mutations:
                argv = ("scheme-check", "--in", "{infile}", "--k", str(k))
                if mutation:
                    argv += ("--mutate", mutation)
                ops.append(Op(
                    label=f"rigid-{n} k={k} {mutation or 'clean'}",
                    argv=argv,
                    structure=structure_json(n, rigid_digraph(rng, n)),
                    expect={"mutation": mutation},
                ))
    return ops


def _census_families(rng: random.Random):
    for n in (4, 5, 6):
        yield f"rigid-{n}", n, path_edges(n) + [(0, 2)]
    for n in (4, 5, 6):
        yield f"path-{n}", n, path_edges(n)
    for n in (4, 5, 6):
        yield f"cycle-{n}", n, cycle_edges(n)
    for n in (5, 6):
        yield f"random-{n}", n, random_edges(rng, n)


def census_ladder(rng: random.Random, rounds: int) -> list[Op]:
    argv = ["report", "--in", "{infile}", "--ks", ",".join(map(str, CENSUS_KS))]
    for A in CENSUS_AS:
        argv += ["--A", ",".join(map(str, A))]
    ops = []
    for _ in range(rounds):
        for name, n, edges in _census_families(rng):
            edges = relabel(rng, n, edges)
            auts = automorphisms(n, edges)
            counts = {A: census_counts(auts, n, edges, A) for A in CENSUS_AS}
            ops.append(Op(
                label=name,
                argv=tuple(argv),
                structure=structure_json(n, edges),
                expect={"entries": [
                    {"k": k, "A": list(A), "total": growth_total(k, counts[A])}
                    for k in CENSUS_KS
                    for A in CENSUS_AS
                ]},
            ))
    return ops


SCHEDULES = {
    "iso-symmetric": iso_symmetric,
    "scheme-rigid": scheme_rigid,
    "census-ladder": census_ladder,
}


def build_ops(workload: str, seed: int, rounds: int) -> list[Op]:
    """The workload's operations for ``rounds`` rounds, a pure function of
    its arguments."""
    return SCHEDULES[workload](random.Random(f"{workload}:{seed}"), rounds)


# -- verdicts -------------------------------------------------------------------------


def check_verdict(op: Op, infile: str, exit_code: int | None, stdout: str) -> str | None:
    """None when the run's exit code and report match the expected verdict,
    else the reason it does not."""
    command = op.argv[0]
    want_code = 1 if op.expect.get("mutation") else 0
    if exit_code != want_code:
        return f"exit code {exit_code}, expected {want_code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as e:
        return f"report is not JSON: {e}"
    if command == "verify-iso":
        if report != op.expect["report"]:
            return f"report {report} != {op.expect['report']}"
    elif command == "scheme-check":
        mutation = op.expect["mutation"]
        checks = report["validation"]["checks"]
        if report["mutation"] != mutation:
            return f"report names mutation {report['mutation']!r}"
        if mutation is None:
            if not report["validation"]["passed"] or not all(c["passed"] for c in checks):
                return "an unmutated scheme failed validation"
        else:
            failed = [c for c in checks if not c["passed"]]
            if report["validation"]["passed"] or not failed:
                return f"mutation {mutation} was not caught"
            if not all(c["witness"] for c in failed):
                return f"mutation {mutation} failed a check without a witness"
    elif command == "report":
        if report["structure"] != infile:
            return f"report names structure {report['structure']!r}"
        got = [
            {"k": e["k"], "A": e["A"], "total": e["total"]} for e in report["entries"]
        ]
        if got != op.expect["entries"]:
            return f"census {got} != {op.expect['entries']}"
        if any(e["growth_law"] != "pass" for e in report["entries"]):
            return "growth law reported as failing"
    else:
        raise ValueError(f"no verdict rule for {command!r}")
    return None
