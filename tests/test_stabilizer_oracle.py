"""The search's pointwise stabilizers against Schreier-Sims and brute force.

stabilizer_search(M)(A) individualizes A's points at the root of the
search, which one stabilizer_search(M) builds once for every A.
stabilizer_oracle takes the level after A in a Schreier-Sims chain of the
searched Aut(M), and the brute-force and backtracking oracles filter every
automorphism of M by A.  All three give the same order, the same members
and the same orbits."""

import itertools
import json

import automorphism_oracle
import stabilizer_oracle as reference
import sweep
from references import automorphism_group_brute
from stablelift.corpus import digraph
from stablelift.groups import (
    Permutation,
    automorphism_group,
    orbits,
    stabilizer_search,
)
from stablelift.lifting import LiftConfig, build_lift
from stablelift.structures import Signature, Structure, structure_from_json


def _members(M) -> list[Permutation]:
    """Every automorphism of M in lexicographic image order: by brute force
    on small degrees, else by the backtracking oracle."""
    if M.size <= 6:
        return automorphism_group_brute(M)
    return [Permutation(p) for p in automorphism_oracle.automorphisms(M, budget=2_000_000)]


def _supports(points, size):
    return [A for r in range(size + 1) for A in itertools.combinations(points, r)]


def _check_supports(M, supports):
    """The stabilizer of each A in ``supports`` that one stabilizer_search(M)
    finds, against the Schreier-Sims stabilizer in the searched Aut(M) = G
    and against the members of Aut(M) that fix A."""
    search = stabilizer_search(M)
    G, members = search(()), _members(M)
    for A in supports:
        searched = search(A)
        slow = reference.pointwise_stabilizer(G, A)
        fixing = [g for g in members if all(g(a) == a for a in A)]
        case = (M, A)
        assert searched.order() == reference.order(slow) == len(fixing), case
        assert searched.elements() == reference.elements(slow) == fixing, case
        closure = sorted({tuple(sorted({g(x) for g in fixing})) for x in M.domain})
        assert orbits(searched) == orbits(slow) == closure, case


def _named(name):
    """A named structure of the sweep."""
    return structure_from_json(json.dumps(sweep.NAMED[name]))


def test_the_search_order_is_the_backtracking_oracles_on_the_corpus_lifts(corpus):
    for _, M in corpus:
        for k in (1, 2):
            N = build_lift(M, LiftConfig(k=k)).structure
            assert automorphism_group(N).order() == len(automorphism_oracle.automorphisms(N))


def test_stabilizers_of_the_four_vertex_classes():
    # every support of at most two points of every loop-free digraph on
    # four vertices up to isomorphism
    for edges in sweep.digraph_classes(4):
        M = digraph(4, edges)
        _check_supports(M, _supports(M.domain, 2))


def _all_supports(M):
    """Every support of at most two points, and every prefix {0..i}."""
    return _supports(M.domain, 2) + [tuple(range(i + 1)) for i in range(M.size)]


def test_stabilizers_told_the_order_match_a_fresh_chain(corpus):
    # the search's stabilizers, each told the order its orbits give, against
    # a fresh Schreier-Sims chain and the oracles' members: every support of
    # at most two points and every prefix, on the corpus and on its lifts at
    # k = 1, 2
    for _, M in corpus:
        _check_supports(M, _all_supports(M))
        for k in (1, 2):
            N = build_lift(M, LiftConfig(k=k)).structure
            _check_supports(N, _all_supports(N))


def _other_signatures(random_structures):
    """Structures beyond digraphs: the ternary rotations and the unary case
    of the sweep, the seeded structures of test_lifting with a ternary
    relation, and seeded structures with a function, a constant, and
    ternary, binary and unary relations."""
    from test_lifting import _random_relational_structure

    named = [_named(name) for name in ("rotations", "unary")]
    seeded = [_random_relational_structure(seed) for seed in range(40)]
    seeded = [M for M in seeded if 3 in dict(M.sig.relations).values()]
    return named + seeded, random_structures[:60]


def test_stabilizers_on_lifts_of_other_signatures(random_structures):
    # every support of at most two points and every prefix, on the
    # relational ones and their lifts at k = 1, and on the others, which
    # have a function and cannot be lifted
    relational, functional = _other_signatures(random_structures)
    for M in relational:
        N = build_lift(M, LiftConfig(k=1)).structure
        _check_supports(M, _all_supports(M))
        _check_supports(N, _all_supports(N))
    for M in functional:
        _check_supports(M, _all_supports(M))


def test_a_support_that_skips_a_fixed_level():
    # two directed 3-cycles told apart by U = {3, 4, 5}: Aut = <(0 1 2),
    # (3 4 5)>, so the stabilizer of 0 fixes 1 and 2, and the levels of 1
    # and 2 in the chain are trivial
    sig = Signature(relations=(("edge", 2), ("U", 1)))
    M = Structure(sig=sig, size=6, relations={
        "edge": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
        "U": [(3,), (4,), (5,)],
    })
    cases = (((0, 3), 1), ((0, 2), 3), ((0,), 3), ((0, 4), 1), ((2,), 3), ((3,), 3))
    assert automorphism_group(M).order() == 9
    for A, order in cases:
        assert automorphism_group(M, fixed=A).order() == order, A
    _check_supports(M, [A for A, _ in cases])


def test_a_support_point_that_refinement_already_split_off():
    # a point of the support that is a singleton at the root, by its sort or
    # by refinement, is not individualized again: that would leave an empty
    # cell behind.  U = {0} beside the edges 1 <-> 2; the constant 0 beside
    # the 3-cycle 1 -> 2 -> 3; the path 0 -> 1 -> 2 -> 3, which the root
    # already splits into singletons
    unary = _named("unary")
    sig = Signature(relations=(("E", 2),), constants=("c",))
    constant = Structure(sig=sig, size=4, relations={"E": [(1, 2), (2, 3), (3, 1)]},
                         constants={"c": 0})
    path = digraph(4, [(0, 1), (1, 2), (2, 3)])
    for M, A, order in ((unary, (0,), 2), (unary, (0, 1), 1), (constant, (0,), 3),
                        (constant, (0, 2), 1), (path, (1, 2), 1), (path, (0, 1, 2, 3), 1)):
        assert automorphism_group(M, fixed=A).order() == order, (M, A)
        _check_supports(M, [A])


def test_other_paths_take_the_cell_the_first_path_took():
    # one edge pair 1 <-> 3 and three isolated points: |Aut| = 2 * 3! = 12.
    # The first path takes the cell of the least open point; a path that
    # chose its cell by label in turn, not by the first path's position,
    # would break the search's invariance and find a group of order 4
    M = digraph(5, [(1, 3), (3, 1)])
    G, members = automorphism_group(M), automorphism_group_brute(M)
    assert G.order() == len(members) == 12
    assert G.elements() == members
    _check_supports(M, _supports(M.domain, 2))
