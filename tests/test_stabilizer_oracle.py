"""The stabilizer-chain layer against the reference forms in
stabilizer_oracle: a sift through the levels above the trivial tail gives
the full walk's (residue, level), a chain stopped at a known order is the
chain grown without it, the search's order is the oracle's, and a
stabilizer read off the group's own chain is the one a fresh chain gives."""

import itertools
import random

import pytest

import automorphism_oracle
import stabilizer_oracle as reference
from stablelift.groups import (
    PermGroup,
    Permutation,
    _automorphism_generators,
    _Chain,
    _lex_walk,
    automorphism_group,
    pointwise_stabilizer,
)
from stablelift.lifting import LiftConfig, build_lift


def _random_generators(rng, degree):
    """One to three permutations that move only a random subset of the
    points, so that the group's chain has trivial levels between moved
    ones, or of all of them."""
    moved = rng.sample(range(degree), rng.randint(2, degree))
    gens = []
    for _ in range(rng.randint(1, 3)):
        images = list(range(degree))
        for x, y in zip(moved, rng.sample(moved, len(moved))):
            images[x] = y
        gens.append(tuple(images))
    return gens


def _random_groups(seed, count):
    rng = random.Random(seed)
    groups = []
    for _ in range(count):
        degree = rng.randint(3, 7)
        groups.append(PermGroup([Permutation(g) for g in _random_generators(rng, degree)], degree))
    return groups


@pytest.fixture(scope="module")
def corpus_groups(corpus):
    """Aut of every corpus structure and of its lifts at k = 1, 2."""
    groups = []
    for _, M in corpus:
        groups.append(automorphism_group(M))
        for k in (1, 2):
            groups.append(automorphism_group(build_lift(M, LiftConfig(k=k)).structure))
    return groups


# -- sift ----------------------------------------------------------------------


def _chain(gens, order):
    chain = _Chain(len(order), order)
    for g in gens:
        chain.add(g)
    return chain


def test_sift_matches_the_full_level_walk():
    rng = random.Random(2601)
    checked = {"member": 0, "outside": 0, "tail": 0}
    for _ in range(150):
        degree = rng.randint(3, 9)
        gens = _random_generators(rng, degree)
        order = rng.sample(range(degree), degree)
        chain = _chain(gens, order)
        for _ in range(12):
            if rng.random() < 0.5:
                # a member: a random word in the generators
                g = tuple(range(degree))
                for _ in range(rng.randint(0, 4)):
                    g = tuple(rng.choice(gens)[x] for x in g)
            else:
                g = tuple(rng.sample(range(degree), degree))
            for start in range(degree + 1):
                got = chain.sift(g, start)
                assert got == reference.sift(chain, g, start), (gens, order, g, start)
                checked["member" if got[1] == degree else "outside"] += 1
                checked["tail"] += chain.depth <= got[1] < degree
    # members, non-members, and non-members stuck on a trivial tail level
    assert min(checked.values()) > 100, checked


# -- known order -----------------------------------------------------------------


class _CountingChain(_Chain):
    sifts = 0

    def sift(self, g, start=0):
        self.sifts += 1
        return super().sift(g, start)


def test_a_chain_stopped_at_its_known_order_is_the_chain_grown_without_it(corpus_groups):
    rng = random.Random(2602)
    cases = [(G.degree, [g.images for g in G.generators]) for G in corpus_groups]
    for _ in range(150):
        degree = rng.randint(3, 8)
        cases.append((degree, _random_generators(rng, degree)))
    saved = 0
    for degree, gens in cases:
        for order in (tuple(range(degree)), tuple(rng.sample(range(degree), degree))):
            plain = _CountingChain(degree, order)
            for g in gens:
                plain.add(g)
            known = _CountingChain(degree, order, plain.size())
            for g in gens:
                known.add(g)
            saved += known.sifts < plain.sifts
            assert known.size() == plain.size()
            if order == tuple(range(degree)):
                assert list(_lex_walk(known)) == list(_lex_walk(plain))
            for _ in range(10):
                g = tuple(rng.sample(range(degree), degree))
                assert (g in known) == (g in plain)
            if degree <= 6:
                assert all(g in known for g in _lex_walk(_chain(gens, tuple(range(degree)))))
    # the stop is taken, not only harmless
    assert saved > 50, saved


def test_the_search_order_is_the_backtracking_oracles_on_the_corpus_lifts(corpus):
    for _, M in corpus:
        for k in (1, 2):
            N = build_lift(M, LiftConfig(k=k)).structure
            _, order = _automorphism_generators(N)
            assert order == len(automorphism_oracle.automorphisms(N))


# -- prefix stabilizers ------------------------------------------------------------


def _reads_the_chain(G, A):
    """True when pointwise_stabilizer(G, A) reads G's own chain: some point
    of A moves and every point below max(A) is in A or has a trivial level."""
    A = sorted(set(A))
    trans = G._chain.trans
    moved = any(g(a) != a for g in G.generators for a in A)
    return moved and all(x in A or len(trans[x]) == 1 for x in range(A[-1]))


def _skips_a_level(G, A):
    return _reads_the_chain(G, A) and len(set(A)) < max(A) + 1


def _assert_same_stabilizer(G, A):
    fast, slow = pointwise_stabilizer(G, A), reference.pointwise_stabilizer(G, A)
    assert fast.order() == slow.order(), (G.generators, A)
    # generators in G_A of a group as large as G_A: they generate G_A
    assert all(g in G and all(g(a) == a for a in A) for g in fast.generators)
    if G.degree <= 8:
        assert fast.elements() == slow.elements(), (G.generators, A)


def test_stabilizers_read_off_the_chain_match_a_fresh_chain(corpus_groups):
    read = skipped = 0
    for G in corpus_groups + _random_groups(2603, 100):
        # every support of at most two points, and every prefix {0..i}
        supports = [A for r in range(3) for A in itertools.combinations(range(G.degree), r)]
        for A in supports + [tuple(range(i + 1)) for i in range(G.degree)]:
            _assert_same_stabilizer(G, A)
            read += _reads_the_chain(G, A)
            skipped += _skips_a_level(G, A)
    # the chain is read, also past trivial levels (and a fresh chain grown
    # for the other supports, about twice as many)
    assert read > 1000 and skipped > 300, (read, skipped)


def test_a_support_that_skips_a_fixed_level():
    # <(0 1 2), (3 4 5)>: the stabilizer of 0 fixes 1 and 2, so the levels
    # of 1 and 2 are trivial and {0, 3} and {0, 2} are read off the chain
    G = PermGroup([Permutation((1, 2, 0, 3, 4, 5)), Permutation((0, 1, 2, 4, 5, 3))], 6)
    assert [len(t) for t in G._chain.trans] == [3, 1, 1, 3, 1, 1]
    for A, order in (((0, 3), 1), ((0, 2), 3), ((0,), 3), ((0, 4), 1), ((2,), 3), ((3,), 3)):
        assert _reads_the_chain(G, A) == (A in {(0, 3), (0, 2), (0,)})
        assert pointwise_stabilizer(G, A).order() == order, A
        _assert_same_stabilizer(G, A)
