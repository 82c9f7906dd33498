import itertools
import math

import pytest
from hypothesis import given, strategies as st

import stabilizer_oracle as reference
from references import automorphism_group_brute, greedy_lex_generators, naming_points, rigid_over
from stabilizer_oracle import identity, inverse, multiply
from stablelift.corpus import digraph
from stablelift.groups import (
    GroupError,
    PermGroup,
    Permutation,
    automorphism_group,
    is_automorphism,
    orbits,
    orbits_on_tuples,
    stabilizer_search,
)
from stablelift.lifting import LiftConfig, build_lift

def _level_orbits(G):
    """(levels, size) for G's generators over the base order 0..n-1: one
    level (b, orbit) per first moved point b of a generator, in ascending
    order, the orbit of b under the generators whose first moved point is b
    or later, and size the product of the orbit lengths.  size is the group
    order exactly when the generators are a strong generating set for that
    base order, and less otherwise."""
    first = [next(x for x, y in enumerate(g.images) if x != y) for g in G.generators]
    levels = []
    for b in sorted(set(first)):
        H = PermGroup([g for g, f in zip(G.generators, first) if f >= b], G.degree)
        levels.append((b, next(orbit for orbit in orbits(H) if b in orbit)))
    return levels, math.prod(len(orbit) for _, orbit in levels)


perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.permutations(list(range(n))).map(lambda p: Permutation(tuple(p)))
)


def test_permutation_rejects_non_bijection():
    with pytest.raises(GroupError, match="not a permutation"):
        Permutation((0, 0))


@pytest.mark.parametrize("images", [(0, 1.0), (1.0, 0), (True, False), (1, False)])
def test_permutation_rejects_images_that_are_not_int(images):
    # each compares equal to a permutation of (0, 1), and would escape as
    # a bare TypeError from the first composition or group order
    with pytest.raises(GroupError, match="not a permutation"):
        Permutation(images)


def _is_permutation(images) -> bool:
    """The plain check: int images, as many distinct ones as there are
    positions, each a position."""
    return (all(type(x) is int for x in images) and len(set(images)) == len(images)
            and set(images) <= set(range(len(images))))


@pytest.mark.hashseed
def test_the_permutation_check_equals_the_plain_check():
    # ints, bools, floats, repeats, negatives, out-of-range values and the
    # empty tuple, listed and drawn at random
    import random

    rng = random.Random(50)
    cases = [(), (0,), (1,), (-1,), (True,), (False,), (0.0,), (0, 1), (1, 0), (0, 0), (1, 1),
             (-1, 0), (0, 2), (2, 0, 1), (0, 1, 3), (0, 1.0), (True, False), (1, False),
             (0, 1, 1, 2), (3, 2, 1, 0), (0, -1, 1), (2, 1), (1, 2, 3)]
    values = [-1, 0, 1, 2, 3, 4, True, False, 1.0, 2.5]
    for _ in range(500):
        n = rng.randint(0, 5)
        images = list(range(n))
        rng.shuffle(images)
        for _ in range(rng.randint(0, 2)):
            if images:
                images[rng.randrange(n)] = rng.choice(values)
        cases.append(tuple(images))
    verdicts = set()
    for images in cases:
        try:
            Permutation(images)
            accepted = True
        except GroupError as e:
            assert str(e) == f"not a permutation: {images}"
            accepted = False
        assert accepted == _is_permutation(images), images
        verdicts.add(accepted)
    assert verdicts == {True, False}


# the permutation algebra that only tests use lives in stabilizer_oracle


def test_swap_squares_to_identity():
    swap = Permutation((1, 0))
    assert multiply(swap, swap).is_identity()
    assert inverse(identity(2)) == identity(2)


@given(perms)
def test_inverse_axiom(pi):
    assert multiply(pi, inverse(pi)).is_identity()
    assert multiply(inverse(pi), pi).is_identity()


@given(perms.flatmap(lambda p: st.tuples(st.just(p), st.permutations(list(range(p.degree))))))
def test_composition_acts_right_to_left(pair):
    p, q_images = pair
    q = Permutation(tuple(q_images))
    for x in range(p.degree):
        assert multiply(p, q)(x) == p(q(x))


def test_degree_mismatch_rejected():
    with pytest.raises(GroupError, match="degree mismatch"):
        multiply(Permutation((1, 0)), Permutation((0, 1, 2)))


# -- is_automorphism -----------------------------------------------------------


def test_is_automorphism_examples(m_edge, m_pair):
    ident = identity(2)
    swap = Permutation((1, 0))
    assert is_automorphism(m_edge, ident)
    assert not is_automorphism(m_edge, swap)
    assert is_automorphism(m_pair, swap)


def test_is_automorphism_functions_and_constants():
    from stablelift.structures import Signature, Structure

    sig = Signature(functions=("f",), constants=("c",))
    M = Structure(sig=sig, size=3, functions={"f": (1, 0, 2)}, constants={"c": 2})
    assert is_automorphism(M, Permutation((1, 0, 2)))
    assert not is_automorphism(M, Permutation((0, 2, 1)))  # moves the constant
    # swapping 0,1 fixes the constant but does not commute with the 3-cycle f
    M2 = Structure(sig=sig, size=3, functions={"f": (1, 2, 0)}, constants={"c": 2})
    assert not is_automorphism(M2, Permutation((1, 0, 2)))


def _automorphism_cases(corpus, random_structures):
    """(structure, automorphisms) pairs for the leaf and certificate check:
    the corpus and the seeded random structures (a function, a constant, a
    ternary relation) with their search generators, the corpus lifts at
    k = 1-3 and their companions with the induced generators, and
    structures of degree 0 and 1 and with one-tuple and empty relations."""
    from stablelift.lifting import direct_induced
    from stablelift.structures import Signature, Structure

    sig = Signature(relations=(("R", 2), ("T", 3), ("U", 1)), functions=("f",))
    edge = [
        Structure(sig=sig, size=0, functions={"f": ()}),
        Structure(sig=Signature(relations=(("R", 2), ("U", 1)), functions=("f",), constants=("c",)),
                  size=1, relations={"R": [(0, 0)], "U": [(0,)]}, functions={"f": (0,)},
                  constants={"c": 0}, repetition_free=False),
        Structure(sig=sig, size=4, relations={"R": [(0, 1)], "U": [(2,)]}, functions={"f": (1, 0, 2, 3)}),
        Structure(sig=sig, size=4, relations={"T": [(0, 1, 2)]}, functions={"f": (0, 1, 2, 3)}),
    ]
    sources = [M for _, M in corpus] + list(random_structures) + edge
    cases = [(M, automorphism_group(M).generators) for M in sources]
    for _, M in corpus:
        generators = automorphism_group(M).generators
        for k in (1, 2, 3):
            N = build_lift(M, LiftConfig(k=k))
            induced = [direct_induced(N, g) for g in generators]
            cases += [(N.structure, induced), (N.companion, induced)]
    return cases


@pytest.mark.hashseed
def test_is_automorphism_equals_the_oracle(corpus, random_structures):
    # the identity, the automorphisms found, each of them after a random
    # transposition and random permutations, against the refinement
    # oracle's element-by-element check; the stored columns are the
    # relations' own
    import random

    from refinement_oracle import is_automorphism as oracle

    rng = random.Random(50)
    verdicts = {True: 0, False: 0}
    for S, automorphisms in _automorphism_cases(corpus, random_structures):
        assert S.relation_columns == {n: tuple(zip(*ts)) for n, ts in S.relations.items()}
        n = S.size
        perms = [identity(n), *automorphisms]
        for g in [identity(n), *automorphisms][:4]:
            if n >= 2:
                a, b = rng.sample(range(n), 2)
                swap = list(range(n))
                swap[a], swap[b] = b, a
                perms.append(multiply(g, Permutation(tuple(swap))))
        perms += [Permutation(tuple(rng.sample(range(n), n))) for _ in range(3)]
        for pi in perms:
            verdict = is_automorphism(S, pi)
            assert verdict == oracle(S, pi.images), (S, pi)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 1000, verdicts


# -- brute oracle ---------------------------------------------------------------


def test_brute_oracle_fixtures(m_edge, m_pair):
    assert automorphism_group_brute(m_edge) == [identity(2)]
    assert automorphism_group_brute(m_pair) == [identity(2), Permutation((1, 0))]
    N = build_lift(m_edge, LiftConfig(k=1)).structure
    assert automorphism_group_brute(N) == [identity(6)]


def test_brute_oracle_guard():
    with pytest.raises(GroupError, match="too large"):
        automorphism_group_brute(digraph(9, []))


# -- search vs oracle -------------------------------------------------------------


def test_group_orders_fixtures(m_edge, m_pair, m_triple):
    assert automorphism_group(m_edge).order() == 1
    assert automorphism_group(m_pair).order() == 2
    assert automorphism_group(m_triple).order() == 6


def test_search_equals_oracle_on_corpus(corpus):
    for _, M in corpus:
        G = automorphism_group(M)
        assert G.elements() == automorphism_group_brute(M)


def test_search_equals_oracle_on_some_size_five():
    for M in [
        digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),  # directed 5-cycle
        digraph(5, [(0, 1), (1, 0), (2, 3), (3, 2)]),
        digraph(5, []),
    ]:
        assert automorphism_group(M).elements() == automorphism_group_brute(M)


def test_order_is_product_of_fundamental_orbits(m_triple):
    G = automorphism_group(m_triple)
    assert G.order() == math.prod(len(orbit) for _, orbit in _level_orbits(G)[0]) == 6


def test_membership_matches_enumeration(m_triple):
    # Schreier-Sims membership in the search's generators against the
    # listed members
    G = automorphism_group(m_triple)
    members = set(G.elements())
    assert len(members) == 6
    for images in itertools.permutations(range(3)):
        assert reference.contains(G, Permutation(images)) == (Permutation(images) in members)


# -- orbits and stabilizers --------------------------------------------------------


def test_orbits_examples(m_edge, m_pair):
    assert orbits(automorphism_group(m_pair)) == [(0, 1)]
    assert orbits(automorphism_group(m_edge)) == [(0,), (1,)]
    N = build_lift(m_pair, LiftConfig(k=1)).structure
    assert orbits(automorphism_group(N)) == [(0,), (1, 2), (3, 4)]


def test_orbits_on_tuples(m_pair):
    G = automorphism_group(m_pair)
    assert orbits_on_tuples(G, [(0, 1), (1, 0)]) == [((0, 1), (1, 0))]


def _closure_blocks(G, points, act):
    """Orbits by brute force: the images of each point under every member of
    G, restricted to ``points``, ordered by least member; the members are
    listed by Schreier-Sims, as G may be given by any generators."""
    members, points = reference.elements(G), set(points)
    todo, blocks = set(points), []
    while todo:
        x = todo.pop()
        block = {act(g, x) for g in members} & points
        todo -= block
        blocks.append(tuple(sorted(block)))
    return sorted(blocks)


def _orbit_cases(corpus):
    """(case, group, domain, tuple sets): Aut(M) on the corpus with M's
    relations, and on the lifts of _lift_cases the group of the induced
    generators of Aut(M) and its stabilizer of one moved point, with the
    lift's relations and function graphs."""
    from stablelift.lifting import direct_induced

    for name, M in corpus:
        yield name, automorphism_group(M), M.domain, list(M.relation_sets.values())
    for case, N in _lift_cases(corpus):
        S = N.structure
        G = PermGroup([direct_induced(N, g) for g in automorphism_group(N.source).generators], S.size)
        tuple_sets = list(S.relation_sets.values()) + [set(enumerate(f)) for f in S.functions.values()]
        yield case, G, S.domain, tuple_sets
        moved = [x for x in S.domain if any(g(x) != x for g in G.generators)]
        if moved:
            stabilizer = reference.pointwise_stabilizer(G, moved[:1])
            yield case + ("stabilizer",), stabilizer, S.domain, tuple_sets


def test_orbits_equal_the_closure_under_every_member(corpus):
    """orbits and orbits_on_tuples, which follow the generators breadth-first,
    against the images under every group member: on the whole domain and on
    each invariant tuple set.  First a group given by two generators,
    neither of which reaches the whole orbit of 0 alone."""
    G = PermGroup([Permutation((1, 0, 2, 3, 4)), Permutation((0, 2, 1, 3, 4))], 5)
    assert orbits(G) == _closure_blocks(G, range(5), Permutation.__call__) == [
        (0, 1, 2), (3,), (4,)
    ]
    pairs = list(itertools.permutations(range(3), 2))
    assert orbits_on_tuples(G, pairs) == [tuple(sorted(pairs))]
    for case, G, domain, tuple_sets in _orbit_cases(corpus):
        assert orbits(G) == _closure_blocks(G, domain, Permutation.__call__), case
        for tuples in tuple_sets:
            expected = _closure_blocks(G, tuples, Permutation.apply_tuple)
            assert orbits_on_tuples(G, tuples) == expected, case


def test_orbits_of_the_trivial_group_are_singletons():
    G = PermGroup([], 4)
    assert orbits(G) == [(0,), (1,), (2,), (3,)]
    assert orbits(PermGroup([], 0)) == []
    assert orbits_on_tuples(G, [(1, 0), (0, 1)]) == [((0, 1),), ((1, 0),)]


@pytest.mark.hashseed
def test_tuple_orbits_of_a_group_with_no_generators_equal_the_search():
    # the singletons orbits_on_tuples returns for a group with no
    # generators, against the breadth-first search it skips, over random
    # tuple sets of arity 0-3 on 1-6 points, with repeats, in random order
    import random

    from stablelift.groups import _orbit_search

    rng = random.Random(5)
    for _ in range(200):
        n, arity = rng.randint(1, 6), rng.randint(0, 3)
        G = PermGroup([], n)
        tuples = [tuple(rng.randrange(n) for _ in range(arity)) for _ in range(rng.randint(0, 12))]
        act = lambda g, t: tuple([g[x] for x in t])  # noqa: E731
        searched = [tuple(sorted(orbit)) for _, orbit in _orbit_search(G, set(tuples), act)]
        assert orbits_on_tuples(G, tuples) == searched == [(t,) for t in sorted(set(tuples))]


def test_a_group_refuses_a_generator_of_another_degree():
    with pytest.raises(GroupError, match=r"^all generators must share the group's degree$"):
        PermGroup([Permutation((1, 0, 2)), Permutation((1, 0))], 3)


def test_is_automorphism_refuses_a_permutation_of_another_degree(m_triple):
    with pytest.raises(GroupError, match=r"^permutation degree 2 != domain size 3$"):
        is_automorphism(m_triple, Permutation((1, 0)))


def test_orbits_on_tuples_names_an_escaping_orbit(m_pair):
    # the swap of 0 and 1 carries (0, 1) to (1, 0), which the set lacks
    G = automorphism_group(m_pair)
    with pytest.raises(GroupError) as raised:
        orbits_on_tuples(G, [(0, 1), (1, 1)])
    assert str(raised.value) == "tuple set not invariant: orbit of (0, 1) escapes"


def test_pointwise_stabilizer_examples(m_pair, m_triple):
    assert automorphism_group(m_pair, fixed=[0]).order() == 1
    assert automorphism_group(m_triple, fixed=[0]).order() == 2
    assert automorphism_group(m_triple, fixed=[]).order() == 6
    assert automorphism_group(m_triple, fixed=[0, 1, 2]).order() == 1
    # a support is a set: order and repeats do not matter
    assert automorphism_group(m_triple, fixed=(2, 0, 2)).elements() == automorphism_group(
        m_triple, fixed=[0, 2]
    ).elements()


def test_pointwise_stabilizer_composes(m_triple):
    # the stabilizer of 1 in the searched stabilizer of 0, by Schreier-Sims,
    # is the search's stabilizer of {0, 1}
    two_step = reference.pointwise_stabilizer(automorphism_group(m_triple, fixed=[0]), [1])
    direct = automorphism_group(m_triple, fixed=[0, 1])
    assert reference.elements(two_step) == direct.elements()


def test_stabilizer_members_match_brute_filter(corpus):
    for _, M in corpus[60:69]:
        for A in ([0], [1], [0, 2]):
            expected = [p for p in automorphism_group_brute(M) if all(p(a) == a for a in A)]
            assert automorphism_group(M, fixed=A).elements() == expected


@pytest.mark.parametrize(
    "call, shown",
    [
        # 1.0 would escape as a bare TypeError from a tuple index
        (lambda M: automorphism_group(M, fixed=[1.0]), "1.0"),
        # a string would escape from the degree comparison
        (lambda M: automorphism_group(M, fixed=[0, "a"]), "'a'"),
        # True would be taken for the point 1
        (lambda M: automorphism_group(M, fixed=[True]), "True"),
    ],
    ids=["stabilizer-float", "stabilizer-str", "stabilizer-bool"],
)
def test_points_that_are_not_int_are_refused(m_triple, call, shown):
    with pytest.raises(GroupError, match=f"^element {shown} is not an int$"):
        call(m_triple)


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda M: automorphism_group(M, fixed=[3]), "3"),
        (lambda M: automorphism_group(M, fixed=[1, -1]), "-1"),
    ],
    ids=["stabilizer-above", "stabilizer-below"],
)
def test_points_outside_the_degree_are_refused(m_triple, call, shown):
    with pytest.raises(GroupError, match=f"^element {shown} outside degree 3$"):
        call(m_triple)


def test_the_first_bad_point_is_named():
    # the message names the first bad point, whether it is out of range or
    # no int
    from stablelift.groups import _check_points

    for points, message in (
        ([0, 7, 1.0], "element 7 outside degree 3"),
        ([0, 1.0, 7], "element 1.0 is not an int"),
        ([2, True, -1], "element True is not an int"),
        ([-2, "a"], "element -2 outside degree 3"),
    ):
        with pytest.raises(GroupError, match=f"^{message}$"):
            _check_points(3, points)
    assert _check_points(3, iter([2, 0, 2])) == (0, 2)
    assert _check_points(0, []) == ()


def test_a_group_of_unknown_order_answers_orbits_only(m_triple):
    # a group of arbitrary generators gives its orbits; its order, members
    # and printed generators would need Schreier-Sims, so they raise
    G = PermGroup([Permutation((1, 0, 2, 3)), Permutation((0, 1, 3, 2))], 4)
    assert orbits(G) == [(0, 1), (2, 3)]
    for ask in (G.order, G.elements, G.to_json_dict):
        with pytest.raises(GroupError, match="order is unknown"):
            ask()
    # told its order, a group lists its members as the identity's orbit with
    # no strong generating set: (0 1 2) and (0 1) give level orbits 3 * 1 on
    # the base order 0, 1, 2, yet generate all six permutations
    told = PermGroup([Permutation((1, 2, 0)), Permutation((1, 0, 2))], 3, order=6)
    assert told.order() == 6
    assert _level_orbits(told)[1] == 3
    assert told.elements() == [Permutation(p) for p in itertools.permutations(range(3))]
    # told an order its generators do not give, it lists no members
    for wrong in (3, 12):
        with pytest.raises(GroupError, match=f"^the generators give a group of order 6, not {wrong}$"):
            PermGroup(told.generators, 3, order=wrong).elements()


def test_group_serialization(m_triple):
    data = automorphism_group(m_triple).to_json_dict()
    assert data["degree"] == 3
    assert data["order"] == "6"
    assert all(isinstance(g, list) for g in data["generators"])


def test_deterministic_generators(m_triple):
    a = automorphism_group(m_triple)
    b = automorphism_group(m_triple)
    assert [g.images for g in a.generators] == [g.images for g in b.generators]


def _closure(gens, degree):
    # multiplication closure, an oracle independent of the stabilizer chain
    elems = {identity(degree)} | set(gens)
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in gens:
            for b in frontier:
                c = multiply(a, b)
                if c not in elems:
                    elems.add(c)
                    nxt.append(c)
        frontier = nxt
    return elems


def test_chain_order_matches_multiplication_closure():
    # the Schreier-Sims reference, for groups of arbitrary generators
    import random

    rng = random.Random(99)
    for degree in (4, 5, 6, 7):
        for _ in range(5):
            gens = [
                Permutation(tuple(rng.sample(range(degree), degree)))
                for _ in range(rng.randrange(1, 4))
            ]
            G = PermGroup(gens, degree)
            closure = _closure(gens, degree)
            assert reference.order(G) == len(closure)
            assert set(reference.elements(G)) == closure
            sample = rng.sample(sorted(closure, key=lambda p: p.images),
                                min(10, len(closure)))
            assert reference.contains(G, *sample)
            outside = Permutation(tuple(rng.sample(range(degree), degree)))
            assert reference.contains(G, outside) == (outside in closure)


def test_stabilizer_matches_closure_filter():
    # the Schreier-Sims reference's stabilizers of arbitrary generators
    import random

    rng = random.Random(7)
    for degree in (5, 6):
        gens = [
            Permutation(tuple(rng.sample(range(degree), degree))) for _ in range(2)
        ]
        G = PermGroup(gens, degree)
        closure = _closure(gens, degree)
        for A in ([0], [1, 3], [0, 2, 4]):
            expected = sorted(
                (p for p in closure if all(p(a) == a for a in A)),
                key=lambda p: p.images,
            )
            assert reference.elements(reference.pointwise_stabilizer(G, A)) == expected


def test_base_points_ascend(m_triple):
    # the first path individualizes the least point of any open cell, so
    # each generator's first moved point is a base point, and the level
    # orbits' lengths multiply to the order with nothing sifted
    for M in (m_triple, digraph(6, []), digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])):
        G = automorphism_group(M)
        base = [b for b, _ in _level_orbits(G)[0]]
        assert base == sorted(base)
        firsts = {next(x for x, y in enumerate(g.images) if x != y) for g in G.generators}
        assert sorted(firsts) == base
        assert _level_orbits(G)[1] == G.order()


def test_elements_agree_under_concurrent_calls(m_triple):
    import threading

    gens = automorphism_group(m_triple).generators
    for _ in range(20):
        G = PermGroup(gens, 3, order=6)
        listed = []
        threads = [
            threading.Thread(target=lambda: listed.append(G.elements()))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        assert listed == [automorphism_group_brute(m_triple)] * 8


# -- search vs oracle on random digraphs and their lifts -----------------------------


def _random_digraphs(seed, count, max_size=6):
    import random

    from references import random_digraph_at

    rng = random.Random(seed)
    return [
        random_digraph_at(rng, rng.randint(1, max_size), rng.choice([0.2, 0.4, 0.6]))
        for _ in range(count)
    ]


def _printed(G):
    """The generators G.to_json_dict prints, as permutations."""
    return [Permutation(tuple(g)) for g in G.to_json_dict()["generators"]]


def _greedy_lex_sift(members):
    """Reference generating set: walk the automorphisms in lex order and
    keep each one the kept ones do not generate (membership by closure)."""
    gens = []
    generated = set()
    for pi in members:
        if pi not in generated:
            gens.append(pi)
            generated = _closure(gens, pi.degree)
    return [g for g in gens if not g.is_identity()]


def test_search_equals_oracle_on_random_digraphs_and_lifts():
    from stablelift.lifting import direct_induced

    for M in _random_digraphs(2024, 40):
        assert automorphism_group(M).elements() == automorphism_group_brute(M)
        members_M = automorphism_group_brute(M)
        for k in (1, 2):
            lift = build_lift(M, LiftConfig(k=k))
            G = automorphism_group(lift.structure)
            if lift.structure.size <= 8:
                assert G.elements() == automorphism_group_brute(lift.structure)
            # the transfer map is an oracle independent of the search on N
            assert G.elements() == sorted(
                (direct_induced(lift, pi) for pi in members_M), key=lambda p: p.images
            )


def _cycle(n):
    return [(i, (i + 1) % n) for i in range(n)]


# regular graphs as (size, undirected edges); refinement cannot split a
# regular graph's vertices, so its search runs on individualization alone
REGULAR_GRAPHS = {
    # cubic; two subtrees of its Aut(M) search hold no automorphism
    "cubic 8": (8, [(0, 1), (0, 6), (0, 7), (1, 4), (1, 5), (2, 4), (2, 5), (2, 6),
                    (3, 4), (3, 5), (3, 7), (6, 7)]),
    "cube": (8, [(a, a ^ b) for a in range(8) for b in (1, 2, 4) if a < a ^ b]),
    "Wagner": (8, _cycle(8) + [(i, i + 4) for i in range(4)]),
    "two K4": (8, [(a + s, b + s) for s in (0, 4) for a in range(4) for b in range(a + 1, 4)]),
    "circulant 7 (1, 2)": (7, [(i, (i + j) % 7) for i in range(7) for j in (1, 2)]),
    "prism": (6, _cycle(3) + [(a + 3, (a + 1) % 3 + 3) for a in range(3)]
              + [(a, a + 3) for a in range(3)]),
    "K3,3": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "two triangles": (6, _cycle(3) + [(a + 3, (a + 1) % 3 + 3) for a in range(3)]),
    "C6": (6, _cycle(6)),
    "C5": (5, _cycle(5)),
    "K4": (4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),
}


def _backtracks(M):
    """Aut(M) by the search, and how often a node of the search returned
    from leaf_below's last line: no child of it reached an automorphism."""
    import sys

    import stablelift.groups as groups

    hits = 0

    def calls(frame, event, arg):
        code = frame.f_code
        if code.co_name != "leaf_below" or code.co_filename != groups.__file__:
            return None
        last = max(line for *_, line in code.co_lines() if line is not None)

        def lines(frame, event, arg):
            nonlocal hits
            hits += event == "return" and frame.f_lineno == last
            return lines

        return lines

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        G = automorphism_group(M)
    finally:
        sys.settrace(previous)
    return G, hits


def test_search_equals_oracle_on_regular_graphs():
    # each edge in both directions; every stabilizer of one or two points is
    # checked against Schreier-Sims and against the brute filter, and the
    # lift at k = 1 is certified with the search's generators
    from stablelift.lifting import certify_induced_group, direct_induced

    backtracks = {}
    for name, (n, edges) in REGULAR_GRAPHS.items():
        M = digraph(n, sorted({*edges, *((b, a) for a, b in edges)}))
        G, backtracks[name] = _backtracks(M)
        members = automorphism_group_brute(M)
        assert G.elements() == members, name
        for A in [*itertools.combinations(M.domain, 1), *itertools.combinations(M.domain, 2)]:
            searched = automorphism_group(M, fixed=A).elements()
            assert searched == reference.elements(reference.pointwise_stabilizer(G, A))
            assert searched == [g for g in members if all(g(a) == a for a in A)], (name, A)
        N = build_lift(M, LiftConfig(k=1))
        certify_induced_group(N, G.generators, [direct_induced(N, g) for g in G.generators])
    assert backtracks["cubic 8"] > 0



def test_search_equals_oracle_with_functions_constants_and_ternary_relations():
    import random

    from stablelift.structures import Signature, Structure

    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 6)
        sig = Signature(
            relations=(("R", 3), ("E", 2), ("U", 1)),
            functions=("f",) if rng.random() < 0.5 else (),
            constants=("c",) if rng.random() < 0.3 else (),
        )
        m = rng.choice([0, 1, 2, 4])
        edges = {tuple(rng.randrange(n) for _ in range(2)) for _ in range(m)}
        shift = rng.sample(range(n), n)
        for _ in range(n):  # close E under a permutation, for symmetry
            edges |= {(shift[a], shift[b]) for a, b in edges}
        f = tuple(rng.sample(range(n), n) if rng.random() < 0.6 else
                  [rng.randrange(n) for _ in range(n)])
        M = Structure(
            sig=sig,
            size=n,
            relations={
                "R": [tuple(rng.randrange(n) for _ in range(3)) for _ in range(m)],
                "E": sorted(edges),
                "U": [(rng.randrange(n),) for _ in range(rng.randint(0, 2))],
            },
            functions={"f": f} if sig.functions else {},
            constants={"c": rng.randrange(n)} if sig.constants else {},
            repetition_free=False,
        )
        members = automorphism_group_brute(M)
        G = automorphism_group(M)
        assert G.elements() == members
        assert _printed(G) == _greedy_lex_sift(members)


def _views_per_position_pair(M):
    """One table y -> [x, ...] per ordered pair of distinct positions of
    each relation, equal columns or not, and per direction of each
    function's graph; empty tables dropped."""
    tables = []
    for name, arity in M.sig.relations:
        for p, q in itertools.permutations(range(arity), 2):
            table = [[] for _ in range(M.size)]
            for t in M.relations[name]:
                table[t[p]].append(t[q])
            tables.append(table)
    for f in M.sig.functions:
        images = M.functions[f]
        tables.append([[images[y]] for y in M.domain])
        tables.append([[x for x in M.domain if images[x] == y] for y in M.domain])
    return [t for t in tables if any(t)]


def test_search_equals_oracle_where_relations_repeat_a_column():
    """Ternary and 4-ary relations whose tuples repeat positions by a fixed
    pattern, so equal columns share one view: the search still matches the
    brute oracle, the merged views hold fewer entries than a table per
    ordered pair of positions, and refinement, root and children alike,
    yields the cells that the reference refinement over those tables
    yields."""
    import random

    import refinement_oracle as reference
    from stablelift.groups import _adjacency, _individualize, _root_partition
    from stablelift.structures import Signature, Structure

    rng = random.Random(17)
    sig = Signature(relations=(("T", 3), ("Q", 4)))
    for _ in range(100):
        n = rng.randint(1, 6)
        shift = rng.sample(range(n), n)
        relations = {}
        for name, arity in sig.relations:
            # arity positions read arity - 1 entries, so some column repeats
            pattern = [rng.randrange(arity - 1) for _ in range(arity)]
            cores = {tuple(rng.randrange(n) for _ in range(arity - 1)) for _ in range(3)}
            for _ in range(n):  # close under a permutation, for symmetry
                cores |= {tuple(shift[x] for x in c) for c in cores}
            relations[name] = sorted({tuple(c[i] for i in pattern) for c in cores})
        M = Structure(sig=sig, size=n, relations=relations, repetition_free=False)
        members = automorphism_group_brute(M)
        G = automorphism_group(M)
        assert G.elements() == members
        assert _printed(G) == _greedy_lex_sift(members)
        fast, slow = _adjacency(M), _views_per_position_pair(M)
        assert sum(map(len, fast)) < sum(len(row) for table in slow for row in table)
        # the same cells, though keys of another kind may order them otherwise
        roots = _root_partition(M, fast), reference.root_partition(M, slow)
        assert reference.cell_set(roots[0]) == reference.cell_set(roots[1])
        for v in (v for cell in _cells(roots[0]) if len(cell) > 1 for v in cell):
            assert reference.cell_set(_individualize(fast, roots[0], v)) == reference.cell_set(
                reference.individualize(slow, roots[1], v)
            )


def test_generators_are_the_greedy_lex_sift_of_the_brute_list(corpus):
    cases = [M for _, M in corpus[::4]] + _random_digraphs(7, 15, max_size=5)
    for M in cases:
        structures = [M] + [
            N.structure
            for N in (build_lift(M, LiftConfig(k=k)) for k in (1, 2))
            if N.structure.size <= 8
        ]
        for X in structures:
            members = automorphism_group_brute(X)
            G = automorphism_group(X)
            assert G.elements() == members
            assert _printed(G) == _greedy_lex_sift(members)


def _iso_symmetric_families():
    """The digraphs of the iso-symmetric workload: empty and complete on 4-6
    vertices, the 5- and 6-cycles, and two disjoint 3-cycles."""
    families = [digraph(n, edges) for n in (4, 5, 6) for edges in (
        [], [(i, j) for i in range(n) for j in range(n) if i != j]
    )] + [digraph(n, [(i, (i + 1) % n) for i in range(n)]) for n in (5, 6)]
    families.append(digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    return families


def _greedy_cases(corpus, random_structures):
    """(structure, automorphism group) pairs: the corpus and the
    iso-symmetric families with their lifts at k = 1, 2, and seeded random
    structures with a function and a constant."""
    for M in [M for _, M in corpus] + _iso_symmetric_families():
        yield M, automorphism_group(M)
        for k in (1, 2):
            S = build_lift(M, LiftConfig(k=k)).structure
            yield S, automorphism_group(S)
    for M in random_structures:
        yield M, automorphism_group(M)


def test_generators_equal_the_walk_with_a_second_chain(corpus, random_structures):
    # the search's generators, which the printer prints, against a pruned
    # lex walk of a Schreier-Sims chain with a second one; they generate the
    # group whose order they are told
    for M, G in _greedy_cases(corpus, random_structures):
        expected, H = greedy_lex_generators(G)
        assert _printed(G) == expected
        assert H.size() == reference.order(G) == _level_orbits(G)[1] == G.order()


def test_the_search_finds_the_greedy_generators_of_the_order_8_digraph():
    # a search whose first path took the first open cell by position found
    # three generators here, (3 0) beside the two greedy ones; from an
    # ascending base it finds the greedy ones, which aut prints as found
    M = digraph(6, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 0), (1, 2), (1, 3), (1, 4),
                    (2, 0), (2, 1), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 5),
                    (4, 1), (4, 2), (5, 0), (5, 3)])
    G = automorphism_group(M)
    assert [g.images for g in G.generators] == [(0, 2, 1, 3, 4, 5), (1, 0, 3, 2, 5, 4)]
    assert G.to_json_dict() == {
        "degree": 6, "generators": [[0, 2, 1, 3, 4, 5], [1, 0, 3, 2, 5, 4]], "order": "8"
    }
    members = automorphism_group_brute(M)
    assert G.elements() == members
    assert _printed(G) == _greedy_lex_sift(members)


def test_a_group_told_its_order_matches_one_that_is_not(corpus, random_structures):
    # the search's group is told its order, and its generators are a strong
    # generating set, whose level orbits are the fundamental orbits;
    # Schreier-Sims on the same generators, not told, grows the chain of the
    # same group over the same base, with the same fundamental orbits and
    # members.  A stabilizer the
    # search finds with the support individualized has the orbits of the
    # Schreier-Sims stabilizer
    import random

    rng = random.Random(17)
    for M, G in _greedy_cases(corpus, random_structures):
        grown = reference.chain(G)
        assert grown.size() == G.order()
        assert [sorted(grown.trans[b]) for b in grown.nontrivial_levels()] == [
            sorted(orbit) for _, orbit in _level_orbits(G)[0]
        ]
        members = reference.elements(G)
        assert G.elements() == members
        others = [Permutation(tuple(rng.sample(range(M.size), M.size))) for _ in range(20)]
        listed = set(members)
        for g in others:
            assert reference.contains(G, g) == (g in listed)
        supports = [range(j) for j in range(1, M.size)] + [[a] for a in M.domain]
        supports += [rng.sample(M.domain, min(M.size, 3)) for _ in range(10)]
        search = stabilizer_search(M)
        for A in supports:
            assert orbits(search(A)) == orbits(reference.pointwise_stabilizer(G, A))


def test_one_root_serves_every_stabilizer_in_any_order(corpus, random_structures):
    # one stabilizer_search(M) searches every support of at most two points,
    # in ascending order and then in reverse, from the root it built once;
    # each has the generators and order of a search from a fresh root.  The
    # lifts at k = 2 are left out: their fresh roots take 8 s more
    sources = [M for _, M in corpus]
    lifts = [build_lift(M, LiftConfig(k=1)).structure for M in sources]
    for M in sources + lifts + random_structures:
        supports = [A for r in range(3) for A in itertools.combinations(M.domain, r)]
        fresh = {A: automorphism_group(M, fixed=A) for A in supports}
        search = stabilizer_search(M)
        for A in supports + supports[::-1]:
            G = search(A)
            assert (G.generators, G.order()) == (fresh[A].generators, fresh[A].order()), (M, A)


def test_leaf_checks_grow_with_the_chain_not_the_group(monkeypatch):
    import stablelift.groups as groups

    calls = []
    original = groups.is_automorphism

    def counting(M, pi):
        calls.append(pi)
        return original(M, pi)

    monkeypatch.setattr(groups, "is_automorphism", counting)
    M = digraph(6, [])
    for X in (M, build_lift(M, LiftConfig(k=1)).structure):
        calls.clear()
        G = automorphism_group(X)
        assert G.order() == 720
        levels, _ = _level_orbits(G)
        bound = sum(len(orbit) for _, orbit in levels) + len(levels)
        assert 0 < len(calls) <= bound < 720
        # every accepted leaf joins two orbits of the automorphisms found
        # before it, and no leaf is rejected on these structures
        assert len(calls) <= X.size - len(orbits(G))


def _cells(node):
    lab, _, size = node
    return [lab[s:s + k] for s, k in sorted(size.items())]


def test_root_partition_refines_the_sorts_and_is_equitable(type_structures):
    from collections import Counter

    import refinement_oracle
    from stablelift.formulas import sort_partition
    from stablelift.groups import _adjacency, _refine, _root_partition
    from stablelift.stability import qf_type_census

    for M in type_structures:
        adj = _adjacency(M)
        views = _views_per_position_pair(M)
        # from the sorts, and refined from the depth-1 census blocks
        for sorts in (None, qf_type_census(M, ()).blocks):
            if sorts is None:
                node = _root_partition(M, adj)
            else:
                node = refinement_oracle.partition(M.size, sorts)
                _refine(adj, *node, sorted(node[2]))
            lab, cell_of, size = node
            cells = _cells(node)
            assert sorted(lab) == list(M.domain)
            assert all(cell_of[x] == s for s, k in size.items() for x in lab[s:s + k])
            # every cell lies inside one sort
            sort_of = {x: key for key, block in sort_partition(M).items() for x in block}
            assert all(len({sort_of[x] for x in cell}) == 1 for cell in cells)
            # and inside one of the given blocks
            if sorts is not None:
                block_of = {x: i for i, block in enumerate(sorts) for x in block}
                assert all(len({block_of[x] for x in cell}) == 1 for cell in cells)
            # equitable: within a cell, every element is hit equally often
            # from each cell through each view
            for table in views:
                for splitter in cells:
                    hits = Counter(x for y in splitter for x in table[y])
                    assert all(len({hits[x] for x in cell}) == 1 for cell in cells)


def test_root_partition_splits_by_degree_within_a_sort():
    from stablelift.groups import _adjacency, _root_partition

    # a path 0 -> 1 -> 2 -> 3: one sort, but the ends differ in degree
    M = digraph(4, [(0, 1), (1, 2), (2, 3)])
    node = _root_partition(M, _adjacency(M))
    assert sorted(map(sorted, _cells(node))) == [[0], [1], [2], [3]]


# -- Aut(N) from the lift's coordinates over its base copy -----------------------


def _lift_cases(corpus):
    """(case, lift) pairs: the corpus and the iso-symmetric families at
    k = 1, 2, and the seeded random structures of test_lifting that have a
    ternary relation (repetition-free for even seeds), lifted at k = 1, 2
    with and without repetition tuples."""
    from test_lifting import _random_relational_structure

    sources = list(corpus) + [(f"family {i}", M) for i, M in enumerate(_iso_symmetric_families())]
    for name, M in sources:
        for k in (1, 2):
            yield (name, k), build_lift(M, LiftConfig(k=k))
    for seed in range(40):
        M = _random_relational_structure(seed)
        if 3 not in dict(M.sig.relations).values():
            continue
        for k, repeats in itertools.product((1, 2), (False, True)):
            config = LiftConfig(k=k, include_repetition_tuples=repeats)
            yield (f"random {seed}", k, repeats), build_lift(M, config)


def test_certified_group_equals_the_search_on_lifts(corpus):
    """On every lift both certificates hold: the coordinate names, equal to
    their element-by-element reference, and the reference refinement from
    the sort table with the base points split off.  The group of the
    induced generators, which certify_induced_group vouches for, is the
    plain search's: the same order, each holding the other's generators,
    and the order of the backtracking oracle.  The naming points it returns
    are read off the provenance: none for the anchor, its source point for
    a base element, and the coordinates of a fiber element."""
    from automorphism_oracle import automorphisms
    from stablelift.lifting import (
        BaseElem,
        FiberElem,
        _rigid_over_base,
        certify_induced_group,
        direct_induced,
    )

    for case, N in _lift_cases(corpus):
        S, M = N.structure, N.source
        assert _rigid_over_base(N) == naming_points(N), case
        assert _rigid_over_base(N), case
        assert rigid_over(S, N.sorts.values(), [N.base_id(a) for a in M.domain]), case
        GM = automorphism_group(M)
        induced = [direct_induced(N, g) for g in GM.generators]
        names = certify_induced_group(N, GM.generators, induced)
        assert names == tuple(
            (p.source,) if isinstance(p, BaseElem)
            else p.coords if isinstance(p, FiberElem) else ()
            for p in N.provenance
        ), case
        certified = PermGroup(induced, S.size)
        searched = automorphism_group(S)
        assert reference.order(certified) == searched.order() == GM.order(), case
        assert reference.contains(searched, *certified.generators), case
        assert reference.contains(certified, *searched.generators), case
        assert searched.order() == len(automorphisms(S, budget=2_000_000)), case


def test_naming_certificate_equals_its_row_loop(corpus):
    """_rigid_over_base, which reads columns over the fiber elements, against
    the loop over each element's row that it replaced: on the lifts of
    _lift_cases, on the corpus at k = 3, with and without repetition tuples,
    on lifts of mixed signatures, and on lifts doctored to share a name or
    to project outside the anchor and the base copy, where both give
    None."""
    from references import rigid_over_base_by_row
    from stablelift.lifting import _rigid_over_base, fiber_sort
    from test_lifting import _mixed_structure, _ternary_structure, _two_binary_structure

    lifts = [N for _, N in _lift_cases(corpus)]
    lifts += [build_lift(M, LiftConfig(k=3, include_repetition_tuples=repeats))
              for _, M in corpus for repeats in (False, True)]
    lifts += [build_lift(make(), LiftConfig(k=k, include_repetition_tuples=repeats))
              for make in (_mixed_structure, _ternary_structure, _two_binary_structure)
              for k in (1, 2, 3) for repeats in (False, True)]
    refused = 0
    for N in lifts:
        assert _rigid_over_base(N) == rigid_over_base_by_row(N) is not None
        copies = [block for sort, block in N.sorts.items()
                  if sort.startswith("fiber_") and len(block) > 1]
        if not copies:
            continue
        first, second = copies[0][:2]

        def shared(images):
            return images[:second] + (images[first],) + images[second + 1:]

        def off_the_base(images):
            return images[:first] + (second,) + images[first + 1:]

        for doctor in (shared, off_the_base):
            doctored = _with_projections(N, doctor)
            assert _rigid_over_base(doctored) is rigid_over_base_by_row(doctored) is None
            refused += 1
    assert refused > 100


def test_rigidity_needs_the_base_points():
    # the reference certificate on the lift of the empty 3-vertex digraph,
    # Aut = Sym(3): with no point or one base point fixed, a transposition
    # of two base points survives; with two fixed the third is alone in its
    # cell, as good as all three
    for k in (1, 2):
        N = build_lift(digraph(3, []), LiftConfig(k=k))
        S, sorts = N.structure, list(N.sorts.values())
        base = [N.base_id(a) for a in range(3)]
        assert not rigid_over(S, sorts, [])
        for a in base:
            assert not rigid_over(S, sorts, [a])
            assert rigid_over(S, sorts, [b for b in base if b != a])
        assert rigid_over(S, sorts, base)


def _with_projections(N, doctor):
    """N with each projection function's images replaced by doctor(images)."""
    from dataclasses import replace

    from stablelift.lifting import projection_function

    S = N.structure
    functions = dict(S.functions)
    for rel, arity in N.source.sig.relations:
        for t in range(arity):
            name = projection_function(rel, t)
            functions[name] = doctor(functions[name])
    return replace(N, structure=replace(S, functions=functions))


def test_a_lift_with_flattened_projections_fails_both_certificates():
    # every projection sent to the anchor: fibers over different tuples of
    # the empty 3-vertex digraph's lift are then alike, and swapping two
    # whole fibers is an automorphism that fixes the base copy
    from stablelift.lifting import _rigid_over_base

    for k in (1, 2):
        N = _with_projections(build_lift(digraph(3, []), LiftConfig(k=k)), lambda f: (0,) * len(f))
        S, M = N.structure, N.source
        base = [N.base_id(a) for a in M.domain]
        assert not _rigid_over_base(N)
        assert not rigid_over(S, N.sorts.values(), base)
        assert automorphism_group(S, fixed=base).order() > 1


def test_a_projection_onto_a_fiber_element_is_refused():
    # one fiber element of the 3-cycle's lift projects to another fiber
    # element, which an automorphism fixing the base copy might move
    from stablelift.lifting import _rigid_over_base, fiber_predicate

    N = build_lift(digraph(3, [(0, 1), (1, 2), (2, 0)]), LiftConfig(k=1))
    first, second = sorted(e for (e,) in N.structure.relation_sets[fiber_predicate("edge")])[:2]

    def onto_a_fiber(images):
        return images[:first] + (second,) + images[first + 1:]

    assert _rigid_over_base(N)
    assert not _rigid_over_base(_with_projections(N, onto_a_fiber))


def test_naming_points_of_a_lift_with_no_relation():
    # no relation gives no name column, and the lift is the anchor and the
    # base copy alone
    from stablelift.lifting import _rigid_over_base
    from stablelift.structures import Signature, Structure

    N = build_lift(Structure(sig=Signature(), size=3), LiftConfig(k=2))
    assert _rigid_over_base(N) == naming_points(N) == ((), (0,), (1,), (2,))


@pytest.mark.parametrize("doctor", ["shared names", "value off the base"])
def test_the_naming_certificate_refuses_a_doctored_lift(doctor):
    # two elements of the sort fiber_edge[0] (same fiber predicate, same
    # copy selectors fixing them) given the same projection values, so no
    # name tells them apart; or the first given a projection value in a
    # fiber, outside the anchor and the base copy
    from stablelift.lifting import _rigid_over_base, fiber_sort

    for edges in ([], [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 3)]):
        for k in (1, 2):
            N = build_lift(digraph(4, edges), LiftConfig(k=k))
            first, second = N.sorts[fiber_sort("edge", 0)][:2]

            def doctored(images):
                value = images[first] if doctor == "shared names" else second
                target = second if doctor == "shared names" else first
                return images[:target] + (value,) + images[target + 1:]

            assert _rigid_over_base(N) is not None
            assert _rigid_over_base(_with_projections(N, doctored)) is None, (edges, k)
            assert naming_points(_with_projections(N, doctored)) is None, (edges, k)


@pytest.mark.parametrize("doctor", ["drop", "add"])
def test_a_lift_that_does_not_encode_its_source_is_an_internal_error(doctor):
    # the lift of the directed 3-cycle given a source that lost an edge or
    # gained one: its limit elements project onto the 3-cycle, not onto the
    # source, so it is refused, rigid over its base as it is
    from dataclasses import replace

    import stablelift.lifting as lifting

    cycle = [(0, 1), (1, 2), (2, 0)]
    N = build_lift(digraph(3, cycle), LiftConfig(k=1))
    GM = automorphism_group(N.source)
    induced = [lifting.direct_induced(N, g) for g in GM.generators]
    lifting.certify_induced_group(N, GM.generators, induced)
    edges = cycle[:2] if doctor == "drop" else cycle + [(1, 0)]
    doctored = replace(N, source=digraph(3, edges))
    with pytest.raises(lifting.LiftError, match=r"\(internal error\)$"):
        lifting.certify_induced_group(doctored, GM.generators, induced)


def test_images_generating_a_proper_subgroup_are_an_internal_error():
    # the images of Sym(3)'s generators with the first image repeated in
    # place of the others: automorphisms of the lift, but they generate a
    # group of order 2, not |Aut(M)| = 6, since they do not restrict to
    # their generators
    from stablelift.lifting import LiftError, certify_induced_group, direct_induced

    N = build_lift(digraph(3, []), LiftConfig(k=1))
    generators = automorphism_group(N.source).generators
    assert len(generators) == 2
    induced = [direct_induced(N, generators[0])] * len(generators)
    with pytest.raises(LiftError, match=r"\(internal error\)$"):
        certify_induced_group(N, generators, induced)


def test_images_and_generators_are_paired_one_to_one():
    from stablelift.lifting import certify_induced_group, direct_induced

    N = build_lift(digraph(3, []), LiftConfig(k=1))
    generators = automorphism_group(N.source).generators
    induced = [direct_induced(N, g) for g in generators]
    with pytest.raises(ValueError, match="zip"):
        certify_induced_group(N, generators, induced[:1])


def test_an_induced_image_that_is_no_automorphism_is_refused():
    from stablelift.lifting import LiftError, certify_induced_group

    N = build_lift(digraph(3, []), LiftConfig(k=1))
    swap = list(range(N.structure.size))
    swap[0], swap[1] = 1, 0
    with pytest.raises(LiftError, match="^not an automorphism of the lift$"):
        certify_induced_group(N, [Permutation((1, 0, 2))], [Permutation(tuple(swap))])
