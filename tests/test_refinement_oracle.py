"""The search's refinement and leaf check against the reference forms in
refinement_oracle: merged weighted views with largest-fragment queueing
give the cells that per-view tables with every fragment queued give, the
summed weights tell apart what the per-view counts tell apart, and the
column-wise leaf check gives the per-tuple verdict."""

import itertools
import random
from collections import Counter

import pytest

import refinement_oracle as reference
from stablelift.groups import (
    Permutation,
    _adjacency,
    _individualize,
    _refine,
    _root_partition,
    automorphism_group,
    is_automorphism,
)
from stablelift.stability import qf_type_census
from stablelift.structures import Signature, Structure

pytestmark = pytest.mark.hashseed


def test_refinement_gives_the_reference_cells_at_the_root_and_its_children(
    type_structures, random_structures
):
    # the corpus, its lifts at k = 1, 2 and 320 random structures with
    # relations of arity 1-3, a function and a constant
    children = 0
    for M in type_structures + random_structures:
        adj, tables = _adjacency(M), reference.view_tables(M)
        # from the sorts, and from the depth-1 census blocks
        for sorts in (None, qf_type_census(M, ()).blocks):
            if sorts is None:
                root = _root_partition(M, adj)
            else:
                root = reference.partition(M.size, sorts)
                _refine(adj, *root, sorted(root[2]))
            expected = reference.root_partition(M, tables, sorts)
            assert reference.cell_set(root) == reference.cell_set(expected)
            lab, _, size = root
            for v in (v for s, k in size.items() if k > 1 for v in lab[s:s + k]):
                assert reference.cell_set(_individualize(adj, root, v)) == reference.cell_set(
                    reference.individualize(tables, expected, v)
                )
                children += 1
    assert children > 1000


def test_summed_weights_keep_view_counts_apart_past_the_domain_size():
    # from the whole domain, 0 is hit once through each view into the first
    # column and 1 five times through each view into the third: counts above
    # the domain size, which a weight base of n + 1 would sum up alike
    T = [(0, 2, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1)]
    M = Structure(
        sig=Signature(relations=(("T", 3),)), size=4, relations={"T": T}, repetition_free=False
    )
    adj, tables = _adjacency(M), reference.view_tables(M)
    for r in range(M.size + 1):
        for splitter in itertools.combinations(M.domain, r):
            keys = Counter()
            for y in splitter:
                for x, w in adj[y]:
                    keys[x] += w
            counts = {x: [sum(t[y].count(x) for y in splitter) for t in tables] for x in M.domain}
            for x, z in itertools.combinations(M.domain, 2):
                assert (keys[x] == keys[z]) == (counts[x] == counts[z])


def test_leaf_check_gives_the_per_tuple_verdict(type_structures, random_structures):
    rng = random.Random(29)
    verdicts = []
    for M in type_structures + random_structures:
        G = automorphism_group(M)
        candidates = [g.images for g in G.generators]
        candidates += [tuple(rng.sample(range(M.size), M.size)) for _ in range(4)]
        # a random member of the group, and one with two images swapped
        member = list(range(M.size))
        for g in rng.choices(G.generators, k=3) if G.generators else ():
            member = [g.images[x] for x in member]
        candidates.append(tuple(member))
        if M.size > 1:
            i, j = rng.sample(range(M.size), 2)
            member[i], member[j] = member[j], member[i]
            candidates.append(tuple(member))
        for images in candidates:
            verdict = is_automorphism(M, Permutation(images))
            assert verdict == reference.is_automorphism(M, images)
            verdicts.append(verdict)
    assert verdicts.count(True) > 500 and verdicts.count(False) > 500
