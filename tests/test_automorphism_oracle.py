"""The backtracking oracle against the brute oracle, and its node budget."""

import pytest

from automorphism_oracle import OracleBudgetExceeded, automorphisms
from references import BRUTE_DEGREE_LIMIT, automorphism_group_brute
from stablelift.corpus import digraph


def test_backtracking_oracle_equals_brute_oracle_up_to_degree_8(type_structures):
    # the corpus, its lifts and random structures with a function, a
    # constant and a ternary relation whose tuples may repeat entries
    checked = 0
    for M in type_structures:
        if M.size <= BRUTE_DEGREE_LIMIT:
            assert automorphisms(M) == [p.images for p in automorphism_group_brute(M)]
            checked += 1
    # the 69 digraphs, the 9 lifts with at most 8 elements and 120 random
    assert checked == 198


def test_backtracking_oracle_stops_at_its_node_budget():
    # 6! leaves, and more nodes above them
    assert len(automorphisms(digraph(6, []))) == 720
    with pytest.raises(OracleBudgetExceeded, match="more than 700 nodes"):
        automorphisms(digraph(6, []), budget=700)
