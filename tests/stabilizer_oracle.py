"""Reference stabilizer-chain forms for the differential tests.

A chain in ``stablelift.groups`` sifts only through the levels above its
trivial tail, may stop at a known group order, and ``pointwise_stabilizer``
reads the stabilizer of a support that covers the moved points below its
largest off the group's own chain.  This module keeps the plain forms those
replace: a sift that walks every level, and a pointwise stabilizer that
grows a fresh chain over the support followed by the other points, with no
known order, for every support.
"""

from __future__ import annotations

from stablelift.groups import PermGroup, Permutation, _Chain, _check_points, _compose


def sift(chain: _Chain, g, start: int = 0):
    """Strip g through every level start..; returns (residue, level at
    which it got stuck), the level being len(order) if it never did."""
    order, trans = chain.order, chain.trans
    for i in range(start, len(order)):
        b = order[i]
        x = g[b]
        if x != b:
            rep = trans[i].get(x)
            if rep is None:
                return g, i
            g = _compose(rep[1], g)
    return g, len(order)


def pointwise_stabilizer(G: PermGroup, A) -> PermGroup:
    """The subgroup fixing every point of A: the level after A in a chain
    whose base order starts with A's points in ascending order, grown from
    G's generators."""
    A = _check_points(G, A)
    if all(g(a) == a for g in G.generators for a in A):
        return G
    fixed = set(A)
    chain = _Chain(G.degree, A + tuple(x for x in range(G.degree) if x not in fixed))
    for g in G.generators:
        chain.add(g.images)
    stabilizer_gens = chain.gens[len(A)] if len(A) < G.degree else []
    return PermGroup([Permutation(s) for s in stabilizer_gens], G.degree)
