"""Reference stabilizer form for the differential tests.

``pointwise_stabilizer`` in ``stablelift.groups`` grows its chain told the
group's order, and stops sifting Schreier generators once the orbit
lengths multiply to it.  This module keeps the plain form: a fresh chain
over the support followed by the other points, grown with no known order.
"""

from __future__ import annotations

from stablelift.groups import PermGroup, Permutation, _Chain, _check_points


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
