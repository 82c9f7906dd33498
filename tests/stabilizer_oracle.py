"""Schreier-Sims, the reference for groups given by arbitrary generators,
and the permutation algebra that only tests use.

The library orders, lists and prints only groups that its automorphism
search found, whose generators are a strong generating set for the base
order 0..n-1, and it takes every pointwise stabilizer by the same search
(``automorphism_group(M, fixed=A)``).  This module keeps the general
algorithm that those answers are checked against: a stabilizer chain over
any base order, grown by incremental Schreier-Sims, with every Schreier
generator sifted (Seress, Permutation Group Algorithms, chs. 4-5).
``order``, ``elements`` and ``contains`` answer for the group of any
generators, and ``pointwise_stabilizer`` takes the level after the support
in a chain whose base starts with it.
"""

from __future__ import annotations

from stablelift.groups import GroupError, PermGroup, Permutation, _check_points, _compose

Images = tuple[int, ...]


# -- permutation algebra -----------------------------------------------------------


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def multiply(p: Permutation, q: Permutation) -> Permutation:
    """Function composition: multiply(p, q)(x) = p(q(x))."""
    if p.degree != q.degree:
        raise GroupError("degree mismatch")
    return Permutation(_compose(p.images, q.images))


def _invert(p: Images) -> Images:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def inverse(p: Permutation) -> Permutation:
    return Permutation(_invert(p.images))


# -- Schreier-Sims -----------------------------------------------------------------


class Chain:
    """Stabilizer chain over a base order that lists every point.

    Level i belongs to the point order[i].  It keeps strong generators that
    fix order[:i] and generate the level's group, the pointwise stabilizer
    of order[:i], and a transversal mapping each point x of the fundamental
    orbit to (u, u^-1) with u(order[i]) = x.  Levels with a trivial orbit are
    kept, so a residue never needs a base change."""

    def __init__(self, degree: int, order=None):
        self.order = tuple(range(degree)) if order is None else tuple(order)
        self.identity = tuple(range(degree))
        self.gens: list[list[Images]] = [[] for _ in self.order]
        self.trans: list[dict[int, tuple[Images, Images]]] = [
            {b: (self.identity, self.identity)} for b in self.order
        ]
        # Schreier pairs (orbit point, generator index) not yet sifted
        self._pending: list[list[tuple[int, int]]] = [[] for _ in self.order]
        self._size = 1

    def sift(self, g: Images, start: int = 0) -> tuple[Images, int]:
        """Strip g through levels start..; returns (residue, level at which
        it got stuck), the level being len(order) iff g is a member."""
        order, trans = self.order, self.trans
        for i in range(start, len(order)):
            b = order[i]
            x = g[b]
            if x != b:
                rep = trans[i].get(x)
                if rep is None:
                    return g, i
                g = _compose(rep[1], g)
        return g, len(order)

    def __contains__(self, g: Images) -> bool:
        return self.sift(g)[1] == len(self.order)

    def size(self) -> int:
        return self._size

    def add(self, g: Images) -> bool:
        """Extend the chain by one generator; False if g is already a member."""
        residue, j = self.sift(g)
        if j == len(self.order):
            return False
        for i in range(j + 1):
            self._add_strong(i, residue)
        self._settle(j)
        return True

    def _add_strong(self, i: int, s: Images) -> None:
        gens, trans, pending = self.gens[i], self.trans[i], self._pending[i]
        k = len(gens)
        gens.append(s)
        points = list(trans)
        old = len(points)
        pending.extend((x, k) for x in points)
        idx = 0
        while idx < len(points):
            x = points[idx]
            u = trans[x][0]
            for g in (s,) if idx < old else gens:
                y = g[x]
                if y not in trans:
                    gu = _compose(g, u)
                    trans[y] = (gu, _invert(gu))
                    points.append(y)
                    pending.extend((y, m) for m in range(len(gens)))
            idx += 1
        if len(points) > old:
            self._size = self._size // old * len(points)

    def _settle(self, i: int) -> None:
        """Sift every pending Schreier generator at levels i, i-1, ..., 0;
        a residue becomes a strong generator of the levels it fixes."""
        while i >= 0:
            pending = self._pending[i]
            if not pending:
                i -= 1
                continue
            x, k = pending.pop()
            s = self.gens[i][k]
            trans = self.trans[i]
            h = _compose(trans[s[x]][1], _compose(s, trans[x][0]))
            residue, j = self.sift(h, i + 1)
            if j < len(self.order):
                for m in range(i + 1, j + 1):
                    self._add_strong(m, residue)
                i = j

    def nontrivial_levels(self) -> list[int]:
        return [i for i, trans in enumerate(self.trans) if len(trans) > 1]


def chain(G: PermGroup, order=None) -> Chain:
    """The chain of G's group over ``order`` (0..n-1 by default), grown from
    its generators."""
    grown = Chain(G.degree, order)
    for g in G.generators:
        grown.add(g.images)
    return grown


def order(G: PermGroup) -> int:
    return chain(G).size()


def contains(G: PermGroup, *members: Permutation) -> bool:
    """Whether every one of ``members`` lies in G's group."""
    grown = chain(G)
    return all(g.degree == G.degree and g.images in grown for g in members)


def elements(G: PermGroup) -> list[Permutation]:
    """Every member of G's group in lexicographic image order: each member
    is one product of transversal elements, one per level."""
    grown = chain(G)
    members = [grown.identity]
    for i in grown.nontrivial_levels():
        members = [_compose(m, u) for m in members for u, _ in grown.trans[i].values()]
    return [Permutation(x) for x in sorted(members)]


def pointwise_stabilizer(G: PermGroup, A) -> PermGroup:
    """The subgroup fixing every point of A: G itself when no generator
    moves a point of A, else the group of the strong generators at the
    level after A in a chain whose base order starts with A's points in
    ascending order."""
    A = _check_points(G.degree, A)
    if all(g(a) == a for g in G.generators for a in A):
        return G
    fixed = set(A)
    grown = chain(G, A + tuple(x for x in range(G.degree) if x not in fixed))
    stabilizer_gens = grown.gens[len(A)] if len(A) < G.degree else []
    return PermGroup([Permutation(s) for s in stabilizer_gens], G.degree)
