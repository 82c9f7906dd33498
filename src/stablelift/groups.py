"""Permutations, automorphism groups, orbits, and pointwise stabilizers.

PermGroup keeps a generating set and a stabilizer chain over the base order
0, 1, ..., n-1, built on first use.  The chain grows by incremental
Schreier-Sims: adding a generator extends the levels it touches in place
instead of rebuilding them (Seress, Permutation Group Algorithms, chs. 4-5).
A chain that is told the group order stops sifting Schreier generators
once its orbit lengths multiply to it; the search knows |Aut| from its own
orbits.  pointwise_stabilizer grows one chain whose base starts with the
support, told G's order.  verify-iso and report take stabilizers only in
the source's group: a lift's are the direct_induced images of the
source's (lifting.certify_induced_group).
Orbits on points and on tuples come from one routine, _orbit_search: it
maps the generators' image tuples over each orbit, one breadth-first layer
at a time (the orbit algorithm of Seress, Permutation Group Algorithms).

The automorphism search is individualization-refinement with orbit pruning
(McKay & Piperno, Practical graph isomorphism II).  Its root is the ordered
partition into sorts (atomic one-variable types, which already separate
constants and unary facts), refined to the coarsest equitable partition by
one splitter routine.  It reads the binary views of the relations and
functions merged into one list per element, each view weighted so that a
sum of weights still tells the views apart, and re-queues all but one
largest fragment of a split cell (McKay, Practical graph isomorphism, 1981).
The first path individualizes the least element of the first non-singleton
cell until the partition is discrete; those elements form a base.  Working
from the deepest base point up, each level tries only the cell mates of its
base point that the automorphisms found so far do not already reach, so the
search finds one automorphism per new orbit point rather than visiting every
group element.  Each leaf is confirmed with is_automorphism.  The group
holds the search's generators, a strong generating set for its base, and
is told the order their orbits give, so verify-iso and report build no
chain for Aut(M) itself.  Only PermGroup.to_json_dict, the printer of
``aut``, prints the greedy lexicographic generators: each is the lex-least
group element outside the subgroup the earlier ones generate.  They are
read off the group's chain level by level, from the deepest nontrivial
one: once the generators so far hold the stabilizer of 0..i, the next is
the lex-least member of u_z * G_{0..i}, z the least point of level i's
orbit outside their orbit of i, until the two orbits are equal.  Tests
check the search against a brute-force oracle on small degrees, and the
read-off against a lex walk that grows a second chain (tests/references.py).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .formulas import sort_partition
from .structures import Structure

__all__ = [
    "Permutation",
    "PermGroup",
    "GroupError",
    "orbits",
    "pointwise_stabilizer",
    "is_automorphism",
    "automorphism_group",
]


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class Permutation:
    """A permutation of 0..n-1 as an image tuple; composition is function
    composition: (p * q)(x) = p(q(x))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        # 1.0 and True sort and compare as 1: only int images are permutations
        images = self.images
        if not {*map(type, images)} <= {int} or sorted(images) != list(range(len(images))):
            raise GroupError(f"not a permutation: {images}")

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.degree != other.degree:
            raise GroupError("degree mismatch")
        return Permutation(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_invert(self.images))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def apply_tuple(self, t: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.images[x] for x in t)


# -- stabilizer chains ----------------------------------------------------------
#
# Chains work on bare image tuples; composition is (p o q)[x] = p[q[x]].

Images = tuple[int, ...]


def _compose(p: Images, q: Images) -> Images:
    return tuple([p[x] for x in q])


def _invert(p: Images) -> Images:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


class _Chain:
    """Stabilizer chain over a base order that lists every point.

    Level i belongs to the point order[i].  It keeps strong generators that
    fix order[:i] and generate the level's group, the pointwise stabilizer
    of order[:i], and a transversal mapping each point x of the fundamental
    orbit to (u, u^-1) with u(order[i]) = x.  Levels with a trivial orbit are
    kept, so a residue never needs a base change.

    ``size`` is the group order when the caller knows it.  The product of
    the orbit lengths never exceeds the order of the group generated, and
    reaching it proves every level complete, so the chain then drops its
    Schreier generators unsifted: each would sift to the identity."""

    def __init__(self, degree: int, order=None, size: int | None = None):
        self.order = tuple(range(degree)) if order is None else tuple(order)
        self.identity = tuple(range(degree))
        self.gens: list[list[Images]] = [[] for _ in self.order]
        self.trans: list[dict[int, tuple[Images, Images]]] = [
            {b: (self.identity, self.identity)} for b in self.order
        ]
        # Schreier pairs (orbit point, generator index) not yet sifted
        self._pending: list[list[tuple[int, int]]] = [[] for _ in self.order]
        self._size = 1
        self._known_size = size

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
            if self._size == self._known_size:
                for pending in self._pending:
                    pending.clear()
                return
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


def _lex_walk(chain: _Chain):
    """Members of the group of a chain over the order 0..n-1, in
    lexicographic image order.  A node at depth d is the coset x * K, K the
    group of the d-th nontrivial level (the trivial group at the bottom)."""
    levels = chain.nontrivial_levels()

    def walk(d: int, x: Images):
        if d == len(levels):
            yield x
            return
        trans = chain.trans[levels[d]]
        # below x * u_z every member sends the level's point to x[z]
        for z in sorted(trans, key=x.__getitem__):
            yield from walk(d + 1, _compose(x, trans[z][0]))

    yield from walk(0, chain.identity)


class PermGroup:
    """A permutation group given by generators, with a stabilizer chain
    built on first use.  ``generators`` is the set the group was built from,
    sorted and without the identity.  ``order`` is the group order when the
    caller knows it: order() then returns it without a chain, and the chain
    is told it.  Values are immutable once built."""

    def __init__(self, generators: list[Permutation] | tuple[Permutation, ...], degree: int,
                 order: int | None = None):
        for g in generators:
            if g.degree != degree:
                raise GroupError("all generators must share the group's degree")
        self.degree = degree
        self.generators = tuple(sorted(
            {g for g in generators if not g.is_identity()}, key=lambda g: g.images
        ))
        self._order = order

    @functools.cached_property
    def _chain(self) -> _Chain:
        chain = _Chain(self.degree, size=self._order)
        for g in self.generators:
            chain.add(g.images)
        return chain

    def order(self) -> int:
        return self._chain.size() if self._order is None else self._order

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return g.images in self._chain

    def elements(self) -> list[Permutation]:
        """All group members in lexicographic image order.  Meant for the
        small groups this library works with; cost is the group order."""
        return [Permutation(x) for x in _lex_walk(self._chain)]

    def to_json_dict(self) -> dict:
        """The degree, the greedy lexicographic generators (read off the
        chain, whatever set the group was built from) and the order."""
        return {
            "degree": self.degree,
            "generators": [list(g.images) for g in _greedy_generators(self._chain)],
            "order": str(self.order()),
        }


def _greedy_generators(G: _Chain) -> list[Permutation]:
    """The greedy lexicographic generators of the group of a chain over the
    order 0..n-1: what sifting every member in lex order would keep."""
    # level by level from the deepest nontrivial one: while the group
    # generated so far holds G_{0..i}, a level-i member x is in it iff x(i)
    # is in its orbit of i, so the next generator is the lex-least member of
    # u_z * G_{0..i}, z the least point of the level's orbit outside that
    # orbit (the first child at each deeper level of a lex walk), and the
    # level is done once the two orbits are equal
    levels = G.nontrivial_levels()
    gens: list[Permutation] = []
    for d, i in reversed(list(enumerate(levels))):
        trans = G.trans[i]
        reached = {i}
        while len(reached) < len(trans):
            x = trans[min(trans.keys() - reached)][0]
            for j in levels[d + 1:]:
                x = _compose(x, G.trans[j][min(G.trans[j], key=x.__getitem__)][0])
            gens.append(Permutation(x))
            _, reached = next(_orbit_search(PermGroup(gens, len(G.order)), [i]))
    return gens


def _orbit_search(G: PermGroup, points, act=tuple.__getitem__):
    """Orbits of G through ``points`` under ``act(images, x)``, images the
    image tuple of a generator: yields (seed, orbit) with each seed the
    least point outside the orbits yielded before it, and the orbit the set
    of points reached from it, grown breadth-first one layer at a time."""
    steps = [functools.partial(act, g.images) for g in G.generators]
    todo = set(points)
    for x in sorted(todo):
        if x not in todo:
            continue
        orbit = layer = {x}
        while layer:
            layer = set().union(*[map(step, layer) for step in steps]) - orbit
            orbit |= layer
        todo -= orbit
        yield x, orbit


def orbits(G: PermGroup, S) -> list[tuple[int, ...]]:
    """Partition of S into G-orbits (blocks sorted, ordered by least member)."""
    points = _check_points(G, S)
    if not G.generators:
        return [(x,) for x in points]
    members = set(points)
    return [tuple(sorted(orbit & members)) for _, orbit in _orbit_search(G, members)]


def orbits_on_tuples(G: PermGroup, tuples) -> list[tuple[tuple[int, ...], ...]]:
    """Orbits of the coordinatewise action on a G-invariant set of tuples."""
    members = set(tuples)
    blocks = []
    for t, orbit in _orbit_search(G, members, lambda g, t: tuple([g[x] for x in t])):
        if not orbit <= members:
            raise GroupError(f"tuple set not invariant: orbit of {t} escapes")
        blocks.append(tuple(sorted(orbit)))
    return blocks


def _check_points(G: PermGroup, A) -> tuple[int, ...]:
    """A as a sorted tuple of distinct points of G's domain."""
    A = tuple(A)
    for x in A:
        # as for Permutation images: 1.0 and True compare as 1, yet are no point
        if type(x) is not int:
            raise GroupError(f"element {x!r} is not an int")
        if not (0 <= x < G.degree):
            raise GroupError(f"element {x} outside degree {G.degree}")
    return tuple(sorted(set(A)))


def pointwise_stabilizer(G: PermGroup, A) -> PermGroup:
    """The subgroup fixing every point of A: G itself when no generator
    moves a point of A, else the level after A in a chain whose base order
    starts with A's points in ascending order, grown from G's generators and
    stopped at G's order."""
    A = _check_points(G, A)
    if all(g(a) == a for g in G.generators for a in A):
        return G
    fixed = set(A)
    chain = _Chain(G.degree, A + tuple(x for x in range(G.degree) if x not in fixed), G.order())
    for g in G.generators:
        chain.add(g.images)
    stabilizer_gens = chain.gens[len(A)] if len(A) < G.degree else []
    return PermGroup([Permutation(s) for s in stabilizer_gens], G.degree)


# -- automorphisms -----------------------------------------------------------


def is_automorphism(M: Structure, pi: Permutation) -> bool:
    """True iff pi maps every relation onto itself, commutes with every
    function, and fixes every constant."""
    if pi.degree != M.size:
        raise GroupError(f"permutation degree {pi.degree} != domain size {M.size}")
    p = pi.images
    if any(p[c] != c for c in M.constants.values()):
        return False
    if any(_compose(p, f) != _compose(f, p) for f in M.functions.values()):
        return False
    for name, tuples in M.relations.items():
        # pi is a bijection on a finite tuple set, so image-containment
        # forces image equality; tuples are mapped column by column
        columns = [map(p.__getitem__, column) for column in zip(*tuples)]
        if not M.relation_sets[name].issuperset(zip(*columns)):
            return False
    return True


# An ordered partition is (lab, cell_of, size): lab lists the elements cell
# by cell, a cell is named by its start position in lab, cell_of maps an
# element to its cell and size maps a cell to its length.  Every step below
# depends only on cells and counts, never on element labels, so it commutes
# with automorphisms: that is what lets a leaf be read off as a permutation.


def _adjacency(M: Structure) -> list[list[tuple[int, int]]]:
    """Binary views of M for refinement, merged into one list of pairs
    (x, w) per element y, one pair per x.  A view is an ordered pair of
    distinct columns (t[p] over the tuples) of a relation, equal columns
    counted once, or the image or preimage of a function.  View e weighs
    B**e, B above any count one view can add up at an element, so a sum of
    weights spells out the hits per view.  A column paired with itself
    (y -> y once per tuple with y there) never splits a cell: its count at
    y is the sum, over all cells, of y's hits through a view to another
    column, and with no other column every tuple is R(x, ..., x), which the
    root sorts already separate, as they do unary facts and constants.  A
    relation of arity three or more is seen only through these pairs, so
    refinement can stay coarser than its tuples allow; the leaf check keeps
    the search exact."""
    n = M.size
    views = []
    for name, _ in M.sig.relations:
        views += itertools.permutations(dict.fromkeys(zip(*M.relations[name])), 2)
    for f in M.sig.functions:
        views += [(range(n), M.functions[f]), (M.functions[f], range(n))]
    base = 1 + max([n, *map(len, M.relations.values())])
    merged: list[dict[int, int]] = [{} for _ in range(n)]
    for e, (ys, xs) in enumerate(views):
        w = base**e
        for y, x in zip(ys, xs):
            merged[y][x] = merged[y].get(x, 0) + w
    return [list(row.items()) for row in merged]


def _refine(adj, lab: list[int], cell_of: list[int], size: dict[int, int], queue: list[int]) -> None:
    """Split cells by the summed weights with which a splitter cell hits
    each element, splitter by splitter, until no queued cell splits
    anything.  Only cells that a splitter touches are re-split, into
    fragments by ascending key.  A split cell still queued queues every
    fragment, any other all but its first largest (McKay 1981)."""
    queued = set(queue)
    head = 0
    while head < len(queue) and len(size) < len(lab):
        w = queue[head]
        head += 1
        queued.discard(w)
        hits: dict[int, int] = {}
        for y in lab[w:w + size[w]]:
            for x, weight in adj[y]:
                hits[x] = hits.get(x, 0) + weight
        for s in sorted({cell_of[x] for x in hits}):
            k = size[s]
            if k == 1:
                continue
            fragments: dict[int, list[int]] = {}
            for x in lab[s:s + k]:
                fragments.setdefault(hits.get(x, 0), []).append(x)
            if len(fragments) == 1:
                continue
            keys = sorted(fragments)
            skip = None if s in queued else max(keys, key=lambda key: len(fragments[key]))
            pos = s
            for key in keys:
                frag = fragments[key]
                lab[pos:pos + len(frag)] = frag
                size[pos] = len(frag)
                for x in frag:
                    cell_of[x] = pos
                if key != skip and pos not in queued:
                    queued.add(pos)
                    queue.append(pos)
                pos += len(frag)


def _root_partition(M: Structure, adj):
    """The root of the search: the sorts of M as cells in sort_partition's
    block order, refined until equitable.  Every automorphism preserves
    each sort, so it fixes this ordered partition."""
    lab: list[int] = []
    cell_of = [0] * M.size
    size: dict[int, int] = {}
    for block in sort_partition(M).values():
        s = len(lab)
        size[s] = len(block)
        for x in block:
            cell_of[x] = s
        lab += block
    _refine(adj, lab, cell_of, size, sorted(size))
    return lab, cell_of, size


def _individualize(adj, node, v: int):
    """The child of a search node: v split off as a singleton at the front
    of its cell, then refined with that singleton as the splitter."""
    lab, cell_of, size = node[0][:], node[1][:], dict(node[2])
    s = cell_of[v]
    k = size[s]
    i = lab.index(v, s, s + k)
    lab[s], lab[i] = v, lab[s]
    size[s] = 1
    size[s + 1] = k - 1
    for x in lab[s + 1:s + k]:
        cell_of[x] = s + 1
    _refine(adj, lab, cell_of, size, [s])
    return lab, cell_of, size


def _target_cell(node) -> list[int]:
    lab, _, size = node
    s = min(c for c, k in size.items() if k > 1)
    return sorted(lab[s:s + size[s]])


def _automorphism_generators(M: Structure) -> tuple[list[Permutation], int]:
    """Generators of Aut(M) from an individualization-refinement search,
    and |Aut(M)|: at most one automorphism per point of each fundamental
    orbit of the search's base, each confirmed by is_automorphism at its
    leaf.  They form a strong generating set for that base, so the order is
    the product of the orbits they give each base point at its level."""
    n = M.size
    adj = _adjacency(M)

    # first path: individualize the least element of the first open cell
    path = [_root_partition(M, adj)]
    base: list[int] = []
    while len(path[-1][2]) < n:
        v = _target_cell(path[-1])[0]
        base.append(v)
        path.append(_individualize(adj, path[-1], v))
    first_leaf = path[-1][0]

    def leaf_below(node, d: int) -> Permutation | None:
        if node[2] != path[d][2]:
            return None
        if d == len(base):
            images = [0] * n
            for x, y in zip(first_leaf, node[0]):
                images[x] = y
            pi = Permutation(tuple(images))
            return pi if is_automorphism(M, pi) else None
        for v in _target_cell(node):
            found = leaf_below(_individualize(adj, node, v), d + 1)
            if found is not None:
                return found
        return None

    # orbits of the generators found so far, as a union-find forest; each
    # fixes the base points above its level
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    gens: list[Permutation] = []
    order = 1
    for i in reversed(range(len(base))):
        failed: list[int] = []
        cell = _target_cell(path[i])
        for w in cell:
            rw = find(w)
            if rw == find(base[i]) or any(find(f) == rw for f in failed):
                continue
            pi = leaf_below(_individualize(adj, path[i], w), i + 1)
            if pi is None:
                failed.append(w)
                continue
            gens.append(pi)
            for x in range(n):
                a, b = find(x), find(pi(x))
                if a != b:
                    root[max(a, b)] = min(a, b)
        r = find(base[i])
        order *= sum(find(w) == r for w in cell)
    return gens, order


def automorphism_group(M: Structure) -> PermGroup:
    """The full automorphism group as a PermGroup of the search's
    generators, told the order their orbits give.  to_json_dict prints the
    greedy lexicographic generators instead."""
    found, order = _automorphism_generators(M)
    return PermGroup(found, M.size, order)
