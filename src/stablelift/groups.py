"""Permutations, automorphism groups and their pointwise stabilizers, and
orbits.

Every group this library orders, lists or prints comes from one algorithm,
the automorphism search, and so does every pointwise stabilizer:
stabilizer_search(M)(A) is Aut(M)_A, the automorphism group of M with A's
points individualized at a root built once per structure, and
automorphism_group(M, fixed=A) is one such search.  A PermGroup built from
other generators, such as the lift stabilizers that report induces, gives
orbits only.  Orbits on points and on tuples come from one routine,
_orbit_search: it maps the generators' image tuples over each orbit, one
breadth-first layer at a time (the orbit algorithm of Seress, Permutation
Group Algorithms).

The search is individualization-refinement with orbit pruning (McKay &
Piperno, Practical graph isomorphism II).  Its root is the ordered
partition into sorts (atomic one-variable types, which already separate
constants and unary facts) with A's points split off, refined to the
coarsest equitable partition by one splitter routine.  It reads the binary
views of the relations and functions merged into one list per element,
each view weighted so that a sum of weights still tells the views apart,
and re-queues all but one largest fragment of a split cell (McKay,
Practical graph isomorphism, 1981).  The first path individualizes the
least element of any non-singleton cell until the partition is discrete;
those elements form an ascending base, and every point below a base point
is a singleton there.  Every other path takes the cell at the position the
first path took at its depth, which keeps the search invariant.  Working
from the deepest base point up, each level tries only the cell mates of its
base point that the automorphisms found so far do not already reach, so the
search finds one automorphism per new orbit point rather than visiting every
group element.  Each leaf is confirmed with is_automorphism.  The
generators found at a base point's level and below fix every point below
it and generate the pointwise stabilizer of those points, so together they
are a strong generating set for the base order 0, 1, ..., n-1, and the
group is told the order their orbits give (Seress, ch. 4).

The chain over that base order is then orbits and transversals with
nothing sifted; only elements() builds it.  The search's generators, in
image order, are also the greedy lexicographic generators that ``aut``
prints, each the lex-least group element outside the subgroup the earlier
ones generate.  A member that fixes 0..b-1 precedes every member moving a
point below b, so the greedy choice completes the deepest level first.  At
level b the search tries the cell mates w of b in ascending order, skipping
those its generators reach, as the greedy choice takes the least point
outside their orbit of b.  Below w it keeps the first automorphism of a
walk that tries each cell's points in ascending order, and the images of
the points between two base points are the same across the coset, as the
deeper level's group fixes them, so that automorphism is the coset's
lex-least member.  Tests check the search and its stabilizers against a
brute-force oracle and Schreier-Sims (tests/stabilizer_oracle.py), and the
printed generators against a lex walk that grows a Schreier-Sims chain
(tests/references.py).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

# the search roots at sort_blocks; sort_partition stays a name here because
# perfbench/spans.py wraps it at this import site
from .formulas import sort_blocks, sort_partition
from .structures import Structure

__all__ = [
    "Permutation",
    "PermGroup",
    "GroupError",
    "orbits",
    "is_automorphism",
    "automorphism_group",
    "stabilizer_search",
]


class GroupError(ValueError):
    pass


@dataclass(frozen=True)
class Permutation:
    """A permutation of 0..n-1 as an image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        # 1.0 and True sort and compare as 1: only int images are permutations
        images = self.images
        if not {*map(type, images)} <= {int} or sorted(images) != list(range(len(images))):
            raise GroupError(f"not a permutation: {images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def apply_tuple(self, t: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.images[x] for x in t)


# -- the chain of a strong generating set ----------------------------------------
#
# Chains work on bare image tuples; the composition (p o q)[x] = p[q[x]] is
# _image(p, q).

Images = tuple[int, ...]


def _image(p, column) -> tuple:
    """(p[x] for x in column) as a tuple, mapped in C: itemgetter returns a
    bare item for one index and takes none for no index."""
    if len(column) > 1:
        return operator.itemgetter(*column)(p)
    return (p[column[0]],) if column else ()


def _chain(generators: list[Images],
           degree: int) -> tuple[list[tuple[int, dict[int, Images]]], int]:
    """Orbits and transversals over the base order 0..n-1 of the group of a
    strong generating set for that order.  Level b's group, the pointwise
    stabilizer of 0..b-1, is generated by the generators that fix 0..b-1, so
    its orbit of b is theirs and nothing is sifted.  Returns (levels, size):
    ``levels`` keeps the nontrivial levels in ascending order, each as
    (b, transversal), the transversal mapping each point x of the orbit to
    a level member u with u[b] = x; ``size`` is the product of the orbit
    lengths, the group order exactly when the generators are a strong
    generating set, and less otherwise."""
    identity = tuple(range(degree))
    # a generator's first moved point is the deepest level it belongs to
    first = [next(x for x, y in enumerate(g) if x != y) for g in generators]
    levels: list[tuple[int, dict[int, Images]]] = []
    for b in sorted(set(first)):
        level = [g for g, f in zip(generators, first) if f >= b]
        trans = {b: identity}
        points = [b]
        for x in points:
            u = trans[x]
            for g in level:
                if g[x] not in trans:
                    trans[g[x]] = _image(g, u)
                    points.append(g[x])
        levels.append((b, trans))
    return levels, math.prod(len(trans) for _, trans in levels)


def _lex_walk(levels, degree: int):
    """Members of the group of a chain's levels in lexicographic image
    order.  A node at depth d is the coset x * K, K the group of the d-th
    nontrivial level (the trivial group at the bottom)."""

    def walk(d: int, x: Images):
        if d == len(levels):
            yield x
            return
        trans = levels[d][1]
        # below x * u_z every member sends the level's point to x[z]
        for z in sorted(trans, key=x.__getitem__):
            yield from walk(d + 1, _image(x, trans[z]))

    yield from walk(0, tuple(range(degree)))


class PermGroup:
    """A permutation group given by generators.  ``generators`` is the set
    the group was built from, sorted and without the identity; orbits need
    nothing else.  ``order`` is the group order when the caller knows it,
    and the generators must then be a strong generating set for the base
    order 0..n-1, as the search's are.  order(), elements() and
    to_json_dict() answer only for a group told its order, and raise
    GroupError otherwise; elements() also raises when the generators' orbits
    do not give the order, rather than list a wrong chain's members."""

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

    def order(self) -> int:
        if self._order is None:
            raise GroupError("the group's order is unknown: it was built for its orbits only")
        return self._order

    def elements(self) -> list[Permutation]:
        """All group members in lexicographic image order, walked off the
        chain of the generators.  Meant for the small groups this library
        works with; cost is the group order."""
        levels, size = _chain([g.images for g in self.generators], self.degree)
        if size != self.order():
            raise GroupError(f"the generators are no strong generating set of a group of order "
                             f"{self._order}")
        return [Permutation(x) for x in _lex_walk(levels, self.degree)]

    def to_json_dict(self) -> dict:
        """The degree, the generators and the order; for a group from the
        search the generators are the greedy lexicographic ones."""
        return {
            "degree": self.degree,
            "generators": [list(g.images) for g in self.generators],
            "order": str(self.order()),
        }


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


def orbits(G: PermGroup) -> list[tuple[int, ...]]:
    """Partition of 0..G.degree-1 into G-orbits (blocks sorted, ordered by
    least member)."""
    if not G.generators:
        return [(x,) for x in range(G.degree)]
    return [tuple(sorted(orbit)) for _, orbit in _orbit_search(G, range(G.degree))]


def orbits_on_tuples(G: PermGroup, tuples) -> list[tuple[tuple[int, ...], ...]]:
    """Orbits of the coordinatewise action on a G-invariant set of tuples."""
    members = set(tuples)
    if not G.generators:
        return [(t,) for t in sorted(members)]
    blocks = []
    for t, orbit in _orbit_search(G, members, lambda g, t: tuple([g[x] for x in t])):
        if not orbit <= members:
            raise GroupError(f"tuple set not invariant: orbit of {t} escapes")
        blocks.append(tuple(sorted(orbit)))
    return blocks


def _check_points(degree: int, A) -> tuple[int, ...]:
    """A as a sorted tuple of distinct points of 0..degree-1."""
    A = tuple(A)
    for x in A:
        # as for Permutation images: 1.0 and True compare as 1, yet are no point
        if type(x) is not int:
            raise GroupError(f"element {x!r} is not an int")
        if not (0 <= x < degree):
            raise GroupError(f"element {x} outside degree {degree}")
    return tuple(sorted(set(A)))


# -- automorphisms -----------------------------------------------------------


def is_automorphism(M: Structure, pi: Permutation) -> bool:
    """True iff pi maps every relation onto itself, commutes with every
    function, and fixes every constant."""
    if pi.degree != M.size:
        raise GroupError(f"permutation degree {pi.degree} != domain size {M.size}")
    p = pi.images
    if any(p[c] != c for c in M.constants.values()):
        return False
    if any(_image(p, f) != _image(f, p) for f in M.functions.values()):
        return False
    for name, columns in M.relation_columns.items():
        # pi is a bijection on a finite tuple set, so image-containment
        # forces image equality; tuples are mapped column by column
        if not M.relation_sets[name].issuperset(zip(*[_image(p, c) for c in columns])):
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
    for block in sort_blocks(M):
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


def _cell(node, s: int) -> list[int]:
    lab, _, size = node
    return sorted(lab[s:s + size[s]])


def _search(M: Structure, adj, node, fixed) -> PermGroup:
    """Aut(M)_fixed, generated by what an individualization-refinement search
    from the root ``node`` with the points ``fixed`` individualized finds:
    at most one automorphism per point of each fundamental orbit of the
    search's base, each confirmed by is_automorphism at its leaf.  They form
    a strong generating set for the base order 0..n-1, so the group is told
    the product of the orbits they give each base point at its level."""
    n = M.size
    for a in fixed:
        # refinement may have made a a singleton already
        if node[2][node[1][a]] > 1:
            node = _individualize(adj, node, a)

    # first path: individualize the least element of any open cell, and
    # record the cell's position, which every other path takes at that depth
    path = [node]
    base: list[int] = []
    cells: list[int] = []
    v = 0
    while len(path[-1][2]) < n:
        _, cell_of, size = path[-1]
        while size[cell_of[v]] == 1:
            v += 1
        base.append(v)
        cells.append(cell_of[v])
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
        for v in _cell(node, cells[d]):
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
        cell = _cell(path[i], cells[i])
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
    return PermGroup(gens, n, order)


def stabilizer_search(M: Structure):
    """Aut(M)'s pointwise stabilizers, all searched from one root: a function
    from points ``fixed`` to Aut(M)_fixed.  The adjacency and the root
    depend on M alone and are built once; each search individualizes on
    copies of the root and never writes into it."""
    adj = _adjacency(M)
    root = _root_partition(M, adj)
    return lambda fixed=(): _search(M, adj, root, _check_points(M.size, fixed))


def automorphism_group(M: Structure, fixed=()) -> PermGroup:
    """Aut(M), or its pointwise stabilizer of the points ``fixed``: one
    search from a root of its own."""
    return stabilizer_search(M)(fixed)
