"""Reference refinement and leaf check for the automorphism search.

The search in ``stablelift.groups`` merges its binary views into one weighted
list per element, queues all but one largest fragment of a split cell, and
checks a leaf column by column.  This module keeps the plain forms those
replace: one table ``y -> [x, ...]`` per view, a refinement that keys each
element by the list of views that hit it and queues every fragment, and a
leaf check that maps one tuple at a time.  Refinement commutes with
automorphisms either way and ends at the coarsest equitable refinement of
its input, so both give the same cells, in possibly another order.

A node is the search's ordered partition ``(lab, cell_of, size)``.
"""

from __future__ import annotations

import itertools

from stablelift.formulas import sort_partition


def view_tables(M) -> list[list[list[int]]]:
    """One table y -> [x, ...] per ordered pair of distinct columns of each
    non-empty relation (equal columns counted once) and per direction of
    each function's graph; empty tables dropped."""
    n = M.size
    tables = []
    for name, arity in M.sig.relations:
        tuples = M.relations[name]
        if not tuples:
            continue
        columns = dict.fromkeys(tuple([t[p] for t in tuples]) for p in range(arity))
        for ys, xs in itertools.permutations(columns, 2):
            table: list[list[int]] = [[] for _ in range(n)]
            for y, x in zip(ys, xs):
                table[y].append(x)
            tables.append(table)
    for f in M.sig.functions:
        images = M.functions[f]
        preimages: list[list[int]] = [[] for _ in range(n)]
        for x in range(n):
            preimages[images[x]].append(x)
        tables.append([[images[y]] for y in range(n)])
        tables.append(preimages)
    return [t for t in tables if any(t)]


def refine(tables, lab, cell_of, size, queue) -> None:
    """Split cells by the views through which a splitter cell hits each
    element, splitter by splitter, until no queued cell splits anything;
    every fragment of a split cell is queued."""
    queued = set(queue)
    head = 0
    while head < len(queue) and len(size) < len(lab):
        w = queue[head]
        head += 1
        queued.discard(w)
        hits: dict[int, list[int]] = {}
        splitter = lab[w:w + size[w]]
        for e, table in enumerate(tables):
            for y in splitter:
                for x in table[y]:
                    hits.setdefault(x, []).append(e)
        for s in sorted({cell_of[x] for x in hits}):
            k = size[s]
            if k == 1:
                continue
            fragments: dict[tuple[int, ...], list[int]] = {}
            for x in lab[s:s + k]:
                fragments.setdefault(tuple(hits.get(x, ())), []).append(x)
            if len(fragments) == 1:
                continue
            pos = s
            for key in sorted(fragments):
                frag = fragments[key]
                lab[pos:pos + len(frag)] = frag
                size[pos] = len(frag)
                for x in frag:
                    cell_of[x] = pos
                if pos not in queued:
                    queued.add(pos)
                    queue.append(pos)
                pos += len(frag)


def partition(n: int, blocks):
    """The unrefined node with ``blocks``, a partition of 0..n-1, as cells
    in their order."""
    lab: list[int] = []
    cell_of = [0] * n
    size: dict[int, int] = {}
    for block in blocks:
        size[len(lab)] = len(block)
        for x in block:
            cell_of[x] = len(lab)
        lab += block
    return lab, cell_of, size


def root_partition(M, tables, sorts=None):
    """The blocks of ``sorts`` (by default M's sorts) as cells in their
    order, refined with every cell queued."""
    lab, cell_of, size = partition(M.size, sort_partition(M).values() if sorts is None else sorts)
    refine(tables, lab, cell_of, size, sorted(size))
    return lab, cell_of, size


def individualize(tables, node, v: int):
    """v split off at the front of its cell, refined from that singleton."""
    lab, cell_of, size = node[0][:], node[1][:], dict(node[2])
    s = cell_of[v]
    k = size[s]
    i = lab.index(v, s, s + k)
    lab[s], lab[i] = v, lab[s]
    size[s] = 1
    size[s + 1] = k - 1
    for x in lab[s + 1:s + k]:
        cell_of[x] = s + 1
    refine(tables, lab, cell_of, size, [s])
    return lab, cell_of, size


def cell_set(node) -> set[frozenset[int]]:
    lab, _, size = node
    return {frozenset(lab[s:s + k]) for s, k in size.items()}


def is_automorphism(M, images) -> bool:
    """Whether the image tuple fixes every constant, commutes with every
    function and maps every relation tuple to a relation tuple."""
    if any(images[M.constants[c]] != M.constants[c] for c in M.sig.constants):
        return False
    for f in M.sig.functions:
        graph = M.functions[f]
        if any(images[graph[x]] != graph[images[x]] for x in M.domain):
            return False
    for name, _ in M.sig.relations:
        tuples = M.relation_sets[name]
        if any(tuple(images[x] for x in t) not in tuples for t in tuples):
            return False
    return True
