"""A backtracking automorphism oracle that shares no code with the search.

It maps the elements 0, 1, 2, ... in order and tries every unused image.
Each fact is checked as soon as all of its elements are mapped: a relation
tuple, a function's graph pair (x, f(x)) and a constant c as the tuple (c,)
of a one-tuple relation.  A bijection that carries every fact of a finite
set to a fact maps the set onto itself, so a partial map that breaks a fully
mapped fact extends to no automorphism, and the pruning is exact.  There is
no refinement, no orbit pruning and no sort partition.

The automorphisms come out in lexicographic image order.  A node budget,
not a degree guard, bounds the work.
"""

from __future__ import annotations

NODE_BUDGET = 200_000


class OracleBudgetExceeded(RuntimeError):
    pass


def automorphisms(M, budget: int = NODE_BUDGET) -> list[tuple[int, ...]]:
    """Every automorphism of M as an image tuple, in lexicographic order;
    raises OracleBudgetExceeded after ``budget`` tried images."""
    n = M.size
    fact_sets = [M.relation_sets[name] for name, _ in M.sig.relations]
    fact_sets += [set(enumerate(M.functions[f])) for f in M.sig.functions]
    fact_sets += [{(M.constants[c],)} for c in M.sig.constants]
    # the facts to check once their largest element is mapped
    due: list[list[tuple[tuple[int, ...], set]]] = [[] for _ in range(n)]
    for facts in fact_sets:
        for t in facts:
            if t:
                due[max(t)].append((t, facts))

    images = [0] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(x: int) -> None:
        nonlocal nodes
        if x == n:
            found.append(tuple(images))
            return
        for y in range(n):
            if used[y]:
                continue
            nodes += 1
            if nodes > budget:
                raise OracleBudgetExceeded(f"more than {budget} nodes on a structure of size {n}")
            images[x] = y
            if all(tuple([images[z] for z in t]) in facts for t, facts in due[x]):
                used[y] = True
                extend(x + 1)
                used[y] = False

    extend(0)
    return found
