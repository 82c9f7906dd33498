"""A backtracking automorphism oracle that shares no code with the search.

It maps one element at a time and tries every unused image that holds the
same one-element facts, the facts whose entries are all one element: a
unary fact, a constant, and also R(x, ..., x) and a fixed point f(x) = x.
An automorphism carries each such fact on x to the same fact on its image,
so no automorphism is lost.  Each fact is checked as soon as all of its
elements are mapped: a relation tuple, a function's graph pair (x, f(x))
and a constant c as the tuple (c,) of a one-tuple relation.  A bijection
that carries every fact of a finite set to a fact maps the set onto
itself, so a partial map that breaks a fully mapped fact extends to no
automorphism, and the pruning is exact.  There is no refinement, no orbit
pruning and no sort partition.

The elements are mapped in a fixed order read off the facts alone: next
the unmapped element with the most facts on itself and mapped elements,
ties to the least.  On a lift that is each base point, then the fiber
elements over the base points mapped so far, so a partial map of the base
copy that breaks a relation is cut at the limit element over the tuple,
not after every permutation of the base copy has been tried.

The automorphisms come out sorted, in lexicographic image order.  A node
budget, not a degree guard, bounds the work.
"""

from __future__ import annotations

NODE_BUDGET = 200_000


class OracleBudgetExceeded(RuntimeError):
    pass


def automorphisms(M, budget: int = NODE_BUDGET) -> list[tuple[int, ...]]:
    """Every automorphism of M as an image tuple, in lexicographic order;
    raises OracleBudgetExceeded after ``budget`` tried images."""
    n = M.size
    fact_sets = [(M.relation_sets[name], arity) for name, arity in M.sig.relations]
    fact_sets += [(set(enumerate(M.functions[f])), 2) for f in M.sig.functions]
    fact_sets += [({(M.constants[c],)}, 1) for c in M.sig.constants]
    facts = [(t, fs) for fs, _ in fact_sets for t in fs if t]
    # per element, which fact sets hold it alone; an image must hold the same
    alone = [tuple((x,) * arity in fs for fs, arity in fact_sets) for x in range(n)]
    alike = [[y for y in range(n) if alone[y] == alone[x]] for x in range(n)]
    facts_at: list[list[int]] = [[] for _ in range(n)]
    for i, (t, _) in enumerate(facts):
        for x in set(t):
            facts_at[x].append(i)

    # the mapping order, and per step the facts it completes; score[x]
    # counts the facts whose only unmapped element is x
    unmapped = set(range(n))
    width = [len(set(t)) for t, _ in facts]
    left = width[:]
    score = [sum(left[i] == 1 for i in facts_at[x]) for x in range(n)]
    order: list[int] = []
    due: list[list[tuple[tuple[int, ...], set]]] = []
    for _ in range(n):
        x = max(unmapped, key=lambda x: (score[x], -x))
        unmapped.remove(x)
        order.append(x)
        # a one-element fact is already held by each image in alike[x]
        due.append([facts[i] for i in facts_at[x] if left[i] == 1 < width[i]])
        for i in facts_at[x]:
            left[i] -= 1
            if left[i] == 1:
                score[next(z for z in facts[i][0] if z in unmapped)] += 1

    images = [0] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(i: int) -> None:
        nonlocal nodes
        if i == n:
            found.append(tuple(images))
            return
        x = order[i]
        for y in alike[x]:
            if used[y]:
                continue
            nodes += 1
            if nodes > budget:
                raise OracleBudgetExceeded(f"more than {budget} nodes on a structure of size {n}")
            images[x] = y
            if all(tuple([images[z] for z in t]) in facts for t, facts in due[i]):
                used[y] = True
                extend(i + 1)
                used[y] = False

    extend(0)
    return sorted(found)
