"""Deterministic test corpora: exhaustive small digraphs and seeded random
structures.

The tests' corpus (tests/references.py) is every repetition-free digraph
on at most three vertices (1 + 4 + 64 structures); small enough that every
claim can be checked against brute force, rich enough to hit trivial,
cyclic, and symmetric automorphism groups.
"""

from __future__ import annotations

import random

from .structures import Signature, Structure

__all__ = [
    "DIGRAPH_SIGNATURE",
    "digraph",
    "edge_pairs",
    "exhaustive_digraphs",
    "random_digraph",
]

DIGRAPH_SIGNATURE = Signature(relations=(("edge", 2),))


def digraph(size: int, edges) -> Structure:
    return Structure(
        sig=DIGRAPH_SIGNATURE,
        size=size,
        relations={"edge": tuple(tuple(e) for e in edges)},
        repetition_free=True,
    )


def edge_pairs(size: int) -> list[tuple[int, int]]:
    """All loop-free ordered pairs, lexicographically."""
    return [(i, j) for i in range(size) for j in range(size) if i != j]


def exhaustive_digraphs(size: int) -> list[tuple[str, Structure]]:
    """Every repetition-free digraph on the given vertex count, as
    (name, structure) pairs; names encode the edge subset bitmask."""
    pairs = edge_pairs(size)
    out = []
    for mask in range(2 ** len(pairs)):
        edges = [p for bit, p in enumerate(pairs) if mask >> bit & 1]
        out.append((f"digraph_n{size}_m{mask}", digraph(size, edges)))
    return out


def random_digraph(rng: random.Random, size: int, edge_probability: float = 0.4) -> Structure:
    edges = [p for p in edge_pairs(size) if rng.random() < edge_probability]
    return digraph(size, edges)
