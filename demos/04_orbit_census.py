#!/usr/bin/env python3
"""Count stabilizer orbits on lifts and check the growth law.

Fix a parameter set A inside the base copy of a lift and ask how many orbits
the pointwise stabilizer of A has.  The answer decomposes by sort: one orbit
for the anchor, the stabilizer's orbits on the source, and per copy index
its orbits on fiber tuples.  Summed up, the total is affine in the copy
bound k: the slope counts fiber-tuple orbits, so the census grows tamely no
matter how large k gets.  That tame growth is the finite-scale stability
evidence this library reports.
"""

from stablelift import LiftConfig, build_lift
from stablelift.corpus import digraph
from stablelift.stability import qf_type_census, stability_report, stabilizer_orbits

pair = digraph(2, [])
N = build_lift(pair, LiftConfig(k=1))
print("stabilizer orbits on lift(pair, k=1), no parameters:")
for block in stabilizer_orbits(N.structure, ()):
    print("  orbit", block)
print("quantifier-free 1-types at depth 1:",
      qf_type_census(N.structure, ()).count)

print("\norbit decomposition for the one-edge digraph at k=1:")
edge = digraph(2, [(0, 1)])
# the lift's stabilizer is induced from Aut(edge); the growth law predicts
# the total from the source's own orbit counts
(entry,) = stability_report(edge, ks=[1], As=[()], structure_id="edge").entries
for row in entry["per_sort"]:
    print(f"  {row['sort']:<18} {row['orbits']} orbit(s), {row['types']} type(s)")
print(f"  total {entry['total']}: growth law {entry['growth_law']}")

print("\ngrowth of the census in k (triangle with a 3-cycle):")
triangle = digraph(3, [(0, 1), (1, 2), (2, 0)])
census = stability_report(triangle, ks=[1, 2, 3], As=[(), (0,)],
                          structure_id="directed-triangle")
print(f"  note: {census.note}")
for entry in census.entries:
    print(f"  k={entry['k']} A={entry['A']}: total {entry['total']} "
          f"({entry['growth_law']})")
