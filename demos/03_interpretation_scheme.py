#!/usr/bin/env python3
"""Present a lift inside its source structure, sort by sort.

An interpretation scheme names, for each sort of the target (here, the
relational companion of a lift), a definable set of source tuples with an
equivalence relation and a bijection between the sort and the quotient, and
a translation formula per target relation; the scheme object holds all of
them.  Once the validator confirms every condition, any source automorphism
can be transported through the scheme, and the transported map agrees with
the direct fiberwise one.

Mutating any single ingredient breaks validation with a witness, which is
how the test suite knows the validator has teeth.
"""

from stablelift import (
    LiftConfig,
    automorphism_group,
    build_lift,
    direct_induced,
    generate_scheme,
    induced_automorphism,
    relational_companion,
    validate_scheme,
)
from stablelift.corpus import digraph
from stablelift.formulas import format_formula
from stablelift.interpretation import negate_translation, redirect_bijection

M = digraph(2, [(0, 1)])
N = build_lift(M, LiftConfig(k=1))
scheme = generate_scheme(N)  # presents N inside its own source, N.source = M
companion = relational_companion(N.structure)

print("sorts of the companion and their presentations over the source:")
for s in scheme.sorts:
    print(f"  width {s.width}: domain  {format_formula(s.domain_formula)}")
    print(f"           equiv   {format_formula(s.equiv_formula)}")

print(f"\n{len(scheme.translations)} translation formulas, e.g.:")
for (rel, _), phi in list(scheme.translations.items())[:4]:
    print(f"  {rel}: {format_formula(phi)}")

print("\nsort bijections, element -> representative source tuple:")
for s in scheme.sorts:
    print(f"  width {s.width}: {scheme.bijections[s.key]}")

report = validate_scheme(M, companion, scheme)
print(f"\nvalidation: {'all conditions pass' if report.passed else 'FAILED'}")
print(f"  ({len(report.checks)} conditions checked)")

# transport source automorphisms through the scheme
pair = digraph(2, [])
N2 = build_lift(pair, LiftConfig(k=1))
scheme2 = generate_scheme(N2)
companion2 = relational_companion(N2.structure)
for g in automorphism_group(pair).elements():
    through_scheme = induced_automorphism(pair, companion2, scheme2, g)
    fiberwise = direct_induced(N2, g)
    print(f"transport of {g.images}: scheme {through_scheme.images} "
          f"direct {fiberwise.images} agree={through_scheme == fiberwise}")

mutant = negate_translation(scheme, 0)
broken = validate_scheme(M, companion, mutant)
failure = broken.failures()[0]
print(f"\nnegating one translation formula is caught: {failure.condition}")
print(f"  witness: {failure.witness}")

key = next(s.key for s in scheme.sorts if len(scheme.bijections[s.key]) >= 2)
failure = validate_scheme(M, companion, redirect_bijection(scheme, key)).failures()[0]
print(f"redirecting one sort bijection is caught: {failure.condition}")
print(f"  witness: {failure.witness}")
