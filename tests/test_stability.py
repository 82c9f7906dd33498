import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st
import stabilizer_oracle as reference
from references import searched_decomposition

from stablelift import groups, stability
from stablelift.corpus import digraph
from stablelift.groups import Permutation, PermGroup
from stablelift.lifting import LiftConfig, build_lift
from stablelift.stability import (
    SUBSTITUTION_NOTE,
    StabilityError,
    qf_type_census,
    stability_report,
    stabilizer_orbits,
)
from stablelift.structures import Signature, Structure


def test_stabilizer_orbits_examples(m_pair):
    N = build_lift(m_pair, LiftConfig(k=1)).structure
    assert stabilizer_orbits(N, ()) == [(0,), (1, 2), (3, 4)]
    # fixing one base point kills the swap
    assert stabilizer_orbits(N, (1,)) == [(0,), (1,), (2,), (3,), (4,)]
    assert stabilizer_orbits(N, N.domain) == [(e,) for e in N.domain]


def _qf_type_census_reference(N, A, depth):
    """The label-set algorithm: per element, evaluate every term by
    recursion and collect the labels of the satisfied atoms."""
    params = sorted(set(A))
    terms = [(("var",), True)]
    terms += [(("param", a), False) for a in params]
    terms += [(("const", c), False) for c in N.sig.constants]
    frontier = terms
    for _ in range(depth):
        frontier = [
            (("app", f, desc), uses_var)
            for f in N.sig.functions
            for desc, uses_var in frontier
        ]
        terms = terms + frontier

    def value(desc, b):
        if desc[0] == "var":
            return b
        if desc[0] == "param":
            return desc[1]
        if desc[0] == "const":
            return N.constants[desc[1]]
        return N.functions[desc[1]][value(desc[2], b)]

    eq_atoms = [
        (i, j, ("eq", d1, d2))
        for i, (d1, v1) in enumerate(terms)
        for j, (d2, v2) in enumerate(terms[i:], start=i)
        if v1 or v2
    ]
    rel_atoms = [
        (N.relation_sets[name], idx, ("rel", name) + tuple(terms[i][0] for i in idx))
        for name, arity in N.sig.relations
        for idx in itertools.product(range(len(terms)), repeat=arity)
        if any(terms[i][1] for i in idx)
    ]

    def tp(b):
        vals = [value(d, b) for d, _ in terms]
        sat = {label for i, j, label in eq_atoms if vals[i] == vals[j]}
        sat.update(
            label
            for held, idx, label in rel_atoms
            if tuple(vals[i] for i in idx) in held
        )
        return frozenset(sat)

    blocks = {}
    for b in N.domain:
        blocks.setdefault(tp(b), []).append(b)
    ordered = sorted(blocks.values(), key=lambda blk: blk[0])
    return tuple(tuple(blk) for blk in ordered)


def test_qf_census_matches_label_set_reference(type_structures):
    rng = random.Random(17)
    for index, N in enumerate(type_structures):
        # depth 2 multiplies the terms; the larger lifts would make it slow
        for depth in (0, 1, 2) if N.size <= 12 else (0, 1):
            A = rng.sample(range(N.size), rng.randint(0, min(3, N.size)))
            got = qf_type_census(N, A, depth=depth).blocks
            assert got == _qf_type_census_reference(N, A, depth), (index, depth, A)


def test_one_census_table_serves_every_parameter_set(type_structures):
    # On a lift, element 1 lies in the base copy and the last element in a
    # fiber (anchor, base copy, then fibers).  On the random structures (a
    # unary function f) the last set holds an element whose images are not
    # the value of any parameter-free constant term, so they add atoms.
    for index, N in enumerate(type_structures):
        for depth in (0, 1, 2) if N.size <= 12 else (0, 1):
            table = stability._census_table(N, depth)
            As = [(), (min(1, N.size - 1),), (N.size - 1,), (min(1, N.size - 1), N.size - 1)]
            if "f" in N.functions:
                fresh = [a for a in N.domain if not {a, N.functions["f"][a]} & table.fixed]
                As.append(fresh[:1])
            # the reference is slow: each table meets every other set
            for A in As[index % 2 :: 2]:
                got = stability._census_over(table, N, A, depth).blocks
                assert got == _qf_type_census_reference(N, A, depth), (index, depth, A)


def test_a_parameter_set_that_adds_no_atom_keeps_the_table_blocks(type_structures):
    # a constant's value as the one parameter: its terms are the constant's,
    # already constant columns of the table, so it adds no atom, as () does
    checked = 0
    for index, N in enumerate(type_structures):
        for depth in (0, 1, 2) if N.size <= 12 else (0, 1):
            table = stability._census_table(N, depth)
            assert qf_type_census(N, (), depth=depth).blocks == table.blocks, index
            for A in [(N.constants[c],) for c in N.sig.constants[:1]]:
                got = qf_type_census(N, A, depth=depth).blocks
                assert got == table.blocks == _qf_type_census_reference(N, A, depth), (index, A)
                checked += 1
    assert checked > 0


@st.composite
def _census_cases(draw):
    """A structure with one or two relations of arity 1-3 (tuples may repeat
    entries), up to two unary functions and up to two constants, a term
    depth of 0-2 and several parameter sets."""
    n = draw(st.integers(1, 5))
    element = st.integers(0, n - 1)
    arities = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    sig = Signature(
        relations=tuple((f"R{i}", arity) for i, arity in enumerate(arities)),
        functions=tuple(f"f{i}" for i in range(draw(st.integers(0, 2)))),
        constants=tuple(f"c{i}" for i in range(draw(st.integers(0, 2)))),
    )
    N = Structure(
        sig=sig,
        size=n,
        relations={
            name: draw(st.lists(st.tuples(*[element] * arity), max_size=3 * n))
            for name, arity in sig.relations
        },
        functions={f: draw(st.lists(element, min_size=n, max_size=n)) for f in sig.functions},
        constants={c: draw(element) for c in sig.constants},
        repetition_free=False,
    )
    depth = draw(st.integers(0, 2))
    As = draw(st.lists(st.lists(element, max_size=2), min_size=1, max_size=4))
    return N, depth, As


@given(_census_cases())
@settings(max_examples=120, deadline=None)
def test_pruned_census_matches_the_reference(case):
    # one table serves every parameter set; the atoms it skips or drops
    # (disjoint values, constant or repeated columns) split no block
    N, depth, As = case
    table = stability._census_table(N, depth)
    for A in As:
        reference = _qf_type_census_reference(N, A, depth)
        assert stability._census_over(table, N, A, depth).blocks == reference, A
        assert qf_type_census(N, A, depth=depth).blocks == reference, A


def test_census_groups_only_columns_that_can_split_a_block(corpus, type_structures, monkeypatch):
    # the report's lifts, and structures with a function and a constant,
    # whose terms give equalities and relation atoms that hold nowhere or
    # everywhere (x = f(x) for a fixed-point-free f, say)
    received = []

    def recording(size, columns, inner=stability.group_by_columns):
        columns = list(columns)
        received.append((size, columns))
        return inner(size, columns)

    monkeypatch.setattr(stability, "group_by_columns", recording)
    rigid = digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    for M in [rigid] + [M for _, M in corpus if M.size >= 2][::8]:
        stability_report(M, [1, 2], [(), (0,), (0, 1)])
    for N in type_structures[-40:]:
        for depth in (1, 2):
            qf_type_census(N, (0, N.size - 1), depth=depth)
    assert received
    for size, columns in received:
        assert all(len(col) == size and len(set(col)) > 1 for col in columns)
        assert len(set(map(tuple, columns))) == len(columns)


def test_qf_census_of_the_empty_domain():
    sig = Signature(relations=(("R", 2), ("U", 1)), functions=("f",))
    empty = Structure(sig=sig, size=0, functions={"f": ()})
    for depth in (0, 1, 2):
        assert qf_type_census(empty, (), depth=depth).blocks == ()
        assert _qf_type_census_reference(empty, (), depth) == ()


def test_qf_census_examples(m_pair, m_edge, m_triple):
    N1 = build_lift(m_pair, LiftConfig(k=1)).structure
    assert qf_type_census(N1, ()).count == 3
    assert qf_type_census(m_triple, ()).count == 1
    N0 = build_lift(m_edge, LiftConfig(k=1)).structure
    census = qf_type_census(N0, (1, 2))  # parameters: the whole base copy
    assert census.count == 6
    assert census.representatives == (0, 1, 2, 3, 4, 5)


def test_qf_census_depth_guard(m_pair):
    with pytest.raises(StabilityError, match="depth"):
        qf_type_census(m_pair, (), depth=3)


def test_qf_census_parameter_validation(m_pair):
    with pytest.raises(StabilityError, match="outside"):
        qf_type_census(m_pair, (9,))


@pytest.mark.parametrize("bad", [1.0, True, "0"])
def test_a_parameter_that_is_not_an_int_is_refused(m_pair, bad, monkeypatch):
    # 1.0 and True pass for the element 1 in a range and "0" for nothing;
    # each is refused by repr before any census table or group is built
    N = build_lift(m_pair, LiftConfig(k=1)).structure

    def no_work(*args):
        raise AssertionError("work done before the parameters were checked")

    monkeypatch.setattr(stability, "_census_table", no_work)
    monkeypatch.setattr(stability, "automorphism_group", no_work)
    monkeypatch.setattr(stability, "stabilizer_search", no_work)
    message = f"^parameter {re.escape(repr(bad))} is not an int$"
    for M in (m_pair, N):
        with pytest.raises(StabilityError, match=message):
            qf_type_census(M, (0, bad))
    with pytest.raises(StabilityError, match=message):
        stability_report(m_pair, [1], [(), (bad,)])


def test_orbits_refine_types(corpus):
    # same stabilizer orbit implies same quantifier-free type; equality can
    # fail (rigid lifts split orbits below what depth-1 formulas see)
    findings = []
    for name, M in corpus[:30]:
        N = build_lift(M, LiftConfig(k=1)).structure
        orbit_blocks = stabilizer_orbits(N, ())
        census = qf_type_census(N, ())
        type_of = {e: i for i, blk in enumerate(census.blocks) for e in blk}
        for block in orbit_blocks:
            assert len({type_of[e] for e in block}) == 1
        if len(orbit_blocks) != census.count:
            findings.append((name, len(orbit_blocks), census.count))
    # report (not assert) where the counts differ
    if findings:
        print(f"orbit/type count gaps on {len(findings)} lifts, e.g. {findings[0]}")


def test_decomposition_examples(m_pair, m_edge, m_triple):
    N1 = build_lift(m_pair, LiftConfig(k=1))
    r1 = searched_decomposition(N1, ())
    assert (r1.left_total, r1.right_total) == (3, 3)
    assert [row["right"] for row in r1.per_sort] == [1, 1, 1, 0]  # anchor, base, copy-0, limit

    N0 = build_lift(m_edge, LiftConfig(k=1))
    r0 = searched_decomposition(N0, ())
    assert (r0.left_total, r0.right_total) == (6, 6)
    assert [row["right"] for row in r0.per_sort] == [1, 2, 2, 1]

    N2 = build_lift(m_triple, LiftConfig(k=1))
    r2 = searched_decomposition(N2, (N2.base_id(0),))
    assert r2.passed
    # stabilizer of one point in Sym(3) still acts transitively on nothing
    # bigger than the remaining pair
    assert r2.left_total == r2.right_total


def test_decomposition_rejects_fiber_parameters(m_pair):
    N = build_lift(m_pair, LiftConfig(k=1))
    with pytest.raises(StabilityError, match="base element"):
        searched_decomposition(N, (3,))


def test_decomposition_reports_an_orbit_crossing_sorts(m_edge):
    N = build_lift(m_edge, LiftConfig(k=1))
    # not an automorphism: swaps the anchor 0 with the base element 1
    images = list(N.structure.domain)
    images[0], images[1] = 1, 0
    swap = PermGroup([Permutation(tuple(images))], N.structure.size)
    with pytest.raises(StabilityError, match="crosses sorts"):
        searched_decomposition(N, (), group_N=swap)


def test_decomposition_on_corpus_sample(corpus):
    for _, M in corpus[40:60]:
        N = build_lift(M, LiftConfig(k=2))
        report = searched_decomposition(N, ())
        assert report.passed, report.per_sort


def test_growth_law_examples(m_pair, m_edge):
    r1 = stability_report(m_pair, [1, 2, 3], [()], structure_id="pair")
    assert [e["total"] for e in r1.entries] == [3, 4, 5]
    assert r1.all_pass
    r0 = stability_report(m_edge, [1, 2], [()], structure_id="edge")
    assert [e["total"] for e in r0.entries] == [6, 8]
    assert r0.all_pass


def test_growth_slope_zero_without_fibers():
    # no eligible pairs, so no fibers at all; the empty source has no base
    # orbit either, only the anchor
    for M, totals in ((digraph(1, []), [2, 2, 2]), (digraph(0, []), [1, 1, 1])):
        r = stability_report(M, [1, 2, 3], [()])
        assert [e["total"] for e in r.entries] == totals
        assert r.all_pass


def test_growth_law_with_parameters(m_triple):
    r = stability_report(m_triple, [1, 2], [(), (0,), (0, 1)])
    assert r.all_pass
    assert len(r.entries) == 6


def test_growth_law_with_repetition_tuples(m_pair):
    reports = [
        searched_decomposition(
            build_lift(m_pair, LiftConfig(k, include_repetition_tuples=True)), ()
        )
        for k in (1, 2)
    ]
    # four fiber tuples split into two swap-orbits, so the slope is 2
    assert [r.left_total for r in reports] == [4, 6]
    assert all(r.passed for r in reports)


def test_census_needs_copy_bounds_and_parameter_sets(m_pair):
    with pytest.raises(StabilityError, match="at least one copy bound"):
        stability_report(m_pair, [], [()])
    with pytest.raises(StabilityError, match="one parameter set"):
        stability_report(m_pair, [1, 2], [])
    with pytest.raises(StabilityError, match="at least one copy bound"):
        stability_report(m_pair, iter(()), [()])


def test_census_report_schema(m_pair):
    r = stability_report(m_pair, [1], [()], structure_id="pair")
    data = r.to_json_dict()
    assert data["note"] == SUBSTITUTION_NOTE
    entry = data["entries"][0]
    assert set(entry) == {"k", "A", "total", "per_sort", "growth_law"}
    assert entry["growth_law"] == "pass"
    for row in entry["per_sort"]:
        assert set(row) == {"sort", "orbits", "types"}
        assert row["types"] <= row["orbits"]


def test_type_count_bounded_by_orbit_count(corpus):
    for _, M in corpus[10:25]:
        r = stability_report(M, [1], [(), (0,)])
        for entry in r.entries:
            for row in entry["per_sort"]:
                assert row["types"] <= row["orbits"]


def test_report_builds_one_census_table_per_copy_bound(corpus, monkeypatch):
    built = []
    monkeypatch.setattr(
        stability,
        "_census_table",
        lambda N, depth, inner=stability._census_table: built.append(depth) or inner(N, depth),
    )
    # no lift is searched, and Aut(M) and every parameter set's stabilizer
    # are searched from one root: M is partitioned by sort once
    searched = []
    monkeypatch.setattr(
        groups,
        "sort_blocks",
        lambda M, inner=groups.sort_blocks: searched.append(M) or inner(M),
    )
    ks, As = [1, 2, 3], [(), (0,), (0, 1)]
    for _, M in [c for c in corpus if c[1].size >= 2][::6]:
        built.clear()
        searched.clear()
        report = stability_report(M, ks, As)
        assert built == [1] * len(ks)
        assert len(searched) == 1 and searched[0] is M
        for entry in report.entries:
            N = build_lift(M, LiftConfig(k=entry["k"]))
            census = qf_type_census(N.structure, [N.base_id(a) for a in entry["A"]])
            type_of = {e: i for i, blk in enumerate(census.blocks) for e in blk}
            assert [row["types"] for row in entry["per_sort"]] == [
                len({type_of[e] for e in N.sorts[row["sort"]]}) for row in entry["per_sort"]
            ]


def test_report_stabilizers_equal_the_lift_chain_stabilizers(corpus, monkeypatch):
    """Each lift stabilizer stability_report counts orbits of, the group of
    the induced generators of Aut(M)'s stabilizer, against the stabilizer
    that the search finds on the lift with the parameters individualized:
    by Schreier-Sims, the same order, and each holds the other's
    generators; on the corpus at k = 1, 2 for every parameter set of at
    most two points."""
    seen = []
    monkeypatch.setattr(
        stability,
        "_decomposition",
        lambda N, GN, source, inner=stability._decomposition: seen.append((N, GN))
        or inner(N, GN, source),
    )
    for _, M in corpus:
        seen.clear()
        As = [A for r in range(3) for A in itertools.combinations(M.domain, r)]
        report = stability_report(M, [1, 2], As)
        assert report.all_pass and len(seen) == len(report.entries)
        for entry, (N, induced) in zip(report.entries, seen):
            A = [N.base_id(a) for a in entry["A"]]
            searched = groups.automorphism_group(N.structure, fixed=A)
            case = (M, entry["k"], A)
            assert reference.order(induced) == searched.order(), case
            assert reference.contains(searched, *induced.generators), case
            assert reference.contains(induced, *searched.generators), case


def test_report_orbits_equal_the_searched_decomposition(corpus):
    """Each stability_report entry's per-sort orbit counts and total against
    the left column and left total of the reference over the searched Aut(N)
    and Aut(M), on the corpus at k = 1, 2 for every parameter set of at most
    two points."""
    for name, M in corpus:
        As = [A for r in range(3) for A in itertools.combinations(M.domain, r)]
        group_M = groups.automorphism_group(M)
        searched = {}
        for entry in stability_report(M, [1, 2], As).entries:
            k = entry["k"]
            if k not in searched:
                N = build_lift(M, LiftConfig(k=k))
                searched[k] = N, groups.automorphism_group(N.structure)
            N, group_N = searched[k]
            A = [N.base_id(a) for a in entry["A"]]
            reference = searched_decomposition(N, A, group_M, group_N)
            # the reference also has a row, with no orbit, for an empty sort
            left = {row["sort"]: row["left"] for row in reference.per_sort}
            orbits = {row["sort"]: row["orbits"] for row in entry["per_sort"]}
            assert left == {**dict.fromkeys(left, 0), **orbits}, (name, k, A)
            assert entry["total"] == reference.left_total, (name, k, A)
