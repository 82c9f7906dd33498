"""Acceptance suite: one test per criterion, each exact and exhaustive over
the corpus of all repetition-free digraphs on at most three vertices.

Every test prints a single pass line (visible with pytest -s) including its
wall-clock time; all tolerances are exact equalities.
"""

import functools
import itertools
import json
import random
import time

import pytest

from automorphism_oracle import automorphisms
from formula_parser import parse_formula
from references import (
    automorphism_group_brute,
    check_classical_interpretation,
    definable_quotient,
    searched_decomposition,
    standard_corpus,
)
from stablelift.cli import main as cli_main
from stablelift.formulas import (
    And,
    Apply,
    Const,
    Equal,
    Exists,
    Not,
    Or,
    Rel,
    Var,
    format_formula,
)
from stablelift.groups import Permutation, automorphism_group
from stablelift.interpretation import (
    induced_automorphism,
    negate_translation,
    redirect_bijection,
    validate_scheme,
    weaken_equivalence,
)
from stablelift.lifting import (
    LiftConfig,
    LiftMapError,
    build_lift,
    continuity_witness,
    direct_induced,
    generate_scheme,
    limit_elements,
    project_automorphism,
)
from stablelift.stability import stability_report
from stablelift.structures import (
    Signature,
    Structure,
    relational_companion,
    structure_from_json,
    structure_to_json,
)

CORPUS = standard_corpus(3)
KS = (1, 2)


@functools.lru_cache(maxsize=None)
def lift_of(idx: int, k: int):
    return build_lift(CORPUS[idx][1], LiftConfig(k=k))


@functools.lru_cache(maxsize=None)
def aut_M(idx: int):
    return automorphism_group(CORPUS[idx][1])


@functools.lru_cache(maxsize=None)
def aut_N(idx: int, k: int):
    return automorphism_group(lift_of(idx, k).structure)


@functools.lru_cache(maxsize=None)
def oracle_N(idx: int, k: int):
    """Aut(lift) from the backtracking oracle, which shares no code with
    the search."""
    return [Permutation(images) for images in automorphisms(lift_of(idx, k).structure)]


@functools.lru_cache(maxsize=None)
def members_M(idx: int):
    return tuple(aut_M(idx).elements())


@functools.lru_cache(maxsize=None)
def scheme_of(idx: int, k: int):
    M = CORPUS[idx][1]
    N = lift_of(idx, k)
    scheme = generate_scheme(N)
    companion = relational_companion(N.structure)
    return scheme, companion


def _passline(number: int, label: str, started: float) -> None:
    print(f"[criterion {number}] PASS ({time.monotonic() - started:.1f}s) {label}")


def test_criterion_1_isomorphism_suite():
    started = time.monotonic()
    assert len(CORPUS) == 69
    brute_checked = oracle_checked = 0
    for idx, (name, M) in enumerate(CORPUS):
        GM = aut_M(idx)
        assert GM.elements() == automorphism_group_brute(M), name
        for k in KS:
            N = lift_of(idx, k)
            GN = aut_N(idx, k)
            assert GN.order() == GM.order(), (name, k)
            assert GN.elements() == oracle_N(idx, k), (name, k)
            oracle_checked += 1
            for g in GM.generators:
                assert project_automorphism(N, direct_induced(N, g)) == g, (name, k)
            for g in GN.generators:
                assert direct_induced(N, project_automorphism(N, g)) == g, (name, k)
            if N.structure.size <= 8:
                assert GN.elements() == automorphism_group_brute(N.structure), (name, k)
                brute_checked += 1
    assert brute_checked > 0
    _passline(
        1,
        f"|Aut(lift)| = |Aut(M)| on 69 structures x k in {KS} "
        f"({oracle_checked} lifts checked element by element by the backtracking "
        f"oracle, {brute_checked} also by the brute oracle)",
        started,
    )


def test_criterion_2_rigidity_witness():
    started = time.monotonic()
    rejected = 0
    for idx, (name, M) in enumerate(CORPUS):
        N = lift_of(idx, 1)
        coords_of_limits = set()
        for e in limit_elements(N, "edge"):
            # read the tuple off the projection functions, not the provenance
            coords = tuple(
                N.structure.functions[f"proj_edge_{t}"][e] - 1 for t in range(2)
            )
            coords_of_limits.add(coords)
        assert coords_of_limits == set(M.relation_sets["edge"]), name

        automorphisms = {p.images for p in automorphism_group_brute(M)}
        for images in itertools.permutations(range(M.size)):
            pi = Permutation(images)
            if images in automorphisms:
                direct_induced(N, pi)
            else:
                with pytest.raises(LiftMapError) as err:
                    direct_induced(N, pi)
                witness = err.value
                assert witness.coords in M.relation_sets["edge"]
                assert witness.image not in M.relation_sets["edge"]
                assert pi.apply_tuple(witness.coords) == witness.image
                rejected += 1
    _passline(
        2,
        f"limit elements encode relation membership exactly; "
        f"{rejected} non-automorphisms rejected with fiber witnesses",
        started,
    )


def test_criterion_3_scheme_suite():
    started = time.monotonic()
    for idx, (name, M) in enumerate(CORPUS):
        for k in KS:
            scheme, companion = scheme_of(idx, k)
            report = validate_scheme(M, companion, scheme)
            assert report.passed, (name, k, report.failures())
            N = lift_of(idx, k)
            for g in aut_M(idx).generators:
                assert induced_automorphism(
                    M, companion, scheme, g
                ) == direct_induced(N, g), (name, k)

    # each mutant is validated in full and fails exactly the check its
    # defect breaks: a negated translation only its relation's agreement,
    # a weakened equivalence only its sort's bijection (classes split into
    # singletons, so the map is no longer onto), and a redirected bijection
    # its sort's bijection first
    negated = broken_eq = broken_map = 0
    for idx, (name, M) in enumerate(CORPUS):
        scheme, companion = scheme_of(idx, 1)
        for i, (rel, _) in enumerate(scheme.translations):
            mutant = negate_translation(scheme, i)
            failures = validate_scheme(M, companion, mutant).failures()
            assert [c.condition for c in failures] == [f"relation-agreement[{rel}]"], (name, i)
            assert failures[0].witness, (name, rel)
            negated += 1
        for i, s in enumerate(scheme.sorts):
            classes = definable_quotient(M, s.domain_formula, s.equiv_formula)
            if any(len(c) > 1 for c in classes):
                mutant = weaken_equivalence(scheme, i)
                failures = validate_scheme(M, companion, mutant).failures()
                assert [c.condition for c in failures] == [f"sort-bijection[{i}]"], (name, i)
                broken_eq += 1
            if len(scheme.bijections[s.key]) >= 2:
                mutant_b = redirect_bijection(scheme, s.key)
                failures = validate_scheme(M, companion, mutant_b).failures()
                assert failures and failures[0].condition == f"sort-bijection[{i}]", (name, i)
                broken_map += 1
    assert negated and broken_eq and broken_map
    _passline(
        3,
        f"schemes validate on the corpus; mutations caught: "
        f"{negated} negated translations, {broken_eq} broken equivalences, "
        f"{broken_map} broken bijections",
        started,
    )


def test_criterion_4_continuity_witnesses():
    started = time.monotonic()
    checked_forward = checked_backward = 0
    for idx, (name, M) in enumerate(CORPUS):
        members = members_M(idx)
        for k in KS:
            N = lift_of(idx, k)
            induced_table = {pi.images: direct_induced(N, pi) for pi in members}
            domain = range(N.structure.size)
            for size in (0, 1, 2):
                for B in itertools.combinations(domain, size):
                    A = continuity_witness(N, B)
                    for pi in members:
                        if all(pi(a) == a for a in A):
                            pihat = induced_table[pi.images]
                            assert all(pihat(b) == b for b in B), (name, k, B)
                    checked_forward += 1
            for size in (0, 1, 2):
                for A_src in itertools.combinations(range(M.size), size):
                    A_lift = tuple(N.base_id(a) for a in A_src)
                    stab = automorphism_group(N.structure, fixed=A_lift)
                    for g in stab.elements():
                        projected = project_automorphism(N, g)
                        assert all(projected(a) == a for a in A_src), (name, k, A_src)
                    checked_backward += 1
    _passline(
        4,
        f"induced maps honor {checked_forward} finite supports; "
        f"{checked_backward} base stabilizers project correctly",
        started,
    )


def test_criterion_5_stability_evidence():
    started = time.monotonic()
    decompositions = 0
    for idx, (name, M) in enumerate(CORPUS):
        GM = aut_M(idx)
        for k in KS:
            N = lift_of(idx, k)
            GN = aut_N(idx, k)
            for size in (0, 1, 2):
                for A_src in itertools.combinations(range(M.size), size):
                    A = tuple(N.base_id(a) for a in A_src)
                    report = searched_decomposition(N, A, group_M=GM, group_N=GN)
                    assert report.passed, (name, k, A_src, report.per_sort)
                    decompositions += 1
    growth_checked = 0
    for idx, (name, M) in enumerate(CORPUS):
        report = stability_report(M, [1, 2, 3], [()], structure_id=name)
        assert report.all_pass, (name, report.entries)
        growth_checked += len(report.entries)
    # parameterized growth law on the largest structures
    for idx in range(5, len(CORPUS), 16):
        name, M = CORPUS[idx]
        report = stability_report(M, [1, 2, 3], [(0,)], structure_id=name)
        assert report.all_pass, (name, report.entries)
        growth_checked += len(report.entries)
    _passline(
        5,
        f"{decompositions} searched-group orbit decompositions and {growth_checked} growth-law "
        "entries hold exactly",
        started,
    )


def test_criterion_6_oracle_equivalence():
    started = time.monotonic()
    checked = oracle_checked = 0
    for idx, (name, M) in enumerate(CORPUS):
        assert aut_M(idx).elements() == automorphism_group_brute(M), name
        checked += 1
        for k in KS:
            N = lift_of(idx, k)
            assert aut_N(idx, k).elements() == oracle_N(idx, k), (name, k)
            oracle_checked += 1
            if N.structure.size <= 7:
                assert aut_N(idx, k).elements() == automorphism_group_brute(
                    N.structure
                ), (name, k)
                checked += 1
    assert checked > 69
    _passline(
        6,
        f"search agrees with the brute oracle on {checked} structures and with "
        f"the backtracking oracle on all {oracle_checked} lifts",
        started,
    )


def _random_term(rng: random.Random, depth: int):
    choices = ["var", "const"] + (["apply"] if depth > 0 else [])
    kind = rng.choice(choices)
    if kind == "var":
        return Var(rng.randrange(4))
    if kind == "const":
        return Const("c")
    return Apply("f", _random_term(rng, depth - 1))


def _random_formula(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Equal(_random_term(rng, 1), _random_term(rng, 1))
        if rng.random() < 0.5:
            return Rel("U", (_random_term(rng, 1),))
        return Rel("R", (_random_term(rng, 1), _random_term(rng, 1)))
    kind = rng.choice(["not", "and", "or", "exists"])
    if kind == "not":
        return Not(_random_formula(rng, depth - 1))
    if kind == "exists":
        return Exists(rng.randrange(4), _random_formula(rng, depth - 1))
    parts = tuple(
        _random_formula(rng, depth - 1) for _ in range(rng.randrange(2, 4))
    )
    return And(parts) if kind == "and" else Or(parts)


def test_criterion_7_parser_and_format(tmp_path, capsys):
    started = time.monotonic()
    sig = Signature(relations=(("R", 2), ("U", 1)), functions=("f",), constants=("c",))
    rng = random.Random(20260810)
    for _ in range(1000):
        phi = _random_formula(rng, 4)
        assert parse_formula(format_formula(phi), sig) == phi

    for name, M in CORPUS:
        assert structure_from_json(structure_to_json(M)) == M, name
    lift_struct = lift_of(12, 2).structure
    assert structure_from_json(structure_to_json(lift_struct)) == lift_struct

    path = tmp_path / "structure.json"
    path.write_text(structure_to_json(CORPUS[3][1]), encoding="utf-8")
    outputs = []
    for _ in range(2):
        code = cli_main(["verify-iso", "--in", str(path), "--k", "1"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        code = cli_main(["report", "--in", str(path), "--ks", "1,2"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]
    json.loads(outputs[0]), json.loads(outputs[2])

    with capsys.disabled():
        _passline(
            7,
            "1000 formula round-trips, 69 structure round-trips, "
            "byte-identical repeated reports",
            started,
        )


def test_criterion_8_definability_proxy():
    started = time.monotonic()
    sig = CORPUS[0][1].sig
    D = parse_formula("x0 = x0", sig)
    E = parse_formula("x0 = x1", sig)
    planted = 0
    for idx, (name, M) in enumerate(CORPUS):
        alpha = {a: (a,) for a in M.domain}
        report = check_classical_interpretation(M, M, D, E, alpha)
        assert report.passed, (name, report.failures())
        GM = aut_M(idx)
        if GM.order() > 1:
            moved = next(
                x for g in GM.generators for x in M.domain if g(x) != x
            )
            # M with one more unary relation, which an automorphism moves
            planted_sig = Signature(relations=M.sig.relations + (("planted", 1),))
            target = Structure(planted_sig, M.size, {**M.relations, "planted": [(moved,)]})
            bad = check_classical_interpretation(M, target, D, E, alpha)
            failing = [
                c for c in bad.failures() if c.condition == "invariance[planted]"
            ]
            assert failing and "automorphism" in failing[0].witness, name
            planted += 1
    assert planted > 0
    _passline(
        8,
        f"self-interpretations accepted on 69 structures; {planted} planted "
        "non-invariant relations rejected with automorphism witnesses",
        started,
    )
