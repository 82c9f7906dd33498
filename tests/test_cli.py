import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from stablelift import cli
from stablelift.cli import build_parser, main
from stablelift.corpus import digraph, exhaustive_digraphs
from stablelift.groups import Permutation, automorphism_group
from stablelift.lifting import (
    BaseElem,
    LiftConfig,
    build_lift,
    certify_induced_group,
    continuity_witness,
    direct_induced,
    generate_scheme,
)
from stablelift.structures import Signature, Structure, structure_to_json


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.json"
    path.write_text(structure_to_json(digraph(2, [(0, 1)])), encoding="utf-8")
    return str(path)


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(structure_to_json(digraph(2, [])), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lift_report(capsys, edge_file):
    code, out, err = run(capsys, "lift", "--in", edge_file, "--k", "1")
    assert code == 0
    report = json.loads(out)
    assert report["domain"] == 6
    assert len(report["elements"]) == 6
    assert report["fiber_sizes"]["edge"] == {"1": 1, "2": 1}


def test_aut_report(capsys, pair_file):
    code, out, _ = run(capsys, "aut", "--in", pair_file)
    assert code == 0
    report = json.loads(out)
    assert report["order"] == "2"
    assert report["degree"] == 2


def test_verify_iso_passes(capsys, pair_file):
    code, out, _ = run(capsys, "verify-iso", "--in", pair_file, "--k", "1")
    assert code == 0
    report = json.loads(out)
    assert report == {
        "order_M": 2,
        "order_N": 2,
        "bijective": True,
        "continuity_witnesses": "pass",
    }


def test_verify_iso_reports_a_continuity_failure(capsys, pair_file, monkeypatch):
    # an empty support forces nothing, and the swap moves the base elements
    monkeypatch.setattr("stablelift.cli.continuity_witness", lambda N, B: frozenset())
    code, out, _ = run(capsys, "verify-iso", "--in", pair_file, "--k", "1")
    assert code == 1
    assert json.loads(out)["continuity_witnesses"] == "fail"


def test_verify_iso_reports_a_broken_projection(capsys, pair_file, monkeypatch):
    # projecting every member of Aut(N) to the identity breaks the round trip
    # of the lift's swap: the section check fails, an internal error
    import stablelift.lifting as lifting

    monkeypatch.setattr(lifting, "_restrict_automorphism",
                        lambda N, g: Permutation(tuple(range(N.source.size))))
    code, out, err = run(capsys, "verify-iso", "--in", pair_file, "--k", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" (internal error)\n")


def _complete3_file(tmp_path):
    path = tmp_path / "complete.json"
    path.write_text(
        structure_to_json(digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b])),
        encoding="utf-8",
    )
    return str(path)


def _spy(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call's arguments."""
    calls, original = [], getattr(owner, name)

    def spying(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spying)
    return calls


def test_verify_iso_builds_no_chain_on_the_lift(capsys, tmp_path, monkeypatch):
    # the certificate stands for Aut(N), Aut(M) is told its order by the
    # search, and the naming points settle continuity with no stabilizer:
    # verify-iso builds no stabilizer chain at all
    import stablelift.groups as groups

    calls = _spy(monkeypatch, groups, "_chain")
    code, out, _ = run(capsys, "verify-iso", "--in", _complete3_file(tmp_path), "--k", "2")
    assert code == 0
    assert json.loads(out)["order_N"] == 6
    assert calls == []


def test_verify_iso_refuses_an_induced_map_that_is_no_automorphism(capsys, tmp_path, monkeypatch):
    # the image of the generator (0 2 1) of Sym(3) with the anchor and the
    # first base element swapped: re-checked before it is projected or
    # certified, it is an input error naming the lift
    path = tmp_path / "triple.json"
    path.write_text(structure_to_json(digraph(3, [])), encoding="utf-8")
    induced = cli.direct_induced

    def broken(N, g):
        pihat = induced(N, g)
        if g.images != (0, 2, 1):
            return pihat
        images = list(pihat.images)
        images[0], images[1] = images[1], images[0]
        return Permutation(tuple(images))

    monkeypatch.setattr(cli, "direct_induced", broken)
    code, out, err = run(capsys, "verify-iso", "--in", str(path), "--k", "1")
    assert (code, out, err) == (2, "", "error: not an automorphism of the lift\n")


@pytest.mark.parametrize("argv", [("verify-iso",), ("report", "--ks", "1,2")])
def test_a_lift_failing_its_rigidity_certificate_exits_2(capsys, edge_file, monkeypatch, argv):
    # neither subcommand searches the lift, so a lift the certificate does
    # not cover is an internal error, not a second way to the group
    import stablelift.lifting as lifting

    monkeypatch.setattr(lifting, "_rigid_over_base", lambda N: False)
    code, out, err = run(capsys, argv[0], "--in", edge_file, *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(" (internal error)\n")


def test_verify_iso_induces_each_permutation_once(capsys, tmp_path, monkeypatch):
    # only the generators of Aut(M) are induced, for the certificate, each
    # once: continuity reads the naming points and induces nothing
    path = _complete3_file(tmp_path)
    calls = _spy(monkeypatch, cli, "direct_induced")
    for k in ("1", "2"):
        calls.clear()
        code, out, _ = run(capsys, "verify-iso", "--in", path, "--k", k)
        assert code == 0
        assert json.loads(out)["order_N"] == 6
        induced = [g for _, g in calls]
        assert len(set(induced)) == len(induced)
        assert set(induced) == set(automorphism_group(digraph(3, [])).generators)


def test_report_builds_no_chain_on_the_lift(capsys, tmp_path, monkeypatch):
    # each lift's stabilizer is the group of induced generators of a source
    # stabilizer, and the source stabilizers are searched from one root:
    # report sorts M once, for that root, searches Aut(M) and each parameter
    # set's stabilizer once, and builds no chain at all
    import stablelift.groups as groups
    from stablelift import stability

    chains = _spy(monkeypatch, groups, "_chain")
    builds = _spy(monkeypatch, stability, "stabilizer_search")
    roots = _spy(monkeypatch, groups, "sort_blocks")
    searches = _spy(monkeypatch, groups, "_search")
    code, out, _ = run(capsys, "report", "--in", _complete3_file(tmp_path), "--ks", "1,2",
                       "--A", "0", "--A", "0,1")
    assert code == 0
    assert [e["growth_law"] for e in json.loads(out)["entries"]] == ["pass"] * 4
    assert chains == []
    assert len(builds) == len(roots) == 1 and builds[0][0] is roots[0][0]
    assert len(searches) == 1 + 2 and all(args[0] is builds[0][0] for args in searches)


def test_report_searches_aut_m_once_for_an_empty_parameter_set(capsys, tmp_path, monkeypatch):
    # the empty set's stabilizer is Aut(M) itself, already searched
    import stablelift.groups as groups

    searches = _spy(monkeypatch, groups, "_search")
    code, out, _ = run(capsys, "report", "--in", _complete3_file(tmp_path), "--ks", "1,2",
                       "--A", "", "--A", "0")
    assert code == 0
    assert [e["growth_law"] for e in json.loads(out)["entries"]] == ["pass"] * 4
    assert [tuple(args[3]) for args in searches] == [(), (0,)]


def test_report_induces_each_stabilizer_generator_once_per_copy_bound(
    capsys, tmp_path, monkeypatch
):
    # the certificate induces Aut(M)'s generators; the stabilizers of () and
    # of 0 have only generators among them, which are not induced again, and
    # the stabilizer of 1 has one of its own, induced once
    from stablelift import stability

    M = digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b])
    GM = automorphism_group(M)
    empty, fixing_0, fixing_1 = (automorphism_group(M, fixed=A) for A in ((), (0,), (1,)))
    assert {*empty.generators, *fixing_0.generators} <= set(GM.generators)
    (own,) = set(fixing_1.generators) - set(GM.generators)
    calls = _spy(monkeypatch, stability, "direct_induced")
    code, out, _ = run(capsys, "report", "--in", _complete3_file(tmp_path), "--ks", "1,2,3",
                       "--A", "", "--A", "0", "--A", "1")
    assert code == 0
    assert [e["growth_law"] for e in json.loads(out)["entries"]] == ["pass"] * 9
    for k in (1, 2, 3):
        induced = [g for N, g in calls if N.config.k == k]
        assert induced == [*GM.generators, own], k


def test_report_exits_1_when_a_growth_law_fails(capsys, tmp_path, monkeypatch):
    # the source counts of the stabilizer of 0, of order 2, are one orbit too
    # many, so its entry fails and the other passes: exit 1, the JSON report
    # on stdout and "check failed" on stderr
    from stablelift import stability

    def off_by_one(M, fibers, G, inner=stability._source_counts):
        o_M, per_rel = inner(M, fibers, G)
        return o_M + (G.order() == 2), per_rel

    monkeypatch.setattr(stability, "_source_counts", off_by_one)
    code, out, err = run(capsys, "report", "--in", _complete3_file(tmp_path), "--ks", "1",
                         "--A", "", "--A", "0")
    assert (code, err) == (1, "check failed\n")
    entries = json.loads(out)["entries"]
    assert [(e["A"], e["growth_law"]) for e in entries] == [([], "pass"), ([0], "fail")]


def test_verify_iso_searches_aut_m_once(capsys, tmp_path, monkeypatch):
    # continuity is containment of the naming points in the witness, so
    # verify-iso searches Aut(M) once and no stabilizer, whether the witness
    # holds them (exit 0) or is empty (exit 1)
    calls = _spy(monkeypatch, cli, "automorphism_group")
    path = _complete3_file(tmp_path)
    for witness, expected in ((continuity_witness, 0), (lambda N, B: frozenset(), 1)):
        monkeypatch.setattr(cli, "continuity_witness", witness)
        calls.clear()
        code, out, _ = run(capsys, "verify-iso", "--in", path, "--k", "2")
        assert (code, len(calls)) == (expected, 1)
        assert calls[0][0].size == 3


def _dropping(t):
    """A continuity witness with coordinate t of the element left out: the
    source point of a base element for t = 0, entry t of a fiber tuple."""
    def witness(N, B):
        (p,) = [N.provenance[b] for b in B]
        coords = (p.source,) if isinstance(p, BaseElem) else getattr(p, "coords", ())
        return frozenset(c for i, c in enumerate(coords) if i != t)

    return witness


def test_a_witness_missing_a_naming_point_fails_on_a_rigid_source(capsys, tmp_path, monkeypatch):
    # the path 0 -> 1 -> 2 is rigid, so inducing each stabilizer would find
    # no escape; containment does not look at the group, and a witness that
    # misses a naming point fails (exit 1) with no stabilizer searched
    path = tmp_path / "path.json"
    path.write_text(structure_to_json(digraph(3, [(0, 1), (1, 2)])), encoding="utf-8")
    calls = _spy(monkeypatch, cli, "automorphism_group")
    monkeypatch.setattr(cli, "continuity_witness", _dropping(0))
    code, out, _ = run(capsys, "verify-iso", "--in", str(path), "--k", "1")
    assert code == 1 and json.loads(out)["continuity_witnesses"] == "fail"
    assert len(calls) == 1


def test_continuity_by_naming_points_equals_inducing_each_stabilizer(corpus):
    """verify-iso's continuity rule per lift element, containment of the
    certificate's naming points in the witness, against the reference that
    induces each witness stabilizer's generators, on the corpus lifts, the
    iso-symmetric families and the seeded structures with a ternary
    relation.  Under the real witness both pass everywhere.  Under the empty
    witness and one dropping each coordinate in turn, containment is sound
    (where it passes, no stabilizer moves the element), and each such
    witness fails containment, and the reference, somewhere."""
    from references import continuity_escapes
    from test_groups import _lift_cases

    witnesses = {"real": continuity_witness, "empty": lambda N, B: frozenset()}
    witnesses.update({f"drop {t}": _dropping(t) for t in range(3)})
    failed = {label: [0, 0] for label in witnesses}
    for case, N in _lift_cases(corpus):
        GM = automorphism_group(N.source)
        induced = [direct_induced(N, g) for g in GM.generators]
        names = certify_induced_group(N, GM.generators, induced)
        for label, witness in witnesses.items():
            held = [witness(N, (b,)).issuperset(points) for b, points in enumerate(names)]
            escapes = continuity_escapes(N, GM, witness)
            assert not any(h and e for h, e in zip(held, escapes)), (case, label)
            failed[label][0] += not all(held)
            failed[label][1] += any(escapes)
    assert failed.pop("real") == [0, 0]
    assert all(held and escaped for held, escaped in failed.values()), failed


def test_scheme_check_clean_and_mutated(capsys, edge_file):
    code, out, _ = run(capsys, "scheme-check", "--in", edge_file, "--k", "1")
    assert code == 0
    assert json.loads(out)["validation"]["passed"]

    code, out, _ = run(
        capsys, "scheme-check", "--in", edge_file, "--k", "1",
        "--mutate", "negate-relformula",
    )
    assert code == 1
    report = json.loads(out)
    assert not report["validation"]["passed"]
    failing = [c for c in report["validation"]["checks"] if not c["passed"]]
    assert failing and failing[0]["witness"]


def test_scheme_check_other_mutations(capsys, edge_file):
    for mutation in ("break-ep", "break-fp"):
        code, out, _ = run(
            capsys, "scheme-check", "--in", edge_file, "--k", "1", "--mutate", mutation
        )
        assert code == 1, mutation


def test_scheme_check_builds_one_sort_partition_per_op(capsys, tmp_path, monkeypatch):
    # generation and validation read the companion's stored partition: one
    # build per op, mutated or not, equal to a fresh sort_partition and
    # read-only
    from stablelift import formulas, interpretation, lifting

    path = tmp_path / "rigid.json"
    M = digraph(4, [(0, 1), (1, 2), (2, 3), (0, 2), (3, 1)])
    path.write_text(structure_to_json(M), encoding="utf-8")
    original = formulas.sort_partition
    built = []

    def spy(S):
        built.append(S)
        return original(S)

    # at the import sites too, which the library keeps as names
    for module in (formulas, interpretation, lifting):
        monkeypatch.setattr(module, "sort_partition", spy)
    mutations = [("--mutate", m) for m in ("negate-relformula", "break-ep", "break-fp")]
    for flags, expected in [((), 0), *((flags, 1) for flags in mutations)]:
        built.clear()
        code, _, _ = run(capsys, "scheme-check", "--in", str(path), "--k", "3", *flags)
        assert code == expected, flags
        assert len(built) == 1 and built[0].is_relational(), (flags, len(built))
    N = build_lift(M, LiftConfig(k=3))
    stored = N.companion.sort_partition
    assert stored is N.companion.sort_partition
    assert list(stored.items()) == list(original(N.companion).items())
    with pytest.raises(TypeError):
        stored[next(iter(stored))] = ()


@pytest.mark.parametrize("k", ["1", "2"])
def test_mutations_that_need_two_elements_on_a_point_are_input_errors(capsys, tmp_path, k):
    # the anchor's one class has |M|^2 = 1 member and every other sort is
    # one element: neither mutation can plant a defect
    path = tmp_path / "point.json"
    path.write_text(structure_to_json(digraph(1, [])), encoding="utf-8")
    for mutation, message in (
        ("break-ep", "no class with two members"),
        ("break-fp", "no sort with two elements"),
    ):
        code, out, err = run(capsys, "scheme-check", "--in", str(path), "--k", k, "--mutate", mutation)
        assert (code, out) == (2, ""), mutation
        assert err.startswith(f"error: {message}"), mutation


def test_scheme_check_on_an_empty_source_is_an_input_error(capsys, tmp_path):
    # no scheme presents the lift's anchor over an empty host
    path = tmp_path / "empty.json"
    path.write_text(structure_to_json(digraph(0, [])), encoding="utf-8")
    code, out, err = run(capsys, "scheme-check", "--in", str(path), "--k", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: the source structure is empty: ")
    for command, *flags in (("lift",), ("verify-iso",), ("report", "--ks", "1,2")):
        code, out, _ = run(capsys, command, "--in", str(path), *flags)
        assert code == 0, command
        json.loads(out)


def test_summary_format(capsys, monkeypatch, edge_file):
    # reports are written by cli._dump, never by json.dumps
    dumped = []

    def counting(name, original):
        def wrapper(*args, **kwargs):
            dumped.append(name)
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_dump", counting("_dump", cli._dump))
    monkeypatch.setattr(json, "dumps", counting("json.dumps", json.dumps))
    cases = [
        (("scheme-check", "--k", "1"), 0, "scheme over 2-element structure: all conditions pass\n"),
        (("scheme-check", "--k", "1", "--mutate", "negate-relformula"), 1, "check failed\n"),
        (("report", "--ks", "1,2"), 0, "k=1 A=[]: total 6 (pass)\nk=2 A=[]: total 8 (pass)\n"),
        (("verify-iso", "--k", "1"), 0, "|Aut(M)| = 1, |Aut(lift)| = 1\n"),
    ]
    for (command, *flags), expected_code, expected_out in cases:
        code, out, err = run(capsys, command, "--in", edge_file, *flags, "--format", "summary")
        assert (code, out, err) == (expected_code, expected_out, ""), command
    # the JSON report is built only for --format json
    assert dumped == []
    run(capsys, "verify-iso", "--in", edge_file, "--k", "1")
    assert dumped == ["_dump"]


def test_limit_report(capsys, edge_file):
    code, out, _ = run(capsys, "limit", "--in", edge_file, "--k", "1")
    assert code == 0
    report = json.loads(out)
    assert report["limit_elements"]["edge"] == [{"id": 4, "coords": [0, 1]}]


def test_census_report(capsys, pair_file):
    code, out, _ = run(capsys, "census", "--in", pair_file, "--A", "")
    assert code == 0
    report = json.loads(out)
    assert report["class_count"] == 1
    assert report["qf_types"]["count"] == 1


@pytest.mark.parametrize("ks", [",", ""])
def test_report_with_no_copy_bounds_exits_2(capsys, pair_file, ks):
    code, out, err = run(capsys, "report", "--in", pair_file, "--ks", ks)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "copy bound" in err
    assert "Traceback" not in err


def test_report_growth(capsys, pair_file):
    code, out, _ = run(capsys, "report", "--in", pair_file, "--ks", "1,2,3")
    assert code == 0
    report = json.loads(out)
    assert [e["total"] for e in report["entries"]] == [3, 4, 5]


def test_reports_are_byte_identical(capsys, edge_file):
    _, first, _ = run(capsys, "verify-iso", "--in", edge_file, "--k", "1")
    _, second, _ = run(capsys, "verify-iso", "--in", edge_file, "--k", "1")
    assert first == second
    _, third, _ = run(capsys, "report", "--in", edge_file, "--ks", "1,2")
    _, fourth, _ = run(capsys, "report", "--in", edge_file, "--ks", "1,2")
    assert third == fourth


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the argv
            code = e.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv, env):
    proc = subprocess.run(
        [sys.executable, "-m", "stablelift.cli", *argv],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_main_does_not_depend_on_earlier_calls(monkeypatch, edge_file, pair_file):
    # main reuses one parser; each call in one process must still give what
    # the same argv gives alone in a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}
    sequence = [
        ["report", "--in", pair_file, "--ks", "1,2", "--A", "0"],
        ["report", "--in", pair_file, "--ks", "1,2"],  # no --A carried over
        ["scheme-check", "--in", edge_file, "--k", "x"],  # argparse exits 2
        ["verify-iso", "--in", pair_file, "--k", "1", "--format", "summary"],
        ["verify-iso", "--in", pair_file, "--k", "1", "--format", "json"],
        ["scheme-check", "--in", edge_file, "--k", "1", "--mutate", "negate-relformula"],
        ["scheme-check", "--in", edge_file, "--k", "1"],
        ["report", "--in", pair_file, "--ks", "1,2", "--A", "0"],  # after a default run
    ]
    results = [_in_process(argv) for argv in sequence]
    assert [code for code, _, _ in results] == [0, 0, 2, 0, 0, 1, 0, 0]
    for argv, result in zip(sequence, results):
        assert result == _fresh_process(argv, env), argv
    assert build_parser() is not build_parser()


def test_corpus_generation(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, _ = run(capsys, "corpus", "--out", str(out_dir), "--exhaustive", "2")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 4  # the four digraphs on exactly two vertices
    files = sorted(out_dir.iterdir())
    assert len(files) == 4

    # determinism: regenerating yields identical bytes
    contents = {f.name: f.read_bytes() for f in files}
    run(capsys, "corpus", "--out", str(out_dir), "--exhaustive", "2")
    for f in sorted(out_dir.iterdir()):
        assert contents[f.name] == f.read_bytes()


def test_corpus_file_is_structure_to_json(capsys, tmp_path):
    # one way to write a structure file
    code, _, _ = run(capsys, "corpus", "--out", str(tmp_path), "--exhaustive", "2")
    assert code == 0
    name, M = exhaustive_digraphs(2)[1]
    expected = (structure_to_json(M) + "\n").encode("utf-8")
    assert (tmp_path / f"{name}.json").read_bytes() == expected


def test_corpus_exhaustive_size_three(capsys, tmp_path):
    out_dir = tmp_path / "corpus3"
    code, out, _ = run(capsys, "corpus", "--out", str(out_dir), "--exhaustive", "3")
    assert code == 0
    assert json.loads(out)["count"] == 64
    code, _, err = run(capsys, "corpus", "--out", str(out_dir), "--exhaustive", "4")
    assert code == 2 and "guard" in err


def test_corpus_random_seeded(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, "corpus", "--out", str(a), "--random", "3", "--size", "4", "--seed", "9")
    run(capsys, "corpus", "--out", str(b), "--random", "3", "--size", "4", "--seed", "9")
    for fa, fb in zip(sorted(a.iterdir()), sorted(b.iterdir())):
        assert fa.read_bytes() == fb.read_bytes()


@pytest.mark.parametrize(
    "request_args",
    [("--exhaustive", "4"), (), ("--random", str(cli.RANDOM_CORPUS_GUARD + 1))],
)
def test_rejected_corpus_request_creates_no_directory(capsys, tmp_path, request_args):
    out_dir = tmp_path / "a" / "b"
    code, out, err = run(capsys, "corpus", "--out", str(out_dir), *request_args)
    assert code == 2 and out == "" and err.startswith("error: ")
    assert not (tmp_path / "a").exists()


def test_corpus_unwritable_file_exit_2(capsys, tmp_path):
    # a directory where a corpus file should go
    blocked = tmp_path / "digraph_n1_m0.json"
    blocked.mkdir()
    code, out, err = run(capsys, "corpus", "--out", str(tmp_path), "--exhaustive", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {blocked}: ")
    assert "Traceback" not in err


def test_corpus_out_below_a_file_exit_2(capsys, tmp_path):
    # no directory can be made below a regular file, not even by root
    (tmp_path / "file").write_text("", encoding="utf-8")
    out_dir = tmp_path / "file" / "corpus"
    code, out, err = run(capsys, "corpus", "--out", str(out_dir), "--exhaustive", "1")
    assert (code, out) == (2, "") and "Traceback" not in err
    assert err.startswith(f"error: cannot create {out_dir}: ")


def test_input_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "aut", "--in", str(tmp_path / "missing.json"))
    assert code == 2 and "error" in err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "aut", "--in", str(bad))
    assert code == 2

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"domain": 2}), encoding="utf-8")
    code, _, err = run(capsys, "aut", "--in", str(schema))
    assert code == 2


def test_size_guard_exit_2(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(structure_to_json(digraph(7, [])), encoding="utf-8")
    code, _, err = run(capsys, "aut", "--in", str(big))
    assert code == 2 and "guard" in err
    # overridable
    code, out, _ = run(capsys, "aut", "--in", str(big), "--max-size", "7")
    assert code == 0
    assert json.loads(out)["order"] == "5040"


def test_explicit_padding(capsys, edge_file):
    code, out, _ = run(
        capsys, "lift", "--in", edge_file, "--k", "1",
        "--padding", "explicit:5,7",
    )
    assert code == 0
    code, _, err = run(
        capsys, "lift", "--in", edge_file, "--k", "1",
        "--padding", "explicit:5,5",
    )
    assert code == 2 and "distinct" in err


_NOT_AN_INT = "invalid literal for int() with base 10: 'x'"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["census", "--in", "EDGE", "--A", "0,x"], f"bad element list '0,x': {_NOT_AN_INT}"),
        (["report", "--in", "EDGE", "--A", "0,x"], f"bad element list '0,x': {_NOT_AN_INT}"),
        (["lift", "--in", "EDGE", "--padding", "explicit:5"],
         "padding list needs 2 widths (one per relation/copy pair)"),
        (["lift", "--in", "EDGE", "--padding", "explicit:5,7,9"],
         "padding list needs 2 widths (one per relation/copy pair)"),
        (["corpus", "--out", "OUT", "--random", "1", "--size", str(cli.DEFAULT_SIZE_GUARD + 1)],
         f"random corpus size guarded to <= {cli.DEFAULT_SIZE_GUARD}"),
    ],
)
def test_malformed_flags_exit_2_with_their_message(capsys, tmp_path, edge_file, argv, message):
    out_dir = tmp_path / "corpus"
    argv = [{"EDGE": edge_file, "OUT": str(out_dir)}.get(a, a) for a in argv]
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not out_dir.exists()


def test_census_input_errors_exit_2(capsys, pair_file, monkeypatch):
    code, _, err = run(capsys, "census", "--in", pair_file, "--depth", "3")
    assert code == 2 and "depth" in err

    def no_group_work(M, A):
        raise AssertionError("stabilizer orbits computed for a bad parameter")

    monkeypatch.setattr(cli, "stabilizer_orbits", no_group_work)
    # a parameter outside the domain is named as one, before any group work
    for bad in ("99", "-1", "0,99"):
        code, out, err = run(capsys, "census", "--in", pair_file, "--A", bad)
        assert code == 2 and out == ""
        assert f"parameter {bad.split(',')[-1]} outside the domain" in err


def test_census_negative_depth_exit_2(capsys, pair_file):
    code, out, err = run(capsys, "census", "--in", pair_file, "--depth", "-1")
    assert code == 2 and out == ""
    assert "depth -1" in err


def test_negative_max_size_exit_2_naming_the_flag(capsys, pair_file):
    code, out, err = run(capsys, "aut", "--in", pair_file, "--max-size", "-1")
    assert code == 2 and out == ""
    assert err == "error: --max-size -1 is negative\n"


def test_negative_exhaustive_exit_2_naming_the_flag(capsys, tmp_path):
    out_dir = tmp_path / "corpus"
    code, out, err = run(capsys, "corpus", "--out", str(out_dir), "--exhaustive", "-1")
    assert code == 2 and out == ""
    assert err == "error: --exhaustive -1 is negative\n"
    assert not out_dir.exists()


def test_limit_relation_filter(capsys, edge_file, monkeypatch):
    code, out, _ = run(capsys, "limit", "--in", edge_file, "--k", "1",
                       "--relation", "edge")
    assert code == 0
    assert json.loads(out)["limit_elements"]["edge"]
    # an unknown name is refused after the lift guards, before any lift is built
    built = []
    monkeypatch.setattr(cli, "build_lift", lambda *a: built.append(a))
    code, out, err = run(capsys, "limit", "--in", edge_file, "--k", "1",
                         "--relation", "nope")
    assert (code, out, err) == (2, "", "error: unknown relation 'nope'\n")
    code, _, err = run(capsys, "limit", "--in", edge_file, "--k", "99",
                       "--relation", "nope")
    assert code == 2 and "copy bound 99" in err
    assert built == []


def test_report_with_parameter_sets(capsys, pair_file):
    code, out, _ = run(capsys, "report", "--in", pair_file, "--ks", "1,2",
                       "--A", "", "--A", "0")
    assert code == 0
    entries = json.loads(out)["entries"]
    assert [e["A"] for e in entries] == [[], [0], [], [0]]
    assert all(e["growth_law"] == "pass" for e in entries)


def _write_doc(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_report_bad_ks_exit_2(capsys, pair_file):
    code, _, err = run(capsys, "report", "--in", pair_file, "--ks", "1,a")
    assert code == 2 and "--ks" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scheme-check", "--k", "100000"), f"copy bound 100000 exceeds the guard {cli.COPY_BOUND_GUARD}"),
        (("lift", "--k", "100000"), f"copy bound 100000 exceeds the guard {cli.COPY_BOUND_GUARD}"),
        (("report", "--ks", "1,100000"), f"copy bound 100000 exceeds the guard {cli.COPY_BOUND_GUARD}"),
        *(
            ((command, "--padding", f"explicit:2,{width}"),
             f"--padding width {width} exceeds the guard {cli.PADDING_WIDTH_GUARD}")
            for command, width in (
                ("scheme-check", cli.PADDING_WIDTH_GUARD + 1),
                ("scheme-check", 100_000_000),
                ("lift", 3_000_000),
                ("verify-iso", 10**20 - 1),
                ("limit", 10**20 - 1),
            )
        ),
    ],
)
def test_work_guards_exit_2_before_building(capsys, edge_file, monkeypatch, argv, message):
    # each would exhaust memory or run for minutes if the lift were built
    def no_lift(*args, **kwargs):
        raise AssertionError("a lift was built past a work guard")

    monkeypatch.setattr(cli, "build_lift", no_lift)
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--in", edge_file)
    assert code == 2 and out == "" and time.monotonic() - started < 1
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("mutate, expected", [((), 0), (("--mutate", "break-ep"), 1)])
def test_a_wide_padded_sort_is_checked_without_writing_out_its_padding(
    capsys, edge_file, mutate, expected
):
    # 24 padding positions: 2**24 members per class of the width-26 sort
    started = time.monotonic()
    code, out, _ = run(capsys, "scheme-check", "--in", edge_file, "--padding", "explicit:2,26", *mutate)
    assert time.monotonic() - started < 1
    report = json.loads(out)
    assert code == expected and 26 in {s["width"] for s in report["scheme"]["sorts"]}
    failed = [c for c in report["validation"]["checks"] if not c["passed"]]
    assert all(c["witness"] for c in failed) and bool(failed) == bool(mutate)


def test_aut_with_a_400_ary_relation_is_quick(capsys, tmp_path):
    # one table per pair of equal-column classes: 4 here, not 400 * 399
    path = tmp_path / "wide.json"
    sig = Signature(relations=(("W", 400),))
    M = Structure(sig=sig, size=2, relations={"W": [(0, 1) * 200]}, repetition_free=False)
    path.write_text(structure_to_json(M), encoding="utf-8")
    started = time.monotonic()
    code, out, _ = run(capsys, "aut", "--in", str(path))
    assert time.monotonic() - started < 1
    assert code == 0 and json.loads(out)["order"] == "1"


def test_complete_digraph_scheme_check_at_k_6_is_quick(capsys, tmp_path):
    # sorts of width 8: 6**8 host tuples each, were their padding written out
    path = tmp_path / "complete.json"
    edges = [(a, b) for a in range(6) for b in range(6) if a != b]
    path.write_text(structure_to_json(digraph(6, edges)), encoding="utf-8")
    started = time.monotonic()
    code, _, _ = run(capsys, "scheme-check", "--in", str(path), "--k", "6")
    assert code == 0 and time.monotonic() - started < 3


def _random_relational(rng):
    """A structure of 1-3 elements with 0-3 relations of arity 1-4, each
    holding random tuples or none, repetition-free or not."""
    n = rng.randint(1, 3)
    arities = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
    sig = Signature(relations=tuple((f"R{i}", a) for i, a in enumerate(arities)))
    free = rng.random() < 0.5
    relations = {}
    for i, a in enumerate(arities):
        tuples = [tuple(rng.randrange(n) for _ in range(a)) for _ in range(rng.choice([0, 0, 1, 3]))]
        relations[f"R{i}"] = [t for t in tuples if not free or len(set(t)) == a]
    return Structure(sig, n, relations, repetition_free=free)


def test_translation_count_is_the_generated_scheme_length():
    rng = random.Random(1606)
    for _ in range(120):
        M = _random_relational(rng)
        k, repetitions = rng.randint(1, 3), rng.random() < 0.3
        N = build_lift(M, LiftConfig(k=k, include_repetition_tuples=repetitions))
        scheme = generate_scheme(N)
        assert cli._translation_count(N) == len(scheme.translations), (M, k, repetitions)


def test_translation_guard_boundary_is_exact(capsys, monkeypatch, tmp_path):
    sig = Signature(relations=(("U", 1), ("T", 3), ("E", 2)))
    loose = Structure(sig, 2, {"U": [(1,)], "E": [(0, 0)]}, repetition_free=False)
    path = tmp_path / "structure.json"
    for M in (digraph(2, [(0, 1)]), loose):
        path.write_text(structure_to_json(M), encoding="utf-8")
        for k, flags in ((1, ()), (2, ("--include-repetitions",))):
            config = LiftConfig(k=k, include_repetition_tuples=bool(flags))
            count = len(generate_scheme(build_lift(M, config)).translations)
            for guard, expected in ((count, 0), (count - 1, 2)):
                monkeypatch.setattr(cli, "TRANSLATION_GUARD", guard)
                code, _, err = run(capsys, "scheme-check", "--in", str(path), "--k", str(k), *flags)
                assert code == expected, (M, k, flags, guard)
            assert err == (
                f"error: the scheme at copy bound {k} would have {count} translations, "
                f"above the guard {count - 1}\n"
            )


def test_translation_guard_refuses_many_sorts_over_one_element(capsys, tmp_path):
    # 56 sorts and 60 binary relations, so 188,608 translations; every
    # other guard lets it through
    sig = Signature(relations=tuple((f"U{i}", 1) for i in range(6)))
    M = Structure(sig, 1, {f"U{i}": [(0,)] for i in range(6)})
    path = tmp_path / "unary.json"
    path.write_text(structure_to_json(M), encoding="utf-8")
    started = time.monotonic()
    code, out, err = run(capsys, "scheme-check", "--in", str(path), "--k", "8")
    assert code == 2 and out == "" and time.monotonic() - started < 1
    assert err == (
        "error: the scheme at copy bound 8 would have 188608 translations, "
        f"above the guard {cli.TRANSLATION_GUARD}\n"
    )


def _report_atoms(scheme):
    """The atoms a scheme-check report prints in its sorts and translations,
    read off the report: per sort its key atoms, width atoms in its domain
    and twice as many in its equivalence, and per translation the key atoms
    and widths of its sorts."""
    width = {tuple(s["key"]): s["width"] for s in scheme["sorts"]}
    return sum(len(key) + 3 * w for key, w in width.items()) + sum(
        len(key) + width[tuple(key)] for r in scheme["relations"] for key in r["sorts"]
    )


def test_scheme_atom_guard_boundary_is_exact(capsys, monkeypatch, tmp_path):
    # a report of exactly the guard's atoms is written, one atom more is
    # refused before validation, with the count in the message
    path, guard = tmp_path / "structure.json", cli.SCHEME_ATOM_GUARD
    for M, argv in (
        (digraph(2, [(0, 1)]), ("--k", "2")),
        (digraph(3, [(0, 1), (1, 2)]), ("--k", "2", "--padding", "explicit:3,5,4")),
        (Structure(Signature(relations=(("W", 4),)), 2, {"W": []}), ("--k", "1")),
    ):
        path.write_text(structure_to_json(M), encoding="utf-8")
        monkeypatch.setattr(cli, "SCHEME_ATOM_GUARD", guard)
        code, out, _ = run(capsys, "scheme-check", "--in", str(path), *argv)
        assert code == 0
        atoms = _report_atoms(json.loads(out)["scheme"])
        monkeypatch.setattr(cli, "SCHEME_ATOM_GUARD", atoms - 1)
        code, out, err = run(capsys, "scheme-check", "--in", str(path), *argv)
        assert (code, out) == (2, ""), (M, argv)
        assert err.endswith(f"would print {atoms} atoms, above the guard {atoms - 1}\n")
        monkeypatch.setattr(cli, "SCHEME_ATOM_GUARD", atoms)
        for mutate in ((), ("--mutate", "negate-relformula")):
            code, _, _ = run(capsys, "scheme-check", "--in", str(path), *argv, *mutate)
            assert code == (1 if mutate else 0), (M, argv, mutate)


def test_scheme_atom_guard_refuses_a_wide_relation_quickly(capsys, tmp_path):
    # one empty relation of arity 1,000 on two points passes every other
    # guard; unguarded, its report is 137 MB
    doc = {"signature": {"relations": [{"name": "W", "arity": 1000}]}, "domain": 2, "relations": {"W": []}}
    started = time.monotonic()
    code, out, err = run(capsys, "scheme-check", "--in", _write_doc(tmp_path, doc))
    assert (code, out) == (2, "") and time.monotonic() - started < 1
    assert err == (
        "error: the scheme at copy bound 1 would print 4044102 atoms, "
        f"above the guard {cli.SCHEME_ATOM_GUARD}\n"
    )


def test_the_widest_padded_scheme_of_ci_is_within_the_atom_guard():
    # five widths near 2,000 on the one-edge digraph at k = 4, a 16 MB report
    M = digraph(2, [(0, 1)])
    padding = cli._parse_padding("explicit:1999,1998,1997,1996,1995", M, 4)
    scheme = generate_scheme(build_lift(M, LiftConfig(k=4, padding=padding)))
    assert cli._scheme_atoms(scheme) == 1_041_710 <= cli.SCHEME_ATOM_GUARD


def _signature_doc(size, relations=(), functions=0, constants=0):
    """A structure document on ``size`` points with empty relations of the
    given arities, identity functions and constants at 0."""
    fs = [f"f{i}" for i in range(functions)]
    cs = [f"c{i}" for i in range(constants)]
    return {
        "signature": {
            "relations": [{"name": f"R{i}", "arity": a} for i, a in enumerate(relations)],
            "functions": [{"name": f} for f in fs],
            "constants": [{"name": c} for c in cs],
        },
        "domain": size,
        "relations": {f"R{i}": [] for i in range(len(relations))},
        "functions": {f: list(range(size)) for f in fs},
        "constants": dict.fromkeys(cs, 0),
    }


@pytest.mark.parametrize(
    "doc, argv, count",
    [
        (_signature_doc(2, relations=[10**8]), ("aut",), 10**8 + 1),
        (_signature_doc(3, relations=[12], constants=3), ("aut",), 10 + 12 * (4**12 - 3**12)),
        (_signature_doc(1, constants=20_000), ("aut",), 20_001 * 20_002 // 2),
        (_signature_doc(6, functions=200), ("census", "--A", "0", "--depth", "2"),
         40_201 * 40_202 // 2),
    ],
    ids=["arity-1e8", "three-constants-arity-12", "20000-constants", "200-functions-depth-2"],
)
def test_too_many_atomic_formulas_are_refused_before_anything_is_built(
    capsys, tmp_path, doc, argv, count
):
    # the sort basis and the census would build every one-variable atomic
    # formula: a MemoryError or minutes of work, refused here in well under
    # a second, with the count in the message
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--in", _write_doc(tmp_path, doc))
    assert (code, out) == (2, "") and time.monotonic() - started < 1
    assert f"at least {count} one-variable atomic formulas" in err
    assert err.endswith(f"above the guard {cli.FORMULA_GUARD}\n")


def test_the_formula_guard_boundary_is_exact(monkeypatch):
    # the census's T(T+1)/2 equalities of its T terms, and each relation
    # atom of the sort basis weighed by its arity
    from stablelift.formulas import Rel, atomic_formula_basis

    sig = Signature(relations=(("U", 1), ("T", 3)), functions=("f", "g"), constants=("c",))
    M = Structure(sig, 2, {"U": [], "T": []}, functions={"f": [0, 1], "g": [1, 0]},
                  constants={"c": 0})
    atoms = sum(len(phi.args) for _, phi in atomic_formula_basis(sig) if isinstance(phi, Rel))
    for depth, T in ((0, 2), (1, 6), (2, 14)):
        count = T * (T + 1) // 2 + atoms
        monkeypatch.setattr(cli, "FORMULA_GUARD", count)
        cli._check_formulas("doc.json", M, depth)
        monkeypatch.setattr(cli, "FORMULA_GUARD", count - 1)
        with pytest.raises(cli.InputError) as raised:
            cli._check_formulas("doc.json", M, depth)
        assert str(raised.value) == (
            f"doc.json: at least {count} one-variable atomic formulas (terms at depth {depth}: "
            f"{T}; relation 'T' of arity 3), above the guard {count - 1}"
        )


def test_the_formula_count_passes_at_depth_1_what_depth_2_refuses(capsys, tmp_path):
    # 200 functions on 6 points: 201 terms at depth 1, 40,201 at depth 2
    path = _write_doc(tmp_path, _signature_doc(6, functions=200))
    code, out, _ = run(capsys, "census", "--in", path, "--A", "0")
    assert code == 0 and json.loads(out)["class_count"] == 2


def _wide_doc(tmp_path, arity):
    """Six points and one empty relation of the given arity whose tuples may
    repeat entries, so each copy of the lift has 6**arity fiber elements."""
    doc = {
        "signature": {"relations": [{"name": "W", "arity": arity}]},
        "domain": 6,
        "relations": {"W": []},
        "repetition_free": False,
    }
    return _write_doc(tmp_path, doc)


@pytest.fixture
def wide_file(tmp_path):
    return _wide_doc(tmp_path, 5)


@pytest.mark.parametrize("arity, k", [(5, 1), (4, 4)])
def test_scheme_check_of_a_wide_relation_passes(capsys, tmp_path, arity, k):
    # 7,783 lift elements for the 5-ary relation at k = 1, 5,191 for the
    # 4-ary one at k = 4: the companion's binary relations are decided by
    # joins and the fiber sorts' kernels grouped by key, not pair by pair
    started = time.monotonic()
    code, out, _ = run(capsys, "scheme-check", "--k", str(k), "--in", _wide_doc(tmp_path, arity))
    assert code == 0 and json.loads(out)["validation"]["passed"]
    assert time.monotonic() - started < 15


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("scheme-check", "--k", "2"),
            f"the lift at copy bound 2 would have 15559 elements, above the guard {cli.LIFT_ELEMENT_GUARD}",
        ),
        (
            ("lift", "--k", "32", "--include-repetitions"),
            f"the lift at copy bound 32 would have 248839 elements, above the guard {cli.LIFT_ELEMENT_GUARD}",
        ),
        (
            ("lift", "--k", "2"),
            f"the lift at copy bound 2 would have 15559 elements, above the guard {cli.LIFT_ELEMENT_GUARD}",
        ),
        (
            ("report", "--ks", "1,32"),
            f"the lift at copy bound 32 would have 248839 elements, above the guard {cli.LIFT_ELEMENT_GUARD}",
        ),
    ],
)
def test_arity_guards_exit_2_before_building(capsys, wide_file, argv, message):
    # unguarded, the k = 32 lift takes half a minute and 1.5 GB
    started = time.monotonic()
    code, out, err = run(capsys, *argv, "--in", wide_file)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("command", ["lift", "report", "scheme-check"])
def test_guard_names_a_count_too_long_to_print(capsys, tmp_path, command):
    # 2**20000 has more digits than str() writes
    doc = {
        "signature": {"relations": [{"name": "W", "arity": 20000}]},
        "domain": 2,
        "relations": {"W": []},
        "repetition_free": False,
    }
    code, out, err = run(capsys, command, "--in", _write_doc(tmp_path, doc))
    assert code == 2 and out == ""
    assert err.startswith("error: the lift at copy bound ")
    assert " would have at least 2**" in err


def test_lift_element_guard_counts_the_lift_exactly(capsys, monkeypatch, tmp_path):
    # a lift of exactly the guard's size is built, one element more is not
    sig = Signature(relations=(("T", 3), ("E", 2)))
    loose = Structure(
        sig, 3, {"T": [(0, 0, 1), (2, 1, 0)], "E": [(1, 1)]}, repetition_free=False
    )
    for M in (digraph(3, [(0, 1), (1, 2)]), loose):
        path = tmp_path / "structure.json"
        path.write_text(structure_to_json(M), encoding="utf-8")
        for k, flags in ((1, ()), (2, ()), (2, ("--include-repetitions",))):
            config = LiftConfig(k=k, include_repetition_tuples=bool(flags))
            size = build_lift(M, config).structure.size
            for guard, expected in ((size, 0), (size - 1, 2)):
                monkeypatch.setattr(cli, "LIFT_ELEMENT_GUARD", guard)
                code, _, _ = run(capsys, "lift", "--in", str(path), "--k", str(k), *flags)
                assert code == expected, (M, k, flags, guard)
                if not flags:
                    code, _, _ = run(capsys, "report", "--in", str(path), "--ks", str(k))
                    assert code == expected, (M, k, guard)


def test_complete_digraph_at_the_copy_bound_is_within_the_element_guard(capsys, tmp_path):
    path = tmp_path / "complete.json"
    edges = [(a, b) for a in range(6) for b in range(6) if a != b]
    path.write_text(structure_to_json(digraph(6, edges)), encoding="utf-8")
    code, out, _ = run(capsys, "lift", "--in", str(path), "--k", str(cli.COPY_BOUND_GUARD))
    assert code == 0 and json.loads(out)["domain"] == 997


def test_structure_non_integer_arity_exit_2(capsys, tmp_path):
    doc = {"signature": {"relations": [{"name": "edge", "arity": "two"}]}, "domain": 2}
    code, _, err = run(capsys, "aut", "--in", _write_doc(tmp_path, doc))
    assert code == 2 and "error" in err


def test_structure_relation_without_name_exit_2(capsys, tmp_path):
    doc = {"signature": {"relations": [{"arity": 2}]}, "domain": 2}
    code, _, err = run(capsys, "aut", "--in", _write_doc(tmp_path, doc))
    assert code == 2 and "name" in err


def test_structure_relations_as_list_exit_2(capsys, tmp_path):
    doc = {
        "signature": {"relations": [{"name": "edge", "arity": 2}]},
        "domain": 2,
        "relations": [[0, 1]],
    }
    code, _, err = run(capsys, "aut", "--in", _write_doc(tmp_path, doc))
    assert code == 2 and "error" in err


def test_structure_bool_domain_exit_2(capsys, tmp_path):
    doc = {"signature": {"relations": [{"name": "edge", "arity": 2}]}, "domain": True}
    code, out, err = run(capsys, "aut", "--in", _write_doc(tmp_path, doc))
    assert code == 2 and "domain" in err and out == ""


@pytest.mark.parametrize(
    "text",
    ['{"domain": ' + "1" * 5000 + "}", "[" * 100_000 + "]" * 100_000],
    ids=["digit-limit", "nesting-depth"],
)
def test_structure_json_past_the_parser_limits_exit_2(capsys, tmp_path, text):
    path = tmp_path / "limits.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "aut", "--in", str(path))
    assert code == 2 and "not valid JSON" in err and out == ""


def test_structure_file_not_utf8_exit_2(capsys, tmp_path):
    path = tmp_path / "bytes.json"
    path.write_bytes(b"\x80")
    code, out, err = run(capsys, "aut", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: not UTF-8 text:")


@pytest.mark.parametrize("value", ["5", "-1"])
def test_report_parameter_outside_source_domain_exit_2(capsys, tmp_path, value):
    path = tmp_path / "triangle.json"
    path.write_text(structure_to_json(digraph(3, [(0, 1), (1, 2)])), encoding="utf-8")
    code, out, err = run(capsys, "report", "--in", str(path), "--A", value)
    assert code == 2 and out == ""
    assert f"parameter {value} " in err and "source domain" in err


# -- the error contract over arbitrary argv ------------------------------------------

ELEMENT_LISTS = ("", "0", "0,1", "1,0,1", "2", "5", "-1", "a", "0,,1")
LIFT_FLAGS = ("--k", "--include-repetitions", "--padding")
COMMON_FLAGS = ("--in", "--max-size", "--format")
ACCEPTS = {
    "lift": COMMON_FLAGS + LIFT_FLAGS,
    "aut": COMMON_FLAGS,
    "verify-iso": COMMON_FLAGS + LIFT_FLAGS,
    "scheme-check": COMMON_FLAGS + LIFT_FLAGS + ("--mutate",),
    "limit": COMMON_FLAGS + LIFT_FLAGS + ("--relation",),
    "census": COMMON_FLAGS + ("--A", "--depth"),
    "report": COMMON_FLAGS + ("--ks", "--A"),
    "corpus": ("--out", "--exhaustive", "--random", "--size", "--seed", "--format"),
}


def _flag_values(files, out_dir):
    """Values for each flag, valid and invalid; --k, --ks and --depth stay
    small to bound the work, apart from copy bounds and a random corpus
    count past the CLI's work guards, which must be rejected before any lift
    or corpus is built.  The padding width explicit:2,40 is accepted: quotients
    never write out its padding."""
    small = st.integers(-1, 3).map(str)
    return {
        "--in": st.sampled_from(files),
        "--max-size": st.integers(-1, 7).map(str),
        "--format": st.sampled_from(("json", "summary", "json", "summary", "xml")),
        "--k": small | st.sampled_from(("x", "100000")),
        "--include-repetitions": st.none(),
        "--padding": st.sampled_from(
            (
                "auto",
                "explicit:",
                "explicit:2",
                "explicit:3,3",
                "explicit:a",
                "explicit:2,40",
                "bogus",
            )
        ),
        "--mutate": st.sampled_from(("negate-relformula", "break-ep", "break-fp", "other")),
        "--relation": st.sampled_from(("edge", "nosuch")),
        "--A": st.sampled_from(ELEMENT_LISTS),
        "--depth": st.integers(-1, 2).map(str) | st.just("x"),
        "--ks": st.lists(small, max_size=3).map(",".join) | st.sampled_from(("x", "1,,2", "1,100000")),
        "--out": st.just(out_dir),
        "--exhaustive": st.integers(-1, 4).map(str),
        "--random": st.integers(-1, 3).map(str) | st.just("100000000"),
        "--size": st.integers(-1, 7).map(str),
        "--seed": st.integers(0, 3).map(str),
    }


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Input files for the argv property: small digraphs, a file whose bytes
    each example draws, and a path that does not exist."""
    root = tmp_path_factory.mktemp("cli_argv")
    files = []
    for name, M in (
        ("empty", digraph(0, [])),
        ("edge", digraph(2, [(0, 1)])),
        ("pair", digraph(2, [])),
        ("path", digraph(3, [(0, 1), (1, 2)])),
    ):
        path = root / f"{name}.json"
        path.write_text(structure_to_json(M), encoding="utf-8")
        files.append(str(path))
    drawn = root / "drawn.json"
    return files + [str(drawn), str(root / "missing.json")], drawn, str(root / "out")


def _witnessed(command, report) -> bool:
    """Whether a failed check's report names what failed."""
    if command == "scheme-check":
        return any(c["witness"] for c in report["validation"]["checks"] if not c["passed"])
    if command == "verify-iso":
        return not report["bijective"] or report["continuity_witnesses"] == "fail"
    if command == "report":
        return any(e["growth_law"] != "pass" for e in report["entries"])
    return False


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_argv_keeps_the_exit_code_contract(cli_files, data):
    # 0 = pass, 1 = check failed with a witness in the report, 2 = input
    # error; never an escaping exception
    files, drawn, out_dir = cli_files
    drawn.write_bytes(data.draw(st.binary(max_size=40) | st.just(b'{"domain": 2}'), label="bytes"))
    command = data.draw(st.sampled_from(sorted(ACCEPTS)), label="command")
    values = _flag_values(files, out_dir)
    # mostly the subcommand's own flags, sometimes any flag
    names = st.sampled_from(ACCEPTS[command] * 8 + tuple(sorted(values)))
    flags = []
    for name in data.draw(st.lists(names, max_size=5), label="flags"):
        value = data.draw(values[name], label=name)
        flags.append((name,) if value is None else (name, value))
    if not data.draw(st.booleans(), label="without a valid --in or --out"):
        if command == "corpus":
            flags.insert(0, ("--out", out_dir))
        else:
            flags.insert(0, ("--in", data.draw(st.sampled_from(files[:4]), label="file")))
    argv = [command] + [token for flag in flags for token in flag]
    code, out, err = _in_process(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 1:
        formats = [flag[1] for flag in flags if flag[0] == "--format"]
        if formats[-1:] == ["summary"]:
            assert "check failed" in out, argv
        else:
            assert _witnessed(command, json.loads(out)), argv


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--ks", "32,32,32,32"), "--ks lists the copy bound 32 twice"),
        (("--ks", "1,2,1"), "--ks lists the copy bound 1 twice"),
        (("--A", "0,1", "--A", "1,0"), "--A '1,0' repeats the parameter set [0, 1] of --A '0,1'"),
        (("--A", "0", "--A", "0,0"), "--A '0,0' repeats the parameter set [0] of --A '0'"),
        (("--A", "", "--A", ""), "--A '' repeats the parameter set [] of --A ''"),
    ],
)
def test_report_rejects_a_repeated_copy_bound_or_parameter_set(capsys, tmp_path, flags, message):
    # on the complete 6-vertex digraph each k = 32 entry takes about 2 s
    path = tmp_path / "complete.json"
    edges = [(a, b) for a in range(6) for b in range(6) if a != b]
    path.write_text(structure_to_json(digraph(6, edges)), encoding="utf-8")
    started = time.monotonic()
    code, out, err = run(capsys, "report", "--in", str(path), *flags)
    assert time.monotonic() - started < 1
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")

