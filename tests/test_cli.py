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
                        lambda N, g: Permutation.identity(N.source.size))
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
    # the certificate stands for Aut(N): every stabilizer chain verify-iso
    # builds is on the source's degree
    import stablelift.groups as groups

    calls = _spy(monkeypatch, groups, "_Chain")
    code, out, _ = run(capsys, "verify-iso", "--in", _complete3_file(tmp_path), "--k", "2")
    assert code == 0
    assert json.loads(out)["order_N"] == 6
    assert calls and {args[0] for args in calls} == {3}


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
    # stabilizer, so the only chains report builds are on the source's degree
    import stablelift.groups as groups

    calls = _spy(monkeypatch, groups, "_Chain")
    code, out, _ = run(capsys, "report", "--in", _complete3_file(tmp_path), "--ks", "1,2",
                       "--A", "0", "--A", "0,1")
    assert code == 0
    assert [e["growth_law"] for e in json.loads(out)["entries"]] == ["pass"] * 4
    assert calls and {args[0] for args in calls} == {3}


def test_report_induces_each_stabilizer_generator_once_per_copy_bound(
    capsys, tmp_path, monkeypatch
):
    # the empty parameter set's stabilizer is Aut(M) itself, whose images the
    # certificate already holds; the stabilizer of 0 induces its own
    from stablelift import stability
    from stablelift.groups import pointwise_stabilizer

    GM = automorphism_group(digraph(3, [(a, b) for a in range(3) for b in range(3) if a != b]))
    fixing_0 = pointwise_stabilizer(GM, (0,))
    assert fixing_0 is not GM and fixing_0.order() == 2
    calls = _spy(monkeypatch, stability, "direct_induced")
    code, out, _ = run(capsys, "report", "--in", _complete3_file(tmp_path), "--ks", "1,2,3",
                       "--A", "", "--A", "0")
    assert code == 0
    assert [e["growth_law"] for e in json.loads(out)["entries"]] == ["pass"] * 6
    for k in (1, 2, 3):
        induced = [g for N, g in calls if N.config.k == k]
        assert induced == [*GM.generators, *fixing_0.generators], k


def test_verify_iso_takes_a_stabilizer_only_for_a_naming_point_outside_the_witness(
    capsys, tmp_path, monkeypatch
):
    # every real witness holds its element's naming points, so a normal run
    # takes no stabilizer; an empty witness takes one and fails
    calls = _spy(monkeypatch, cli, "pointwise_stabilizer")
    path = _complete3_file(tmp_path)
    code, out, _ = run(capsys, "verify-iso", "--in", path, "--k", "2")
    assert (code, calls) == (0, [])
    monkeypatch.setattr(cli, "continuity_witness", lambda N, B: frozenset())
    code, out, _ = run(capsys, "verify-iso", "--in", path, "--k", "2")
    assert code == 1 and calls


def _dropping(t):
    """A continuity witness with coordinate t of the element left out: the
    source point of a base element for t = 0, entry t of a fiber tuple."""
    def witness(N, B):
        (p,) = [N.provenance[b] for b in B]
        coords = (p.source,) if isinstance(p, BaseElem) else getattr(p, "coords", ())
        return frozenset(c for i, c in enumerate(coords) if i != t)

    return witness


def test_a_witness_missing_a_naming_point_passes_on_a_rigid_source(capsys, tmp_path, monkeypatch):
    # the path 0 -> 1 -> 2 is rigid, so only the identity fixes any support:
    # the check takes the stabilizer of each short witness, and it passes
    path = tmp_path / "path.json"
    path.write_text(structure_to_json(digraph(3, [(0, 1), (1, 2)])), encoding="utf-8")
    calls = _spy(monkeypatch, cli, "pointwise_stabilizer")
    monkeypatch.setattr(cli, "continuity_witness", _dropping(0))
    code, out, _ = run(capsys, "verify-iso", "--in", str(path), "--k", "1")
    assert code == 0 and json.loads(out)["continuity_witnesses"] == "pass"
    assert calls


def test_continuity_by_naming_points_equals_inducing_each_stabilizer(corpus, monkeypatch):
    """verify-iso's continuity verdict per lift element against the
    reference that induces each witness stabilizer's generators, on the
    corpus lifts, the iso-symmetric families and the seeded structures with
    a ternary relation, under the real witness, one dropping each
    coordinate in turn and the empty one."""
    from references import continuity_escapes
    from test_groups import _lift_cases

    witnesses = {"real": continuity_witness, "empty": lambda N, B: frozenset()}
    witnesses.update({f"drop {t}": _dropping(t) for t in range(3)})
    failed = {label: 0 for label in witnesses}
    for case, N in _lift_cases(corpus):
        GM = automorphism_group(N.source)
        induced = [direct_induced(N, g) for g in GM.generators]
        names = certify_induced_group(N, GM.generators, induced)
        for label, witness in witnesses.items():
            monkeypatch.setattr(cli, "continuity_witness", witness)
            verdicts = list(cli._escapes_witness(N, GM, names))
            assert verdicts == continuity_escapes(N, GM, witness), (case, label)
            failed[label] += any(verdicts)
    # the real witness always passes, and each doctored one fails somewhere
    assert failed["real"] == 0 and all(failed[label] for label in witnesses if label != "real")


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
    code, out, err = run(capsys, *argv, "--in", edge_file)
    assert code == 2 and out == ""
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
        assert cli._translation_count(M, k, repetitions) == len(scheme.rels), (M, k, repetitions)


def test_translation_guard_boundary_is_exact(capsys, monkeypatch, tmp_path):
    sig = Signature(relations=(("U", 1), ("T", 3), ("E", 2)))
    loose = Structure(sig, 2, {"U": [(1,)], "E": [(0, 0)]}, repetition_free=False)
    path = tmp_path / "structure.json"
    for M in (digraph(2, [(0, 1)]), loose):
        path.write_text(structure_to_json(M), encoding="utf-8")
        for k, flags in ((1, ()), (2, ("--include-repetitions",))):
            config = LiftConfig(k=k, include_repetition_tuples=bool(flags))
            count = len(generate_scheme(build_lift(M, config)).rels)
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

