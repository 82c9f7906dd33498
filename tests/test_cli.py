import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from stablelift.cli import main
from stablelift.corpus import digraph
from stablelift.structures import structure_to_json


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
    dumped = []
    original = json.dumps

    def counting(*args, **kwargs):
        dumped.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
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
    assert len(dumped) == 1


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


def test_census_input_errors_exit_2(capsys, pair_file):
    code, _, err = run(capsys, "census", "--in", pair_file, "--depth", "3")
    assert code == 2 and "depth" in err
    code, _, err = run(capsys, "census", "--in", pair_file, "--A", "99")
    assert code == 2


def test_census_negative_depth_exit_2(capsys, pair_file):
    code, out, err = run(capsys, "census", "--in", pair_file, "--depth", "-1")
    assert code == 2 and out == ""
    assert "depth -1" in err


def test_limit_relation_filter(capsys, edge_file):
    code, out, _ = run(capsys, "limit", "--in", edge_file, "--k", "1",
                       "--relation", "edge")
    assert code == 0
    assert json.loads(out)["limit_elements"]["edge"]
    code, _, err = run(capsys, "limit", "--in", edge_file, "--k", "1",
                       "--relation", "nope")
    assert code == 2 and "unknown relation" in err


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
    small to bound the work."""
    small = st.integers(-1, 3).map(str)
    return {
        "--in": st.sampled_from(files),
        "--max-size": st.integers(-1, 7).map(str),
        "--format": st.sampled_from(("json", "summary", "json", "summary", "xml")),
        "--k": small | st.just("x"),
        "--include-repetitions": st.none(),
        "--padding": st.sampled_from(
            ("auto", "explicit:", "explicit:2", "explicit:3,3", "explicit:a", "bogus")
        ),
        "--mutate": st.sampled_from(("negate-relformula", "break-ep", "break-fp", "other")),
        "--relation": st.sampled_from(("edge", "nosuch")),
        "--A": st.sampled_from(ELEMENT_LISTS),
        "--depth": st.integers(-1, 2).map(str) | st.just("x"),
        "--ks": st.lists(small, max_size=3).map(",".join) | st.sampled_from(("x", "1,,2")),
        "--out": st.just(out_dir),
        "--exhaustive": st.integers(-1, 4).map(str),
        "--random": st.integers(-1, 3).map(str),
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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse rejects the argv
            code = e.code
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        formats = [flag[1] for flag in flags if flag[0] == "--format"]
        if formats[-1:] == ["summary"]:
            assert "check failed" in out.getvalue(), argv
        else:
            assert _witnessed(command, json.loads(out.getvalue())), argv
