import json

import pytest

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


def test_summary_format(capsys, pair_file):
    code, out, err = run(capsys, "verify-iso", "--in", pair_file, "--k", "1",
                         "--format", "summary")
    assert code == 0
    assert "Aut" in out
    assert not out.startswith("{")


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


@pytest.mark.parametrize("value", ["5", "-1"])
def test_report_parameter_outside_source_domain_exit_2(capsys, tmp_path, value):
    path = tmp_path / "triangle.json"
    path.write_text(structure_to_json(digraph(3, [(0, 1), (1, 2)])), encoding="utf-8")
    code, out, err = run(capsys, "report", "--in", str(path), "--A", value)
    assert code == 2 and out == ""
    assert f"parameter {value} " in err and "source domain" in err
