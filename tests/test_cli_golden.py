"""Golden CLI outputs over the standard corpus.

For every digraph of ``standard_corpus(3)`` and every subcommand below, the
sha256 of (exit code, stdout, stderr) must match ``data/cli_golden.json``.
Refactors that keep reports byte-identical pass; any change in a report, a
diagnostic or an exit code names the (subcommand, structure) pair.  Each
run's stdout is also json's own text of the report it holds, and a run that
exits 2 writes none.

Regenerate the fixture, after a deliberate output change only, with
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from references import standard_corpus
from stablelift.cli import main
from stablelift.structures import structure_to_json

# every test here also runs under two hash seeds
pytestmark = pytest.mark.hashseed

FIXTURE = Path(__file__).parent / "data" / "cli_golden.json"

SUBCOMMANDS = {
    "lift": ["lift", "--k", "2"],
    "aut": ["aut"],
    "verify-iso": ["verify-iso", "--k", "2"],
    "limit": ["limit", "--k", "2"],
    "census": ["census", "--A", "0"],
    "report": ["report", "--ks", "1,2", "--A", "", "--A", "0"],
    "report-ladder": ["report", "--ks", "1,2,3", "--A", "", "--A", "0", "--A", "0,1"],
    "scheme-check": ["scheme-check", "--k", "1"],
    "scheme-check-break-fp": ["scheme-check", "--k", "1", "--mutate", "break-fp"],
    "scheme-check-break-ep": ["scheme-check", "--k", "1", "--mutate", "break-ep"],
    "scheme-check-negate-relformula": [
        "scheme-check", "--k", "1", "--mutate", "negate-relformula"
    ],
    "scheme-check-k2": ["scheme-check", "--k", "2"],
    "scheme-check-k2-break-fp": ["scheme-check", "--k", "2", "--mutate", "break-fp"],
    "scheme-check-k2-break-ep": ["scheme-check", "--k", "2", "--mutate", "break-ep"],
    "scheme-check-k2-negate-relformula": [
        "scheme-check", "--k", "2", "--mutate", "negate-relformula"
    ],
    "scheme-check-k3": ["scheme-check", "--k", "3"],
    "scheme-check-k3-negate-relformula": [
        "scheme-check", "--k", "3", "--mutate", "negate-relformula"
    ],
    "scheme-check-k2-explicit": ["scheme-check", "--k", "2", "--padding", "explicit:40,2,9"],
    "scheme-check-k2-explicit-negate-relformula": [
        "scheme-check", "--k", "2", "--padding", "explicit:40,2,9", "--mutate", "negate-relformula"
    ],
}


def _digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    # the report writer gives json.dumps's text; an input error writes none
    stdout = out.getvalue()
    if code == 2:
        assert stdout == "", argv
    else:
        assert stdout == json.dumps(json.loads(stdout), sort_keys=True, indent=2) + "\n", argv
    blob = json.dumps([code, stdout, err.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def golden_digests(label: str, directory: Path) -> dict[str, str]:
    """Digests of one subcommand over the corpus.  Structure files are
    written to ``directory`` and named relative to it, because reports
    and diagnostics quote the path they were given."""
    argv = SUBCOMMANDS[label]
    digests = {}
    previous = os.getcwd()
    os.chdir(directory)
    try:
        for name, M in standard_corpus(3):
            path = f"{name}.json"
            if not os.path.exists(path):
                Path(path).write_text(structure_to_json(M), encoding="utf-8")
            digests[name] = _digest([argv[0], "--in", path, *argv[1:]])
    finally:
        os.chdir(previous)
    return digests


@pytest.fixture(scope="module")
def expected():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("label", sorted(SUBCOMMANDS))
def test_cli_output_matches_golden(label, expected, tmp_path):
    actual = golden_digests(label, tmp_path)
    assert sorted(actual) == sorted(expected[label]), f"{label}: corpus changed"
    mismatches = [name for name in actual if actual[name] != expected[label][name]]
    assert not mismatches, (
        f"{len(mismatches)} golden mismatches; first: ({label}, {mismatches[0]})"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {label: golden_digests(label, Path(tmp)) for label in sorted(SUBCOMMANDS)}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(v) for v in table.values())} digests to {FIXTURE}")
