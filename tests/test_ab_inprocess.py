"""tools/ab_inprocess.py on one census-ladder round."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _ab(a: Path, b: Path) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "tools" / "ab_inprocess.py"), str(a), str(b),
         "--workload", "census-ladder", "--seed", "1", "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert not proc.stderr, proc.stderr
    return proc.returncode, json.loads(proc.stdout.splitlines()[-1])


def test_an_a_a_run_reports_identical_digests():
    code, result = _ab(ROOT, ROOT)
    assert code == 0
    assert result["operations"] == 11 and result["mismatches"] == 0
    assert result["digests"]["a"] == result["digests"]["b"]
    assert result["ratio"]["q1"] <= result["ratio"]["median"] <= result["ratio"]["q3"]


def test_two_runs_print_the_same_combined_digest():
    # report prints its --in path, which names a bare file in the tool's
    # working directory, not the fresh temporary directory that holds it
    (_, first), (_, second) = _ab(ROOT, ROOT), _ab(ROOT, ROOT)
    assert first["digests"] == second["digests"]


def test_a_copy_whose_reports_differ_fails(tmp_path):
    # every report carries the substitution note, so changing it changes
    # the stdout of every operation
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    stability = tmp_path / "src" / "stablelift" / "stability.py"
    text = stability.read_text(encoding="utf-8")
    stability.write_text(text.replace('"finite-scale census: ', '"finite census: '), encoding="utf-8")
    code, result = _ab(ROOT, tmp_path)
    assert code == 1
    assert result["mismatches"] == result["operations"] == 11
    assert result["digests"]["a"] != result["digests"]["b"]
