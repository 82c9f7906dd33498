"""tools/opcount.py on one small operation: its counts repeat exactly."""

import json
import os
import subprocess
import sys
from pathlib import Path

from stablelift.corpus import digraph
from stablelift.structures import structure_to_json

ROOT = Path(__file__).resolve().parent.parent

# one untraced warm-up run, then the same operation counted twice
COUNT_TWICE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ab_inprocess, opcount
table = ab_inprocess.load_copy(ab_inprocess.ROOT)
argvs = [["verify-iso", "--in", sys.argv[2], "--k", "2"]]
ab_inprocess.run_round(table, argvs)
runs = [opcount.count_round(table, argvs) for _ in range(2)]
print(json.dumps([[sorted([*key, n] for key, n in counts.items()), digests]
                  for counts, digests in runs]))
"""


def _count_twice(path: Path, hashseed: str) -> list:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", COUNT_TWICE, str(ROOT / "tools"), str(path)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    return json.loads(proc.stdout)


def test_counts_repeat_across_runs_and_hash_seeds(tmp_path):
    # the complete 3-vertex digraph, |Aut| = 6, at k = 2
    path = tmp_path / "complete3.json"
    edges = [(a, b) for a in range(3) for b in range(3) if a != b]
    path.write_text(structure_to_json(digraph(3, edges)), encoding="utf-8")
    first, second = (_count_twice(path, seed) for seed in ("0", "1"))
    assert first[0] == first[1] == second[0] == second[1]
    counts, _ = first[0]
    modules = {module for module, _, _ in counts}
    assert {"stablelift.cli", "stablelift.groups", "stablelift.lifting"} <= modules
    assert sum(n for _, _, n in counts) > 10_000
