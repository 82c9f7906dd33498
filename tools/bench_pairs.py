"""Alternating parent/change pairs of benchmark runs, summarised per metric.

    python3 tools/bench_pairs.py --base HEAD~1 --out BENCH_<n>.json --seed 9101

Extracts the base revision with ``git archive`` into a temporary directory
under ``.bench_build/`` beside this working tree, then runs
``perfbench/run.py`` (``--trace 0``, for BENCHMARK.json's ``run_seconds``)
on every workload of BENCHMARK.json once in the base checkout and once in
this working tree per pair, for ten pairs, alternating which side goes
first, with one fresh seed per pair.  The
output file holds, per workload and end-to-end metric, each side's values,
median and quartiles, the ratio of the medians, and how many pairs the
change won (by the metric's ``better`` direction; ties count for neither).
Runs one process at a time; every run must report ``correct``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the fewest pairs on which a gain can be claimed
PAIRS = 10


def extract(rev: str, dest: Path) -> None:
    """The tree of ``rev`` as plain files under ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the extraction filter exists from Python 3.10.12 and 3.11.4 on
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict[str, float]:
    """One untraced run: metric name -> value, from the result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True or result.get("failed"):
        raise SystemExit(f"{checkout} {workload} seed {seed}: incorrect run: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    base_commit = subprocess.run(
        ["git", "rev-parse", args.base], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()
    report: dict = {
        "base": base_commit,
        "pairs": PAIRS,
        "seeds": [args.seed + i for i in range(PAIRS)],
        "seconds": seconds,
        "python": sys.version.split()[0],
        "workloads": {},
    }
    # Set-up writes every input file.  On a shared 2-CPU Linux host, file
    # creation and deletion under /tmp took three to five times the CPU they
    # took in the working tree, and a parent extracted there read a higher
    # setup_s in 10 of 10 pairs of an A/A comparison.  So the parent lives
    # beside the working tree.
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        base = Path(tmp)
        extract(base_commit, base)
        # perfbench caches the library's bytecode in the checkout, so without
        # this the first run of the fresh extraction alone would compile it
        for checkout in (base, ROOT):
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=checkout, check=True)
        for workload in [w["name"] for w in bench["workloads"]]:
            runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
            for i, seed in enumerate(report["seeds"]):
                order = [("parent", base), ("change", ROOT)]
                for side, checkout in order if i % 2 == 0 else order[::-1]:
                    runs[side].append(run_once(checkout, workload, seed, seconds))
                print(f"{workload} pair {i + 1}/{PAIRS} done", file=sys.stderr)
            metrics = {}
            for name in better:
                parent = [r[name] for r in runs["parent"]]
                change = [r[name] for r in runs["change"]]
                sign = 1 if better[name] == "higher" else -1
                p, c = summary(parent), summary(change)
                metrics[name] = {
                    "better": better[name],
                    "parent": p,
                    "change": c,
                    "ratio_of_medians": c["median"] / p["median"] if p["median"] else None,
                    "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
                }
            report["workloads"][workload] = metrics
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
