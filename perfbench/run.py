"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload iso-symmetric --seed 1 --seconds 30 --trace 0

Runs perfbench/workload.py in a fresh child interpreter with PYTHONHASHSEED
pinned, only the checkout's ``src`` on PYTHONPATH and bytecode caching on,
and passes on its output: info lines, then one JSON result line.  Exits non-zero without a
result when the checkout has no stablelift sources or the run fails.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PYTHONHASHSEED = "0"
CHILD_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one stablelift benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / "stablelift" / "cli.py").is_file():
        print(f"error: no stablelift sources under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=PYTHONHASHSEED, PYTHONPATH=str(src))
    # The library's bytecode is cached in the checkout, as in an installed
    # package, so only the first run of a checkout compiles it.  Otherwise
    # every set-up would compile it, and setup_s and peak_rss_mb would
    # depend on whether the caller's environment allows caching.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
