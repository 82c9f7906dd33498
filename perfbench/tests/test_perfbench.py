"""Tests of the benchmark itself: seeded inputs, the brute-force oracle, and
a tiny run of each workload.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import random
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_seed_reproduces_inputs(name):
    assert inputs.build_ops(name, 7, 2) == inputs.build_ops(name, 7, 2)
    assert inputs.build_ops(name, 7, 2) != inputs.build_ops(name, 8, 2)


@pytest.mark.parametrize("n", range(2, 6))
def test_brute_orbits_match_closed_forms(n):
    rng = random.Random(n)
    cycle = inputs.relabel(rng, n, inputs.cycle_edges(n))
    complete = inputs.complete_edges(n)
    assert len(inputs.automorphisms(n, [])) == math.factorial(n)
    assert len(inputs.automorphisms(n, complete)) == math.factorial(n)
    assert len(inputs.automorphisms(n, cycle)) == n
    two_cycles = inputs.cycle_edges(3) + inputs.cycle_edges(3, offset=3)
    assert len(inputs.automorphisms(6, two_cycles)) == 18

    # (o_M, o_fib, o_rel) with no parameters: one orbit of points; pairs
    # fall into one orbit under the symmetric group and into n - 1 orbits
    # (by the step j - i mod n) under the rotations
    auts = inputs.automorphisms(n, [])
    assert inputs.census_counts(auts, n, [], ()) == (1, 1, 0)
    auts = inputs.automorphisms(n, complete)
    assert inputs.census_counts(auts, n, complete, ()) == (1, 1, 1)
    auts = inputs.automorphisms(n, cycle)
    assert inputs.census_counts(auts, n, cycle, ()) == (1, n - 1, 1)
    assert inputs.census_counts(auts, n, cycle, (0,)) == (n, n * (n - 1), n)
    # fixing one point of the empty digraph leaves Sym(n - 1) on the rest
    auts = inputs.automorphisms(n, [])
    o_fib = 3 if n >= 3 else 2
    assert inputs.census_counts(auts, n, [], (0,)) == (2, o_fib, 0)


def test_check_verdict_rejects_wrong_reports():
    iso = inputs.build_ops("iso-symmetric", 1, 1)[0]
    good = json.dumps(iso.expect["report"])
    assert inputs.check_verdict(iso, "f", 0, good) is None
    assert inputs.check_verdict(iso, "f", 1, good) is not None
    wrong = dict(iso.expect["report"], order_N=iso.expect["report"]["order_N"] + 1)
    assert inputs.check_verdict(iso, "f", 0, json.dumps(wrong)) is not None

    census = inputs.build_ops("census-ladder", 1, 1)[0]
    entries = [dict(e, growth_law="pass") for e in census.expect["entries"]]
    report = {"structure": "f", "entries": entries}
    assert inputs.check_verdict(census, "f", 0, json.dumps(report)) is None
    entries[-1]["total"] += 1
    assert inputs.check_verdict(census, "f", 0, json.dumps(report)) is not None

    mutated = next(op for op in inputs.build_ops("scheme-rigid", 1, 1) if op.expect["mutation"])
    uncaught = {"mutation": mutated.expect["mutation"],
                "validation": {"passed": True, "checks": [{"passed": True, "witness": None}]}}
    assert inputs.check_verdict(mutated, "f", 1, json.dumps(uncaught)) is not None


def test_host_speed_samples_while_measuring():
    speed = workload.HostSpeed()
    before = signal.getsignal(signal.SIGALRM)

    def busy():
        t0 = workload.cpu_clock()
        while workload.cpu_clock() - t0 < 0.1:
            pass
        return "done"

    result, index = speed.measure(busy)
    assert result == "done"
    # about ten samples from the alarm handler besides those around the call
    assert len(speed.samples) >= 2 * workload.SAMPLES_AROUND + 5
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < speed.seconds(index) < math.inf


def small_ops(name: str) -> list:
    """A few of the cheapest operations of one round."""
    keep = {
        "iso-symmetric": lambda op: op.label in ("empty-4 k=1", "cycle-5 k=1"),
        "scheme-rigid": lambda op: "k=1" in op.label,
        "census-ladder": lambda op: op.label in ("rigid-4", "path-4"),
    }[name]
    return [op for op in inputs.build_ops(name, 3, 1) if keep(op)]


@pytest.mark.parametrize("name", inputs.WORKLOADS)
def test_smoke_run_reports_every_metric(name, tmp_path, monkeypatch):
    ops = small_ops(name)
    monkeypatch.setattr(inputs, "build_ops", lambda *args: ops)
    monkeypatch.setattr(workload, "SETUP_REPEATS_BEFORE", 1)
    monkeypatch.setattr(workload, "SETUP_REPEATS_AFTER", 1)
    monkeypatch.setattr(workload, "OUT", tmp_path)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = workload.measure(name, 3, 1, trace, tmp_path / "work")
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == len(ops)
        wanted = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted
    assert (tmp_path / f"spans-{name}.tsv.gz").is_file()
