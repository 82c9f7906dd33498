"""One benchmark run of one workload, in the interpreter that run.py starts.

Set-up imports stablelift from the checkout's ``src``, builds the seeded
operations with their expected verdicts and writes the input files; it is
repeated before and after the batch and its median is ``setup_s``.  The
batch calls ``stablelift.cli.main(argv)`` once per operation, in order, one
operation at a time (a closed loop with one client), and every verdict is
checked after the batch.  Times are CPU seconds scaled to the host speed
of the machine of record (see ``cpu_clock`` and ``HostSpeed``).

With ``--trace 1`` each operation of the first half of the rounds runs twice,
untraced and traced (a seeded coin picks which goes first), the two outputs
must be byte-identical, and the per-layer metrics come from the traced runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import inputs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# Set-up is short and this host's speed drifts over seconds, so set-up is
# timed both before and after the batch and setup_s is the median.
SETUP_REPEATS_BEFORE = 8
SETUP_REPEATS_AFTER = 7

# Scaled seconds (see HostSpeed) one round of each workload takes at the
# commit that introduced the benchmark, on a 2-core Intel Xeon.  A run
# executes floor(--seconds / nominal) whole rounds, at least one, so it
# measures at most about --seconds there and every commit runs exactly the
# same operations.
NOMINAL_ROUND_S = {
    "iso-symmetric": 18.0,
    "scheme-rigid": 4.8,
    "census-ladder": 5.5,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "verdicts_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
}


# CPU seconds that reference_work() takes on the machine of record while no
# other tenant slows it (0.0004 s while one does); wall seconds between the
# reference samples taken while a measurement runs; reference samples taken
# before and after each measurement.
REFERENCE_S = 0.00030
SAMPLE_INTERVAL_S = 0.01
SAMPLES_AROUND = 5


def cpu_clock() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    Every timing metric reads this clock, not the wall clock.  The library
    runs on one thread and waits on no I/O beyond reading small files, so on
    an idle host the two agree; on a shared host the wall clock also counts
    the time other tenants hold the CPU, which swung one fixed loop between
    0.41 and 1.12 s while its CPU time stayed within 0.37-0.47 s.  A library
    change that ran work on several threads at once would not show as a gain
    on this clock.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def reference_work() -> None:
    """A fixed bit of pure-Python work of the kinds the library does, a
    tuple-keyed table and integer arithmetic, with no stablelift code."""
    table: dict[tuple[int, int, int], int] = {}
    for i in range(250):
        key = (i % 97, i % 89, i % 83)
        table[key] = table.get(key, 0) + 1
    s = 0
    for i in range(2_500):
        s += i * i % 7


class HostSpeed:
    """Measures CPU time and scales it to the speed of the machine of record.

    CPU time alone still follows the host.  On a shared machine the same
    work ran at two speeds about 1.6x apart, switching within a second, as
    other tenants' load came and went.  So
    ``reference_work`` is timed SAMPLES_AROUND times before and after each
    measurement and, from a SIGALRM handler, every SAMPLE_INTERVAL_S while
    it runs, and the measurement is scaled by REFERENCE_S over the mean of
    those reference times.  The handler's own CPU time is left out of the
    measurement.  A real-time timer is used because a CPU-time one makes
    the process CPU clock tick-grained.  Over six seeds of iso-symmetric
    this cut the spread (IQR / median) of the batch time from 0.11 to 0.02,
    and that of the p50 latency from 0.24 to 0.09.  A slower library still
    reads slower; a slower host mostly does not.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._measured: list[tuple[float, int, int]] = []
        self._handler_s = 0.0
        self._around()

    def _sample(self) -> None:
        t0 = process_time()
        reference_work()
        self.samples.append(process_time() - t0)

    def _around(self) -> None:
        # Garbage left by the measurement is collected first, so that it
        # does not slow the reference work, and the next measurement starts
        # without it, as a fresh CLI process would.  Otherwise the
        # collections inside an operation, and the peak memory, follow the
        # order of the operations before it.
        gc.collect()
        for _ in range(SAMPLES_AROUND):
            self._sample()

    def _on_alarm(self, signum, frame) -> None:
        t0 = process_time()
        self._sample()
        self._handler_s += process_time() - t0

    def measure(self, fn):
        """Runs ``fn()``; returns its result and the index of its time."""
        first = len(self.samples) - SAMPLES_AROUND
        self._handler_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        t0 = cpu_clock()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            cpu_s = cpu_clock() - t0 - self._handler_s
            signal.signal(signal.SIGALRM, previous)
        self._around()
        self._measured.append((cpu_s, first, len(self.samples)))
        return result, len(self._measured) - 1

    def seconds(self, index: int) -> float:
        """Measurement ``index`` in CPU seconds of the machine of record."""
        cpu_s, lo, hi = self._measured[index]
        return cpu_s * REFERENCE_S / statistics.fmean(self.samples[lo:hi])


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_ROUND_S[workload]))


# -- set-up --------------------------------------------------------------------


def import_stablelift() -> dict:
    """Fresh import of the library from ROOT/src; short name -> module."""
    for name in [m for m in sys.modules if m == "stablelift" or m.startswith("stablelift.")]:
        del sys.modules[name]
    cli = importlib.import_module("stablelift.cli")
    src = (ROOT / "src").resolve()
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"stablelift was imported from {cli.__file__}, not from {src}")
    short = ("cli", "groups", "formulas", "interpretation", "lifting", "stability", "structures")
    return {s: importlib.import_module(f"stablelift.{s}") for s in short}


def set_up(workload: str, seed: int, rounds: int, input_dir: Path):
    """Import, generate, compute expected answers, write the files."""
    modules = import_stablelift()
    ops = inputs.build_ops(workload, seed, rounds)
    shutil.rmtree(input_dir, ignore_errors=True)
    input_dir.mkdir(parents=True)
    files = []
    for i, op in enumerate(ops):
        path = input_dir / f"op{i:04d}.json"
        path.write_text(op.structure + "\n", encoding="utf-8")
        files.append(str(path))
    return modules, ops, files


# -- operations ------------------------------------------------------------------


@dataclass
class Outcome:
    exit_code: int | None
    stdout: str
    stderr: str
    index: int  # of its time in the HostSpeed


def run_op(cli, argv: list[str], speed: HostSpeed) -> Outcome:
    """One subcommand through cli.main, timed by ``speed``; an exception
    escaping main is recorded as a failed operation, not raised."""
    out, err = io.StringIO(), io.StringIO()

    def call():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return cli.main(argv)
        except (Exception, SystemExit):
            err.write(traceback.format_exc())
            return None

    code, index = speed.measure(call)
    return Outcome(code, out.getvalue(), err.getvalue(), index)


def verdict_failure(op, infile: str, outcome: Outcome) -> str | None:
    if outcome.exit_code is None:
        return "exception escaped main: " + outcome.stderr.strip().splitlines()[-1]
    try:
        return inputs.check_verdict(op, infile, outcome.exit_code, outcome.stdout)
    except (KeyError, TypeError) as e:
        return f"report lacks an expected field: {e!r}"


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten or fewer samples."""
    ordered = sorted(samples)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def report_failures(ops, failures: dict[int, str]) -> None:
    for i, reason in sorted(failures.items()):
        print(f"FAILED op {i} ({ops[i].label}): {reason}", file=sys.stderr)


# -- the two kinds of run ------------------------------------------------------------


def untraced_run(modules, ops, files, speed: HostSpeed) -> tuple[dict, int, int]:
    cli = modules["cli"]
    wall0, cpu0 = perf_counter(), cpu_clock()
    outcomes = [run_op(cli, op.args(f), speed) for op, f in zip(ops, files)]
    cpu_s, wall_s = cpu_clock() - cpu0, perf_counter() - wall0
    # the batch time is the sum of the scaled operation times, so the
    # reference samples are not counted
    latencies = [speed.seconds(o.index) for o in outcomes]
    batch_s = sum(latencies)
    failures = {}
    for i, (op, f, o) in enumerate(zip(ops, files, outcomes)):
        reason = verdict_failure(op, f, o)
        if reason:
            failures[i] = reason
    report_failures(ops, failures)
    percentile, tail_s = tail(latencies)
    passed = len(ops) - len(failures)
    fail_ratio = len(failures) / len(ops)
    print(f"batch: {len(ops)} operations in {batch_s:.3f} scaled s; {cpu_s:.3f} CPU s and "
          f"{wall_s:.3f} wall s with the reference samples; fail_ratio {fail_ratio:.4f}")
    print(f"op_s.p50 over {len(latencies)} samples; op_s.tail is p{percentile:.1f}")
    metrics = {
        "verdicts_per_s": passed / batch_s,
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": tail_s,
        "pass_ratio": passed / len(ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, len(ops), len(failures)


class LayerCounts:
    """Counts read off return values while the tracer is installed."""

    def __init__(self):
        self.groups = []
        self.generators = 0
        self.lift_elements = 0
        self.checks = 0
        self.checks_failed = 0

    def observers(self) -> dict:
        def group(G):
            self.groups.append(G)
            self.generators += len(G.generators)

        def lift(N):
            self.lift_elements += N.structure.size

        def validation(report):
            self.checks += len(report.checks)
            self.checks_failed += len(report.failures())

        return {
            "groups.automorphism_group": group,
            "lifting.build_lift": lift,
            "interpretation.validate_scheme": validation,
        }


def traced_run(
    modules, ops, files, seed: int, spans_path: Path, speed: HostSpeed
) -> tuple[dict, int, int]:
    cli = modules["cli"]
    counts = LayerCounts()
    tracer = Tracer(modules, counts.observers())
    pairs = []
    failures = {}
    # a seeded coin decides which of the pair runs first, so neither side
    # systematically gets the warmer or the colder interpreter
    coin = random.Random(seed)
    for i, (op, f) in enumerate(zip(ops, files)):
        argv = op.args(f)
        tracer.op = i
        runs = {}
        first = coin.random() < 0.5
        for traced in (first, not first):
            if traced:
                tracer.install()
            try:
                runs[traced] = run_op(cli, argv, speed)
            finally:
                tracer.uninstall()
        plain, tr = runs[False], runs[True]
        pairs.append((plain.index, tr.index))
        reason = verdict_failure(op, f, plain) or verdict_failure(op, f, tr)
        if not reason and (plain.exit_code, plain.stdout, plain.stderr) != (
            tr.exit_code, tr.stdout, tr.stderr
        ):
            reason = "traced and untraced reports differ"
        if reason:
            failures[i] = reason
    report_failures(ops, failures)
    plain_s = sum(speed.seconds(i) for i, _ in pairs)
    traced_s = sum(speed.seconds(j) for _, j in pairs)
    # Group orders are read only now, so the tracer builds no stabilizer
    # chain that the library would not have built during the batch.
    aut_order_sum = sum(G.order() for G in counts.groups)
    tracer.write(spans_path)
    totals = tracer.layer_totals()
    print(f"traced {len(ops)} operations: {len(tracer.layer)} spans written to {spans_path}")

    def total(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    leaf_checks = total("groups.is_automorphism", "calls")
    metrics = {
        "trace.overhead_ratio": traced_s / plain_s - 1,
        "groups.leaf_checks": leaf_checks,
        "groups.aut_order_sum": aut_order_sum,
        "groups.generators_sum": counts.generators,
        "groups.leaves_per_generator": leaf_checks / counts.generators if counts.generators else 0.0,
        "lifting.lift_elements": counts.lift_elements,
        "interpretation.checks": counts.checks,
        "interpretation.checks_failed": counts.checks_failed,
    }
    print(f"groups.leaves_per_generator = groups.leaf_checks / groups.generators_sum "
          f"= {leaf_checks} / {counts.generators}")
    for metric in LAYER_TOTALS:
        layer, _, key = metric.rpartition(".")
        metrics[metric] = total(layer, key)
    return metrics, len(ops), len(failures)


# Per-layer metrics read straight off the layer totals: "<layer>.<s|self_s|calls>".
LAYER_TOTALS = (
    "cli.main.s",
    "cli.main.self_s",
    "groups.automorphism_group.s",
    "groups.automorphism_group.self_s",
    "groups.automorphism_group.calls",
    "groups.pointwise_stabilizer.s",
    "groups.pointwise_stabilizer.calls",
    "groups.orbits.s",
    "groups.elements.s",
    "lifting.build_lift.s",
    "lifting.direct_induced.s",
    "lifting.direct_induced.calls",
    "lifting.project_automorphism.s",
    "lifting.continuity_witness.s",
    "lifting.generate_scheme.s",
    "interpretation.validate_scheme.s",
    "interpretation.validate_scheme.self_s",
    "interpretation.validate_scheme.calls",
    "interpretation.translation.s",
    "interpretation.translation.calls",
    "formulas.eval_formula.s",
    "formulas.eval_formula.calls",
    "formulas.definable_set.s",
    "formulas.sort_partition.s",
    "formulas.sort_partition.calls",
    "stability.stability_report.self_s",
    "stability.qf_type_census.s",
    "stability.qf_type_census.calls",
    "stability.orbit_decomposition_check.s",
    "structures.structure_from_json.s",
    "structures.relational_companion.s",
)


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(("_ratio", "_per_generator")):
        return "ratio"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


def measure(workload: str, seed: int, rounds: int, trace: bool, work_dir: Path) -> dict:
    """Set up, run and check one workload; the result object run.py prints."""
    setups = []
    speed = HostSpeed()

    def timed_set_up():
        state, index = speed.measure(lambda: set_up(workload, seed, rounds, work_dir / "inputs"))
        setups.append(index)
        return state

    for _ in range(SETUP_REPEATS_BEFORE):
        modules, ops, files = timed_set_up()
    if trace:
        n = math.ceil(rounds / 2) * (len(ops) // rounds)
        spans_path = OUT / f"spans-{workload}.tsv.gz"
        metrics, attempted, failed = traced_run(
            modules, ops[:n], files[:n], seed, spans_path, speed
        )
    else:
        metrics, attempted, failed = untraced_run(modules, ops, files, speed)
        for _ in range(SETUP_REPEATS_AFTER):
            timed_set_up()
        metrics["setup_s"] = statistics.median(speed.seconds(i) for i in setups)
    print(f"reference_work: median {statistics.median(speed.samples):.6f} CPU s over "
          f"{len(speed.samples)} samples (REFERENCE_S = {REFERENCE_S})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    rounds = rounds_for(args.workload, args.seconds)
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
          f"PYTHONHASHSEED={os.environ.get('PYTHONHASHSEED')}")
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds "
          f"(nominal {NOMINAL_ROUND_S[args.workload]} s each)")
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, rounds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
