"""Executed bytecodes of one benchmark round on two library checkouts.

    python3 tools/opcount.py A B --workload iso-symmetric --seed 1

Imports ``stablelift`` from ``A/src`` and from ``B/src`` with the loader of
``tools/ab_inprocess.py`` and takes one round of the workload's seeded
operations from this checkout's ``perfbench/inputs.py``, which is read and
not edited.  Per side it runs the round once untraced, so that caches built
on first use (such as ``cli._parser``) are not counted, and then once more
with every call of ``cli.main`` under ``sys.settrace`` with
``f_trace_opcodes``, counting one event per bytecode executed.  It prints
each side's total, its counts per module and its top functions, and the
output digests of both runs; the last line printed is JSON.  The exit code
is 1 when any operation's digest differs between the sides or between a
side's two runs.  Stdlib only.

The counts are exact and repeatable, so a change shows in one run where CPU
time needs many, but they are not time:
- work done in C (``map``, ``zip``, ``sorted``, set algebra, the C JSON
  encoder) executes no bytecode and is not counted;
- so a change that moves work into C lowers the count more than the time;
- bytecode differs between Python versions, so compare counts only within
  one interpreter.
Report them beside an in-process CPU A/B and ``BENCH_<n>.json``, not in
their place.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab_inprocess as ab

TOP = 20


def count_round(table: dict, argvs: list[list[str]]) -> tuple[collections.Counter, list[str]]:
    """Bytecodes executed inside the copy's ``cli.main`` over ``argvs``, per
    function as (module, qualified name), and the per-operation digests."""
    by_code: collections.Counter = collections.Counter()
    modules: dict = {}

    def local(frame, event, arg):
        if event == "opcode":
            by_code[frame.f_code] += 1
        return local

    def start(frame, event, arg):
        frame.f_trace_opcodes = True
        modules.setdefault(frame.f_code, frame.f_globals.get("__name__", "?"))
        return local

    cli = table[f"{ab.PACKAGE}.cli"]
    main = cli.main

    def traced_main(argv):
        sys.settrace(start)
        try:
            return main(argv)
        finally:
            sys.settrace(None)

    ab._swap_in(table)
    cli.main = traced_main
    try:
        digests = [ab.run_op(table, argv) for argv in argvs]
    finally:
        cli.main = main
    counts: collections.Counter = collections.Counter()
    for code, n in by_code.items():
        # co_qualname exists from Python 3.11 on
        counts[modules[code], getattr(code, "co_qualname", code.co_name)] += n
    return counts, digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout of side A (its src/ is imported)")
    parser.add_argument("b", type=Path, help="checkout of side B")
    parser.add_argument("--workload", default="iso-symmetric")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    inputs = ab.load_inputs()
    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    sides = {"a": ab.load_copy(args.a), "b": ab.load_copy(args.b)}
    saved = {n: m for n, m in sys.modules.items() if ab._ours(n)}
    ops = inputs.build_ops(args.workload, args.seed, 1)
    result: dict = {}
    digests: dict[str, list[str]] = {}
    with ab.written_ops(ops) as argvs:
        try:
            for side, table in sides.items():
                _, warm = ab.run_round(table, argvs)
                counts, traced = count_round(table, argvs)
                digests[side] = warm + traced
                result[side] = counts
        finally:
            ab._swap_in(saved)

    n = len(argvs)
    mismatches = sum(
        len({digests["a"][i], digests["a"][n + i], digests["b"][i], digests["b"][n + i]}) > 1
        for i in range(n)
    )
    totals = {side: sum(counts.values()) for side, counts in result.items()}
    print(f"{args.workload} seed {args.seed}: one round of {n} operations")
    for side, counts in result.items():
        print(f"\n{side.upper()}: {totals[side]:,} opcodes")
        print("  per module:")
        modules: collections.Counter = collections.Counter()
        for (module, _), k in counts.items():
            modules[module] += k
        for module, k in modules.most_common():
            print(f"    {k:>12,}  {module}")
        print(f"  top {TOP} functions:")
        for (module, name), k in counts.most_common(TOP):
            print(f"    {k:>12,}  {module}.{name}")
    change = totals["b"] / totals["a"] - 1 if totals["a"] else float("nan")
    print(f"\nB / A: {totals['b']:,} / {totals['a']:,} opcodes ({change:+.2%})")
    print(f"digests: {'identical' if not mismatches else f'{mismatches} operations differ'}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "operations": n,
        "opcodes": totals,
        "digests": {
            side: hashlib.sha256("".join(ds[n:]).encode("ascii")).hexdigest()
            for side, ds in digests.items()
        },
        "mismatches": mismatches,
    }, sort_keys=True))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
