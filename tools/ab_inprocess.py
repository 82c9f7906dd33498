"""In-process A/B of two library checkouts on one benchmark workload.

    python3 tools/ab_inprocess.py A B --workload census-ladder --seed 1 --rounds 40

Imports ``stablelift`` from ``A/src`` and from ``B/src`` into this one
process, each under a module table of its own, so both copies live side by
side and neither sees the other's modules.  The seeded operations come from
this checkout's ``perfbench/inputs.py``, which is read and not edited.
Round r runs round r's operations through each copy's ``cli.main``, one
copy after the other, A first in even rounds and B first in odd ones, and
takes each copy's CPU time for the round.

Every operation's exit code (or the exception that escaped ``main``),
stdout and stderr are hashed with sha256; the two copies must give the same
digest on every operation.  The last line printed is JSON: the combined
digest per side, the number of operations whose digests differ, and the
median of the per-round CPU ratios B / A with its quartiles.  The exit code
is 1 when any digest differs.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import pkgutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "stablelift"


def _ours(name: str) -> bool:
    return name == PACKAGE or name.startswith(PACKAGE + ".")


def _swap_in(table: dict) -> None:
    """Make ``table`` the package's entries in sys.modules."""
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    sys.modules.update(table)


def load_copy(checkout: Path) -> dict:
    """Every module of the package under ``checkout/src``, freshly imported:
    module name -> module.  sys.modules and sys.path are left as found."""
    src = (checkout / "src").resolve()
    saved = {n: m for n, m in sys.modules.items() if _ours(n)}
    _swap_in({})
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module(PACKAGE)
        # submodules imported lazily would otherwise come from sys.path later
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        table = {n: m for n, m in sys.modules.items() if _ours(n)}
    finally:
        sys.path.remove(str(src))
        _swap_in(saved)
    if src not in Path(package.__file__).resolve().parents:
        raise SystemExit(f"{PACKAGE} was imported from {package.__file__}, not from {src}")
    return table


def load_inputs():
    """perfbench/inputs.py of this checkout, loaded by path (its dataclasses
    look their module up in sys.modules, so it is entered there)."""
    spec = importlib.util.spec_from_file_location("_ab_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


@contextlib.contextmanager
def written_ops(ops):
    """The argv of each operation, with its structure written to a file of
    its own in a fresh temporary directory.  That directory is the working
    directory while the block runs and the argv name bare files, so a
    report that prints its --in path prints the same bytes in every run."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            argvs = []
            for i, op in enumerate(ops):
                name = f"op{i:04d}.json"
                Path(name).write_text(op.structure + "\n", encoding="utf-8")
                argvs.append(op.args(name))
            yield argvs
        finally:
            os.chdir(cwd)


def run_op(table: dict, argv: list[str]) -> str:
    """One operation through the copy's cli.main: the sha256 of its exit
    code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = table[f"{PACKAGE}.cli"].main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a traceback names the copy's own files
            code = f"{type(e).__name__}: {e}"
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def run_round(table: dict, argvs: list[list[str]]) -> tuple[float, list[str]]:
    """CPU seconds and per-operation digests of one round on one copy."""
    _swap_in(table)
    gc.collect()
    t0 = process_time()
    digests = [run_op(table, argv) for argv in argvs]
    return process_time() - t0, digests


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="checkout of side A (its src/ is imported)")
    parser.add_argument("b", type=Path, help="checkout of side B")
    parser.add_argument("--workload", default="census-ladder")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    inputs = load_inputs()
    if args.workload not in inputs.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(inputs.WORKLOADS)}")
    sides = {"a": load_copy(args.a), "b": load_copy(args.b)}
    saved = {n: m for n, m in sys.modules.items() if _ours(n)}
    ops = inputs.build_ops(args.workload, args.seed, args.rounds)
    per_round = len(ops) // args.rounds
    cpu: dict[str, list[float]] = {"a": [], "b": []}
    digests: dict[str, list[str]] = {"a": [], "b": []}
    with written_ops(ops) as argvs:
        try:
            for r in range(args.rounds):
                batch = argvs[r * per_round : (r + 1) * per_round]
                for side in ("a", "b") if r % 2 == 0 else ("b", "a"):
                    seconds, got = run_round(sides[side], batch)
                    cpu[side].append(seconds)
                    digests[side] += got
        finally:
            _swap_in(saved)

    mismatches = sum(x != y for x, y in zip(digests["a"], digests["b"]))
    ratios = [b / a for a, b in zip(cpu["a"], cpu["b"]) if a > 0]
    q1, median, q3 = quartiles(ratios) if ratios else (float("nan"),) * 3
    combined = {
        side: hashlib.sha256("".join(ds).encode("ascii")).hexdigest()
        for side, ds in digests.items()
    }
    print(f"{args.workload} seed {args.seed}: {args.rounds} rounds of {per_round} operations")
    print(f"CPU s: A {sum(cpu['a']):.3f}, B {sum(cpu['b']):.3f}; "
          f"B / A per round: median {median:.3f} [q1 {q1:.3f}, q3 {q3:.3f}]")
    print(f"digests: {'identical' if not mismatches else f'{mismatches} operations differ'}")
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": args.rounds,
        "operations": len(ops),
        "digests": combined,
        "mismatches": mismatches,
        "ratio": {"median": median, "q1": q1, "q3": q3},
    }, sort_keys=True))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
