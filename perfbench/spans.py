"""Spans around stablelift's public functions, recorded from outside it.

A module that does ``from .groups import automorphism_group`` calls the name
in its own namespace, so the tracer replaces the name at each import site
(and methods on their class) with a timing wrapper while it is installed.
Each call becomes one span: layer, start, end, parent span and operation id.
Spans stay in compact arrays until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
from array import array
from pathlib import Path
from time import perf_counter

# Modules whose every public function, own or imported, is wrapped.
WHOLE_NAMESPACES = ("cli", "stability")

# (module, attribute) import sites wrapped besides those.  A dotted attribute
# is a method wrapped on its class.  ``structures.relational_companion`` is
# the site of the function-level import in ``lifting.generate_scheme``.
EXTRA_SITES = (
    ("groups", "sort_partition"),
    ("groups", "is_automorphism"),
    ("groups", "PermGroup.elements"),
    ("interpretation", "eval_formula"),
    ("interpretation", "definable_set"),
    ("interpretation", "sort_partition"),
    ("interpretation", "InterpretationScheme.translation"),
    ("lifting", "sort_partition"),
    ("structures", "relational_companion"),
)

# Layer names that differ from "<defining module>.<function name>".
LAYER_NAMES = {
    "groups.orbits_on_tuples": "groups.orbits",
    "groups.PermGroup.elements": "groups.elements",
    "interpretation.InterpretationScheme.translation": "interpretation.translation",
}


def layer_name(fn) -> str:
    module = fn.__module__.rpartition(".")[2]
    name = f"{module}.{fn.__qualname__}"
    return LAYER_NAMES.get(name, name)


def import_sites(modules: dict) -> list[tuple[object, str, object]]:
    """(owner, attribute, function) for every wrapped site, where
    ``modules`` maps short module names to the imported stablelift modules."""
    sites = []
    for short in WHOLE_NAMESPACES:
        mod = modules[short]
        for attr, value in sorted(vars(mod).items()):
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__.startswith("stablelift.")
            ):
                sites.append((mod, attr, value))
    for short, attr in EXTRA_SITES:
        owner = modules[short]
        cls, _, method = attr.rpartition(".")
        if cls:
            owner, attr = getattr(owner, cls), method
        sites.append((owner, attr, getattr(owner, attr)))
    return sites


class Tracer:
    """Install with ``install()``, set ``op`` before each operation, remove
    with ``uninstall()``.  ``observers`` maps a layer to a callback that
    sees each return value, for counts read off results."""

    def __init__(self, modules: dict, observers: dict | None = None):
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op_of = array("l")
        # 1 when no span of the same layer was open: the span counts toward
        # the layer's inclusive time
        self.outer = array("b")
        self.op = -1
        self._stack: list[int] = []
        self._open: list[int] = []
        self._sites = [
            (owner, attr, original, self._wrap(layer_name(original), original, observers or {}))
            for owner, attr, original in import_sites(modules)
        ]

    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
            self._open.append(0)
        return self._layer_ids[name]

    def _wrap(self, name: str, fn, observers: dict):
        lid = self._layer_id(name)
        observe = observers.get(name)
        stack, open_count = self._stack, self._open
        layer, start, end, parent, op_of, outer = (
            self.layer, self.start, self.end, self.parent, self.op_of, self.outer
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(layer)
            layer.append(lid)
            parent.append(stack[-1] if stack else -1)
            op_of.append(self.op)
            outer.append(open_count[lid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            open_count[lid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_count[lid] -= 1
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapped in self._sites:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, inclusive seconds (outermost spans only) and
        self seconds (duration minus the time its child spans cover)."""
        n = len(self.layer)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.layers}
        for i in range(n):
            row = totals[self.layers[self.layer[i]]]
            d = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += d - child[i]
            if self.outer[i]:
                row["s"] += d
        return totals

    def write(self, path: Path) -> None:
        """All spans as gzip TSV: span, layer, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("span\tlayer\tstart\tend\tparent\top\n")
            for i in range(len(self.layer)):
                f.write(
                    f"{i}\t{self.layers[self.layer[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.op_of[i]}\n"
                )
