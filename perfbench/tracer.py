"""Spans around the public functions of fourcalc's layers, from outside.

``Tracer.install`` replaces every public function of each layer module
(and ``StructureFlags.cite``/``as_dict`` for the ``flags`` layer) by a
wrapper that records one span per call: name, start, end, parent span
and operation id.  Every module-level reference to a wrapped function
is rebound, including the ones other modules took with ``from ...
import`` and the ones kept in module-level dicts, so calls between
layers are seen.  No program file changes; ``uninstall`` puts the
originals back.

Spans live in flat arrays in memory and are written once, at the end,
with :meth:`Tracer.write`.  A layer's self time is its spans' duration
minus the time their direct child spans cover.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = (
    "cli", "parser", "evaluate", "flags", "rewrite", "obstruction",
    "certificates", "geography", "surgery", "reproduce",
)

# Spans whose result feeds a counter, by qualified name.
_COUNTED = {
    "parser.parse_dsl",
    "rewrite.normalize",
    "obstruction.decompose_for_obstruction",
    "certificates.verify_certificate",
    "certificates.check_arithmetic",
    "geography.bk_region",
    "geography.free_action_region",
}


def _public_functions(module):
    for name, value in vars(module).items():
        if name.startswith("_"):
            continue
        # lru_cache wrappers are not functions but carry __wrapped__.
        target = getattr(value, "__wrapped__", value)
        if inspect.isfunction(target) and target.__module__ == module.__name__:
            yield name, value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()
        self._op_certs: set = set()
        self._patches: list = []

    # --- installation ----------------------------------------------------

    def install(self, package: str = "fourcalc") -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for name, fn in _public_functions(module):
                wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{name}", layer))
        flags = sys.modules[f"{package}.flags"]
        for method in ("cite", "as_dict"):
            fn = getattr(flags.StructureFlags, method)
            wrapper = self._wrap(fn, f"flags.StructureFlags.{method}", "flags")
            self._patches.append((flags.StructureFlags, method, fn))
            setattr(flags.StructureFlags, method, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapped[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrapped and wrapped[id(item)][0] is item:
                            self._patches.append((value, key, item))
                            value[key] = wrapped[id(item)][1]

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _wrap(self, fn, qualname: str, layer: str):
        nid = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(LAYERS.index(layer))
        start, end, names, parents, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack)
        clock = time.perf_counter
        tracer = self
        short = qualname.split(".", 1)[1]
        counted = qualname in _COUNTED

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counted:
                tracer._count(short, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        return wrapper

    def _count(self, name, args, result):
        counts = self.counts
        if name == "parse_dsl":
            counts["parser.chars"] += len(args[0])
        elif name == "normalize":
            counts["rewrite.rule_firings"] += len(result.trace)
        elif name == "decompose_for_obstruction":
            counts["obstruction.splits_used"] += 1
        elif name == "verify_certificate":
            counts["certificates.verifies"] += 1
            self._op_certs.add(id(args[0]))
        elif name == "check_arithmetic":
            counts["certificates.steps_checked"] += 1
        else:  # the two region enumerators
            counts[f"geography.{name}_points"] += len(result)

    def end_op(self) -> None:
        """Close the current operation: the certificates it verified stay
        alive until now, so their ids are distinct within it."""
        self.counts["certificates.distinct"] += len(self._op_certs)
        self._op_certs.clear()
        self.op_id += 1

    # --- analysis --------------------------------------------------------

    def summary(self) -> dict:
        """Totals over all spans: per-layer self time and calls, and the
        inclusive time of a few named functions."""
        n = len(self.name)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layers = len(LAYERS)
        self_s = [0.0] * layers
        calls = [0] * layers
        inclusive = Counter()
        lebrun_in_decompose = 0
        layer_of = self.name_layer
        qualnames = self.names
        watched = {qualnames.index(q) for q in (
            "geography.bk_region", "geography.free_action_region", "reproduce.compare_with_golden")
            if q in qualnames}
        lebrun = qualnames.index("obstruction.lebrun_einstein")
        decompose = qualnames.index("obstruction.decompose_for_obstruction")
        for i in range(n):
            nid = name[i]
            duration = end[i] - start[i]
            layer = layer_of[nid]
            self_s[layer] += duration - child[i]
            calls[layer] += 1
            if nid in watched:
                inclusive[qualnames[nid]] += duration
            elif nid == lebrun and parent[i] >= 0 and name[parent[i]] == decompose:
                lebrun_in_decompose += 1
        return {
            "spans": n,
            "self_s": dict(zip(LAYERS, self_s)),
            "calls": dict(zip(LAYERS, calls)),
            "inclusive_s": dict(inclusive),
            "splits_tried": lebrun_in_decompose,
            "counts": dict(self.counts),
        }

    def write(self, path: Path) -> None:
        """Write the spans as raw arrays plus a JSON index naming them."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".bin"), "wb") as handle:
            for arr in (self.start, self.end, self.name, self.parent, self.op):
                arr.tofile(handle)
        index = {
            "spans": len(self.name),
            "arrays": ["start:d", "end:d", "name:i", "parent:i", "op:i"],
            "names": self.names,
        }
        path.with_suffix(".json").write_text(json.dumps(index), encoding="utf-8")


def read_trace(path: Path) -> list[tuple]:
    """Spans written by :meth:`Tracer.write` as (name, start, end, parent, op)."""
    index = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    n = index["spans"]
    arrays = []
    with open(path.with_suffix(".bin"), "rb") as handle:
        for code in ("d", "d", "i", "i", "i"):
            arr = array(code)
            arr.fromfile(handle, n)
            arrays.append(arr)
    start, end, name, parent, op = arrays
    return [(index["names"][name[i]], start[i], end[i], parent[i], op[i]) for i in range(n)]
