"""Span tracing of sepaut from outside: wraps every binding of each public
function, records a merged span tree in memory and writes it once.

Modules import each other's names (`from .intlat import smith_normal_form`
in quasitorus, torusgeom and cli), so the wrapper replaces the function
object wherever any sepaut module holds it, not only in its home module.

Repeated calls of one function under the same parent span are merged into
one node with a call count and a total time, so the n! loop of the
permutation oracle does not store a record per call.  A node's self time is
its total minus the totals of its children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from statistics import median, median_low
from time import perf_counter

LAYERS = (
    "polyio",
    "quasitorus",
    "intlat",
    "permgroup",
    "rigidity",
    "torusgeom",
    "autassembly",
    "cli",
)

# called once per permutation and monomial inside brute_force_perm_order
# (over 300k calls for n = 8); a span per call would cost more than the call,
# so their time stays in the caller's self time
UNWRAPPED = frozenset({"permgroup.permute_vector", "permgroup.cycle_notation"})

SNF = "intlat.smith_normal_form"
BITS = "trace.snf_out_bits"

# entry points whose work is all done by wrapped callees: their metric is the
# total time, which the self times of the layers below add up to
TOTAL_TIME = frozenset({"polyio.parse_separated", "cli.build_report", "cli.run_verification"})


class Node:
    __slots__ = ("id", "parent", "report", "name", "calls", "total", "bits")

    def __init__(self, id_, parent, report, name):
        self.id, self.parent, self.report, self.name = id_, parent, report, name
        self.calls, self.total, self.bits = 0, 0.0, 0


class Tracer:
    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._index: dict[tuple, Node] = {}
        self._stack: list[Node] = []
        self.report: str | None = None
        self._installed: list[tuple] = []

    def _enter(self, name: str) -> Node:
        parent = self._stack[-1].id if self._stack else None
        key = (parent, self.report, name)
        node = self._index.get(key)
        if node is None:
            node = Node(len(self.nodes), parent, self.report, name)
            self.nodes.append(node)
            self._index[key] = node
        self._stack.append(node)
        return node

    def span(self, name: str, fn, *args, **kwargs):
        node = self._enter(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if name == SNF:
                self._record_bits(result)
            return result
        finally:
            node.total += perf_counter() - start
            node.calls += 1
            self._stack.pop()

    def _record_bits(self, snf) -> None:
        # a child span, so the scan is not counted as Smith normal form time
        node = self._enter(BITS)
        start = perf_counter()
        bits = max(
            (abs(x).bit_length() for m in (snf.U, snf.S, snf.V) for x in m.entries),
            default=0,
        )
        node.bits = max(node.bits, bits)
        node.total += perf_counter() - start
        node.calls += 1
        self._stack.pop()

    def report_span(self, label: str, fn, *args, **kwargs):
        """Run one analysis as the root span of report `label`."""
        self.report = label
        try:
            return self.span("bench.report", fn, *args, **kwargs)
        finally:
            self.report = None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer at every binding site."""
        if self._installed:
            return
        modules = {short: importlib.import_module(f"sepaut.{short}") for short in LAYERS}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or name in UNWRAPPED
                ):
                    continue
                wrappers[obj] = self.wrap(name, obj)
        holders = [m for k, m in sys.modules.items() if k == "sepaut" or k.startswith("sepaut.")]
        for mod in holders:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._installed.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._installed:
            setattr(mod, attr, obj)
        self._installed.clear()

    def dump(self, path) -> None:
        rows = [
            {
                "id": n.id, "parent": n.parent, "report": n.report, "name": n.name,
                "calls": n.calls, "total_s": n.total, "bits": n.bits,
            }
            for n in self.nodes
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def per_report(rows) -> dict[str, dict]:
    """Fold span rows into {report: {"ms": {name: ms}, "calls": {...}, "bits": int}}.

    "ms" holds self time, or total time for the names in TOTAL_TIME.
    """
    child_total: dict[int, float] = {}
    for r in rows:
        if r["parent"] is not None:
            child_total[r["parent"]] = child_total.get(r["parent"], 0.0) + r["total_s"]
    out: dict[str, dict] = {}
    for r in rows:
        rep = out.setdefault(r["report"], {"ms": {}, "calls": {}, "bits": 0})
        name = r["name"]
        secs = r["total_s"] if name in TOTAL_TIME else r["total_s"] - child_total.get(r["id"], 0.0)
        rep["ms"][name] = rep["ms"].get(name, 0.0) + 1000.0 * secs
        rep["calls"][name] = rep["calls"].get(name, 0) + r["calls"]
        rep["bits"] = max(rep["bits"], r["bits"])
    return out


def layer_metrics(reports: list[dict], ms_names, call_names) -> dict[str, float]:
    """Median over reports of each layer's time and call count (the lower
    median, so a count stays a count); the peak SNF entry bit length."""
    metrics = {}
    reports = reports or [{"ms": {}, "calls": {}, "bits": 0}]  # none after an abort
    for name in ms_names:
        metrics[f"{name}.ms"] = median(r["ms"].get(name, 0.0) for r in reports)
    for name in call_names:
        metrics[f"{name}.calls"] = median_low(r["calls"].get(name, 0) for r in reports)
    metrics[f"{SNF}.out_bits_max"] = max((r["bits"] for r in reports), default=0)
    return metrics
