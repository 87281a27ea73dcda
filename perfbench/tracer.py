"""Span tracer for the traced run.

It wraps perron's public functions from outside the package: each public
function (and the `Step` class) of a layer module is replaced, in that module
and in every perron module that imported it, by a wrapper that records one
span per call.  The adversary classes' `choose` methods are wrapped too.
Calls that go through a module global are therefore caught wherever they are
made; calls to private helpers are not, and their time stays with the caller.

A span is a name, a start, an end, its parent span and the id of the op it
belongs to.  Spans are kept in memory in flat arrays and written out at the
end; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("transforms", "tau", "engine", "game", "ordered_group", "monomials",
          "cli")

# Counts read from return values: span name -> (counter, function of result).
RESULT_COUNTS = {
    "engine.run_pair": ("engine.run_pair.rounds", lambda r: r.rounds),
    "game.solve": ("game.solve.rounds", lambda r: r.rounds),
    "ordered_group.positivize": ("ordered_group.positivize.steps",
                                 lambda r: len(r.steps)),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self._stack = [-1]
        self.op_id = -1
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        start, end, parent, names, ops = (self.start, self.end, self.parent,
                                          self.name, self.op)
        stack = self._stack
        clock = time.perf_counter
        tracer = self
        counter, count_of = RESULT_COUNTS.get(name, (None, None))

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            ops.append(tracer.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                tracer.counts[counter] += count_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every perron module; undo with uninstall()."""
        modules = {layer: importlib.import_module(f"perron.{layer}")
                   for layer in LAYERS}
        holders = [importlib.import_module("perron"), *modules.values()]
        adversary = modules["engine"].Adversary
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # imported here, wrapped where it is defined
                if inspect.isclass(obj) and issubclass(obj, adversary) \
                        and "choose" in vars(obj):
                    self._patch(obj, "choose",
                                self._wrap(f"{layer}.{attr}.choose", obj.choose))
                elif not attr.startswith("_") and (inspect.isfunction(obj)
                                                   or attr == "Step"):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patch(holder, attr, wrappers[id(obj)][1])

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self):
        """Per span name: calls and self seconds; plus the ratios measured
        at span boundaries."""
        n = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        self_s = Counter()
        under = Counter()  # (child name id, parent name id) -> spans
        for i in range(n):
            nid = name[i]
            calls[nid] += 1
            self_s[nid] += end[i] - start[i] - child[i]
            p = parent[i]
            if p >= 0:
                under[nid, name[p]] += 1
        table = {self.names[k]: {"calls": calls[k], "self_s": self_s[k]}
                 for k in calls}

        def nested(child_name, parent_name):
            c, p = self._ids.get(child_name), self._ids.get(parent_name)
            return under[c, p] if c is not None and p is not None else 0

        ratios = {
            "comparisons_in_advance_champion":
                nested("tau.comparability", "game.advance_champion"),
            "steps_in_max_growth": nested("transforms.Step", "engine.MaxGrowth.choose"),
        }
        return table, ratios

    def write(self, path: Path, extra):
        """Spans as flat binary columns after a one-line JSON header."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {"names": self.names, "spans": len(self.start),
                  "columns": [["start", "d"], ["end", "d"], ["parent", "q"],
                              ["name", "H"], ["op", "q"]], **extra}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for column in (self.start, self.end, self.parent, self.name, self.op):
                column.tofile(fh)
